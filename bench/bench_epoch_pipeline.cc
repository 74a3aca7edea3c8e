// Epoch pipelining: depth-D overlapped epoch changes over the remote async
// store, against a storage node with 1 ms service time.
//
// The proxy closes each epoch, hands its network-bound tail (flush the
// shards' deferred write-back, append + sync the delta checkpoint, truncate
// stale versions) to the background retirement stage, and immediately
// starts dispatching epoch N+1's batches; commit decisions release
// asynchronously once N's checkpoint is durable (fate sharing preserved).
//
// Topology per cell: loopback StorageServer whose bucket and log backends
// sit behind 1 ms latency decorators (the storage node's service time), the
// proxy connecting through RemoteBucketStore/RemoteLogStore (async
// multiplexed client). K ∈ {1, 4} shards.
//
// Depth sweep: the cells run at pipeline_depth D ∈ {1, 2, 3}, and depth 1
// is the baseline the deeper cells are measured against. Depth 1 admits one
// retiring epoch — the close stalls whenever the retirement tail
// (write-back wave + checkpoint append/sync + truncate) outlasts one epoch
// of paced batches. Depth 2 keeps a second epoch's tail
// in flight behind the first, so the cadence stays R*Δ until the tail
// exceeds TWO epochs; depth 3 shows the diminishing return past that. Δ is
// sized so the tail genuinely overruns one epoch at this node latency —
// otherwise every depth measures the same thing.
//
// Emits machine-readable BENCH_epoch_pipeline.json for the perf trajectory
// (CI smoke-checks it). Honors OBLADI_BENCH_SECONDS / OBLADI_BENCH_FULL.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/net/remote_store.h"
#include "src/net/storage_server.h"
#include "src/proxy/obladi_store.h"

namespace obladi {
namespace {

constexpr uint64_t kServiceTimeUs = 1000;

struct CellResult {
  uint32_t shards = 0;
  size_t depth = 1;
  double tps = 0;
  double epochs_per_sec = 0;
  double overlapped_frac = 0;
  double stall_ms = 0;
  uint64_t max_inflight_stash = 0;
  uint64_t sched_overlapped = 0;
  uint64_t stash_stalls = 0;
};

ObladiConfig MakeConfig(uint32_t shards, size_t depth) {
  ObladiConfig config = ObladiConfig::ForCapacity(512, /*z=*/4, /*payload=*/128);
  config.num_shards = shards;
  config.read_batches_per_epoch = 2;
  // Sized so the epoch is latency-bound, not compute-bound: a batch costs
  // ~2 log round trips (§8 plan logging) plus one read wave, and the
  // retirement tail is a short sequence of round trips (write-back wave,
  // checkpoint append+sync, truncate) — exactly the storage latency the
  // pipeline hides behind the next epoch's paced execution.
  config.read_batch_size = 8;
  config.write_batch_size = 8;
  // Short enough that the retirement tail outlasts one epoch (R*Δ = 6 ms
  // vs a ~4-8 ms tail at 1 ms/round-trip): depth 1's ordering gate then
  // stalls the close, which is exactly the stall depth 2 removes.
  config.batch_interval_us = 3000;
  config.timed_mode = true;
  config.pipeline_depth = depth;
  config.recovery.enabled = true;  // the checkpoint append is part of the tail
  config.oram_options.io_threads = 8;
  return config;
}

CellResult RunCell(uint32_t shards, size_t depth, double seconds, size_t num_clients) {
  CellResult cell;
  cell.shards = shards;
  cell.depth = depth;

  ObladiConfig config = MakeConfig(shards, depth);
  LatencyProfile node{"node1ms", kServiceTimeUs, kServiceTimeUs, 0};
  auto buckets = std::make_shared<MemoryBucketStore>(
      config.StoreBuckets(), config.MakeLayout().shard_config.slots_per_bucket());
  auto log = std::make_shared<MemoryLogStore>();
  StorageServerOptions server_opts;
  server_opts.num_workers = 24;  // wide enough for every sub-batch in flight
  StorageServer server(std::make_shared<LatencyBucketStore>(buckets, node),
                       std::make_shared<LatencyLogStore>(log, node), server_opts);
  Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
    return cell;
  }

  RemoteStoreOptions opts;
  opts.port = server.port();
  auto remote_buckets = RemoteBucketStore::Connect(opts);
  auto remote_log = RemoteLogStore::Connect(opts);
  if (!remote_buckets.ok() || !remote_log.ok()) {
    std::fprintf(stderr, "connect failed\n");
    return cell;
  }
  ObladiStore proxy(config, std::move(*remote_buckets), std::move(*remote_log));

  std::vector<std::pair<Key, std::string>> records;
  for (int i = 0; i < 448; ++i) {
    records.emplace_back("key" + std::to_string(i), "value" + std::to_string(i));
  }
  st = proxy.Load(records);
  if (!st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    return cell;
  }

  proxy.Start();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> clients;
  clients.reserve(num_clients);
  for (size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      // Delayed visibility's intended client model: the commit decision for
      // epoch N arrives asynchronously (after N's retirement), so a client
      // pipelines its own transactions instead of blocking on each decision
      // — otherwise decision latency, not proxy capacity, bounds txn/s.
      Rng rng(0x9e11 + c);
      std::vector<std::shared_future<Status>> pending;
      auto reap = [&](bool block) {
        while (!pending.empty()) {
          // Bounded even when blocking: if the proxy dies (pacer fatal
          // error), undecided futures must not hang the harness.
          auto wait = block ? std::chrono::seconds(5) : std::chrono::seconds(0);
          if (pending.front().wait_for(wait) != std::future_status::ready) {
            if (block) {
              pending.clear();  // abandoned: counted as not committed
            }
            return;
          }
          if (pending.front().get().ok()) {
            committed.fetch_add(1, std::memory_order_relaxed);
          }
          pending.erase(pending.begin());
        }
      };
      while (!stop.load(std::memory_order_relaxed)) {
        reap(/*block=*/pending.size() >= 2);
        std::string key = "key" + std::to_string(rng.Uniform(448));
        Timestamp t = proxy.Begin();
        auto v = proxy.Read(t, key);
        if (!v.ok()) {
          proxy.Abort(t);
          std::this_thread::sleep_for(std::chrono::microseconds(500));
          continue;
        }
        if (!proxy.Write(t, key, *v + "!").ok()) {
          proxy.Abort(t);
          continue;
        }
        auto fut = proxy.CommitAsync(t);
        if (fut.ok()) {
          pending.push_back(std::move(*fut));
        }
      }
      reap(/*block=*/true);
    });
  }

  // Warmup, then measure over the steady state.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ObladiStats warm = proxy.stats();
  uint64_t committed_warm = committed.load();
  uint64_t start_us = NowMicros();
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<uint64_t>(seconds * 1e6)));
  uint64_t wall_us = NowMicros() - start_us;
  uint64_t committed_run = committed.load() - committed_warm;
  ObladiStats stats = proxy.stats();

  stop.store(true);
  for (auto& c : clients) {
    c.join();
  }
  proxy.Stop();
  (void)proxy.DrainRetirement();

  double wall_s = static_cast<double>(wall_us) / 1e6;
  uint64_t epochs = stats.epochs - warm.epochs;
  cell.tps = static_cast<double>(committed_run) / wall_s;
  cell.epochs_per_sec = static_cast<double>(epochs) / wall_s;
  cell.overlapped_frac =
      epochs > 0 ? static_cast<double>(stats.epochs_overlapped - warm.epochs_overlapped) /
                       static_cast<double>(epochs)
                 : 0.0;
  cell.stall_ms =
      static_cast<double>(stats.retire_stall_us - warm.retire_stall_us) / 1000.0;
  cell.max_inflight_stash = stats.max_inflight_stash_blocks;
  cell.sched_overlapped = stats.sched_overlapped_accesses - warm.sched_overlapped_accesses;
  cell.stash_stalls = stats.stash_budget_stalls - warm.stash_budget_stalls;
  return cell;
}

void EmitJson(const std::vector<CellResult>& cells, double d2_vs_d1_k1, double d2_vs_d1_k4) {
  Json cell_array = Json::Array();
  for (const CellResult& c : cells) {
    cell_array.Push(Json::Object()
                        .Set("shards", Json::Int(c.shards))
                        .Set("pipeline_depth", Json::Int(c.depth))
                        .Set("txn_per_sec", Json::Num(c.tps, 1))
                        .Set("epochs_per_sec", Json::Num(c.epochs_per_sec, 1))
                        .Set("overlapped_frac", Json::Num(c.overlapped_frac, 2))
                        .Set("retire_stall_ms", Json::Num(c.stall_ms, 1))
                        .Set("max_inflight_stash_blocks", Json::Int(c.max_inflight_stash))
                        .Set("sched_overlapped_accesses", Json::Int(c.sched_overlapped))
                        .Set("stash_budget_stalls", Json::Int(c.stash_stalls)));
  }
  Json root = Json::Object()
                  .Set("bench", Json::Str("epoch_pipeline"))
                  .Set("service_time_us", Json::Int(kServiceTimeUs))
                  .Set("cells", std::move(cell_array))
                  .Set("depth2_vs_depth1_k1", Json::Num(d2_vs_d1_k1, 2))
                  .Set("depth2_vs_depth1_k4", Json::Num(d2_vs_d1_k4, 2));
  if (WriteBenchJson("BENCH_epoch_pipeline.json", root)) {
    std::printf("depth2 vs depth1: %.2fx at K=1, %.2fx at K=4\n", d2_vs_d1_k1, d2_vs_d1_k4);
  }
}

void Run() {
  double seconds = BenchSeconds() * (BenchFull() ? 4.0 : 2.0);
  // Saturating load (~2x the epoch's read capacity): commit decisions arrive
  // one retirement later, so per-client latency cannot be allowed to bound
  // throughput — with the batch slots contended at every depth, txn/s =
  // batch capacity x epoch rate, which is what a deeper pipeline improves.
  size_t num_clients = 24;

  Table table("Epoch pipelining — depth-D overlapped epoch changes "
              "(remote async store, 1 ms node, Δ=3ms, R=2)");
  table.Columns({"shards", "depth", "txn/s", "epochs/s", "ovl%", "stall_ms", "max_stash",
                 "early"});

  std::vector<CellResult> cells;
  double tps[5][4] = {{0}};  // tps[shards][depth]
  for (uint32_t shards : {1u, 4u}) {
    for (size_t depth : {size_t{1}, size_t{2}, size_t{3}}) {
      CellResult c = RunCell(shards, depth, seconds, num_clients);
      cells.push_back(c);
      tps[shards][depth] = c.tps;
      table.Row({FmtInt(shards), FmtInt(depth), FmtInt(static_cast<uint64_t>(c.tps)),
                 Fmt(c.epochs_per_sec, 1), Fmt(100.0 * c.overlapped_frac, 0) + "%",
                 Fmt(c.stall_ms, 1), FmtInt(c.max_inflight_stash),
                 FmtInt(c.sched_overlapped)});
    }
  }
  table.Print();

  double d2d1_k1 = tps[1][1] > 0 ? tps[1][2] / tps[1][1] : 0;
  double d2d1_k4 = tps[4][1] > 0 ? tps[4][2] / tps[4][1] : 0;
  std::printf("depth 1 re-serializes on the retirement tail once it outlasts one epoch; "
              "depth 2 keeps a second tail in flight so the cadence stays R*Δ.\n");
  EmitJson(cells, d2d1_k1, d2d1_k4);
}

}  // namespace
}  // namespace obladi

int main() {
  obladi::TuneAllocatorForBenchmarks();
  obladi::Run();
  return 0;
}
