// Remote storage over a real loopback socket vs. the latency decorators'
// simulation of it.
//
// Part 1 — batch-size sweep: reads the same slot workload through
// RemoteBucketStore with growing ReadSlotsBatch sizes and lines the measured
// round trips / payload bytes up against what a LatencyBucketStore charges
// for the identical call sequence. Batched RPCs must cut round trips by
// exactly the batch factor (one round trip per batch), which is the property
// the decorators assume when they charge one latency per batched request.
//
// Part 2 — async multiplexing sweep: ONE event-loop thread and ONE
// connection, with outstanding ∈ {1, 16, 64, 256} requests in flight
// against a storage node with 1 ms service time — overlap without a thread
// per RPC. Also measures an epoch's batched-GC round trips (must equal the
// shard count).
// Emits machine-readable BENCH_net_async.json for the perf trajectory.
//
// Honors OBLADI_BENCH_FULL=1 for a larger sweep.
#include <chrono>
#include <cstdio>
#include <map>

#include "bench/bench_common.h"
#include "src/net/async_client.h"
#include "src/net/remote_store.h"
#include "src/net/storage_server.h"
#include "tests/gc_probe.h"

namespace obladi {
namespace {

constexpr size_t kSlotsPerBucket = 8;
constexpr size_t kSlotBytes = 256;
constexpr size_t kNumBuckets = 1024;

std::shared_ptr<MemoryBucketStore> MakeLoadedStore() {
  auto store = std::make_shared<MemoryBucketStore>(kNumBuckets, kSlotsPerBucket);
  std::vector<Bytes> image(kSlotsPerBucket, Bytes(kSlotBytes, 0xc1));
  for (BucketIndex b = 0; b < kNumBuckets; ++b) {
    (void)store->WriteBucket(b, 0, image);
  }
  return store;
}

std::vector<SlotRef> MakeWorkload(size_t n, Rng& rng) {
  std::vector<SlotRef> refs;
  refs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    refs.push_back(SlotRef{static_cast<BucketIndex>(rng.NextU64() % kNumBuckets), 0,
                           static_cast<SlotIndex>(rng.NextU64() % kSlotsPerBucket)});
  }
  return refs;
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

void RunBatchSweep(uint16_t port, bool full) {
  size_t total_reads = full ? 65536 : 16384;
  std::vector<size_t> batch_sizes = {1, 4, 16, 64, 256};

  Rng rng(0xbe7c4);
  std::vector<SlotRef> workload = MakeWorkload(total_reads, rng);

  // The simulated wire: same calls against a zero-latency decorator, whose
  // NetworkStats are the decorators' *prediction* of the traffic.
  auto simulated =
      std::make_shared<LatencyBucketStore>(MakeLoadedStore(), LatencyProfile::Dummy());

  Table table("Remote storage — batch size sweep (" + FmtInt(total_reads) +
              " slot reads over loopback, 1 connection)");
  table.Columns({"batch", "round_trips", "rt_predicted", "MB_read", "MB_predicted",
                 "MB_wire_down", "MB_wire_pred", "wall_ms", "reads/s", "rt_cut_vs_unary"});

  uint64_t unary_round_trips = 0;
  for (size_t batch : batch_sizes) {
    RemoteStoreOptions opts;
    opts.port = port;
    auto remote = RemoteBucketStore::Connect(opts);
    if (!remote.ok()) {
      std::fprintf(stderr, "connect failed: %s\n", remote.status().ToString().c_str());
      return;
    }
    (*remote)->stats().Reset();
    simulated->mutable_stats().Reset();

    auto start = std::chrono::steady_clock::now();
    for (size_t off = 0; off < workload.size(); off += batch) {
      size_t end = std::min(off + batch, workload.size());
      std::vector<SlotRef> refs(workload.begin() + static_cast<ptrdiff_t>(off),
                                workload.begin() + static_cast<ptrdiff_t>(end));
      auto real = (*remote)->ReadSlotsBatch(refs);
      auto sim = simulated->ReadSlotsBatch(refs);
      for (size_t i = 0; i < real.size(); ++i) {
        if (!real[i].ok() || !sim[i].ok() || real[i]->size() != sim[i]->size()) {
          std::fprintf(stderr, "real/simulated results diverge at batch %zu\n", batch);
          return;
        }
      }
    }
    double wall_ms = MillisSince(start);

    const NetworkStats& real_stats = (*remote)->stats();
    const NetworkStats& sim_stats = simulated->stats();
    if (batch == 1) {
      unary_round_trips = real_stats.round_trips.load();
    }
    double cut = unary_round_trips > 0 ? static_cast<double>(unary_round_trips) /
                                             static_cast<double>(real_stats.round_trips.load())
                                       : 0.0;
    table.Row({FmtInt(batch), FmtInt(real_stats.round_trips.load()),
               FmtInt(sim_stats.round_trips.load()),
               Fmt(static_cast<double>(real_stats.bytes_read.load()) / 1e6, 2),
               Fmt(static_cast<double>(sim_stats.bytes_read.load()) / 1e6, 2),
               Fmt(static_cast<double>(real_stats.bytes_received.load()) / 1e6, 2),
               Fmt(static_cast<double>(sim_stats.bytes_received.load()) / 1e6, 2),
               Fmt(wall_ms),
               FmtInt(static_cast<uint64_t>(1000.0 * static_cast<double>(total_reads) /
                                            wall_ms)),
               Fmt(cut, 1) + "x"});
  }
  table.Print();
  std::printf("(rt_cut_vs_unary should track the batch factor: one RPC round trip per "
              "batched request. MB_wire_down is the measured client-side wire download — "
              "frames + length prefixes — next to the latency decorator's model of it.)\n");
}

// One event-loop thread, one socket, `outstanding` requests kept in flight
// via a completion queue: every drained completion immediately funds the
// next submission. No client thread ever blocks on a response. The server's
// backend charges a 1 ms per-request service time (a latency decorator
// *behind* the socket): with storage that slow, overlapping outstanding
// requests is the only lever. Against a zero-latency memory backend the
// sweep would be flat — loopback syscall cost dominates. (1 ms also keeps
// the decorator in its true-sleep regime rather than its sub-500us
// spin-wait, which would serialize on small hosts.)
std::map<size_t, double> RunAsyncSweep(uint16_t port, bool full) {
  double seconds = BenchSeconds() * (full ? 1.0 : 0.5);
  std::vector<size_t> outstanding_sweep = {1, 16, 64, 256};
  std::map<size_t, double> reads_per_sec;

  Table table("Remote storage — async multiplexing sweep (1 event-loop thread, "
              "1 connection, 1ms backend service time)");
  table.Columns({"outstanding", "completions", "wall_ms", "reads/s", "speedup_vs_1"});

  double serial_rps = 0;
  for (size_t outstanding : outstanding_sweep) {
    AsyncClientOptions opts;
    opts.port = port;
    opts.num_connections = 1;
    auto client = AsyncNetClient::Connect(opts);
    if (!client.ok()) {
      std::fprintf(stderr, "connect failed: %s\n", client.status().ToString().c_str());
      return reads_per_sec;
    }
    Rng rng(0xa54c);
    CompletionQueue cq;
    auto submit_one = [&] {
      NetRequest req;
      req.type = MsgType::kReadSlots;
      req.reads = {{static_cast<BucketIndex>(rng.NextU64() % kNumBuckets), 0,
                    static_cast<SlotIndex>(rng.NextU64() % kSlotsPerBucket)}};
      (*client)->Submit(std::move(req), &cq, 0);
    };

    auto start = std::chrono::steady_clock::now();
    auto deadline = start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                std::chrono::duration<double>(seconds));
    for (size_t i = 0; i < outstanding; ++i) {
      submit_one();
    }
    uint64_t completions = 0;
    size_t in_flight = outstanding;
    // The queue outlives every in-flight request only if we drain fully —
    // including on the error path, or a late completion would Push into a
    // destroyed queue.
    auto drain = [&] {
      while (in_flight > 0) {
        (void)cq.Next();
        --in_flight;
      }
    };
    bool failed = false;
    while (std::chrono::steady_clock::now() < deadline) {
      auto c = cq.Next();
      --in_flight;
      if (!c.result.ok() || !c.result->ToStatus().ok()) {
        std::fprintf(stderr, "async read failed\n");
        failed = true;
        break;
      }
      ++completions;
      submit_one();
      ++in_flight;
    }
    drain();
    if (failed) {
      return reads_per_sec;
    }
    double wall_ms = MillisSince(start);
    reads_per_sec[outstanding] = 1000.0 * static_cast<double>(completions) / wall_ms;
    if (outstanding == 1) {
      serial_rps = reads_per_sec[outstanding];
    }
    table.Row({FmtInt(outstanding), FmtInt(completions), Fmt(wall_ms),
               FmtInt(static_cast<uint64_t>(reads_per_sec[outstanding])),
               Fmt(serial_rps > 0 ? reads_per_sec[outstanding] / serial_rps : 0.0, 1) + "x"});
  }
  table.Print();
  std::printf("(one thread drives all outstanding requests.)\n");
  return reads_per_sec;
}

void EmitJson(const std::map<size_t, double>& async_rps, const GcProbeResult& gc) {
  double serial = async_rps.count(1) ? async_rps.at(1) : 0;
  double async64 = async_rps.count(64) ? async_rps.at(64) : 0;
  Json async_sweep = Json::Array();
  for (const auto& [outstanding, rps] : async_rps) {
    async_sweep.Push(Json::Object()
                         .Set("outstanding", Json::Int(outstanding))
                         .Set("reads_per_sec", Json::Num(rps, 1)));
  }
  Json root = Json::Object()
                  .Set("bench", Json::Str("net_async"))
                  .Set("service_time_us", Json::Int(1000))
                  .Set("async_sweep", std::move(async_sweep))
                  .Set("serial_reads_per_sec", Json::Num(serial, 1))
                  .Set("async64_reads_per_sec", Json::Num(async64, 1))
                  .Set("async64_vs_serial", Json::Num(serial > 0 ? async64 / serial : 0, 2))
                  .Set("gc_shards", Json::Int(gc.shards))
                  .Set("gc_round_trips", Json::Int(gc.round_trips))
                  .Set("gc_buckets", Json::Int(gc.buckets));
  if (WriteBenchJson("BENCH_net_async.json", root)) {
    std::printf("async64 %.0f reads/s = %.1fx serial\n", async64,
                serial > 0 ? async64 / serial : 0);
  }
}

void Run() {
  TuneAllocatorForBenchmarks();
  bool full = BenchFull();

  auto backend = MakeLoadedStore();
  StorageServerOptions server_opts;
  server_opts.num_workers = 32;
  StorageServer server(backend, std::make_shared<MemoryLogStore>(), server_opts);
  Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
    return;
  }
  std::printf("loopback StorageServer on 127.0.0.1:%u (%zu buckets x %zu slots x %zu B)\n",
              server.port(), kNumBuckets, kSlotsPerBucket, kSlotBytes);

  RunBatchSweep(server.port(), full);

  // Separate storage node for the overlap sweep: same data, 1 ms service
  // time, provisioned wide enough that 64+ multiplexed requests from one
  // connection can all be in the backend simultaneously.
  LatencyProfile slow_profile{"slow", 1000, 1000, 0};
  auto slow_backend = std::make_shared<LatencyBucketStore>(backend, slow_profile);
  StorageServerOptions slow_opts;
  slow_opts.num_workers = 96;
  StorageServer slow_server(slow_backend, nullptr, slow_opts);
  st = slow_server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "slow server start failed: %s\n", st.ToString().c_str());
    return;
  }
  auto async_rps = RunAsyncSweep(slow_server.port(), full);
  // Epoch GC over the wire (shared probe with net_test): round trips must
  // equal the shard count, not the bucket count.
  GcProbeResult gc = RunGcRoundTripProbe(4);
  std::printf("epoch GC over the wire: %llu round trips for %u shards (%u buckets)%s\n",
              static_cast<unsigned long long>(gc.round_trips), gc.shards, gc.buckets,
              gc.ok ? "" : "  [probe FAILED]");
  EmitJson(async_rps, gc);

  std::printf("\nbatch-sweep server: %llu requests, %.2f MB in, %.2f MB out\n",
              static_cast<unsigned long long>(server.stats().requests_served.load()),
              static_cast<double>(server.stats().bytes_received.load()) / 1e6,
              static_cast<double>(server.stats().bytes_sent.load()) / 1e6);
  std::printf("1ms-node server: %llu requests, %llu out-of-order replies\n",
              static_cast<unsigned long long>(slow_server.stats().requests_served.load()),
              static_cast<unsigned long long>(
                  slow_server.stats().out_of_order_replies.load()));
}

}  // namespace
}  // namespace obladi

int main() {
  obladi::Run();
  return 0;
}
