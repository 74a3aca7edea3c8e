// End-to-end benchmark of the loopback deployment: proxy -> TCP ->
// StorageServer -> file-backed buckets and WAL — the deployment
// src/audit/nemesis.cc builds, with faults off. README.md has the workload
// rationale and the metric -> layer map.
//
//   e2e_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1|both]
//             [--out DIR]
//
//   --trace 0     untraced pass: the end-to-end metrics (the default)
//   --trace 1     traced pass: the per-layer metrics, a Perfetto trace and
//                 the per-epoch ledger
//   --trace both  both passes, the traced one for 10 s, and the tracing
//                 overhead
//
// Prints "METRIC <workload> <name> <value> <unit>" and "CHECK ..." lines,
// writes DIR/<workload>.json, and exits 1 when a correctness check fails
// (2 on a usage or deployment error).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "bench/e2e/ledger.h"
#include "bench/e2e/load_gen.h"
#include "bench/e2e/timed_store.h"
#include "src/audit/audit_workload.h"
#include "src/net/remote_store.h"
#include "src/net/storage_server.h"
#include "src/proxy/obladi_store.h"
#include "src/storage/file_bucket_store.h"
#include "src/storage/file_log_store.h"
#include "src/storage/latency_store.h"
#include "src/workload/smallbank.h"

namespace obladi::e2e {
namespace {

namespace fs = std::filesystem;
using Records = std::vector<std::pair<Key, std::string>>;

// Per deployment; throughput and latency settle within the first second.
constexpr uint64_t kWarmupNs = 2'000'000'000;
// Fresh deployments the untraced pass measures and pools. Run-to-run
// variation is mostly per deployment (it persists through a 30 s window),
// so spreading the window over several deployments steadies the result
// where a longer window does not.
constexpr size_t kSegments = 3;
constexpr size_t kCheckKeys = 1024;
// Blocking readers for the state checks; many share each padded batch.
constexpr size_t kCheckThreads = 32;
// A latency percentile that falls on a failed transaction has no finite
// value; it is reported as this.
constexpr double kNoLatencyMs = 1e9;
// Trace records per second the busiest thread ring must hold: the event
// loop's (two counters and a span per RPC) reaches ~45k/s on ycsb_hot.
// Rings are sized from the window so a traced pass never wraps them.
constexpr size_t kTraceRecordsPerSecond = 64 * 1024;
constexpr double kTracedSecondsWithBoth = 10;

struct WorkloadSpec {
  const char* name;
  uint64_t storage_latency_us;  // injected in front of the server's file stores
  std::unique_ptr<Workload> (*make)();
};

std::unique_ptr<Workload> MakeSmallBank() {
  SmallBankConfig cfg;
  cfg.num_accounts = 10000;  // 20k records, uniform
  return std::make_unique<SmallBankWorkload>(cfg);
}

std::unique_ptr<Workload> MakeYcsbHot() {
  AuditWorkloadConfig cfg;
  cfg.num_keys = 2000;
  cfg.zipf_theta = 0.99;
  cfg.ops_per_txn = 4;
  cfg.write_fraction = 0.5;
  cfg.value_size = 100;
  return std::make_unique<AuditWorkload>(cfg);
}

std::unique_ptr<Workload> MakeYcsbLarge() {
  AuditWorkloadConfig cfg;
  cfg.num_keys = 50000;
  cfg.ops_per_txn = 2;
  cfg.write_fraction = 0.1;
  cfg.value_size = 100;
  return std::make_unique<AuditWorkload>(cfg);
}

const WorkloadSpec kWorkloads[] = {
    {"smallbank", 0, MakeSmallBank},
    {"smallbank_1ms", 1000, MakeSmallBank},
    {"ycsb_hot", 0, MakeYcsbHot},
    {"ycsb_large", 0, MakeYcsbLarge},
};

// `trace_ring_capacity` > 0 arms the tracer and the watchdog (the traced
// pass).
ObladiConfig MakeConfig(uint64_t records, size_t trace_ring_capacity) {
  ObladiConfig cfg = ObladiConfig::ForCapacity(records, /*z=*/4, /*payload=*/128);
  cfg.num_shards = 4;
  cfg.pipeline_depth = 2;
  cfg.read_batches_per_epoch = 8;
  cfg.read_batch_size = 64;
  cfg.write_batch_size = 160;
  cfg.batch_interval_us = 300;
  cfg.timed_mode = true;
  cfg.pipeline_epochs = true;
  cfg.recovery.enabled = true;
  cfg.recovery.full_checkpoint_interval = 4;
  cfg.oram_options.io_threads = 8;
  if (trace_ring_capacity > 0) {
    cfg.obs.trace = true;
    cfg.obs.trace_ring_capacity = trace_ring_capacity;
    cfg.obs.watchdog = true;
    // The exact shape checks stay armed; the wire-byte band does not fit
    // this deployment: every 4th epoch carries a full checkpoint, which
    // swings per-epoch bytes sent by ~40-50% at these store sizes.
    cfg.obs.watchdog_byte_tolerance = 0;
  }
  return cfg;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

void SleepUntilNs(uint64_t deadline_ns) {
  const uint64_t now = NowNanos();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// One storage server over file stores in `dir`, and the proxy connected to
// it over one multiplexed connection. `timed` installs the timing
// decorators on both sides of the wire (the traced pass).
class Deployment {
 public:
  static StatusOr<std::unique_ptr<Deployment>> Start(const ObladiConfig& cfg, std::string dir,
                                                     uint64_t storage_latency_us, bool timed,
                                                     const Records& records) {
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    if (ec) {
      return Status::Unavailable("cannot create " + dir + ": " + ec.message());
    }
    std::unique_ptr<Deployment> d(new Deployment(cfg, std::move(dir), storage_latency_us, timed));
    const uint64_t start = NowNanos();
    OBLADI_RETURN_IF_ERROR(d->StartServer(/*port=*/0));
    RemoteStoreOptions opts;
    opts.port = d->server_->port();
    auto remote = RemoteBucketStore::Connect(opts);
    if (!remote.ok()) {
      return remote.status();
    }
    d->client_ = (*remote)->client();
    std::shared_ptr<BucketStore> buckets = std::move(*remote);
    std::shared_ptr<LogStore> log = std::make_shared<RemoteLogStore>(d->client_);
    if (timed) {
      buckets = std::make_shared<TimedBucketStore>(std::move(buckets), kNetSpans);
      log = std::make_shared<TimedLogStore>(std::move(log), kNetSpans);
    }
    d->proxy_ = std::make_unique<ObladiStore>(cfg, std::move(buckets), std::move(log));
    OBLADI_RETURN_IF_ERROR(d->proxy_->Load(records));
    d->proxy_->Start();
    d->setup_s_ = static_cast<double>(NowNanos() - start) / 1e9;
    return d;
  }

  ~Deployment() {
    if (proxy_ != nullptr) {
      proxy_->Stop();
      (void)proxy_->DrainRetirement();
      proxy_.reset();
    }
    if (server_ != nullptr) {
      server_->Stop();
      server_.reset();
    }
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  ObladiStore& proxy() { return *proxy_; }
  NetworkStats& net() { return client_->stats(); }
  double setup_s() const { return setup_s_; }

  uint64_t FileBytes() const {
    std::error_code ec;
    uint64_t total = 0;
    for (const char* name : {"/buckets.dat", "/wal.dat"}) {
      const auto size = fs::file_size(dir_ + name, ec);
      total += ec ? 0 : size;
    }
    return total;
  }

  // Crash the proxy, restart the storage server from its files on the same
  // port, and recover the proxy from the log.
  Status CrashAndRecover(RecoveryBreakdown* breakdown) {
    proxy_->SimulateCrash();
    const uint16_t port = server_->port();
    server_->Stop();
    server_.reset();
    OBLADI_RETURN_IF_ERROR(StartServer(port));
    Status st;
    for (int attempt = 0; attempt < 50; ++attempt) {
      st = proxy_->RecoverFromCrash(breakdown);
      if (st.ok()) {
        proxy_->Start();
        return st;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return st;
  }

 private:
  Deployment(const ObladiConfig& cfg, std::string dir, uint64_t storage_latency_us, bool timed)
      : cfg_(cfg), dir_(std::move(dir)), storage_latency_us_(storage_latency_us), timed_(timed) {}

  Status StartServer(uint16_t port) {
    std::shared_ptr<BucketStore> buckets = std::make_shared<FileBucketStore>(
        dir_ + "/buckets.dat", cfg_.StoreBuckets(),
        cfg_.MakeLayout().shard_config.slots_per_bucket());
    std::shared_ptr<LogStore> log = std::make_shared<FileLogStore>(dir_ + "/wal.dat");
    if (timed_) {
      buckets = std::make_shared<TimedBucketStore>(std::move(buckets), kStorageSpans);
      log = std::make_shared<TimedLogStore>(std::move(log), kStorageSpans);
    }
    if (storage_latency_us_ > 0) {
      LatencyProfile profile{"node", storage_latency_us_, storage_latency_us_, 0};
      buckets = std::make_shared<LatencyBucketStore>(std::move(buckets), profile);
      log = std::make_shared<LatencyLogStore>(std::move(log), profile);
    }
    StorageServerOptions opts;
    opts.port = port;
    opts.num_workers = 16;
    server_ = std::make_unique<StorageServer>(std::move(buckets), std::move(log), opts);
    Status st;
    for (int attempt = 0; attempt < 100; ++attempt) {  // the old socket may linger
      st = server_->Start();
      if (st.ok()) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return st;
  }

  const ObladiConfig cfg_;
  const std::string dir_;
  const uint64_t storage_latency_us_;
  const bool timed_;
  double setup_s_ = 0;
  std::unique_ptr<StorageServer> server_;
  std::shared_ptr<AsyncNetClient> client_;
  std::unique_ptr<ObladiStore> proxy_;
};

struct Snapshot {
  uint64_t ns = 0;
  double cpu_s = 0;
  ObladiStats proxy;
  MvtsoStats txn;
  RingOramStats oram;
  uint64_t round_trips = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
};

Snapshot TakeSnapshot(Deployment& d) {
  Snapshot s;
  s.ns = NowNanos();
  s.cpu_s = ProcessCpuSeconds();
  s.proxy = d.proxy().stats();
  s.txn = d.proxy().txn_stats();
  s.oram = d.proxy().oram()->stats();
  s.round_trips = d.net().round_trips.load();
  s.bytes_sent = d.net().bytes_sent.load();
  s.bytes_received = d.net().bytes_received.load();
  return s;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct PassResult {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double tps = 0;
  std::vector<Metric> metrics;
  Json checks = Json::Object();
};

Json CheckJson(const StateCheck& c) {
  return Json::Object()
      .Set("pass", Json::Bool(c.ok()))
      .Set("keys", Json::Int(c.keys))
      .Set("matched", Json::Int(c.matched))
      .Set("mismatched", Json::Int(c.mismatched))
      .Set("unreadable", Json::Int(c.unreadable));
}

// The traced pass's per-layer metrics, named after the modules they
// measure. README.md maps each to the end-to-end metric it should move.
void AddPerLayerMetrics(const SpanReduction& spans, const Snapshot& s0, const Snapshot& s1,
                        const ObladiConfig& cfg, uint64_t storage_latency_us,
                        uint64_t watchdog_violations, double space_amp,
                        const RecoveryBreakdown& recovery, std::vector<Metric>* out) {
  auto add = [out](const char* name, double value, const char* unit) {
    out->push_back({name, value, unit});
  };
  const double window_s = static_cast<double>(s1.ns - s0.ns) / 1e9;
  const ObladiStats& p0 = s0.proxy;
  const ObladiStats& p1 = s1.proxy;
  const double epochs = static_cast<double>(p1.epochs - p0.epochs);
  auto per_epoch = [epochs](double x) { return Ratio(x, epochs); };

  // proxy: the ObladiStore calls, timed by SessionKv and the collector.
  const SpanSummary reads = spans.Summary({"proxy.read"});
  const SpanSummary decision = spans.Summary({"proxy.decision_wait"});
  const double batches = static_cast<double>(p1.read_batches - p0.read_batches);
  const double fetches = static_cast<double>(p1.oram_fetches - p0.oram_fetches);
  const double committed = static_cast<double>(s1.txn.committed - s0.txn.committed);
  add("proxy.read_p50_ms", reads.p50_ms, "ms");
  add("proxy.read_p99_ms", reads.p99_ms, "ms");
  add("proxy.exec_p50_ms", spans.Summary({"proxy.exec"}).p50_ms, "ms");
  add("proxy.decision_wait_p50_ms", decision.p50_ms, "ms");
  add("proxy.decision_wait_p99_ms", decision.p99_ms, "ms");
  add("proxy.epochs_per_s", epochs / window_s, "1/s");
  add("proxy.batches_per_s", batches / window_s, "1/s");
  add("proxy.retire_stall_ms_per_epoch",
      per_epoch(static_cast<double>(p1.retire_stall_us - p0.retire_stall_us) / 1e3), "ms");
  add("proxy.stash_stall_ms_per_epoch",
      per_epoch(static_cast<double>(p1.stash_budget_stall_us - p0.stash_budget_stall_us) / 1e3),
      "ms");
  add("proxy.overlapped_frac",
      per_epoch(static_cast<double>(p1.epochs_overlapped - p0.epochs_overlapped)), "fraction");
  add("proxy.batch_fill", Ratio(fetches, batches * static_cast<double>(cfg.read_batch_size)),
      "fraction");
  // Served reads that did not take a new fetch slot: version-cache hits
  // plus reads coalesced onto a fetch already in flight.
  add("proxy.cache_hit_frac",
      std::max(0.0, 1.0 - Ratio(fetches, static_cast<double>(reads.count))), "fraction");
  add("proxy.dedup_per_fetch",
      Ratio(static_cast<double>(p1.fetch_dedups - p0.fetch_dedups), fetches), "count");
  add("proxy.read_overflow_per_commit",
      Ratio(static_cast<double>(p1.batch_overflow_aborts - p0.batch_overflow_aborts), committed),
      "count");

  // txn: the MVTSO engine's abort causes, per commit.
  const MvtsoStats& x0 = s0.txn;
  const MvtsoStats& x1 = s1.txn;
  const double write_conflict =
      static_cast<double>(x1.aborts_write_conflict - x0.aborts_write_conflict);
  const double cascade = static_cast<double>(x1.aborts_cascade - x0.aborts_cascade);
  const double unfinished =
      static_cast<double>(x1.aborts_unfinished_epoch - x0.aborts_unfinished_epoch);
  const double overflow = static_cast<double>(x1.aborts_batch_overflow - x0.aborts_batch_overflow);
  const double explicit_aborts = static_cast<double>(x1.aborts_explicit - x0.aborts_explicit);
  add("txn.aborts_per_commit",
      Ratio(write_conflict + cascade + unfinished + overflow + explicit_aborts, committed),
      "count");
  add("txn.aborts_batch_overflow_per_commit", Ratio(overflow, committed), "count");
  add("txn.aborts_unfinished_epoch_per_commit", Ratio(unfinished, committed), "count");
  add("txn.aborts_write_conflict_per_commit", Ratio(write_conflict, committed), "count");
  add("txn.aborts_cascade_per_commit", Ratio(cascade, committed), "count");

  // oram/shard: the ORAM set's counters.
  auto oram = [&](uint64_t RingOramStats::*field) {
    return static_cast<double>(s1.oram.*field - s0.oram.*field);
  };
  const double accesses = oram(&RingOramStats::logical_accesses);
  add("oram.slot_reads_per_access", Ratio(oram(&RingOramStats::physical_slot_reads), accesses),
      "count");
  add("oram.bucket_writes_per_epoch", per_epoch(oram(&RingOramStats::physical_bucket_writes)),
      "count");
  add("oram.evictions_per_epoch", per_epoch(oram(&RingOramStats::evictions)), "count");
  add("oram.early_reshuffles_per_epoch", per_epoch(oram(&RingOramStats::early_reshuffles)),
      "count");
  add("oram.xor_path_frac", Ratio(oram(&RingOramStats::xor_path_reads), accesses), "fraction");
  add("oram.flush_plan_ms_per_epoch", per_epoch(oram(&RingOramStats::flush_plan_us) / 1e3),
      "ms");
  add("oram.materialize_ms_per_epoch", per_epoch(oram(&RingOramStats::materialize_us) / 1e3),
      "ms");
  add("oram.write_drain_ms_per_epoch", per_epoch(oram(&RingOramStats::write_drain_us) / 1e3),
      "ms");

  // The program's existing spans.
  add("span.epoch.read_batch_ms_p50", spans.Summary({"epoch.read_batch"}).p50_ms, "ms");
  add("span.epoch.close_ms_p50", spans.Summary({"epoch.close"}).p50_ms, "ms");
  add("span.epoch.retire_ms_p50", spans.Summary({"epoch.retire"}).p50_ms, "ms");
  add("span.oram.decrypt_ms_per_epoch", per_epoch(spans.Summary({"oram.decrypt"}).total_ms),
      "ms");
  add("span.oram.flush_ms_per_epoch", per_epoch(spans.Summary({"oram.flush"}).total_ms), "ms");
  add("span.sched.evict_stage_ms_per_epoch",
      per_epoch(spans.Summary({"sched.evict_stage"}).total_ms), "ms");
  add("span.wal.append_sync_ms_p50", spans.Summary({"wal.append_sync"}).p50_ms, "ms");

  // net: the decorator around the remote stores, plus the client's counters.
  const SpanSummary net_reads = spans.Summary({kNetSpans.read});
  const SpanSummary storage_reads = spans.Summary({kStorageSpans.read});
  add("net.read_rtt_p50_ms", net_reads.p50_ms, "ms");
  add("net.read_rtt_p99_ms", net_reads.p99_ms, "ms");
  add("net.write_rtt_p50_ms", spans.Summary({kNetSpans.write}).p50_ms, "ms");
  add("net.wal_rtt_p50_ms",
      spans.Summary({kNetSpans.wal_append, kNetSpans.wal_sync, kNetSpans.wal_append_sync}).p50_ms,
      "ms");
  add("net.round_trips_per_epoch", per_epoch(static_cast<double>(s1.round_trips - s0.round_trips)),
      "count");
  add("net.kb_sent_per_epoch", per_epoch(static_cast<double>(s1.bytes_sent - s0.bytes_sent) / 1024),
      "KiB");
  add("net.kb_recv_per_epoch",
      per_epoch(static_cast<double>(s1.bytes_received - s0.bytes_received) / 1024), "KiB");
  // Wire codec, event loop, server queue and XOR: the read round trip minus
  // what the disk and the injected latency account for.
  add("net.overhead_ms_mean",
      net_reads.mean_ms - storage_reads.mean_ms - static_cast<double>(storage_latency_us) / 1e3,
      "ms");

  // storage: the decorator directly around the file stores in the server.
  const SpanSummary syncs = spans.Summary({kStorageSpans.wal_sync, kStorageSpans.wal_append_sync});
  add("storage.wal_sync_p50_ms", syncs.p50_ms, "ms");
  add("storage.wal_syncs_per_epoch", per_epoch(static_cast<double>(syncs.count)), "count");
  add("storage.bucket_mb_written_per_s",
      static_cast<double>(spans.Summary({kStorageSpans.write}).arg_sum) / 1e6 / window_s, "MB/s");
  add("storage.space_amp", space_amp, "ratio");

  // recovery: the post-run restart check (Table 11b's columns).
  add("recovery.total_ms", static_cast<double>(recovery.total_us) / 1e3, "ms");
  add("recovery.log_fetch_ms", static_cast<double>(recovery.log_fetch_us) / 1e3, "ms");
  add("recovery.rebuild_ms",
      static_cast<double>(recovery.pos_us + recovery.perm_us + recovery.stash_us) / 1e3, "ms");
  add("recovery.replay_ms", static_cast<double>(recovery.path_replay_us) / 1e3, "ms");
  add("recovery.log_records", static_cast<double>(recovery.log_records), "count");

  add("obs.watchdog_violations", static_cast<double>(watchdog_violations), "count");
  add("proc.cpu_cores", (s1.cpu_s - s0.cpu_s) / window_s, "cores");
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30;
  std::string trace = "0";
  std::string out = "build-e2e/results";
};

// One deployment under load: set up, warmed up, measured for `seconds`, then
// drained. The deployment is kept for the checks that follow.
struct Segment {
  std::unique_ptr<Deployment> deployment;
  Snapshot s0;
  Snapshot s1;
  std::vector<ObsEvent> events;           // traced: spans recorded in the window
  std::vector<Completion> completions;    // outcomes delivered inside [s0, s1)
  std::map<Key, std::string> expected;    // the final-state oracle
};

StatusOr<Segment> RunSegment(const WorkloadSpec& spec, Workload& workload, const Records& records,
                             const ObladiConfig& cfg, const Args& args, bool traced,
                             double seconds) {
  auto started = Deployment::Start(cfg, args.out + "/data-" + spec.name, spec.storage_latency_us,
                                   traced, records);
  if (!started.ok()) {
    return started.status();
  }
  Segment seg;
  seg.deployment = std::move(*started);
  LoadGenerator load(seg.deployment->proxy(), workload, args.seed);
  const uint64_t start_ns = NowNanos();
  load.Start();
  SleepUntilNs(start_ns + kWarmupNs);
  if (traced) {
    Tracer::Get().Clear();
  }
  seg.s0 = TakeSnapshot(*seg.deployment);
  SleepUntilNs(seg.s0.ns + static_cast<uint64_t>(seconds * 1e9));
  seg.s1 = TakeSnapshot(*seg.deployment);
  if (traced) {
    Tracer::Get().Disable();
    seg.events = Tracer::Get().Collect();
  }
  load.StopAndDrain();
  for (const Completion& c : load.Completions()) {
    if (c.done_ns >= seg.s0.ns && c.done_ns < seg.s1.ns) {
      seg.completions.push_back(c);
    }
  }
  seg.expected = load.ExpectedState();
  return seg;
}

StatusOr<PassResult> RunPass(const WorkloadSpec& spec, const Args& args, bool traced,
                             double seconds) {
  std::unique_ptr<Workload> workload = spec.make();
  const Records records = workload->InitialRecords();
  const size_t ring_capacity =
      traced ? static_cast<size_t>((seconds + static_cast<double>(kWarmupNs) / 1e9 + 1) *
                                   kTraceRecordsPerSecond)
             : 0;
  const ObladiConfig cfg = MakeConfig(records.size(), ring_capacity);
  if (traced) {
    // Armed before any thread exists, so every ring (the event loop's
    // included) gets the full capacity.
    Tracer::Get().Enable(ring_capacity);
  }

  // The untraced pass splits its window over kSegments fresh deployments and
  // pools them; each one's setup is timed, and setup_s is their median.
  const size_t segments = traced ? 1 : kSegments;
  Segment seg;
  std::vector<double> setups;
  Histogram latency_ns;
  uint64_t committed = 0;
  uint64_t failed = 0;
  double window_s = 0;
  double cpu_s = 0;
  for (size_t i = 0; i < segments; ++i) {
    seg = Segment{};  // tears the previous deployment down first
    auto next = RunSegment(spec, *workload, records, cfg, args, traced, seconds / segments);
    if (!next.ok()) {
      return next.status();
    }
    seg = std::move(*next);
    setups.push_back(seg.deployment->setup_s());
    window_s += static_cast<double>(seg.s1.ns - seg.s0.ns) / 1e9;
    cpu_s += seg.s1.cpu_s - seg.s0.cpu_s;
    for (const Completion& c : seg.completions) {
      committed += c.committed ? 1 : 0;
      failed += c.committed ? 0 : 1;
      // A failed transaction never meets any latency limit.
      latency_ns.Record(c.committed ? c.latency_ns : std::numeric_limits<uint64_t>::max());
    }
  }

  // Correctness, on the last deployment.
  Deployment& d = *seg.deployment;
  const uint64_t violations =
      d.proxy().watchdog() != nullptr ? d.proxy().watchdog()->violations() : 0;
  std::unordered_map<Key, size_t> live_sizes;
  for (const auto& [key, value] : records) {
    live_sizes[key] = key.size() + value.size();
  }
  for (const auto& [key, value] : seg.expected) {
    live_sizes[key] = key.size() + value.size();
  }
  uint64_t live_bytes = 0;
  for (const auto& [key, size] : live_sizes) {
    live_bytes += size;
  }
  const double space_amp =
      Ratio(static_cast<double>(d.FileBytes()), static_cast<double>(live_bytes));

  Records sample(seg.expected.begin(), seg.expected.end());
  Rng sampler(args.seed ^ 0x5a3c1e0full);
  sampler.Shuffle(sample);
  if (sample.size() > kCheckKeys) {
    sample.resize(kCheckKeys);
  }
  const StateCheck before = CheckState(d.proxy(), sample, kCheckThreads);
  RecoveryBreakdown recovery;
  const Status recovered = d.CrashAndRecover(&recovery);
  const StateCheck after =
      recovered.ok() ? CheckState(d.proxy(), sample, kCheckThreads) : StateCheck{};
  if (!recovered.ok()) {
    std::fprintf(stderr, "%s: recovery failed: %s\n", spec.name, recovered.ToString().c_str());
  }

  const char* pass_name = traced ? "traced" : "untraced";
  for (const auto& [name, check] : {std::pair{"check.final_state", &before},
                                    std::pair{"check.after_restart", &after}}) {
    std::printf("CHECK %s %s %s %s (%zu of %zu sampled keys match)\n", spec.name, pass_name, name,
                check->ok() ? "pass" : "FAIL", check->matched, check->keys);
  }
  PassResult result;
  result.checks.Set("final_state", CheckJson(before)).Set("after_restart", CheckJson(after));
  if (traced) {
    std::printf("CHECK %s %s check.watchdog %s (%llu violations)\n", spec.name, pass_name,
                violations == 0 ? "pass" : "FAIL", static_cast<unsigned long long>(violations));
    result.checks.Set("watchdog_violations", Json::Int(violations));
  }
  result.attempted = committed + failed;
  result.failed = failed;
  result.tps = static_cast<double>(committed) / window_s;
  result.correct = before.ok() && after.ok() && violations == 0 && result.attempted > 0;

  if (!traced) {
    auto latency_ms = [&](double q) {
      const uint64_t ns = latency_ns.Percentile(q);
      return ns == std::numeric_limits<uint64_t>::max() ? kNoLatencyMs
                                                        : static_cast<double>(ns) / 1e6;
    };
    std::sort(setups.begin(), setups.end());
    result.metrics = {
        {"tps", result.tps, "txn/s"},
        {"commit_p50_ms", latency_ms(0.50), "ms"},
        {"commit_p99_ms", latency_ms(0.99), "ms"},
        {"cpu_ms_per_txn", Ratio(cpu_s * 1e3, static_cast<double>(committed)), "ms"},
        {"setup_s", setups[setups.size() / 2], "s"},
        {"failed_frac", Ratio(static_cast<double>(failed), static_cast<double>(result.attempted)),
         "fraction"},
        {"commit_samples", static_cast<double>(result.attempted), "count"},
    };
    return result;
  }

  const SpanReduction spans(seg.events, seg.s0.ns, seg.s1.ns);
  AddPerLayerMetrics(spans, seg.s0, seg.s1, cfg, spec.storage_latency_us, violations, space_amp,
                     recovery, &result.metrics);
  const std::string base = args.out + "/" + spec.name;
  Status wrote = Tracer::Get().WriteChromeTrace(base + ".trace.json");
  if (!wrote.ok()) {
    std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
    result.correct = false;
  }
  std::ofstream ledger(base + ".ledger.jsonl");
  for (const std::string& row : spans.LedgerRows()) {
    ledger << row << "\n";
  }
  if (!ledger) {
    std::fprintf(stderr, "cannot write %s.ledger.jsonl\n", base.c_str());
    result.correct = false;
  }
  return result;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return false;
    }
    std::string key = arg.substr(2);
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::stoull(value);
    } else if (key == "seconds") {
      args->seconds = std::stod(value);
    } else if (key == "trace") {
      args->trace = value;
    } else if (key == "out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == "0" || args->trace == "1" || args->trace == "both");
}

int Main(int argc, char** argv) {
  Args args;
  bool parsed = false;
  try {
    parsed = ParseArgs(argc, argv, &args);
  } catch (const std::exception&) {
    parsed = false;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    spec = args.workload == w.name ? &w : spec;
  }
  if (!parsed || spec == nullptr) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload smallbank|smallbank_1ms|ycsb_hot|ycsb_large "
                 "[--seed N] [--seconds S] [--trace 0|1|both] [--out DIR]\n");
    return 2;
  }
  TuneAllocatorForBenchmarks();
  std::error_code ec;
  fs::create_directories(args.out, ec);

  Json end_to_end = Json::Object();
  Json per_layer = Json::Object();
  Json checks = Json::Object();
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double untraced_tps = 0;
  auto emit = [&](const PassResult& r, Json& section) {
    for (const Metric& m : r.metrics) {
      std::printf("METRIC %s %s %.10g %s\n", spec->name, m.name.c_str(), m.value, m.unit.c_str());
      section.Set(m.name, Json::Object().Set("value", Json::Num(m.value)).Set("unit",
                                                                              Json::Str(m.unit)));
    }
  };
  for (bool traced : {false, true}) {
    if ((traced && args.trace == "0") || (!traced && args.trace == "1")) {
      continue;
    }
    const double seconds = traced && args.trace == "both" ? kTracedSecondsWithBoth : args.seconds;
    auto pass = RunPass(*spec, args, traced, seconds);
    if (!pass.ok()) {
      std::fprintf(stderr, "%s: %s\n", spec->name, pass.status().ToString().c_str());
      return 2;
    }
    if (traced && args.trace == "both") {
      pass->metrics.push_back(
          {"obs.trace_overhead_frac", 1.0 - Ratio(pass->tps, untraced_tps), "fraction"});
    }
    emit(*pass, traced ? per_layer : end_to_end);
    checks.Set(traced ? "traced" : "untraced", std::move(pass->checks));
    correct = correct && pass->correct;
    if (!traced || args.trace == "1") {
      attempted = pass->attempted;
      failed = pass->failed;
    }
    untraced_tps = traced ? untraced_tps : pass->tps;
  }
  Json root = Json::Object()
                  .Set("workload", Json::Str(spec->name))
                  .Set("seed", Json::Int(args.seed))
                  .Set("seconds", Json::Num(args.seconds))
                  .Set("trace", Json::Str(args.trace))
                  .Set("correct", Json::Bool(correct))
                  .Set("attempted", Json::Int(attempted))
                  .Set("failed", Json::Int(failed))
                  .Set("checks", std::move(checks))
                  .Set("end_to_end", std::move(end_to_end))
                  .Set("per_layer", std::move(per_layer));
  if (!WriteBenchJson(args.out + "/" + spec->name + ".json", root)) {
    return 2;
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace obladi::e2e

int main(int argc, char** argv) { return obladi::e2e::Main(argc, argv); }
