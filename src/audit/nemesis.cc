#include "src/audit/nemesis.h"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/audit/audit_workload.h"
#include "src/audit/recorder.h"
#include "src/common/clock.h"
#include "src/fault/fault_relay.h"
#include "src/fault/faulty_store.h"
#include "src/fault/skew_clock.h"
#include "src/net/remote_store.h"
#include "src/net/replicated_store.h"
#include "src/net/storage_server.h"
#include "src/proxy/obladi_store.h"
#include "src/storage/file_bucket_store.h"
#include "src/storage/file_log_store.h"

namespace obladi {

namespace {

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Unavailable("cannot create directory: " + dir);
  }
  return Status::Ok();
}

}  // namespace

StatusOr<NemesisResult> RunNemesis(const NemesisOptions& options) {
  OBLADI_RETURN_IF_ERROR(EnsureDir(options.data_dir));
  const std::string log_path = options.data_dir + "/wal.dat";
  std::remove(log_path.c_str());

  // The shard-partition scenario deploys one storage node per shard so a
  // single shard's link can be cut; the replica-kill scenarios add R storage
  // nodes per shard behind replicated stores; the classic deployment keeps
  // all shards on one node so it can be killed and restarted whole.
  const bool kill_replica_mode = options.kill_primary || options.kill_replica;
  const uint32_t replicas =
      std::max<uint32_t>(options.replicas, kill_replica_mode ? 2 : 1);
  const bool replicated = replicas > 1;
  const bool per_shard_mode = options.partition_shard || replicated;
  const bool kill_storage = options.kill_storage && !per_shard_mode;

  ObladiConfig config = ObladiConfig::ForCapacity(256, /*z=*/4, /*payload=*/128);
  config.num_shards = options.num_shards;
  // Generous batch budget at a fast cadence (the bench app configs' shape):
  // a closed loop of clients must never be starved of read-batch slots, or
  // the run degenerates into unfinished-epoch aborts.
  config.read_batches_per_epoch = 8;
  config.read_batch_size = 64;
  config.write_batch_size = 160;
  config.batch_interval_us = 300;
  config.timed_mode = true;
  config.pipeline_depth = options.pipeline_depth;
  config.recovery.enabled = true;
  config.recovery.full_checkpoint_interval = 4;
  config.oram_options.io_threads = 8;
  // The run's final state is dumped as metrics JSON (and feeds the
  // heartbeat), so the registry is always on here.
  config.obs.metrics = true;
  if (per_shard_mode) {
    // A partitioned shard must convert into a bounded-time epoch abort, not
    // a hung retirement wait.
    config.retire_timeout_ms = 1500;
  }

  const size_t store_buckets = config.StoreBuckets();
  const ShardLayout layout = config.MakeLayout();
  const size_t shard_buckets = layout.shard_config.num_buckets();
  const size_t slots_per_bucket = layout.shard_config.slots_per_bucket();

  RemoteStoreOptions remote_opts;
  if (per_shard_mode) {
    // Hardened transport: the partition scenario's whole point is that
    // blocked requests expire within the deadline budget instead of hanging,
    // half-open links are detected by heartbeats, and retries are bounded.
    remote_opts.default_deadline_ms = 300;
    remote_opts.heartbeat_interval_ms = 100;
    remote_opts.heartbeat_timeout_ms = 300;
    remote_opts.retry.max_attempts = 3;
  }

  // Chaos handles. Declared before the proxy: the metrics source registered
  // on the proxy's registry reads them at snapshot time, so they must
  // outlive it. chaos_mu_ guards faulty_log, which the storage-restart
  // branch swaps while the registry may snapshot.
  std::mutex chaos_mu;
  std::shared_ptr<FaultyLogStore> faulty_log;
  std::unique_ptr<FaultRelay> relay;
  SkewClock skew;
  std::atomic<uint64_t> partitions{0};
  std::atomic<uint64_t> wal_stalls{0};
  std::atomic<uint64_t> skew_jumps{0};

  // Wrap a fresh FileLogStore for the storage node, decorated for the
  // slow-disk scenario so its fsync stalls can be toggled at runtime.
  auto make_log = [&]() -> std::shared_ptr<LogStore> {
    auto file_log = std::make_shared<FileLogStore>(log_path);
    if (!options.slow_disk) {
      return file_log;
    }
    auto wrapped = std::make_shared<FaultyLogStore>(file_log);
    std::lock_guard<std::mutex> lk(chaos_mu);
    faulty_log = wrapped;
    return wrapped;
  };

  // --- storage tier -------------------------------------------------------
  // Single-node deployment state:
  std::shared_ptr<FileBucketStore> buckets;
  std::shared_ptr<LogStore> log;
  std::unique_ptr<StorageServer> server;
  uint16_t server_port = 0;
  std::string bucket_path = options.data_dir + "/buckets.dat";
  // Per-shard deployment state:
  std::vector<std::shared_ptr<FileBucketStore>> shard_files;
  std::vector<std::unique_ptr<StorageServer>> servers;
  uint32_t victim_shard = 0;
  // Replicated deployment state (kept so the run can read failover/resync
  // stats after the driver stops):
  std::vector<std::shared_ptr<ReplicatedBucketStore>> replicated_buckets;
  std::shared_ptr<ReplicatedLogStore> replicated_log;
  uint32_t victim_replica = 0;

  std::unique_ptr<ObladiStore> proxy;
  if (!per_shard_mode) {
    std::remove(bucket_path.c_str());
    buckets = std::make_shared<FileBucketStore>(bucket_path, store_buckets,
                                                slots_per_bucket);
    log = make_log();
    server = std::make_unique<StorageServer>(buckets, log);
    OBLADI_RETURN_IF_ERROR(server->Start());
    server_port = server->port();

    remote_opts.port = server_port;
    auto remote_buckets = RemoteBucketStore::Connect(remote_opts);
    OBLADI_RETURN_IF_ERROR(remote_buckets.status());
    auto remote_log = RemoteLogStore::Connect(remote_opts);
    OBLADI_RETURN_IF_ERROR(remote_log.status());
    proxy = std::make_unique<ObladiStore>(config, std::move(*remote_buckets),
                                          std::move(*remote_log));
  } else if (!replicated) {
    // One storage node per shard; the WAL lives on node 0. Every server
    // shares the log object, but only node 0 receives log RPCs.
    const uint32_t num_shards = config.num_shards;
    victim_shard = num_shards > 1 ? 1 : 0;
    log = make_log();
    shard_files.reserve(num_shards);
    servers.reserve(num_shards);
    for (uint32_t s = 0; s < num_shards; ++s) {
      std::string path = options.data_dir + "/buckets." + std::to_string(s) + ".dat";
      std::remove(path.c_str());
      shard_files.push_back(std::make_shared<FileBucketStore>(path, shard_buckets,
                                                              slots_per_bucket));
      servers.push_back(std::make_unique<StorageServer>(shard_files[s], log));
      OBLADI_RETURN_IF_ERROR(servers[s]->Start());
    }
    auto relay_or = FaultRelay::Start("127.0.0.1", servers[victim_shard]->port());
    OBLADI_RETURN_IF_ERROR(relay_or.status());
    relay = std::move(*relay_or);

    std::vector<std::shared_ptr<BucketStore>> shard_stores;
    shard_stores.reserve(num_shards);
    for (uint32_t s = 0; s < num_shards; ++s) {
      RemoteStoreOptions so = remote_opts;
      so.port = s == victim_shard ? relay->port() : servers[s]->port();
      auto rb = RemoteBucketStore::Connect(so);
      OBLADI_RETURN_IF_ERROR(rb.status());
      shard_stores.push_back(std::move(*rb));
    }
    RemoteStoreOptions lo = remote_opts;
    lo.port = servers[0]->port();
    auto remote_log = RemoteLogStore::Connect(lo);
    OBLADI_RETURN_IF_ERROR(remote_log.status());
    proxy = std::make_unique<ObladiStore>(config, std::move(shard_stores),
                                          std::move(*remote_log));
  } else {
    // Replicated tier: R storage nodes per shard (node (s, r) holds shard
    // s's bucket replica r) plus R WAL columns riding on shard 0's row
    // (node (0, r) also serves WAL replica r). The victim replica of shard
    // 0 is fronted by the fault relay: killing replica 0 therefore cuts the
    // bucket primary AND the WAL primary at once — the strongest loss —
    // while kill_replica targets the last replica (a pure follower).
    const uint32_t num_shards = config.num_shards;
    victim_shard = 0;
    victim_replica = options.kill_replica && !options.kill_primary ? replicas - 1 : 0;
    std::vector<std::shared_ptr<LogStore>> log_columns;
    for (uint32_t r = 0; r < replicas; ++r) {
      std::string wal_path = options.data_dir + "/wal." + std::to_string(r) + ".dat";
      std::remove(wal_path.c_str());
      log_columns.push_back(std::make_shared<FileLogStore>(wal_path));
    }
    shard_files.reserve(static_cast<size_t>(num_shards) * replicas);
    servers.reserve(static_cast<size_t>(num_shards) * replicas);
    for (uint32_t s = 0; s < num_shards; ++s) {
      for (uint32_t r = 0; r < replicas; ++r) {
        std::string path = options.data_dir + "/buckets." + std::to_string(s) + "." +
                           std::to_string(r) + ".dat";
        std::remove(path.c_str());
        shard_files.push_back(
            std::make_shared<FileBucketStore>(path, shard_buckets, slots_per_bucket));
        servers.push_back(
            std::make_unique<StorageServer>(shard_files.back(), log_columns[r]));
        OBLADI_RETURN_IF_ERROR(servers.back()->Start());
      }
    }
    auto server_at = [&](uint32_t s, uint32_t r) -> StorageServer& {
      return *servers[static_cast<size_t>(s) * replicas + r];
    };
    auto relay_or =
        FaultRelay::Start("127.0.0.1", server_at(victim_shard, victim_replica).port());
    OBLADI_RETURN_IF_ERROR(relay_or.status());
    relay = std::move(*relay_or);

    ReplicatedStoreOptions rep_opts;
    rep_opts.write_quorum = options.write_quorum;
    std::vector<std::shared_ptr<BucketStore>> shard_stores;
    shard_stores.reserve(num_shards);
    for (uint32_t s = 0; s < num_shards; ++s) {
      std::vector<std::shared_ptr<BucketStore>> reps;
      reps.reserve(replicas);
      for (uint32_t r = 0; r < replicas; ++r) {
        RemoteStoreOptions so = remote_opts;
        so.port = (s == victim_shard && r == victim_replica) ? relay->port()
                                                             : server_at(s, r).port();
        auto rb = RemoteBucketStore::Connect(so);
        OBLADI_RETURN_IF_ERROR(rb.status());
        reps.push_back(std::move(*rb));
      }
      auto rep_store = std::make_shared<ReplicatedBucketStore>(std::move(reps), rep_opts);
      replicated_buckets.push_back(rep_store);
      shard_stores.push_back(rep_store);
    }
    std::vector<std::shared_ptr<LogStore>> log_reps;
    log_reps.reserve(replicas);
    for (uint32_t r = 0; r < replicas; ++r) {
      RemoteStoreOptions lo = remote_opts;
      lo.port = (victim_shard == 0 && r == victim_replica) ? relay->port()
                                                           : server_at(0, r).port();
      auto rl = RemoteLogStore::Connect(lo);
      OBLADI_RETURN_IF_ERROR(rl.status());
      log_reps.push_back(std::move(*rl));
    }
    replicated_log = std::make_shared<ReplicatedLogStore>(std::move(log_reps), rep_opts);
    proxy = std::make_unique<ObladiStore>(config, std::move(shard_stores), replicated_log);
  }

  if (options.clock_skew) {
    proxy->SetClaimedTimestampHook([&skew](uint64_t internal) {
      return skew.Skew(internal);
    });
  }

  // Every chaos activation in one counter, pulled at scrape/dump time so
  // nemesis_metrics.json carries it without the proxy depending on src/fault.
  if (proxy->metrics() != nullptr) {
    proxy->metrics()->AddSource([&](MetricsSink& sink) {
      uint64_t total = skew_jumps.load(std::memory_order_relaxed);
      if (relay != nullptr) {
        total += relay->stats().faults_injected;
      }
      {
        std::lock_guard<std::mutex> lk(chaos_mu);
        if (faulty_log != nullptr) {
          total += faulty_log->faults_injected();
        }
      }
      sink.Counter("faults_injected_total", {}, total,
                   "chaos faults injected (relay activations + store-level "
                   "injections + clock jumps)");
    });
  }

  AuditWorkloadConfig wl_cfg;
  wl_cfg.num_keys = options.num_keys;
  wl_cfg.zipf_theta = options.zipf_theta;
  wl_cfg.ops_per_txn = options.ops_per_txn;
  AuditWorkload workload(wl_cfg);

  auto initial = workload.InitialRecords();
  OBLADI_RETURN_IF_ERROR(proxy->Load(initial));
  HistoryRecorder recorder(options.num_clients);
  recorder.RecordInitialDb(initial);
  proxy->Start();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> storage_restarts{0};
  std::atomic<uint64_t> proxy_recoveries{0};
  Status nemesis_status;  // first hard failure inside the fault thread

  // Stop-aware sleep for the fault thread.
  auto nap = [&stop](uint64_t ms) {
    for (uint64_t waited = 0; waited < ms && !stop.load(std::memory_order_relaxed);
         waited += 10) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  };

  // Recover the proxy from a (simulated or storage-induced) crash, retrying
  // while the storage side settles, then restart the pacer.
  auto recover_proxy = [&]() -> Status {
    Status last;
    for (int attempt = 0; attempt < 50; ++attempt) {
      last = proxy->RecoverFromCrash();
      if (last.ok()) {
        proxy->Start();
        proxy_recoveries.fetch_add(1);
        return last;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return last;
  };

  // The fault palette: each entry is one serialized fault episode; the
  // nemesis thread rotates through the enabled entries one per period.
  std::vector<std::function<Status()>> palette;
  if (kill_storage) {
    palette.push_back([&]() -> Status {
      // Kill the storage node and reopen its state from the files.
      server->Stop();
      server.reset();
      buckets.reset();
      log.reset();
      buckets = std::make_shared<FileBucketStore>(bucket_path, store_buckets,
                                                  slots_per_bucket);
      log = make_log();
      StorageServerOptions server_opts;
      server_opts.port = server_port;
      server = std::make_unique<StorageServer>(buckets, log, server_opts);
      Status started;
      for (int attempt = 0; attempt < 100; ++attempt) {
        started = server->Start();
        if (started.ok()) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      OBLADI_RETURN_IF_ERROR(started);
      storage_restarts.fetch_add(1);
      // The outage fails the proxy's background retirement sticky; crash
      // recovery is the designed failover.
      proxy->SimulateCrash();
      return recover_proxy();
    });
  }
  if (options.crash_proxy) {
    palette.push_back([&]() -> Status {
      proxy->SimulateCrash();
      return recover_proxy();
    });
  }
  if (options.partition_shard) {
    palette.push_back([&]() -> Status {
      // Cut one shard's link mid-epoch. The connection stays "up" (blackhole,
      // not close): in-flight requests must expire via their deadlines and
      // blocked clients must be failed retriably, never hung.
      relay->Partition();
      nap(options.partition_hold_ms);
      relay->Heal();
      partitions.fetch_add(1);
      // The partition failed the victim shard's batches / retirement sticky;
      // recovery replay across the healed link is the scenario's proof.
      proxy->SimulateCrash();
      return recover_proxy();
    });
  }
  if (kill_replica_mode) {
    palette.push_back([&]() -> Status {
      // Blackhole the victim replica mid-epoch, hold past the deadline
      // budget, heal — and deliberately do NOT crash the proxy: quorum
      // writes plus automatic read failover must carry commits through the
      // loss, and the retire loop's epoch-replay catch-up must resync the
      // healed replica on its own.
      relay->Partition();
      nap(options.partition_hold_ms);
      relay->Heal();
      partitions.fetch_add(1);
      return Status::Ok();
    });
  }
  if (options.slow_disk) {
    palette.push_back([&]() -> Status {
      std::shared_ptr<FaultyLogStore> wal;
      {
        std::lock_guard<std::mutex> lk(chaos_mu);
        wal = faulty_log;
      }
      if (wal == nullptr) {
        return Status::Ok();  // storage node mid-restart; skip this episode
      }
      FaultPlan stall;
      stall.fsync_stall_us = options.wal_stall_us;
      wal->SetPlan(stall);
      wal_stalls.fetch_add(1);
      // Hold through at least one retirement (epochs close every few ms
      // here), then release.
      nap(400);
      wal->SetPlan(FaultPlan{});
      return Status::Ok();
    });
  }
  if (options.clock_skew) {
    palette.push_back([&]() -> Status {
      // Alternate forward and backward jumps; SkewClock flattens a backward
      // jump into +1 steps, so claimed order is preserved and the audit
      // must still pass.
      uint64_t n = skew_jumps.fetch_add(1);
      skew.AdvanceOffset(n % 2 == 0 ? options.skew_jump : -options.skew_jump);
      return Status::Ok();
    });
  }

  std::thread nemesis([&] {
    size_t next = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      nap(options.fault_period_ms);
      if (stop.load(std::memory_order_relaxed) || palette.empty()) {
        return;
      }
      Status st = palette[next++ % palette.size()]();
      if (!st.ok()) {
        nemesis_status = st;
        return;
      }
    }
  });

  // Liveness heartbeat: fault injection makes long runs look hung from the
  // outside (commits stall during recovery), so narrate progress. Reads
  // only proxy->stats() — the ORAM object is replaced across recoveries.
  std::thread heartbeat;
  const uint64_t run_start_us = NowMicros();
  if (options.heartbeat_ms > 0) {
    heartbeat = std::thread([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (uint64_t waited = 0;
             waited < options.heartbeat_ms && !stop.load(std::memory_order_relaxed);
             waited += 10) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        if (stop.load(std::memory_order_relaxed)) {
          return;
        }
        ObladiStats s = proxy->stats();
        std::printf(
            "[nemesis %6.1fs] epochs=%llu committed=%llu aborted=%llu "
            "proxy_recoveries=%llu storage_restarts=%llu faults=%llu\n",
            static_cast<double>(NowMicros() - run_start_us) / 1e6,
            static_cast<unsigned long long>(s.epochs),
            static_cast<unsigned long long>(s.txn_committed),
            static_cast<unsigned long long>(s.txn_aborted),
            static_cast<unsigned long long>(proxy_recoveries.load()),
            static_cast<unsigned long long>(storage_restarts.load()),
            static_cast<unsigned long long>(
                partitions.load() + wal_stalls.load() + skew_jumps.load()));
        std::fflush(stdout);
      }
    });
  }

  // Per-client liveness feed for the progress watchdog: the driver bumps
  // slot t after every finished attempt, so a slot that stops moving is a
  // client stuck INSIDE a transaction — the hang class the transport
  // hardening exists to prevent. The watchdog hard-exits (not a returned
  // error): a hung client thread can never be joined, so the only honest
  // reporting channel left is the process exit code.
  std::vector<std::atomic<uint64_t>> progress(options.num_clients);
  std::thread progress_watchdog;
  if (options.progress_timeout_ms > 0) {
    progress_watchdog = std::thread([&] {
      std::vector<uint64_t> last(options.num_clients, 0);
      std::vector<uint64_t> last_change_us(options.num_clients, NowMicros());
      const uint64_t budget_us = options.progress_timeout_ms * 1000;
      while (!stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        const uint64_t now = NowMicros();
        for (size_t c = 0; c < progress.size(); ++c) {
          uint64_t cur = progress[c].load(std::memory_order_relaxed);
          if (cur != last[c]) {
            last[c] = cur;
            last_change_us[c] = now;
          } else if (now - last_change_us[c] > budget_us) {
            std::fprintf(stderr,
                         "audit_nemesis: client %zu made no progress for "
                         "%llu ms (seed=%llu) — hung client, aborting run\n",
                         c,
                         static_cast<unsigned long long>(options.progress_timeout_ms),
                         static_cast<unsigned long long>(options.seed));
            std::fflush(stderr);
            std::_Exit(3);
          }
        }
      }
    });
  }

  // Commit-stall monitor (replicated mode only): sample the committed
  // counter and track the longest post-warmup gap between increments — the
  // client-visible unavailability window the failover budget bounds.
  std::atomic<uint64_t> max_commit_stall_us{0};
  std::thread stall_monitor;
  if (replicated) {
    stall_monitor = std::thread([&] {
      const uint64_t warmup_end_us = run_start_us + options.warmup_ms * 1000;
      uint64_t last_committed = 0;
      uint64_t last_change_us = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        const uint64_t now = NowMicros();
        if (now < warmup_end_us) {
          continue;
        }
        const uint64_t committed = proxy->stats().txn_committed;
        if (last_change_us == 0 || committed != last_committed) {
          last_committed = committed;
          last_change_us = now;
          continue;
        }
        const uint64_t stall = now - last_change_us;
        if (stall > max_commit_stall_us.load(std::memory_order_relaxed)) {
          max_commit_stall_us.store(stall, std::memory_order_relaxed);
        }
      }
    });
  }

  DriverOptions driver_opts;
  driver_opts.num_threads = options.num_clients;
  driver_opts.duration_ms = options.duration_ms;
  driver_opts.warmup_ms = options.warmup_ms;
  driver_opts.seed = options.seed;
  driver_opts.recorder = &recorder;
  driver_opts.progress = progress.data();

  NemesisResult result;
  result.driver = RunWorkload(*proxy, workload, driver_opts);

  stop.store(true);
  nemesis.join();
  if (heartbeat.joinable()) {
    heartbeat.join();
  }
  if (progress_watchdog.joinable()) {
    progress_watchdog.join();
  }
  if (stall_monitor.joinable()) {
    stall_monitor.join();
  }
  // Final metrics snapshot before teardown, next to the traces by default.
  std::string metrics_path = options.metrics_out;
  if (metrics_path.empty() && !options.trace_dir.empty()) {
    metrics_path = options.trace_dir + "/nemesis_metrics.json";
  }
  if (!metrics_path.empty() && metrics_path != "-" && proxy->metrics() != nullptr) {
    OBLADI_RETURN_IF_ERROR(EnsureDir(options.trace_dir.empty() ? options.data_dir
                                                               : options.trace_dir));
    Status wrote = proxy->metrics()->WriteJsonLines(metrics_path);
    if (!wrote.ok()) {
      std::fprintf(stderr, "nemesis: metrics dump failed: %s\n",
                   wrote.ToString().c_str());
    } else {
      std::printf("wrote %s\n", metrics_path.c_str());
    }
  }
  result.partitions = partitions.load();
  result.wal_stalls = wal_stalls.load();
  result.skew_jumps = skew_jumps.load();
  // Mirror the faults_injected_total metric: clock jumps count too.
  result.faults_injected += result.skew_jumps;
  if (relay != nullptr) {
    result.faults_injected += relay->stats().faults_injected;
  }
  {
    std::lock_guard<std::mutex> lk(chaos_mu);
    if (faulty_log != nullptr) {
      result.faults_injected += faulty_log->faults_injected();
    }
  }
  result.max_commit_stall_ms = max_commit_stall_us.load() / 1000;
  for (const auto& rb : replicated_buckets) {
    ReplicationStats rs = rb->replication_stats();
    result.failovers += rs.failovers;
    result.replica_resyncs += rs.resyncs;
    result.replica_resync_epochs += rs.resync_epochs;
  }
  if (replicated_log != nullptr) {
    ReplicationStats rs = replicated_log->replication_stats();
    result.failovers += rs.failovers;
    result.replica_resyncs += rs.resyncs;
    result.replica_resync_epochs += rs.resync_epochs;
  }
  proxy->Stop();
  proxy.reset();
  if (relay != nullptr) {
    relay->Stop();
  }
  if (server != nullptr) {
    server->Stop();
  }
  for (auto& s : servers) {
    s->Stop();
  }
  if (!nemesis_status.ok()) {
    return nemesis_status;
  }

  result.storage_restarts = storage_restarts.load();
  result.proxy_recoveries = proxy_recoveries.load();
  result.history = recorder.Merge();
  if (!options.trace_dir.empty()) {
    OBLADI_RETURN_IF_ERROR(recorder.WriteTraces(options.trace_dir).status());
  }
  return result;
}

}  // namespace obladi
