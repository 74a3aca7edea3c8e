// The Obladi proxy (§5, §6): the trusted component that turns client
// transactions into an oblivious, fixed-shape request stream against
// untrusted storage.
//
// Epoch pipeline (per §6.2):
//   * Client reads that miss the epoch's version cache are assigned to the
//     next unfilled of the epoch's R read batches (deduplicated by key); each
//     batch is padded to b_read with dummy requests and executed by the
//     parallel Ring ORAM.
//   * Writes are buffered in the version cache (the MVTSO version chains) and
//     visible to concurrent transactions immediately.
//   * At epoch end: unfinished transactions abort; finished transactions
//     commit in timestamp order (capped by the write batch size); the last
//     committed version of each written key forms the b_write-padded
//     dummiless write batch; deferred bucket writes flush; the recovery unit
//     logs the epoch's delta checkpoint; only then do clients learn commit
//     decisions (epoch fate sharing).
//
// Sharding (num_shards > 1): the proxy runs over a ShardedOramSet — K
// independent Ring ORAM instances partitioning the dense BlockId space. Each
// of the epoch's R read batches carries a fixed per-shard quota of
// ceil(b_read / K) slots; admission (EnqueueFetch) fills a batch only while
// the target key's shard still has quota, so the sub-batch the storage
// server sees per shard is always exactly the quota, dummy-padded. Write
// batches are capped per shard the same way via the MVTSO epoch-commit
// admission. K = 1 reduces exactly to the single-ORAM pipeline above.
//
// Pipelined epochs (the depth-D epoch state machine): the epoch change is
// split into a synchronous *close* step and a background *retirement* stage,
// so a closed epoch's network-bound write-back overlaps later epochs'
// execution. Up to `pipeline_depth` closed epochs may be retiring at once:
//
//   close (CloseEpochNow, serialized with batch dispatch):
//     dispatch remaining read batches -> EndEpoch (commit admission; the
//     final writes are re-installed as next-epoch base versions) and, in the
//     same critical section, open the next epoch's read batches -> deposit
//     the write batch's values (ApplyWriteValues) -> wait for a free retirement slot (fewer than
//     pipeline_depth epochs in flight) -> BeginRetire (submit the write-back
//     without waiting) -> capture the delta checkpoint payload.
//     Reads of next-epoch transactions that arrive during the rest of the
//     close queue into its first batch, which goes out once the close
//     returns. Reads of the closing epoch's transactions that arrive after
//     its last batch went out are still refused (the batch-full abort).
//
//   retirement (one background worker draining a FIFO of closed epochs):
//     await write-back durability -> append + sync the captured checkpoint,
//     strictly in close order -> release commit decisions (epoch fate
//     sharing: clients learn outcomes only once the epoch is durable —
//     delayed visibility is preserved, decisions just arrive asynchronously)
//     -> collect retired buckets -> truncate stale versions.
//
// Later epochs' reads of blocks whose write-back is still in flight are
// served from the version cache (committed bases) or the shards' retiring
// buffers (any live retiring generation), so execution never waits on
// storage latency it can hide. In-flight state is bounded two ways: the
// depth cap (at most pipeline_depth + 1 epochs' working sets live at once)
// and the explicit `max_stash_blocks` budget — batch dispatch backpressures
// while stash + retiring blocks exceed the budget and a retirement is still
// in flight to shrink it. The recovery unit's ordering gate admits a read
// batch's log record only while fewer than pipeline_depth checkpoints are
// pending, so crash recovery replays at most that many unretired epochs'
// plans, grouped by their logged epoch and completed oldest-first.
//
// Sub-epoch access scheduler: within a batch, the read stage answers each
// real access as soon as its path group decrypts (access_r-style early
// answers via the ORAM's early-result callback — the client unblocks without
// waiting for the batch's slowest path), and the write-schedule advance
// eagerly dispatches the eviction/reshuffle read phases it triggers so they
// overlap the batch's plan logging. Both reorder work only in time: the wire
// request multiset per epoch is unchanged (the trace-shape watchdog checks
// this at every depth).
//
// Pacing: in timed mode a background thread dispatches the R read batches at
// fixed *absolute deadlines* (cadence independent of flush duration) and
// then closes the epoch, so the request stream's timing is workload
// independent. Tests use manual mode and call StepReadBatch /
// CloseEpochNow / FinishEpochNow directly.
#ifndef OBLADI_SRC_PROXY_OBLADI_STORE_H_
#define OBLADI_SRC_PROXY_OBLADI_STORE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/obs/admin_server.h"
#include "src/obs/metrics.h"
#include "src/obs/obs_config.h"
#include "src/obs/watchdog.h"
#include "src/oram/ring_oram.h"
#include "src/proxy/key_directory.h"
#include "src/recovery/recovery_unit.h"
#include "src/shard/sharded_oram_set.h"
#include "src/storage/bucket_store.h"
#include "src/txn/kv_interface.h"
#include "src/txn/mvtso.h"

namespace obladi {

struct ObladiConfig {
  RingOramConfig oram;  // global capacity; per-shard trees derived from it
  RingOramOptions oram_options;
  uint32_t num_shards = 1;            // K parallel Ring ORAM instances
  size_t read_batches_per_epoch = 4;  // R
  size_t read_batch_size = 32;        // b_read (global, across shards)
  size_t write_batch_size = 32;       // b_write (global, across shards)
  uint64_t batch_interval_us = 2000;  // Δ (timed mode)
  bool timed_mode = false;
  bool pipeline_epochs = true;  // Ignored; deleted with the next change to bench/e2e.
  // Epoch pipeline depth D: how many closed epochs may be retiring
  // concurrently (1 = a close waits for the previous retirement; 0 reads
  // as 1). Depth D bounds live state to D+1 epochs' working sets and lets
  // the close step proceed while up to D write-backs ride the network.
  size_t pipeline_depth = 2;
  // Explicit stash budget for the pipeline: while the shards' stash +
  // retiring blocks exceed this, batch dispatch stalls until an in-flight
  // retirement collects (counted in stash_budget_stalls). 0 = unbounded
  // (the depth cap alone bounds memory). Distinct from the per-shard
  // RingOramConfig::max_stash_blocks serialization pad.
  size_t max_stash_blocks = 0;
  RecoveryConfig recovery;
  // Graceful degradation: how long an epoch close may wait on the previous
  // retirement before giving up (0 = wait forever, the historical
  // behavior). When a storage node becomes unreachable mid-retirement the
  // close step fails with DeadlineExceeded after this budget instead of
  // hanging, blocked clients fail retriably, and the proxy can be recovered
  // once the partition heals.
  uint64_t retire_timeout_ms = 0;
  // Observability: span tracing, metrics registry + admin scrape listener,
  // and the oblivious trace-shape watchdog. All off by default (zero-cost).
  ObsConfig obs;
  uint64_t seed = 0x0b1ad1;

  // Convenience constructor with derived ORAM parameters.
  static ObladiConfig ForCapacity(uint64_t capacity, uint32_t z = 8, size_t payload = 256) {
    ObladiConfig cfg;
    cfg.oram = RingOramConfig::ForCapacity(capacity, z, payload);
    return cfg;
  }

  // Fixed per-shard slots in every read batch / write batch.
  size_t read_quota() const { return (read_batch_size + num_shards - 1) / num_shards; }
  size_t write_quota() const { return (write_batch_size + num_shards - 1) / num_shards; }

  ShardLayout MakeLayout() const { return ShardLayout::Make(oram, num_shards); }

  // Buckets the backing store must provide (K shard trees side by side).
  size_t StoreBuckets() const { return MakeLayout().total_buckets(); }
};

struct ObladiStats {
  uint64_t epochs = 0;
  uint64_t read_batches = 0;
  uint64_t cache_hits = 0;      // reads served from the version cache
  uint64_t oram_fetches = 0;    // deduplicated batch slots used
  uint64_t fetch_dedups = 0;    // reads coalesced onto an in-flight fetch
  uint64_t batch_overflow_aborts = 0;
  uint64_t recoveries = 0;
  // Pipeline observability.
  uint64_t epochs_overlapped = 0;         // epochs that ran while their
                                          // predecessor was still retiring
  uint64_t retire_stall_us = 0;           // close-step time spent waiting on
                                          // the previous retirement (depth cap)
  uint64_t max_inflight_stash_blocks = 0; // peak stash + retiring blocks
  // Sub-epoch scheduler observability.
  uint64_t sched_overlapped_accesses = 0; // reads answered by the scheduler's
                                          // read stage before its batch finished
  uint64_t stash_budget_stalls = 0;       // dispatches stalled on max_stash_blocks
  uint64_t stash_budget_stall_us = 0;     // time spent in those stalls
  // Transaction accounting (mirrored from the MVTSO engine so one stats()
  // call gives the whole abort/retry picture).
  uint64_t txn_begun = 0;
  uint64_t txn_committed = 0;
  uint64_t txn_aborted = 0;               // sum over all abort causes
  double aborts_per_committed_txn = 0;
};

class ObladiStore : public TransactionalKv {
 public:
  // `log` may be nullptr when cfg.recovery.enabled is false. The store must
  // have at least cfg.StoreBuckets() buckets.
  ObladiStore(ObladiConfig cfg, std::shared_ptr<BucketStore> store,
              std::shared_ptr<LogStore> log);
  // Per-shard backing stores (cfg.num_shards of them, each with at least
  // MakeLayout().shard_config.num_buckets() buckets) — one storage node per
  // shard, the deployment where a single node can partition away while the
  // rest stay reachable. A one-element vector is the shared-store form.
  // Crash recovery rebuilds over the same stores.
  ObladiStore(ObladiConfig cfg, std::vector<std::shared_ptr<BucketStore>> stores,
              std::shared_ptr<LogStore> log);
  ~ObladiStore() override;

  // Bulk-load the initial database and write the base checkpoint. Must be
  // called once before any transaction.
  Status Load(const std::vector<std::pair<Key, std::string>>& records);

  // --- TransactionalKv ---
  Timestamp Begin() override;
  StatusOr<std::string> Read(Timestamp txn, const Key& key) override;
  Status Write(Timestamp txn, const Key& key, std::string value) override;
  Status Commit(Timestamp txn) override;
  void Abort(Timestamp txn) override;

  // Asynchronous commit: registers the decision waiter and requests the
  // commit, returning a future that resolves when the transaction's epoch is
  // durable (the retirement stage releases it). With pipelined epochs the
  // decision arrives one retirement later than the request — clients that
  // pipeline their own transactions (delayed visibility's intended client
  // model) use this instead of blocking in Commit.
  StatusOr<std::shared_future<Status>> CommitAsync(Timestamp txn);

  // --- pacing / epoch state machine ---
  void Start();  // timed mode: launch the epoch pacer thread
  void Stop();
  Status StepReadBatch();  // dispatch + execute the next read batch
  // Close the current epoch (dispatches remaining batches, decides commits,
  // submits the write-back) and hand it to the background retirement stage;
  // returns without waiting for durability. Commit decisions release when
  // the retirement completes.
  Status CloseEpochNow();
  // Block until the retirement stage is idle; returns the first retirement
  // failure (sticky until recovery).
  Status DrainRetirement();
  // Draining epoch change: CloseEpochNow + DrainRetirement. Manual-mode tests
  // use this; when it returns, all commit decisions have been released.
  Status FinishEpochNow();
  // Test hook: runs on the retirement worker after the epoch's write-back is
  // durable, before its checkpoint append. Lets tests hold an epoch in the
  // retiring state (and crash the proxy inside the window).
  void SetRetireHookForTest(std::function<void()> hook);

  // Clock-skew fault hook: maps each internal MVTSO timestamp to the
  // *claimed* timestamp handed to clients (and embedded in audit
  // histories). The hook MUST be strictly increasing across calls (see
  // src/fault/skew_clock.h) — Begin() serializes engine Begin + hook under
  // one lock so claimed order matches internal order, and every public
  // entry point translates claimed handles back. nullptr (default)
  // disables translation at zero cost.
  void SetClaimedTimestampHook(std::function<uint64_t(uint64_t)> hook);

  // --- crash & recovery (§8) ---
  // Drop all volatile proxy state, as if the proxy process died. In-flight
  // client operations fail with kAborted.
  void SimulateCrash();
  // Rebuild from the write-ahead log: restore the last committed epoch,
  // replay the aborted epoch's logged read batches, complete the
  // crash-recovery epoch, and resume service. Fills `breakdown` if non-null.
  Status RecoverFromCrash(RecoveryBreakdown* breakdown = nullptr);

  ObladiStats stats() const;
  MvtsoStats txn_stats() const { return engine_.stats(); }
  ShardedOramSet* oram() { return oram_.get(); }
  const ObladiConfig& config() const { return cfg_; }

  // --- observability (null/0 unless the matching ObsConfig flag is set) ---
  MetricsRegistry* metrics() { return metrics_.get(); }
  TraceShapeWatchdog* watchdog() { return watchdog_.get(); }
  // Bound admin port (cfg.obs.admin_port == 0 picks an ephemeral one).
  uint16_t admin_port() const { return admin_ ? admin_->port() : 0; }

 private:
  struct PendingFetch {
    BlockId id;
    Key key;
    std::shared_ptr<std::promise<Status>> done;
  };
  // One of the epoch's R read batches: the real fetches plus how many of
  // each shard's fixed quota they consume.
  struct EpochBatch {
    std::vector<PendingFetch> fetches;
    std::vector<size_t> shard_counts;
  };

  // One closed epoch handed to the retirement worker: the commit decisions
  // to release once durable, plus the captured checkpoint to append.
  struct RetireJob {
    std::unordered_set<Timestamp> committed;
    std::unordered_map<Timestamp, std::shared_ptr<std::promise<Status>>> waiters;
    RecoveryUnit::PendingCheckpoint checkpoint;
    EpochId epoch = 0;  // the closed epoch, for the retirement trace span
    // A failed close (checkpoint capture error) after BeginRetire already
    // submitted the write-back: the worker only reels the generation back in
    // (await durability + collect) to keep the retirement FIFO consistent —
    // no checkpoint to append, no waiters to release.
    bool collect_only = false;
  };

  // The one place the proxy's ORAM set is built (construction and crash
  // recovery): over stores_, with the watchdog and the read-path logging
  // hook (one WAL record per global batch, §8) attached.
  std::unique_ptr<ShardedOramSet> MakeOramSet(uint64_t seed) const;
  StatusOr<std::shared_future<Status>> EnqueueFetch(const Key& key, BlockId id);
  size_t WriteAdvanceForBatch(size_t index) const;
  Status DispatchBatch(EpochBatch batch, size_t index);
  void PacerLoop();
  void RetireLoop();
  void StopRetirer();
  // Timed mode: the pacer hit a fatal storage error and is exiting — mark
  // the proxy dead and fail every blocked client (nobody else will ever
  // close an epoch, so blocked waiters would hang forever).
  void FailPacerFatal();
  // Wait until fewer than max_inflight epochs are in the retirement stage
  // (max_inflight = 1 waits for full idleness; = pipeline_depth is the close
  // step's slot wait). Adds any wait to *stall_us and sets *overlapped if an
  // older retirement was still in flight when called, or finished after this
  // epoch dispatched its first batch (first_dispatch_us; 0 = no dispatch
  // yet). Returns the sticky retirement status. timeout_ms bounds the wait
  // (0 = unbounded); on expiry returns DeadlineExceeded without consuming
  // the retirement (SimulateCrash still drains it unbounded).
  Status AwaitRetireSlot(size_t max_inflight, uint64_t first_dispatch_us,
                         uint64_t* stall_us, bool* overlapped, uint64_t timeout_ms);
  // Stash-budget backpressure (cfg_.max_stash_blocks): stall batch dispatch
  // while the shards' in-flight blocks exceed the budget and a retirement is
  // still in flight to shrink it. Bounded by retire_timeout_ms; on expiry it
  // proceeds (degraded) rather than failing the batch — a wedged retirement
  // is the close step's deadline to report.
  void WaitForStashBudget();
  // Translate a client-visible (possibly skewed) timestamp back to the
  // internal one; identity when no claimed-timestamp hook is installed.
  Timestamp ResolveTxn(Timestamp txn) const;
  Status CompleteCrashEpoch(const std::vector<size_t>& replayed_per_shard);
  void FailAllWaiters();
  void ResetEpochBatchesLocked();

  // Observability plumbing run once by the constructor: tracing, metrics,
  // wire-byte sources and the admin listener. The watchdog itself is built
  // earlier, before the ORAM set that feeds it.
  void SetupObservability();
  // Metric labels of stores_[i]: {tier=bucket} for the shared store, plus
  // {shard=i} for per-shard stores.
  MetricLabels BucketStoreLabels(size_t i) const;
  // Every backing store (shared or per-shard, plus the log) that exposes
  // transport counters, labeled for metric export.
  std::vector<std::pair<MetricLabels, NetworkStats*>> CollectNetworkStats() const;
  // Replica-set health/counters of every replicated backing store, labeled
  // like CollectNetworkStats (empty for unreplicated deployments).
  std::vector<std::pair<MetricLabels, ReplicationStats>> CollectReplicationStats() const;
  // Per-replica wire-byte sources for the trace-shape watchdog.
  void RegisterReplicaByteSources();
  // Retire-loop hook: report the retired epoch to every replicated store
  // (lag is measured in epochs) and drive one catch-up pass.
  void DriveReplicaHealing(EpochId epoch);
  // Body for the admin server's /healthz: overall status plus one line per
  // replica of every replicated store.
  std::string HealthzText() const;

  ObladiConfig cfg_;
  // The caller's bucket stores: one shared store, or one per shard.
  std::vector<std::shared_ptr<BucketStore>> stores_;
  std::shared_ptr<LogStore> log_;
  std::shared_ptr<Encryptor> encryptor_;
  // Declared before oram_ so they outlive it: the ORAM set holds a raw
  // watchdog pointer, and metrics sources capture `this`.
  std::unique_ptr<TraceShapeWatchdog> watchdog_;
  std::unique_ptr<MetricsRegistry> metrics_;
  // This proxy opened the global tracer's stream sink; close it on teardown.
  bool started_trace_stream_ = false;
  // Declared before oram_: the set's plan hook holds a raw pointer to it.
  std::unique_ptr<RecoveryUnit> recovery_;
  std::unique_ptr<ShardedOramSet> oram_;
  KeyDirectory directory_;
  MvtsoEngine engine_;

  mutable std::mutex mu_;  // guards epoch/batch structures below
  bool loaded_ = false;
  bool crashed_ = false;
  std::vector<EpochBatch> epoch_batches_;
  size_t next_dispatch_ = 0;
  uint64_t epoch_first_dispatch_us_ = 0;  // when this epoch's batch 0 went out
  std::unordered_map<Key, std::shared_future<Status>> inflight_fetches_;
  std::unordered_map<Timestamp, std::shared_ptr<std::promise<Status>>> commit_waiters_;
  ObladiStats stats_;

  std::mutex dispatch_mu_;  // serializes batch dispatch / epoch change
  std::thread pacer_;
  std::atomic<bool> pacer_running_{false};

  // Retirement stage: one worker draining a FIFO of up to pipeline_depth
  // closed epochs (bounds live state to depth+1 epochs' working sets).
  // retire_mu_ is never held while calling into the ORAM or the recovery
  // unit — except the stash-budget wait's InflightBlocks sample, which is
  // safe because no ORAM path ever takes retire_mu_.
  std::mutex retire_mu_;
  std::condition_variable retire_cv_;
  std::thread retirer_;
  bool retirer_started_ = false;
  bool retire_stop_ = false;
  bool retire_abandon_ = false;  // crash simulation: skip checkpoint append
  std::deque<RetireJob> retire_queue_;
  size_t retire_inflight_ = 0;      // queued + executing retire jobs
  Status retire_status_;            // sticky first retirement failure
  uint64_t last_retire_done_us_ = 0;
  std::function<void()> retire_hook_;

  // Clock-skew fault state (see SetClaimedTimestampHook). skew_mu_ covers
  // engine Begin + hook so claimed order equals internal begin order.
  mutable std::mutex skew_mu_;
  std::atomic<bool> skew_enabled_{false};
  std::function<uint64_t(uint64_t)> claimed_ts_hook_;
  std::unordered_map<Timestamp, Timestamp> claimed_to_internal_;

  // Declared last so the scrape listener stops before anything it reads
  // (metrics sources walk oram_ and stats_) is torn down.
  std::unique_ptr<AdminServer> admin_;
};

}  // namespace obladi

#endif  // OBLADI_SRC_PROXY_OBLADI_STORE_H_
