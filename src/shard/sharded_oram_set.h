// ShardedOramSet: K independent parallel Ring ORAM instances behind one
// oblivious epoch coordinator.
//
// A single Ring ORAM serializes on one position map, one stash, and one
// eviction schedule; the paper (§9) names parallelizing the ORAM itself as
// the route to cloud-scale throughput. This subsystem partitions the dense
// BlockId space across K RingOram instances (ShardRouter striping), each
// with its own BucketStore namespace, position map, stash, and eviction
// schedule, and coordinates them so the *global* epoch structure the proxy
// relies on (padded read batches, dummiless write batches, deferred flush at
// epoch end, delta checkpoints, shadow-paging truncation) is preserved.
//
// Obliviousness of routing: which shard a request targets is a function of
// its block id, so raw per-shard request counts would leak the workload
// (Zipfian skew concentrates traffic on hot shards). The coordinator
// therefore pads every shard's read sub-batch to the same fixed size
// `read_quota` (= ceil(b_read / K)) with dummy full-path reads, and pads
// every shard's write batch to `write_quota` with schedule bumps, exactly as
// the single-ORAM proxy pads its batches. The storage server observes K
// identical-shaped request streams per batch regardless of skew; admission
// control above (the proxy's batch filling / MVTSO write-batch caps) aborts
// transactions that would overflow a shard's quota, mirroring the paper's
// "batch filling up" aborts.
//
// Epoch fate sharing across shards: FinishEpoch fans out to all K shards and
// succeeds only if every shard's deferred write phase flushed; the proxy
// checkpoints all K shards in one log record (see RecoveryUnit), so either
// the whole multi-shard epoch becomes durable or none of it does.
#ifndef OBLADI_SRC_SHARD_SHARDED_ORAM_SET_H_
#define OBLADI_SRC_SHARD_SHARDED_ORAM_SET_H_

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/common/types.h"
#include "src/crypto/encryptor.h"
#include "src/oram/ring_oram.h"
#include "src/shard/shard_router.h"
#include "src/storage/bucket_store.h"

namespace obladi {

struct ShardedOramOptions {
  RingOramOptions oram;   // template applied to every shard
  size_t read_quota = 0;  // per-shard logical requests per read batch
  size_t write_quota = 0; // per-shard real-write capacity per epoch
};

class ShardedOramSet {
 public:
  // With K > 1, oram.io_threads is split across the shards (each gets at
  // least 2) so total I/O concurrency matches the single-ORAM configuration.
  //
  // Shared backing store: shard i owns buckets [i*B, (i+1)*B), where B is
  // layout.shard_config.num_buckets(). The store must have at least
  // layout.total_buckets() buckets.
  ShardedOramSet(const ShardLayout& layout, const ShardedOramOptions& options,
                 std::shared_ptr<BucketStore> store,
                 std::shared_ptr<Encryptor> encryptor, uint64_t seed);

  // Per-shard backing stores — e.g. one latency-injecting decorator (its own
  // connection pool) per shard, the cloud deployment this subsystem models.
  ShardedOramSet(const ShardLayout& layout, const ShardedOramOptions& options,
                 std::vector<std::shared_ptr<BucketStore>> shard_stores,
                 std::shared_ptr<Encryptor> encryptor, uint64_t seed);

  ShardedOramSet(const ShardedOramSet&) = delete;
  ShardedOramSet& operator=(const ShardedOramSet&) = delete;

  const ShardLayout& layout() const { return layout_; }
  const ShardRouter& router() const { return router_; }
  uint32_t num_shards() const { return router_.num_shards(); }
  size_t read_quota() const { return options_.read_quota; }
  size_t write_quota() const { return options_.write_quota; }

  // Bulk-load initial values indexed by *global* BlockId; runs every shard's
  // Initialize concurrently.
  Status Initialize(const std::vector<Bytes>& values);

  // Execute one global read batch: route the (global) ids to their shards,
  // pad every shard's sub-batch to read_quota with dummy path reads, run the
  // K sub-batches concurrently, and scatter results back into input order.
  // Entries equal to kInvalidBlockId are global padding and produce empty
  // payloads. Fails with ResourceExhausted if any shard receives more than
  // read_quota real requests (admission control lives in the proxy).
  StatusOr<std::vector<Bytes>> ReadBatch(const std::vector<BlockId>& ids);

  // Early-answer form (the scheduler's access_r stage fanned over shards):
  // `early` fires with (global batch index, payload) from a shard's I/O
  // thread as soon as that access's path group decrypts — concurrently
  // across shards, so the callback must be thread-safe. Same contract as
  // RingOram::ReadBatch(ids, early): every fire happens-before return,
  // slots fire at most once, and the returned vector is always complete.
  using EarlyResultFn = RingOram::EarlyResultFn;
  StatusOr<std::vector<Bytes>> ReadBatch(const std::vector<BlockId>& ids,
                                         const EarlyResultFn& early);

  // Recovery replay of one shard's logged sub-batch (§8). The plan carries
  // shard-local ids and leaves.
  StatusOr<std::vector<Bytes>> ReplayShardBatch(uint32_t shard, const BatchPlan& plan);

  // One all-dummy sub-batch on one shard (crash-epoch completion: every
  // shard must observe its full complement of R sub-batches per epoch).
  Status ReadShardDummyBatch(uint32_t shard);

  // The epoch's dummiless write batch, in two halves. Advance every shard's
  // eviction schedule by `per_shard_bumps` — the write batch's schedule
  // movement is a fixed, value-independent count, so the proxy spreads it
  // across the epoch's paced read batches (the triggered read phases
  // dispatch with the next batch wave) and the close applies only the
  // values. Per epoch the advances must total write_quota per shard, so
  // shards with few (or no) real writes move exactly as far as busy ones.
  // The single-shard form backs crash-recovery replay, which re-advances
  // per replayed batch.
  void AdvanceWriteSchedule(size_t per_shard_bumps);
  void AdvanceShardWriteSchedule(uint32_t shard, size_t bumps);
  // Deposit decided values, keyed by global BlockId, with no schedule
  // movement. More than write_quota real writes on one shard is a
  // ResourceExhausted error (the MVTSO epoch-commit admission keeps this
  // from happening in the proxy).
  Status ApplyWriteValues(const std::vector<std::pair<BlockId, Bytes>>& writes);

  // Flush all shards' deferred write phases concurrently; advances every
  // shard to the next epoch. Fails if any shard fails (fate sharing).
  // Equivalent to BeginRetire + AwaitRetireDurable + CollectRetired.
  Status FinishEpoch();

  // --- pipelined epoch retirement (fans the RingOram split out over K
  // shards; fate sharing holds stage-wise: the epoch is durable only when
  // every shard's retirement is) ---
  // Plan + encrypt + submit every shard's write-back without waiting;
  // advances all shards to the next epoch.
  Status BeginRetire();
  // Wait until every shard's submitted images are durable. Takes no ORAM
  // metadata locks (safe against concurrently executing next-epoch batches).
  Status AwaitRetireDurable();
  // Drop all shards' retiring buffers (only after AwaitRetireDurable).
  void CollectRetired();
  // In-flight retiring generations (shards move in lockstep; reports the
  // maximum across shards).
  size_t RetiringGenerations() const;
  // Stash + retiring blocks across shards (the pipeline's memory bound).
  size_t InflightBlocks() const;

  // Shadow-paging garbage collection, fanned out across shards. Call only
  // after the epoch's checkpoint is durable.
  Status TruncateStaleVersions();

  // Read-path logging (§8): before any read of a global batch is issued,
  // the hook gets the batch's planned sub-batches as (shard, local plan)
  // pairs in shard order — K for ReadBatch, one for ReadShardDummyBatch.
  // The sub-batches meet in a per-batch rendezvous, each arriving once
  // (holding its shard's lock) with its plan or its planning failure; the
  // last arrival calls the hook, or skips it if any sub-batch failed, and
  // every sub-batch returns that status, issuing no reads on failure.
  // Batches are serialized inside the set. Replayed batches are already
  // logged and skip the hook. nullptr: sub-batches run independently.
  using BatchPlannedFn =
      std::function<Status(const std::vector<std::pair<uint32_t, BatchPlan>>&)>;
  void SetBatchPlannedHook(BatchPlannedFn hook);

  // Attaches the trace-shape watchdog. Fed from each shard ORAM's plan
  // hook, ahead of the rendezvous (so it observes each shard ORAM's actual
  // planned sub-batch, not the coordinator's intent), from every
  // write-schedule advance, and from every epoch close. Must outlive this
  // set; nullptr detaches.
  void SetWatchdog(class TraceShapeWatchdog* watchdog);

  // --- checkpoint-state accessors (fan-in/out over shards) ---
  RingOram& shard(uint32_t i) { return *shards_[i]; }
  const RingOram& shard(uint32_t i) const { return *shards_[i]; }
  std::vector<RingOram*> shard_ptrs();

  Status RestoreShardState(uint32_t shard, PositionMap position_map,
                           std::vector<BucketMeta> metas, Stash stash,
                           uint64_t access_count, uint64_t evict_count, EpochId epoch);

  EpochId epoch() const { return shards_[0]->epoch(); }
  uint64_t access_count() const;  // summed across shards
  uint64_t evict_count() const;   // summed across shards

  RingOramStats stats() const;  // aggregated across shards
  std::vector<RingOramStats> per_shard_stats() const;
  void ResetStats();

  // Per-shard health, recorded from every fanned-out shard operation:
  // 1 = healthy (last operation succeeded), 0 = degraded (last operation
  // failed — partitioned storage node, deadline expiries, ...). Exported as
  // obs gauges by the proxy so an operator can see WHICH shard an epoch
  // abort came from. ShardFailuresSnapshot counts cumulative failures.
  std::vector<uint8_t> ShardHealthSnapshot() const;
  std::vector<uint64_t> ShardFailuresSnapshot() const;

  // Shard 0's physical trace (the accessor existing single-shard tests and
  // examples use); per-shard recorders via shard_trace().
  TraceRecorder& trace() { return shards_[0]->trace(); }
  TraceRecorder& shard_trace(uint32_t i) { return shards_[i]->trace(); }

  Status CheckInvariants() const;

 private:
  void Construct(std::vector<std::shared_ptr<BucketStore>> shard_stores,
                 std::shared_ptr<Encryptor> encryptor, uint64_t seed);
  StatusOr<std::vector<Bytes>> ReadBatchImpl(const std::vector<BlockId>& ids,
                                             const EarlyResultFn* early);
  // One global batch's plan rendezvous; lives on the launching batch's stack.
  struct PlanRendezvous;
  // Runs one sub-batch of the current batch on `shard`. A sub-batch that
  // failed before its plan reached the hook arrives with its failure, so
  // its peers never wait for a plan that will not come.
  StatusOr<std::vector<Bytes>> RunSubBatch(uint32_t shard, const std::vector<BlockId>& ids,
                                           const RingOram::EarlyResultFn* early);
  // A sub-batch's arrival at the current rendezvous (plan == nullptr: it
  // failed with `failure`). Returns the batch's logging status once every
  // participant has arrived.
  Status Arrive(uint32_t shard, const BatchPlan* plan, const Status& failure);
  // Run fn(shard) for every shard, concurrently when K > 1; returns the
  // first error. Records each shard's outcome into the health snapshot.
  Status RunOnShards(const std::function<Status(uint32_t)>& fn);
  void RecordShardOutcome(uint32_t shard, bool ok);

  ShardLayout layout_;
  ShardedOramOptions options_;
  ShardRouter router_;
  std::vector<std::unique_ptr<RingOram>> shards_;
  // Coordinator pool: one slot per shard, used only to fan sub-batch and
  // epoch operations out; each shard's RingOram does its own I/O pooling.
  std::unique_ptr<ThreadPool> coordinator_;
  // Serializes global batches (and hook/watchdog installation against
  // them); held from routing until every sub-batch returned.
  std::mutex batch_mu_;
  BatchPlannedFn plan_hook_;
  PlanRendezvous* rendezvous_ = nullptr;  // the running batch's, if hooked
  class TraceShapeWatchdog* watchdog_ = nullptr;

  mutable std::mutex health_mu_;
  std::vector<uint8_t> shard_healthy_;    // 1 = last op ok
  std::vector<uint64_t> shard_failures_;  // cumulative failed ops
};

}  // namespace obladi

#endif  // OBLADI_SRC_SHARD_SHARDED_ORAM_SET_H_
