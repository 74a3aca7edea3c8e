// Durability and crash recovery (§8), generalized over K ORAM shards.
//
// Obladi recovers to the last committed epoch using three ingredients:
//
//  1. Read-path logging: before a read batch's physical requests are issued,
//     its plan (block id + path leaf per request, padding included) is
//     appended to the write-ahead log and synced. After a crash the recovery
//     logic *replays* these paths so the adversary always observes the
//     aborted epoch's paths repeated — re-accessing the same objects after
//     recovery therefore leaks nothing. With sharding, each *global* batch
//     logs ONE record holding every shard sub-batch's plan tagged with its
//     shard index (ShardedOramSet's per-batch plan rendezvous collects the
//     concurrently planned sub-batches and hands them over together), so
//     per-shard order follows log order.
//
//  2. Per-epoch delta checkpoints: at each epoch commit the proxy logs, for
//     *every shard*, the position-map delta (padded to the worst-case number
//     of changed entries per shard, R*read_quota + write_quota, so its size
//     leaks nothing), the metadata of every bucket touched this epoch, and
//     the full stash (padded to its analytic maximum), plus the shared
//     access/evict counters — all in ONE log record, so a multi-shard epoch
//     is durable atomically (epoch fate sharing extends across shards).
//
//  3. Shadow paging: bucket writes create new versions keyed by the bucket's
//     write count, so recovery simply reads buckets at their checkpointed
//     versions; versions from the aborted epoch are ignored and later
//     garbage collected.
//
// Every full_checkpoint_interval epochs a full checkpoint (complete position
// maps + all bucket metadata, all shards) supersedes the accumulated deltas
// and lets the log be truncated.
#ifndef OBLADI_SRC_RECOVERY_RECOVERY_UNIT_H_
#define OBLADI_SRC_RECOVERY_RECOVERY_UNIT_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/crypto/encryptor.h"
#include "src/oram/ring_oram.h"
#include "src/oram/trace.h"
#include "src/storage/bucket_store.h"
#include "src/storage/trusted_counter.h"

namespace obladi {

struct RecoveryConfig {
  bool enabled = true;
  size_t full_checkpoint_interval = 16;  // epochs between full checkpoints
  // Worst-case changed position-map entries per shard per epoch
  // (R*read_quota + write_quota); each shard's delta is padded to this.
  size_t posmap_delta_pad_entries = 0;
};

// Timing/size breakdown of one recovery, mirroring Table 11b's columns.
struct RecoveryBreakdown {
  uint64_t total_us = 0;
  uint64_t log_fetch_us = 0;    // reading the WAL back
  uint64_t pos_us = 0;          // decrypt + rebuild position maps
  uint64_t perm_us = 0;         // decrypt + rebuild bucket metadata
  uint64_t stash_us = 0;        // decrypt + rebuild stashes
  uint64_t path_replay_us = 0;  // re-executing logged read batches (set by caller)
  size_t replayed_batches = 0;  // shard sub-batches replayed
  size_t log_records = 0;
};

class RecoveryUnit {
 public:
  RecoveryUnit(RecoveryConfig config, std::shared_ptr<LogStore> log,
               std::shared_ptr<Encryptor> encryptor);

  const RecoveryConfig& config() const { return config_; }

  // §8: called (via the batch-planned hook) before a batch's physical
  // requests are issued. Appends all of one *global* batch's shard-tagged
  // sub-plans, encrypted, as ONE log record and syncs (one append + one
  // sync instead of K of each — the K appends would otherwise serialize on
  // the log and put K storage round trips on every batch's critical path).
  // ShardedOramSet's per-batch plan rendezvous makes the one call per batch.
  Status LogReadBatchPlans(const std::vector<std::pair<uint32_t, BatchPlan>>& plans);
  // Single-ORAM convenience: the plan is shard 0's.
  Status LogReadBatchPlan(const BatchPlan& plan) { return LogReadBatchPlans({{0, plan}}); }

  // Log the epoch's delta (or periodic full) checkpoint covering every shard
  // and sync. Call after the shards' FinishEpoch. Equivalent to
  // CaptureEpochCommit + AppendCaptured.
  Status LogEpochCommit(const std::vector<RingOram*>& shards);
  Status LogEpochCommit(RingOram& oram) {
    std::vector<RingOram*> one{&oram};
    return LogEpochCommit(one);
  }

  // --- pipelined epoch retirement split ---
  // The pipelined proxy closes epoch N and immediately starts executing
  // N+1, while N's checkpoint is appended by the retirement stage once N's
  // bucket writes are durable. Two obligations fall on the recovery unit:
  //
  //   * The checkpoint *payload* must snapshot the shards' state at N's
  //     close, before N+1 mutates position maps / stashes / metadata —
  //     CaptureEpochCommit runs synchronously in the close step.
  //   * Ordering rule, depth-D form: with a pipeline of depth D (see
  //     SetPipelineWindow) up to D captured checkpoints may be pending at
  //     once, appended strictly in capture order by the retirement stage.
  //     A read-batch plan may enter the log only while fewer than D
  //     checkpoints are pending, so a crash leaves at most D epochs of
  //     plans past the last durable checkpoint (D-1 closed-but-undurable
  //     epochs plus the partial one) — recovery replays exactly that
  //     window, grouping plans by their logged epoch. While the window is
  //     full, LogReadBatchPlans blocks until the oldest checkpoint lands —
  //     or fails if a pending checkpoint was abandoned (retirement failure
  //     or simulated crash). D=1 reproduces the original single-slot gate.
  //
  // A snapshot of one epoch's checkpoint, not yet in the log.
  struct PendingCheckpoint {
    bool valid = false;  // false when recovery is disabled (append is a no-op)
    bool full = false;
    Bytes payload;
  };
  StatusOr<PendingCheckpoint> CaptureEpochCommit(const std::vector<RingOram*>& shards);
  // Append + sync a captured checkpoint and release any gated plan writers.
  // Call only after the epoch's bucket writes are durable (shadow paging:
  // the checkpoint references the new bucket versions).
  Status AppendCaptured(PendingCheckpoint checkpoint);
  // Drop ONE pending capture without logging it (the epoch failed to retire
  // or the proxy is crashing); call once per abandoned checkpoint. Gated
  // plan writers fail with `reason`; the gate stays broken until Recover()
  // resets it (AppendCaptured also refuses once broken, so a later epoch's
  // checkpoint can never land after an earlier one was dropped).
  void AbandonPendingCheckpoint(Status reason);

  // Pipeline depth D: how many captured checkpoints may be pending at once
  // (default 1). Set at proxy construction, before any capture.
  void SetPipelineWindow(size_t window);

  // Force the next LogEpochCommit to be a full checkpoint (used right after
  // Initialize so recovery always has a base image).
  Status LogFullCheckpoint(const std::vector<RingOram*>& shards);
  Status LogFullCheckpoint(RingOram& oram) {
    std::vector<RingOram*> one{&oram};
    return LogFullCheckpoint(one);
  }

  // Optional proxy metadata (e.g. the key directory) carried inside the
  // checkpoints. The delta provider should pad its output to a fixed size if
  // its natural size is workload dependent.
  void SetMetadataProviders(std::function<Bytes()> full, std::function<Bytes()> delta) {
    metadata_full_ = std::move(full);
    metadata_delta_ = std::move(delta);
  }

  // Appendix A: bind every log record to a monotonically increasing sequence
  // number (as AAD, so a MAC-mode encryptor authenticates it) and mirror the
  // sequence into a trusted counter that survives crashes. Recovery then
  // rejects a log that a malicious server rolled back or truncated.
  void SetTrustedCounter(std::shared_ptr<TrustedCounter> counter) {
    trusted_counter_ = std::move(counter);
  }

  // Recovered image of one shard's volatile ORAM metadata.
  struct ShardState {
    PositionMap position_map{0};
    std::vector<BucketMeta> metas;
    Stash stash;
    uint64_t access_count = 0;
    uint64_t evict_count = 0;
  };

  // A read sub-batch logged after the last committed epoch, to be replayed
  // on its shard.
  struct PendingPlan {
    uint32_t shard = 0;
    BatchPlan plan;
  };

  struct RecoveredState {
    bool has_state = false;
    EpochId epoch = 0;
    std::vector<ShardState> shards;
    // Plans from the aborted epoch, in log order (per-shard order preserved).
    std::vector<PendingPlan> pending_plans;
    // Proxy metadata: the last full image plus newer deltas, in order.
    Bytes metadata_full;
    std::vector<Bytes> metadata_deltas;
    RecoveryBreakdown breakdown;
  };

  // Rebuild the last committed state from the log.
  StatusOr<RecoveredState> Recover();

 private:
  enum RecordType : uint8_t {
    kReadBatchPlan = 1,
    kEpochDelta = 2,
    kFullCheckpoint = 3,
  };

  Bytes BuildDeltaPayload(const std::vector<RingOram*>& shards);
  Bytes BuildFullPayload(const std::vector<RingOram*>& shards);
  // Durable-append half: assign the next sequence number and append + sync
  // the record in ONE fused log round trip (LogStore::AppendSync /
  // kLogAppendSync). mu_ must be held — append order defines the log and
  // must match seq order.
  Status AppendRecordLocked(RecordType type, const Bytes& plaintext_payload,
                            uint64_t* seq_out);
  // Trusted-counter half, called WITHOUT mu_: the record is already durable
  // when this runs; only the rollback-detection counter remains.
  Status FinishAppendUnlocked(uint64_t seq);

  RecoveryConfig config_;
  std::shared_ptr<LogStore> log_;
  std::shared_ptr<Encryptor> encryptor_;
  std::shared_ptr<TrustedCounter> trusted_counter_;
  std::function<Bytes()> metadata_full_;
  std::function<Bytes()> metadata_delta_;
  std::mutex mu_;
  std::condition_variable gate_cv_;
  size_t checkpoints_pending_ = 0;  // captured but not yet appended
  size_t pipeline_window_ = 1;      // max pending checkpoints (depth D)
  Status gate_error_;               // sticky after an abandon; reset by Recover
  size_t epochs_since_full_ = 0;
  uint64_t last_full_lsn_ = 0;
  uint64_t record_seq_ = 0;
};

}  // namespace obladi

#endif  // OBLADI_SRC_RECOVERY_RECOVERY_UNIT_H_
