// Ring ORAM with Obladi's epoch-parallel executor (§4, §6.3, §7).
//
// One class supports three execution modes, selected by RingOramOptions:
//
//  * Sequential     (parallel=false): canonical Ring ORAM. Every physical read
//    and every eviction/reshuffle write executes synchronously, one at a time.
//    This is the "Sequential" series of Figure 10a.
//
//  * Parallel, immediate writes (parallel=true, defer_writes=false): physical
//    reads of a batch run concurrently on an I/O pool, but each evict-path /
//    early-reshuffle still performs its write phase at its trigger point,
//    which forces a barrier (all in-flight reads must land before the stash
//    can be flushed — the timing-channel argument of §7). This is the
//    "Normal" series of Figure 10d.
//
//  * Parallel, deferred writes (both true): Obladi's design. Within an epoch
//    only reads touch the server; eviction and reshuffle *read phases* run at
//    their scheduled points, while all write phases are planned and flushed
//    at FinishEpoch with per-bucket deduplication (a bucket rewritten k times
//    in an epoch is physically written once, at its k-th version). Buckets
//    already consumed by an eviction are served from the proxy buffer for the
//    rest of the epoch (Lemma 2's "read exactly once").
//
// Epoch retirement (the pipelined epoch state machine): FinishEpoch is the
// composition of three stages so the proxy can overlap epoch N's write-back
// with epoch N+1's execution:
//
//    BeginRetire()       plan all deferred write phases, snapshot each
//                        rewritten bucket's materialization inputs (version,
//                        permutation, blocks) into a self-contained plan,
//                        and hand encrypt+submit to the I/O pool; advance to
//                        the next epoch. The rewritten buckets' plaintext
//                        contents stay buffered in a "retiring" set. The
//                        caller pays neither the crypto nor the network.
//    AwaitRetireDurable  block until every image is durable on the server.
//                        Touches no ORAM metadata lock, so a concurrent
//                        batch of the next epoch cannot deadlock against it.
//    CollectRetired()    drop the retiring buffers; subsequent accesses read
//                        the (now durable) new versions physically.
//
// While a bucket is retiring, its new version may not be readable on the
// server yet, so the next epoch serves it from the proxy: path levels through
// a retiring bucket skip their physical read (the same proxy-buffer serving
// as Lemma 2 — the in-flight version has been read zero times), a logical
// access targeting a block inside one deposits the buffered value straight
// into the stash, and an eviction/reshuffle read phase absorbs the whole
// buffered bucket into the stash with no physical reads. Which buckets
// retire is exactly the adversary-visible write set of epoch N, and the skip
// window closes at a schedule-driven point (retirement completion), so the
// observable shape stays workload independent.
//
// Security-relevant behaviours implemented here:
//  * every access remaps its block to a fresh uniform leaf (path invariant);
//  * no physical slot is read twice between bucket writes (bucket invariant);
//  * dummy requests (id == kInvalidBlockId) read a full random path;
//  * writes are "dummiless" (§6.3): they update the stash directly and only
//    advance the eviction schedule;
//  * blocks resident in the stash still trigger full dummy path reads, unless
//    the insecure cache_all_stash ablation is enabled (used by tests to
//    demonstrate the §6.3 skew).
#ifndef OBLADI_SRC_ORAM_RING_ORAM_H_
#define OBLADI_SRC_ORAM_RING_ORAM_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/common/types.h"
#include "src/crypto/csprng.h"
#include "src/crypto/encryptor.h"
#include "src/oram/block_codec.h"
#include "src/oram/bucket_meta.h"
#include "src/oram/config.h"
#include "src/oram/position_map.h"
#include "src/oram/stash.h"
#include "src/oram/trace.h"
#include "src/storage/bucket_store.h"

namespace obladi {

struct RingOramOptions {
  bool parallel = true;
  bool defer_writes = true;      // delayed visibility (§7); requires parallel
  bool parallel_crypto = true;   // decrypt/encrypt on pool workers vs. one at a time
  bool cache_all_stash = false;  // INSECURE ablation for the §6.3 skew demonstration
  bool verify_decoded_ids = true;  // disable when running on DummyBucketStore
  bool enable_trace = false;       // record the adversary-visible physical trace
  // Server-side XOR path reads (Ren et al.'s XOR technique): a logical
  // access's (L+1)-slot path read is fetched as one kReadPathsXor request —
  // the server returns every slot's nonce/tag header plus the XOR of the
  // ciphertext bodies, and the proxy regenerates the non-target dummy
  // bodies (deterministic plaintexts, stream cipher) to recover the one
  // real ciphertext. Download per path drops from (L+1) slot ciphertexts
  // to ~1. The slots the server touches are unchanged, so the observable
  // request shape is identical. Takes effect in parallel + deferred mode
  // against stores serving genuine ciphertexts (i.e. requires
  // verify_decoded_ids — DummyBucketStore's static garbage cannot be
  // XOR-reconstructed); eviction/reshuffle bucket reads (several real
  // blocks per bucket) stay slot-by-slot.
  bool xor_path_reads = true;
  // Epoch retirements allowed in flight at once (pipeline depth D).
  // BeginRetire fails when `retire_depth` epochs are already retiring and
  // none has been collected; AwaitRetireDurable/CollectRetired operate on
  // the oldest in-flight retirement (FIFO). 1 reproduces the depth-1
  // pipeline exactly.
  size_t retire_depth = 1;
  size_t io_threads = 32;
};

struct RingOramStats {
  uint64_t logical_accesses = 0;
  uint64_t physical_slot_reads = 0;
  uint64_t physical_bucket_writes = 0;
  uint64_t planned_bucket_rewrites = 0;  // pre-dedup rewrite count
  uint64_t evictions = 0;
  uint64_t early_reshuffles = 0;
  uint64_t buffered_bucket_skips = 0;  // path levels served from the epoch buffer
  uint64_t retiring_bucket_skips = 0;  // path levels served from a retiring bucket
  uint64_t xor_path_reads = 0;         // path reads fetched via kReadPathsXor
  uint64_t stash_cache_skips = 0;      // accesses skipped by cache_all_stash (ablation)
  uint64_t early_results = 0;          // batch answers delivered before batch completion
  uint64_t flush_plan_us = 0;          // FinishEpoch: planning deferred write phases
  uint64_t materialize_us = 0;         // FinishEpoch: encrypt + write buckets
  uint64_t write_drain_us = 0;         // FinishEpoch: waiting on handed-off writes
};

class RingOram {
 public:
  RingOram(RingOramConfig config, RingOramOptions options, std::shared_ptr<BucketStore> store,
           std::shared_ptr<Encryptor> encryptor, uint64_t seed);
  ~RingOram();

  RingOram(const RingOram&) = delete;
  RingOram& operator=(const RingOram&) = delete;

  const RingOramConfig& config() const { return config_; }
  const RingOramOptions& options() const { return options_; }

  // Bulk-load initial block values; values[i] is the payload of BlockId i.
  // Buckets are packed bottom-up and written at version 0.
  Status Initialize(const std::vector<Bytes>& values);

  // Execute a batch of logical reads. Entries equal to kInvalidBlockId are
  // padding requests (a full random-path dummy read). Returns payloads
  // aligned with ids (empty for padding). Blocks until all values arrived.
  StatusOr<std::vector<Bytes>> ReadBatch(const std::vector<BlockId>& ids);

  // Early-answer form (the scheduler's access_r stage): `early` fires with
  // (batch index, payload) as soon as that access's path group decrypts —
  // before the rest of the batch completes — from an I/O pool thread. Every
  // invocation happens-before ReadBatch returns; slots never fire twice,
  // and slots resolved only at batch completion (stash-resident values,
  // padding) do not fire at all — the returned vector remains the complete
  // answer set either way. The callback must be thread-safe and cheap.
  using EarlyResultFn = std::function<void(size_t, const Bytes&)>;
  StatusOr<std::vector<Bytes>> ReadBatch(const std::vector<BlockId>& ids,
                                         const EarlyResultFn& early);

  // Recovery replay (§8): re-executes a logged batch. Padding requests reuse
  // the logged leaves; real requests must match the restored position map.
  StatusOr<std::vector<Bytes>> ReplayReadBatch(const BatchPlan& plan);

  // Dummiless buffered writes. The batch is padded (by counter bumps) to
  // padded_size so the eviction schedule is workload independent.
  // Equivalent to AdvanceWriteSchedule(padded_size) + ApplyWriteValues.
  Status WriteBatch(const std::vector<std::pair<BlockId, Bytes>>& writes, size_t padded_size);

  // Split form for the pipelined proxy: the write batch's schedule advance
  // is a fixed count per epoch (padded), independent of the values — so its
  // eviction/reshuffle *read phases* can ride the epoch's paced read
  // batches instead of bunching into one storage wave at the close.
  // AdvanceWriteSchedule bumps the access counter `bumps` times; in
  // parallel + deferred mode any triggered read phases dispatch at once
  // (the sub-epoch scheduler), otherwise they wait for the next dispatch;
  // ApplyWriteValues deposits the decided values with NO schedule movement.
  // Per epoch, Advance totals must equal what WriteBatch would have padded
  // to, or the schedule stops being workload independent.
  void AdvanceWriteSchedule(size_t bumps);
  Status ApplyWriteValues(const std::vector<std::pair<BlockId, Bytes>>& writes);

  // Flush deferred eviction/reshuffle write phases and all buffered bucket
  // writes (deduplicated); advances to the next epoch. Equivalent to
  // BeginRetire() + AwaitRetireDurable() + CollectRetired().
  Status FinishEpoch();

  // --- pipelined epoch retirement (see file comment) ---
  // Plan the epoch's deferred write-back, hand its encryption + submission
  // to the I/O pool, and advance to the next epoch. The rewritten buckets
  // stay buffered as a retiring *generation* so the next epoch's accesses
  // can be served while the flush is in flight. Up to `retire_depth`
  // generations may be in flight at once (FIFO); BeginRetire fails when the
  // window is full and nothing has been collected.
  Status BeginRetire();
  // Wait until the *oldest* in-flight retirement's images are durable on
  // the server; returns its first write-back error. Takes no ORAM metadata
  // lock: safe to call while a next-epoch batch is executing.
  Status AwaitRetireDurable();
  // Drop the oldest retiring generation's buffers (call only after its
  // AwaitRetireDurable) and bank its version floors for the next
  // TruncateStaleVersions call.
  void CollectRetired();
  // In-flight retiring generations (0..retire_depth).
  size_t RetiringGenerations() const;
  // In-flight proxy memory: stash entries + blocks parked in retiring
  // buckets (the pipeline's working-set bound).
  size_t InflightBlocks() const;

  // Drop superseded bucket versions on the server. The proxy calls this only
  // after the epoch's checkpoint is durable (recovery may still need the old
  // versions before that).
  Status TruncateStaleVersions();

  // --- durability interface (§8) ---
  // Called with each read batch's plan before any of its physical reads are
  // issued (requires parallel + defer_writes). A failing status aborts the
  // batch.
  void SetBatchPlannedHook(std::function<Status(const BatchPlan&)> hook);

  // State accessors for checkpointing; call only between batches/epochs.
  PositionMap& position_map() { return position_map_; }
  const std::vector<BucketMeta>& bucket_metas() const { return meta_; }
  Stash& stash() { return stash_; }
  // Counter accessors take mu_ so a live metrics scrape can read them while
  // batches run (checkpointing still calls them between batches, where the
  // lock is uncontended).
  uint64_t access_count() const;
  uint64_t evict_count() const;
  EpochId epoch() const;
  void SetEpoch(EpochId e);

  // Buckets whose metadata changed since the last TakeDirtyBuckets call.
  std::vector<BucketIndex> TakeDirtyBuckets();

  // Rebuild in-memory state from recovered components (used by the recovery
  // manager instead of Initialize).
  Status RestoreState(PositionMap position_map, std::vector<BucketMeta> metas, Stash stash,
                      uint64_t access_count, uint64_t evict_count, EpochId epoch);

  RingOramStats stats() const;
  void ResetStats();
  TraceRecorder& trace() { return trace_; }

  // Test hooks: invariant checks (O(N + buckets)).
  Status CheckInvariants() const;

 private:
  struct BlockLoc {
    uint32_t bucket = kLocNone;  // kLocStash / kLocNone sentinels below
    uint32_t slot = 0;           // logical real slot when in a bucket
  };
  static constexpr uint32_t kLocStash = 0xFFFFFFFFu;
  static constexpr uint32_t kLocNone = 0xFFFFFFFEu;

  struct PlannedBlock {
    BlockId id;
    Leaf leaf;
    Bytes value;
  };
  struct BufferedBucket {
    bool fully_read = false;      // all future reads served from the proxy buffer
    bool rewrite_planned = false; // FlushPath/FlushBucket assigned new contents
    std::vector<PlannedBlock> blocks;
  };
  enum class DeferredOpType { kEvictPath, kReshuffle };
  struct DeferredOp {
    DeferredOpType type;
    Leaf leaf = kInvalidLeaf;
    BucketIndex bucket = 0;
  };

  // A physical slot read planned but not yet executed. `entry` is the
  // (node-stable) stash entry to deposit the decrypted value into, captured
  // at planning time; nullptr for dummy-slot reads. Reads belonging to one
  // logical access's path share a path_group and may be fetched as a single
  // XOR path read; kNoPathGroup reads (eviction/reshuffle bucket pulls) are
  // always fetched slot by slot.
  static constexpr uint32_t kNoPathGroup = 0xFFFFFFFFu;
  struct PendingRead {
    BucketIndex bucket = 0;
    uint32_t version = 0;
    SlotIndex slot = 0;
    BlockId deposit_id = kInvalidBlockId;
    StashEntry* entry = nullptr;
    std::vector<Bytes>* results = nullptr;
    size_t result_slot = 0;
    uint32_t entry_gen = 0;
    uint32_t path_group = kNoPathGroup;
    // Early-answer callback for the batch this read answers (target reads
    // only). Points at the caller's frame; valid because every deposit
    // happens-before RunReadBatch returns.
    const EarlyResultFn* early = nullptr;
  };

  // --- planning (all under mu_) ---
  Status PlanAccess(BlockId id, std::optional<Leaf> forced_leaf, BatchPlan& plan,
                    std::vector<Bytes>* results, size_t result_slot);
  void EmitRead(BucketIndex bucket, SlotIndex phys_slot, BlockId deposit_id, StashEntry* entry,
                std::vector<Bytes>* results, size_t result_slot, uint32_t entry_gen,
                uint32_t path_group = kNoPathGroup);
  void BumpAccessCounter();
  void ScheduleEviction();
  void ScheduleReshuffle(BucketIndex bucket);
  // Shared read phase of evictions/reshuffles for one bucket: move all valid
  // real blocks into the stash and pad with dummy reads up to Z total.
  void BucketReadPhase(BucketIndex bucket);
  // If `bucket` is retiring, move its buffered blocks into the stash (no
  // physical reads — the in-flight version has never been read) and drop it
  // from the retiring set. Returns true if the bucket was retiring.
  bool AbsorbRetiringBucket(BucketIndex bucket);

  // --- flushing ---
  void FlushPath(Leaf leaf);
  void FlushBucket(BucketIndex bucket);
  void PullPlannedBlocks(BucketIndex bucket);
  // Assign up to Z stash blocks to `bucket` (deepest-first is achieved by the
  // caller's level order); records placement or materializes immediately.
  void PlaceAndRewrite(BucketIndex bucket, std::vector<PlannedBlock> blocks);
  void MaterializeBucket(BucketIndex bucket, const std::vector<PlannedBlock>& blocks,
                         bool via_pool);
  std::vector<PlannedBlock> SelectStashBlocksFor(BucketIndex bucket, Leaf target_leaf,
                                                 uint32_t level);

  // --- physical IO ---
  // Fetch + decode one read on the calling thread (sequential/eager modes).
  void ExecuteReadNow(const PendingRead& read);
  // Decrypt, verify, and deposit one fetched ciphertext.
  void ProcessCiphertext(const PendingRead& read, StatusOr<Bytes> ciphertext);
  // Decode a recovered plaintext, verify its id, and deposit it into the
  // stash entry / batch results registered at planning time.
  void DepositPlaintext(const PendingRead& read, const Bytes& plaintext);
  // Decrypt+deposit one dispatched chunk's results and retire its
  // outstanding-read slot (runs on the I/O pool).
  void ProcessReadGroup(const std::vector<PendingRead>& group,
                        std::vector<StatusOr<Bytes>> ciphertexts);
  // True when per-access path reads go over the XOR read path (see
  // RingOramOptions::xor_path_reads). Requires the config and encryptor to
  // agree on authenticated mode: the reconstruction derives both the
  // trailer layout and the verification AAD from it, and a mismatched pair
  // (which the slot-by-slot path happens to tolerate) would reject every
  // reply.
  bool UseXorPathReads() const {
    return options_.xor_path_reads && options_.parallel && options_.defer_writes &&
           options_.verify_decoded_ids &&
           encryptor_->authenticated() == config_.authenticated;
  }
  // Reconstruct one XOR path read: verify every slot tag (authenticated
  // mode), regenerate and XOR out the dummy bodies, and decrypt + deposit
  // the surviving target ciphertext (or check the all-dummy residue is
  // zero). Runs on the I/O pool.
  void ProcessPathXorGroup(const std::vector<PendingRead>& path,
                           StatusOr<PathXorResult> result);
  // One dispatched XOR chunk: reconstruct every path, then retire the
  // chunk's outstanding-read slot.
  void ProcessXorChunk(const std::vector<std::vector<PendingRead>>& paths,
                       std::vector<StatusOr<PathXorResult>> results);
  void DispatchPendingReads();
  // Dispatch halves of DispatchPendingReads: eviction/reshuffle slot reads
  // via batched slot RPCs, path groups via XOR path reads.
  void DispatchPlainReads(std::vector<PendingRead> reads);
  void DispatchXorReads(std::vector<std::vector<PendingRead>> groups);
  void WaitOutstandingReads();
  // Issue all buffered bucket images as one batched storage write.
  void FlushPendingImages();
  // Everything needed to materialize one retiring bucket without touching
  // meta_ (so the retirement stage can encrypt lock-free).
  struct RetireImagePlan {
    BucketIndex bucket = 0;
    uint32_t version = 0;
    std::vector<SlotIndex> perm;
    std::vector<PlannedBlock> blocks;  // logical slots [0, blocks.size())
  };
  // Shared by MaterializeBucket and the retirement stage: encrypt every slot
  // of one bucket image (blocks occupy the dense logical prefix; the rest
  // are dummies).
  std::vector<Bytes> EncryptBucketSlots(BucketIndex bucket, uint32_t version,
                                        const std::vector<SlotIndex>& perm,
                                        const std::vector<PlannedBlock>& blocks);
  BucketImage EncryptRetireImage(const RetireImagePlan& plan);
  struct RetireTicket;  // defined with the retirement state below
  // Submit encrypted images without waiting; completions land on
  // RetireChunkDone against the generation's ticket.
  void SubmitImagesAsync(std::vector<BucketImage> images,
                         std::shared_ptr<RetireTicket> ticket);
  void RetireChunkDone(const std::shared_ptr<RetireTicket>& ticket, Status st);
  void RecordError(const Status& status);
  StatusOr<std::vector<Bytes>> RunReadBatch(const std::vector<BlockId>& ids,
                                            const BatchPlan* replay_plan,
                                            const EarlyResultFn* early);
  Status WriteBatchInternal(const std::vector<std::pair<BlockId, Bytes>>& writes,
                            size_t padded_size, bool bump_schedule);
  // Copy stash values into batch result slots registered for blocks whose
  // physical read was still in flight at planning time. Must run after a
  // read barrier and before any flush can move those blocks out of the stash.
  void ResolveLazyResults();

  Leaf RandomLeaf() { return static_cast<Leaf>(rng_.Uniform(config_.num_leaves())); }

  RingOramConfig config_;
  RingOramOptions options_;
  std::shared_ptr<BucketStore> store_;
  std::shared_ptr<Encryptor> encryptor_;
  BlockCodec codec_;
  Csprng rng_;
  // I/O pool: sized for latency hiding (threads mostly sleep in the storage
  // layer). Crypto pool: sized to the hardware for the CPU-bound
  // encrypt-and-write phase — oversubscribing it hurts badly.
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<ThreadPool> crypto_pool_;

  mutable std::mutex mu_;  // guards all metadata below
  PositionMap position_map_;
  std::vector<BucketMeta> meta_;
  Stash stash_;
  std::vector<BlockLoc> loc_;
  uint64_t access_count_ = 0;
  uint64_t evict_count_ = 0;
  EpochId epoch_ = 0;
  uint32_t batch_in_epoch_ = 0;

  // Epoch-local state (parallel + deferred mode).
  std::unordered_map<BucketIndex, BufferedBucket> buffered_;
  // Rewritten buckets of earlier epochs whose images are still in flight:
  // plaintext contents kept to serve this epoch's accesses (see file
  // comment). Entries whose blocks have since moved (loc_ no longer points
  // at the bucket) are stale and skipped at absorb time. Each entry is
  // owned by one retiring generation (`gen`); a bucket re-rewritten in a
  // later epoch is re-owned by the newer generation.
  struct RetiringBucket {
    uint64_t gen = 0;
    std::vector<PlannedBlock> blocks;
  };
  std::unordered_map<BucketIndex, RetiringBucket> retiring_;
  // FIFO of in-flight epoch retirements (at most options_.retire_depth).
  // version_floors[b] is bucket b's write count at that epoch's close — the
  // exact version its checkpoint references, and therefore the truncation
  // floor once that checkpoint is durable. Snapshotting the floors here
  // (instead of reading live counts at truncate time) keeps depth-D
  // truncation from deleting versions a still-undurable later epoch bumped
  // past.
  struct RetiringGeneration {
    uint64_t gen = 0;
    std::vector<BucketIndex> buckets;
    std::vector<uint32_t> version_floors;
  };
  std::deque<RetiringGeneration> retiring_gens_;
  uint64_t next_retire_gen_ = 1;
  // Floors banked by the most recent CollectRetired, consumed by the next
  // TruncateStaleVersions call.
  std::optional<std::vector<uint32_t>> collected_floors_;
  std::vector<DeferredOp> deferred_ops_;
  std::vector<PendingRead> pending_reads_;
  // Early-answer callback of the batch currently planning (live only within
  // RunReadBatch, under mu_); EmitRead attaches it to target reads.
  const EarlyResultFn* current_early_ = nullptr;
  uint32_t next_path_group_ = 0;  // reset each dispatch; groups never span one
  std::unordered_set<BucketIndex> dirty_buckets_;

  struct LazyResult {
    BlockId id;
    std::vector<Bytes>* results;
    size_t slot;
  };
  std::vector<LazyResult> lazy_results_;

  std::function<Status(const BatchPlan&)> planned_hook_;
  TraceRecorder trace_;

  // Cross-thread read completion tracking.
  std::mutex io_mu_;
  std::condition_variable io_cv_;
  size_t outstanding_reads_ = 0;
  std::mutex deposit_mu_;   // guards stash value deposits
  std::mutex crypto_mu_;    // serializes crypto when !parallel_crypto
  std::mutex images_mu_;    // guards the buffered bucket images below
  std::vector<BucketImage> pending_images_;
  std::mutex err_mu_;
  Status first_error_;

  // Retirement completion tracking (never held together with mu_ by the
  // waiter side; completions only touch these, so AwaitRetireDurable cannot
  // deadlock against a next-epoch batch that holds mu_). One ticket per
  // in-flight generation, FIFO-aligned with retiring_gens_; the global
  // outstanding count feeds the destructor's drain.
  struct RetireTicket {
    size_t outstanding = 0;
    Status error;
  };
  mutable std::mutex retire_mu_;
  std::condition_variable retire_cv_;
  std::deque<std::shared_ptr<RetireTicket>> retire_tickets_;
  size_t retire_outstanding_ = 0;
  // Encrypt time spent on the retirement stage (folded into materialize_us
  // by stats(); atomic because it is recorded outside mu_).
  std::atomic<uint64_t> bg_materialize_us_{0};
  // Early answers delivered from I/O threads (folded into stats() like
  // bg_materialize_us_; atomic because deposits run outside mu_).
  std::atomic<uint64_t> early_results_{0};

  RingOramStats stats_;  // updated under mu_ at planning time
};

}  // namespace obladi

#endif  // OBLADI_SRC_ORAM_RING_ORAM_H_
