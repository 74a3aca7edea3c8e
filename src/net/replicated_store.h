// Replicated storage tier: fan one shard's traffic out to R replicas with
// quorum writes, automatic read failover, and epoch-consistent catch-up.
//
// ReplicatedBucketStore / ReplicatedLogStore wrap R same-shaped stores
// (usually RemoteBucketStore/RemoteLogStore clients over AsyncNetClient,
// in-memory stores in tests). Writes fan to every *current* replica and
// acknowledge once `write_quorum` of them succeed; reads go to the current
// primary (the first current replica) and fail over automatically when it
// answers with a retryable transport error (kUnavailable — which is also how
// an open circuit breaker surfaces — or kDeadlineExceeded). A replica that
// fails a write or a read is demoted to *lagging*: it stops receiving
// traffic and accumulates a catch-up obligation instead.
//
// Both stores run on one health core, ReplicaSet: the current/lagging/dead
// states, primary selection, demotion and promotion accounting, lag epochs,
// replication_stats(), the heal loop and its per-replica healing guard, and
// the one read-failover routine every read entry point (sync or async,
// bucket or WAL) goes through. Each store keeps only its write fan-out and
// its catch-up model.
//
// Catch-up is epoch replay, not op shipping. For buckets, shadow paging
// makes the live state fully described by "which versions of which buckets
// exist" — the store tracks that index for every acknowledged write, marks
// the buckets a lagging replica missed dirty, and TryHealReplicas() rebuilds
// exactly those buckets on the healing replica by reading the live versions
// from the primary and truncating to the same floor. For the WAL, appends
// are at-most-once over the network, so the store keeps an ordered buffer of
// recent ops plus a per-replica cursor; a failed append leaves the cursor
// *ambiguous* and catch-up first probes the replica's NextLsn() to decide
// whether the in-doubt record landed before replaying the tail. A replica
// whose LSNs cannot be reconciled (it lost acknowledged records) is marked
// dead rather than silently resynced.
//
// Demotion only ever happens on retryable transport errors: a semantic
// error (InvalidArgument, NotFound) is the caller's problem and returns
// identically from every replica, so treating it as replica failure would
// shrink the healthy set on perfectly healthy deployments.
#ifndef OBLADI_SRC_NET_REPLICATED_STORE_H_
#define OBLADI_SRC_NET_REPLICATED_STORE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/storage/bucket_store.h"

namespace obladi {

struct ReplicatedStoreOptions {
  // Writes acknowledge after this many replica successes (clamped to
  // [1, R]). With quorum < R a write can succeed while a minority replica
  // is down — the down replica is demoted and caught up later.
  uint32_t write_quorum = 1;
};

// True for the transport-level failures that justify demoting a replica.
inline bool IsReplicaRetryable(const Status& s) {
  return s.code() == StatusCode::kUnavailable || s.code() == StatusCode::kDeadlineExceeded;
}

// Replica health core shared by both stores; defined in the .cc.
template <typename Replica>
class ReplicaSet;

class ReplicatedBucketStore : public BucketStore {
 public:
  ReplicatedBucketStore(std::vector<std::shared_ptr<BucketStore>> replicas,
                        ReplicatedStoreOptions options = {});
  ~ReplicatedBucketStore() override;

  StatusOr<Bytes> ReadSlot(BucketIndex bucket, uint32_t version, SlotIndex slot) override;
  std::vector<StatusOr<Bytes>> ReadSlotsBatch(const std::vector<SlotRef>& refs) override;
  std::vector<StatusOr<PathXorResult>> ReadPathsXor(const std::vector<PathSlots>& paths,
                                                    uint32_t header_bytes,
                                                    uint32_t trailer_bytes) override;
  Status WriteBucket(BucketIndex bucket, uint32_t version, std::vector<Bytes> slots) override;
  Status WriteBucketsBatch(std::vector<BucketImage> images) override;
  Status TruncateBucket(BucketIndex bucket, uint32_t keep_from_version) override;
  Status TruncateBucketsBatch(const std::vector<TruncateRef>& refs) override;

  bool SupportsAsyncBatches() const override;
  void ReadSlotsBatchAsync(std::vector<SlotRef> refs, ReadSlotsDone done) override;
  void WriteBucketsBatchAsync(std::vector<BucketImage> images, WriteBucketsDone done) override;
  void ReadPathsXorAsync(std::vector<PathSlots> paths, uint32_t header_bytes,
                         uint32_t trailer_bytes, ReadPathsXorDone done) override;

  size_t num_buckets() const override;
  // nullptr: one aggregate counter would double-charge fanned-out traffic.
  // Per-replica transport stats are exposed via replication_stats().
  NetworkStats* network_stats() override { return nullptr; }

  ReplicationStats replication_stats() override;
  void NoteEpochRetired(EpochId epoch) override;
  Status TryHealReplicas() override;

  // Test hook: index of the replica reads currently go to (-1 if none).
  int PrimaryIndexForTest();

 private:
  struct Replica;
  // How a write fan-out reaches one replica: the sync and async entry
  // points differ only here.
  using WriteSend =
      std::function<void(BucketStore&, const std::vector<BucketImage>&,
                         const std::vector<TruncateRef>&, WriteBucketsDone)>;
  struct FanOutCtx;

  // Bucket write fan-out, shared by every write and truncate entry point.
  void FanOutWrite(std::vector<BucketImage> images, std::vector<TruncateRef> truncates,
                   const WriteSend& send, WriteBucketsDone done);
  // Applies a quorum-acknowledged write/truncate to the live version index.
  void RecordWriteLocked(BucketIndex bucket, uint32_t version, uint32_t slot_count);
  void RecordTruncateLocked(BucketIndex bucket, uint32_t keep_from_version);
  // Applies a finished fan-out: demotions, dirty marks, the live index.
  Status FinishWriteLocked(const FanOutCtx& ctx);
  // One full catch-up attempt for one lagging replica (the replay rounds).
  Status HealReplica(size_t index);

  // The health core; its mutex also guards every member below.
  std::unique_ptr<ReplicaSet<Replica>> set_;
  // Live version index per bucket: version -> slot count. This is the whole
  // replicated state under shadow paging, and the replay plan for catch-up.
  std::vector<std::map<uint32_t, uint32_t>> live_;
  // Writes/truncates whose wire phase has started but whose outcome has not
  // yet been applied by FinishWriteLocked. The dirty marks that keep a
  // lagging replica honest land only when a write *finishes* (after the
  // replica stores have it), so heal promotion waits for this to drain —
  // promoting mid-write would strand an acknowledged write on the
  // about-to-be-primary. writes_cv_ fires when the count hits zero.
  uint32_t writes_in_flight_ = 0;
  std::condition_variable writes_cv_;
};

class ReplicatedLogStore : public LogStore {
 public:
  ReplicatedLogStore(std::vector<std::shared_ptr<LogStore>> replicas,
                     ReplicatedStoreOptions options = {});
  ~ReplicatedLogStore() override;

  StatusOr<uint64_t> Append(Bytes record) override;
  StatusOr<uint64_t> AppendSync(Bytes record) override;
  Status Sync() override;
  StatusOr<std::vector<Bytes>> ReadAll() override;
  Status Truncate(uint64_t upto_lsn) override;
  uint64_t NextLsn() const override;
  NetworkStats* network_stats() override { return nullptr; }

  ReplicationStats replication_stats() override;
  void NoteEpochRetired(EpochId epoch) override;
  Status TryHealReplicas() override;

  int PrimaryIndexForTest();
  // Test hook: payload bytes buffered for lagging replicas' catch-up.
  size_t BufferedBytesForTest();

 private:
  // One buffered op a lagging replica may still need to replay. Appends
  // carry their assigned LSN so replay can verify the replica assigns the
  // same one (LSN divergence means lost acknowledged data -> dead).
  struct Op {
    bool truncate = false;
    uint64_t lsn_or_upto = 0;
    Bytes record;
  };
  struct Replica;

  // Drop buffered ops every non-dead replica has applied; kill laggards
  // whose tail exceeds the byte cap.
  void TrimOpsLocked();
  StatusOr<uint64_t> AppendImpl(Bytes record, bool fused_sync);
  // The WAL fan-out shared by Append, Sync (`op` null) and Truncate; the
  // caller holds io_mu_.
  Status FanOut(Op* op, bool fused_sync);
  Status HealReplica(size_t index);

  // WAL order lock, acquired BEFORE set_->mu (never the other way around).
  // It serializes the wire phase of Append/Truncate/Sync so every replica
  // receives ops in exactly the order ops_ records them — at-most-once
  // appends cannot be reordered or raced per replica — and it is the
  // barrier heal snapshots take so replay never re-delivers an op a stale
  // direct send is still carrying. set_->mu alone guards bookkeeping (ops_,
  // cursors, health, next_lsn_), so NextLsn(), replication_stats(), and
  // heal bookkeeping never stall behind a slow replica's transport
  // deadline; appends themselves still serialize (the LSN a replica assigns
  // must match the send order, which a concurrent wire phase would break).
  std::mutex io_mu_;
  // The health core; its mutex also guards every member below.
  std::unique_ptr<ReplicaSet<Replica>> set_;
  std::deque<Op> ops_;
  uint64_t ops_base_ = 0;   // global index of ops_.front()
  size_t ops_bytes_ = 0;    // payload bytes buffered in ops_
  uint64_t next_lsn_ = 0;
};

}  // namespace obladi

#endif  // OBLADI_SRC_NET_REPLICATED_STORE_H_
