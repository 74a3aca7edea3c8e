// Storage-level fault decorators: wrap any BucketStore / LogStore and
// inject transient Unavailable errors, latency spikes, and fsync stalls
// according to a deterministic, counter-driven FaultPlan.
//
// Determinism: faults fire on every Nth eligible operation (per decorator,
// counted from construction), never from a clock or an unseeded RNG — the
// same workload over the same plan replays the same fault schedule, which
// is what lets the nemesis scenarios and the conformance tests assert exact
// outcomes. Plans can be swapped at runtime (SetPlan) so a scenario can
// turn a WAL stall on mid-epoch and off again after the watchdog fires.
//
// With a default-constructed FaultPlan both decorators are transparent
// pass-throughs — the conformance suite runs against that configuration to
// prove the wrappers themselves don't corrupt semantics.
#ifndef OBLADI_SRC_FAULT_FAULTY_STORE_H_
#define OBLADI_SRC_FAULT_FAULTY_STORE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <utility>

#include "src/storage/bucket_store.h"

namespace obladi {

struct FaultPlan {
  // Every Nth eligible operation fails with Unavailable before reaching the
  // base store (0 = never, 1 = every operation).
  uint64_t unavailable_every_n = 0;
  // Every Nth operation sleeps latency_spike_us before proceeding (0 = off).
  uint64_t latency_spike_every_n = 0;
  uint64_t latency_spike_us = 0;
  // Durability-path stall: added to every Sync / AppendSync / bucket write.
  // Models a disk whose fsync latency collapsed (slow-disk nemesis).
  uint64_t fsync_stall_us = 0;
};

class FaultyBucketStore : public BucketStore {
 public:
  FaultyBucketStore(std::shared_ptr<BucketStore> base, FaultPlan plan = {})
      : base_(std::move(base)), plan_(plan) {}

  void SetPlan(FaultPlan plan);
  FaultPlan plan() const;
  uint64_t faults_injected() const {
    return faults_injected_.load(std::memory_order_relaxed);
  }

  StatusOr<Bytes> ReadSlot(BucketIndex bucket, uint32_t version, SlotIndex slot) override;
  Status WriteBucket(BucketIndex bucket, uint32_t version, std::vector<Bytes> slots) override;
  std::vector<StatusOr<Bytes>> ReadSlotsBatch(const std::vector<SlotRef>& refs) override;
  Status WriteBucketsBatch(std::vector<BucketImage> images) override;
  Status TruncateBucket(BucketIndex bucket, uint32_t keep_from_version) override;
  Status TruncateBucketsBatch(const std::vector<TruncateRef>& refs) override;
  std::vector<StatusOr<PathXorResult>> ReadPathsXor(const std::vector<PathSlots>& paths,
                                                    uint32_t header_bytes,
                                                    uint32_t trailer_bytes) override;
  size_t num_buckets() const override { return base_->num_buckets(); }

  // Async forms forward to the base (which may complete them on a transport
  // thread); an injected fault completes `done` inline without submitting.
  bool SupportsAsyncBatches() const override { return base_->SupportsAsyncBatches(); }
  void ReadSlotsBatchAsync(std::vector<SlotRef> refs, ReadSlotsDone done) override;
  void WriteBucketsBatchAsync(std::vector<BucketImage> images, WriteBucketsDone done) override;
  void ReadPathsXorAsync(std::vector<PathSlots> paths, uint32_t header_bytes,
                         uint32_t trailer_bytes, ReadPathsXorDone done) override;

  NetworkStats* network_stats() override { return base_->network_stats(); }

 private:
  // Counts the operation, applies spike/stall sleeps, and returns the
  // injected error if this operation is scheduled to fail.
  Status Inject(bool durability_path);

  std::shared_ptr<BucketStore> base_;
  mutable std::mutex fault_mu_;
  FaultPlan plan_;
  std::atomic<uint64_t> op_counter_{0};
  std::atomic<uint64_t> faults_injected_{0};
};

class FaultyLogStore : public LogStore {
 public:
  FaultyLogStore(std::shared_ptr<LogStore> base, FaultPlan plan = {})
      : base_(std::move(base)), plan_(plan) {}

  void SetPlan(FaultPlan plan);
  FaultPlan plan() const;
  uint64_t faults_injected() const {
    return faults_injected_.load(std::memory_order_relaxed);
  }

  StatusOr<uint64_t> Append(Bytes record) override;
  Status Sync() override;
  StatusOr<uint64_t> AppendSync(Bytes record) override;
  StatusOr<std::vector<Bytes>> ReadAll() override;
  Status Truncate(uint64_t upto_lsn) override;
  uint64_t NextLsn() const override { return base_->NextLsn(); }

  NetworkStats* network_stats() override { return base_->network_stats(); }

 private:
  Status Inject(bool durability_path);

  std::shared_ptr<LogStore> base_;
  mutable std::mutex fault_mu_;
  FaultPlan plan_;
  std::atomic<uint64_t> op_counter_{0};
  std::atomic<uint64_t> faults_injected_{0};
};

}  // namespace obladi

#endif  // OBLADI_SRC_FAULT_FAULTY_STORE_H_
