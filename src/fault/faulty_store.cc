#include "src/fault/faulty_store.h"

#include <chrono>
#include <thread>

namespace obladi {

namespace {

// Shared counter-driven injection step for both decorators.
Status InjectWith(const FaultPlan& plan, uint64_t op, bool durability_path,
                  std::atomic<uint64_t>& faults_injected) {
  if (plan.latency_spike_every_n != 0 && plan.latency_spike_us != 0 &&
      op % plan.latency_spike_every_n == 0) {
    faults_injected.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(plan.latency_spike_us));
  }
  if (durability_path && plan.fsync_stall_us != 0) {
    faults_injected.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(plan.fsync_stall_us));
  }
  if (plan.unavailable_every_n != 0 && op % plan.unavailable_every_n == 0) {
    faults_injected.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("injected transient fault");
  }
  return Status::Ok();
}

}  // namespace

// --- FaultyBucketStore ------------------------------------------------------

void FaultyBucketStore::SetPlan(FaultPlan plan) {
  std::lock_guard<std::mutex> lk(fault_mu_);
  plan_ = plan;
}

FaultPlan FaultyBucketStore::plan() const {
  std::lock_guard<std::mutex> lk(fault_mu_);
  return plan_;
}

Status FaultyBucketStore::Inject(bool durability_path) {
  uint64_t op = op_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  FaultPlan plan;
  {
    std::lock_guard<std::mutex> lk(fault_mu_);
    plan = plan_;
  }
  return InjectWith(plan, op, durability_path, faults_injected_);
}

StatusOr<Bytes> FaultyBucketStore::ReadSlot(BucketIndex bucket, uint32_t version,
                                            SlotIndex slot) {
  OBLADI_RETURN_IF_ERROR(Inject(false));
  return base_->ReadSlot(bucket, version, slot);
}

Status FaultyBucketStore::WriteBucket(BucketIndex bucket, uint32_t version,
                                      std::vector<Bytes> slots) {
  OBLADI_RETURN_IF_ERROR(Inject(true));
  return base_->WriteBucket(bucket, version, std::move(slots));
}

std::vector<StatusOr<Bytes>> FaultyBucketStore::ReadSlotsBatch(
    const std::vector<SlotRef>& refs) {
  Status st = Inject(false);
  if (!st.ok()) {
    return std::vector<StatusOr<Bytes>>(refs.size(), StatusOr<Bytes>(st));
  }
  return base_->ReadSlotsBatch(refs);
}

Status FaultyBucketStore::WriteBucketsBatch(std::vector<BucketImage> images) {
  OBLADI_RETURN_IF_ERROR(Inject(true));
  return base_->WriteBucketsBatch(std::move(images));
}

Status FaultyBucketStore::TruncateBucket(BucketIndex bucket, uint32_t keep_from_version) {
  OBLADI_RETURN_IF_ERROR(Inject(false));
  return base_->TruncateBucket(bucket, keep_from_version);
}

Status FaultyBucketStore::TruncateBucketsBatch(const std::vector<TruncateRef>& refs) {
  OBLADI_RETURN_IF_ERROR(Inject(false));
  return base_->TruncateBucketsBatch(refs);
}

std::vector<StatusOr<PathXorResult>> FaultyBucketStore::ReadPathsXor(
    const std::vector<PathSlots>& paths, uint32_t header_bytes, uint32_t trailer_bytes) {
  Status st = Inject(false);
  if (!st.ok()) {
    return std::vector<StatusOr<PathXorResult>>(paths.size(),
                                                StatusOr<PathXorResult>(st));
  }
  return base_->ReadPathsXor(paths, header_bytes, trailer_bytes);
}

void FaultyBucketStore::ReadSlotsBatchAsync(std::vector<SlotRef> refs, ReadSlotsDone done) {
  Status st = Inject(false);
  if (!st.ok()) {
    done(std::vector<StatusOr<Bytes>>(refs.size(), StatusOr<Bytes>(st)));
    return;
  }
  base_->ReadSlotsBatchAsync(std::move(refs), std::move(done));
}

void FaultyBucketStore::WriteBucketsBatchAsync(std::vector<BucketImage> images,
                                               WriteBucketsDone done) {
  Status st = Inject(true);
  if (!st.ok()) {
    done(st);
    return;
  }
  base_->WriteBucketsBatchAsync(std::move(images), std::move(done));
}

void FaultyBucketStore::ReadPathsXorAsync(std::vector<PathSlots> paths, uint32_t header_bytes,
                                          uint32_t trailer_bytes, ReadPathsXorDone done) {
  Status st = Inject(false);
  if (!st.ok()) {
    done(std::vector<StatusOr<PathXorResult>>(paths.size(),
                                              StatusOr<PathXorResult>(st)));
    return;
  }
  base_->ReadPathsXorAsync(std::move(paths), header_bytes, trailer_bytes, std::move(done));
}

// --- FaultyLogStore ---------------------------------------------------------

void FaultyLogStore::SetPlan(FaultPlan plan) {
  std::lock_guard<std::mutex> lk(fault_mu_);
  plan_ = plan;
}

FaultPlan FaultyLogStore::plan() const {
  std::lock_guard<std::mutex> lk(fault_mu_);
  return plan_;
}

Status FaultyLogStore::Inject(bool durability_path) {
  uint64_t op = op_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  FaultPlan plan;
  {
    std::lock_guard<std::mutex> lk(fault_mu_);
    plan = plan_;
  }
  return InjectWith(plan, op, durability_path, faults_injected_);
}

StatusOr<uint64_t> FaultyLogStore::Append(Bytes record) {
  OBLADI_RETURN_IF_ERROR(Inject(false));
  return base_->Append(std::move(record));
}

Status FaultyLogStore::Sync() {
  OBLADI_RETURN_IF_ERROR(Inject(true));
  return base_->Sync();
}

StatusOr<uint64_t> FaultyLogStore::AppendSync(Bytes record) {
  OBLADI_RETURN_IF_ERROR(Inject(true));
  return base_->AppendSync(std::move(record));
}

StatusOr<std::vector<Bytes>> FaultyLogStore::ReadAll() {
  OBLADI_RETURN_IF_ERROR(Inject(false));
  return base_->ReadAll();
}

Status FaultyLogStore::Truncate(uint64_t upto_lsn) {
  OBLADI_RETURN_IF_ERROR(Inject(false));
  return base_->Truncate(upto_lsn);
}

}  // namespace obladi
