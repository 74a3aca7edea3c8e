// Timing decorators for the storage interfaces, used by the end-to-end
// benchmark on both sides of the wire: around RemoteBucketStore /
// RemoteLogStore inside the proxy (what the ORAM and the recovery unit wait
// for) and directly around FileBucketStore / FileLogStore inside the storage
// server (what the disk costs). Every call is forwarded to the SAME entry
// point of the wrapped store — never to a default that loops over unary
// forms, which would change the round-trip count being measured — counted
// per entry point, and, while the tracer is armed, recorded as a span in the
// "bench" category whose arg is the payload bytes the call moved.
#ifndef OBLADI_BENCH_E2E_TIMED_STORE_H_
#define OBLADI_BENCH_E2E_TIMED_STORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/obs/trace.h"
#include "src/storage/bucket_store.h"

namespace obladi::e2e {

inline constexpr const char* kBenchCategory = "bench";

// Span names for one side of the wire. String literals only: the tracer
// stores the pointers.
struct StoreSpanNames {
  const char* read;             // ReadSlot, ReadSlotsBatch, ReadPathsXor (+ async)
  const char* write;            // WriteBucket, WriteBucketsBatch (+ async)
  const char* truncate;         // TruncateBucket, TruncateBucketsBatch
  const char* wal_append;       // LogStore::Append
  const char* wal_sync;         // LogStore::Sync
  const char* wal_append_sync;  // LogStore::AppendSync
  const char* wal_other;        // ReadAll, Truncate, NextLsn
};

// Client side: the proxy's view of one storage round trip.
inline constexpr StoreSpanNames kNetSpans{"net.read",       "net.write",
                                          "net.truncate",   "net.wal_append",
                                          "net.wal_sync",   "net.wal_append_sync",
                                          "net.wal_other"};
// Server side: the file stores' service time, below any injected latency.
inline constexpr StoreSpanNames kStorageSpans{"storage.read",       "storage.write",
                                              "storage.truncate",   "storage.wal_append",
                                              "storage.wal_sync",   "storage.wal_append_sync",
                                              "storage.wal_other"};

enum class BucketOp : size_t {
  kReadSlot,
  kWriteBucket,
  kReadSlotsBatch,
  kWriteBucketsBatch,
  kTruncateBucket,
  kTruncateBucketsBatch,
  kReadPathsXor,
  kReadSlotsBatchAsync,
  kWriteBucketsBatchAsync,
  kReadPathsXorAsync,
  kCount,
};

enum class LogOp : size_t { kAppend, kSync, kAppendSync, kReadAll, kTruncate, kNextLsn, kCount };

inline void RecordStoreSpan(const char* name, uint64_t start_ns, uint64_t bytes) {
  Tracer& tracer = Tracer::Get();
  if (tracer.enabled()) {
    tracer.RecordSpanArg(kBenchCategory, name, start_ns, NowNanos() - start_ns, bytes);
  }
}

inline uint64_t PayloadBytes(const std::vector<StatusOr<Bytes>>& slots) {
  uint64_t n = 0;
  for (const auto& slot : slots) {
    n += slot.ok() ? slot->size() : 0;
  }
  return n;
}

inline uint64_t PayloadBytes(const std::vector<StatusOr<PathXorResult>>& paths) {
  uint64_t n = 0;
  for (const auto& path : paths) {
    n += path.ok() ? path->headers.size() + path->body_xor.size() : 0;
  }
  return n;
}

inline uint64_t PayloadBytes(const std::vector<BucketImage>& images) {
  uint64_t n = 0;
  for (const auto& image : images) {
    for (const Bytes& slot : image.slots) {
      n += slot.size();
    }
  }
  return n;
}

inline uint64_t PayloadBytes(const std::vector<Bytes>& slots) {
  uint64_t n = 0;
  for (const Bytes& slot : slots) {
    n += slot.size();
  }
  return n;
}

template <typename Op>
class CallCounts {
 public:
  void Bump(Op op) { counts_[static_cast<size_t>(op)].fetch_add(1, std::memory_order_relaxed); }
  uint64_t Get(Op op) const {
    return counts_[static_cast<size_t>(op)].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<uint64_t>, static_cast<size_t>(Op::kCount)> counts_{};
};

class TimedBucketStore : public BucketStore {
 public:
  TimedBucketStore(std::shared_ptr<BucketStore> base, const StoreSpanNames& names)
      : base_(std::move(base)), names_(names) {}

  uint64_t calls(BucketOp op) const { return calls_.Get(op); }

  StatusOr<Bytes> ReadSlot(BucketIndex bucket, uint32_t version, SlotIndex slot) override {
    calls_.Bump(BucketOp::kReadSlot);
    const uint64_t start = NowNanos();
    auto result = base_->ReadSlot(bucket, version, slot);
    RecordStoreSpan(names_.read, start, result.ok() ? result->size() : 0);
    return result;
  }

  Status WriteBucket(BucketIndex bucket, uint32_t version, std::vector<Bytes> slots) override {
    calls_.Bump(BucketOp::kWriteBucket);
    const uint64_t start = NowNanos();
    const uint64_t bytes = PayloadBytes(slots);
    Status st = base_->WriteBucket(bucket, version, std::move(slots));
    RecordStoreSpan(names_.write, start, bytes);
    return st;
  }

  std::vector<StatusOr<Bytes>> ReadSlotsBatch(const std::vector<SlotRef>& refs) override {
    calls_.Bump(BucketOp::kReadSlotsBatch);
    const uint64_t start = NowNanos();
    auto results = base_->ReadSlotsBatch(refs);
    RecordStoreSpan(names_.read, start, PayloadBytes(results));
    return results;
  }

  Status WriteBucketsBatch(std::vector<BucketImage> images) override {
    calls_.Bump(BucketOp::kWriteBucketsBatch);
    const uint64_t start = NowNanos();
    const uint64_t bytes = PayloadBytes(images);
    Status st = base_->WriteBucketsBatch(std::move(images));
    RecordStoreSpan(names_.write, start, bytes);
    return st;
  }

  Status TruncateBucket(BucketIndex bucket, uint32_t keep_from_version) override {
    calls_.Bump(BucketOp::kTruncateBucket);
    const uint64_t start = NowNanos();
    Status st = base_->TruncateBucket(bucket, keep_from_version);
    RecordStoreSpan(names_.truncate, start, 0);
    return st;
  }

  Status TruncateBucketsBatch(const std::vector<TruncateRef>& refs) override {
    calls_.Bump(BucketOp::kTruncateBucketsBatch);
    const uint64_t start = NowNanos();
    Status st = base_->TruncateBucketsBatch(refs);
    RecordStoreSpan(names_.truncate, start, 0);
    return st;
  }

  std::vector<StatusOr<PathXorResult>> ReadPathsXor(const std::vector<PathSlots>& paths,
                                                    uint32_t header_bytes,
                                                    uint32_t trailer_bytes) override {
    calls_.Bump(BucketOp::kReadPathsXor);
    const uint64_t start = NowNanos();
    auto results = base_->ReadPathsXor(paths, header_bytes, trailer_bytes);
    RecordStoreSpan(names_.read, start, PayloadBytes(results));
    return results;
  }

  bool SupportsAsyncBatches() const override { return base_->SupportsAsyncBatches(); }

  // The completions capture only the span name and the caller's callback,
  // never `this`: they may fire on a transport thread after the caller let
  // go of the decorator.
  void ReadSlotsBatchAsync(std::vector<SlotRef> refs, ReadSlotsDone done) override {
    calls_.Bump(BucketOp::kReadSlotsBatchAsync);
    const uint64_t start = NowNanos();
    base_->ReadSlotsBatchAsync(
        std::move(refs), [name = names_.read, start, done = std::move(done)](
                             std::vector<StatusOr<Bytes>> results) {
          RecordStoreSpan(name, start, PayloadBytes(results));
          done(std::move(results));
        });
  }

  void WriteBucketsBatchAsync(std::vector<BucketImage> images, WriteBucketsDone done) override {
    calls_.Bump(BucketOp::kWriteBucketsBatchAsync);
    const uint64_t start = NowNanos();
    const uint64_t bytes = PayloadBytes(images);
    base_->WriteBucketsBatchAsync(
        std::move(images), [name = names_.write, start, bytes, done = std::move(done)](Status st) {
          RecordStoreSpan(name, start, bytes);
          done(std::move(st));
        });
  }

  void ReadPathsXorAsync(std::vector<PathSlots> paths, uint32_t header_bytes,
                         uint32_t trailer_bytes, ReadPathsXorDone done) override {
    calls_.Bump(BucketOp::kReadPathsXorAsync);
    const uint64_t start = NowNanos();
    base_->ReadPathsXorAsync(
        std::move(paths), header_bytes, trailer_bytes,
        [name = names_.read, start, done = std::move(done)](
            std::vector<StatusOr<PathXorResult>> results) {
          RecordStoreSpan(name, start, PayloadBytes(results));
          done(std::move(results));
        });
  }

  size_t num_buckets() const override { return base_->num_buckets(); }
  NetworkStats* network_stats() override { return base_->network_stats(); }
  ReplicationStats replication_stats() override { return base_->replication_stats(); }
  void NoteEpochRetired(EpochId epoch) override { base_->NoteEpochRetired(epoch); }
  Status TryHealReplicas() override { return base_->TryHealReplicas(); }

 private:
  std::shared_ptr<BucketStore> base_;
  StoreSpanNames names_;
  CallCounts<BucketOp> calls_;
};

class TimedLogStore : public LogStore {
 public:
  TimedLogStore(std::shared_ptr<LogStore> base, const StoreSpanNames& names)
      : base_(std::move(base)), names_(names) {}

  uint64_t calls(LogOp op) const { return calls_.Get(op); }

  StatusOr<uint64_t> Append(Bytes record) override {
    calls_.Bump(LogOp::kAppend);
    const uint64_t start = NowNanos();
    const uint64_t bytes = record.size();
    auto lsn = base_->Append(std::move(record));
    RecordStoreSpan(names_.wal_append, start, bytes);
    return lsn;
  }

  Status Sync() override {
    calls_.Bump(LogOp::kSync);
    const uint64_t start = NowNanos();
    Status st = base_->Sync();
    RecordStoreSpan(names_.wal_sync, start, 0);
    return st;
  }

  StatusOr<uint64_t> AppendSync(Bytes record) override {
    calls_.Bump(LogOp::kAppendSync);
    const uint64_t start = NowNanos();
    const uint64_t bytes = record.size();
    auto lsn = base_->AppendSync(std::move(record));
    RecordStoreSpan(names_.wal_append_sync, start, bytes);
    return lsn;
  }

  StatusOr<std::vector<Bytes>> ReadAll() override {
    calls_.Bump(LogOp::kReadAll);
    const uint64_t start = NowNanos();
    auto records = base_->ReadAll();
    RecordStoreSpan(names_.wal_other, start, records.ok() ? PayloadBytes(*records) : 0);
    return records;
  }

  Status Truncate(uint64_t upto_lsn) override {
    calls_.Bump(LogOp::kTruncate);
    const uint64_t start = NowNanos();
    Status st = base_->Truncate(upto_lsn);
    RecordStoreSpan(names_.wal_other, start, 0);
    return st;
  }

  uint64_t NextLsn() const override {
    calls_.Bump(LogOp::kNextLsn);
    const uint64_t start = NowNanos();
    uint64_t lsn = base_->NextLsn();
    RecordStoreSpan(names_.wal_other, start, 0);
    return lsn;
  }

  NetworkStats* network_stats() override { return base_->network_stats(); }
  ReplicationStats replication_stats() override { return base_->replication_stats(); }
  void NoteEpochRetired(EpochId epoch) override { base_->NoteEpochRetired(epoch); }
  Status TryHealReplicas() override { return base_->TryHealReplicas(); }

 private:
  std::shared_ptr<LogStore> base_;
  StoreSpanNames names_;
  // NextLsn is const in the interface but still counted.
  mutable CallCounts<LogOp> calls_;
};

}  // namespace obladi::e2e

#endif  // OBLADI_BENCH_E2E_TIMED_STORE_H_
