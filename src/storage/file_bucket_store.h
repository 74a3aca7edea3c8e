// File-backed BucketStore: a single append-only file of bucket-image and
// truncate records plus an in-memory offset index rebuilt by scanning on
// open. Shadow paging maps naturally onto an append-only layout — every
// bucket write is a new record, reads pread() straight from the indexed
// offset, and reopening the same path after a storage-node restart recovers
// exactly the versions that reached the file (a torn tail from a mid-write
// crash is cut off, mirroring FileLogStore's tolerant scan).
//
// The batched forms are the real entry points; the unary calls are
// one-element batches. A batch is validated up front (one bad entry fails it
// with nothing appended), takes the index lock once, and reaches the file as
// one pwrite (plus one fsync with `sync_writes`): bucket records are framed
// and checksummed outside the lock, slot reads resolve their offsets under
// it and pread outside it.
//
// Truncation drops versions from the index and logs a truncate record so
// the drop survives reopen. A truncate that would drop nothing is not logged:
// the reopen scan rebuilds the index record by record, so at that point of
// the scan it would drop nothing either. File space is still not reclaimed
// (compaction is a non-goal here), so the file grows with every write.
//
// File format v2 stamps a magic+version header on fresh files and appends a
// CRC32 after every record, so the open-time scan can distinguish a *torn*
// tail (crash mid-append; cut off and repaired, as before) from a
// *corrupted* record (all bytes present, checksum wrong; the store fails
// closed with DataLoss). Headerless v1 files remain readable and keep v1
// framing for their own appends.
#ifndef OBLADI_SRC_STORAGE_FILE_BUCKET_STORE_H_
#define OBLADI_SRC_STORAGE_FILE_BUCKET_STORE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/storage/bucket_store.h"

namespace obladi {

class FileBucketStore : public BucketStore {
 public:
  // Opens (creating if needed) the store file at `path` and scans it to
  // rebuild the version index. `sync_writes` fsyncs after every append —
  // the restart tests survive process lifetimes either way, so it defaults
  // off to keep the nemesis fast.
  FileBucketStore(std::string path, size_t num_buckets, size_t slots_per_bucket,
                  bool sync_writes = false);
  ~FileBucketStore() override;

  StatusOr<Bytes> ReadSlot(BucketIndex bucket, uint32_t version, SlotIndex slot) override;
  Status WriteBucket(BucketIndex bucket, uint32_t version, std::vector<Bytes> slots) override;
  Status TruncateBucket(BucketIndex bucket, uint32_t keep_from_version) override;
  std::vector<StatusOr<Bytes>> ReadSlotsBatch(const std::vector<SlotRef>& refs) override;
  Status WriteBucketsBatch(std::vector<BucketImage> images) override;
  Status TruncateBucketsBatch(const std::vector<TruncateRef>& refs) override;
  size_t num_buckets() const override { return num_buckets_; }

  // Test hooks.
  size_t TotalVersions() const;
  uint64_t FileBytes() const;
  // 1 = legacy headerless/no-CRC layout, 2 = current checksummed layout.
  uint32_t FileFormatVersion() const;

 private:
  struct SlotLocation {
    uint64_t offset = 0;
    uint32_t length = 0;
  };
  // version -> per-slot file locations. Ordered so truncation erases a prefix.
  using VersionIndex = std::map<uint32_t, std::vector<SlotLocation>>;

  Status ScanFile();
  // Appends the CRC trailer (v2 files) of the record that starts at
  // `record_start` in `buf`.
  void SealRecord(std::vector<uint8_t>& buf, size_t record_start) const;
  // Writes `buf` at the append position (and fsyncs with sync_writes_).
  // Caller holds mu_; end_offset_ advances only on success.
  Status AppendLocked(const std::vector<uint8_t>& buf);

  const std::string path_;
  const size_t num_buckets_;
  const size_t slots_per_bucket_;
  const bool sync_writes_;

  mutable std::mutex mu_;
  // fd_, open_status_ and file_version_ are set by the constructor only, so
  // record framing may read file_version_ outside mu_.
  int fd_ = -1;
  Status open_status_;        // non-OK when the file could not be opened/scanned
  uint64_t end_offset_ = 0;   // append position (file size after tail repair)
  uint32_t file_version_ = 2;
  std::vector<VersionIndex> buckets_;
};

}  // namespace obladi

#endif  // OBLADI_SRC_STORAGE_FILE_BUCKET_STORE_H_
