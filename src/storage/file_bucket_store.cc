#include "src/storage/file_bucket_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>

#include "src/common/crc32.h"

namespace obladi {

namespace {

constexpr uint8_t kRecordWrite = 1;
constexpr uint8_t kRecordTruncate = 2;

// Format v2 header: magic + version, then records each followed by a CRC32
// of the record bytes. Headerless files are v1 (the pre-checksum layout):
// their first byte is a record type (1 or 2), never 'O', so the formats are
// distinguishable and old files stay readable (and are appended to in v1
// framing, keeping one file internally consistent).
constexpr uint8_t kMagic[4] = {'O', 'B', 'K', 'T'};
constexpr uint32_t kFormatV2 = 2;
constexpr size_t kHeaderBytes = 8;
constexpr size_t kCrcBytes = 4;

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 24));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

FileBucketStore::FileBucketStore(std::string path, size_t num_buckets,
                                 size_t slots_per_bucket, bool sync_writes)
    : path_(std::move(path)),
      num_buckets_(num_buckets),
      slots_per_bucket_(slots_per_bucket),
      sync_writes_(sync_writes),
      buckets_(num_buckets) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    open_status_ = Status::Unavailable("cannot open bucket store file: " + path_);
    return;
  }
  open_status_ = ScanFile();
}

FileBucketStore::~FileBucketStore() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status FileBucketStore::ScanFile() {
  off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size < 0) {
    return Status::Unavailable("cannot stat bucket store file: " + path_);
  }
  std::vector<uint8_t> data(static_cast<size_t>(size));
  if (!data.empty()) {
    ssize_t got = ::pread(fd_, data.data(), data.size(), 0);
    if (got != static_cast<ssize_t>(data.size())) {
      return Status::Unavailable("short read scanning bucket store file: " + path_);
    }
  }
  size_t pos = 0;
  if (data.empty()) {
    // Fresh file: stamp the v2 header so every record it ever holds is
    // checksummed.
    file_version_ = kFormatV2;
    std::vector<uint8_t> header(kMagic, kMagic + 4);
    PutU32(header, kFormatV2);
    if (::pwrite(fd_, header.data(), header.size(), 0) !=
        static_cast<ssize_t>(header.size())) {
      return Status::Unavailable("cannot write header of " + path_);
    }
    end_offset_ = kHeaderBytes;
    return Status::Ok();
  }
  if (data.size() >= kHeaderBytes && std::memcmp(data.data(), kMagic, 4) == 0) {
    uint32_t version = GetU32(&data[4]);
    if (version != kFormatV2) {
      return Status::DataLoss("unsupported bucket store format version " +
                              std::to_string(version) + " in " + path_);
    }
    file_version_ = kFormatV2;
    pos = kHeaderBytes;
  } else {
    file_version_ = 1;  // legacy headerless file: records carry no CRC
  }
  const size_t trailer = file_version_ >= kFormatV2 ? kCrcBytes : 0;
  uint64_t good_end = pos;
  while (pos < data.size()) {
    const size_t start = pos;
    uint8_t type = data[pos++];
    if (type == kRecordWrite) {
      if (pos + 12 > data.size()) {
        break;  // torn tail
      }
      uint32_t bucket = GetU32(&data[pos]);
      uint32_t version = GetU32(&data[pos + 4]);
      uint32_t nslots = GetU32(&data[pos + 8]);
      pos += 12;
      if (bucket >= num_buckets_ || nslots != slots_per_bucket_) {
        return Status::DataLoss("corrupt bucket store record in " + path_);
      }
      std::vector<SlotLocation> slots;
      slots.reserve(nslots);
      bool torn = false;
      for (uint32_t s = 0; s < nslots; ++s) {
        if (pos + 4 > data.size()) {
          torn = true;
          break;
        }
        uint32_t len = GetU32(&data[pos]);
        pos += 4;
        if (pos + len > data.size()) {
          torn = true;
          break;
        }
        slots.push_back({static_cast<uint64_t>(pos), len});
        pos += len;
      }
      if (!torn && pos + trailer > data.size()) {
        torn = true;
      }
      if (torn) {
        pos = start;
        break;
      }
      if (trailer > 0) {
        uint32_t want = GetU32(&data[pos]);
        uint32_t got = Crc32(&data[start], pos - start);
        pos += kCrcBytes;
        if (want != got) {
          // Every byte of the record is present but the checksum disagrees:
          // this is corruption, not a crash-torn append — refuse the store.
          return Status::DataLoss(
              "bucket store record CRC mismatch at offset " + std::to_string(start) +
              " in " + path_ + " (corrupted record, not a torn tail)");
        }
      }
      buckets_[bucket][version] = std::move(slots);
      good_end = pos;
    } else if (type == kRecordTruncate) {
      if (pos + 8 + trailer > data.size()) {
        break;  // torn tail
      }
      uint32_t bucket = GetU32(&data[pos]);
      uint32_t keep_from = GetU32(&data[pos + 4]);
      pos += 8;
      if (trailer > 0) {
        uint32_t want = GetU32(&data[pos]);
        uint32_t got = Crc32(&data[start], pos - start);
        pos += kCrcBytes;
        if (want != got) {
          return Status::DataLoss(
              "bucket store record CRC mismatch at offset " + std::to_string(start) +
              " in " + path_ + " (corrupted record, not a torn tail)");
        }
      }
      if (bucket >= num_buckets_) {
        return Status::DataLoss("corrupt bucket store record in " + path_);
      }
      VersionIndex& versions = buckets_[bucket];
      versions.erase(versions.begin(), versions.lower_bound(keep_from));
      good_end = pos;
    } else {
      return Status::DataLoss("unknown bucket store record type in " + path_);
    }
  }
  // Cut off a torn tail so future appends cannot leave stale bytes that a
  // later scan would misparse.
  if (good_end < data.size() && ::ftruncate(fd_, static_cast<off_t>(good_end)) != 0) {
    return Status::Unavailable("cannot repair torn tail of " + path_);
  }
  end_offset_ = good_end;
  return Status::Ok();
}

void FileBucketStore::SealRecord(std::vector<uint8_t>& buf, size_t record_start) const {
  if (file_version_ >= kFormatV2) {
    PutU32(buf, Crc32(&buf[record_start], buf.size() - record_start));
  }
}

Status FileBucketStore::AppendLocked(const std::vector<uint8_t>& buf) {
  ssize_t put = ::pwrite(fd_, buf.data(), buf.size(), static_cast<off_t>(end_offset_));
  if (put != static_cast<ssize_t>(buf.size())) {
    return Status::Unavailable("short write to bucket store file: " + path_);
  }
  if (sync_writes_ && ::fsync(fd_) != 0) {
    return Status::Unavailable("fsync failed on bucket store file: " + path_);
  }
  end_offset_ += buf.size();
  return Status::Ok();
}

StatusOr<Bytes> FileBucketStore::ReadSlot(BucketIndex bucket, uint32_t version,
                                          SlotIndex slot) {
  return std::move(ReadSlotsBatch({SlotRef{bucket, version, slot}}).front());
}

Status FileBucketStore::WriteBucket(BucketIndex bucket, uint32_t version,
                                    std::vector<Bytes> slots) {
  std::vector<BucketImage> images(1);
  images[0] = BucketImage{bucket, version, std::move(slots)};
  return WriteBucketsBatch(std::move(images));
}

Status FileBucketStore::TruncateBucket(BucketIndex bucket, uint32_t keep_from_version) {
  return TruncateBucketsBatch({TruncateRef{bucket, keep_from_version}});
}

std::vector<StatusOr<Bytes>> FileBucketStore::ReadSlotsBatch(const std::vector<SlotRef>& refs) {
  // Resolve every location under one index-lock hold; an entry that cannot
  // be served keeps its own error.
  std::vector<Status> errors(refs.size());
  std::vector<SlotLocation> locations(refs.size());
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (size_t i = 0; i < refs.size(); ++i) {
      const SlotRef& ref = refs[i];
      if (ref.bucket >= num_buckets_ || ref.slot >= slots_per_bucket_) {
        errors[i] = Status::InvalidArgument("slot address out of range");
        continue;
      }
      if (!open_status_.ok()) {
        errors[i] = open_status_;
        continue;
      }
      const VersionIndex& versions = buckets_[ref.bucket];
      auto it = versions.find(ref.version);
      if (it == versions.end()) {
        errors[i] = Status::NotFound("bucket version not present");
        continue;
      }
      locations[i] = it->second[ref.slot];
    }
  }
  // pread is position-independent and thread-safe, and indexed bytes are
  // never rewritten: the actual I/O runs outside the index lock.
  std::vector<StatusOr<Bytes>> out;
  out.reserve(refs.size());
  for (size_t i = 0; i < refs.size(); ++i) {
    if (!errors[i].ok()) {
      out.push_back(std::move(errors[i]));
      continue;
    }
    Bytes slot(locations[i].length);
    if (!slot.empty() &&
        ::pread(fd_, slot.data(), slot.size(), static_cast<off_t>(locations[i].offset)) !=
            static_cast<ssize_t>(slot.size())) {
      out.push_back(Status::DataLoss("short read from bucket store file: " + path_));
      continue;
    }
    out.push_back(std::move(slot));
  }
  return out;
}

Status FileBucketStore::WriteBucketsBatch(std::vector<BucketImage> images) {
  size_t total = 0;
  for (const BucketImage& image : images) {
    if (image.bucket >= num_buckets_) {
      return Status::InvalidArgument("bucket out of range");
    }
    if (image.slots.size() != slots_per_bucket_) {
      return Status::InvalidArgument("bucket image has wrong slot count");
    }
    total += 13 + kCrcBytes;
    for (const Bytes& s : image.slots) {
      total += 4 + s.size();
    }
  }
  if (images.empty()) {
    return Status::Ok();
  }
  // Frame and checksum every record outside the lock; slot offsets are
  // relative to the start of the batch until the append position is known.
  std::vector<uint8_t> buf;
  buf.reserve(total);
  std::vector<std::vector<SlotLocation>> locations(images.size());
  for (size_t i = 0; i < images.size(); ++i) {
    const BucketImage& image = images[i];
    const size_t start = buf.size();
    buf.push_back(kRecordWrite);
    PutU32(buf, image.bucket);
    PutU32(buf, image.version);
    PutU32(buf, static_cast<uint32_t>(image.slots.size()));
    locations[i].reserve(image.slots.size());
    for (const Bytes& s : image.slots) {
      PutU32(buf, static_cast<uint32_t>(s.size()));
      locations[i].push_back({buf.size(), static_cast<uint32_t>(s.size())});
      buf.insert(buf.end(), s.begin(), s.end());
    }
    SealRecord(buf, start);
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (!open_status_.ok()) {
    return open_status_;
  }
  const uint64_t base = end_offset_;
  OBLADI_RETURN_IF_ERROR(AppendLocked(buf));
  for (size_t i = 0; i < images.size(); ++i) {
    for (SlotLocation& loc : locations[i]) {
      loc.offset += base;
    }
    // Overwrite = replay; within a batch the later image wins, as on reopen.
    buckets_[images[i].bucket][images[i].version] = std::move(locations[i]);
  }
  return Status::Ok();
}

Status FileBucketStore::TruncateBucketsBatch(const std::vector<TruncateRef>& refs) {
  for (const TruncateRef& ref : refs) {
    if (ref.bucket >= num_buckets_) {
      return Status::InvalidArgument("bucket out of range");
    }
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (!open_status_.ok()) {
    return open_status_;
  }
  // Log only truncates that drop a version. Skipping the rest is exact: the
  // index is the replay of the file so far, so at this point of a reopen
  // scan a skipped record would have dropped nothing either.
  std::vector<uint8_t> buf;
  std::vector<const TruncateRef*> logged;
  for (const TruncateRef& ref : refs) {
    const VersionIndex& versions = buckets_[ref.bucket];
    if (versions.empty() || versions.begin()->first >= ref.keep_from_version) {
      continue;
    }
    const size_t start = buf.size();
    buf.push_back(kRecordTruncate);
    PutU32(buf, ref.bucket);
    PutU32(buf, ref.keep_from_version);
    SealRecord(buf, start);
    logged.push_back(&ref);
  }
  if (logged.empty()) {
    return Status::Ok();
  }
  OBLADI_RETURN_IF_ERROR(AppendLocked(buf));
  for (const TruncateRef* ref : logged) {
    VersionIndex& versions = buckets_[ref->bucket];
    versions.erase(versions.begin(), versions.lower_bound(ref->keep_from_version));
  }
  return Status::Ok();
}

size_t FileBucketStore::TotalVersions() const {
  std::lock_guard<std::mutex> lk(mu_);
  size_t total = 0;
  for (const VersionIndex& versions : buckets_) {
    total += versions.size();
  }
  return total;
}

uint64_t FileBucketStore::FileBytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return end_offset_;
}

uint32_t FileBucketStore::FileFormatVersion() const {
  std::lock_guard<std::mutex> lk(mu_);
  return file_version_;
}

}  // namespace obladi
