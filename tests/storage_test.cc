#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <thread>

#include "src/common/clock.h"
#include "src/common/crc32.h"
#include "src/shard/shard_store_view.h"
#include "src/storage/file_bucket_store.h"
#include "src/storage/file_log_store.h"
#include "src/storage/latency_store.h"
#include "src/storage/memory_store.h"
#include "tests/store_conformance.h"

namespace obladi {
namespace {

std::vector<Bytes> MakeBucket(size_t slots, uint8_t fill) {
  return std::vector<Bytes>(slots, Bytes(8, fill));
}

TEST(MemoryBucketStoreTest, WriteThenReadSlot) {
  MemoryBucketStore store(4, 3);
  ASSERT_TRUE(store.WriteBucket(1, 0, MakeBucket(3, 0xaa)).ok());
  auto slot = store.ReadSlot(1, 0, 2);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ((*slot)[0], 0xaa);
}

TEST(MemoryBucketStoreTest, VersionsAreShadowPaged) {
  MemoryBucketStore store(2, 2);
  ASSERT_TRUE(store.WriteBucket(0, 0, MakeBucket(2, 0x01)).ok());
  ASSERT_TRUE(store.WriteBucket(0, 1, MakeBucket(2, 0x02)).ok());
  // Both versions remain readable until truncation (recovery relies on this).
  EXPECT_EQ((*store.ReadSlot(0, 0, 0))[0], 0x01);
  EXPECT_EQ((*store.ReadSlot(0, 1, 0))[0], 0x02);
  ASSERT_TRUE(store.TruncateBucket(0, 1).ok());
  EXPECT_FALSE(store.ReadSlot(0, 0, 0).ok());
  EXPECT_TRUE(store.ReadSlot(0, 1, 0).ok());
}

TEST(MemoryBucketStoreTest, OverwritingAVersionReplacesIt) {
  MemoryBucketStore store(1, 1);
  ASSERT_TRUE(store.WriteBucket(0, 5, MakeBucket(1, 0x01)).ok());
  ASSERT_TRUE(store.WriteBucket(0, 5, MakeBucket(1, 0x09)).ok());
  EXPECT_EQ((*store.ReadSlot(0, 5, 0))[0], 0x09);
  EXPECT_EQ(store.TotalVersions(), 1u);
}

TEST(MemoryBucketStoreTest, RejectsOutOfRange) {
  MemoryBucketStore store(2, 2);
  EXPECT_FALSE(store.WriteBucket(7, 0, MakeBucket(2, 0)).ok());
  EXPECT_FALSE(store.ReadSlot(0, 0, 9).ok());
  EXPECT_FALSE(store.WriteBucket(0, 0, MakeBucket(3, 0)).ok());  // wrong slot count
}

TEST(MemoryBucketStoreTest, MissingVersionIsNotFound) {
  MemoryBucketStore store(1, 1);
  EXPECT_EQ(store.ReadSlot(0, 3, 0).status().code(), StatusCode::kNotFound);
}

TEST(DummyBucketStoreTest, ServesStaticValueAndIgnoresWrites) {
  DummyBucketStore store(8, 16);
  auto v = store.ReadSlot(3, 99, 7);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->size(), 16u);
  EXPECT_TRUE(store.WriteBucket(3, 0, {}).ok());
}

TEST(MemoryLogStoreTest, AppendReadTruncate) {
  MemoryLogStore log;
  auto l0 = log.Append(Bytes{1});
  auto l1 = log.Append(Bytes{2});
  auto l2 = log.Append(Bytes{3});
  ASSERT_TRUE(l0.ok() && l1.ok() && l2.ok());
  EXPECT_EQ(*l0, 0u);
  EXPECT_EQ(*l2, 2u);
  auto all = log.ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 3u);
  ASSERT_TRUE(log.Truncate(*l1).ok());
  all = log.ReadAll();
  EXPECT_EQ(all->size(), 2u);
  EXPECT_EQ((*all)[0], Bytes{2});
}

TEST(FileLogStoreTest, SurvivesReopen) {
  std::string path = testing::TempDir() + "/obladi_log_test.wal";
  std::remove(path.c_str());
  {
    FileLogStore log(path);
    ASSERT_TRUE(log.Append(BytesFromString("alpha")).ok());
    ASSERT_TRUE(log.Append(BytesFromString("beta")).ok());
    ASSERT_TRUE(log.Sync().ok());
  }
  {
    FileLogStore log(path);
    auto all = log.ReadAll();
    ASSERT_TRUE(all.ok());
    ASSERT_EQ(all->size(), 2u);
    EXPECT_EQ(StringFromBytes((*all)[1]), "beta");
    EXPECT_EQ(log.NextLsn(), 2u);
    // New appends continue the LSN sequence.
    auto lsn = log.Append(BytesFromString("gamma"));
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(*lsn, 2u);
  }
  std::remove(path.c_str());
}

TEST(FileLogStoreTest, TruncateDropsPrefix) {
  std::string path = testing::TempDir() + "/obladi_log_trunc.wal";
  std::remove(path.c_str());
  FileLogStore log(path);
  ASSERT_TRUE(log.Append(BytesFromString("a")).ok());
  auto keep = log.Append(BytesFromString("b"));
  ASSERT_TRUE(keep.ok());
  ASSERT_TRUE(log.Truncate(*keep).ok());
  auto all = log.ReadAll();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 1u);
  EXPECT_EQ(StringFromBytes((*all)[0]), "b");
  std::remove(path.c_str());
}

TEST(FileLogStoreTest, IgnoresTornTailRecord) {
  std::string path = testing::TempDir() + "/obladi_log_torn.wal";
  std::remove(path.c_str());
  {
    FileLogStore log(path);
    ASSERT_TRUE(log.Append(BytesFromString("whole")).ok());
    ASSERT_TRUE(log.Sync().ok());
  }
  {
    // Simulate a crash mid-append: write a header claiming more bytes than
    // are present.
    FILE* f = std::fopen(path.c_str(), "ab");
    uint8_t torn[12] = {9, 0, 0, 0, 0, 0, 0, 0, 200, 0, 0, 0};
    std::fwrite(torn, 1, sizeof(torn), f);
    std::fclose(f);
  }
  FileLogStore log(path);
  auto all = log.ReadAll();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 1u);
  EXPECT_EQ(StringFromBytes((*all)[0]), "whole");
  std::remove(path.c_str());
}

TEST(FileLogStoreTest, CorruptRecordFailsClosedNotTorn) {
  std::string path = testing::TempDir() + "/obladi_log_corrupt.wal";
  std::remove(path.c_str());
  {
    FileLogStore log(path);
    ASSERT_TRUE(log.Append(BytesFromString("whole")).ok());
    ASSERT_TRUE(log.Sync().ok());
  }
  {
    // Flip one payload byte of a complete record. Unlike a torn tail this
    // is corruption: the record frames correctly but its CRC cannot match.
    FILE* f = std::fopen(path.c_str(), "rb+");
    std::fseek(f, 8 + 12, SEEK_SET);  // file header + lsn/len framing
    uint8_t b = 0;
    ASSERT_EQ(std::fread(&b, 1, 1, f), 1u);
    b ^= 0xFF;
    std::fseek(f, 8 + 12, SEEK_SET);
    std::fwrite(&b, 1, 1, f);
    std::fclose(f);
  }
  FileLogStore log(path);
  auto all = log.ReadAll();
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(all.status().message().find("corrupted record"), std::string::npos)
      << all.status().ToString();
  std::remove(path.c_str());
}

// A store opened over a corrupt log refuses writes, not just reads: the
// scan could not establish next_lsn_, so an append would stack duplicate
// LSNs behind the corrupt region (and shadow the diagnostic for any caller
// that never reads). The file itself stays untouched for forensics.
TEST(FileLogStoreTest, CorruptLogRefusesAppendAndSync) {
  std::string path = testing::TempDir() + "/obladi_log_corrupt_latch.wal";
  std::remove(path.c_str());
  {
    FileLogStore log(path);
    ASSERT_TRUE(log.Append(BytesFromString("whole")).ok());
    ASSERT_TRUE(log.Sync().ok());
  }
  {
    FILE* f = std::fopen(path.c_str(), "rb+");
    std::fseek(f, 8 + 12, SEEK_SET);  // file header + lsn/len framing
    uint8_t b = 0;
    ASSERT_EQ(std::fread(&b, 1, 1, f), 1u);
    b ^= 0xFF;
    std::fseek(f, 8 + 12, SEEK_SET);
    std::fwrite(&b, 1, 1, f);
    std::fclose(f);
  }
  FileLogStore log(path);
  auto lsn = log.Append(BytesFromString("late"));
  ASSERT_FALSE(lsn.ok());
  EXPECT_EQ(lsn.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(log.Sync().code(), StatusCode::kDataLoss);
  // Nothing was written past the corruption: a reopen still fails closed
  // with the original diagnostic.
  FileLogStore again(path);
  EXPECT_EQ(again.ReadAll().status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(FileLogStoreTest, ReadsLegacyHeaderlessV1File) {
  std::string path = testing::TempDir() + "/obladi_log_v1.wal";
  std::remove(path.c_str());
  {
    // A v1 file has no magic header and no per-record CRC trailers:
    // u64 lsn | u32 len | payload.
    FILE* f = std::fopen(path.c_str(), "wb");
    uint8_t rec0[15] = {0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 'o', 'l', 'd'};
    uint8_t rec1[15] = {1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 't', 'w', 'o'};
    std::fwrite(rec0, 1, sizeof(rec0), f);
    std::fwrite(rec1, 1, sizeof(rec1), f);
    std::fclose(f);
  }
  {
    FileLogStore log(path);
    auto all = log.ReadAll();
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    ASSERT_EQ(all->size(), 2u);
    EXPECT_EQ(StringFromBytes((*all)[0]), "old");
    EXPECT_EQ(StringFromBytes((*all)[1]), "two");
    EXPECT_EQ(log.NextLsn(), 2u);
    // Appends keep working against the legacy format.
    ASSERT_TRUE(log.Append(BytesFromString("new")).ok());
    ASSERT_TRUE(log.Sync().ok());
  }
  FileLogStore reopened(path);
  auto all = reopened.ReadAll();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->size(), 3u);
  EXPECT_EQ(StringFromBytes((*all)[2]), "new");
  std::remove(path.c_str());
}

TEST(FileBucketStoreTest, CorruptRecordFailsClosedNotTorn) {
  std::string path = testing::TempDir() + "/obladi_fbs_corrupt.dat";
  std::remove(path.c_str());
  {
    FileBucketStore store(path, 8, 2);
    ASSERT_TRUE(store.WriteBucket(0, 0, MakeBucket(2, 0x77)).ok());
  }
  {
    // Flip a payload byte inside the (complete) write record: the frame
    // still parses, so only the CRC can catch it — and the store must
    // refuse to serve rather than return the flipped ciphertext.
    FILE* f = std::fopen(path.c_str(), "rb+");
    // file header (8) + type/bucket/version/slot_count (13) + slot len (4)
    std::fseek(f, 8 + 13 + 4, SEEK_SET);
    uint8_t b = 0;
    ASSERT_EQ(std::fread(&b, 1, 1, f), 1u);
    b ^= 0xFF;
    std::fseek(f, 8 + 13 + 4, SEEK_SET);
    std::fwrite(&b, 1, 1, f);
    std::fclose(f);
  }
  FileBucketStore store(path, 8, 2);
  auto slot = store.ReadSlot(0, 0, 0);
  ASSERT_FALSE(slot.ok());
  EXPECT_EQ(slot.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(slot.status().message().find("corrupted record"), std::string::npos)
      << slot.status().ToString();
  // Writes fail closed too: the store cannot know what state it holds.
  EXPECT_FALSE(store.WriteBucket(1, 0, MakeBucket(2, 0x10)).ok());
  std::remove(path.c_str());
}

TEST(FileBucketStoreTest, ReadsLegacyHeaderlessV1File) {
  std::string path = testing::TempDir() + "/obladi_fbs_v1.dat";
  std::remove(path.c_str());
  {
    // v1 write record, no CRC: u8 type=1 | u32 bucket | u32 version |
    // u32 slot_count | per slot (u32 len | bytes).
    FILE* f = std::fopen(path.c_str(), "wb");
    uint8_t head[13] = {1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0};
    std::fwrite(head, 1, sizeof(head), f);
    for (int s = 0; s < 2; ++s) {
      uint8_t slot[12] = {8, 0, 0, 0, 0x77, 0x77, 0x77, 0x77, 0x77, 0x77, 0x77, 0x77};
      std::fwrite(slot, 1, sizeof(slot), f);
    }
    std::fclose(f);
  }
  {
    FileBucketStore store(path, 8, 2);
    auto slot = store.ReadSlot(0, 0, 1);
    ASSERT_TRUE(slot.ok()) << slot.status().ToString();
    EXPECT_EQ((*slot)[0], 0x77);
    // New writes append in the legacy framing and survive a reopen.
    ASSERT_TRUE(store.WriteBucket(3, 5, MakeBucket(2, 0x42)).ok());
  }
  FileBucketStore reopened(path, 8, 2);
  EXPECT_EQ((*reopened.ReadSlot(0, 0, 0))[0], 0x77);
  EXPECT_EQ((*reopened.ReadSlot(3, 5, 1))[0], 0x42);
  std::remove(path.c_str());
}

TEST(StoreConformanceTest, FileBucketStore) {
  std::string path = testing::TempDir() + "/obladi_fbs_conf.dat";
  std::remove(path.c_str());
  FileBucketStore store(path, 16, 3);
  RunBucketStoreConformance(store, 3);
  std::remove(path.c_str());
}

TEST(FileBucketStoreTest, SurvivesReopen) {
  std::string path = testing::TempDir() + "/obladi_fbs_reopen.dat";
  std::remove(path.c_str());
  {
    FileBucketStore store(path, 8, 2);
    ASSERT_TRUE(store.WriteBucket(3, 1, MakeBucket(2, 0x5a)).ok());
    ASSERT_TRUE(store.WriteBucket(3, 2, MakeBucket(2, 0x5b)).ok());
    ASSERT_TRUE(store.WriteBucket(5, 1, MakeBucket(2, 0x5c)).ok());
    // GC'd versions must stay gone after reopen too.
    ASSERT_TRUE(store.TruncateBucket(3, 2).ok());
  }
  FileBucketStore store(path, 8, 2);
  EXPECT_FALSE(store.ReadSlot(3, 1, 0).ok());
  auto v2 = store.ReadSlot(3, 2, 1);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ((*v2)[0], 0x5b);
  auto other = store.ReadSlot(5, 1, 0);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ((*other)[0], 0x5c);
  EXPECT_EQ(store.TotalVersions(), 2u);
  std::remove(path.c_str());
}

TEST(FileBucketStoreTest, OverwritingAVersionIsAReplay) {
  // Recovery replays bucket writes at their original versions; the last
  // write of a version must win, across reopen as well.
  std::string path = testing::TempDir() + "/obladi_fbs_replay.dat";
  std::remove(path.c_str());
  FileBucketStore store(path, 8, 2);
  ASSERT_TRUE(store.WriteBucket(1, 4, MakeBucket(2, 0x01)).ok());
  ASSERT_TRUE(store.WriteBucket(1, 4, MakeBucket(2, 0x02)).ok());
  auto slot = store.ReadSlot(1, 4, 0);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ((*slot)[0], 0x02);
  FileBucketStore reopened(path, 8, 2);
  auto again = reopened.ReadSlot(1, 4, 0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)[0], 0x02);
  std::remove(path.c_str());
}

TEST(FileBucketStoreTest, IgnoresTornTailRecord) {
  std::string path = testing::TempDir() + "/obladi_fbs_torn.dat";
  std::remove(path.c_str());
  {
    FileBucketStore store(path, 8, 2);
    ASSERT_TRUE(store.WriteBucket(0, 0, MakeBucket(2, 0x77)).ok());
  }
  {
    // Simulate a crash mid-append: a write-record header promising more
    // slot bytes than exist.
    FILE* f = std::fopen(path.c_str(), "ab");
    uint8_t torn[17] = {1, 2, 0, 0, 0, 9, 0, 0, 0, 2, 0, 0, 0, 200, 0, 0, 0};
    std::fwrite(torn, 1, sizeof(torn), f);
    std::fclose(f);
  }
  FileBucketStore store(path, 8, 2);
  auto whole = store.ReadSlot(0, 0, 1);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ((*whole)[0], 0x77);
  EXPECT_FALSE(store.ReadSlot(2, 9, 0).ok());
  // The torn bytes were cut off: new writes append cleanly and survive
  // another reopen.
  ASSERT_TRUE(store.WriteBucket(2, 9, MakeBucket(2, 0x78)).ok());
  FileBucketStore reopened(path, 8, 2);
  auto after = reopened.ReadSlot(2, 9, 0);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ((*after)[0], 0x78);
  std::remove(path.c_str());
}

// --- FileBucketStore batched forms: one lock hold and one append per batch.

std::string FreshPath(const std::string& name) {
  std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::vector<uint8_t> FileContents(const std::string& path) {
  std::vector<uint8_t> data;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return data;
  }
  uint8_t buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.insert(data.end(), buf, buf + n);
  }
  std::fclose(f);
  return data;
}

TEST(FileBucketStoreTest, BatchedSequenceMatchesUnarySequence) {
  // The same mixed history of writes and truncates, issued once as batches
  // and once one call at a time, must reopen to the same index and bytes.
  const std::string batched_path = FreshPath("obladi_fbs_batched.dat");
  const std::string unary_path = FreshPath("obladi_fbs_unary.dat");
  auto image = [](BucketIndex b, uint32_t v) {
    return BucketImage{b, v, MakeBucket(2, static_cast<uint8_t>(16 * b + v))};
  };
  const std::vector<std::vector<BucketImage>> write_rounds = {
      {image(0, 0), image(1, 0), image(2, 0), image(3, 0)},
      {image(0, 1), image(2, 1), image(2, 2)},
      {image(1, 1), image(3, 1), image(3, 2)},
  };
  const std::vector<std::vector<TruncateRef>> truncate_rounds = {
      {{0, 1}, {1, 0}, {2, 5}, {3, 0}},  // mixes real drops and no-ops
      {{0, 1}, {2, 2}, {3, 1}},
      {{1, 1}, {3, 2}, {2, 2}},
  };
  {
    FileBucketStore batched(batched_path, 8, 2);
    FileBucketStore unary(unary_path, 8, 2);
    for (size_t round = 0; round < write_rounds.size(); ++round) {
      ASSERT_TRUE(batched.WriteBucketsBatch(write_rounds[round]).ok());
      ASSERT_TRUE(batched.TruncateBucketsBatch(truncate_rounds[round]).ok());
      for (const BucketImage& img : write_rounds[round]) {
        ASSERT_TRUE(unary.WriteBucket(img.bucket, img.version, img.slots).ok());
      }
      for (const TruncateRef& ref : truncate_rounds[round]) {
        ASSERT_TRUE(unary.TruncateBucket(ref.bucket, ref.keep_from_version).ok());
      }
    }
    EXPECT_EQ(batched.TotalVersions(), unary.TotalVersions());
  }
  FileBucketStore batched(batched_path, 8, 2);
  FileBucketStore unary(unary_path, 8, 2);
  EXPECT_EQ(batched.TotalVersions(), unary.TotalVersions());
  EXPECT_EQ(batched.TotalVersions(), 4u);
  // One append per batch, same records: the files are byte-identical.
  EXPECT_EQ(FileContents(batched_path), FileContents(unary_path));
  std::vector<SlotRef> refs;
  for (BucketIndex b = 0; b < 4; ++b) {
    for (uint32_t v = 0; v < 3; ++v) {
      for (SlotIndex s = 0; s < 2; ++s) {
        refs.push_back({b, v, s});
      }
    }
  }
  auto from_batched = batched.ReadSlotsBatch(refs);
  ASSERT_EQ(from_batched.size(), refs.size());
  for (size_t i = 0; i < refs.size(); ++i) {
    auto from_unary = unary.ReadSlot(refs[i].bucket, refs[i].version, refs[i].slot);
    ASSERT_EQ(from_batched[i].ok(), from_unary.ok()) << "ref " << i;
    if (from_unary.ok()) {
      EXPECT_EQ(*from_batched[i], *from_unary) << "ref " << i;
    } else {
      EXPECT_EQ(from_batched[i].status().code(), StatusCode::kNotFound);
    }
  }
  std::remove(batched_path.c_str());
  std::remove(unary_path.c_str());
}

TEST(FileBucketStoreTest, BatchedWritesKeepTheRecordFormat) {
  // Pin the on-disk bytes: header, then per record type | bucket | version |
  // slot count | (len | bytes)... | CRC32 of the record.
  const std::string path = FreshPath("obladi_fbs_format.dat");
  {
    FileBucketStore store(path, 8, 1);
    ASSERT_TRUE(store.WriteBucketsBatch({BucketImage{2, 7, {Bytes{0xab, 0xcd}}},
                                         BucketImage{5, 1, {Bytes{0x01}}}})
                    .ok());
    ASSERT_TRUE(store.TruncateBucketsBatch({{2, 8}, {5, 0}}).ok());  // second is a no-op
  }
  std::vector<uint8_t> want = {'O', 'B', 'K', 'T', 2, 0, 0, 0};
  auto record = [&](std::vector<uint8_t> body) {
    uint32_t crc = Crc32(body.data(), body.size());
    want.insert(want.end(), body.begin(), body.end());
    for (int i = 0; i < 4; ++i) {
      want.push_back(static_cast<uint8_t>(crc >> (8 * i)));
    }
  };
  record({1, 2, 0, 0, 0, 7, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0xab, 0xcd});
  record({1, 5, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0x01});
  record({2, 2, 0, 0, 0, 8, 0, 0, 0});
  EXPECT_EQ(FileContents(path), want);
  std::remove(path.c_str());
}

TEST(FileBucketStoreTest, NoOpTruncateBatchAppendsNothing) {
  const std::string path = FreshPath("obladi_fbs_noop_truncate.dat");
  FileBucketStore store(path, 8, 2);
  ASSERT_TRUE(store.WriteBucket(1, 3, MakeBucket(2, 0x31)).ok());
  ASSERT_TRUE(store.WriteBucket(4, 0, MakeBucket(2, 0x40)).ok());
  const uint64_t bytes = store.FileBytes();
  // Floors at or below every live version, and buckets never written.
  ASSERT_TRUE(store.TruncateBucketsBatch({{1, 3}, {1, 0}, {4, 0}, {0, 9}, {7, 2}}).ok());
  EXPECT_EQ(store.FileBytes(), bytes);
  EXPECT_EQ(store.TotalVersions(), 2u);
  ASSERT_TRUE(store.TruncateBucket(1, 2).ok());
  EXPECT_EQ(store.FileBytes(), bytes);
  // A real drop still logs, and survives reopen.
  ASSERT_TRUE(store.TruncateBucketsBatch({{1, 4}, {4, 0}}).ok());
  EXPECT_GT(store.FileBytes(), bytes);
  FileBucketStore reopened(path, 8, 2);
  EXPECT_EQ(reopened.TotalVersions(), 1u);
  EXPECT_EQ(reopened.ReadSlot(1, 3, 0).status().code(), StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST(FileBucketStoreTest, TornLastRecordOfABatchIsRepaired) {
  const std::string path = FreshPath("obladi_fbs_torn_batch.dat");
  uint64_t batch_start = 0;
  uint64_t batch_end = 0;
  {
    FileBucketStore store(path, 8, 2);
    ASSERT_TRUE(store.WriteBucket(6, 0, MakeBucket(2, 0x60)).ok());
    batch_start = store.FileBytes();
    ASSERT_TRUE(store.WriteBucketsBatch({BucketImage{0, 1, MakeBucket(2, 0x01)},
                                         BucketImage{1, 1, MakeBucket(2, 0x11)},
                                         BucketImage{2, 1, MakeBucket(2, 0x21)}})
                    .ok());
    batch_end = store.FileBytes();
  }
  // Every record of the batch is the same size; cut the last one mid-slot,
  // as a crash in the middle of the single append would.
  const uint64_t record = (batch_end - batch_start) / 3;
  const uint64_t last_start = batch_end - record;
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(last_start + record / 2)), 0);

  FileBucketStore store(path, 8, 2);
  EXPECT_EQ(store.FileBytes(), last_start);  // the torn record was cut off
  EXPECT_EQ((*store.ReadSlot(6, 0, 1))[0], 0x60);
  EXPECT_EQ((*store.ReadSlot(0, 1, 0))[0], 0x01);
  EXPECT_EQ((*store.ReadSlot(1, 1, 1))[0], 0x11);
  EXPECT_EQ(store.ReadSlot(2, 1, 0).status().code(), StatusCode::kNotFound);
  // Appends continue cleanly from the repaired tail.
  ASSERT_TRUE(store.WriteBucketsBatch({BucketImage{2, 1, MakeBucket(2, 0x22)}}).ok());
  FileBucketStore reopened(path, 8, 2);
  EXPECT_EQ(reopened.TotalVersions(), 4u);
  EXPECT_EQ((*reopened.ReadSlot(2, 1, 1))[0], 0x22);
  std::remove(path.c_str());
}

TEST(FileBucketStoreTest, BatchedAppendsToLegacyV1FileKeepV1Framing) {
  const std::string path = FreshPath("obladi_fbs_v1_batch.dat");
  {
    // One v1 write record (no header, no CRC): bucket 0, version 0, 2 slots.
    FILE* f = std::fopen(path.c_str(), "wb");
    uint8_t head[13] = {1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0};
    std::fwrite(head, 1, sizeof(head), f);
    for (int s = 0; s < 2; ++s) {
      uint8_t slot[12] = {8, 0, 0, 0, 0x77, 0x77, 0x77, 0x77, 0x77, 0x77, 0x77, 0x77};
      std::fwrite(slot, 1, sizeof(slot), f);
    }
    std::fclose(f);
  }
  {
    FileBucketStore store(path, 8, 2);
    ASSERT_EQ(store.FileFormatVersion(), 1u);
    const uint64_t before = store.FileBytes();
    ASSERT_TRUE(store.WriteBucketsBatch({BucketImage{0, 1, MakeBucket(2, 0x42)},
                                         BucketImage{3, 0, MakeBucket(2, 0x43)}})
                    .ok());
    // v1 write records carry no CRC trailer: 13 + 2 * (4 + 8) bytes each.
    EXPECT_EQ(store.FileBytes() - before, 2u * 37u);
    ASSERT_TRUE(store.TruncateBucketsBatch({{0, 1}, {3, 0}}).ok());
    EXPECT_EQ(store.FileBytes() - before, 2u * 37u + 9u);  // one 9-byte truncate
  }
  FileBucketStore reopened(path, 8, 2);
  EXPECT_EQ(reopened.FileFormatVersion(), 1u);
  EXPECT_EQ(reopened.TotalVersions(), 2u);
  EXPECT_EQ(reopened.ReadSlot(0, 0, 0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ((*reopened.ReadSlot(0, 1, 1))[0], 0x42);
  EXPECT_EQ((*reopened.ReadSlot(3, 0, 0))[0], 0x43);
  std::remove(path.c_str());
}

TEST(FileBucketStoreTest, InvalidEntryFailsTheWholeBatchUnwritten) {
  const std::string path = FreshPath("obladi_fbs_invalid_batch.dat");
  FileBucketStore store(path, 8, 2);
  ASSERT_TRUE(store.WriteBucket(1, 0, MakeBucket(2, 0x10)).ok());
  const uint64_t bytes = store.FileBytes();

  Status st = store.WriteBucketsBatch({BucketImage{2, 0, MakeBucket(2, 0x20)},
                                       BucketImage{8, 0, MakeBucket(2, 0x80)},
                                       BucketImage{3, 0, MakeBucket(2, 0x30)}});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  st = store.WriteBucketsBatch({BucketImage{2, 0, MakeBucket(2, 0x20)},
                                BucketImage{3, 0, MakeBucket(3, 0x30)}});  // wrong slot count
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  st = store.TruncateBucketsBatch({{1, 5}, {99, 0}});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(store.FileBytes(), bytes);
  EXPECT_EQ(store.TotalVersions(), 1u);
  EXPECT_EQ(store.ReadSlot(2, 0, 0).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(store.ReadSlot(1, 0, 0).ok());  // the truncate's valid ref did not run
  std::remove(path.c_str());
}

TEST(LatencyStoreTest, CountsRequestsAndBytes) {
  auto base = std::make_shared<MemoryBucketStore>(2, 2);
  LatencyBucketStore store(base, LatencyProfile::Dummy());
  ASSERT_TRUE(store.WriteBucket(0, 0, MakeBucket(2, 1)).ok());
  ASSERT_TRUE(store.ReadSlot(0, 0, 0).ok());
  EXPECT_EQ(store.stats().writes.load(), 1u);
  EXPECT_EQ(store.stats().reads.load(), 1u);
  EXPECT_EQ(store.stats().bytes_written.load(), 16u);
  EXPECT_EQ(store.stats().bytes_read.load(), 8u);
}

TEST(LatencyStoreTest, InjectsLatency) {
  auto base = std::make_shared<MemoryBucketStore>(1, 1);
  LatencyProfile profile;
  profile.read_latency_us = 2000;
  LatencyBucketStore store(base, profile);
  ASSERT_TRUE(base->WriteBucket(0, 0, MakeBucket(1, 1)).ok());
  uint64_t start = NowMicros();
  ASSERT_TRUE(store.ReadSlot(0, 0, 0).ok());
  EXPECT_GE(NowMicros() - start, 1800u);
}

TEST(LatencyStoreTest, ChargesWireBytes) {
  auto base = std::make_shared<MemoryBucketStore>(4, 2);
  LatencyBucketStore store(base, LatencyProfile::Dummy());
  ASSERT_TRUE(store.WriteBucket(0, 0, MakeBucket(2, 1)).ok());
  ASSERT_TRUE(store.ReadSlotsBatch({{0, 0, 0}, {0, 0, 1}})[0].ok());
  // Exact framing is a model; what matters is that requests charge the send
  // side and responses (payload included) charge the receive side.
  EXPECT_GT(store.stats().bytes_sent.load(), 0u);
  EXPECT_GT(store.stats().bytes_received.load(), 2 * 8u);
}

TEST(LatencyStoreTest, BandwidthCapSerializesTransfers) {
  auto base = std::make_shared<MemoryBucketStore>(4, 4);
  // 1 MB/s download pipe, zero latency: time is bandwidth-dominated. Two
  // concurrent ~32 KB downloads must serialize on the shared link (~64 ms
  // total), not overlap (~32 ms).
  LatencyProfile profile;
  profile.download_bandwidth_bytes_per_sec = 1'000'000;
  LatencyBucketStore store(base, profile);
  std::vector<Bytes> big(4, Bytes(8192, 0x5a));
  ASSERT_TRUE(base->WriteBucket(0, 0, big).ok());
  auto read_all = [&] {
    auto out = store.ReadSlotsBatch({{0, 0, 0}, {0, 0, 1}, {0, 0, 2}, {0, 0, 3}});
    for (const auto& r : out) {
      ASSERT_TRUE(r.ok());
    }
  };
  uint64_t start = NowMicros();
  std::thread other(read_all);
  read_all();
  other.join();
  uint64_t elapsed = NowMicros() - start;
  EXPECT_GE(elapsed, 55'000u) << "transfers overlapped on a serialized link";
}

TEST(LatencyLogStoreTest, FusedAppendSyncIsOneRoundTrip) {
  LatencyLogStore log(std::make_shared<MemoryLogStore>(), LatencyProfile::Dummy());
  ASSERT_TRUE(log.Append(BytesFromString("a")).ok());
  ASSERT_TRUE(log.Sync().ok());
  EXPECT_EQ(log.stats().round_trips.load(), 2u);
  ASSERT_TRUE(log.AppendSync(BytesFromString("b")).ok());
  EXPECT_EQ(log.stats().round_trips.load(), 3u);  // +1, not +2
}

TEST(LatencyProfileTest, NamedProfilesScale) {
  auto wan = LatencyProfile::WanServer(0.1);
  EXPECT_EQ(wan.read_latency_us, 1000u);
  auto dynamo = LatencyProfile::Dynamo(1.0);
  EXPECT_EQ(dynamo.read_latency_us, 1000u);
  EXPECT_EQ(dynamo.write_latency_us, 3000u);
  EXPECT_GT(dynamo.max_inflight, 0u);
  EXPECT_EQ(LatencyProfile::Dummy().read_latency_us, 0u);
}


// --- shared conformance suites (also run against the remote stores over a
// --- loopback StorageServer in net_test.cc) --------------------------------

TEST(StoreConformanceTest, MemoryBucketStore) {
  MemoryBucketStore store(16, 3);
  RunBucketStoreConformance(store, 3);
}

TEST(StoreConformanceTest, MemoryLogStore) {
  MemoryLogStore log;
  RunLogStoreConformance(log);
}

// The latency decorator must be semantically transparent (it only adds
// sleeps and accounting) — including the XOR path reads it models.
TEST(StoreConformanceTest, LatencyBucketStore) {
  auto base = std::make_shared<MemoryBucketStore>(16, 3);
  LatencyBucketStore store(base, LatencyProfile::Dummy());
  RunBucketStoreConformance(store, 3);
}

TEST(StoreConformanceTest, LatencyLogStore) {
  LatencyLogStore log(std::make_shared<MemoryLogStore>(), LatencyProfile::Dummy());
  RunLogStoreConformance(log);
}

// A shard's bucket-namespace window behaves exactly like a private store —
// XOR path reads translate their slot refs like every other batched form.
TEST(StoreConformanceTest, ShardStoreView) {
  auto base = std::make_shared<MemoryBucketStore>(24, 3);
  ShardStoreView view(base, /*offset=*/8, /*num_buckets=*/16);
  RunBucketStoreConformance(view, 3);
}

// Batched entry points of the memory store (the defaults loop over the
// unary forms; verify results stay in request order with per-entry errors).
TEST(MemoryBucketStoreTest, BatchedFormsPreserveOrderAndErrors) {
  MemoryBucketStore store(8, 2);
  std::vector<BucketImage> images;
  for (BucketIndex b = 0; b < 4; ++b) {
    images.push_back(BucketImage{b, 1, MakeBucket(2, static_cast<uint8_t>(b + 1))});
  }
  // One bad image in the middle fails the whole batch at that point.
  images.insert(images.begin() + 2, BucketImage{99, 1, MakeBucket(2, 0)});
  EXPECT_FALSE(store.WriteBucketsBatch(images).ok());
  images.erase(images.begin() + 2);
  ASSERT_TRUE(store.WriteBucketsBatch(images).ok());

  auto results = store.ReadSlotsBatch({{0, 1, 0}, {9, 1, 0}, {3, 1, 1}, {1, 7, 0}});
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ((*results[0])[0], 1);
  EXPECT_FALSE(results[1].ok());
  EXPECT_EQ((*results[2])[0], 4);
  EXPECT_EQ(results[3].status().code(), StatusCode::kNotFound);
}

TEST(MemoryLogStoreTest, TruncationEdgeCases) {
  MemoryLogStore log;
  // Truncating an empty log at any LSN is a no-op.
  ASSERT_TRUE(log.Truncate(0).ok());
  ASSERT_TRUE(log.Truncate(100).ok());
  EXPECT_EQ(log.NextLsn(), 0u);

  auto l0 = log.Append(Bytes{1});
  auto l1 = log.Append(Bytes{2});
  ASSERT_TRUE(l0.ok() && l1.ok());
  // Truncating beyond the end drops everything but never rewinds the LSN
  // counter (recovery depends on LSNs being unique forever).
  ASSERT_TRUE(log.Truncate(1000).ok());
  EXPECT_TRUE(log.ReadAll()->empty());
  auto l2 = log.Append(Bytes{3});
  ASSERT_TRUE(l2.ok());
  EXPECT_EQ(*l2, 2u);
}

}  // namespace
}  // namespace obladi
