// Coverage test for the benchmark's timing decorators. The per-layer ledger
// is only as complete as the decorators: a storage entry point they did not
// override would fall back to BucketStore's default (a loop over unary
// calls), silently changing the round trips being measured and dropping the
// time from the ledger. So every entry point the ORAM and the recovery unit
// use must be forwarded to the same entry point below, counted, and traced.
//
// Method: run the shared store conformance suites through two stacked
// decorators over the memory stores. The outer decorator's per-entry-point
// counts must equal the inner one's (each call arrived at the same entry
// point one layer down), every entry point must have been exercised, and
// every counted call must have produced exactly one span.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include "bench/e2e/timed_store.h"
#include "src/storage/latency_store.h"
#include "src/storage/memory_store.h"
#include "tests/store_conformance.h"

namespace obladi::e2e {
namespace {

constexpr size_t kSlotsPerBucket = 4;

size_t CountSpans(const char* prefix) {
  size_t n = 0;
  for (const ObsEvent& ev : Tracer::Get().Collect()) {
    if (ev.kind == ObsEvent::Kind::kSpan && std::strcmp(ev.category, kBenchCategory) == 0 &&
        std::strncmp(ev.name, prefix, std::strlen(prefix)) == 0) {
      ++n;
    }
  }
  return n;
}

class TracerArmed : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Get().Enable(1u << 14);
    Tracer::Get().Clear();
  }
  void TearDown() override { Tracer::Get().Disable(); }
};

TEST_F(TracerArmed, BucketStoreForwardsCountsAndTracesEveryEntryPoint) {
  auto memory = std::make_shared<MemoryBucketStore>(16, kSlotsPerBucket);
  auto inner = std::make_shared<TimedBucketStore>(memory, kStorageSpans);
  TimedBucketStore outer(inner, kNetSpans);

  RunBucketStoreConformance(outer, kSlotsPerBucket);

  uint64_t total = 0;
  for (size_t i = 0; i < static_cast<size_t>(BucketOp::kCount); ++i) {
    const auto op = static_cast<BucketOp>(i);
    EXPECT_GT(outer.calls(op), 0u) << "entry point " << i << " never exercised";
    EXPECT_EQ(outer.calls(op), inner->calls(op)) << "entry point " << i << " not forwarded as-is";
    total += outer.calls(op);
  }
  EXPECT_EQ(CountSpans("net."), total);
  EXPECT_EQ(CountSpans("storage."), total);
}

TEST_F(TracerArmed, LogStoreForwardsCountsAndTracesEveryEntryPoint) {
  auto memory = std::make_shared<MemoryLogStore>();
  auto inner = std::make_shared<TimedLogStore>(memory, kStorageSpans);
  TimedLogStore outer(inner, kNetSpans);

  RunLogStoreConformance(outer);

  uint64_t total = 0;
  for (size_t i = 0; i < static_cast<size_t>(LogOp::kCount); ++i) {
    const auto op = static_cast<LogOp>(i);
    EXPECT_GT(outer.calls(op), 0u) << "entry point " << i << " never exercised";
    EXPECT_EQ(outer.calls(op), inner->calls(op)) << "entry point " << i << " not forwarded as-is";
    total += outer.calls(op);
  }
  EXPECT_EQ(CountSpans("net."), total);
  EXPECT_EQ(CountSpans("storage."), total);
}

// A store that answers the capability and bookkeeping hooks the way a remote
// or replicated store does, so pass-through is observable.
class HookedBucketStore : public MemoryBucketStore {
 public:
  HookedBucketStore() : MemoryBucketStore(8, kSlotsPerBucket) {}
  bool SupportsAsyncBatches() const override { return true; }
  NetworkStats* network_stats() override { return &stats; }
  ReplicationStats replication_stats() override {
    ReplicationStats rs;
    rs.generation = 7;
    return rs;
  }
  void NoteEpochRetired(EpochId epoch) override { last_retired = epoch; }
  Status TryHealReplicas() override { return Status::Unavailable("healing"); }

  NetworkStats stats;
  EpochId last_retired = 0;
};

class HookedLogStore : public MemoryLogStore {
 public:
  NetworkStats* network_stats() override { return &stats; }
  ReplicationStats replication_stats() override {
    ReplicationStats rs;
    rs.generation = 9;
    return rs;
  }
  void NoteEpochRetired(EpochId epoch) override { last_retired = epoch; }
  Status TryHealReplicas() override { return Status::Unavailable("healing"); }

  NetworkStats stats;
  EpochId last_retired = 0;
};

TEST(TimedStores, CapabilitiesAndHooksPassThrough) {
  auto plain = std::make_shared<MemoryBucketStore>(8, kSlotsPerBucket);
  EXPECT_FALSE(TimedBucketStore(plain, kNetSpans).SupportsAsyncBatches());
  EXPECT_EQ(TimedBucketStore(plain, kNetSpans).network_stats(), nullptr);

  auto hooked = std::make_shared<HookedBucketStore>();
  TimedBucketStore buckets(hooked, kNetSpans);
  EXPECT_TRUE(buckets.SupportsAsyncBatches());
  EXPECT_EQ(buckets.network_stats(), &hooked->stats);
  EXPECT_EQ(buckets.num_buckets(), hooked->num_buckets());
  EXPECT_EQ(buckets.replication_stats().generation, 7u);
  buckets.NoteEpochRetired(42);
  EXPECT_EQ(hooked->last_retired, 42u);
  EXPECT_EQ(buckets.TryHealReplicas().code(), StatusCode::kUnavailable);

  auto hooked_log = std::make_shared<HookedLogStore>();
  TimedLogStore log(hooked_log, kNetSpans);
  EXPECT_EQ(log.network_stats(), &hooked_log->stats);
  EXPECT_EQ(log.replication_stats().generation, 9u);
  log.NoteEpochRetired(5);
  EXPECT_EQ(hooked_log->last_retired, 5u);
  EXPECT_EQ(log.TryHealReplicas().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace obladi::e2e
