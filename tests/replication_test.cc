// Replicated store tier: conformance at R in {1,2,3}, quorum semantics,
// automatic failover/demotion, and epoch-replay catch-up — all over memory
// stores so every replica's state can be inspected directly. The remote
// (wire) variant, including failover racing the circuit breaker's half-open
// probe, lives in net_test.cc.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/fault/faulty_store.h"
#include "src/net/replicated_store.h"
#include "src/storage/memory_store.h"
#include "tests/store_conformance.h"

namespace obladi {
namespace {

constexpr size_t kBuckets = 16;
constexpr size_t kSlots = 4;

std::vector<Bytes> Image(uint8_t fill) {
  return std::vector<Bytes>(kSlots, Bytes(16, fill));
}

std::vector<std::shared_ptr<BucketStore>> MemoryReplicas(uint32_t r) {
  std::vector<std::shared_ptr<BucketStore>> out;
  for (uint32_t i = 0; i < r; ++i) {
    out.push_back(std::make_shared<MemoryBucketStore>(kBuckets, kSlots));
  }
  return out;
}

// Parks a thread at a closed gate and reports it parked; shared by the
// wrappers below that hold one operation's wire phase open mid-flight.
class Gate {
 public:
  void Close() {
    std::lock_guard<std::mutex> lk(mu_);
    open_ = false;
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void AwaitParked() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return parked_ > 0; });
  }
  void Pass() {
    std::unique_lock<std::mutex> lk(mu_);
    parked_++;
    cv_.notify_all();
    cv_.wait(lk, [this] { return open_; });
    parked_--;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = true;
  int parked_ = 0;
};

// Delegating bucket store whose writes park at the gate: lets a test hold a
// replicated write's wire phase open while heal/observer paths run.
class GatedBucketStore : public BucketStore {
 public:
  explicit GatedBucketStore(std::shared_ptr<BucketStore> base) : base_(std::move(base)) {}
  Gate& gate() { return gate_; }

  StatusOr<Bytes> ReadSlot(BucketIndex bucket, uint32_t version, SlotIndex slot) override {
    return base_->ReadSlot(bucket, version, slot);
  }
  Status WriteBucket(BucketIndex bucket, uint32_t version, std::vector<Bytes> slots) override {
    gate_.Pass();
    return base_->WriteBucket(bucket, version, std::move(slots));
  }
  Status TruncateBucket(BucketIndex bucket, uint32_t keep_from_version) override {
    return base_->TruncateBucket(bucket, keep_from_version);
  }
  size_t num_buckets() const override { return base_->num_buckets(); }

 private:
  std::shared_ptr<BucketStore> base_;
  Gate gate_;
};

// Delegating log store whose appends park at the gate.
class GatedLogStore : public LogStore {
 public:
  explicit GatedLogStore(std::shared_ptr<LogStore> base) : base_(std::move(base)) {}
  Gate& gate() { return gate_; }

  StatusOr<uint64_t> Append(Bytes record) override {
    gate_.Pass();
    return base_->Append(std::move(record));
  }
  Status Sync() override { return base_->Sync(); }
  StatusOr<std::vector<Bytes>> ReadAll() override { return base_->ReadAll(); }
  Status Truncate(uint64_t upto_lsn) override { return base_->Truncate(upto_lsn); }
  uint64_t NextLsn() const override { return base_->NextLsn(); }

 private:
  std::shared_ptr<LogStore> base_;
  Gate gate_;
};

// Delegating bucket store that rejects every truncate with a semantic error
// — stands in for a replica with nothing truncatable (e.g. zero buckets),
// which a mutating reachability probe could never promote.
class TruncateRejectingStore : public BucketStore {
 public:
  explicit TruncateRejectingStore(std::shared_ptr<BucketStore> base)
      : base_(std::move(base)) {}

  StatusOr<Bytes> ReadSlot(BucketIndex bucket, uint32_t version, SlotIndex slot) override {
    return base_->ReadSlot(bucket, version, slot);
  }
  Status WriteBucket(BucketIndex bucket, uint32_t version, std::vector<Bytes> slots) override {
    return base_->WriteBucket(bucket, version, std::move(slots));
  }
  Status TruncateBucket(BucketIndex bucket, uint32_t keep_from_version) override {
    (void)bucket;
    (void)keep_from_version;
    return Status::InvalidArgument("store holds no truncatable state");
  }
  size_t num_buckets() const override { return base_->num_buckets(); }

 private:
  std::shared_ptr<BucketStore> base_;
};

std::vector<std::shared_ptr<LogStore>> MemoryLogReplicas(uint32_t r) {
  std::vector<std::shared_ptr<LogStore>> out;
  for (uint32_t i = 0; i < r; ++i) {
    out.push_back(std::make_shared<MemoryLogStore>());
  }
  return out;
}

// Delegating bucket store whose async forms complete on its own worker
// thread, the way a remote store's completions fire on the transport
// thread. Memory stores complete inline, so without this wrapper no
// replicated completion handler would ever race a demotion or a heal.
class ThreadedAsyncBucketStore : public BucketStore {
 public:
  explicit ThreadedAsyncBucketStore(std::shared_ptr<BucketStore> base)
      : base_(std::move(base)), worker_([this] { Run(); }) {}
  ThreadedAsyncBucketStore(const ThreadedAsyncBucketStore&) = delete;
  ThreadedAsyncBucketStore& operator=(const ThreadedAsyncBucketStore&) = delete;
  ~ThreadedAsyncBucketStore() override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }

  StatusOr<Bytes> ReadSlot(BucketIndex bucket, uint32_t version, SlotIndex slot) override {
    return base_->ReadSlot(bucket, version, slot);
  }
  std::vector<StatusOr<Bytes>> ReadSlotsBatch(const std::vector<SlotRef>& refs) override {
    return base_->ReadSlotsBatch(refs);
  }
  std::vector<StatusOr<PathXorResult>> ReadPathsXor(const std::vector<PathSlots>& paths,
                                                    uint32_t header_bytes,
                                                    uint32_t trailer_bytes) override {
    return base_->ReadPathsXor(paths, header_bytes, trailer_bytes);
  }
  Status WriteBucket(BucketIndex bucket, uint32_t version, std::vector<Bytes> slots) override {
    return base_->WriteBucket(bucket, version, std::move(slots));
  }
  Status WriteBucketsBatch(std::vector<BucketImage> images) override {
    return base_->WriteBucketsBatch(std::move(images));
  }
  Status TruncateBucket(BucketIndex bucket, uint32_t keep_from_version) override {
    return base_->TruncateBucket(bucket, keep_from_version);
  }
  Status TruncateBucketsBatch(const std::vector<TruncateRef>& refs) override {
    return base_->TruncateBucketsBatch(refs);
  }
  size_t num_buckets() const override { return base_->num_buckets(); }

  bool SupportsAsyncBatches() const override { return true; }
  void ReadSlotsBatchAsync(std::vector<SlotRef> refs, ReadSlotsDone done) override {
    Post([this, refs = std::move(refs), done = std::move(done)] {
      done(base_->ReadSlotsBatch(refs));
    });
  }
  void WriteBucketsBatchAsync(std::vector<BucketImage> images, WriteBucketsDone done) override {
    Post([this, images = std::move(images), done = std::move(done)]() mutable {
      done(base_->WriteBucketsBatch(std::move(images)));
    });
  }
  void ReadPathsXorAsync(std::vector<PathSlots> paths, uint32_t header_bytes,
                         uint32_t trailer_bytes, ReadPathsXorDone done) override {
    Post([this, paths = std::move(paths), header_bytes, trailer_bytes, done = std::move(done)] {
      done(base_->ReadPathsXor(paths, header_bytes, trailer_bytes));
    });
  }

 private:
  void Post(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      tasks_.push_back(std::move(task));
    }
    cv_.notify_all();
  }
  void Run() {
    std::unique_lock<std::mutex> lk(mu_);
    while (true) {
      cv_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        return;  // stopping, and every posted completion has fired
      }
      std::function<void()> task = std::move(tasks_.front());
      tasks_.pop_front();
      lk.unlock();
      task();
      lk.lock();
    }
  }

  std::shared_ptr<BucketStore> base_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
  std::thread worker_;  // last: starts once the queue above exists
};

// The replicated entry points that run through the shared read-failover
// and write fan-out paths.
enum class Entry {
  kReadSlot,
  kReadSlotsBatch,
  kReadSlotsBatchAsync,
  kReadPathsXor,
  kReadPathsXorAsync,
  kWriteBucketsBatch,
  kWriteBucketsBatchAsync,
};

const char* EntryName(Entry e) {
  switch (e) {
    case Entry::kReadSlot: return "ReadSlot";
    case Entry::kReadSlotsBatch: return "ReadSlotsBatch";
    case Entry::kReadSlotsBatchAsync: return "ReadSlotsBatchAsync";
    case Entry::kReadPathsXor: return "ReadPathsXor";
    case Entry::kReadPathsXorAsync: return "ReadPathsXorAsync";
    case Entry::kWriteBucketsBatch: return "WriteBucketsBatch";
    case Entry::kWriteBucketsBatchAsync: return "WriteBucketsBatchAsync";
  }
  return "?";
}

void PrintTo(Entry e, std::ostream* os) {
  *os << EntryName(e);
}

bool IsWrite(Entry e) {
  return e == Entry::kWriteBucketsBatch || e == Entry::kWriteBucketsBatchAsync;
}

// Submits an async operation and blocks until its completion fires (on
// whichever thread the store completes it).
template <typename Result, typename Submit>
Result Await(Submit submit) {
  auto promise = std::make_shared<std::promise<Result>>();
  std::future<Result> done = promise->get_future();
  submit([promise](Result r) { promise->set_value(std::move(r)); });
  return done.get();
}

// Collapses a one-element read answer to a status: the replica's error, or
// Internal when slot 0 does not start with `fill`.
template <typename Result, typename FirstByte>
Status CheckRead(std::vector<StatusOr<Result>> results, uint8_t fill, FirstByte first_byte) {
  if (results.size() != 1) {
    return Status::Internal("expected one result");
  }
  if (!results[0].ok()) {
    return results[0].status();
  }
  return first_byte(*results[0]) == fill ? Status::Ok() : Status::Internal("wrong data");
}

// Runs `entry` against (bucket, version): a read checks slot 0 holds
// `fill`; a write stores Image(fill) there.
Status Exercise(BucketStore& store, Entry entry, BucketIndex bucket, uint32_t version,
                uint8_t fill) {
  const std::vector<SlotRef> refs = {SlotRef{bucket, version, 0}};
  const std::vector<PathSlots> paths = {PathSlots{refs}};
  auto slot_byte = [](const Bytes& b) { return b.empty() ? -1 : b[0]; };
  auto xor_byte = [](const PathXorResult& r) { return r.headers.empty() ? -1 : r.headers[0]; };
  std::vector<BucketImage> images;
  images.push_back(BucketImage{bucket, version, Image(fill)});
  switch (entry) {
    case Entry::kReadSlot: {
      std::vector<StatusOr<Bytes>> one;
      one.push_back(store.ReadSlot(bucket, version, 0));
      return CheckRead(std::move(one), fill, slot_byte);
    }
    case Entry::kReadSlotsBatch:
      return CheckRead(store.ReadSlotsBatch(refs), fill, slot_byte);
    case Entry::kReadSlotsBatchAsync:
      return CheckRead(Await<std::vector<StatusOr<Bytes>>>([&](auto done) {
                         store.ReadSlotsBatchAsync(refs, std::move(done));
                       }),
                       fill, slot_byte);
    case Entry::kReadPathsXor:
      return CheckRead(store.ReadPathsXor(paths, 1, 0), fill, xor_byte);
    case Entry::kReadPathsXorAsync:
      return CheckRead(Await<std::vector<StatusOr<PathXorResult>>>([&](auto done) {
                         store.ReadPathsXorAsync(paths, 1, 0, std::move(done));
                       }),
                       fill, xor_byte);
    case Entry::kWriteBucketsBatch:
      return store.WriteBucketsBatch(std::move(images));
    case Entry::kWriteBucketsBatchAsync:
      return Await<Status>([&](auto done) {
        store.WriteBucketsBatchAsync(std::move(images), std::move(done));
      });
  }
  return Status::Internal("unknown entry");
}

// Each failover/fan-out scenario runs once per entry point, over replicas
// that complete async calls inline (memory stores) and over replicas that
// complete them on a worker thread.
class ReplicatedEntryTest : public ::testing::TestWithParam<std::tuple<Entry, bool>> {
 protected:
  Entry entry() const { return std::get<0>(GetParam()); }
  std::shared_ptr<BucketStore> Replica(std::shared_ptr<BucketStore> store) const {
    if (!std::get<1>(GetParam())) {
      return store;
    }
    return std::make_shared<ThreadedAsyncBucketStore>(std::move(store));
  }
};

std::string EntryCaseName(const ::testing::TestParamInfo<std::tuple<Entry, bool>>& info) {
  return std::string(EntryName(std::get<0>(info.param))) +
         (std::get<1>(info.param) ? "_ThreadedReplicas" : "_InlineReplicas");
}

INSTANTIATE_TEST_SUITE_P(
    AllEntries, ReplicatedEntryTest,
    ::testing::Combine(::testing::Values(Entry::kReadSlot, Entry::kReadSlotsBatch,
                                         Entry::kReadSlotsBatchAsync, Entry::kReadPathsXor,
                                         Entry::kReadPathsXorAsync, Entry::kWriteBucketsBatch,
                                         Entry::kWriteBucketsBatchAsync),
                       ::testing::Bool()),
    EntryCaseName);

TEST(ReplicatedBucketStoreConformance, SingleReplica) {
  ReplicatedBucketStore store(MemoryReplicas(1));
  RunBucketStoreConformance(store, kSlots);
}

TEST(ReplicatedBucketStoreConformance, TwoReplicasFullQuorum) {
  ReplicatedStoreOptions opts;
  opts.write_quorum = 2;
  ReplicatedBucketStore store(MemoryReplicas(2), opts);
  RunBucketStoreConformance(store, kSlots);
  // A healthy run demotes nobody: semantic errors (missing versions, bad
  // slots) must not shrink the replica set.
  ReplicationStats stats = store.replication_stats();
  EXPECT_EQ(stats.failovers, 0u);
  for (const ReplicaInfo& r : stats.replicas) {
    EXPECT_EQ(r.health, ReplicaHealth::kCurrent);
  }
}

TEST(ReplicatedBucketStoreConformance, ThreeReplicasMajorityQuorum) {
  ReplicatedStoreOptions opts;
  opts.write_quorum = 2;
  ReplicatedBucketStore store(MemoryReplicas(3), opts);
  RunBucketStoreConformance(store, kSlots);
}

// R=3 / quorum=2 with a hard-down minority replica: the suite must pass
// unchanged — the faulty replica is demoted on first contact and the
// majority carries every operation.
TEST(ReplicatedBucketStoreConformance, FaultyMinorityReplica) {
  auto replicas = MemoryReplicas(3);
  FaultPlan down;
  down.unavailable_every_n = 1;
  replicas[2] = std::make_shared<FaultyBucketStore>(replicas[2], down);
  ReplicatedStoreOptions opts;
  opts.write_quorum = 2;
  ReplicatedBucketStore store(replicas, opts);
  RunBucketStoreConformance(store, kSlots);
  ReplicationStats stats = store.replication_stats();
  EXPECT_EQ(stats.replicas[2].health, ReplicaHealth::kLagging);
  EXPECT_EQ(stats.replicas[0].health, ReplicaHealth::kCurrent);
  EXPECT_EQ(stats.replicas[1].health, ReplicaHealth::kCurrent);
}

TEST(ReplicatedLogStoreConformance, VariousReplicaCounts) {
  for (uint32_t r : {1u, 2u, 3u}) {
    SCOPED_TRACE(r);
    ReplicatedStoreOptions opts;
    opts.write_quorum = r;
    ReplicatedLogStore log(MemoryLogReplicas(r), opts);
    RunLogStoreConformance(log);
    ReplicationStats stats = log.replication_stats();
    for (const ReplicaInfo& info : stats.replicas) {
      EXPECT_EQ(info.health, ReplicaHealth::kCurrent);
    }
  }
}

// Failover: the primary starts failing retriably and the operation under
// test moves to the follower without surfacing an error — a read re-issues
// there, a write's fan-out reaches quorum there. Either way the primary is
// demoted, and epoch replay heals it back once it recovers.
TEST_P(ReplicatedEntryTest, ReadFailoverThenResync) {
  auto base0 = std::make_shared<MemoryBucketStore>(kBuckets, kSlots);
  auto base1 = std::make_shared<MemoryBucketStore>(kBuckets, kSlots);
  auto faulty0 = std::make_shared<FaultyBucketStore>(base0);
  ReplicatedStoreOptions opts;
  opts.write_quorum = 1;
  ReplicatedBucketStore store({Replica(faulty0), Replica(base1)}, opts);

  ASSERT_TRUE(store.WriteBucket(3, 7, Image(0xAB)).ok());
  EXPECT_EQ(store.PrimaryIndexForTest(), 0);

  FaultPlan down;
  down.unavailable_every_n = 1;
  faulty0->SetPlan(down);
  // Reads look up the acknowledged version; writes add the next one.
  const uint32_t version = IsWrite(entry()) ? 8 : 7;
  Status st = Exercise(store, entry(), 3, version, 0xAB);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(store.PrimaryIndexForTest(), 1);
  ReplicationStats stats = store.replication_stats();
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.replicas[0].health, ReplicaHealth::kLagging);

  // Writes while replica 0 is down accumulate its catch-up obligation.
  ASSERT_TRUE(store.WriteBucket(4, 9, Image(0xCD)).ok());
  ASSERT_TRUE(store.TruncateBucket(3, 7).ok());
  store.NoteEpochRetired(5);

  faulty0->SetPlan(FaultPlan{});
  ASSERT_TRUE(store.TryHealReplicas().ok());
  stats = store.replication_stats();
  EXPECT_EQ(stats.replicas[0].health, ReplicaHealth::kCurrent);
  EXPECT_GE(stats.resyncs, 1u);
  EXPECT_GE(stats.resync_epochs, 1u);

  // The healed replica holds exactly the live state (epoch replay, not op
  // shipping): the missed writes landed, direct from the base store.
  auto healed = base0->ReadSlot(4, 9, 0);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ((*healed)[0], 0xCD);
  healed = base0->ReadSlot(3, version, 0);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ((*healed)[0], 0xAB);
}

// At quorum 2, a write that reaches one replica fails the call (and demotes
// the broken replica) instead of acking below the caller's durability
// requirement. Reads never touch a follower, so the same outage leaves a
// read untouched and the follower current.
TEST_P(ReplicatedEntryTest, WriteQuorumNotReachedFails) {
  auto base0 = std::make_shared<MemoryBucketStore>(kBuckets, kSlots);
  auto base1 = std::make_shared<MemoryBucketStore>(kBuckets, kSlots);
  if (!IsWrite(entry())) {
    ASSERT_TRUE(base0->WriteBucket(0, 1, Image(0x11)).ok());
  }
  auto faulty1 = std::make_shared<FaultyBucketStore>(base1);
  FaultPlan down;
  down.unavailable_every_n = 1;
  faulty1->SetPlan(down);
  ReplicatedStoreOptions opts;
  opts.write_quorum = 2;
  ReplicatedBucketStore store({Replica(base0), Replica(faulty1)}, opts);

  Status st = Exercise(store, entry(), 0, 1, 0x11);
  ReplicationStats stats = store.replication_stats();
  if (IsWrite(entry())) {
    EXPECT_FALSE(st.ok());
    EXPECT_TRUE(IsReplicaRetryable(st)) << st.ToString();
    EXPECT_EQ(stats.replicas[1].health, ReplicaHealth::kLagging);
  } else {
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(stats.replicas[1].health, ReplicaHealth::kCurrent);
    EXPECT_EQ(faulty1->faults_injected(), 0u);
  }
  EXPECT_EQ(stats.failovers, 0u);  // the primary never moved

  // Quorum 1 over the same topology succeeds: the surviving replica acks.
  ReplicatedStoreOptions relaxed;
  relaxed.write_quorum = 1;
  ReplicatedBucketStore store1({Replica(base0), Replica(faulty1)}, relaxed);
  st = Exercise(store1, entry(), 0, 1, 0x11);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

// The last current replica is never demoted on the bucket tier — bucket
// state is idempotent, so it keeps serving and its own error reaches the
// caller unchanged.
TEST_P(ReplicatedEntryTest, LastReplicaKeepsServing) {
  auto base = std::make_shared<MemoryBucketStore>(kBuckets, kSlots);
  auto faulty = std::make_shared<FaultyBucketStore>(base);
  ReplicatedBucketStore store({Replica(faulty)});
  ASSERT_TRUE(store.WriteBucket(1, 1, Image(0x22)).ok());

  FaultPlan down;
  down.unavailable_every_n = 1;
  faulty->SetPlan(down);
  const uint32_t version = IsWrite(entry()) ? 2 : 1;
  Status st = Exercise(store, entry(), 1, version, 0x22);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(st.message(), "injected transient fault");
  EXPECT_EQ(store.PrimaryIndexForTest(), 0);
  ReplicationStats stats = store.replication_stats();
  EXPECT_EQ(stats.replicas[0].health, ReplicaHealth::kCurrent);
  EXPECT_EQ(stats.failovers, 0u);

  faulty->SetPlan(FaultPlan{});
  st = Exercise(store, entry(), 1, version, 0x22);
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto slot = store.ReadSlot(1, version, 0);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ((*slot)[0], 0x22);
}

// Delegating bucket store whose batch reads always fail retriably, running
// a hook first; its unary ReadSlot (the heal pass's reachability probe)
// still answers. With a hook that heals the peers, two of these model a
// replica set flapping under concurrent heal passes: every failover
// demotes one replica while the heal promotes the other back.
class FlappingBucketStore : public BucketStore {
 public:
  FlappingBucketStore(std::shared_ptr<BucketStore> base, std::string name)
      : base_(std::move(base)), name_(std::move(name)) {}
  void set_on_fail(std::function<void()> hook) { on_fail_ = std::move(hook); }
  int failures() const { return failures_.load(); }

  StatusOr<Bytes> ReadSlot(BucketIndex bucket, uint32_t version, SlotIndex slot) override {
    return base_->ReadSlot(bucket, version, slot);
  }
  std::vector<StatusOr<Bytes>> ReadSlotsBatch(const std::vector<SlotRef>& refs) override {
    return std::vector<StatusOr<Bytes>>(refs.size(), Fail());
  }
  std::vector<StatusOr<PathXorResult>> ReadPathsXor(const std::vector<PathSlots>& paths,
                                                    uint32_t header_bytes,
                                                    uint32_t trailer_bytes) override {
    (void)header_bytes;
    (void)trailer_bytes;
    return std::vector<StatusOr<PathXorResult>>(paths.size(), Fail());
  }
  Status WriteBucket(BucketIndex bucket, uint32_t version, std::vector<Bytes> slots) override {
    return base_->WriteBucket(bucket, version, std::move(slots));
  }
  Status TruncateBucket(BucketIndex bucket, uint32_t keep_from_version) override {
    return base_->TruncateBucket(bucket, keep_from_version);
  }
  size_t num_buckets() const override { return base_->num_buckets(); }

 private:
  Status Fail() {
    failures_++;
    on_fail_();
    return Status::Unavailable(name_ + " flapped");
  }

  std::shared_ptr<BucketStore> base_;
  std::string name_;
  std::function<void()> on_fail_;
  std::atomic<int> failures_{0};
};

using ExhaustedFailoverTest = ReplicatedEntryTest;

INSTANTIATE_TEST_SUITE_P(
    BatchReads, ExhaustedFailoverTest,
    ::testing::Combine(::testing::Values(Entry::kReadSlotsBatch, Entry::kReadSlotsBatchAsync,
                                         Entry::kReadPathsXor, Entry::kReadPathsXorAsync),
                       ::testing::Bool()),
    EntryCaseName);

// A read's retry budget is one attempt per replica plus one. When it runs
// out — every attempt failed retriably and a concurrent heal kept putting a
// replica back — the caller gets the last replica's own answer (sync and
// async alike), and that replica is demoted like any other failed primary.
TEST_P(ExhaustedFailoverTest, LastReplicaAnswerReturned) {
  auto flap0 = std::make_shared<FlappingBucketStore>(
      std::make_shared<MemoryBucketStore>(kBuckets, kSlots), "replica 0");
  auto flap1 = std::make_shared<FlappingBucketStore>(
      std::make_shared<MemoryBucketStore>(kBuckets, kSlots), "replica 1");
  ReplicatedBucketStore store({Replica(flap0), Replica(flap1)});
  auto heal = [&store] { (void)store.TryHealReplicas(); };
  flap0->set_on_fail(heal);
  flap1->set_on_fail(heal);

  Status st = Exercise(store, entry(), 0, 0, 0);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(st.message(), "replica 0 flapped");
  EXPECT_EQ(flap0->failures(), 2);
  EXPECT_EQ(flap1->failures(), 1);
  ReplicationStats stats = store.replication_stats();
  EXPECT_EQ(stats.failovers, 3u);
  EXPECT_EQ(stats.replicas[0].health, ReplicaHealth::kLagging);
  EXPECT_EQ(store.PrimaryIndexForTest(), 1);
}

// Lag accounting: a demoted replica's lag grows with each retired epoch and
// resync_epochs credits the replay that cleared it.
TEST(ReplicatedBucketStore, LagEpochsTrackRetirement) {
  auto base0 = std::make_shared<MemoryBucketStore>(kBuckets, kSlots);
  auto base1 = std::make_shared<MemoryBucketStore>(kBuckets, kSlots);
  auto faulty0 = std::make_shared<FaultyBucketStore>(base0);
  ReplicatedBucketStore store({faulty0, base1});
  store.NoteEpochRetired(10);

  FaultPlan down;
  down.unavailable_every_n = 1;
  faulty0->SetPlan(down);
  ASSERT_TRUE(store.ReadSlotsBatch({{0, 0, 0}}).size() == 1);  // demotes 0
  ASSERT_EQ(store.replication_stats().replicas[0].health, ReplicaHealth::kLagging);

  store.NoteEpochRetired(13);
  ReplicationStats stats = store.replication_stats();
  EXPECT_EQ(stats.replicas[0].lag_epochs, 3u);

  faulty0->SetPlan(FaultPlan{});
  ASSERT_TRUE(store.TryHealReplicas().ok());
  stats = store.replication_stats();
  EXPECT_EQ(stats.replicas[0].lag_epochs, 0u);
  EXPECT_GE(stats.resync_epochs, 3u);
}

// WAL ambiguous-append catch-up, case 1: the in-doubt record never landed.
// The NextLsn probe sees the replica exactly at the in-doubt LSN, clears the
// ambiguity, and replay reissues the record.
TEST(ReplicatedLogStore, AmbiguousAppendReplayed) {
  auto base0 = std::make_shared<MemoryLogStore>();
  auto base1 = std::make_shared<MemoryLogStore>();
  auto faulty1 = std::make_shared<FaultyLogStore>(base1);
  ReplicatedLogStore log({std::static_pointer_cast<LogStore>(base0), faulty1});

  FaultPlan down;
  down.unavailable_every_n = 1;
  faulty1->SetPlan(down);
  auto lsn = log.Append(BytesFromString("in-doubt"));
  ASSERT_TRUE(lsn.ok());  // quorum 1: the healthy replica acked
  EXPECT_EQ(*lsn, 0u);
  EXPECT_EQ(log.replication_stats().replicas[1].health, ReplicaHealth::kLagging);

  auto lsn2 = log.Append(BytesFromString("next"));
  ASSERT_TRUE(lsn2.ok());
  EXPECT_EQ(*lsn2, 1u);

  faulty1->SetPlan(FaultPlan{});
  ASSERT_TRUE(log.TryHealReplicas().ok());
  EXPECT_EQ(log.replication_stats().replicas[1].health, ReplicaHealth::kCurrent);
  auto replayed = base1->ReadAll();
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->size(), 2u);
  EXPECT_EQ(StringFromBytes((*replayed)[0]), "in-doubt");
  EXPECT_EQ(StringFromBytes((*replayed)[1]), "next");
}

// Case 2: the in-doubt record DID land (the failure hit the ack, not the
// write). The probe sees the replica past the in-doubt LSN and advances the
// cursor without re-appending — at-most-once is preserved.
TEST(ReplicatedLogStore, AmbiguousAppendNotDuplicated) {
  auto base0 = std::make_shared<MemoryLogStore>();
  auto base1 = std::make_shared<MemoryLogStore>();
  auto faulty1 = std::make_shared<FaultyLogStore>(base1);
  ReplicatedLogStore log({std::static_pointer_cast<LogStore>(base0), faulty1});

  FaultPlan down;
  down.unavailable_every_n = 1;
  faulty1->SetPlan(down);
  auto lsn = log.Append(BytesFromString("landed"));
  ASSERT_TRUE(lsn.ok());
  // Simulate "the record reached the replica but the ack was lost".
  ASSERT_TRUE(base1->Append(BytesFromString("landed")).ok());

  faulty1->SetPlan(FaultPlan{});
  ASSERT_TRUE(log.TryHealReplicas().ok());
  EXPECT_EQ(log.replication_stats().replicas[1].health, ReplicaHealth::kCurrent);
  auto records = base1->ReadAll();
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);  // probe prevented the duplicate
}

// A replica whose LSN sequence diverged from the acknowledged history (it
// lost data) is marked dead, never silently resynced.
TEST(ReplicatedLogStore, DivergentReplicaMarkedDead) {
  auto base0 = std::make_shared<MemoryLogStore>();
  auto base1 = std::make_shared<MemoryLogStore>();
  ReplicatedLogStore log(
      {std::static_pointer_cast<LogStore>(base0), std::static_pointer_cast<LogStore>(base1)});
  ASSERT_TRUE(log.Append(BytesFromString("rec0")).ok());

  // base1 grows a record the replicated log never assigned: its next LSN no
  // longer matches the acknowledged sequence.
  ASSERT_TRUE(base1->Append(BytesFromString("phantom")).ok());
  auto lsn = log.Append(BytesFromString("rec1"));
  ASSERT_TRUE(lsn.ok());  // quorum 1 via the consistent replica

  ReplicationStats stats = log.replication_stats();
  EXPECT_EQ(stats.replicas[1].health, ReplicaHealth::kDead);
  // Heal passes do not resurrect dead replicas.
  ASSERT_TRUE(log.TryHealReplicas().ok());
  EXPECT_EQ(log.replication_stats().replicas[1].health, ReplicaHealth::kDead);
}

// WAL byte cap: a lagging replica whose catch-up tail outgrows the op
// buffer's cap is marked dead and the buffer trimmed, instead of pinning it
// forever. The current replica keeps acking, and heal passes leave the dead
// replica out.
TEST(ReplicatedLogStore, LaggingReplicaPastByteCapMarkedDead) {
  constexpr size_t kCapBytes = 64ull << 20;  // the store's WAL catch-up cap
  constexpr size_t kRecordBytes = 1ull << 20;
  auto base0 = std::make_shared<MemoryLogStore>();
  auto base1 = std::make_shared<MemoryLogStore>();
  auto faulty1 = std::make_shared<FaultyLogStore>(base1);
  ReplicatedLogStore log({std::static_pointer_cast<LogStore>(base0), faulty1});

  FaultPlan down;
  down.unavailable_every_n = 1;
  faulty1->SetPlan(down);
  // Fill the buffer to exactly the cap. Replica 1 lags from its first
  // missed append on and pins every record; truncating after each append
  // keeps the healthy replica's own copy small.
  const Bytes record(kRecordBytes, 0x5A);
  for (size_t buffered = 0; buffered < kCapBytes; buffered += kRecordBytes) {
    auto lsn = log.Append(record);
    ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
    ASSERT_TRUE(log.Truncate(*lsn + 1).ok());
  }
  ReplicationStats stats = log.replication_stats();
  ASSERT_EQ(stats.replicas[1].health, ReplicaHealth::kLagging);
  EXPECT_EQ(log.BufferedBytesForTest(), kCapBytes);
  const uint64_t generation = stats.generation;

  // One more record crosses the cap.
  auto lsn = log.Append(record);
  ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
  stats = log.replication_stats();
  EXPECT_EQ(stats.replicas[1].health, ReplicaHealth::kDead);
  EXPECT_GT(stats.generation, generation);
  EXPECT_EQ(log.BufferedBytesForTest(), 0u);

  auto next = log.Append(BytesFromString("after"));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(*next, *lsn + 1);
  faulty1->SetPlan(FaultPlan{});
  ASSERT_TRUE(log.TryHealReplicas().ok());
  EXPECT_EQ(log.replication_stats().replicas[1].health, ReplicaHealth::kDead);
}

// Log read failover mirrors the bucket tier: ReadAll moves to a follower
// when the primary fails retriably.
TEST(ReplicatedLogStore, ReadAllFailsOver) {
  auto base0 = std::make_shared<MemoryLogStore>();
  auto base1 = std::make_shared<MemoryLogStore>();
  auto faulty0 = std::make_shared<FaultyLogStore>(base0);
  ReplicatedLogStore log({faulty0, std::static_pointer_cast<LogStore>(base1)});
  ASSERT_TRUE(log.Append(BytesFromString("rec0")).ok());
  ASSERT_TRUE(log.Sync().ok());

  FaultPlan down;
  down.unavailable_every_n = 1;
  faulty0->SetPlan(down);
  auto all = log.ReadAll();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->size(), 1u);
  EXPECT_EQ(StringFromBytes((*all)[0]), "rec0");
}

// Delegating log store whose ReadAll always fails retriably after running
// a hook: the WAL twin of FlappingBucketStore.
class FlappingLogStore : public LogStore {
 public:
  explicit FlappingLogStore(std::string name) : name_(std::move(name)) {}
  void set_on_fail(std::function<void()> hook) { on_fail_ = std::move(hook); }

  StatusOr<uint64_t> Append(Bytes record) override { return base_.Append(std::move(record)); }
  Status Sync() override { return base_.Sync(); }
  StatusOr<std::vector<Bytes>> ReadAll() override {
    on_fail_();
    return Status::Unavailable(name_ + " flapped");
  }
  Status Truncate(uint64_t upto_lsn) override { return base_.Truncate(upto_lsn); }
  uint64_t NextLsn() const override { return base_.NextLsn(); }

 private:
  MemoryLogStore base_;
  std::string name_;
  std::function<void()> on_fail_;
};

// ReadAll shares the bucket reads' retry budget and its exhausted answer:
// the last replica's own error, not a synthesized one.
TEST(ReplicatedLogStore, ExhaustedReadAllReturnsLastReplicaAnswer) {
  auto flap0 = std::make_shared<FlappingLogStore>("replica 0");
  auto flap1 = std::make_shared<FlappingLogStore>("replica 1");
  ReplicatedLogStore log({flap0, flap1});
  auto heal = [&log] { (void)log.TryHealReplicas(); };
  flap0->set_on_fail(heal);
  flap1->set_on_fail(heal);

  auto all = log.ReadAll();
  EXPECT_EQ(all.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(all.status().message(), "replica 0 flapped");
  ReplicationStats stats = log.replication_stats();
  EXPECT_EQ(stats.failovers, 3u);
  EXPECT_EQ(log.PrimaryIndexForTest(), 1);
}

// Generation bumps on every topology change so watchdog byte-sources can
// re-reference their baselines across demote/promote cycles.
TEST(ReplicatedBucketStore, GenerationTracksTopologyChanges) {
  auto base0 = std::make_shared<MemoryBucketStore>(kBuckets, kSlots);
  auto base1 = std::make_shared<MemoryBucketStore>(kBuckets, kSlots);
  auto faulty0 = std::make_shared<FaultyBucketStore>(base0);
  ReplicatedBucketStore store({faulty0, base1});
  const uint64_t g0 = store.replication_stats().generation;

  FaultPlan down;
  down.unavailable_every_n = 1;
  faulty0->SetPlan(down);
  (void)store.ReadSlot(0, 0, 0);
  const uint64_t g1 = store.replication_stats().generation;
  EXPECT_GT(g1, g0);

  faulty0->SetPlan(FaultPlan{});
  ASSERT_TRUE(store.TryHealReplicas().ok());
  EXPECT_GT(store.replication_stats().generation, g1);
}

// Regression (heal/write race): a heal pass overlapping a write's wire
// phase must not promote the healing replica past that write. Dirty marks
// land only after the replica stores have the data, so promotion has to
// wait out writes in flight — the failure mode was a promoted replica
// silently missing an acknowledged version (NotFound after the next
// failover).
TEST(ReplicatedBucketStore, HealDoesNotPromotePastInFlightWrite) {
  auto base0 = std::make_shared<MemoryBucketStore>(kBuckets, kSlots);
  auto base1 = std::make_shared<MemoryBucketStore>(kBuckets, kSlots);
  auto gated0 = std::make_shared<GatedBucketStore>(base0);
  auto faulty1 = std::make_shared<FaultyBucketStore>(base1);
  ReplicatedStoreOptions opts;
  opts.write_quorum = 1;
  ReplicatedBucketStore store({gated0, faulty1}, opts);

  ASSERT_TRUE(store.WriteBucket(2, 1, Image(0x01)).ok());

  // Replica 1 misses v2 of bucket 2 and is demoted with that bucket dirty.
  FaultPlan down;
  down.unavailable_every_n = 1;
  faulty1->SetPlan(down);
  ASSERT_TRUE(store.WriteBucket(2, 2, Image(0x02)).ok());
  faulty1->SetPlan(FaultPlan{});
  ASSERT_EQ(store.replication_stats().replicas[1].health, ReplicaHealth::kLagging);

  // Hold v3's wire phase open on the primary while a heal pass replays the
  // stale dirty set and reaches its promotion decision.
  gated0->gate().Close();
  std::thread writer([&] { EXPECT_TRUE(store.WriteBucket(2, 3, Image(0x03)).ok()); });
  gated0->gate().AwaitParked();
  std::thread healer([&] { EXPECT_TRUE(store.TryHealReplicas().ok()); });
  // Widen the race window; correctness must not depend on this sleep — the
  // in-flight write is registered before its wire phase starts, so the heal
  // pass can never observe a promotable state mid-write.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gated0->gate().Open();
  writer.join();
  healer.join();

  ReplicationStats stats = store.replication_stats();
  ASSERT_EQ(stats.replicas[1].health, ReplicaHealth::kCurrent);
  // The promoted replica must hold the acknowledged v3, whichever way the
  // interleaving resolved.
  auto healed = base1->ReadSlot(2, 3, 0);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ((*healed)[0], 0x03);
}

// Regression: the pre-promotion reachability probe is a READ. A mutating
// probe appended a truncate record to file-backed replicas on every
// promotion attempt and failed outright on a replica with no truncatable
// state, leaving it permanently lagging.
TEST(ReplicatedBucketStore, PromotionProbeIsARead) {
  auto base0 = std::make_shared<MemoryBucketStore>(kBuckets, kSlots);
  auto base1 = std::make_shared<MemoryBucketStore>(kBuckets, kSlots);
  auto reject0 = std::make_shared<TruncateRejectingStore>(base0);
  auto faulty0 = std::make_shared<FaultyBucketStore>(reject0);
  ReplicatedBucketStore store({faulty0, base1});

  // Demote the primary on a read failure: it lags with an EMPTY dirty set,
  // so heal goes straight to the reachability probe.
  FaultPlan down;
  down.unavailable_every_n = 1;
  faulty0->SetPlan(down);
  (void)store.ReadSlot(0, 0, 0);
  ASSERT_EQ(store.replication_stats().replicas[0].health, ReplicaHealth::kLagging);

  faulty0->SetPlan(FaultPlan{});
  // Nothing was ever written: the probe must also cope with a store holding
  // no live version (NotFound is still the replica speaking).
  ASSERT_TRUE(store.TryHealReplicas().ok());
  EXPECT_EQ(store.replication_stats().replicas[0].health, ReplicaHealth::kCurrent);
}

// Regression: the WAL's wire phase must not hold the bookkeeping lock —
// NextLsn() and replication_stats() answer while an append is stuck on a
// slow replica (previously they blocked for up to the transport deadline,
// hiding replica health exactly when it mattered). A hang here IS the
// failure: the test deadlocks against its timeout.
TEST(ReplicatedLogStore, ObserversNotBlockedByInFlightAppend) {
  auto base0 = std::make_shared<MemoryLogStore>();
  auto gated0 = std::make_shared<GatedLogStore>(base0);
  ReplicatedLogStore log({std::static_pointer_cast<LogStore>(gated0)});
  ASSERT_TRUE(log.Append(BytesFromString("first")).ok());

  gated0->gate().Close();
  std::thread appender([&] { EXPECT_TRUE(log.Append(BytesFromString("second")).ok()); });
  gated0->gate().AwaitParked();
  EXPECT_EQ(log.NextLsn(), 2u);  // the in-flight record's LSN is assigned
  ReplicationStats stats = log.replication_stats();
  ASSERT_EQ(stats.replicas.size(), 1u);
  EXPECT_EQ(stats.replicas[0].health, ReplicaHealth::kCurrent);
  gated0->gate().Open();
  appender.join();
  EXPECT_EQ(log.NextLsn(), 2u);
}

}  // namespace
}  // namespace obladi
