// Sub-epoch scheduler + depth-D pipeline invariants:
//   * the scheduler reorders work only in time — the wire request multiset
//     per epoch is identical at pipeline depth 1 and depth 2,
//   * early answers deliver correct values before the batch drains,
//   * the explicit stash budget backpressures batch dispatch while a
//     retirement is in flight,
//   * a crash with two epochs retiring replays exactly those two epochs'
//     logged plans, oldest first,
//   * the trace-shape watchdog stays green while epochs overlap at depth 2.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <thread>
#include <tuple>

#include "src/proxy/obladi_store.h"
#include "src/storage/memory_store.h"
#include "tests/paced_proxy.h"

namespace obladi {
namespace {

struct SchedEnv {
  ObladiConfig config;
  std::shared_ptr<MemoryBucketStore> store;
  std::shared_ptr<MemoryLogStore> log;
  std::unique_ptr<ObladiStore> proxy;
};

SchedEnv MakeSchedEnv(size_t pipeline_depth, bool recovery, uint32_t shards = 1,
                      bool watchdog = false) {
  SchedEnv env;
  env.config = ObladiConfig::ForCapacity(128, /*z=*/4, /*payload=*/128);
  env.config.num_shards = shards;
  env.config.read_batches_per_epoch = 2;
  env.config.read_batch_size = 6 * shards;
  env.config.write_batch_size = 6 * shards;
  env.config.pipeline_depth = pipeline_depth;
  env.config.recovery.enabled = recovery;
  env.config.recovery.full_checkpoint_interval = 3;
  env.config.oram_options.io_threads = 4;
  env.config.obs.watchdog = watchdog;
  env.store = std::make_shared<MemoryBucketStore>(env.config.StoreBuckets(),
                                                  env.config.oram.slots_per_bucket());
  env.log = std::make_shared<MemoryLogStore>();
  env.proxy = std::make_unique<ObladiStore>(env.config, env.store, env.log);
  return env;
}

std::vector<std::pair<Key, std::string>> SimpleRecords(int n) {
  std::vector<std::pair<Key, std::string>> records;
  for (int i = 0; i < n; ++i) {
    records.emplace_back("key" + std::to_string(i), "value" + std::to_string(i));
  }
  return records;
}

// One read-only transaction, paced from the calling thread. Read-only so no
// commit waiter blocks on a retirement the test is deliberately holding.
void PacedReadAbort(ObladiStore& proxy, const Key& key) {
  ObladiStats before = proxy.stats();
  uint64_t admitted_before = before.oram_fetches + before.cache_hits + before.fetch_dedups;
  std::promise<void> done;
  std::thread client([&] {
    Timestamp t = proxy.Begin();
    auto v = proxy.Read(t, key);
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    proxy.Abort(t);
    done.set_value();
  });
  auto fut = done.get_future();
  // Deterministic batch assignment: wait until the read is admitted (or
  // served from the cache) before dispatching anything, so it always rides
  // the epoch's first batch — which batch a request lands in changes the
  // leaf-remap RNG draw order and therefore the (legitimately random) trace.
  while (fut.wait_for(std::chrono::milliseconds(1)) != std::future_status::ready) {
    ObladiStats now = proxy.stats();
    if (now.oram_fetches + now.cache_hits + now.fetch_dedups > admitted_before) {
      break;
    }
  }
  while (fut.wait_for(std::chrono::milliseconds(2)) != std::future_status::ready) {
    (void)proxy.StepReadBatch();
  }
  client.join();
}

// Run `epochs` one-read epochs at the given depth and return each epoch's
// physical-op multiset (sorted). Retirement is drained before each trace cut:
// a path level whose bucket is still in the retiring set is legitimately
// served from the in-flight buffer with no physical read (Lemma 2), and how
// long a bucket stays retiring depends on write-back timing — workload
// independent, but not run-to-run deterministic. Draining pins that variable
// so the cross-depth comparison is exact; the depth-2 machinery (BeginRetire
// -> retire FIFO -> collect) and the sub-epoch scheduler (early answers,
// eager evict dispatch) still run in full.
std::vector<std::vector<PhysicalOp>> EpochTraces(size_t depth, int epochs) {
  auto env = MakeSchedEnv(depth, /*recovery=*/false);
  env.config.oram_options.enable_trace = true;
  env.proxy = std::make_unique<ObladiStore>(env.config, env.store, env.log);
  EXPECT_TRUE(env.proxy->Load(SimpleRecords(40)).ok());
  env.proxy->oram()->trace().Clear();

  std::vector<std::vector<PhysicalOp>> out;
  auto op_key = [](const PhysicalOp& op) {
    return std::make_tuple(static_cast<int>(op.type), op.bucket, op.version, op.slot);
  };
  for (int e = 0; e < epochs; ++e) {
    PacedReadAbort(*env.proxy, "key" + std::to_string((e * 7) % 40));
    EXPECT_TRUE(env.proxy->CloseEpochNow().ok());
    EXPECT_TRUE(env.proxy->DrainRetirement().ok());
    auto ops = env.proxy->oram()->trace().Take();
    std::sort(ops.begin(), ops.end(),
              [&](const PhysicalOp& a, const PhysicalOp& b) { return op_key(a) < op_key(b); });
    out.push_back(std::move(ops));
  }
  return out;
}

TEST(SchedulerTest, WireRequestMultisetPerEpochIsDepthInvariant) {
  // Identical config, seed, and workload: the scheduler and the deeper
  // pipeline may reorder requests in time, but each epoch must put exactly
  // the same request multiset on the wire (the oblivious trace shape).
  const int kEpochs = 5;
  auto depth1 = EpochTraces(1, kEpochs);
  auto depth2 = EpochTraces(2, kEpochs);
  ASSERT_EQ(depth1.size(), depth2.size());
  for (int e = 0; e < kEpochs; ++e) {
    ASSERT_FALSE(depth1[e].empty()) << "epoch " << e << " recorded nothing";
    EXPECT_EQ(depth1[e].size(), depth2[e].size()) << "epoch " << e;
    EXPECT_TRUE(depth1[e] == depth2[e])
        << "epoch " << e << ": wire request multiset changed with pipeline depth";
  }
}

TEST(SchedulerTest, DepthZeroClampsToDepthOne) {
  auto env = MakeSchedEnv(/*pipeline_depth=*/0, /*recovery=*/false);
  EXPECT_EQ(env.proxy->config().pipeline_depth, 1u);
}

TEST(SchedulerTest, EarlyAnswersDeliverCorrectValues) {
  auto env = MakeSchedEnv(/*pipeline_depth=*/2, /*recovery=*/false);
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(40)).ok());

  // Several distinct reads share one batch; each is answered by the read
  // stage as soon as its path group decrypts, and each must see its own
  // committed value.
  constexpr int kReaders = 4;
  std::atomic<int> done{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&, i] {
      Timestamp t = env.proxy->Begin();
      auto v = env.proxy->Read(t, "key" + std::to_string(i));
      ASSERT_TRUE(v.ok()) << v.status().ToString();
      EXPECT_EQ(*v, "value" + std::to_string(i));
      env.proxy->Abort(t);
      done.fetch_add(1);
    });
  }
  while (done.load() < kReaders) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    (void)env.proxy->StepReadBatch();
  }
  for (auto& r : readers) {
    r.join();
  }
  ASSERT_TRUE(env.proxy->FinishEpochNow().ok());
  EXPECT_GE(env.proxy->stats().sched_overlapped_accesses,
            static_cast<uint64_t>(kReaders));
}

TEST(SchedulerTest, StashBudgetBackpressuresDispatch) {
  auto env = MakeSchedEnv(/*pipeline_depth=*/2, /*recovery=*/false);
  env.config.max_stash_blocks = 1;  // tiny: any retiring epoch exceeds it
  env.proxy = std::make_unique<ObladiStore>(env.config, env.store, env.log);
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(40)).ok());

  // Park the retirement after its write-back: the retiring generation keeps
  // its blocks in flight until the worker collects them.
  std::promise<void> release;
  std::shared_future<void> release_fut = release.get_future().share();
  std::atomic<int> hook_calls{0};
  env.proxy->SetRetireHookForTest([&] {
    if (hook_calls.fetch_add(1) == 0) {
      release_fut.wait();
    }
  });

  Timestamp t = env.proxy->Begin();
  ASSERT_TRUE(env.proxy->Write(t, "key1", "stash-filler").ok());
  // The decision arrives once retirement completes.
  auto decision = env.proxy->CommitAsync(t);
  ASSERT_TRUE(decision.ok()) << decision.status().ToString();
  ASSERT_TRUE(env.proxy->CloseEpochNow().ok());
  EXPECT_GT(env.proxy->oram()->InflightBlocks(), 1u)
      << "retiring epoch holds no blocks; the budget has nothing to bound";

  // Next epoch's dispatch must stall: in-flight blocks exceed the budget and
  // a retirement is in flight to shrink them.
  std::atomic<bool> read_done{false};
  std::thread reader([&] {
    Timestamp t = env.proxy->Begin();
    auto v = env.proxy->Read(t, "key2");
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    env.proxy->Abort(t);
    read_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::atomic<bool> step_done{false};
  std::thread dispatcher([&] {
    (void)env.proxy->StepReadBatch();
    step_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_FALSE(step_done.load()) << "dispatch ignored the stash budget";
  EXPECT_FALSE(read_done.load());

  release.set_value();
  dispatcher.join();
  reader.join();
  (void)decision->get();
  ASSERT_TRUE(env.proxy->FinishEpochNow().ok());

  ObladiStats stats = env.proxy->stats();
  EXPECT_GE(stats.stash_budget_stalls, 1u);
  EXPECT_GE(stats.stash_budget_stall_us, 1000u);
  EXPECT_TRUE(read_done.load());
}

TEST(SchedulerTest, CrashWithTwoRetiringEpochsReplaysBothInOrder) {
  // Depth 2: epochs N and N+1 both close and neither checkpoint lands
  // (the worker is parked on N). A crash here must recover to the last
  // durable epoch and replay exactly both unretired epochs' logged plans —
  // N's before N+1's.
  auto env = MakeSchedEnv(/*pipeline_depth=*/2, /*recovery=*/true);
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(40)).ok());
  CommitWrite(*env.proxy, "key1", "durable-A");

  std::promise<void> hook_entered;
  std::promise<void> release;
  std::shared_future<void> release_fut = release.get_future().share();
  std::atomic<int> hook_calls{0};
  env.proxy->SetRetireHookForTest([&] {
    if (hook_calls.fetch_add(1) == 0) {
      hook_entered.set_value();
      release_fut.wait();
    }
  });

  // Epoch N writes key1; its commit decision never arrives.
  Timestamp t1 = env.proxy->Begin();
  ASSERT_TRUE(env.proxy->Write(t1, "key1", "doomed-B").ok());
  auto w1_decision = env.proxy->CommitAsync(t1);
  ASSERT_TRUE(w1_decision.ok()) << w1_decision.status().ToString();
  ASSERT_TRUE(env.proxy->CloseEpochNow().ok());
  hook_entered.get_future().wait();  // N parked before its checkpoint append

  // Epoch N+1 writes key2 and closes too: at depth 2 the close takes the
  // second retirement slot instead of waiting for N.
  Timestamp t2 = env.proxy->Begin();
  ASSERT_TRUE(env.proxy->Write(t2, "key2", "doomed-C").ok());
  auto w2_decision = env.proxy->CommitAsync(t2);
  ASSERT_TRUE(w2_decision.ok()) << w2_decision.status().ToString();
  ASSERT_TRUE(env.proxy->CloseEpochNow().ok());

  std::thread crasher([&] { env.proxy->SimulateCrash(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // abandon flag set
  release.set_value();
  crasher.join();
  EXPECT_FALSE(w1_decision->get().ok()) << "epoch N's decision survived the crash";
  EXPECT_FALSE(w2_decision->get().ok()) << "epoch N+1's decision survived the crash";

  RecoveryBreakdown breakdown;
  ASSERT_TRUE(env.proxy->RecoverFromCrash(&breakdown).ok());
  // The replay window is exactly the two unretired epochs — all of N's and
  // N+1's batches, nothing older (durable) and nothing newer (never ran).
  EXPECT_EQ(breakdown.replayed_batches, 2 * env.config.read_batches_per_epoch);

  EXPECT_EQ(ReadCommitted(*env.proxy, "key1"), "durable-A");
  EXPECT_EQ(ReadCommitted(*env.proxy, "key2"), "value2");
  EXPECT_TRUE(env.proxy->oram()->CheckInvariants().ok());

  // The recovered proxy pipelines again at depth 2.
  CommitWrite(*env.proxy, "key2", "durable-C");
  env.proxy->SimulateCrash();
  ASSERT_TRUE(env.proxy->RecoverFromCrash().ok());
  EXPECT_EQ(ReadCommitted(*env.proxy, "key2"), "durable-C");
}

TEST(SchedulerTest, WatchdogStaysGreenWithOverlappingEpochsAtDepthTwo) {
  auto env = MakeSchedEnv(/*pipeline_depth=*/2, /*recovery=*/false, /*shards=*/2,
                          /*watchdog=*/true);
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(48)).ok());
  ASSERT_NE(env.proxy->watchdog(), nullptr);

  // Hold epoch 1's retirement while epoch 2 executes and closes: genuine
  // depth-2 overlap, observed by the watchdog at every close.
  std::promise<void> release;
  std::shared_future<void> release_fut = release.get_future().share();
  std::atomic<int> hook_calls{0};
  env.proxy->SetRetireHookForTest([&] {
    if (hook_calls.fetch_add(1) == 0) {
      release_fut.wait();
    }
  });

  PacedReadAbort(*env.proxy, "key3");
  ASSERT_TRUE(env.proxy->CloseEpochNow().ok());  // epoch 1 parked, retiring
  PacedReadAbort(*env.proxy, "key7");
  ASSERT_TRUE(env.proxy->CloseEpochNow().ok());  // closes inside epoch 1's retirement
  release.set_value();

  for (int e = 0; e < 4; ++e) {
    PacedReadAbort(*env.proxy, "key" + std::to_string(11 + 5 * e));
    ASSERT_TRUE(env.proxy->CloseEpochNow().ok());
  }
  ASSERT_TRUE(env.proxy->DrainRetirement().ok());

  // Every epoch kept the padded shape despite overlap, early answers, and
  // eager evict dispatch.
  EXPECT_EQ(env.proxy->watchdog()->violations(), 0u)
      << (env.proxy->watchdog()->recent_violations().empty()
              ? std::string("(no messages)")
              : env.proxy->watchdog()->recent_violations().back());
  EXPECT_GE(env.proxy->watchdog()->epochs_checked(), 6u);

  ObladiStats stats = env.proxy->stats();
  EXPECT_GE(stats.epochs_overlapped, 1u);
  EXPECT_GE(stats.sched_overlapped_accesses, 1u);
}

}  // namespace
}  // namespace obladi
