#include <gtest/gtest.h>

#include <thread>

#include "src/proxy/obladi_store.h"
#include "src/storage/memory_store.h"
#include "tests/paced_proxy.h"

namespace obladi {
namespace {

struct RecoveryEnv {
  ObladiConfig config;
  std::shared_ptr<MemoryBucketStore> store;
  std::shared_ptr<MemoryLogStore> log;
  std::unique_ptr<ObladiStore> proxy;
};

RecoveryEnv MakeEnv(uint64_t capacity = 128) {
  RecoveryEnv env;
  env.config = ObladiConfig::ForCapacity(capacity, /*z=*/4, /*payload=*/128);
  env.config.read_batches_per_epoch = 2;
  env.config.read_batch_size = 6;
  env.config.write_batch_size = 6;
  env.config.recovery.enabled = true;
  env.config.recovery.full_checkpoint_interval = 3;
  env.config.oram_options.io_threads = 4;
  env.store = std::make_shared<MemoryBucketStore>(env.config.oram.num_buckets(),
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

TEST(RecoveryTest, CommittedDataSurvivesCrash) {
  auto env = MakeEnv();
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(40)).ok());
  CommitWrite(*env.proxy, "key9", "before-crash");

  env.proxy->SimulateCrash();
  RecoveryBreakdown breakdown;
  ASSERT_TRUE(env.proxy->RecoverFromCrash(&breakdown).ok());
  EXPECT_GT(breakdown.log_records, 0u);

  EXPECT_EQ(ReadCommitted(*env.proxy, "key9"), "before-crash");
  EXPECT_EQ(ReadCommitted(*env.proxy, "key3"), "value3");
  EXPECT_TRUE(env.proxy->oram()->CheckInvariants().ok());
}

TEST(RecoveryTest, UncommittedEpochIsRolledBack) {
  auto env = MakeEnv();
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(40)).ok());
  CommitWrite(*env.proxy, "key5", "committed-version");

  // Start a write in a fresh epoch but crash before the epoch ends: the
  // client never learns a commit decision, so the write must vanish.
  Timestamp t = env.proxy->Begin();
  ASSERT_TRUE(env.proxy->Write(t, "key5", "doomed").ok());
  ASSERT_TRUE(env.proxy->Write(t, "key6", "also-doomed").ok());

  env.proxy->SimulateCrash();
  ASSERT_TRUE(env.proxy->RecoverFromCrash().ok());

  EXPECT_EQ(ReadCommitted(*env.proxy, "key5"), "committed-version");
  EXPECT_EQ(ReadCommitted(*env.proxy, "key6"), "value6");
}

// A dispatched batch's logged paths are replayed after a crash (§8: the
// adversary sees the same paths again). Read-path logging must not depend
// on how the proxy was built: over one shared store or over one store per
// shard, a dispatched batch appends exactly one plan record before its
// reads, and recovery replays every shard's logged sub-batch.
struct Construction {
  uint32_t shards;
  bool per_shard_stores;
};

class RecoveryConstructionTest : public testing::TestWithParam<Construction> {};

TEST_P(RecoveryConstructionTest, CrashAfterDispatchedBatchReplaysEveryShard) {
  const uint32_t kShards = GetParam().shards;
  ObladiConfig config = ObladiConfig::ForCapacity(128, /*z=*/4, /*payload=*/128);
  config.num_shards = kShards;
  config.read_batches_per_epoch = 2;
  config.read_batch_size = 6;
  config.write_batch_size = 6;
  config.recovery.enabled = true;
  config.recovery.full_checkpoint_interval = 3;
  config.oram_options.io_threads = 4;
  config.oram_options.enable_trace = true;
  const RingOramConfig shard_config = config.MakeLayout().shard_config;
  auto log = std::make_shared<MemoryLogStore>();
  std::unique_ptr<ObladiStore> proxy;
  if (GetParam().per_shard_stores) {
    std::vector<std::shared_ptr<BucketStore>> stores;
    for (uint32_t s = 0; s < kShards; ++s) {
      stores.push_back(std::make_shared<MemoryBucketStore>(shard_config.num_buckets(),
                                                           shard_config.slots_per_bucket()));
    }
    proxy = std::make_unique<ObladiStore>(config, std::move(stores), log);
  } else {
    auto store = std::make_shared<MemoryBucketStore>(config.StoreBuckets(),
                                                     shard_config.slots_per_bucket());
    proxy = std::make_unique<ObladiStore>(config, store, log);
  }
  ASSERT_TRUE(proxy->Load(SimpleRecords(40)).ok());

  // Queue one real read into the epoch's first batch, dispatch it, crash.
  Timestamp t = proxy->Begin();
  std::thread reader([&] { (void)proxy->Read(t, "key11"); });
  ASSERT_TRUE(PollUntil([&] { return proxy->stats().oram_fetches == 1; }));
  std::vector<std::vector<PhysicalOp>> pre_crash(kShards);
  for (uint32_t s = 0; s < kShards; ++s) {
    proxy->oram()->shard_trace(s).Clear();
  }
  const uint64_t lsn_before = log->NextLsn();
  ASSERT_TRUE(proxy->StepReadBatch().ok());
  EXPECT_EQ(log->NextLsn(), lsn_before + 1) << "one plan record per global batch";
  for (uint32_t s = 0; s < kShards; ++s) {
    pre_crash[s] = proxy->oram()->shard_trace(s).Take();
    ASSERT_FALSE(pre_crash[s].empty()) << "shard " << s;
  }
  reader.join();

  proxy->SimulateCrash();
  RecoveryBreakdown breakdown;
  ASSERT_TRUE(proxy->RecoverFromCrash(&breakdown).ok());
  EXPECT_EQ(breakdown.replayed_batches, kShards);

  // Each shard's recovery trace opens with its pre-crash physical reads.
  for (uint32_t s = 0; s < kShards; ++s) {
    auto replay = proxy->oram()->shard_trace(s).Take();
    ASSERT_GE(replay.size(), pre_crash[s].size()) << "shard " << s;
    for (size_t i = 0; i < pre_crash[s].size(); ++i) {
      if (pre_crash[s][i].type == PhysicalOpType::kReadSlot) {
        EXPECT_EQ(replay[i], pre_crash[s][i]) << "shard " << s << " diverged at op " << i;
      }
    }
    proxy->oram()->shard_trace(s).Disable();
  }
  EXPECT_EQ(ReadCommitted(*proxy, "key11"), "value11");
}

INSTANTIATE_TEST_SUITE_P(Constructions, RecoveryConstructionTest,
                         testing::Values(Construction{1, false}, Construction{2, false},
                                         Construction{2, true}),
                         [](const testing::TestParamInfo<Construction>& info) {
                           return "K" + std::to_string(info.param.shards) +
                                  (info.param.per_shard_stores ? "PerShardStores"
                                                               : "SharedStore");
                         });

TEST(RecoveryTest, RepeatedCrashesAndRecoveries) {
  auto env = MakeEnv();
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(40)).ok());

  for (int round = 0; round < 5; ++round) {
    std::string value = "round-" + std::to_string(round);
    CommitWrite(*env.proxy, "key" + std::to_string(round), value);
    env.proxy->SimulateCrash();
    ASSERT_TRUE(env.proxy->RecoverFromCrash().ok()) << "round " << round;
    EXPECT_EQ(ReadCommitted(*env.proxy, "key" + std::to_string(round)), value);
  }
  // Everything committed in any round is still there.
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(ReadCommitted(*env.proxy, "key" + std::to_string(round)),
              "round-" + std::to_string(round));
  }
  EXPECT_EQ(env.proxy->stats().recoveries, 5u);
}

TEST(RecoveryTest, FullCheckpointsTruncateTheLog) {
  auto env = MakeEnv();
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(20)).ok());
  // Run enough epochs to cross several full-checkpoint intervals.
  for (int i = 0; i < 10; ++i) {
    CommitWrite(*env.proxy, "key1", "v" + std::to_string(i));
  }
  auto records = env.log->ReadAll();
  ASSERT_TRUE(records.ok());
  // Without truncation we would have >= 10 epochs * (plans + delta) records.
  EXPECT_LT(records->size(), 40u);
  // And recovery still works from the truncated log.
  env.proxy->SimulateCrash();
  ASSERT_TRUE(env.proxy->RecoverFromCrash().ok());
  EXPECT_EQ(ReadCommitted(*env.proxy, "key1"), "v9");
}

TEST(RecoveryTest, InFlightClientsSeeAbortOnCrash) {
  auto env = MakeEnv();
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(20)).ok());

  Timestamp t = env.proxy->Begin();
  std::atomic<bool> observed_abort{false};
  std::thread reader([&] {
    auto v = env.proxy->Read(t, "key1");
    if (!v.ok() && v.status().code() == StatusCode::kAborted) {
      observed_abort.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  env.proxy->SimulateCrash();
  reader.join();
  EXPECT_TRUE(observed_abort.load());
  ASSERT_TRUE(env.proxy->RecoverFromCrash().ok());
  EXPECT_EQ(ReadCommitted(*env.proxy, "key1"), "value1");
}

TEST(RecoveryTest, KeyDirectorySurvivesCrash) {
  auto env = MakeEnv();
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(10)).ok());
  CommitWrite(*env.proxy, "brand-new-key", "created-after-load");
  env.proxy->SimulateCrash();
  ASSERT_TRUE(env.proxy->RecoverFromCrash().ok());
  EXPECT_EQ(ReadCommitted(*env.proxy, "brand-new-key"), "created-after-load");
}

TEST(RecoveryTest, CrashDuringRetirementRecoversLastDurableEpoch) {
  // The pipelined window the ordering rule exists for: epoch N has closed
  // and is retiring (write-back submitted, checkpoint captured but NOT yet
  // appended) while epoch N+1 is already executing and trying to dispatch
  // batches. Killing the proxy here must (a) fail N's commit waiters, (b)
  // keep N+1's records out of the log, and (c) recover to the last durable
  // epoch, replaying exactly N's logged read batches. At depth > 1 the
  // ordering gate admits N+1's plans while N retires, so pin depth 1: this
  // test encodes the single-epoch replay window.
  auto env = MakeEnv();
  env.config.pipeline_depth = 1;
  env.proxy = std::make_unique<ObladiStore>(env.config, env.store, env.log);
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

  // Epoch N: a client writes key1 and requests the commit; the decision
  // never arrives.
  Timestamp t = env.proxy->Begin();
  ASSERT_TRUE(env.proxy->Write(t, "key1", "doomed-B").ok());
  auto decision = env.proxy->CommitAsync(t);
  ASSERT_TRUE(decision.ok()) << decision.status().ToString();

  ASSERT_TRUE(env.proxy->CloseEpochNow().ok());
  hook_entered.get_future().wait();  // epoch N parked before checkpoint append
  EXPECT_NE(decision->wait_for(std::chrono::seconds(0)), std::future_status::ready)
      << "decision released before the epoch was durable";

  // Epoch N+1 dispatches: the recovery unit's ordering gate holds its plan
  // record out of the log while N's checkpoint is pending, so the dispatch
  // blocks and then fails with the crash.
  Status dispatch_status;
  std::thread dispatcher([&] { dispatch_status = env.proxy->StepReadBatch(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::thread crasher([&] { env.proxy->SimulateCrash(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // abandon flag set
  release.set_value();
  crasher.join();
  dispatcher.join();
  EXPECT_FALSE(dispatch_status.ok()) << "epoch N+1's dispatch survived the crash";
  EXPECT_FALSE(decision->get().ok()) << "epoch N's commit decision survived the crash";

  RecoveryBreakdown breakdown;
  ASSERT_TRUE(env.proxy->RecoverFromCrash(&breakdown).ok());
  // Exactly epoch N's batches replay (read_batches_per_epoch on one shard);
  // epoch N+1 contributed nothing to the log.
  EXPECT_EQ(breakdown.replayed_batches, env.config.read_batches_per_epoch);

  // Epoch N was not durable: its write rolls back to the last committed
  // value, and everything older is intact.
  EXPECT_EQ(ReadCommitted(*env.proxy, "key1"), "durable-A");
  EXPECT_EQ(ReadCommitted(*env.proxy, "key5"), "value5");
  EXPECT_TRUE(env.proxy->oram()->CheckInvariants().ok());

  // The recovered proxy pipelines again: a fresh write commits and survives
  // a second (clean) crash.
  CommitWrite(*env.proxy, "key1", "durable-C");
  env.proxy->SimulateCrash();
  ASSERT_TRUE(env.proxy->RecoverFromCrash().ok());
  EXPECT_EQ(ReadCommitted(*env.proxy, "key1"), "durable-C");
}

TEST(RecoveryTest, CrashAfterRetirementDurableKeepsEpoch) {
  // Complement of the above: once DrainRetirement returns, the epoch's
  // checkpoint is in the log and a crash immediately afterwards loses
  // nothing.
  auto env = MakeEnv();
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(20)).ok());

  Timestamp t = env.proxy->Begin();
  ASSERT_TRUE(env.proxy->Write(t, "key3", "retired-durably").ok());
  auto decision = env.proxy->CommitAsync(t);
  ASSERT_TRUE(decision.ok()) << decision.status().ToString();
  ASSERT_TRUE(env.proxy->CloseEpochNow().ok());
  ASSERT_TRUE(env.proxy->DrainRetirement().ok());
  ASSERT_EQ(decision->wait_for(std::chrono::seconds(0)), std::future_status::ready)
      << "decision still pending after the epoch's retirement drained";
  EXPECT_TRUE(decision->get().ok());

  env.proxy->SimulateCrash();
  ASSERT_TRUE(env.proxy->RecoverFromCrash().ok());
  EXPECT_EQ(ReadCommitted(*env.proxy, "key3"), "retired-durably");
}

TEST(RecoveryTest, RecoveredProxyServesConcurrentReads) {
  // The recovered ORAM set serves concurrent readers at once: their accesses
  // plan against stash entries whose values the previous batch's reads are
  // still depositing. Runs under TSan in CI.
  auto env = MakeEnv();
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(60)).ok());
  for (int i = 0; i < 4; ++i) {
    CommitWrite(*env.proxy, "key" + std::to_string(i), "pre-crash-" + std::to_string(i));
  }
  env.proxy->SimulateCrash();
  ASSERT_TRUE(env.proxy->RecoverFromCrash().ok());

  constexpr int kReaders = 4;
  constexpr int kReadsPerReader = 15;
  std::atomic<int> done{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < kReadsPerReader; ++i) {
        const int k = r * kReadsPerReader + i;
        const Key key = "key" + std::to_string(k);
        const std::string want =
            k < 4 ? "pre-crash-" + std::to_string(k) : "value" + std::to_string(k);
        Status st = RunPacedTransaction(*env.proxy, [&](Txn& txn) -> Status {
          auto v = txn.Read(key);
          if (!v.ok()) {
            return v.status();
          }
          EXPECT_EQ(*v, want);
          return Status::Ok();
        });
        EXPECT_TRUE(st.ok()) << key << ": " << st.ToString();
      }
      done.fetch_add(1);
    });
  }
  while (done.load() < kReaders) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(env.proxy->FinishEpochNow().ok());
  }
  for (auto& reader : readers) {
    reader.join();
  }
  EXPECT_TRUE(env.proxy->oram()->CheckInvariants().ok());
}

TEST(RecoveryTest, RecoveryWithoutLogFailsCleanly) {
  ObladiConfig config = ObladiConfig::ForCapacity(32, 4, 64);
  config.recovery.enabled = false;
  auto store = std::make_shared<MemoryBucketStore>(config.oram.num_buckets(),
                                                   config.oram.slots_per_bucket());
  ObladiStore proxy(config, store, nullptr);
  EXPECT_EQ(proxy.RecoverFromCrash().code(), StatusCode::kFailedPrecondition);
}

TEST(RecoveryTest, StashSurvivesCrash) {
  // Force blocks into the stash (writes stay stash-resident until evicted to
  // a fitting bucket), then crash and verify values come back from the
  // checkpointed stash.
  auto env = MakeEnv();
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(60)).ok());
  for (int i = 0; i < 6; ++i) {
    CommitWrite(*env.proxy, "key" + std::to_string(20 + i), "stashed-" + std::to_string(i));
  }
  env.proxy->SimulateCrash();
  ASSERT_TRUE(env.proxy->RecoverFromCrash().ok());
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(ReadCommitted(*env.proxy, "key" + std::to_string(20 + i)),
              "stashed-" + std::to_string(i));
  }
}

}  // namespace
}  // namespace obladi
