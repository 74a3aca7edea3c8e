#include <gtest/gtest.h>

#include <future>
#include <map>
#include <thread>

#include "src/common/rng.h"
#include "src/proxy/obladi_store.h"
#include "src/storage/memory_store.h"
#include "tests/paced_proxy.h"

namespace obladi {
namespace {

struct ProxyEnv {
  ObladiConfig config;
  std::shared_ptr<MemoryBucketStore> store;
  std::shared_ptr<MemoryLogStore> log;
  std::unique_ptr<ObladiStore> proxy;
};

ProxyEnv MakeProxy(uint64_t capacity = 256, bool recovery = true) {
  ProxyEnv env;
  env.config = ObladiConfig::ForCapacity(capacity, /*z=*/4, /*payload=*/128);
  env.config.read_batches_per_epoch = 3;
  env.config.read_batch_size = 8;
  env.config.write_batch_size = 8;
  env.config.recovery.enabled = recovery;
  env.config.recovery.full_checkpoint_interval = 4;
  env.config.oram_options.io_threads = 8;
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

// Run a client function on a thread while the main thread paces epochs until
// the client finishes.
void RunWithPacing(ObladiStore& proxy, const std::function<void()>& client) {
  std::atomic<bool> done{false};
  std::thread client_thread([&] {
    client();
    done.store(true);
  });
  while (!done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(proxy.FinishEpochNow().ok());
  }
  client_thread.join();
}

TEST(ObladiStoreTest, LoadAndReadCommitted) {
  auto env = MakeProxy();
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(50)).ok());

  RunWithPacing(*env.proxy, [&] {
    Status st = RunTransaction(*env.proxy, [&](Txn& txn) -> Status {
      auto v = txn.Read("key7");
      if (!v.ok()) {
        return v.status();
      }
      EXPECT_EQ(*v, "value7");
      return Status::Ok();
    });
    EXPECT_TRUE(st.ok()) << st.ToString();
  });
}

TEST(ObladiStoreTest, WriteCommitReadBack) {
  auto env = MakeProxy();
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(50)).ok());

  RunWithPacing(*env.proxy, [&] {
    Status st = RunTransaction(*env.proxy, [&](Txn& txn) -> Status {
      return txn.Write("key3", "updated3");
    });
    ASSERT_TRUE(st.ok()) << st.ToString();
    st = RunTransaction(*env.proxy, [&](Txn& txn) -> Status {
      auto v = txn.Read("key3");
      if (!v.ok()) {
        return v.status();
      }
      EXPECT_EQ(*v, "updated3");
      return Status::Ok();
    });
    EXPECT_TRUE(st.ok());
  });
}

TEST(ObladiStoreTest, UnknownKeyIsNotFound) {
  auto env = MakeProxy();
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(5)).ok());
  Timestamp t = env.proxy->Begin();
  auto v = env.proxy->Read(t, "no-such-key");
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  env.proxy->Abort(t);
}

TEST(ObladiStoreTest, BlindWriteCreatesKey) {
  auto env = MakeProxy();
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(5)).ok());
  RunWithPacing(*env.proxy, [&] {
    Status st = RunTransaction(
        *env.proxy, [&](Txn& txn) -> Status { return txn.Write("fresh-key", "fresh"); });
    ASSERT_TRUE(st.ok());
    st = RunTransaction(*env.proxy, [&](Txn& txn) -> Status {
      auto v = txn.Read("fresh-key");
      if (!v.ok()) {
        return v.status();
      }
      EXPECT_EQ(*v, "fresh");
      return Status::Ok();
    });
    EXPECT_TRUE(st.ok());
  });
}

TEST(ObladiStoreTest, CommitDecisionArrivesOnlyAtEpochEnd) {
  auto env = MakeProxy();
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(10)).ok());

  std::atomic<bool> committed{false};
  std::thread client([&] {
    Timestamp t = env.proxy->Begin();
    ASSERT_TRUE(env.proxy->Write(t, "key1", "epoch-write").ok());
    Status st = env.proxy->Commit(t);  // blocks until the epoch ends
    EXPECT_TRUE(st.ok()) << st.ToString();
    committed.store(true);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(committed.load()) << "commit decision leaked before epoch end";
  ASSERT_TRUE(env.proxy->FinishEpochNow().ok());
  client.join();
  EXPECT_TRUE(committed.load());
}

TEST(ObladiStoreTest, VersionCacheServesRepeatedReadsWithoutNewFetches) {
  auto env = MakeProxy();
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(20)).ok());

  std::atomic<bool> done{false};
  std::thread client([&] {
    // Two transactions in the same epoch read the same key; the second read
    // must be served from the version cache (one ORAM fetch total).
    Timestamp t1 = env.proxy->Begin();
    Timestamp t2 = env.proxy->Begin();
    auto v1 = env.proxy->Read(t1, "key5");
    ASSERT_TRUE(v1.ok());
    auto v2 = env.proxy->Read(t2, "key5");
    ASSERT_TRUE(v2.ok());
    env.proxy->Abort(t1);
    env.proxy->Abort(t2);
    done.store(true);
  });
  while (!done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(env.proxy->StepReadBatch().ok() ||
                true);  // keep stepping; FailedPrecondition is fine
  }
  client.join();
  auto stats = env.proxy->stats();
  EXPECT_EQ(stats.oram_fetches, 1u);
  EXPECT_GE(stats.cache_hits, 1u);
}

TEST(ObladiStoreTest, ConflictingWritersOneAborts) {
  auto env = MakeProxy();
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(10)).ok());

  RunWithPacing(*env.proxy, [&] {
    // t_old writes after t_new read the same key's base: per MVTSO, a write
    // whose predecessor was read by a later transaction aborts. The read
    // itself can abort when it lands in the window where the epoch's batches
    // are all dispatched; retry the scenario with fresh transactions.
    for (int attempt = 0; attempt < 300; ++attempt) {
      Timestamp t_old = env.proxy->Begin();
      Timestamp t_new = env.proxy->Begin();
      auto v = env.proxy->Read(t_new, "key2");
      if (!v.ok()) {
        env.proxy->Abort(t_new);
        env.proxy->Abort(t_old);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      Status st = env.proxy->Write(t_old, "key2", "conflict");
      EXPECT_EQ(st.code(), StatusCode::kAborted);
      env.proxy->Abort(t_new);
      return;
    }
    FAIL() << "read never scheduled across 300 attempts";
  });
}

TEST(ObladiStoreTest, EpochFateSharing) {
  // Two committed transactions in one epoch: both must be durable together.
  auto env = MakeProxy();
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(20)).ok());

  std::atomic<int> commits{0};
  std::thread c1([&] {
    if (RunTransaction(*env.proxy,
                       [&](Txn& txn) { return txn.Write("key1", "a"); })
            .ok()) {
      commits.fetch_add(1);
    }
  });
  std::thread c2([&] {
    if (RunTransaction(*env.proxy,
                       [&](Txn& txn) { return txn.Write("key2", "b"); })
            .ok()) {
      commits.fetch_add(1);
    }
  });
  while (commits.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(env.proxy->FinishEpochNow().ok());
  }
  c1.join();
  c2.join();
  EXPECT_EQ(commits.load(), 2);
}

TEST(ObladiStoreTest, ReadBatchOverflowAbortsTransaction) {
  // Tiny epoch: 1 batch of 2 slots; the third distinct fetch cannot be
  // scheduled this epoch and must abort its transaction.
  ObladiConfig config = ObladiConfig::ForCapacity(64, 4, 128);
  config.read_batches_per_epoch = 1;
  config.read_batch_size = 2;
  config.recovery.enabled = false;
  auto store = std::make_shared<MemoryBucketStore>(config.oram.num_buckets(),
                                                   config.oram.slots_per_bucket());
  ObladiStore proxy(config, store, nullptr);
  ASSERT_TRUE(proxy.Load(SimpleRecords(10)).ok());

  Timestamp ta = proxy.Begin();
  Timestamp tb = proxy.Begin();
  Timestamp tc = proxy.Begin();
  std::thread f1([&] { (void)proxy.Read(ta, "key1"); });
  std::thread f2([&] { (void)proxy.Read(tb, "key2"); });
  EXPECT_TRUE(PollUntil([&] { return proxy.stats().oram_fetches == 2; }))
      << "the first two reads never queued their fetches";
  // Both slots taken: this fetch fails immediately with an abort.
  auto v = proxy.Read(tc, "key3");
  EXPECT_EQ(v.status().code(), StatusCode::kAborted);
  ASSERT_TRUE(proxy.FinishEpochNow().ok());
  f1.join();
  f2.join();
  EXPECT_GE(proxy.stats().batch_overflow_aborts, 1u);
}

// ---------------------------------------------------------------------------
// Pipelined epoch state machine
// ---------------------------------------------------------------------------

TEST(ObladiStorePipelineTest, RetirementOverlapsNextEpochExecution) {
  // Hold epoch 1 in the retiring state and show that (a) its commit decision
  // is withheld until retirement completes and (b) epoch 2 admits and
  // executes reads in the meantime.
  auto env = MakeProxy(256, /*recovery=*/false);
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(30)).ok());

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

  Timestamp t = env.proxy->Begin();
  ASSERT_TRUE(env.proxy->Write(t, "key1", "pipelined").ok());
  auto decision = env.proxy->CommitAsync(t);
  ASSERT_TRUE(decision.ok()) << decision.status().ToString();

  // Close epoch 1: returns immediately, retirement parked in the hook.
  ASSERT_TRUE(env.proxy->CloseEpochNow().ok());
  hook_entered.get_future().wait();
  EXPECT_NE(decision->wait_for(std::chrono::seconds(0)), std::future_status::ready)
      << "commit decision leaked before the epoch was durable";

  // Epoch 2 executes while epoch 1 retires: an ORAM fetch completes.
  std::atomic<bool> read_done{false};
  std::thread reader([&] {
    Timestamp t = env.proxy->Begin();
    auto v = env.proxy->Read(t, "key7");
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    if (v.ok()) {
      EXPECT_EQ(*v, "value7");
    }
    env.proxy->Abort(t);
    read_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(env.proxy->StepReadBatch().ok());
  reader.join();
  EXPECT_TRUE(read_done.load());
  EXPECT_NE(decision->wait_for(std::chrono::seconds(0)), std::future_status::ready);

  release.set_value();
  ASSERT_TRUE(env.proxy->DrainRetirement().ok());
  Status commit_status = decision->get();
  EXPECT_TRUE(commit_status.ok()) << commit_status.ToString();
  EXPECT_TRUE(env.proxy->FinishEpochNow().ok());
  EXPECT_TRUE(env.proxy->oram()->CheckInvariants().ok());
}

TEST(ObladiStorePipelineTest, CloseWaitsForPreviousRetirementDepthOne) {
  auto env = MakeProxy(256, /*recovery=*/false);
  // This test encodes the depth-1 compatibility baseline: the second close
  // stalls until the first epoch's retirement completes.
  env.config.pipeline_depth = 1;
  env.proxy = std::make_unique<ObladiStore>(env.config, env.store, env.log);
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(20)).ok());

  std::promise<void> release;
  std::shared_future<void> release_fut = release.get_future().share();
  std::atomic<int> hook_calls{0};
  env.proxy->SetRetireHookForTest([&] {
    if (hook_calls.fetch_add(1) == 0) {
      release_fut.wait();
    }
  });

  ASSERT_TRUE(env.proxy->CloseEpochNow().ok());  // epoch 1 retiring (held)
  std::atomic<bool> second_closed{false};
  std::thread closer([&] {
    // Epoch 2's close must stall on the depth-1 cap until epoch 1 retires.
    EXPECT_TRUE(env.proxy->CloseEpochNow().ok());
    second_closed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_FALSE(second_closed.load()) << "pipeline depth exceeded 1";

  release.set_value();
  closer.join();
  ASSERT_TRUE(env.proxy->DrainRetirement().ok());
  auto stats = env.proxy->stats();
  EXPECT_GE(stats.retire_stall_us, 1000u);  // the 60ms hold shows up as stall
  EXPECT_GE(stats.epochs_overlapped, 1u);
  EXPECT_EQ(stats.epochs, 2u);
}

// A depth-1 proxy whose first retirement is held: once epoch 1 has closed,
// epoch 2's close runs its EndEpoch and then parks on the retirement slot
// until Release(). This opens the window between a close's EndEpoch and its
// return, in which epoch 3 is already running.
class ParkedClose {
 public:
  ParkedClose() : env_(MakeProxy(256, /*recovery=*/false)) {
    env_.config.pipeline_depth = 1;
    env_.proxy = std::make_unique<ObladiStore>(env_.config, env_.store, env_.log);
    std::shared_future<void> released = release_.get_future().share();
    auto calls = std::make_shared<std::atomic<int>>(0);
    env_.proxy->SetRetireHookForTest([released, calls] {
      if (calls->fetch_add(1) == 0) {
        released.wait();
      }
    });
  }
  ~ParkedClose() { Release(); }

  ObladiStore& proxy() { return *env_.proxy; }

  // Starts epoch 2's close on a thread and returns once that close has run
  // EndEpoch. Call it after closing epoch 1.
  bool Park() {
    // EndEpoch aborts this unfinished transaction, which marks the moment it
    // ran; the close then stalls on the depth-1 retirement slot.
    (void)proxy().Begin();
    const uint64_t aborts_before = proxy().txn_stats().aborts_unfinished_epoch;
    closer_ = std::thread([this] { EXPECT_TRUE(proxy().CloseEpochNow().ok()); });
    return PollUntil(
        [&] { return proxy().txn_stats().aborts_unfinished_epoch > aborts_before; });
  }

  // Lets the parked close finish and waits for it.
  void Release() {
    if (!released_) {
      released_ = true;
      release_.set_value();
    }
    if (closer_.joinable()) {
      closer_.join();
    }
  }

 private:
  ProxyEnv env_;
  std::promise<void> release_;
  bool released_ = false;
  std::thread closer_;
};

TEST(ObladiStorePipelineTest, CommitInsideACloseIsDecidedByTheNextEpoch) {
  // A transaction that begins after a close's EndEpoch and commits while that
  // close is still running belongs to the next epoch. Its decision must come
  // from the epoch that commits it, not ride the closing epoch's retirement
  // (which would release it as "aborted" while the next epoch commits it).
  ParkedClose parked;
  ObladiStore& proxy = parked.proxy();
  ASSERT_TRUE(proxy.Load(SimpleRecords(20)).ok());
  ASSERT_TRUE(proxy.CloseEpochNow().ok());  // epoch 1 retiring (held)
  ASSERT_TRUE(parked.Park()) << "epoch 2's close never reached EndEpoch";

  Timestamp t = proxy.Begin();
  ASSERT_TRUE(proxy.Write(t, "key4", "written-during-close").ok());
  auto decision = proxy.CommitAsync(t);
  parked.Release();
  ASSERT_TRUE(decision.ok()) << decision.status().ToString();
  ASSERT_TRUE(proxy.DrainRetirement().ok());
  EXPECT_EQ(decision->wait_for(std::chrono::seconds(0)), std::future_status::timeout)
      << "epoch 2 released a decision for an epoch-3 transaction: "
      << decision->get().ToString();

  ASSERT_TRUE(proxy.FinishEpochNow().ok());  // epoch 3 commits it
  Status st = decision->get();
  EXPECT_TRUE(st.ok()) << st.ToString();
  RunWithPacing(proxy, [&] {
    Status read = RunTransaction(proxy, [&](Txn& txn) -> Status {
      auto v = txn.Read("key4");
      if (!v.ok()) {
        return v.status();
      }
      EXPECT_EQ(*v, "written-during-close");
      return Status::Ok();
    });
    EXPECT_TRUE(read.ok()) << read.ToString();
  });
}

TEST(ObladiStorePipelineTest, ReadInsideACloseQueuesForTheNextEpoch) {
  // After a close's EndEpoch, the next epoch's read batches are open: a read
  // that misses the version cache while the close is still running queues
  // into the next epoch's first batch instead of being refused.
  ParkedClose parked;
  ObladiStore& proxy = parked.proxy();
  ASSERT_TRUE(proxy.Load(SimpleRecords(20)).ok());
  ASSERT_TRUE(proxy.CloseEpochNow().ok());  // epoch 1 retiring (held)
  ASSERT_TRUE(parked.Park()) << "epoch 2's close never reached EndEpoch";

  const ObladiStats before = proxy.stats();
  std::atomic<bool> returned{false};
  StatusOr<std::string> value = Status::Internal("read never ran");
  std::thread reader([&] {
    Timestamp t = proxy.Begin();
    value = proxy.Read(t, "key9");
    returned.store(true);
    proxy.Abort(t);
  });
  const bool queued =
      PollUntil([&] { return proxy.stats().oram_fetches == before.oram_fetches + 1; });
  EXPECT_TRUE(queued) << "the read did not queue a fetch while the close ran";
  EXPECT_FALSE(returned.load()) << "the read returned before any batch could serve it";

  parked.Release();
  ASSERT_TRUE(proxy.StepReadBatch().ok());
  reader.join();
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(*value, "value9");
  EXPECT_EQ(proxy.stats().batch_overflow_aborts, before.batch_overflow_aborts);
}

TEST(ObladiStorePipelineTest, ReadInsideACloseDoesNotReuseACompletedFetch) {
  // A key fetched earlier in the closing epoch leaves a completed fetch
  // behind, while EndEpoch clears its base from the version cache. A
  // next-epoch read of that key during the close must queue a new fetch, not
  // spin deduplicating against the old one.
  ParkedClose parked;
  ObladiStore& proxy = parked.proxy();
  ASSERT_TRUE(proxy.Load(SimpleRecords(20)).ok());
  ASSERT_TRUE(proxy.CloseEpochNow().ok());  // epoch 1 retiring (held)

  // Epoch 2 fetches key3 through its first batch.
  std::thread early_reader([&] {
    Timestamp t = proxy.Begin();
    auto v = proxy.Read(t, "key3");
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    proxy.Abort(t);
  });
  ASSERT_TRUE(PollUntil([&] { return proxy.stats().oram_fetches == 1; }));
  ASSERT_TRUE(proxy.StepReadBatch().ok());
  early_reader.join();
  ASSERT_TRUE(parked.Park()) << "epoch 2's close never reached EndEpoch";

  const ObladiStats before = proxy.stats();
  StatusOr<std::string> value = Status::Internal("read never ran");
  std::thread reader([&] {
    Timestamp t = proxy.Begin();
    value = proxy.Read(t, "key3");
    proxy.Abort(t);
  });
  auto queued = [&] { return proxy.stats().oram_fetches == before.oram_fetches + 1; };
  EXPECT_TRUE(PollUntil(queued)) << "key3 was not queued as a new fetch";
  EXPECT_EQ(proxy.stats().fetch_dedups, before.fetch_dedups)
      << "the read spun on epoch 2's completed fetch";

  parked.Release();
  ASSERT_TRUE(PollUntil(queued));  // the batch below must carry the fetch
  ASSERT_TRUE(proxy.StepReadBatch().ok());
  reader.join();
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(*value, "value3");
}

TEST(ObladiStorePipelineTest, CommittedWritesServeFromVersionCacheNextEpoch) {
  // The epoch's final writes become next-epoch base versions, so a read of a
  // just-committed key is a cache hit even while its write-back retires.
  auto env = MakeProxy();
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(20)).ok());

  std::thread writer([&] {
    Timestamp t = env.proxy->Begin();
    ASSERT_TRUE(env.proxy->Write(t, "key2", "carried").ok());
    EXPECT_TRUE(env.proxy->Commit(t).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(env.proxy->FinishEpochNow().ok());
  writer.join();

  uint64_t fetches_before = env.proxy->stats().oram_fetches;
  Timestamp r = env.proxy->Begin();
  auto v = env.proxy->Read(r, "key2");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, "carried");
  env.proxy->Abort(r);
  auto stats = env.proxy->stats();
  EXPECT_EQ(stats.oram_fetches, fetches_before)
      << "read of a committed write went to the ORAM instead of the version cache";
  EXPECT_GE(stats.cache_hits, 1u);
}

TEST(ObladiStorePipelineTest, PipelinedPacedRequestShapeIsEpochInvariant) {
  // Under the pipelined pacer with live clients, every closed epoch must
  // still present exactly R quota-sized sub-batch plans per shard — the
  // request-level shape the adversary sees does not depend on overlap.
  auto env = MakeProxy(512, /*recovery=*/false);
  env.config.timed_mode = true;
  env.config.batch_interval_us = 500;
  env.config.num_shards = 2;
  env.config.read_batch_size = 8;
  env.config.write_batch_size = 8;
  env.store = std::make_shared<MemoryBucketStore>(
      env.config.StoreBuckets(), env.config.MakeLayout().shard_config.slots_per_bucket());
  env.proxy = std::make_unique<ObladiStore>(env.config, env.store, nullptr);
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(100)).ok());

  std::mutex plan_mu;
  std::map<std::pair<uint64_t, uint32_t>, std::vector<size_t>> plans;  // (epoch, shard)
  env.proxy->oram()->SetBatchPlannedHook(
      [&](const std::vector<std::pair<uint32_t, BatchPlan>>& batch) {
        std::lock_guard<std::mutex> lk(plan_mu);
        for (const auto& [shard, plan] : batch) {
          plans[{plan.epoch, shard}].push_back(plan.requests.size());
        }
        return Status::Ok();
      });

  env.proxy->Start();
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(c + 7);
      for (int i = 0; i < 4; ++i) {
        std::string key = "key" + std::to_string(rng.Uniform(100));
        (void)RunTransaction(*env.proxy, [&](Txn& txn) -> Status {
          auto v = txn.Read(key);
          if (!v.ok()) {
            return v.status();
          }
          return txn.Write(key, *v + "x");
        });
      }
    });
  }
  for (auto& c : clients) {
    c.join();
  }
  env.proxy->Stop();

  std::lock_guard<std::mutex> lk(plan_mu);
  ASSERT_FALSE(plans.empty());
  uint64_t last_epoch = 0;
  for (const auto& [key, sizes] : plans) {
    last_epoch = std::max(last_epoch, key.first);
  }
  size_t complete_epochs = 0;
  for (const auto& [key, sizes] : plans) {
    if (key.first == last_epoch) {
      continue;  // the run may stop mid-epoch
    }
    ++complete_epochs;
    EXPECT_EQ(sizes.size(), env.config.read_batches_per_epoch)
        << "epoch " << key.first << " shard " << key.second;
    for (size_t sz : sizes) {
      EXPECT_EQ(sz, env.config.read_quota())
          << "epoch " << key.first << " shard " << key.second;
    }
  }
  EXPECT_GT(complete_epochs, 0u);
}

TEST(ObladiStoreTest, TimedModeMakesProgressWithoutManualPacing) {
  auto env = MakeProxy();
  env.config.timed_mode = true;
  env.config.batch_interval_us = 500;
  env.proxy = std::make_unique<ObladiStore>(env.config, env.store, env.log);
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(30)).ok());
  env.proxy->Start();

  Status st = RunTransaction(*env.proxy, [&](Txn& txn) -> Status {
    auto v = txn.Read("key4");
    if (!v.ok()) {
      return v.status();
    }
    return txn.Write("key4", *v + "+1");
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  env.proxy->Stop();
}

TEST(ObladiStoreTest, ManyConcurrentClientsTimedMode) {
  auto env = MakeProxy(512);
  env.config.timed_mode = true;
  env.config.batch_interval_us = 300;
  env.config.read_batch_size = 16;
  env.config.write_batch_size = 16;
  env.proxy = std::make_unique<ObladiStore>(env.config, env.store, env.log);
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(100)).ok());
  env.proxy->Start();

  std::atomic<int> committed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(c + 1);
      for (int i = 0; i < 5; ++i) {
        std::string key = "key" + std::to_string(rng.Uniform(100));
        Status st = RunTransaction(*env.proxy, [&](Txn& txn) -> Status {
          auto v = txn.Read(key);
          if (!v.ok()) {
            return v.status();
          }
          return txn.Write(key, *v + "!");
        });
        if (st.ok()) {
          committed.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) {
    c.join();
  }
  env.proxy->Stop();
  EXPECT_GT(committed.load(), 30);
  EXPECT_TRUE(env.proxy->oram()->CheckInvariants().ok());
}

}  // namespace
}  // namespace obladi
