// Shared test harness for driving a manually-paced ObladiStore: the test's
// main thread turns epochs over while client threads run transactions.
#ifndef OBLADI_TESTS_PACED_PROXY_H_
#define OBLADI_TESTS_PACED_PROXY_H_

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>

#include "src/proxy/obladi_store.h"

namespace obladi {

// Polls `done` every millisecond until it holds or `timeout` passes; returns
// whether it held. Tests wait on observable state this way, never on a sleep
// that is merely long enough.
inline bool PollUntil(const std::function<bool()>& done,
                      std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Retry with backoff: with manual pacing, an epoch's read batches are all
// dispatched for most of each FinishEpochNow call, so instant retries can
// burn every attempt inside that window (worse on a loaded host). Yield to
// the pacing thread for at least a batch interval between attempts.
inline Status RunPacedTransaction(ObladiStore& proxy,
                                  const std::function<Status(Txn&)>& body) {
  uint64_t backoff_us = std::max<uint64_t>(1000, proxy.config().batch_interval_us);
  Status last = Status::Aborted("no attempts made");
  for (int attempt = 0; attempt < 300; ++attempt) {
    last = RunTransaction(proxy, body, /*max_attempts=*/1);
    if (last.ok() || last.code() != StatusCode::kAborted) {
      return last;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
  }
  return last;
}

// Commit one write transaction, pacing epochs from the calling thread.
inline void CommitWrite(ObladiStore& proxy, const Key& key, const std::string& value) {
  std::atomic<bool> done{false};
  Status result;
  std::thread client([&] {
    result = RunPacedTransaction(proxy,
                                 [&](Txn& txn) -> Status { return txn.Write(key, value); });
    done.store(true);  // always: the pacing loop below must terminate
  });
  while (!done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(proxy.FinishEpochNow().ok());
  }
  client.join();
  ASSERT_TRUE(result.ok()) << result.ToString();
}

// Read one committed value, pacing epochs from the calling thread.
inline std::string ReadCommitted(ObladiStore& proxy, const Key& key) {
  std::string out;
  std::atomic<bool> done{false};
  Status result;
  std::thread client([&] {
    result = RunPacedTransaction(proxy, [&](Txn& txn) -> Status {
      auto v = txn.Read(key);
      if (!v.ok()) {
        return v.status();
      }
      out = *v;
      return Status::Ok();
    });
    done.store(true);
  });
  while (!done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(proxy.FinishEpochNow().ok());
  }
  client.join();
  EXPECT_TRUE(result.ok()) << result.ToString();
  return out;
}

}  // namespace obladi

#endif  // OBLADI_TESTS_PACED_PROXY_H_
