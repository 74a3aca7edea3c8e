// Closed-loop load generator with pipelined commits — delayed visibility's
// client model (§6), the one bench_epoch_pipeline also uses. Each session is
// one thread running the workload's transactions one after another through
// SessionKv, whose Commit requests the commit with ObladiStore::CommitAsync
// and returns at once: a session keeps executing while up to 16 of its
// commit decisions are pending. A transaction the epoch decision aborts — or
// that aborts at read time often enough to exhaust the workload's own
// in-body retries — is replayed from the Rng state it first drew its inputs
// from, up to 20 times, so the logical transaction survives the abort and
// its latency is counted from its first Begin. A decision that has not
// arrived after 5 s counts as a failure.
//
// One collector thread waits on the pending decisions oldest first (the
// proxy releases them in epoch order) and stamps each as it resolves, so
// commit latency is taken when the decision is delivered, not when a session
// next happens to look.
#ifndef OBLADI_BENCH_E2E_LOAD_GEN_H_
#define OBLADI_BENCH_E2E_LOAD_GEN_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/proxy/obladi_store.h"
#include "src/workload/workload.h"

namespace obladi::e2e {

// One logical transaction that finished: committed, or failed because its
// replays ran out, it hit a non-abort error, or no decision arrived within
// the timeout.
struct Completion {
  uint64_t done_ns = 0;
  uint64_t latency_ns = 0;  // first Begin -> decision delivered
  bool committed = false;
};

class LoadGenerator {
 public:
  // Four sessions, each seeded from `seed`.
  LoadGenerator(ObladiStore& store, Workload& workload, uint64_t seed);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  void Start();
  // Stop starting transactions and replays, then wait until every pending
  // decision has resolved or timed out. Idempotent.
  void StopAndDrain();

  // Valid after StopAndDrain.
  std::vector<Completion> Completions() const;
  // The value a read must return once every decision is in: per key, the
  // write of the committed transaction with the largest timestamp (MVTSO
  // serializes in timestamp order). Keys written by a transaction whose
  // outcome is unknown are left out.
  std::map<Key, std::string> ExpectedState() const;

 private:
  struct Pending;
  struct Session;
  class SessionKv;

  void SessionLoop(Session& s);
  // Runs the logical transaction whose inputs are drawn from `inputs` (a
  // replay draws the same ones) until its commit is requested, it fails, or
  // its replays run out.
  void RunLogical(Session& s, SessionKv& kv, const Rng& inputs, uint64_t first_begin_ns,
                  int replays);
  void Handle(Session& s, SessionKv& kv, const Pending& p);
  void Submit(std::shared_ptr<Pending> p);
  void CollectorLoop();
  void Deliver(std::shared_ptr<Pending> p);

  ObladiStore& store_;
  Workload& workload_;
  std::atomic<bool> stopping_{false};
  bool drained_ = false;
  std::vector<std::unique_ptr<Session>> sessions_;

  std::mutex collector_mu_;
  std::condition_variable collector_cv_;
  std::vector<std::shared_ptr<Pending>> submitted_;  // guarded by collector_mu_
  bool collector_stop_ = false;                       // guarded by collector_mu_

  // Declared last: joined before the state above is destroyed.
  std::vector<std::thread> session_threads_;
  std::thread collector_;
};

// Reads every key of `expected` back in single-key read-only transactions
// (pipelined, each one committed before its value counts) from `threads`
// threads.
struct StateCheck {
  size_t keys = 0;
  size_t matched = 0;
  size_t mismatched = 0;
  size_t unreadable = 0;  // never read by a committed transaction
  bool ok() const { return keys > 0 && matched == keys; }
};
StateCheck CheckState(ObladiStore& store,
                      const std::vector<std::pair<Key, std::string>>& expected, size_t threads);

}  // namespace obladi::e2e

#endif  // OBLADI_BENCH_E2E_LOAD_GEN_H_
