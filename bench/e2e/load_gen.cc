#include "bench/e2e/load_gen.h"

#include <chrono>
#include <future>
#include <tuple>

#include "bench/e2e/timed_store.h"
#include "src/common/clock.h"
#include "src/obs/trace.h"

namespace obladi::e2e {
namespace {

constexpr size_t kSessions = 4;
constexpr size_t kMaxOutstanding = 16;  // pending decisions per session
constexpr int kMaxReplays = 20;         // replays of one aborted logical transaction
constexpr uint64_t kDecisionTimeoutNs = 5'000'000'000;

}  // namespace

struct LoadGenerator::Pending {
  size_t session = 0;
  Timestamp ts = 0;
  std::vector<std::pair<Key, std::string>> writes;  // in write order
  std::shared_future<Status> decision;
  Rng inputs;  // state the logical transaction's inputs are drawn from
  int replays = 0;
  uint64_t first_begin_ns = 0;
  uint64_t commit_ns = 0;  // CommitAsync returned
  // Set by the collector before delivery.
  uint64_t decided_ns = 0;
  bool timed_out = false;
  Status outcome;
};

struct LoadGenerator::Session {
  explicit Session(size_t i, uint64_t seed) : index(i), rng(seed) {}

  const size_t index;
  Rng rng;
  // Session thread only (the main thread reads them after the join).
  size_t outstanding = 0;
  std::vector<Completion> completions;
  std::unordered_map<Key, std::pair<Timestamp, std::string>> latest;
  std::unordered_set<Key> unknown;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::shared_ptr<Pending>> inbox;  // guarded by mu
};

// The TransactionalKv the workload runs against: forwards to the proxy,
// records the attempt's write set, and turns Commit into CommitAsync.
class LoadGenerator::SessionKv : public TransactionalKv {
 public:
  explicit SessionKv(ObladiStore& store) : store_(store) {}

  void StartLogical(uint64_t first_begin_ns) {
    first_begin_ns_ = first_begin_ns;
    submitted_.reset();
  }
  uint64_t first_begin_ns() const { return first_begin_ns_; }
  std::shared_ptr<Pending> TakeSubmitted() { return std::move(submitted_); }

  Timestamp Begin() override {
    attempt_begin_ns_ = NowNanos();
    if (first_begin_ns_ == 0) {
      first_begin_ns_ = attempt_begin_ns_;
    }
    writes_.clear();
    return store_.Begin();
  }

  StatusOr<std::string> Read(Timestamp txn, const Key& key) override {
    const uint64_t start = NowNanos();
    auto value = store_.Read(txn, key);
    // Reads refused with an abort (every batch of the epoch full, or the
    // transaction already aborted) return at once; they are kept apart so
    // they do not pass for cache hits.
    const bool aborted = !value.ok() && value.status().code() == StatusCode::kAborted;
    Tracer::Get().RecordSpan(kBenchCategory, aborted ? "proxy.read_aborted" : "proxy.read", start,
                             NowNanos() - start);
    return value;
  }

  Status Write(Timestamp txn, const Key& key, std::string value) override {
    Status st = store_.Write(txn, key, value);
    if (st.ok()) {
      writes_.emplace_back(key, std::move(value));
    }
    return st;
  }

  Status Commit(Timestamp txn) override {
    auto decision = store_.CommitAsync(txn);
    const uint64_t now = NowNanos();
    Tracer::Get().RecordSpan(kBenchCategory, "proxy.exec", attempt_begin_ns_,
                             now - attempt_begin_ns_);
    if (!decision.ok()) {
      writes_.clear();
      return decision.status();
    }
    auto p = std::make_shared<Pending>();
    p->ts = txn;
    p->writes = std::move(writes_);
    p->decision = std::move(*decision);
    p->first_begin_ns = first_begin_ns_;
    p->commit_ns = now;
    submitted_ = std::move(p);
    return Status::Ok();
  }

  void Abort(Timestamp txn) override {
    store_.Abort(txn);
    writes_.clear();
  }

 private:
  ObladiStore& store_;
  uint64_t first_begin_ns_ = 0;
  uint64_t attempt_begin_ns_ = 0;
  std::vector<std::pair<Key, std::string>> writes_;
  std::shared_ptr<Pending> submitted_;
};

LoadGenerator::LoadGenerator(ObladiStore& store, Workload& workload, uint64_t seed)
    : store_(store), workload_(workload) {
  for (size_t i = 0; i < kSessions; ++i) {
    sessions_.push_back(std::make_unique<Session>(i, seed + 0x9e3779b97f4a7c15ull * (i + 1)));
  }
}

LoadGenerator::~LoadGenerator() { StopAndDrain(); }

void LoadGenerator::Start() {
  collector_ = std::thread([this] { CollectorLoop(); });
  for (auto& s : sessions_) {
    session_threads_.emplace_back([this, &s] { SessionLoop(*s); });
  }
}

void LoadGenerator::StopAndDrain() {
  if (drained_) {
    return;
  }
  drained_ = true;
  stopping_.store(true);
  for (auto& s : sessions_) {
    std::lock_guard<std::mutex> lk(s->mu);
    s->cv.notify_all();
  }
  for (auto& t : session_threads_) {
    t.join();
  }
  {
    std::lock_guard<std::mutex> lk(collector_mu_);
    collector_stop_ = true;
  }
  collector_cv_.notify_all();
  if (collector_.joinable()) {
    collector_.join();
  }
}

void LoadGenerator::SessionLoop(Session& s) {
  SessionKv kv(store_);
  for (;;) {
    std::deque<std::shared_ptr<Pending>> resolved;
    {
      std::unique_lock<std::mutex> lk(s.mu);
      s.cv.wait(lk, [&] {
        if (!s.inbox.empty()) {
          return true;
        }
        return stopping_.load() ? s.outstanding == 0 : s.outstanding < kMaxOutstanding;
      });
      resolved.swap(s.inbox);
    }
    for (const auto& p : resolved) {
      Handle(s, kv, *p);
    }
    if (stopping_.load()) {
      if (s.outstanding == 0) {
        return;
      }
      continue;
    }
    if (s.outstanding < kMaxOutstanding) {
      const Rng inputs(s.rng.NextU64());
      RunLogical(s, kv, inputs, /*first_begin_ns=*/0, /*replays=*/0);
    }
  }
}

void LoadGenerator::RunLogical(Session& s, SessionKv& kv, const Rng& inputs,
                               uint64_t first_begin_ns, int replays) {
  for (;; ++replays) {
    kv.StartLogical(first_begin_ns);
    Rng draw = inputs;
    const Status st = workload_.RunOne(kv, draw);
    first_begin_ns = kv.first_begin_ns();
    std::shared_ptr<Pending> p = kv.TakeSubmitted();
    if (st.ok() && p != nullptr) {
      p->session = s.index;
      p->inputs = inputs;
      p->replays = replays;
      ++s.outstanding;
      Submit(std::move(p));
      return;
    }
    // Aborted often enough to exhaust the workload's own in-body retries
    // (reads are refused while an epoch closes): replay, as for an abort at
    // the decision.
    const bool aborted = st.code() == StatusCode::kAborted;
    if (aborted && stopping_.load()) {
      return;
    }
    if (aborted && replays < kMaxReplays) {
      continue;
    }
    const uint64_t now = NowNanos();
    s.completions.push_back({now, now - first_begin_ns, false});
    return;
  }
}

void LoadGenerator::Handle(Session& s, SessionKv& kv, const Pending& p) {
  --s.outstanding;
  const uint64_t latency = p.decided_ns - p.first_begin_ns;
  if (!p.timed_out && p.outcome.ok()) {
    s.completions.push_back({p.decided_ns, latency, true});
    for (const auto& [key, value] : p.writes) {
      auto& latest = s.latest[key];
      if (p.ts >= latest.first) {
        latest = {p.ts, value};
      }
    }
    return;
  }
  const bool aborted = !p.timed_out && p.outcome.code() == StatusCode::kAborted;
  if (aborted && stopping_.load()) {
    return;  // abandoned at shutdown: outside the window, never counted
  }
  if (aborted && p.replays < kMaxReplays) {
    RunLogical(s, kv, p.inputs, p.first_begin_ns, p.replays + 1);
    return;
  }
  if (!aborted) {
    // No decision, or an error instead of one: the writes may or may not
    // have committed.
    for (const auto& [key, value] : p.writes) {
      s.unknown.insert(key);
    }
  }
  s.completions.push_back({p.decided_ns, latency, false});
}

void LoadGenerator::Submit(std::shared_ptr<Pending> p) {
  {
    std::lock_guard<std::mutex> lk(collector_mu_);
    submitted_.push_back(std::move(p));
  }
  collector_cv_.notify_one();
}

void LoadGenerator::CollectorLoop() {
  std::deque<std::shared_ptr<Pending>> waiting;  // request order
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(collector_mu_);
      if (waiting.empty()) {
        collector_cv_.wait(lk, [&] { return !submitted_.empty() || collector_stop_; });
        if (submitted_.empty()) {
          return;
        }
      }
      for (auto& p : submitted_) {
        waiting.push_back(std::move(p));
      }
      submitted_.clear();
    }
    // Block on the oldest decision, briefly, so new submissions and
    // decisions resolving out of request order are still picked up.
    waiting.front()->decision.wait_for(std::chrono::milliseconds(1));
    const uint64_t now = NowNanos();
    for (auto it = waiting.begin(); it != waiting.end();) {
      Pending& p = **it;
      const bool ready =
          p.decision.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
      if (!ready && now - p.commit_ns < kDecisionTimeoutNs) {
        ++it;
        continue;
      }
      p.decided_ns = now;
      if (ready) {
        p.outcome = p.decision.get();
        Tracer::Get().RecordSpan(kBenchCategory, "proxy.decision_wait", p.commit_ns,
                                 now - p.commit_ns);
      } else {
        p.timed_out = true;
      }
      Deliver(std::move(*it));
      it = waiting.erase(it);
    }
  }
}

void LoadGenerator::Deliver(std::shared_ptr<Pending> p) {
  Session& s = *sessions_[p->session];
  {
    std::lock_guard<std::mutex> lk(s.mu);
    s.inbox.push_back(std::move(p));
  }
  s.cv.notify_one();
}

std::vector<Completion> LoadGenerator::Completions() const {
  std::vector<Completion> out;
  for (const auto& s : sessions_) {
    out.insert(out.end(), s->completions.begin(), s->completions.end());
  }
  return out;
}

std::map<Key, std::string> LoadGenerator::ExpectedState() const {
  std::unordered_map<Key, std::pair<Timestamp, std::string>> latest;
  std::unordered_set<Key> unknown;
  for (const auto& s : sessions_) {
    for (const auto& [key, write] : s->latest) {
      auto& slot = latest[key];
      if (write.first >= slot.first) {
        slot = write;
      }
    }
    unknown.insert(s->unknown.begin(), s->unknown.end());
  }
  std::map<Key, std::string> out;
  for (auto& [key, write] : latest) {
    if (unknown.count(key) == 0) {
      out.emplace(key, std::move(write.second));
    }
  }
  return out;
}

StateCheck CheckState(ObladiStore& store,
                      const std::vector<std::pair<Key, std::string>>& expected, size_t threads) {
  // Reads are refused while an epoch closes, and a slow close can outlast
  // many rounds, so retries are bounded by time.
  const uint64_t deadline_ns = NowNanos() + 30'000'000'000ull;
  std::vector<StateCheck> partial(threads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      StateCheck& out = partial[t];
      std::vector<size_t> todo;
      for (size_t i = t; i < expected.size(); i += threads) {
        todo.push_back(i);
      }
      out.keys = todo.size();
      while (!todo.empty() && NowNanos() < deadline_ns) {
        std::vector<size_t> retry;
        std::vector<std::tuple<size_t, std::string, std::shared_future<Status>>> reads;
        for (size_t i : todo) {
          Timestamp ts = store.Begin();
          auto value = store.Read(ts, expected[i].first);
          if (!value.ok()) {
            store.Abort(ts);
            if (value.status().code() == StatusCode::kNotFound) {
              ++out.mismatched;
            } else {
              retry.push_back(i);
            }
            continue;
          }
          auto decision = store.CommitAsync(ts);
          if (!decision.ok()) {
            retry.push_back(i);
            continue;
          }
          reads.emplace_back(i, std::move(*value), std::move(*decision));
        }
        for (auto& [i, value, decision] : reads) {
          if (decision.wait_for(std::chrono::seconds(5)) != std::future_status::ready ||
              !decision.get().ok()) {
            retry.push_back(i);
          } else if (value == expected[i].second) {
            ++out.matched;
          } else {
            ++out.mismatched;
          }
        }
        todo = std::move(retry);
        if (!todo.empty()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }
      out.unreadable = todo.size();
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  StateCheck total;
  for (const StateCheck& p : partial) {
    total.keys += p.keys;
    total.matched += p.matched;
    total.mismatched += p.mismatched;
    total.unreadable += p.unreadable;
  }
  return total;
}

}  // namespace obladi::e2e
