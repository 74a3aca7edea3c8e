// Asynchronous request-id-multiplexed RPC client (wire v2).
//
// Rather than pinning one blocked thread to one connection per in-flight
// RPC, AsyncNetClient separates submission from completion: Submit()
// encodes the request, queues it on one of a few multiplexed connections,
// and returns immediately with a future; a single epoll event-loop thread
// (src/net/event_loop.h) moves all the bytes and pairs each returning frame
// with its pending request by id — responses may arrive in any order.
// Many RPCs can be outstanding with zero dedicated threads, though small
// concurrent ones on one socket finish no sooner than one batched request.
//
// Failure model: a connection loss fails every RPC pending on it *fast*
// (completions fire with Unavailable the moment the loop observes the
// error; nothing waits for a timeout), and the slot redials on the next
// submission. Call() retries idempotent requests once across a redial —
// except kLogAppend, which stays at-most-once: the server may have appended
// and died before answering, and a blind resend would duplicate the WAL
// record.
#ifndef OBLADI_SRC_NET_ASYNC_CLIENT_H_
#define OBLADI_SRC_NET_ASYNC_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/net/event_loop.h"
#include "src/net/wire.h"
#include "src/storage/latency_store.h"

namespace obladi {

// Call()-path retry policy: exponential backoff with jitter, a retry budget
// (token bucket) so a storm of failures cannot double traffic, and a
// per-node circuit breaker that fails fast while the node looks dead and
// probes it half-open after a cool-down. kLogAppend / kLogAppendSync are
// NEVER retried regardless of policy (at-most-once WAL appends).
struct RetryPolicy {
  // Total attempts per Call (1 = no retry). The historical behavior was one
  // transparent resubmission across a redial, i.e. max_attempts = 2.
  int max_attempts = 2;
  uint64_t initial_backoff_us = 500;
  uint64_t max_backoff_us = 50000;
  // Uniform jitter fraction applied to each backoff (0.5 = +/-50%).
  double jitter = 0.5;
  // Token bucket: every Call earns retry_budget_ratio tokens (capped); each
  // retry spends one. Bounds retry amplification under sustained failure.
  double retry_budget_ratio = 0.2;
  double retry_budget_cap = 10.0;
  // Consecutive Call-path transport failures before the breaker opens.
  // 0 disables the breaker.
  int breaker_failure_threshold = 5;
  // Open duration before a single half-open probe is let through.
  uint64_t breaker_open_ms = 200;
  uint64_t seed = 0x0b1ad1;  // jitter RNG (deterministic per client)
};

struct AsyncClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  // Multiplexed sockets. One already sustains hundreds of outstanding
  // requests; a second mainly buys head-of-line relief for huge frames.
  size_t num_connections = 1;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  // Per-connection send-queue cap (bytes); submitters block above it.
  size_t write_queue_cap = kDefaultWriteQueueCapBytes;
  // Default per-request deadline (0 = none). An expired request completes
  // with kDeadlineExceeded and its connection is torn down + redialed, so a
  // straggler reply can never poison the socket.
  uint64_t default_deadline_ms = 0;
  // Application-level heartbeat pings (0 = off): every interval each
  // connected slot is pinged with a deadline of heartbeat_timeout_ms; an
  // expired ping tears the (half-open) connection down.
  uint64_t heartbeat_interval_ms = 0;
  uint64_t heartbeat_timeout_ms = 1000;
  RetryPolicy retry;
};

// Completion handle for one submitted request.
class NetFuture {
 public:
  NetFuture();

  // Blocks until the response or transport failure lands.
  const StatusOr<NetResponse>& Wait() const;
  StatusOr<NetResponse> Take();  // Wait + move out
  bool Ready() const;

 private:
  friend class AsyncNetClient;
  struct State {
    mutable std::mutex mu;
    mutable std::condition_variable cv;
    bool done = false;
    StatusOr<NetResponse> result;
    State() : result(Status::Internal("pending")) {}
  };
  std::shared_ptr<State> state_;
};

// Drains completions in *arrival* order, whatever order requests were
// submitted in — the client-side analogue of an io_uring CQ ring. One queue
// may collect completions from many concurrent submitters.
class CompletionQueue {
 public:
  struct Completion {
    uint64_t tag = 0;  // caller-chosen, passed through Submit
    StatusOr<NetResponse> result;
    Completion() : result(Status::Internal("pending")) {}
  };

  // Blocks until one completion is available.
  Completion Next();
  // Blocks until n completions arrived; returns them in arrival order.
  std::vector<Completion> Drain(size_t n);
  size_t ready() const;

 private:
  friend class AsyncNetClient;
  void Push(uint64_t tag, StatusOr<NetResponse> result);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Completion> done_;
};

class AsyncNetClient {
 public:
  // Starts the event loop and verifies the server is reachable with a Ping.
  static StatusOr<std::shared_ptr<AsyncNetClient>> Connect(AsyncClientOptions options);

  explicit AsyncNetClient(AsyncClientOptions options);
  ~AsyncNetClient();

  AsyncNetClient(const AsyncNetClient&) = delete;
  AsyncNetClient& operator=(const AsyncNetClient&) = delete;

  Status Start();

  // Per-request deadline sentinel: "use options().default_deadline_ms".
  static constexpr uint64_t kUseDefaultDeadline = ~0ull;

  // Queue one request (fills req.id) and return its completion handle.
  // Submission blocks only on write-queue backpressure, never on the
  // response. The future completes from the event-loop thread. deadline_ms
  // overrides the client default (0 = no deadline for this request).
  NetFuture Submit(NetRequest req, uint64_t deadline_ms = kUseDefaultDeadline);
  // Completion-queue form: the result lands in `cq` tagged with `tag`.
  void Submit(NetRequest req, CompletionQueue* cq, uint64_t tag,
              uint64_t deadline_ms = kUseDefaultDeadline);
  // Callback form: `done` fires on the event-loop thread (or inline on a
  // submission failure). Keep it cheap; hand heavy work to a pool.
  using ResponseCallback = std::function<void(StatusOr<NetResponse>)>;
  void Submit(NetRequest req, ResponseCallback done,
              uint64_t deadline_ms = kUseDefaultDeadline);

  // Blocking convenience: Submit + Wait under the retry policy — exponential
  // backoff + jitter, retry budget, circuit breaker. Transport failures
  // (kUnavailable, kDeadlineExceeded) on idempotent types resubmit across a
  // redial up to retry.max_attempts; kLogAppend / kLogAppendSync stay
  // at-most-once. While the breaker is open, fails fast with Unavailable.
  StatusOr<NetResponse> Call(NetRequest req,
                             uint64_t deadline_ms = kUseDefaultDeadline);

  NetworkStats& stats() { return stats_; }
  const AsyncClientOptions& options() const { return options_; }

 private:
  // One multiplexed connection slot. generation increments per dial so
  // completions of a lost connection never touch its successor's pendings.
  struct Slot {
    std::mutex mu;
    uint64_t conn_id = 0;  // 0 = not connected
    uint64_t generation = 0;
    bool ever_connected = false;
  };
  struct Pending {
    MsgType type = MsgType::kPing;
    uint64_t id = 0;  // wire request id, the arg of the rpc span
    size_t slot = 0;
    uint64_t generation = 0;
    uint64_t submit_ns = 0;  // 0 unless the tracer was enabled at submit
    uint64_t deadline_ms = 0;      // resolved per-request deadline (0 = none)
    uint64_t deadline_timer = 0;   // loop timer id (0 = none armed)
    bool heartbeat = false;        // internal ping; failures count separately
    // Exactly one of fut / cq / callback is set (heartbeats set none).
    std::shared_ptr<NetFuture::State> fut;
    CompletionQueue* cq = nullptr;
    uint64_t tag = 0;
    ResponseCallback callback;
  };

  // force_slot pins the request to one connection slot (heartbeats);
  // allow_block=false skips write-queue backpressure, required when the
  // caller IS the event-loop thread (blocking there would deadlock the
  // drain).
  void SubmitEncoded(MsgType type, uint64_t id, const Bytes& payload, Pending p,
                     const size_t* force_slot = nullptr, bool allow_block = true);
  uint64_t ResolveDeadline(uint64_t deadline_ms) const {
    return deadline_ms == kUseDefaultDeadline ? options_.default_deadline_ms : deadline_ms;
  }
  // Deadline timer fired for request `id`: complete it with
  // kDeadlineExceeded and tear its connection down (loop thread).
  void OnDeadline(uint64_t id);
  // Heartbeat machinery (loop thread). Each tick pings every connected slot
  // with a deadline and re-arms itself.
  void ArmHeartbeat();
  void HeartbeatTick();
  // Circuit breaker (Call path). Allow returns false while open; Record
  // feeds attempt outcomes back.
  bool BreakerAllow();
  void BreakerRecord(bool success);
  // Retry budget: true if a retry token is available (and spends it).
  bool SpendRetryToken();
  uint64_t BackoffWithJitterUs(int attempt);
  // Dial slot `s` if it has no live connection. Caller holds slot.mu.
  Status EnsureConnectedLocked(size_t s, Slot& slot);
  void OnFrame(size_t s, uint64_t generation, Bytes payload);
  void OnClose(size_t s, uint64_t generation, const Status& reason);
  // Remove-and-complete: whoever erases the pending entry completes it.
  void Complete(Pending&& p, StatusOr<NetResponse> result);
  void FailPendingsOf(size_t s, uint64_t generation, const Status& reason);

  AsyncClientOptions options_;
  EventLoop loop_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> next_slot_{0};
  // RPCs submitted but not yet completed (every Pending passes through
  // Complete exactly once, so the pair balances on all paths).
  std::atomic<uint64_t> inflight_{0};
  NetworkStats stats_;

  std::vector<std::unique_ptr<Slot>> slots_;

  std::mutex pending_mu_;
  std::unordered_map<uint64_t, Pending> pending_;

  // Retry/breaker state (Call path). Guarded by policy_mu_.
  enum class BreakerState { kClosed, kOpen, kHalfOpen };
  std::mutex policy_mu_;
  BreakerState breaker_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  uint64_t breaker_opened_us_ = 0;
  bool probe_inflight_ = false;
  double retry_tokens_ = 0;
  std::mt19937_64 jitter_rng_;
};

}  // namespace obladi

#endif  // OBLADI_SRC_NET_ASYNC_CLIENT_H_
