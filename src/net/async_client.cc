#include "src/net/async_client.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "src/common/clock.h"
#include "src/obs/trace.h"

namespace obladi {

// --- NetFuture --------------------------------------------------------------

NetFuture::NetFuture() : state_(std::make_shared<State>()) {}

const StatusOr<NetResponse>& NetFuture::Wait() const {
  std::unique_lock<std::mutex> lk(state_->mu);
  state_->cv.wait(lk, [&] { return state_->done; });
  return state_->result;
}

StatusOr<NetResponse> NetFuture::Take() {
  std::unique_lock<std::mutex> lk(state_->mu);
  state_->cv.wait(lk, [&] { return state_->done; });
  return std::move(state_->result);
}

bool NetFuture::Ready() const {
  std::lock_guard<std::mutex> lk(state_->mu);
  return state_->done;
}

// --- CompletionQueue --------------------------------------------------------

void CompletionQueue::Push(uint64_t tag, StatusOr<NetResponse> result) {
  // Notify while holding the lock: a drainer may destroy this queue the
  // moment its predicate is satisfiable, so the notify must not touch cv_
  // after the drainer can wake.
  std::lock_guard<std::mutex> lk(mu_);
  Completion c;
  c.tag = tag;
  c.result = std::move(result);
  done_.push_back(std::move(c));
  cv_.notify_all();
}

CompletionQueue::Completion CompletionQueue::Next() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return !done_.empty(); });
  Completion c = std::move(done_.front());
  done_.pop_front();
  return c;
}

std::vector<CompletionQueue::Completion> CompletionQueue::Drain(size_t n) {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return done_.size() >= n; });
  std::vector<Completion> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(std::move(done_.front()));
    done_.pop_front();
  }
  return out;
}

size_t CompletionQueue::ready() const {
  std::lock_guard<std::mutex> lk(mu_);
  return done_.size();
}

// --- AsyncNetClient ---------------------------------------------------------

AsyncNetClient::AsyncNetClient(AsyncClientOptions options)
    : options_(std::move(options)), jitter_rng_(options_.retry.seed) {
  size_t n = options_.num_connections == 0 ? 1 : options_.num_connections;
  slots_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
  // The bucket starts full so the first failures of a run may retry.
  retry_tokens_ = options_.retry.retry_budget_cap;
}

AsyncNetClient::~AsyncNetClient() {
  // Stopping the loop kills every connection, which routes through OnClose
  // and fails everything still pending — no waiter is left hanging.
  loop_.Stop();
}

Status AsyncNetClient::Start() {
  OBLADI_RETURN_IF_ERROR(loop_.Start());
  ArmHeartbeat();
  return Status::Ok();
}

StatusOr<std::shared_ptr<AsyncNetClient>> AsyncNetClient::Connect(AsyncClientOptions options) {
  auto client = std::make_shared<AsyncNetClient>(std::move(options));
  OBLADI_RETURN_IF_ERROR(client->Start());
  NetRequest ping;
  ping.type = MsgType::kPing;
  auto resp = client->Call(std::move(ping));
  if (!resp.ok()) {
    return resp.status();
  }
  Status st = resp->ToStatus();
  if (!st.ok()) {
    return st;
  }
  return client;
}

Status AsyncNetClient::EnsureConnectedLocked(size_t s, Slot& slot) {
  if (slot.conn_id != 0) {
    return Status::Ok();
  }
  auto sock = TcpSocket::Connect(options_.host, options_.port);
  if (!sock.ok()) {
    return sock.status();
  }
  uint64_t generation = ++slot.generation;
  EventLoop::ConnectionHandlers handlers;
  handlers.on_frame = [this, s, generation](Bytes payload) {
    OnFrame(s, generation, std::move(payload));
  };
  handlers.on_close = [this, s, generation](const Status& reason) {
    OnClose(s, generation, reason);
  };
  auto conn = loop_.AddConnection(std::move(*sock), std::move(handlers),
                                  options_.max_frame_bytes, options_.write_queue_cap);
  if (!conn.ok()) {
    return conn.status();
  }
  slot.conn_id = *conn;
  if (slot.ever_connected) {
    stats_.reconnects.fetch_add(1, std::memory_order_relaxed);
  }
  slot.ever_connected = true;
  return Status::Ok();
}

NetFuture AsyncNetClient::Submit(NetRequest req, uint64_t deadline_ms) {
  NetFuture fut;
  req.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  Pending p;
  p.fut = fut.state_;
  p.deadline_ms = ResolveDeadline(deadline_ms);
  SubmitEncoded(req.type, req.id, EncodeRequest(req), std::move(p));
  return fut;
}

void AsyncNetClient::Submit(NetRequest req, CompletionQueue* cq, uint64_t tag,
                            uint64_t deadline_ms) {
  req.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  Pending p;
  p.cq = cq;
  p.tag = tag;
  p.deadline_ms = ResolveDeadline(deadline_ms);
  SubmitEncoded(req.type, req.id, EncodeRequest(req), std::move(p));
}

void AsyncNetClient::Submit(NetRequest req, ResponseCallback done, uint64_t deadline_ms) {
  req.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  Pending p;
  p.callback = std::move(done);
  p.deadline_ms = ResolveDeadline(deadline_ms);
  SubmitEncoded(req.type, req.id, EncodeRequest(req), std::move(p));
}

void AsyncNetClient::SubmitEncoded(MsgType type, uint64_t id, const Bytes& payload,
                                   Pending p, const size_t* force_slot, bool allow_block) {
  p.type = type;
  p.id = id;
  const uint64_t deadline_ms = p.deadline_ms;
  Tracer& tracer = Tracer::Get();
  uint64_t inflight = inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (tracer.enabled()) {
    // Submit->complete latency span, recorded at completion (rpc category,
    // named by message type, arg = wire request id).
    p.submit_ns = NowNanos();
    tracer.RecordCounter("net", "net.rpc_inflight", inflight);
  }
  size_t s = force_slot != nullptr
                 ? *force_slot
                 : next_slot_.fetch_add(1, std::memory_order_relaxed) % slots_.size();
  Slot& slot = *slots_[s];

  // slot.mu serializes dialing and keeps the (conn_id, generation) pair
  // coherent for the pending entry; it is NOT held across the response.
  std::unique_lock<std::mutex> lk(slot.mu);
  if (p.heartbeat && slot.conn_id == 0) {
    // Heartbeats probe existing connections only — dialing would block the
    // event-loop thread they run on.
    lk.unlock();
    Complete(std::move(p), Status::Unavailable("heartbeat: slot not connected"));
    return;
  }
  Status st = p.heartbeat ? Status::Ok() : EnsureConnectedLocked(s, slot);
  if (!st.ok()) {
    lk.unlock();
    Complete(std::move(p), st);
    return;
  }
  p.slot = s;
  p.generation = slot.generation;
  const uint64_t generation = slot.generation;
  uint64_t conn_id = slot.conn_id;
  {
    // Register before sending: on a loopback the response can land before
    // SendFrame even returns.
    std::lock_guard<std::mutex> plk(pending_mu_);
    pending_.emplace(id, std::move(p));
  }
  // Drop slot.mu before touching the wire: SendFrame can block on
  // backpressure, and its fatal-send path runs KillConnection -> on_close
  // -> OnClose on THIS thread, which relocks slot.mu (self-deadlock if
  // still held). The pending entry is already registered, so the races
  // this opens are the ones the whoever-erases-completes protocol handles.
  lk.unlock();
  st = loop_.SendFrame(conn_id, payload, allow_block);
  if (st.ok()) {
    // Wire-layer accounting (frame + 4-byte length prefix), mirroring the
    // server's bytes_received counter for the same frame.
    stats_.bytes_sent.fetch_add(payload.size() + 4, std::memory_order_relaxed);
    if (deadline_ms > 0) {
      uint64_t tid = loop_.AddTimer(deadline_ms, [this, id] { OnDeadline(id); });
      if (tid != 0) {
        // Attach the timer to the pending entry so Complete can cancel it.
        // On a loopback the response may already have won the race; then
        // the entry is gone and the timer is cancelled straight away.
        bool attached = false;
        {
          std::lock_guard<std::mutex> plk(pending_mu_);
          auto it = pending_.find(id);
          if (it != pending_.end() && it->second.slot == s &&
              it->second.generation == generation) {
            it->second.deadline_timer = tid;
            attached = true;
          }
        }
        if (!attached) {
          loop_.CancelTimer(tid);
        }
      }
    }
  }
  if (!st.ok()) {
    // The connection died underneath us. OnClose may have raced us to the
    // pending entry; whoever erases it completes it.
    Pending mine;
    bool still_pending = false;
    {
      std::lock_guard<std::mutex> plk(pending_mu_);
      auto it = pending_.find(id);
      if (it != pending_.end()) {
        mine = std::move(it->second);
        pending_.erase(it);
        still_pending = true;
      }
    }
    if (still_pending) {
      Complete(std::move(mine), st);
    }
  }
}

StatusOr<NetResponse> AsyncNetClient::Call(NetRequest req, uint64_t deadline_ms) {
  // Every request type is idempotent (reads, versioned bucket writes,
  // truncations, sync) EXCEPT kLogAppend / kLogAppendSync, which must stay
  // at-most-once — the server may have appended and died before answering,
  // and a duplicate WAL record would corrupt recovery.
  const bool retryable =
      req.type != MsgType::kLogAppend && req.type != MsgType::kLogAppendSync;
  const RetryPolicy& rp = options_.retry;
  {
    // Each Call deposits a fraction of a retry token; each retry spends a
    // whole one, so retries stay a bounded fraction of offered load.
    std::lock_guard<std::mutex> lk(policy_mu_);
    retry_tokens_ = std::min(rp.retry_budget_cap, retry_tokens_ + rp.retry_budget_ratio);
  }
  req.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  Bytes payload = EncodeRequest(req);
  const uint64_t resolved = ResolveDeadline(deadline_ms);
  const int max_attempts = retryable ? std::max(1, rp.max_attempts) : 1;
  StatusOr<NetResponse> result(Status::Internal("not attempted"));
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (!BreakerAllow()) {
      return Status::Unavailable("circuit breaker open: " + options_.host + ":" +
                                 std::to_string(options_.port));
    }
    NetFuture fut;
    {
      Pending p;
      p.fut = fut.state_;
      p.deadline_ms = resolved;
      // Reusing the encoded payload and id across attempts is safe: the
      // previous attempt's pending entry is gone before resubmission, so
      // the id cannot collide.
      SubmitEncoded(req.type, req.id, payload, std::move(p));
    }
    result = fut.Take();
    // A response carrying an application error is a transport SUCCESS —
    // the node is alive; retrying or tripping the breaker would be wrong.
    const bool transport_failure =
        !result.ok() && (result.status().code() == StatusCode::kUnavailable ||
                         result.status().code() == StatusCode::kDeadlineExceeded);
    BreakerRecord(!transport_failure);
    if (!transport_failure) {
      return result;
    }
    if (attempt + 1 >= max_attempts || !SpendRetryToken()) {
      break;
    }
    stats_.retries.fetch_add(1, std::memory_order_relaxed);
    uint64_t backoff_us = BackoffWithJitterUs(attempt);
    if (backoff_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    }
  }
  return result;
}

void AsyncNetClient::OnDeadline(uint64_t id) {
  Pending p;
  bool found = false;
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    auto it = pending_.find(id);
    if (it != pending_.end()) {
      p = std::move(it->second);
      pending_.erase(it);
      found = true;
    }
  }
  if (!found) {
    return;  // the response won the race
  }
  stats_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
  if (p.heartbeat) {
    stats_.heartbeat_failures.fetch_add(1, std::memory_order_relaxed);
  }
  // Tear the connection down: a straggler reply for this id must never be
  // paired with anything later, and the other requests stuck behind the
  // same silent peer fail fast (via OnClose) instead of each waiting out
  // its own deadline. The slot redials on the next submission.
  uint64_t conn_id = 0;
  {
    Slot& slot = *slots_[p.slot];
    std::lock_guard<std::mutex> lk(slot.mu);
    if (slot.generation == p.generation) {
      conn_id = slot.conn_id;
    }
  }
  std::string what = std::string(MsgTypeName(p.type)) + " deadline expired after " +
                     std::to_string(p.deadline_ms) + "ms";
  p.deadline_timer = 0;  // this timer already fired; nothing to cancel
  Complete(std::move(p), Status::DeadlineExceeded(what));
  if (conn_id != 0) {
    loop_.CloseConnection(conn_id,
                          Status::Unavailable("connection torn down after request deadline"));
  }
}

void AsyncNetClient::ArmHeartbeat() {
  if (options_.heartbeat_interval_ms == 0) {
    return;
  }
  // Returns 0 once the loop stops; the chain simply ends there.
  loop_.AddTimer(options_.heartbeat_interval_ms, [this] { HeartbeatTick(); });
}

void AsyncNetClient::HeartbeatTick() {
  NetRequest ping;
  ping.type = MsgType::kPing;
  for (size_t s = 0; s < slots_.size(); ++s) {
    {
      std::lock_guard<std::mutex> lk(slots_[s]->mu);
      if (slots_[s]->conn_id == 0) {
        continue;  // probe existing connections only; never dial from here
      }
    }
    ping.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    Pending p;
    p.heartbeat = true;
    p.deadline_ms = options_.heartbeat_timeout_ms;
    stats_.heartbeats_sent.fetch_add(1, std::memory_order_relaxed);
    // allow_block=false: this runs on the event-loop thread, and blocking
    // on write-queue backpressure here would deadlock the drain.
    SubmitEncoded(MsgType::kPing, ping.id, EncodeRequest(ping), std::move(p), &s,
                  /*allow_block=*/false);
  }
  ArmHeartbeat();
}

bool AsyncNetClient::BreakerAllow() {
  const RetryPolicy& rp = options_.retry;
  if (rp.breaker_failure_threshold <= 0) {
    return true;
  }
  std::lock_guard<std::mutex> lk(policy_mu_);
  switch (breaker_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (NowMicros() - breaker_opened_us_ >= rp.breaker_open_ms * 1000) {
        breaker_ = BreakerState::kHalfOpen;
        probe_inflight_ = true;
        return true;  // this caller is the half-open probe
      }
      return false;
    case BreakerState::kHalfOpen:
      if (!probe_inflight_) {
        probe_inflight_ = true;
        return true;
      }
      return false;  // one probe at a time
  }
  return true;
}

void AsyncNetClient::BreakerRecord(bool success) {
  const RetryPolicy& rp = options_.retry;
  if (rp.breaker_failure_threshold <= 0) {
    return;
  }
  std::lock_guard<std::mutex> lk(policy_mu_);
  probe_inflight_ = false;
  if (success) {
    breaker_ = BreakerState::kClosed;
    consecutive_failures_ = 0;
    return;
  }
  if (breaker_ == BreakerState::kHalfOpen) {
    // The probe failed: back to open for another cool-down.
    breaker_ = BreakerState::kOpen;
    breaker_opened_us_ = NowMicros();
    stats_.breaker_open.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ++consecutive_failures_;
  if (breaker_ == BreakerState::kClosed &&
      consecutive_failures_ >= rp.breaker_failure_threshold) {
    breaker_ = BreakerState::kOpen;
    breaker_opened_us_ = NowMicros();
    stats_.breaker_open.fetch_add(1, std::memory_order_relaxed);
  }
}

bool AsyncNetClient::SpendRetryToken() {
  std::lock_guard<std::mutex> lk(policy_mu_);
  if (retry_tokens_ < 1.0) {
    return false;
  }
  retry_tokens_ -= 1.0;
  return true;
}

uint64_t AsyncNetClient::BackoffWithJitterUs(int attempt) {
  const RetryPolicy& rp = options_.retry;
  double base = static_cast<double>(rp.initial_backoff_us) * std::pow(2.0, attempt);
  base = std::min(base, static_cast<double>(rp.max_backoff_us));
  double j = std::clamp(rp.jitter, 0.0, 1.0);
  std::lock_guard<std::mutex> lk(policy_mu_);
  std::uniform_real_distribution<double> dist(1.0 - j, 1.0 + j);
  return static_cast<uint64_t>(base * dist(jitter_rng_));
}

void AsyncNetClient::OnFrame(size_t s, uint64_t generation, Bytes payload) {
  stats_.bytes_received.fetch_add(payload.size() + 4, std::memory_order_relaxed);
  MsgType type;
  uint64_t id = 0;
  Status peeked = PeekHeader(payload, &type, &id);

  Pending p;
  bool found = false;
  if (peeked.ok() && type == MsgType::kResponse) {
    std::lock_guard<std::mutex> lk(pending_mu_);
    auto it = pending_.find(id);
    if (it != pending_.end() && it->second.slot == s && it->second.generation == generation) {
      p = std::move(it->second);
      pending_.erase(it);
      found = true;
    }
  }
  if (!found) {
    // Unparseable header or an id we never sent: the stream can no longer
    // be trusted. Closing fails everything pending on this connection.
    uint64_t conn_id;
    {
      Slot& slot = *slots_[s];
      std::lock_guard<std::mutex> lk(slot.mu);
      conn_id = slot.generation == generation ? slot.conn_id : 0;
    }
    if (conn_id != 0) {
      loop_.CloseConnection(conn_id,
                            Status::Internal("response for unknown request id (desync)"));
    }
    return;
  }

  NetResponse resp;
  Status decoded = DecodeResponse(payload, p.type, &resp);
  if (!decoded.ok()) {
    Complete(std::move(p), decoded);
    return;
  }
  stats_.round_trips.fetch_add(1, std::memory_order_relaxed);
  Complete(std::move(p), std::move(resp));
}

void AsyncNetClient::OnClose(size_t s, uint64_t generation, const Status& reason) {
  {
    Slot& slot = *slots_[s];
    std::lock_guard<std::mutex> lk(slot.mu);
    if (slot.generation == generation) {
      slot.conn_id = 0;  // next submission redials
    }
  }
  FailPendingsOf(s, generation,
                 reason.ok() ? Status::Unavailable("connection closed") : reason);
}

void AsyncNetClient::FailPendingsOf(size_t s, uint64_t generation, const Status& reason) {
  // Fail fast: every request in flight on the lost connection completes
  // *now* with Unavailable — callers never wait out a timeout for a socket
  // that is already gone.
  std::vector<Pending> lost;
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.slot == s && it->second.generation == generation) {
        lost.push_back(std::move(it->second));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }
  Status unavailable = reason.code() == StatusCode::kUnavailable
                           ? reason
                           : Status::Unavailable(reason.message().empty()
                                                     ? "connection closed"
                                                     : reason.message());
  for (Pending& p : lost) {
    Complete(std::move(p), unavailable);
  }
}

void AsyncNetClient::Complete(Pending&& p, StatusOr<NetResponse> result) {
  if (p.deadline_timer != 0) {
    // Harmless if the timer already fired: OnDeadline only completes
    // entries it erased itself, and a fired timer id no longer cancels.
    loop_.CancelTimer(p.deadline_timer);
  }
  uint64_t inflight = inflight_.fetch_sub(1, std::memory_order_relaxed) - 1;
  if (p.submit_ns != 0) {
    Tracer& tracer = Tracer::Get();
    if (tracer.enabled()) {
      tracer.RecordSpanArg("rpc", MsgTypeName(p.type), p.submit_ns,
                           NowNanos() - p.submit_ns, p.id);
      tracer.RecordCounter("net", "net.rpc_inflight", inflight);
    }
  }
  if (p.callback) {
    p.callback(std::move(result));
    return;
  }
  if (p.cq != nullptr) {
    p.cq->Push(p.tag, std::move(result));
    return;
  }
  if (p.fut != nullptr) {
    {
      std::lock_guard<std::mutex> lk(p.fut->mu);
      p.fut->result = std::move(result);
      p.fut->done = true;
    }
    p.fut->cv.notify_all();
  }
}

}  // namespace obladi
