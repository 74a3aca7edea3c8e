#include "src/net/storage_server.h"

#include <sys/socket.h>

#include <cstdio>
#include <utility>

#include "src/common/clock.h"
#include "src/obs/exporters.h"
#include "src/obs/trace.h"

namespace obladi {

StorageServer::StorageServer(std::shared_ptr<BucketStore> buckets,
                             std::shared_ptr<LogStore> log, StorageServerOptions options)
    : buckets_(std::move(buckets)), log_(std::move(log)), options_(std::move(options)) {}

StorageServer::~StorageServer() { Stop(); }

Status StorageServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already running");
  }
  auto listener = TcpListener::Listen(options_.host, options_.port);
  if (!listener.ok()) {
    return listener.status();
  }
  listener_ = std::move(*listener);
  workers_ = std::make_unique<ThreadPool>(options_.num_workers);
  if (options_.admin_listener && metrics_ == nullptr) {
    metrics_ = std::make_unique<MetricsRegistry>();
    metrics_->AddSource(
        [this](MetricsSink& sink) { ExportStorageServerStats(sink, stats_, {}); });
    // One service-time summary per request type, pre-registered so the
    // per-request lookup is a plain array index.
    for (uint8_t t = 1; t < op_histograms_.size(); ++t) {
      MsgType type = static_cast<MsgType>(t);
      if (type == MsgType::kResponse) {
        continue;
      }
      const char* name = MsgTypeName(type);
      if (name == nullptr) {
        continue;
      }
      op_histograms_[t] = &metrics_->GetHistogram(
          "server_op_service_time_us", {{"op", name}}, "per-op service time (us)");
    }
    AdminServerOptions opts;
    opts.host = options_.admin_host;
    opts.port = options_.admin_port;
    admin_ = std::make_unique<AdminServer>(opts, metrics_.get());
    Status st = admin_->Start();
    if (!st.ok()) {
      // A busy admin port must not take the storage node down.
      std::fprintf(stderr, "[obs] storage admin listener failed to start: %s\n",
                   st.message().c_str());
      admin_.reset();
    }
  }
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void StorageServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  listener_.Shutdown();
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    for (int fd : live_fds_) {
      ::shutdown(fd, SHUT_RDWR);
    }
  }
  if (acceptor_.joinable()) {
    acceptor_.join();
  }
  // Readers exit once their recv fails after the shutdown above (each first
  // drains its in-flight worker requests).
  {
    std::lock_guard<std::mutex> lk(readers_mu_);
    for (Reader& r : readers_) {
      if (r.thread.joinable()) {
        r.thread.join();
      }
    }
    readers_.clear();
  }
  workers_.reset();
  listener_.Close();
  admin_.reset();  // stop scrapes before a restart rebinds the port
}

void StorageServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    auto conn = listener_.Accept();
    if (!conn.ok()) {
      // Stop() shut the listener down, or a transient accept error (e.g.
      // EMFILE under fd exhaustion — back off instead of spinning a core).
      if (running_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      continue;
    }
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    auto state = std::make_shared<ConnState>();
    state->sock = std::move(*conn);
    {
      std::lock_guard<std::mutex> lk(conns_mu_);
      live_fds_.insert(state->sock.fd());
    }
    if (!running_.load(std::memory_order_acquire)) {
      // Stop() may have swept live_fds_ between our accept and the insert
      // above; without this re-check the reader would block in recv on a
      // socket nobody will ever shut down, and Stop() would hang joining it.
      state->sock.Shutdown();
    }
    // A dedicated reader per connection: it only reassembles frames and
    // enqueues work, so it costs a mostly-sleeping thread, and connections
    // are few (the async client multiplexes hundreds of RPCs over one).
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::lock_guard<std::mutex> lk(readers_mu_);
    for (auto it = readers_.begin(); it != readers_.end();) {
      if (it->done->load(std::memory_order_acquire)) {
        it->thread.join();
        it = readers_.erase(it);
      } else {
        ++it;
      }
    }
    readers_.push_back(Reader{std::thread([this, state, done] {
                                ReadLoop(state);
                                done->store(true, std::memory_order_release);
                              }),
                              done});
  }
}

void StorageServer::ReadLoop(const std::shared_ptr<ConnState>& conn) {
  while (running_.load(std::memory_order_acquire)) {
    auto frame = conn->sock.RecvFrame(options_.max_frame_bytes);
    if (!frame.ok()) {
      // Clean disconnect, shutdown, or an oversized/garbage frame; either
      // way this connection is done.
      if (frame.status().code() == StatusCode::kInvalidArgument) {
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
    stats_.bytes_received.fetch_add(frame->size() + 4, std::memory_order_relaxed);

    NetRequest req;
    Status decoded = DecodeRequest(*frame, &req);
    uint64_t seq = conn->next_seq.fetch_add(1, std::memory_order_relaxed) + 1;
    if (!decoded.ok()) {
      // Header (version, type, id) is the first thing decoded; a garbage
      // frame may still yield a usable id, so answer before closing. The
      // stream may be desynced, so do not trust anything after this frame.
      // Let in-flight requests finish first: their responses are valid and
      // the client is still pairing by id.
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      {
        std::unique_lock<std::mutex> lk(conn->flight_mu);
        conn->flight_cv.wait(lk, [&] { return conn->in_flight == 0; });
      }
      SendResponse(*conn, NetResponse::FromStatus(req, decoded), seq);
      break;
    }

    {
      std::lock_guard<std::mutex> lk(conn->flight_mu);
      ++conn->in_flight;
    }
    // Dispatch to the worker pool and go straight back to recv: frames keep
    // arriving while earlier requests execute, and their responses go out
    // in completion order.
    workers_->Enqueue([this, conn, req = std::move(req), seq]() mutable {
      ServeRequest(conn, std::move(req), seq);
    });
  }

  // Drain in-flight requests, then deregister and close. Deregister happens
  // before the socket closes so Stop() never shutdown()s a recycled fd.
  {
    std::unique_lock<std::mutex> lk(conn->flight_mu);
    conn->flight_cv.wait(lk, [&] { return conn->in_flight == 0; });
  }
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    live_fds_.erase(conn->sock.fd());
  }
  conn->sock.Close();
}

void StorageServer::ServeRequest(const std::shared_ptr<ConnState>& conn, NetRequest req,
                                 uint64_t seq) {
  size_t op = static_cast<size_t>(req.type);
  Histogram* service_time =
      op < op_histograms_.size() ? op_histograms_[op] : nullptr;
  uint64_t start_us = service_time != nullptr ? NowMicros() : 0;
  NetResponse resp;
  {
    OBS_SPAN_ARG("server", MsgTypeName(req.type), req.id);
    resp = Handle(req);
  }
  if (service_time != nullptr) {
    service_time->Record(NowMicros() - start_us);
  }
  stats_.requests_served.fetch_add(1, std::memory_order_relaxed);
  SendResponse(*conn, resp, seq);
  {
    std::lock_guard<std::mutex> lk(conn->flight_mu);
    --conn->in_flight;
  }
  conn->flight_cv.notify_all();
}

void StorageServer::SendResponse(ConnState& conn, const NetResponse& resp, uint64_t seq) {
  Bytes payload = EncodeResponse(resp);
  std::lock_guard<std::mutex> lk(conn.send_mu);
  // A reply whose frame arrived *after* one that has not replied yet means
  // completion order diverged from arrival order.
  uint64_t last = conn.last_replied_seq.load(std::memory_order_relaxed);
  if (seq < last) {
    stats_.out_of_order_replies.fetch_add(1, std::memory_order_relaxed);
  } else {
    conn.last_replied_seq.store(seq, std::memory_order_relaxed);
  }
  if (conn.sock.SendFrame(payload, options_.max_frame_bytes).ok()) {
    stats_.bytes_sent.fetch_add(payload.size() + 4, std::memory_order_relaxed);
  } else {
    // A response that cannot be sent (peer gone, or the frame exceeds the
    // size cap) leaves its request id unanswered forever on a connection
    // that pairs by id — kill the stream so the client's fail-fast path
    // fires instead. Shutdown unblocks the reader; it drains and closes.
    conn.sock.Shutdown();
  }
}

NetResponse StorageServer::Handle(NetRequest& req) {
  NetResponse resp;
  resp.id = req.id;
  resp.request_type = req.type;

  bool is_log_rpc = (req.type >= MsgType::kLogAppend && req.type <= MsgType::kLogNextLsn) ||
                    req.type == MsgType::kLogAppendSync;
  if (is_log_rpc && !log_) {
    return NetResponse::FromStatus(
        req, Status::FailedPrecondition("no log store attached to this server"));
  }

  switch (req.type) {
    case MsgType::kReadSlots: {
      auto results = buckets_->ReadSlotsBatch(req.reads);
      resp.reads.reserve(results.size());
      for (auto& result : results) {
        ReadResult read;
        if (result.ok()) {
          read.payload = std::move(*result);
        } else {
          read.code = result.status().code();
          read.message = result.status().message();
        }
        resp.reads.push_back(std::move(read));
      }
      break;
    }
    case MsgType::kReadPathsXor: {
      // One backend batch for ALL paths' slots (the storage touch pattern —
      // and its round-trip count — is identical to kReadSlots); the XOR
      // reduction happens here on the worker pool, so only headers plus one
      // body per path travel back.
      std::vector<SlotRef> flat;
      for (const PathSlots& path : req.path_reads) {
        flat.insert(flat.end(), path.slots.begin(), path.slots.end());
      }
      auto slots = buckets_->ReadSlotsBatch(flat);
      resp.xor_reads.reserve(req.path_reads.size());
      size_t next = 0;
      for (const PathSlots& path : req.path_reads) {
        std::vector<StatusOr<Bytes>> mine(
            std::make_move_iterator(slots.begin() + static_cast<ptrdiff_t>(next)),
            std::make_move_iterator(slots.begin() +
                                    static_cast<ptrdiff_t>(next + path.slots.size())));
        next += path.slots.size();
        auto combined = BucketStore::XorCombineSlots(mine, req.xor_header_bytes,
                                                     req.xor_trailer_bytes);
        XorReadResult read;
        if (combined.ok()) {
          read.headers = std::move(combined->headers);
          read.body_xor = std::move(combined->body_xor);
        } else {
          read.code = combined.status().code();
          read.message = combined.status().message();
        }
        resp.xor_reads.push_back(std::move(read));
      }
      break;
    }
    case MsgType::kWriteBuckets: {
      Status st = buckets_->WriteBucketsBatch(std::move(req.writes));
      if (!st.ok()) {
        return NetResponse::FromStatus(req, st);
      }
      break;
    }
    case MsgType::kTruncateBucket: {
      Status st = buckets_->TruncateBucket(req.bucket, req.keep_from_version);
      if (!st.ok()) {
        return NetResponse::FromStatus(req, st);
      }
      break;
    }
    case MsgType::kTruncateBucketsBatch: {
      Status st = buckets_->TruncateBucketsBatch(req.truncates);
      if (!st.ok()) {
        return NetResponse::FromStatus(req, st);
      }
      break;
    }
    case MsgType::kNumBuckets:
      resp.u64 = buckets_->num_buckets();
      break;
    case MsgType::kLogAppend: {
      auto lsn = log_->Append(std::move(req.record));
      if (!lsn.ok()) {
        return NetResponse::FromStatus(req, lsn.status());
      }
      resp.u64 = *lsn;
      break;
    }
    case MsgType::kLogAppendSync: {
      // Fused durable append: the reply implies the record is synced, so the
      // client's one round trip buys full durability.
      auto lsn = log_->AppendSync(std::move(req.record));
      if (!lsn.ok()) {
        return NetResponse::FromStatus(req, lsn.status());
      }
      resp.u64 = *lsn;
      break;
    }
    case MsgType::kLogSync: {
      Status st = log_->Sync();
      if (!st.ok()) {
        return NetResponse::FromStatus(req, st);
      }
      break;
    }
    case MsgType::kLogReadAll: {
      auto records = log_->ReadAll();
      if (!records.ok()) {
        return NetResponse::FromStatus(req, records.status());
      }
      resp.records = std::move(*records);
      break;
    }
    case MsgType::kLogTruncate: {
      Status st = log_->Truncate(req.lsn);
      if (!st.ok()) {
        return NetResponse::FromStatus(req, st);
      }
      break;
    }
    case MsgType::kLogNextLsn:
      resp.u64 = log_->NextLsn();
      break;
    case MsgType::kPing:
      break;
    case MsgType::kResponse:
      return NetResponse::FromStatus(req, Status::InvalidArgument("response sent as request"));
  }
  return resp;
}

}  // namespace obladi
