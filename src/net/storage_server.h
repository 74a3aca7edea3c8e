// StorageServer: exposes any BucketStore + LogStore backend over TCP.
//
// This is the untrusted half of Obladi's deployment split (§5): the proxy
// process holds all secrets and client state; this server holds only
// ciphertexts and MACed log records, so it can run anywhere cloud storage
// runs. It speaks the src/net/wire.h protocol.
//
// Threading (wire v2, multiplexed): one accept-loop thread; one lightweight
// reader thread per connection that does nothing but reassemble frames and
// hand each decoded request to the shared worker pool; workers execute
// against the backend and reply under a per-connection send lock — in
// completion order, NOT arrival order. Handlers of one connection overlap,
// but its reader takes frames one by one (a trace showed them ~0.1 ms
// apart), so clients send a stage as one batched request, not many small.
// Batched ReadSlots / WriteBuckets / TruncateBuckets requests hit the
// backend's batched entry points and are answered in a single round trip.
//
// Stop() (or destruction) shuts down the listener and every live
// connection, drains in-flight requests, then joins all threads; the
// backing stores are untouched, so a new StorageServer over the same stores
// models a storage-node restart — clients reconnect and resume (net_test
// exercises this).
#ifndef OBLADI_SRC_NET_STORAGE_SERVER_H_
#define OBLADI_SRC_NET_STORAGE_SERVER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/obs/admin_server.h"
#include "src/obs/metrics.h"
#include "src/storage/bucket_store.h"

namespace obladi {

struct StorageServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read the bound port back via port()
  // Max concurrently *executing* requests across all connections (requests
  // beyond this queue in the pool). This bounds backend concurrency, not
  // connection count — one multiplexed connection can keep every worker
  // busy. Provision it to the storage node's parallelism.
  size_t num_workers = 16;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  // Optional Prometheus scrape listener (GET /metrics): per-op service-time
  // summaries plus the counters in StorageServerStats. Off by default —
  // enabling it adds one histogram record per request served.
  bool admin_listener = false;
  std::string admin_host = "127.0.0.1";
  uint16_t admin_port = 0;  // 0 = ephemeral; read back via admin_port()
};

struct StorageServerStats {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> requests_served{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> bytes_received{0};
  std::atomic<uint64_t> bytes_sent{0};
  // Responses that overtook an earlier request's response on the same
  // connection — direct evidence of multiplexed out-of-order completion.
  std::atomic<uint64_t> out_of_order_replies{0};
};

class StorageServer {
 public:
  // `log` may be nullptr: log RPCs then fail with FailedPrecondition
  // (a bucket-only storage node).
  StorageServer(std::shared_ptr<BucketStore> buckets, std::shared_ptr<LogStore> log,
                StorageServerOptions options = {});
  ~StorageServer();

  StorageServer(const StorageServer&) = delete;
  StorageServer& operator=(const StorageServer&) = delete;

  // Bind + listen + launch the accept loop. Fails if the port is taken.
  Status Start();
  // Idempotent. Closes the listener and all live connections, joins all
  // threads. In-flight requests on the client side fail with Unavailable.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  uint16_t port() const { return listener_.port(); }
  const StorageServerStats& stats() const { return stats_; }
  // Null/0 unless options.admin_listener is set (and the listener bound).
  MetricsRegistry* metrics() { return metrics_.get(); }
  uint16_t admin_port() const { return admin_ ? admin_->port() : 0; }

 private:
  // Per-connection state shared between the reader thread and the worker
  // tasks serving its requests. Workers reply under send_mu, so responses
  // from concurrent requests interleave whole-frame at a time.
  struct ConnState {
    TcpSocket sock;
    std::mutex send_mu;
    // In-flight request accounting: the reader drains to zero before
    // closing, so a response is never written to a dead socket by surprise.
    std::mutex flight_mu;
    std::condition_variable flight_cv;
    size_t in_flight = 0;
    // Frame arrival order vs. reply order (out_of_order_replies evidence).
    std::atomic<uint64_t> next_seq{0};
    std::atomic<uint64_t> last_replied_seq{0};
  };

  void AcceptLoop();
  void ReadLoop(const std::shared_ptr<ConnState>& conn);
  void ServeRequest(const std::shared_ptr<ConnState>& conn, NetRequest req, uint64_t seq);
  void SendResponse(ConnState& conn, const NetResponse& resp, uint64_t seq);
  NetResponse Handle(NetRequest& req);

  std::shared_ptr<BucketStore> buckets_;
  std::shared_ptr<LogStore> log_;
  StorageServerOptions options_;

  TcpListener listener_;
  std::thread acceptor_;
  std::unique_ptr<ThreadPool> workers_;
  std::atomic<bool> running_{false};

  // Reader threads, one per accepted connection. Finished readers are
  // reaped on the next accept (so a long-lived server does not accumulate
  // one dead thread per connection ever served); the rest join at Stop().
  struct Reader {
    std::thread thread;
    // Set as the reader's last action: joining a done reader is instant.
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::mutex readers_mu_;
  std::vector<Reader> readers_;

  // Live connection fds, tracked so Stop() can unblock their recv()s.
  std::mutex conns_mu_;
  std::unordered_set<int> live_fds_;

  StorageServerStats stats_;

  // Scrape plumbing (admin_listener only). Histogram pointers are stable
  // for the registry's lifetime; indexed by MsgType value for a lock-free
  // per-request lookup.
  std::unique_ptr<MetricsRegistry> metrics_;
  std::array<Histogram*, 16> op_histograms_{};
  std::unique_ptr<AdminServer> admin_;
};

}  // namespace obladi

#endif  // OBLADI_SRC_NET_STORAGE_SERVER_H_
