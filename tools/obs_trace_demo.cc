// obs_trace_demo: drives a full loopback deployment (pipelined K-shard
// proxy -> remote async stores -> storage server behind a simulated node
// latency) with the whole observability stack armed — span tracer, metrics
// registries + admin listeners on both tiers, and the trace-shape watchdog
// fed live wire bytes — then:
//
//   * writes the flight recorder as Chrome trace-event JSON (--out), ready
//     for https://ui.perfetto.dev; a pipelined run shows epoch N's
//     retirement overlapping epoch N+1's execution,
//   * performs a live Prometheus scrape of both admin listeners over real
//     TCP and prints a digest,
//   * exits non-zero if the watchdog flagged any trace-shape violation.
//
// With --inject-violation it instead runs the watchdog self-test: feed one
// deliberately mis-padded per-shard sub-batch and require the watchdog to
// catch it (exit 0 iff caught).
//
//   obs_trace_demo [--seconds=S] [--shards=K] [--out=PATH]
//                  [--inject-violation]
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/net/remote_store.h"
#include "src/net/socket.h"
#include "src/net/storage_server.h"
#include "src/obs/trace.h"
#include "src/obs/watchdog.h"
#include "src/proxy/obladi_store.h"
#include "src/storage/latency_store.h"
#include "src/storage/memory_store.h"

namespace {

bool ParseFlag(const std::string& arg, const char* name, std::string& out) {
  std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) {
    return false;
  }
  out = arg.substr(prefix.size());
  return true;
}

}  // namespace

namespace obladi {
namespace {

std::string HttpGet(uint16_t port, const std::string& path) {
  auto sock = TcpSocket::Connect("127.0.0.1", port);
  if (!sock.ok()) {
    return "";
  }
  std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (!sock->SendAll(reinterpret_cast<const uint8_t*>(req.data()), req.size()).ok()) {
    return "";
  }
  std::string out;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(sock->fd(), buf, sizeof(buf), 0);
    if (n <= 0) {
      break;
    }
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

int Run(uint32_t shards, double seconds, const std::string& out_path,
        bool inject_violation) {
  ObladiConfig config = ObladiConfig::ForCapacity(512, /*z=*/4, /*payload=*/128);
  config.num_shards = shards;
  config.read_batches_per_epoch = 2;
  config.read_batch_size = 8;
  config.write_batch_size = 8;
  config.batch_interval_us = 2500;
  config.timed_mode = true;
  config.recovery.enabled = true;  // the checkpoint append is part of the tail
  config.oram_options.io_threads = 8;
  config.obs.trace = true;
  config.obs.metrics = true;
  config.obs.admin_listener = true;
  config.obs.watchdog = true;

  // Storage node with a small service time: the retirement tail (write-back
  // wave + checkpoint append + truncate) then takes long enough that the
  // pipeline visibly overlaps it with the next epoch's execution.
  LatencyProfile node{"node500us", 500, 500, 0};
  auto buckets = std::make_shared<MemoryBucketStore>(
      config.StoreBuckets(), config.MakeLayout().shard_config.slots_per_bucket());
  auto log = std::make_shared<MemoryLogStore>();
  StorageServerOptions server_opts;
  server_opts.num_workers = 24;
  server_opts.admin_listener = true;
  StorageServer server(std::make_shared<LatencyBucketStore>(buckets, node),
                       std::make_shared<LatencyLogStore>(log, node), server_opts);
  Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
    return 2;
  }

  RemoteStoreOptions opts;
  opts.port = server.port();
  auto remote_buckets = RemoteBucketStore::Connect(opts);
  auto remote_log = RemoteLogStore::Connect(opts);
  if (!remote_buckets.ok() || !remote_log.ok()) {
    std::fprintf(stderr, "connect failed\n");
    return 2;
  }
  std::shared_ptr<RemoteBucketStore> rbuckets = std::move(*remote_buckets);
  std::shared_ptr<RemoteLogStore> rlog = std::move(*remote_log);
  // The proxy wires the watchdog's wire-byte band to its remote stores'
  // transport counters by default — no manual SetWireByteSource needed.
  ObladiStore proxy(config, rbuckets, rlog);

  std::vector<std::pair<Key, std::string>> records;
  for (int i = 0; i < 256; ++i) {
    records.emplace_back("key" + std::to_string(i), "value" + std::to_string(i));
  }
  st = proxy.Load(records);
  if (!st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    return 2;
  }

  if (inject_violation) {
    // Self-test: a sub-batch that dodges the padded quota must be flagged.
    size_t quota = config.read_quota();
    uint64_t before = proxy.watchdog()->violations();
    proxy.watchdog()->ObserveShardBatch(0, quota + 3);
    proxy.watchdog()->ResetEpoch();  // don't poison the shutdown epoch tally
    if (proxy.watchdog()->violations() != before + 1) {
      std::fprintf(stderr, "watchdog MISSED an injected quota violation\n");
      return 3;
    }
    std::printf("watchdog caught the injected quota violation: %s\n",
                proxy.watchdog()->recent_violations().back().c_str());
    return 0;
  }

  proxy.Start();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(0xb0b + c);
      while (!stop.load(std::memory_order_relaxed)) {
        std::string key = "key" + std::to_string(rng.Uniform(256));
        Timestamp t = proxy.Begin();
        auto v = proxy.Read(t, key);
        if (!v.ok()) {
          proxy.Abort(t);
          std::this_thread::sleep_for(std::chrono::microseconds(500));
          continue;
        }
        if (!proxy.Write(t, key, *v + "!").ok() || !proxy.Commit(t).ok()) {
          proxy.Abort(t);
          continue;
        }
        committed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<uint64_t>(seconds * 1e6)));

  // Live scrapes while traffic is still flowing — this is the deployment's
  // actual pull path, not a post-mortem dump.
  std::string proxy_scrape = HttpGet(proxy.admin_port(), "/metrics");
  std::string server_scrape = HttpGet(server.admin_port(), "/metrics");

  stop.store(true);
  for (auto& c : clients) {
    c.join();
  }
  proxy.Stop();
  (void)proxy.DrainRetirement();

  ObladiStats stats = proxy.stats();
  std::printf("run: %llu committed, %llu epochs, %llu overlapped, watchdog: %llu "
              "epochs checked, %llu violations\n",
              static_cast<unsigned long long>(committed.load()),
              static_cast<unsigned long long>(stats.epochs),
              static_cast<unsigned long long>(stats.epochs_overlapped),
              static_cast<unsigned long long>(proxy.watchdog()->epochs_checked()),
              static_cast<unsigned long long>(proxy.watchdog()->violations()));

  auto digest = [](const char* who, const std::string& scrape) {
    if (scrape.find(" 200 ") == std::string::npos) {
      std::fprintf(stderr, "%s scrape failed\n", who);
      return false;
    }
    size_t lines = 0;
    for (char ch : scrape) {
      lines += ch == '\n' ? 1 : 0;
    }
    std::printf("%s scrape: HTTP 200, %zu lines, %zu bytes\n", who, lines,
                scrape.size());
    return true;
  };
  bool scrapes_ok = digest("proxy", proxy_scrape);
  scrapes_ok = digest("server", server_scrape) && scrapes_ok;
  if (proxy_scrape.find("obs_watchdog_violations_total") == std::string::npos ||
      server_scrape.find("server_op_service_time_us") == std::string::npos) {
    std::fprintf(stderr, "scrape missing expected metric families\n");
    scrapes_ok = false;
  }

  Status wrote = Tracer::Get().WriteChromeTrace(out_path);
  if (!wrote.ok()) {
    std::fprintf(stderr, "trace write failed: %s\n", wrote.ToString().c_str());
    return 2;
  }
  std::printf("wrote %s (%zu events)\n", out_path.c_str(),
              Tracer::Get().CollectedCount());

  if (proxy.watchdog()->violations() != 0) {
    for (const auto& v : proxy.watchdog()->recent_violations()) {
      std::fprintf(stderr, "violation: %s\n", v.c_str());
    }
    return 4;
  }
  return scrapes_ok ? 0 : 5;
}

}  // namespace
}  // namespace obladi

int main(int argc, char** argv) {
  double seconds = 1.0;
  uint32_t shards = 4;
  std::string out_path = "obs_trace.json";
  bool inject = false;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (ParseFlag(arg, "seconds", value)) {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (ParseFlag(arg, "shards", value)) {
      shards = static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (ParseFlag(arg, "out", value)) {
      out_path = value;
    } else if (arg == "--inject-violation") {
      inject = true;
    } else {
      std::fprintf(stderr,
                   "usage: obs_trace_demo [--seconds=S] [--shards=K] [--out=PATH] "
                   "[--inject-violation]\n");
      return 2;
    }
  }
  return obladi::Run(shards, seconds, out_path, inject);
}
