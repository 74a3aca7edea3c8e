// Tests for the src/net/ remote storage subsystem: wire-protocol framing
// (including fuzzed garbage), loopback unary/batched round trips, error
// propagation through the server, async multiplexing (out-of-order
// responses, interleaved frames, fail-fast redial, event-loop
// backpressure), storage-node restart, batched GC round trips, and the full
// K-shard proxy epoch pipeline over a loopback RemoteBucketStore +
// RemoteLogStore.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <thread>

#include "src/fault/fault_relay.h"
#include "src/net/async_client.h"
#include "src/net/replicated_store.h"
#include "src/net/event_loop.h"
#include "src/net/remote_store.h"
#include "src/net/storage_server.h"
#include "src/net/wire.h"
#include "src/proxy/obladi_store.h"
#include "src/storage/latency_store.h"
#include "src/storage/memory_store.h"
#include "tests/gc_probe.h"
#include "tests/paced_proxy.h"
#include "tests/store_conformance.h"

namespace obladi {
namespace {

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

TEST(WireTest, RequestRoundTripsEveryType) {
  NetRequest read;
  read.type = MsgType::kReadSlots;
  read.id = 42;
  read.reads = {{3, 1, 7}, {0, 0, 0}, {9999, 0xffffffff, 11}};

  NetRequest write;
  write.type = MsgType::kWriteBuckets;
  write.id = 43;
  BucketImage image;
  image.bucket = 5;
  image.version = 2;
  image.slots = {BytesFromString("slot-a"), Bytes{}, Bytes(300, 0xee)};
  write.writes.push_back(image);

  NetRequest trunc;
  trunc.type = MsgType::kTruncateBucket;
  trunc.id = 44;
  trunc.bucket = 17;
  trunc.keep_from_version = 6;

  NetRequest append;
  append.type = MsgType::kLogAppend;
  append.id = 45;
  append.record = BytesFromString("wal record");

  NetRequest log_trunc;
  log_trunc.type = MsgType::kLogTruncate;
  log_trunc.id = 46;
  log_trunc.lsn = 0xdeadbeefcafe;

  NetRequest trunc_batch;
  trunc_batch.type = MsgType::kTruncateBucketsBatch;
  trunc_batch.id = 47;
  trunc_batch.truncates = {{0, 1}, {17, 6}, {0xffffffff, 0xffffffff}};

  NetRequest xor_read;
  xor_read.type = MsgType::kReadPathsXor;
  xor_read.id = 48;
  xor_read.xor_header_bytes = 12;
  xor_read.xor_trailer_bytes = 32;
  xor_read.path_reads.resize(2);
  xor_read.path_reads[0].slots = {{1, 0, 3}, {2, 4, 0}, {9, 1, 7}};
  xor_read.path_reads[1].slots = {{0, 0, 0}};

  NetRequest fused_append;
  fused_append.type = MsgType::kLogAppendSync;
  fused_append.id = 49;
  fused_append.record = BytesFromString("durable in one round trip");

  for (const NetRequest* req :
       {&read, &write, &trunc, &append, &log_trunc, &trunc_batch, &xor_read, &fused_append}) {
    Bytes payload = EncodeRequest(*req);
    NetRequest decoded;
    ASSERT_TRUE(DecodeRequest(payload, &decoded).ok()) << MsgTypeName(req->type);
    EXPECT_EQ(decoded.type, req->type);
    EXPECT_EQ(decoded.id, req->id);
  }

  // Spot-check field fidelity on the interesting ones.
  NetRequest decoded;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(read), &decoded).ok());
  ASSERT_EQ(decoded.reads.size(), 3u);
  EXPECT_EQ(decoded.reads[2].bucket, 9999u);
  EXPECT_EQ(decoded.reads[2].version, 0xffffffffu);

  ASSERT_TRUE(DecodeRequest(EncodeRequest(write), &decoded).ok());
  ASSERT_EQ(decoded.writes.size(), 1u);
  EXPECT_EQ(decoded.writes[0].slots, image.slots);

  ASSERT_TRUE(DecodeRequest(EncodeRequest(log_trunc), &decoded).ok());
  EXPECT_EQ(decoded.lsn, 0xdeadbeefcafeull);

  ASSERT_TRUE(DecodeRequest(EncodeRequest(trunc_batch), &decoded).ok());
  ASSERT_EQ(decoded.truncates.size(), 3u);
  EXPECT_EQ(decoded.truncates[1].bucket, 17u);
  EXPECT_EQ(decoded.truncates[1].keep_from_version, 6u);
  EXPECT_EQ(decoded.truncates[2].bucket, 0xffffffffu);

  ASSERT_TRUE(DecodeRequest(EncodeRequest(xor_read), &decoded).ok());
  EXPECT_EQ(decoded.xor_header_bytes, 12u);
  EXPECT_EQ(decoded.xor_trailer_bytes, 32u);
  ASSERT_EQ(decoded.path_reads.size(), 2u);
  ASSERT_EQ(decoded.path_reads[0].slots.size(), 3u);
  EXPECT_EQ(decoded.path_reads[0].slots[1].bucket, 2u);
  EXPECT_EQ(decoded.path_reads[0].slots[1].version, 4u);
  EXPECT_EQ(decoded.path_reads[1].slots[0].slot, 0u);

  ASSERT_TRUE(DecodeRequest(EncodeRequest(fused_append), &decoded).ok());
  EXPECT_EQ(StringFromBytes(decoded.record), "durable in one round trip");

  // The async client pairs out-of-order responses by peeking the header.
  MsgType peeked_type;
  uint64_t peeked_id = 0;
  ASSERT_TRUE(PeekHeader(EncodeRequest(trunc_batch), &peeked_type, &peeked_id).ok());
  EXPECT_EQ(peeked_type, MsgType::kTruncateBucketsBatch);
  EXPECT_EQ(peeked_id, 47u);
  EXPECT_FALSE(PeekHeader(Bytes{kWireVersion}, &peeked_type, &peeked_id).ok());
}

TEST(WireTest, ResponseRoundTripsResultBodies) {
  NetResponse reads;
  reads.id = 7;
  reads.request_type = MsgType::kReadSlots;
  reads.reads.push_back(ReadResult{StatusCode::kOk, "", BytesFromString("payload")});
  reads.reads.push_back(ReadResult{StatusCode::kNotFound, "bucket version not present", {}});

  Bytes payload = EncodeResponse(reads);
  NetResponse decoded;
  ASSERT_TRUE(DecodeResponse(payload, MsgType::kReadSlots, &decoded).ok());
  EXPECT_EQ(decoded.id, 7u);
  ASSERT_EQ(decoded.reads.size(), 2u);
  EXPECT_TRUE(decoded.reads[0].ToStatusOr().ok());
  auto missing = decoded.reads[1].ToStatusOr();
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(missing.status().message(), "bucket version not present");

  NetResponse err;
  err.id = 8;
  err.request_type = MsgType::kWriteBuckets;
  err.code = StatusCode::kInvalidArgument;
  err.message = "bucket out of range";
  ASSERT_TRUE(DecodeResponse(EncodeResponse(err), MsgType::kWriteBuckets, &decoded).ok());
  EXPECT_EQ(decoded.ToStatus().code(), StatusCode::kInvalidArgument);

  NetResponse records;
  records.id = 9;
  records.request_type = MsgType::kLogReadAll;
  records.records = {BytesFromString("a"), Bytes{}, BytesFromString("ccc")};
  ASSERT_TRUE(DecodeResponse(EncodeResponse(records), MsgType::kLogReadAll, &decoded).ok());
  ASSERT_EQ(decoded.records.size(), 3u);
  EXPECT_TRUE(decoded.records[1].empty());

  NetResponse xor_resp;
  xor_resp.id = 10;
  xor_resp.request_type = MsgType::kReadPathsXor;
  xor_resp.xor_reads.push_back(
      XorReadResult{StatusCode::kOk, "", Bytes(88, 0x11), Bytes(256, 0x22)});
  xor_resp.xor_reads.push_back(
      XorReadResult{StatusCode::kNotFound, "bucket version not present", {}, {}});
  ASSERT_TRUE(DecodeResponse(EncodeResponse(xor_resp), MsgType::kReadPathsXor, &decoded).ok());
  ASSERT_EQ(decoded.xor_reads.size(), 2u);
  auto ok_path = decoded.xor_reads[0].ToStatusOr();
  ASSERT_TRUE(ok_path.ok());
  EXPECT_EQ(ok_path->headers.size(), 88u);
  EXPECT_EQ(ok_path->body_xor.size(), 256u);
  auto missing_path = decoded.xor_reads[1].ToStatusOr();
  EXPECT_EQ(missing_path.status().code(), StatusCode::kNotFound);

  NetResponse fused;
  fused.id = 11;
  fused.request_type = MsgType::kLogAppendSync;
  fused.u64 = 0x123456789abcull;
  ASSERT_TRUE(DecodeResponse(EncodeResponse(fused), MsgType::kLogAppendSync, &decoded).ok());
  EXPECT_EQ(decoded.u64, 0x123456789abcull);
}

TEST(WireTest, RejectsMalformedPayloads) {
  NetRequest req;
  // Empty and sub-header payloads.
  EXPECT_FALSE(DecodeRequest(Bytes{}, &req).ok());
  EXPECT_FALSE(DecodeRequest(Bytes{kWireVersion}, &req).ok());
  // Wrong version.
  Bytes good = EncodeRequest(NetRequest{});
  Bytes bad_version = good;
  bad_version[0] = kWireVersion + 1;
  EXPECT_FALSE(DecodeRequest(bad_version, &req).ok());
  // Unknown message type.
  Bytes bad_type = good;
  bad_type[1] = 200;
  EXPECT_FALSE(DecodeRequest(bad_type, &req).ok());
  // Trailing garbage after a valid body.
  Bytes trailing = good;
  trailing.push_back(0x5a);
  EXPECT_FALSE(DecodeRequest(trailing, &req).ok());
  // A batch whose element count exceeds the payload (would otherwise
  // reserve gigabytes).
  NetRequest batch;
  batch.type = MsgType::kReadSlots;
  batch.reads = {{1, 1, 1}};
  Bytes huge_count = EncodeRequest(batch);
  huge_count[10] = 0xff;  // count field starts right after the 10-byte header
  huge_count[11] = 0xff;
  huge_count[12] = 0xff;
  huge_count[13] = 0xff;
  EXPECT_FALSE(DecodeRequest(huge_count, &req).ok());
  // Responses must not decode as requests and vice versa.
  NetResponse resp;
  EXPECT_FALSE(DecodeRequest(EncodeResponse(NetResponse{}), &req).ok());
  EXPECT_FALSE(DecodeResponse(good, MsgType::kPing, &resp).ok());
}

TEST(WireTest, FuzzedBytesNeverCrashTheDecoder) {
  std::mt19937_64 rng(0x0b1ad1f00d);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<size_t> len(0, 512);
  for (int i = 0; i < 20000; ++i) {
    Bytes payload(len(rng));
    for (auto& b : payload) {
      b = static_cast<uint8_t>(byte(rng));
    }
    NetRequest req;
    (void)DecodeRequest(payload, &req);
    NetResponse resp;
    (void)DecodeResponse(payload, MsgType::kReadSlots, &resp);
    (void)DecodeResponse(payload, MsgType::kLogReadAll, &resp);
    (void)DecodeResponse(payload, MsgType::kReadPathsXor, &resp);
    (void)DecodeResponse(payload, MsgType::kLogAppendSync, &resp);
  }
  // Mutated valid frames: flip bytes of real messages.
  NetRequest write;
  write.type = MsgType::kWriteBuckets;
  BucketImage image;
  image.bucket = 1;
  image.version = 1;
  image.slots = {Bytes(64, 0xab), Bytes(64, 0xcd)};
  write.writes = {image, image};
  Bytes base = EncodeRequest(write);
  std::uniform_int_distribution<size_t> pos(0, base.size() - 1);
  for (int i = 0; i < 20000; ++i) {
    Bytes mutated = base;
    for (int flips = 0; flips < 3; ++flips) {
      mutated[pos(rng)] = static_cast<uint8_t>(byte(rng));
    }
    NetRequest req;
    Status st = DecodeRequest(mutated, &req);
    if (st.ok()) {
      // A surviving decode must at least be internally consistent.
      EXPECT_EQ(req.type, MsgType::kWriteBuckets);
    }
  }
}

// v3 ops under the same mutation harness: flipped counts, truncated header
// buffers, and short XOR replies must decode to errors, never crash or
// over-reserve.
TEST(WireTest, FuzzedV3FramesNeverCrashTheDecoder) {
  std::mt19937_64 rng(0x0b1ad1f00e);
  std::uniform_int_distribution<int> byte(0, 255);

  NetRequest xor_req;
  xor_req.type = MsgType::kReadPathsXor;
  xor_req.xor_header_bytes = 12;
  xor_req.xor_trailer_bytes = 32;
  xor_req.path_reads.resize(3);
  for (auto& path : xor_req.path_reads) {
    path.slots = {{1, 0, 2}, {2, 0, 5}, {4, 1, 0}};
  }
  Bytes xor_base = EncodeRequest(xor_req);
  std::uniform_int_distribution<size_t> xor_pos(0, xor_base.size() - 1);
  for (int i = 0; i < 10000; ++i) {
    Bytes mutated = xor_base;
    for (int flips = 0; flips < 3; ++flips) {
      mutated[xor_pos(rng)] = static_cast<uint8_t>(byte(rng));
    }
    NetRequest req;
    Status st = DecodeRequest(mutated, &req);
    if (st.ok()) {
      EXPECT_EQ(req.type, MsgType::kReadPathsXor);
    }
  }

  NetResponse xor_resp;
  xor_resp.id = 12;
  xor_resp.request_type = MsgType::kReadPathsXor;
  xor_resp.xor_reads.push_back(
      XorReadResult{StatusCode::kOk, "", Bytes(132, 0x31), Bytes(96, 0x32)});
  xor_resp.xor_reads.push_back(
      XorReadResult{StatusCode::kOk, "", Bytes(44, 0x33), Bytes(96, 0x34)});
  Bytes resp_base = EncodeResponse(xor_resp);
  std::uniform_int_distribution<size_t> resp_pos(0, resp_base.size() - 1);
  for (int i = 0; i < 10000; ++i) {
    Bytes mutated = resp_base;
    for (int flips = 0; flips < 3; ++flips) {
      mutated[resp_pos(rng)] = static_cast<uint8_t>(byte(rng));
    }
    NetResponse resp;
    (void)DecodeResponse(mutated, MsgType::kReadPathsXor, &resp);
  }
  // Truncations at every boundary (short headers, cut body_xor, half an
  // entry): all must be rejected cleanly.
  for (size_t cut = 0; cut < resp_base.size(); cut += 7) {
    Bytes truncated(resp_base.begin(), resp_base.begin() + static_cast<ptrdiff_t>(cut));
    NetResponse resp;
    EXPECT_FALSE(DecodeResponse(truncated, MsgType::kReadPathsXor, &resp).ok());
  }

  NetRequest fused;
  fused.type = MsgType::kLogAppendSync;
  fused.record = Bytes(128, 0x55);
  Bytes fused_base = EncodeRequest(fused);
  std::uniform_int_distribution<size_t> fused_pos(0, fused_base.size() - 1);
  for (int i = 0; i < 10000; ++i) {
    Bytes mutated = fused_base;
    for (int flips = 0; flips < 3; ++flips) {
      mutated[fused_pos(rng)] = static_cast<uint8_t>(byte(rng));
    }
    NetRequest req;
    Status st = DecodeRequest(mutated, &req);
    if (st.ok()) {
      // A type-byte flip can legally land on kLogAppend: the two append
      // forms share the `bytes record` body. Anything else must not parse.
      EXPECT_TRUE(req.type == MsgType::kLogAppendSync || req.type == MsgType::kLogAppend);
    }
  }
}

// ---------------------------------------------------------------------------
// Loopback server fixture
// ---------------------------------------------------------------------------

struct LoopbackEnv {
  std::shared_ptr<MemoryBucketStore> buckets;
  std::shared_ptr<MemoryLogStore> log;
  std::unique_ptr<StorageServer> server;

  RemoteStoreOptions ClientOptions() const {
    RemoteStoreOptions opts;
    opts.port = server->port();
    return opts;
  }
};

LoopbackEnv StartLoopback(size_t num_buckets = 64, size_t slots = 4,
                          std::shared_ptr<BucketStore> backend = nullptr) {
  LoopbackEnv env;
  env.buckets = std::make_shared<MemoryBucketStore>(num_buckets, slots);
  env.log = std::make_shared<MemoryLogStore>();
  StorageServerOptions opts;
  env.server = std::make_unique<StorageServer>(
      backend ? backend : std::static_pointer_cast<BucketStore>(env.buckets), env.log, opts);
  Status st = env.server->Start();
  EXPECT_TRUE(st.ok()) << st.ToString();
  return env;
}

TEST(StorageServerTest, UnaryRoundTrips) {
  auto env = StartLoopback();
  auto store = RemoteBucketStore::Connect(env.ClientOptions());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->num_buckets(), 64u);

  std::vector<Bytes> slots(4, BytesFromString("ciphertext"));
  ASSERT_TRUE((*store)->WriteBucket(3, 1, slots).ok());
  auto read = (*store)->ReadSlot(3, 1, 2);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(StringFromBytes(*read), "ciphertext");

  // The write really landed in the server's backing store.
  EXPECT_TRUE(env.buckets->ReadSlot(3, 1, 0).ok());

  ASSERT_TRUE((*store)->TruncateBucket(3, 2).ok());
  EXPECT_FALSE((*store)->ReadSlot(3, 1, 2).ok());
}

TEST(StorageServerTest, ServerSideErrorsPropagateWithCodeAndMessage) {
  auto env = StartLoopback();
  auto store = RemoteBucketStore::Connect(env.ClientOptions());
  ASSERT_TRUE(store.ok());

  auto missing = (*store)->ReadSlot(0, 99, 0);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(missing.status().message(), "bucket version not present");

  Status bad = (*store)->WriteBucket(9999, 0, std::vector<Bytes>(4));
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);

  // Log RPCs against a server without a log store.
  auto bucket_only = std::make_unique<StorageServer>(env.buckets, nullptr);
  ASSERT_TRUE(bucket_only->Start().ok());
  RemoteStoreOptions opts;
  opts.port = bucket_only->port();
  auto log = RemoteLogStore::Connect(opts);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->Append(BytesFromString("x")).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(StorageServerTest, BatchedRpcIsOneRoundTrip) {
  auto env = StartLoopback(128, 4);
  auto store = RemoteBucketStore::Connect(env.ClientOptions());
  ASSERT_TRUE(store.ok());
  (*store)->stats().Reset();

  std::vector<BucketImage> images;
  for (BucketIndex b = 0; b < 32; ++b) {
    BucketImage image;
    image.bucket = b;
    image.version = 0;
    image.slots = std::vector<Bytes>(4, Bytes(128, static_cast<uint8_t>(b)));
    images.push_back(std::move(image));
  }
  ASSERT_TRUE((*store)->WriteBucketsBatch(std::move(images)).ok());
  EXPECT_EQ((*store)->stats().writes.load(), 32u);
  EXPECT_EQ((*store)->stats().round_trips.load(), 1u);

  std::vector<SlotRef> refs;
  for (BucketIndex b = 0; b < 32; ++b) {
    refs.push_back({b, 0, b % 4});
  }
  auto results = (*store)->ReadSlotsBatch(refs);
  ASSERT_EQ(results.size(), 32u);
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    ASSERT_FALSE((*results[i]).empty());
    EXPECT_EQ((*results[i])[0], static_cast<uint8_t>(i));
  }
  EXPECT_EQ((*store)->stats().reads.load(), 32u);
  EXPECT_EQ((*store)->stats().round_trips.load(), 2u);
  EXPECT_EQ((*store)->stats().bytes_read.load(), 32u * 128u);
  EXPECT_EQ((*store)->stats().bytes_written.load(), 32u * 4u * 128u);
}

// The tentpole claim, measured on a real socket: a path read via
// kReadPathsXor downloads one body + per-slot headers instead of every slot
// ciphertext. With 1 KB slots and 11-slot paths that is ~an order of
// magnitude fewer bytes received for the same slots touched.
TEST(XorPathReadTest, ShrinksDownloadBytesOnTheWire) {
  const size_t kSlotBytes = 1024;
  const size_t kPathLen = 11;
  auto env = StartLoopback(kPathLen + 1, 4);
  auto store = RemoteBucketStore::Connect(env.ClientOptions());
  ASSERT_TRUE(store.ok());
  for (BucketIndex b = 0; b < kPathLen; ++b) {
    std::vector<Bytes> slots(4, Bytes(kSlotBytes, static_cast<uint8_t>(b)));
    ASSERT_TRUE((*store)->WriteBucket(b, 0, std::move(slots)).ok());
  }
  PathSlots path;
  for (BucketIndex b = 0; b < kPathLen; ++b) {
    path.slots.push_back(SlotRef{b, 0, b % 4});
  }

  (*store)->stats().Reset();
  auto plain = (*store)->ReadSlotsBatch(path.slots);
  for (const auto& r : plain) {
    ASSERT_TRUE(r.ok());
  }
  uint64_t plain_bytes = (*store)->stats().bytes_received.load();

  const uint32_t h = 12, t = 32;
  (*store)->stats().Reset();
  auto xr = (*store)->ReadPathsXor({path}, h, t);
  ASSERT_EQ(xr.size(), 1u);
  ASSERT_TRUE(xr[0].ok()) << xr[0].status().ToString();
  uint64_t xor_bytes = (*store)->stats().bytes_received.load();

  // Reconstruction agrees with the local fold of the slot-by-slot reads.
  auto expected = BucketStore::XorCombineSlots(plain, h, t);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(xr[0]->headers, expected->headers);
  EXPECT_EQ(xr[0]->body_xor, expected->body_xor);

  EXPECT_GE(plain_bytes, kPathLen * kSlotBytes);
  EXPECT_LE(xor_bytes, kSlotBytes + kPathLen * (h + t) + 128);
  EXPECT_LT(xor_bytes * 5, plain_bytes) << "XOR read did not shrink the download";
}

// Fused append: one round trip makes the record durable (the server syncs
// before replying), vs two for Append + Sync.
TEST(StorageServerTest, FusedAppendSyncIsOneDurableRoundTrip) {
  auto env = StartLoopback();
  auto log = RemoteLogStore::Connect(env.ClientOptions());
  ASSERT_TRUE(log.ok());

  size_t syncs_before = env.log->SyncCount();
  (*log)->stats().Reset();
  auto lsn = (*log)->AppendSync(BytesFromString("plan-record"));
  ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
  EXPECT_EQ((*log)->stats().round_trips.load(), 1u);
  EXPECT_EQ(env.log->SyncCount(), syncs_before + 1);
  auto all = env.log->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(StringFromBytes(all->back()), "plan-record");
}

TEST(AsyncClientTest, OneConnectionOverlapsConcurrentRequests) {
  // Put a 20 ms latency decorator *behind* the server and submit 8 reads
  // with zero extra client threads. They overlap because the server
  // dispatches concurrent frames to its worker pool — frames from a single
  // multiplexed connection, and frames spread round-robin over several.
  auto slow = std::make_shared<MemoryBucketStore>(16, 2);
  ASSERT_TRUE(slow->WriteBucket(0, 0, std::vector<Bytes>(2, Bytes(8, 1))).ok());
  LatencyProfile profile{"test", 20000, 20000, 0};
  auto env = StartLoopback(16, 2, std::make_shared<LatencyBucketStore>(slow, profile));

  for (size_t connections : {1, 4}) {
    SCOPED_TRACE(connections);
    auto opts = env.ClientOptions();
    opts.num_connections = connections;
    auto store = RemoteBucketStore::Connect(opts);
    ASSERT_TRUE(store.ok());

    auto start = std::chrono::steady_clock::now();
    CompletionQueue cq;
    for (uint64_t i = 0; i < 8; ++i) {
      NetRequest req;
      req.type = MsgType::kReadSlots;
      req.reads = {{0, 0, 0}};
      (*store)->client()->Submit(std::move(req), &cq, i);
    }
    auto completions = cq.Drain(8);
    auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    for (const auto& c : completions) {
      ASSERT_TRUE(c.result.ok()) << c.result.status().ToString();
      EXPECT_TRUE(c.result->ToStatus().ok());
    }
    // Serial would be >= 160 ms; overlapped should be a small multiple of
    // one 20 ms service time.
    EXPECT_LT(elapsed_ms, 120) << "concurrent requests did not overlap";
  }
}

// ---------------------------------------------------------------------------
// Multiplexing edge cases
// ---------------------------------------------------------------------------

// ReadSlot against bucket 0 stalls; every other bucket answers immediately.
// Forces deterministic response reordering on one connection.
class StallBucket0Store : public BucketStore {
 public:
  StallBucket0Store(std::shared_ptr<BucketStore> base, int delay_ms)
      : base_(std::move(base)), delay_ms_(delay_ms) {}

  StatusOr<Bytes> ReadSlot(BucketIndex bucket, uint32_t version, SlotIndex slot) override {
    if (bucket == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    }
    return base_->ReadSlot(bucket, version, slot);
  }
  Status WriteBucket(BucketIndex bucket, uint32_t version, std::vector<Bytes> slots) override {
    return base_->WriteBucket(bucket, version, std::move(slots));
  }
  Status TruncateBucket(BucketIndex bucket, uint32_t keep_from_version) override {
    return base_->TruncateBucket(bucket, keep_from_version);
  }
  size_t num_buckets() const override { return base_->num_buckets(); }

 private:
  std::shared_ptr<BucketStore> base_;
  int delay_ms_;
};

TEST(AsyncClientTest, OutOfOrderResponsesOnOneConnection) {
  auto backing = std::make_shared<MemoryBucketStore>(16, 2);
  ASSERT_TRUE(backing->WriteBucket(0, 0, std::vector<Bytes>(2, Bytes(8, 0xaa))).ok());
  ASSERT_TRUE(backing->WriteBucket(1, 0, std::vector<Bytes>(2, Bytes(8, 0xbb))).ok());
  auto env = StartLoopback(16, 2, std::make_shared<StallBucket0Store>(backing, 200));

  AsyncClientOptions opts;
  opts.port = env.server->port();
  opts.num_connections = 1;
  auto client = AsyncNetClient::Connect(opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Submit the slow read FIRST, then the fast one, on the same socket. The
  // fast response must overtake the slow one.
  CompletionQueue cq;
  NetRequest slow;
  slow.type = MsgType::kReadSlots;
  slow.reads = {{0, 0, 0}};
  (*client)->Submit(std::move(slow), &cq, /*tag=*/0);
  NetRequest fast;
  fast.type = MsgType::kReadSlots;
  fast.reads = {{1, 0, 0}};
  (*client)->Submit(std::move(fast), &cq, /*tag=*/1);

  auto completions = cq.Drain(2);
  ASSERT_TRUE(completions[0].result.ok());
  ASSERT_TRUE(completions[1].result.ok());
  EXPECT_EQ(completions[0].tag, 1u) << "fast response did not overtake the stalled one";
  EXPECT_EQ(completions[1].tag, 0u);
  EXPECT_EQ(completions[0].result->reads[0].payload[0], 0xbb);
  EXPECT_EQ(completions[1].result->reads[0].payload[0], 0xaa);
  EXPECT_GE(env.server->stats().out_of_order_replies.load(), 1u);
}

TEST(AsyncClientTest, InterleavedBatchAndUnaryFramesStayPairedById) {
  // Batches and unary requests from several threads share ONE multiplexed
  // connection; every response must land with its own request, whatever
  // order the server finishes them in.
  auto env = StartLoopback(128, 4);
  for (BucketIndex b = 0; b < 128; ++b) {
    ASSERT_TRUE(
        env.buckets->WriteBucket(b, 0, std::vector<Bytes>(4, Bytes(8, static_cast<uint8_t>(b))))
            .ok());
  }
  auto opts = env.ClientOptions();
  opts.num_connections = 1;
  auto store = RemoteBucketStore::Connect(opts);
  ASSERT_TRUE(store.ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(0x5eed + static_cast<uint64_t>(t));
      for (int iter = 0; iter < 25; ++iter) {
        // One batch of 16 random slots...
        std::vector<SlotRef> refs;
        for (int i = 0; i < 16; ++i) {
          refs.push_back({static_cast<BucketIndex>(rng() % 128), 0,
                          static_cast<SlotIndex>(rng() % 4)});
        }
        auto results = (*store)->ReadSlotsBatch(refs);
        for (size_t i = 0; i < refs.size(); ++i) {
          if (!results[i].ok() || (*results[i])[0] != static_cast<uint8_t>(refs[i].bucket)) {
            failures.fetch_add(1);
          }
        }
        // ...interleaved with a unary read.
        BucketIndex b = static_cast<BucketIndex>(rng() % 128);
        auto one = (*store)->ReadSlot(b, 0, 0);
        if (!one.ok() || (*one)[0] != static_cast<uint8_t>(b)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

// Append stalls before hitting the backing log: lets the test catch the
// server mid-append when the connection dies.
class SlowAppendLog : public LogStore {
 public:
  SlowAppendLog(std::shared_ptr<LogStore> base, int delay_ms)
      : base_(std::move(base)), delay_ms_(delay_ms) {}

  StatusOr<uint64_t> Append(Bytes record) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    return base_->Append(std::move(record));
  }
  Status Sync() override { return base_->Sync(); }
  StatusOr<std::vector<Bytes>> ReadAll() override { return base_->ReadAll(); }
  Status Truncate(uint64_t upto_lsn) override { return base_->Truncate(upto_lsn); }
  uint64_t NextLsn() const override { return base_->NextLsn(); }

 private:
  std::shared_ptr<LogStore> base_;
  int delay_ms_;
};

TEST(AsyncClientTest, RedialWithRequestsInFlightFailsFastAndAppendsStayAtMostOnce) {
  auto buckets = std::make_shared<MemoryBucketStore>(16, 2);
  ASSERT_TRUE(buckets->WriteBucket(1, 0, std::vector<Bytes>(2, Bytes(8, 0x77))).ok());
  auto log = std::make_shared<MemoryLogStore>();
  auto slow_backend = std::make_shared<StallBucket0Store>(buckets, 600);
  auto slow_log = std::make_shared<SlowAppendLog>(log, 600);

  auto server = std::make_unique<StorageServer>(slow_backend, slow_log);
  ASSERT_TRUE(server->Start().ok());
  uint16_t port = server->port();

  RemoteStoreOptions opts;
  opts.port = port;
  auto store = RemoteBucketStore::Connect(opts);
  ASSERT_TRUE(store.ok());
  auto log_client = AsyncNetClient::Connect(opts.ToAsyncOptions());
  ASSERT_TRUE(log_client.ok());
  RemoteLogStore remote_log(*log_client);

  // Put requests in flight that the server will be holding when it dies:
  // reads stalled 600 ms in the backend and one stalled WAL append.
  std::vector<NetFuture> inflight;
  for (int i = 0; i < 4; ++i) {
    NetRequest req;
    req.type = MsgType::kReadSlots;
    req.reads = {{0, 0, 0}};
    inflight.push_back((*store)->client()->Submit(std::move(req)));
  }
  NetRequest append;
  append.type = MsgType::kLogAppend;
  append.record = BytesFromString("wal-record-in-flight");
  NetFuture append_fut = (*log_client)->Submit(std::move(append));

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto kill_start = std::chrono::steady_clock::now();
  // Stop() itself blocks ~550 ms draining the stalled backend workers, so
  // run it off-thread; the client's completions must not wait for it.
  std::thread stopper([&] { server->Stop(); });
  for (auto& fut : inflight) {
    const auto& result = fut.Wait();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  }
  ASSERT_FALSE(append_fut.Wait().ok());
  auto fail_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - kill_start)
                     .count();
  // Fail-fast: completions fire the moment the socket dies, not after the
  // backend's 600 ms stall drains.
  EXPECT_LT(fail_ms, 500) << "lost-connection completions waited out the server drain";
  stopper.join();
  server.reset();

  // Restart over the same (durable) backing state: the stale async slots
  // redial transparently for idempotent requests.
  StorageServerOptions server_opts;
  server_opts.port = port;
  auto restarted = std::make_unique<StorageServer>(slow_backend, slow_log, server_opts);
  ASSERT_TRUE(restarted->Start().ok());
  auto after = (*store)->ReadSlot(1, 0, 0);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ((*after)[0], 0x77);
  EXPECT_GE((*store)->stats().reconnects.load(), 1u);

  // At-most-once append: the client reported the in-flight append as failed
  // and must NOT have resent it. The server may or may not have committed
  // the original before dying — one copy at most, never two.
  auto records = remote_log.ReadAll();
  ASSERT_TRUE(records.ok());
  EXPECT_LE(records->size(), 1u) << "a failed LogAppend was retried into a duplicate";
}

// ---------------------------------------------------------------------------
// Transport hardening: deadlines, stragglers, circuit breaker, heartbeats
// ---------------------------------------------------------------------------

TEST(AsyncClientTest, RequestDeadlineExpiresAndConnectionRedials) {
  // Bucket 0 stalls 600 ms in the backend; the per-request deadline is
  // 150 ms, so the request must complete kDeadlineExceeded from the timer
  // wheel — bounded by the deadline, not the backend stall.
  auto backing = std::make_shared<MemoryBucketStore>(16, 2);
  ASSERT_TRUE(backing->WriteBucket(0, 0, std::vector<Bytes>(2, Bytes(8, 0xaa))).ok());
  ASSERT_TRUE(backing->WriteBucket(1, 0, std::vector<Bytes>(2, Bytes(8, 0xbb))).ok());
  auto env = StartLoopback(16, 2, std::make_shared<StallBucket0Store>(backing, 600));

  AsyncClientOptions opts;
  opts.port = env.server->port();
  opts.default_deadline_ms = 150;
  auto client = AsyncNetClient::Connect(opts);
  ASSERT_TRUE(client.ok());

  NetRequest req;
  req.type = MsgType::kReadSlots;
  req.reads = {{0, 0, 0}};
  auto start = std::chrono::steady_clock::now();
  NetFuture fut = (*client)->Submit(std::move(req));
  const auto& result = fut.Wait();
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  EXPECT_LT(elapsed_ms, 500) << "deadline did not bound the stalled request";
  EXPECT_GE((*client)->stats().deadline_exceeded.load(), 1u);

  // The expired request tore its connection down so the 600 ms straggler
  // reply cannot be mispaired; a fresh request redials and succeeds.
  NetRequest fast;
  fast.type = MsgType::kReadSlots;
  fast.reads = {{1, 0, 0}};
  auto after = (*client)->Call(std::move(fast));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_TRUE(after->ToStatus().ok());
  ASSERT_EQ(after->reads.size(), 1u);
  EXPECT_EQ(after->reads[0].payload[0], 0xbb);
}

TEST(AsyncClientTest, StragglerReplyAfterTeardownDoesNotPoisonTheStream) {
  auto backing = std::make_shared<MemoryBucketStore>(16, 2);
  for (uint32_t b = 0; b < 8; ++b) {
    ASSERT_TRUE(
        backing->WriteBucket(b, 0, std::vector<Bytes>(2, Bytes(8, 0x10 + b))).ok());
  }
  auto env = StartLoopback(16, 2, std::make_shared<StallBucket0Store>(backing, 400));

  AsyncClientOptions opts;
  opts.port = env.server->port();
  opts.num_connections = 1;  // every request shares the torn-down socket
  auto client = AsyncNetClient::Connect(opts);
  ASSERT_TRUE(client.ok());

  NetRequest stalled;
  stalled.type = MsgType::kReadSlots;
  stalled.reads = {{0, 0, 0}};
  NetFuture stalled_fut = (*client)->Submit(std::move(stalled), /*deadline_ms=*/100);
  ASSERT_FALSE(stalled_fut.Wait().ok());

  // While the server still holds the stalled request (its reply will land
  // on a dead socket), drive fresh requests through the redialed
  // connection: every response must pair with ITS request id and carry the
  // right bucket's byte.
  for (uint32_t b = 1; b < 8; ++b) {
    NetRequest req;
    req.type = MsgType::kReadSlots;
    req.reads = {{b, 0, 0}};
    auto resp = (*client)->Call(std::move(req));
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_TRUE(resp->ToStatus().ok());
    ASSERT_EQ(resp->reads.size(), 1u);
    EXPECT_EQ(resp->reads[0].payload[0], 0x10 + b) << "mispaired response";
  }
  // Let the straggler reply fire against the torn-down connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  NetRequest last;
  last.type = MsgType::kReadSlots;
  last.reads = {{7, 0, 0}};
  auto resp = (*client)->Call(std::move(last));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->reads.size(), 1u);
  EXPECT_EQ(resp->reads[0].payload[0], 0x17);
}

TEST(AsyncClientTest, CircuitBreakerOpensFailsFastAndClosesAfterProbe) {
  auto env = StartLoopback();
  uint16_t port = env.server->port();

  AsyncClientOptions opts;
  opts.port = port;
  opts.retry.max_attempts = 1;  // count breaker failures deterministically
  opts.retry.breaker_failure_threshold = 3;
  opts.retry.breaker_open_ms = 200;
  auto client = AsyncNetClient::Connect(opts);
  ASSERT_TRUE(client.ok());

  auto ping = [&]() {
    NetRequest req;
    req.type = MsgType::kPing;
    return (*client)->Call(std::move(req));
  };
  ASSERT_TRUE(ping().ok());

  env.server->Stop();
  env.server.reset();

  // Three consecutive transport failures trip the breaker...
  for (int i = 0; i < 3; ++i) {
    ASSERT_FALSE(ping().ok());
  }
  EXPECT_GE((*client)->stats().breaker_open.load(), 1u);
  // ...after which calls fail fast without touching the network.
  auto start = std::chrono::steady_clock::now();
  auto rejected = ping();
  auto fast_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().ToString().find("circuit breaker open"),
            std::string::npos)
      << rejected.status().ToString();
  EXPECT_LT(fast_ms, 50);

  // Restart the node; once the open window lapses, the single half-open
  // probe succeeds and the breaker closes for good.
  StorageServerOptions server_opts;
  server_opts.port = port;
  env.server = std::make_unique<StorageServer>(env.buckets, env.log, server_opts);
  ASSERT_TRUE(env.server->Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  auto probe = ping();
  EXPECT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_TRUE(ping().ok());
}

TEST(AsyncClientTest, HeartbeatDetectsHalfOpenConnection) {
  auto env = StartLoopback();
  auto relay = FaultRelay::Start("127.0.0.1", env.server->port());
  ASSERT_TRUE(relay.ok());

  AsyncClientOptions opts;
  opts.port = (*relay)->port();
  opts.heartbeat_interval_ms = 50;
  opts.heartbeat_timeout_ms = 100;
  auto client = AsyncNetClient::Connect(opts);
  ASSERT_TRUE(client.ok());

  NetRequest req;
  req.type = MsgType::kPing;
  ASSERT_TRUE((*client)->Call(std::move(req)).ok());

  // A blackholed link looks established to both endpoints; only the
  // application-level heartbeat can notice nothing comes back.
  (*relay)->Partition();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_GE((*client)->stats().heartbeats_sent.load(), 2u);
  EXPECT_GE((*client)->stats().heartbeat_failures.load(), 1u);

  (*relay)->Heal();
  NetRequest again;
  again.type = MsgType::kPing;
  auto healed = (*client)->Call(std::move(again));
  EXPECT_TRUE(healed.ok()) << healed.status().ToString();
}

TEST(EventLoopTest, SlowReaderBackpressureBoundsTheWriteQueue) {
  auto listener = TcpListener::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  auto client_sock = TcpSocket::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(client_sock.ok());
  auto peer = listener->Accept();
  ASSERT_TRUE(peer.ok());

  EventLoop loop;
  ASSERT_TRUE(loop.Start().ok());
  constexpr size_t kCap = 64 * 1024;
  auto conn = loop.AddConnection(std::move(*client_sock), {}, /*max_frame_bytes=*/1 << 20,
                                 /*write_queue_cap=*/kCap);
  ASSERT_TRUE(conn.ok());

  // 6.4 MB of frames vs. a 64 KB queue cap and a peer that reads nothing:
  // the sender MUST block long before finishing.
  constexpr size_t kFrames = 400;
  constexpr size_t kFrameBytes = 16 * 1024;
  std::atomic<size_t> sent{0};
  std::thread sender([&] {
    for (size_t i = 0; i < kFrames; ++i) {
      Bytes payload(kFrameBytes, static_cast<uint8_t>(i));
      if (!loop.SendFrame(*conn, payload).ok()) {
        return;
      }
      sent.fetch_add(1);
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  size_t sent_while_stalled = sent.load();
  EXPECT_LT(sent_while_stalled, kFrames) << "sender never felt backpressure";
  // The queue never grows past cap + one frame (a single frame is always
  // admitted to avoid deadlock).
  EXPECT_LE(loop.QueuedBytes(*conn), kCap + kFrameBytes + 4);

  // Drain the peer: the sender unblocks and every frame arrives intact and
  // in order.
  size_t received = 0;
  while (received < kFrames) {
    auto frame = peer->RecvFrame(1 << 20);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_EQ(frame->size(), kFrameBytes);
    EXPECT_EQ((*frame)[0], static_cast<uint8_t>(received));
    ++received;
  }
  sender.join();
  EXPECT_EQ(sent.load(), kFrames);
  loop.Stop();
}

// ---------------------------------------------------------------------------
// Batched GC round trips
// ---------------------------------------------------------------------------

TEST(BatchedTruncateTest, EpochGcIsOneRoundTripPerShard) {
  // K=4 shards over one remote store: TruncateStaleVersions must cost
  // exactly K round trips (one kTruncateBucketsBatch per shard), not one
  // per bucket. Shared probe with bench_net_storage's JSON emitter.
  GcProbeResult gc = RunGcRoundTripProbe(4);
  ASSERT_TRUE(gc.ok);
  EXPECT_EQ(gc.round_trips, 4u) << "GC round trips must equal the shard count";
  EXPECT_GT(gc.buckets, 4u);  // i.e. strictly fewer than per-bucket
}

TEST(StorageServerTest, GarbageFrameGetsErrorResponseAndClose) {
  auto env = StartLoopback();
  auto sock = TcpSocket::Connect("127.0.0.1", env.server->port());
  ASSERT_TRUE(sock.ok());
  // A frame of pure garbage (valid length prefix, junk payload).
  Bytes junk(32, 0xa5);
  ASSERT_TRUE(sock->SendFrame(junk).ok());
  auto resp_frame = sock->RecvFrame(kDefaultMaxFrameBytes);
  ASSERT_TRUE(resp_frame.ok()) << resp_frame.status().ToString();
  NetResponse resp;
  ASSERT_TRUE(DecodeResponse(*resp_frame, MsgType::kPing, &resp).ok());
  EXPECT_EQ(resp.code, StatusCode::kInvalidArgument);
  // The server then closes the (untrustworthy) connection.
  auto next = sock->RecvFrame(kDefaultMaxFrameBytes);
  EXPECT_FALSE(next.ok());
  EXPECT_GE(env.server->stats().protocol_errors.load(), 1u);

  // An oversized frame is rejected without a 4 GiB allocation: the server
  // just drops the connection.
  auto sock2 = TcpSocket::Connect("127.0.0.1", env.server->port());
  ASSERT_TRUE(sock2.ok());
  Bytes huge_len = {0xff, 0xff, 0xff, 0xff};
  ASSERT_TRUE(sock2->SendAll(huge_len.data(), huge_len.size()).ok());
  auto dropped = sock2->RecvFrame(kDefaultMaxFrameBytes);
  EXPECT_FALSE(dropped.ok());
}

// ---------------------------------------------------------------------------
// Conformance over the wire
// ---------------------------------------------------------------------------

TEST(RemoteConformanceTest, RemoteBucketStoreMatchesLocalSemantics) {
  auto env = StartLoopback(16, 3);
  auto store = RemoteBucketStore::Connect(env.ClientOptions());
  ASSERT_TRUE(store.ok());
  RunBucketStoreConformance(**store, 3);
}

TEST(RemoteConformanceTest, RemoteLogStoreMatchesLocalSemantics) {
  auto env = StartLoopback();
  auto log = RemoteLogStore::Connect(env.ClientOptions());
  ASSERT_TRUE(log.ok());
  RunLogStoreConformance(**log);
}

// ---------------------------------------------------------------------------
// Replicated tier over the wire
// ---------------------------------------------------------------------------

TEST(RemoteConformanceTest, ReplicatedRemoteStoresMatchLocalSemantics) {
  auto env0 = StartLoopback(16, 3);
  auto env1 = StartLoopback(16, 3);
  auto r0 = RemoteBucketStore::Connect(env0.ClientOptions());
  auto r1 = RemoteBucketStore::Connect(env1.ClientOptions());
  ASSERT_TRUE(r0.ok() && r1.ok());
  ReplicatedStoreOptions opts;
  opts.write_quorum = 2;
  std::vector<std::shared_ptr<BucketStore>> bucket_reps;
  bucket_reps.push_back(std::move(*r0));
  bucket_reps.push_back(std::move(*r1));
  ReplicatedBucketStore store(std::move(bucket_reps), opts);
  RunBucketStoreConformance(store, 3);

  auto l0 = RemoteLogStore::Connect(env0.ClientOptions());
  auto l1 = RemoteLogStore::Connect(env1.ClientOptions());
  ASSERT_TRUE(l0.ok() && l1.ok());
  std::vector<std::shared_ptr<LogStore>> log_reps;
  log_reps.push_back(std::move(*l0));
  log_reps.push_back(std::move(*l1));
  ReplicatedLogStore log(std::move(log_reps), opts);
  RunLogStoreConformance(log);
}

// Failover racing the circuit breaker's half-open probe: the primary's node
// dies (deadline failures trip the breaker, whose open state surfaces as
// kUnavailable), reads fail over to the follower, the node comes back on
// the same port, and heal attempts — some of which land while the breaker
// is open or half-open and fail retriably — must eventually promote the
// replica without ever surfacing an error to readers.
TEST(ReplicatedRemoteTest, FailoverRacesBreakerHalfOpenProbe) {
  auto env0 = StartLoopback(16, 4);
  auto env1 = StartLoopback(16, 4);
  uint16_t port0 = env0.server->port();

  auto client_opts = [&](uint16_t port) {
    RemoteStoreOptions opts;
    opts.port = port;
    opts.default_deadline_ms = 200;
    opts.retry.max_attempts = 1;
    opts.retry.breaker_failure_threshold = 2;
    opts.retry.breaker_open_ms = 100;
    return opts;
  };
  auto r0 = RemoteBucketStore::Connect(client_opts(port0));
  auto r1 = RemoteBucketStore::Connect(client_opts(env1.server->port()));
  ASSERT_TRUE(r0.ok() && r1.ok());
  std::vector<std::shared_ptr<BucketStore>> reps;
  reps.push_back(std::move(*r0));
  reps.push_back(std::move(*r1));
  ReplicatedBucketStore store(std::move(reps));

  std::vector<Bytes> image(4, Bytes(16, 0x5A));
  ASSERT_TRUE(store.WriteBucket(2, 1, image).ok());
  ASSERT_EQ(store.PrimaryIndexForTest(), 0);

  // Kill the primary's node. The next read must fail over, not error out.
  env0.server->Stop();
  env0.server.reset();
  auto slot = store.ReadSlot(2, 1, 0);
  ASSERT_TRUE(slot.ok()) << slot.status().ToString();
  EXPECT_EQ((*slot)[0], 0x5A);
  EXPECT_EQ(store.PrimaryIndexForTest(), 1);

  // Write while the replica is down so catch-up has real work.
  ASSERT_TRUE(store.WriteBucket(5, 2, image).ok());

  // Drive the dead client until its breaker opens, so heal attempts race
  // the half-open probe cycle instead of only clean connections.
  for (int i = 0; i < 3; ++i) {
    (void)store.TryHealReplicas();
  }

  // Node restarts on the same port; heal until the breaker's half-open
  // probe lets a catch-up pass complete and the replica is promoted.
  StorageServerOptions server_opts;
  server_opts.port = port0;
  env0.server =
      std::make_unique<StorageServer>(env0.buckets, env0.log, server_opts);
  ASSERT_TRUE(env0.server->Start().ok());

  bool promoted = false;
  for (int attempt = 0; attempt < 100 && !promoted; ++attempt) {
    (void)store.TryHealReplicas();
    ReplicationStats stats = store.replication_stats();
    promoted = stats.replicas[0].health == ReplicaHealth::kCurrent;
    if (!promoted) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(promoted);
  ReplicationStats stats = store.replication_stats();
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_GE(stats.resyncs, 1u);

  // The resynced replica holds the write it missed, straight from its
  // backing store — epoch replay rebuilt the live version.
  auto healed = env0.buckets->ReadSlot(5, 2, 0);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ((*healed)[0], 0x5A);
}

// ---------------------------------------------------------------------------
// Storage-node restart
// ---------------------------------------------------------------------------

TEST(StorageServerTest, ClientSurvivesServerRestart) {
  auto buckets = std::make_shared<MemoryBucketStore>(16, 2);
  auto log = std::make_shared<MemoryLogStore>();
  auto server = std::make_unique<StorageServer>(buckets, log);
  ASSERT_TRUE(server->Start().ok());
  uint16_t port = server->port();

  RemoteStoreOptions opts;
  opts.port = port;
  auto store = RemoteBucketStore::Connect(opts);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->WriteBucket(1, 0, std::vector<Bytes>(2, Bytes(8, 0x77))).ok());
  ASSERT_TRUE((*store)->ReadSlot(1, 0, 0).ok());

  // Kill the storage node. In-flight/new requests fail Unavailable.
  server->Stop();
  server.reset();
  auto while_down = (*store)->ReadSlot(1, 0, 0);
  ASSERT_FALSE(while_down.ok());
  EXPECT_EQ(while_down.status().code(), StatusCode::kUnavailable);

  // Restart on the same port over the same (durable) backing state: the
  // client's stale connection redials transparently and the
  // shadow-paged data is still there.
  StorageServerOptions server_opts;
  server_opts.port = port;
  auto restarted = std::make_unique<StorageServer>(buckets, log, server_opts);
  ASSERT_TRUE(restarted->Start().ok());
  auto after = (*store)->ReadSlot(1, 0, 0);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ((*after)[0], 0x77);
  EXPECT_GE((*store)->stats().reconnects.load(), 1u);
}

// ---------------------------------------------------------------------------
// Full proxy epoch pipeline over loopback
// ---------------------------------------------------------------------------

// Forwards every call to `base` and counts the batched reads that pass
// through, sync and async forms alike. Between a proxy and its remote store
// each counted call is exactly one wire request.
class CountingBucketStore : public BucketStore {
 public:
  explicit CountingBucketStore(std::shared_ptr<BucketStore> base) : base_(std::move(base)) {}

  StatusOr<Bytes> ReadSlot(BucketIndex bucket, uint32_t version, SlotIndex slot) override {
    return base_->ReadSlot(bucket, version, slot);
  }
  Status WriteBucket(BucketIndex bucket, uint32_t version, std::vector<Bytes> slots) override {
    return base_->WriteBucket(bucket, version, std::move(slots));
  }
  std::vector<StatusOr<Bytes>> ReadSlotsBatch(const std::vector<SlotRef>& refs) override {
    slot_batches.fetch_add(1);
    return base_->ReadSlotsBatch(refs);
  }
  Status WriteBucketsBatch(std::vector<BucketImage> images) override {
    return base_->WriteBucketsBatch(std::move(images));
  }
  Status TruncateBucket(BucketIndex bucket, uint32_t keep_from_version) override {
    return base_->TruncateBucket(bucket, keep_from_version);
  }
  Status TruncateBucketsBatch(const std::vector<TruncateRef>& refs) override {
    return base_->TruncateBucketsBatch(refs);
  }
  std::vector<StatusOr<PathXorResult>> ReadPathsXor(const std::vector<PathSlots>& paths,
                                                    uint32_t header_bytes,
                                                    uint32_t trailer_bytes) override {
    xor_batches.fetch_add(1);
    return base_->ReadPathsXor(paths, header_bytes, trailer_bytes);
  }
  bool SupportsAsyncBatches() const override { return base_->SupportsAsyncBatches(); }
  void ReadSlotsBatchAsync(std::vector<SlotRef> refs, ReadSlotsDone done) override {
    slot_batches.fetch_add(1);
    base_->ReadSlotsBatchAsync(std::move(refs), std::move(done));
  }
  void WriteBucketsBatchAsync(std::vector<BucketImage> images, WriteBucketsDone done) override {
    base_->WriteBucketsBatchAsync(std::move(images), std::move(done));
  }
  void ReadPathsXorAsync(std::vector<PathSlots> paths, uint32_t header_bytes,
                         uint32_t trailer_bytes, ReadPathsXorDone done) override {
    xor_batches.fetch_add(1);
    base_->ReadPathsXorAsync(std::move(paths), header_bytes, trailer_bytes, std::move(done));
  }
  size_t num_buckets() const override { return base_->num_buckets(); }
  NetworkStats* network_stats() override { return base_->network_stats(); }

  std::atomic<uint64_t> slot_batches{0};
  std::atomic<uint64_t> xor_batches{0};

 private:
  std::shared_ptr<BucketStore> base_;
};

// A loopback deployment with a counting store on each side of the wire:
// `sent` between the proxy and its remote store (one call per request),
// `served` between the storage server and its memory backend.
struct RemoteProxyEnv {
  std::shared_ptr<MemoryBucketStore> buckets;
  std::shared_ptr<CountingBucketStore> served;
  std::shared_ptr<CountingBucketStore> sent;
  std::shared_ptr<MemoryLogStore> log;
  std::unique_ptr<StorageServer> server;
  ObladiConfig config;
  std::unique_ptr<ObladiStore> proxy;
};

RemoteProxyEnv MakeRemoteProxy(uint32_t shards) {
  RemoteProxyEnv env;
  env.config = ObladiConfig::ForCapacity(256, /*z=*/4, /*payload=*/128);
  env.config.num_shards = shards;
  env.config.read_batches_per_epoch = 3;
  env.config.read_batch_size = 16;
  env.config.write_batch_size = 16;
  env.config.recovery.enabled = true;
  env.config.recovery.full_checkpoint_interval = 4;
  env.config.oram_options.io_threads = 8;

  env.buckets = std::make_shared<MemoryBucketStore>(
      env.config.StoreBuckets(), env.config.MakeLayout().shard_config.slots_per_bucket());
  env.served = std::make_shared<CountingBucketStore>(env.buckets);
  env.log = std::make_shared<MemoryLogStore>();
  env.server = std::make_unique<StorageServer>(env.served, env.log);
  EXPECT_TRUE(env.server->Start().ok());

  RemoteStoreOptions opts;
  opts.port = env.server->port();
  auto remote_buckets = RemoteBucketStore::Connect(opts);
  auto remote_log = RemoteLogStore::Connect(opts);
  EXPECT_TRUE(remote_buckets.ok() && remote_log.ok());
  env.sent = std::make_shared<CountingBucketStore>(std::move(*remote_buckets));
  env.proxy = std::make_unique<ObladiStore>(env.config, env.sent, std::move(*remote_log));
  return env;
}

std::vector<std::pair<Key, std::string>> NetRecords(int n) {
  std::vector<std::pair<Key, std::string>> records;
  for (int i = 0; i < n; ++i) {
    records.emplace_back("key" + std::to_string(i), "value" + std::to_string(i));
  }
  return records;
}

class RemoteProxyPipelineTest : public testing::TestWithParam<uint32_t> {};

TEST_P(RemoteProxyPipelineTest, EpochPipelineRunsUnchangedOverLoopback) {
  auto env = MakeRemoteProxy(GetParam());
  ASSERT_TRUE(env.proxy->Load(NetRecords(64)).ok());

  for (int i = 0; i < 6; ++i) {
    CommitWrite(*env.proxy, "key" + std::to_string(i), "net" + std::to_string(i));
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(ReadCommitted(*env.proxy, "key" + std::to_string(i)),
              "net" + std::to_string(i));
  }
  // Untouched keys still serve their loaded values through the ORAM.
  for (int i = 40; i < 44; ++i) {
    EXPECT_EQ(ReadCommitted(*env.proxy, "key" + std::to_string(i)),
              "value" + std::to_string(i));
  }
  EXPECT_TRUE(env.proxy->oram()->CheckInvariants().ok());
  // All of it actually crossed the socket.
  EXPECT_GT(env.server->stats().requests_served.load(), 0u);
  EXPECT_GT(env.server->stats().bytes_received.load(), 0u);
}

TEST_P(RemoteProxyPipelineTest, ProxyCrashRecoveryReplaysOverTheNetwork) {
  auto env = MakeRemoteProxy(GetParam());
  ASSERT_TRUE(env.proxy->Load(NetRecords(64)).ok());
  for (int i = 0; i < 4; ++i) {
    CommitWrite(*env.proxy, "key" + std::to_string(i), "durable" + std::to_string(i));
  }

  // The proxy dies; its volatile state (position maps, stashes, version
  // cache) is gone. Everything needed to rebuild lives across the network
  // in the bucket store + WAL.
  env.proxy->SimulateCrash();
  ASSERT_TRUE(env.proxy->RecoverFromCrash().ok());

  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ReadCommitted(*env.proxy, "key" + std::to_string(i)),
              "durable" + std::to_string(i));
  }
  EXPECT_TRUE(env.proxy->oram()->CheckInvariants().ok());
}

// Against an async store each shard sends its read stage's XOR paths as one
// kReadPathsXor and each stage's plain slots (the evict stage's bucket
// pulls, the read stage's leftovers) as one kReadSlots, however many paths
// and slots the stage holds. The server serves every read request, of
// either kind, with one backend ReadSlotsBatch.
TEST_P(RemoteProxyPipelineTest, EachReadStageIsOneRequestPerShard) {
  const uint64_t k = GetParam();
  auto env = MakeRemoteProxy(GetParam());
  ASSERT_TRUE(env.proxy->Load(NetRecords(64)).ok());

  uint64_t xor_total = 0;
  for (int epoch = 0; epoch < 4; ++epoch) {
    for (size_t b = 0; b < env.config.read_batches_per_epoch; ++b) {
      const uint64_t xor_before = env.sent->xor_batches.load();
      const uint64_t slots_before = env.sent->slot_batches.load();
      const uint64_t served_before = env.served->slot_batches.load();
      ASSERT_TRUE(env.proxy->StepReadBatch().ok());
      const uint64_t xor_calls = env.sent->xor_batches.load() - xor_before;
      const uint64_t slot_calls = env.sent->slot_batches.load() - slots_before;
      // A path whose every level is in the epoch buffer sends no request,
      // so these are bounds, not exact counts.
      EXPECT_LE(xor_calls, k) << "epoch " << epoch << " batch " << b;
      EXPECT_LE(slot_calls, 2 * k) << "epoch " << epoch << " batch " << b;
      EXPECT_EQ(env.served->slot_batches.load() - served_before, xor_calls + slot_calls);
      xor_total += xor_calls;
    }
    ASSERT_TRUE(env.proxy->FinishEpochNow().ok());
  }
  EXPECT_GT(xor_total, 0u) << "no batch took the XOR path";
}

// Loopback twin of SchedulerTest.EarlyAnswersDeliverCorrectValues: one
// response carries a shard's whole read stage, and its paths still answer
// their reads one by one as each decrypts.
TEST_P(RemoteProxyPipelineTest, EarlyAnswersDeliverCorrectValuesOverLoopback) {
  auto env = MakeRemoteProxy(GetParam());
  ASSERT_TRUE(env.proxy->Load(NetRecords(40)).ok());

  constexpr int kReaders = 4;
  std::atomic<int> done{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&, i] {
      Timestamp t = env.proxy->Begin();
      auto v = env.proxy->Read(t, "key" + std::to_string(i));
      EXPECT_TRUE(v.ok()) << v.status().ToString();
      if (v.ok()) {
        EXPECT_EQ(*v, "value" + std::to_string(i));
      }
      env.proxy->Abort(t);
      done.fetch_add(1);
    });
  }
  while (done.load() < kReaders) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    (void)env.proxy->StepReadBatch();
  }
  for (auto& r : readers) {
    r.join();
  }
  ASSERT_TRUE(env.proxy->FinishEpochNow().ok());
  EXPECT_GE(env.proxy->stats().sched_overlapped_accesses, static_cast<uint64_t>(kReaders));
}

INSTANTIATE_TEST_SUITE_P(KShards, RemoteProxyPipelineTest, testing::Values(1u, 4u),
                         [](const testing::TestParamInfo<uint32_t>& info) {
                           return "K" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Graceful degradation: partition of one shard's storage node
// ---------------------------------------------------------------------------

// The PR-level acceptance scenario, deterministic: a per-shard deployment
// (one storage node per shard, a fault relay in front of shard 1's node)
// with the hardened transport. Blackholing that one link mid-run must
// convert into bounded-time retriable aborts for clients — never a hung
// proxy — and after the link heals, crash recovery replays over the healed
// link and the pipeline resumes.
TEST(PartitionedShardTest, PartitionFailsClientsRetriablyThenHealsAndRecovers) {
  ObladiConfig config = ObladiConfig::ForCapacity(256, /*z=*/4, /*payload=*/128);
  config.num_shards = 4;
  config.read_batches_per_epoch = 3;
  config.read_batch_size = 16;
  config.write_batch_size = 16;
  config.batch_interval_us = 300;
  config.timed_mode = true;
  config.recovery.enabled = true;
  config.recovery.full_checkpoint_interval = 4;
  config.oram_options.io_threads = 8;
  // The degradation contract: an unreachable shard turns the retirement
  // wait into a bounded-time epoch abort instead of an indefinite hang.
  config.retire_timeout_ms = 1000;

  const ShardLayout layout = config.MakeLayout();
  auto log = std::make_shared<MemoryLogStore>();
  std::vector<std::shared_ptr<MemoryBucketStore>> shard_mem;
  std::vector<std::unique_ptr<StorageServer>> servers;
  for (uint32_t s = 0; s < config.num_shards; ++s) {
    shard_mem.push_back(std::make_shared<MemoryBucketStore>(
        layout.shard_config.num_buckets(), layout.shard_config.slots_per_bucket()));
    servers.push_back(std::make_unique<StorageServer>(shard_mem[s], log));
    ASSERT_TRUE(servers[s]->Start().ok());
  }
  auto relay = FaultRelay::Start("127.0.0.1", servers[1]->port());
  ASSERT_TRUE(relay.ok()) << relay.status().ToString();

  RemoteStoreOptions opts;
  opts.default_deadline_ms = 200;
  opts.heartbeat_interval_ms = 100;
  opts.heartbeat_timeout_ms = 200;
  opts.retry.max_attempts = 2;
  opts.retry.initial_backoff_us = 1000;
  std::vector<std::shared_ptr<BucketStore>> shard_stores;
  for (uint32_t s = 0; s < config.num_shards; ++s) {
    RemoteStoreOptions so = opts;
    so.port = s == 1 ? (*relay)->port() : servers[s]->port();
    auto rb = RemoteBucketStore::Connect(so);
    ASSERT_TRUE(rb.ok()) << rb.status().ToString();
    shard_stores.push_back(std::move(*rb));
  }
  RemoteStoreOptions lo = opts;
  lo.port = servers[0]->port();  // the WAL's node is NOT partitioned
  auto remote_log = RemoteLogStore::Connect(lo);
  ASSERT_TRUE(remote_log.ok());

  ObladiStore proxy(config, std::move(shard_stores), std::move(*remote_log));
  ASSERT_TRUE(proxy.Load(NetRecords(64)).ok());
  proxy.Start();

  // Healthy baseline commit.
  Status warm = RunTransaction(proxy, [](Txn& txn) -> Status {
    return txn.Write("key0", "before-partition");
  });
  ASSERT_TRUE(warm.ok()) << warm.ToString();

  // Cut shard 1's link. Every epoch's padded read batches touch every
  // shard, so all in-flight work now depends on a blackholed socket; only
  // the request deadlines can unblock it.
  (*relay)->Partition();
  auto start = std::chrono::steady_clock::now();
  int failed_attempts = 0;
  for (int i = 0; i < 4; ++i) {
    Status st = RunTransaction(
        proxy,
        [&](Txn& txn) -> Status { return txn.Write("key1", "during-partition"); },
        /*max_attempts=*/1);
    if (!st.ok()) {
      // kAborted = blocked client failed retriably when its epoch aborted;
      // kUnavailable("proxy crashed") = the bounded retirement wait expired
      // and the pacer stopped fatally — the failover signal. Either way the
      // attempt came back promptly instead of hanging.
      EXPECT_TRUE(st.code() == StatusCode::kAborted ||
                  st.code() == StatusCode::kUnavailable)
          << st.ToString();
      ++failed_attempts;
    }
  }
  auto elapsed_s = std::chrono::duration_cast<std::chrono::seconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  EXPECT_GT(failed_attempts, 0) << "partitioned shard never failed a commit";
  // Bounded by the deadline budget (deadline x retries + retire timeout per
  // epoch), nowhere near a hang.
  EXPECT_LT(elapsed_s, 30) << "clients hung during the partition";

  // Heal, then fail over: the partition failed background retirement
  // sticky, so crash recovery over the healed link is the designed path.
  (*relay)->Heal();
  proxy.SimulateCrash();
  Status recovered;
  for (int attempt = 0; attempt < 50; ++attempt) {
    recovered = proxy.RecoverFromCrash();
    if (recovered.ok()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  proxy.Start();

  // Pipeline resumed: new commits land, pre-partition state survived the
  // replay, and the ORAM invariants hold across all shards.
  Status after = RunTransaction(proxy, [](Txn& txn) -> Status {
    return txn.Write("key2", "after-heal");
  });
  ASSERT_TRUE(after.ok()) << after.ToString();
  Status check = RunTransaction(proxy, [&](Txn& txn) -> Status {
    auto v0 = txn.Read("key0");
    if (!v0.ok()) {
      return v0.status();
    }
    EXPECT_EQ(*v0, "before-partition");
    auto v2 = txn.Read("key2");
    if (!v2.ok()) {
      return v2.status();
    }
    EXPECT_EQ(*v2, "after-heal");
    return Status::Ok();
  });
  ASSERT_TRUE(check.ok()) << check.ToString();
  EXPECT_TRUE(proxy.oram()->CheckInvariants().ok());

  proxy.Stop();
  (*relay)->Stop();
  for (auto& s : servers) {
    s->Stop();
  }
}

}  // namespace
}  // namespace obladi
