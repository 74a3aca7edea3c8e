// Substrate micro-benchmarks (google-benchmark): crypto primitives, the
// record checksum, codecs, RNGs, MVTSO operations, and single ORAM accesses.
// These are the building blocks whose costs explain the figure-level results
// (e.g. why the dummy backend is crypto/CPU-bound).
#include <benchmark/benchmark.h>

#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/csprng.h"
#include "src/crypto/encryptor.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha256.h"
#include "src/oram/ring_oram.h"
#include "src/storage/memory_store.h"
#include "src/txn/mvtso.h"

namespace obladi {
namespace {

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  Bytes key = BytesFromString("bench-key");
  Bytes data(static_cast<size_t>(state.range(0)), 0xcd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha256::Compute(key, data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(256)->Arg(4096);

void BM_ChaCha20(benchmark::State& state) {
  uint8_t key[32] = {1};
  uint8_t nonce[12] = {2};
  Bytes data(static_cast<size_t>(state.range(0)), 0xee);
  for (auto _ : state) {
    ChaCha20 cipher(key, nonce);
    cipher.Crypt(data.data(), data.size());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
// 140 B is one slot plaintext (12-byte header + 128-byte payload).
BENCHMARK(BM_ChaCha20)->Arg(140)->Arg(268)->Arg(1024)->Arg(65536);

void BM_Crc32(benchmark::State& state) {
  Bytes data(static_cast<size_t>(state.range(0)), 0x5a);
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = Crc32(data, crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(17)->Arg(4096)->Arg(65536);

void BM_EncryptorRoundTrip(benchmark::State& state) {
  Encryptor enc = Encryptor::FromMasterKey(BytesFromString("k"), state.range(1) != 0, 1);
  Bytes pt(static_cast<size_t>(state.range(0)), 0x33);
  for (auto _ : state) {
    Bytes ct = enc.Encrypt(pt);
    auto back = enc.Decrypt(ct);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_EncryptorRoundTrip)
    ->Args({268, 0})   // slot-sized, unauthenticated
    ->Args({268, 1})   // slot-sized, MAC'd (Appendix A)
    ->Args({1036, 0});

void BM_CsprngPermutation(benchmark::State& state) {
  Csprng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.RandomPermutation(static_cast<uint32_t>(state.range(0))));
  }
}
BENCHMARK(BM_CsprngPermutation)->Arg(9)->Arg(44)->Arg(296);  // Z+S for Z=4/16/100

void BM_ZipfianNext(benchmark::State& state) {
  Rng rng(2);
  ZipfianGenerator zipf(1000000, 0.99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.NextScrambled(rng));
  }
}
BENCHMARK(BM_ZipfianNext);

void BM_MvtsoReadWrite(benchmark::State& state) {
  MvtsoEngine engine;
  engine.InstallBase("k", "v");
  for (auto _ : state) {
    Timestamp ts = engine.Begin();
    benchmark::DoNotOptimize(engine.Read(ts, "k"));
    (void)engine.Write(ts, "k2", "x");
    (void)engine.Finish(ts);
    if (state.iterations() % 512 == 0) {
      engine.EndEpoch(0);
      engine.InstallBase("k", "v");
    }
  }
}
BENCHMARK(BM_MvtsoReadWrite);

void BM_OramSingleAccess(benchmark::State& state) {
  RingOramConfig config = RingOramConfig::ForCapacity(4096, 8, 128);
  RingOramOptions options;
  options.parallel = false;
  auto store = std::make_shared<MemoryBucketStore>(config.num_buckets(),
                                                   config.slots_per_bucket(), 2);
  auto encryptor = std::make_shared<Encryptor>(
      Encryptor::FromMasterKey(BytesFromString("k"), false, 1));
  RingOram oram(config, options, store, encryptor, 1);
  std::vector<Bytes> values(4096);
  if (!oram.Initialize(values).ok()) {
    state.SkipWithError("init failed");
    return;
  }
  Rng rng(3);
  for (auto _ : state) {
    BlockId id = rng.Uniform(4096);
    auto result = oram.ReadBatch({id});
    benchmark::DoNotOptimize(result);
  }
  state.counters["levels"] = config.num_levels;
}
BENCHMARK(BM_OramSingleAccess);

void BM_BinarySerde(benchmark::State& state) {
  for (auto _ : state) {
    BinaryWriter w;
    for (int i = 0; i < 16; ++i) {
      w.PutU64(static_cast<uint64_t>(i) * 7919);
      w.PutString("field");
    }
    Bytes buf = w.Take();
    BinaryReader r(buf);
    uint64_t sum = 0;
    for (int i = 0; i < 16; ++i) {
      sum += r.GetU64();
      benchmark::DoNotOptimize(r.GetString());
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BinarySerde);

}  // namespace
}  // namespace obladi

BENCHMARK_MAIN();
