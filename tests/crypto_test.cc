#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "src/crypto/chacha20.h"
#include "src/crypto/csprng.h"
#include "src/crypto/encryptor.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha256.h"

namespace obladi {
namespace {

std::string HexOf(const uint8_t* data, size_t n) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(kHex[data[i] >> 4]);
    out.push_back(kHex[data[i] & 0xf]);
  }
  return out;
}

// FIPS 180-4 test vectors.
TEST(Sha256Test, EmptyString) {
  auto d = Sha256::Hash(nullptr, 0);
  EXPECT_EQ(HexOf(d.data(), d.size()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  Bytes msg = BytesFromString("abc");
  auto d = Sha256::Hash(msg);
  EXPECT_EQ(HexOf(d.data(), d.size()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  Bytes msg = BytesFromString("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  auto d = Sha256::Hash(msg);
  EXPECT_EQ(HexOf(d.data(), d.size()),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Bytes msg;
  for (int i = 0; i < 1000; ++i) {
    msg.push_back(static_cast<uint8_t>(i * 7));
  }
  Sha256 h;
  h.Update(msg.data(), 100);
  h.Update(msg.data() + 100, 900);
  auto incremental = h.Finalize();
  auto oneshot = Sha256::Hash(msg);
  EXPECT_EQ(incremental, oneshot);
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  auto d = h.Finalize();
  EXPECT_EQ(HexOf(d.data(), d.size()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// RFC 4231 test case 1.
TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  Bytes msg = BytesFromString("Hi There");
  auto tag = HmacSha256::Compute(key, msg);
  EXPECT_EQ(HexOf(tag.data(), tag.size()),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(HmacTest, Rfc4231Case2) {
  Bytes key = BytesFromString("Jefe");
  Bytes msg = BytesFromString("what do ya want for nothing?");
  auto tag = HmacSha256::Compute(key, msg);
  EXPECT_EQ(HexOf(tag.data(), tag.size()),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3 (0xaa key, 0xdd data).
TEST(HmacTest, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes msg(50, 0xdd);
  auto tag = HmacSha256::Compute(key, msg);
  EXPECT_EQ(HexOf(tag.data(), tag.size()),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  Bytes key(131, 0xaa);
  Bytes msg = BytesFromString("Test Using Larger Than Block-Size Key - Hash Key First");
  auto tag = HmacSha256::Compute(key, msg);
  EXPECT_EQ(HexOf(tag.data(), tag.size()),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, ConstantTimeEqual) {
  HmacSha256::Tag a{}, b{};
  EXPECT_TRUE(HmacSha256::Equal(a, b));
  b[31] = 1;
  EXPECT_FALSE(HmacSha256::Equal(a, b));
}

// RFC 7539 §2.4.2 test vector.
TEST(ChaCha20Test, Rfc7539Encryption) {
  uint8_t key[32];
  for (int i = 0; i < 32; ++i) {
    key[i] = static_cast<uint8_t>(i);
  }
  uint8_t nonce[12] = {0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0};
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  Bytes data(plaintext.begin(), plaintext.end());
  ChaCha20 cipher(key, nonce, /*counter=*/1);
  cipher.Crypt(data.data(), data.size());
  ASSERT_EQ(data.size(), 114u);
  EXPECT_EQ(HexOf(data.data(), data.size()),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
  // Decryption = encryption.
  ChaCha20 cipher2(key, nonce, 1);
  cipher2.Crypt(data.data(), data.size());
  EXPECT_EQ(std::string(data.begin(), data.end()), plaintext);
}

// Scalar RFC 7539 §2.3 block function, one block per call: the reference the
// multi-block ChaCha20 must match byte for byte.
void ReferenceBlock(const uint8_t key[32], const uint8_t nonce[12], uint32_t counter,
                    uint8_t out[64]) {
  auto load = [](const uint8_t* p) {
    return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
  };
  auto rotl = [](uint32_t x, int n) { return (x << n) | (x >> (32 - n)); };
  auto qr = [&](uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
    a += b, d = rotl(d ^ a, 16);
    c += d, b = rotl(b ^ c, 12);
    a += b, d = rotl(d ^ a, 8);
    c += d, b = rotl(b ^ c, 7);
  };
  uint32_t s[16] = {0x61707865, 0x3320646e, 0x79622d32, 0x6b206574};
  for (int i = 0; i < 8; ++i) {
    s[4 + i] = load(key + 4 * i);
  }
  s[12] = counter;
  for (int i = 0; i < 3; ++i) {
    s[13 + i] = load(nonce + 4 * i);
  }
  uint32_t x[16];
  std::copy(s, s + 16, x);
  for (int round = 0; round < 10; ++round) {
    qr(x[0], x[4], x[8], x[12]);
    qr(x[1], x[5], x[9], x[13]);
    qr(x[2], x[6], x[10], x[14]);
    qr(x[3], x[7], x[11], x[15]);
    qr(x[0], x[5], x[10], x[15]);
    qr(x[1], x[6], x[11], x[12]);
    qr(x[2], x[7], x[8], x[13]);
    qr(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    uint32_t v = x[i] + s[i];
    for (int k = 0; k < 4; ++k) {
      out[4 * i + k] = static_cast<uint8_t>(v >> (8 * k));
    }
  }
}

// The reference keystream of `len` bytes starting at block `counter`; the
// counter wraps mod 2^32 and never carries into the nonce.
Bytes ReferenceKeystream(const uint8_t key[32], const uint8_t nonce[12], uint32_t counter,
                         size_t len) {
  Bytes out;
  uint8_t block[64];
  while (out.size() < len) {
    ReferenceBlock(key, nonce, counter++, block);
    out.insert(out.end(), block, block + std::min<size_t>(64, len - out.size()));
  }
  return out;
}

TEST(ChaCha20Test, ReferenceBlockMatchesRfc7539Section232) {
  uint8_t key[32];
  for (int i = 0; i < 32; ++i) {
    key[i] = static_cast<uint8_t>(i);
  }
  uint8_t nonce[12] = {0, 0, 0, 0x09, 0, 0, 0, 0x4a, 0, 0, 0, 0};
  uint8_t block[64];
  ReferenceBlock(key, nonce, 1, block);
  EXPECT_EQ(HexOf(block, 64),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
  ChaCha20 cipher(key, nonce, 1);
  Bytes ks(64);
  cipher.Keystream(ks.data(), ks.size());
  EXPECT_EQ(Bytes(block, block + 64), ks);
}

// Random keys, nonces and lengths, consumed as random sequences of Crypt and
// Keystream calls whose chunks straddle the cipher's internal buffer; the
// counters near 2^32 wrap inside one refill.
TEST(ChaCha20Test, MatchesScalarReferenceAcrossChunkingAndCounterWrap) {
  std::mt19937_64 rng(20181008);
  const uint32_t kCounters[] = {0, 1, 0xFFFFFFFDu, 0xFFFFFFFEu, 0xFFFFFFFFu};
  // 6 and 601 are coprime, so the trials cover every (counter, length) pair:
  // the five fixed counters plus a random one, each at every length 0–600.
  for (int trial = 0; trial < 6 * 601; ++trial) {
    uint8_t key[32];
    uint8_t nonce[12];
    for (auto& b : key) {
      b = static_cast<uint8_t>(rng());
    }
    for (auto& b : nonce) {
      b = static_cast<uint8_t>(rng());
    }
    uint32_t counter = trial % 6 < 5 ? kCounters[trial % 6] : static_cast<uint32_t>(rng());
    size_t len = trial % 601;
    Bytes plaintext(len);
    for (auto& b : plaintext) {
      b = static_cast<uint8_t>(rng());
    }
    Bytes expected_ks = ReferenceKeystream(key, nonce, counter, len);

    ChaCha20 cipher(key, nonce, counter);
    Bytes got = plaintext;
    Bytes expected = plaintext;
    size_t pos = 0;
    while (pos < len) {
      size_t chunk = std::min<size_t>(len - pos, rng() % 260);
      if (rng() & 1) {
        cipher.Crypt(got.data() + pos, chunk);
        for (size_t i = pos; i < pos + chunk; ++i) {
          expected[i] ^= expected_ks[i];
        }
      } else {
        cipher.Keystream(got.data() + pos, chunk);
        std::copy(expected_ks.begin() + pos, expected_ks.begin() + pos + chunk,
                  expected.begin() + pos);
      }
      pos += chunk;
    }
    ASSERT_EQ(got, expected) << "trial " << trial << " counter " << counter << " len " << len;
  }
}

TEST(CsprngTest, DeterministicForSameSeed) {
  Csprng a(42), b(42), c(43);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  EXPECT_NE(a.NextU64(), c.NextU64());
}

TEST(CsprngTest, UniformBoundRespected) {
  Csprng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(CsprngTest, RandomPermutationIsPermutation) {
  Csprng rng(9);
  auto perm = rng.RandomPermutation(257);
  std::vector<bool> seen(257, false);
  for (uint32_t v : perm) {
    ASSERT_LT(v, 257u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(CsprngTest, PermutationsDiffer) {
  Csprng rng(10);
  EXPECT_NE(rng.RandomPermutation(64), rng.RandomPermutation(64));
}

TEST(EncryptorTest, RoundTrip) {
  Encryptor enc = Encryptor::FromMasterKey(BytesFromString("secret"), false, 1);
  Bytes pt = BytesFromString("hello oblivious world");
  Bytes ct = enc.Encrypt(pt);
  EXPECT_EQ(ct.size(), pt.size() + enc.Overhead());
  auto back = enc.Decrypt(ct);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, pt);
}

TEST(EncryptorTest, RandomizedEncryption) {
  Encryptor enc = Encryptor::FromMasterKey(BytesFromString("secret"), false, 1);
  Bytes pt(128, 0x42);
  EXPECT_NE(enc.Encrypt(pt), enc.Encrypt(pt));
}

TEST(EncryptorTest, AuthenticatedModeDetectsTampering) {
  Encryptor enc = Encryptor::FromMasterKey(BytesFromString("secret"), true, 1);
  Bytes pt = BytesFromString("patient record");
  Bytes ct = enc.Encrypt(pt);
  ct[enc.Overhead() / 2] ^= 0x01;
  auto back = enc.Decrypt(ct);
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kIntegrityViolation);
}

TEST(EncryptorTest, AuthenticatedModeBindsAad) {
  Encryptor enc = Encryptor::FromMasterKey(BytesFromString("secret"), true, 1);
  Bytes pt = BytesFromString("bucket contents");
  Bytes aad1 = BytesFromString("bucket=1,version=7");
  Bytes aad2 = BytesFromString("bucket=1,version=8");
  Bytes ct = enc.Encrypt(pt, aad1);
  EXPECT_TRUE(enc.Decrypt(ct, aad1).ok());
  // Replaying a stale version under a different freshness tag must fail.
  EXPECT_EQ(enc.Decrypt(ct, aad2).status().code(), StatusCode::kIntegrityViolation);
}

TEST(EncryptorTest, UnauthenticatedModeHasNoTag) {
  Encryptor plain = Encryptor::FromMasterKey(BytesFromString("k"), false, 1);
  Encryptor authed = Encryptor::FromMasterKey(BytesFromString("k"), true, 1);
  EXPECT_EQ(plain.Overhead(), Encryptor::kNonceSize);
  EXPECT_EQ(authed.Overhead(), Encryptor::kNonceSize + Encryptor::kTagSize);
}

TEST(EncryptorTest, DecryptRejectsShortCiphertext) {
  Encryptor enc = Encryptor::FromMasterKey(BytesFromString("k"), false, 1);
  EXPECT_FALSE(enc.Decrypt(Bytes(4, 0)).ok());
}

}  // namespace
}  // namespace obladi
