#include "src/crypto/chacha20.h"

#include <bit>
#include <cstring>

namespace obladi {

namespace {

// One row of the 4x4 state: lane i of row r is state word 4r + i. The column
// round works on whole rows; the diagonal round first rotates row r's lanes
// left by r so that each diagonal lines up in one lane.
typedef uint32_t Row __attribute__((vector_size(16)));

constexpr int kBlocks = 3;

// Rows a..d of each of the kBlocks blocks generated together. The blocks are
// independent, so interleaving them step by step gives the core
// instruction-level parallelism; 12 rows still fit x86-64's 16 SSE registers.
struct Blocks {
  Row a[kBlocks], b[kBlocks], c[kBlocks], d[kBlocks];
};

inline Row Rotl(Row x, int n) { return (x << n) | (x >> (32 - n)); }

inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

inline void StoreLe(uint8_t* p, Row v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(v));
  } else {
    for (int i = 0; i < 4; ++i) {
      for (int k = 0; k < 4; ++k) {
        p[4 * i + k] = static_cast<uint8_t>(v[i] >> (8 * k));
      }
    }
  }
}

// The RFC 7539 quarter round applied to the four lanes of every block at once.
inline void QuarterRounds(Blocks& x) {
  for (int k = 0; k < kBlocks; ++k) {
    x.a[k] += x.b[k];
    x.d[k] = Rotl(x.d[k] ^ x.a[k], 16);
  }
  for (int k = 0; k < kBlocks; ++k) {
    x.c[k] += x.d[k];
    x.b[k] = Rotl(x.b[k] ^ x.c[k], 12);
  }
  for (int k = 0; k < kBlocks; ++k) {
    x.a[k] += x.b[k];
    x.d[k] = Rotl(x.d[k] ^ x.a[k], 8);
  }
  for (int k = 0; k < kBlocks; ++k) {
    x.c[k] += x.d[k];
    x.b[k] = Rotl(x.b[k] ^ x.c[k], 7);
  }
}

// Rotates rows b, c, d left by 1, 2, 3 lanes so lane i holds diagonal i.
inline void Diagonalize(Blocks& x) {
  for (int k = 0; k < kBlocks; ++k) {
    x.b[k] = __builtin_shufflevector(x.b[k], x.b[k], 1, 2, 3, 0);
    x.c[k] = __builtin_shufflevector(x.c[k], x.c[k], 2, 3, 0, 1);
    x.d[k] = __builtin_shufflevector(x.d[k], x.d[k], 3, 0, 1, 2);
  }
}

inline void Undiagonalize(Blocks& x) {
  for (int k = 0; k < kBlocks; ++k) {
    x.b[k] = __builtin_shufflevector(x.b[k], x.b[k], 3, 0, 1, 2);
    x.c[k] = __builtin_shufflevector(x.c[k], x.c[k], 2, 3, 0, 1);
    x.d[k] = __builtin_shufflevector(x.d[k], x.d[k], 1, 2, 3, 0);
  }
}

}  // namespace

ChaCha20::ChaCha20(const uint8_t key[kKeySize], const uint8_t nonce[kNonceSize],
                   uint32_t counter) {
  static const uint8_t kSigma[16] = {'e', 'x', 'p', 'a', 'n', 'd', ' ', '3',
                                     '2', '-', 'b', 'y', 't', 'e', ' ', 'k'};
  state_[0] = LoadLe32(kSigma);
  state_[1] = LoadLe32(kSigma + 4);
  state_[2] = LoadLe32(kSigma + 8);
  state_[3] = LoadLe32(kSigma + 12);
  for (int i = 0; i < 8; ++i) {
    state_[4 + i] = LoadLe32(key + 4 * i);
  }
  state_[12] = counter;
  state_[13] = LoadLe32(nonce);
  state_[14] = LoadLe32(nonce + 4);
  state_[15] = LoadLe32(nonce + 8);
}

void ChaCha20::Refill() {
  static_assert(kBlocks == kBlocksPerRefill);
  Row input[4];
  std::memcpy(input, state_, sizeof(input));
  // Block k's counter word is counter + k; the add wraps mod 2^32 like the
  // counter itself, and never carries into the nonce.
  Row counter_row[kBlocks];
  Blocks x;
  for (int k = 0; k < kBlocks; ++k) {
    counter_row[k] = input[3] + Row{static_cast<uint32_t>(k), 0, 0, 0};
    x.a[k] = input[0];
    x.b[k] = input[1];
    x.c[k] = input[2];
    x.d[k] = counter_row[k];
  }
  for (int round = 0; round < 10; ++round) {
    QuarterRounds(x);  // columns
    Diagonalize(x);
    QuarterRounds(x);  // diagonals
    Undiagonalize(x);
  }
  for (int k = 0; k < kBlocks; ++k) {
    uint8_t* block = buffer_ + 64 * k;
    StoreLe(block, x.a[k] + input[0]);
    StoreLe(block + 16, x.b[k] + input[1]);
    StoreLe(block + 32, x.c[k] + input[2]);
    StoreLe(block + 48, x.d[k] + counter_row[k]);
  }
  state_[12] += kBlocks;  // block counter
  buffer_pos_ = 0;
}

void ChaCha20::Crypt(uint8_t* data, size_t len) {
  size_t i = 0;
  while (i < len) {
    if (buffer_pos_ == kBufferSize) {
      Refill();
    }
    size_t take = kBufferSize - buffer_pos_;
    if (take > len - i) {
      take = len - i;
    }
    // Chunked XOR; the inner loop auto-vectorizes.
    const uint8_t* ks = buffer_ + buffer_pos_;
    for (size_t j = 0; j < take; ++j) {
      data[i + j] ^= ks[j];
    }
    buffer_pos_ += take;
    i += take;
  }
}

void ChaCha20::Keystream(uint8_t* out, size_t len) {
  size_t i = 0;
  while (i < len) {
    if (buffer_pos_ == kBufferSize) {
      Refill();
    }
    size_t take = kBufferSize - buffer_pos_;
    if (take > len - i) {
      take = len - i;
    }
    std::memcpy(out + i, buffer_ + buffer_pos_, take);
    buffer_pos_ += take;
    i += take;
  }
}

}  // namespace obladi
