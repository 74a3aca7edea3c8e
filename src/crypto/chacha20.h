// ChaCha20 stream cipher (RFC 7539) — the symmetric cipher behind Obladi's
// randomized block encryption and the CSPRNG.
#ifndef OBLADI_SRC_CRYPTO_CHACHA20_H_
#define OBLADI_SRC_CRYPTO_CHACHA20_H_

#include <cstddef>
#include <cstdint>

namespace obladi {

class ChaCha20 {
 public:
  static constexpr size_t kKeySize = 32;
  static constexpr size_t kNonceSize = 12;

  ChaCha20(const uint8_t key[kKeySize], const uint8_t nonce[kNonceSize], uint32_t counter = 0);

  // XOR the keystream into data (encrypt == decrypt).
  void Crypt(uint8_t* data, size_t len);

  // Fill out with raw keystream (used by the DRBG).
  void Keystream(uint8_t* out, size_t len);

 private:
  // Keystream is generated three 64-byte blocks at a time: a slot plaintext
  // (12-byte header + 128-byte payload) needs exactly three.
  static constexpr size_t kBlocksPerRefill = 3;
  static constexpr size_t kBufferSize = 64 * kBlocksPerRefill;

  // Fills buffer_ with blocks counter, counter+1, counter+2 (mod 2^32) and
  // advances the counter by three.
  void Refill();

  uint32_t state_[16];
  uint8_t buffer_[kBufferSize];
  size_t buffer_pos_ = kBufferSize;  // forces generation on first use
};

}  // namespace obladi

#endif  // OBLADI_SRC_CRYPTO_CHACHA20_H_
