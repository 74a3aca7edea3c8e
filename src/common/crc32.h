// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte ranges.
//
// Used by the file-backed stores' record framing (format v2) so a scan can
// tell a *corrupted* record (all bytes present, checksum wrong — fail
// closed) apart from a *torn* record (bytes missing at EOF after a crash
// mid-append — repairable). Slice-by-8 (eight bytes per step through 8
// lookup tables), no dependencies; not a MAC — the encryptor owns integrity
// against an adversary, this catches disk/fs bit rot and half-written sectors.
#ifndef OBLADI_SRC_COMMON_CRC32_H_
#define OBLADI_SRC_COMMON_CRC32_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace obladi {

namespace crc32_internal {

using Tables = std::array<std::array<uint32_t, 256>, 8>;

// kTables[0] is the classic byte-at-a-time table. kTables[k][b] is the CRC
// contribution of byte b followed by k zero bytes, so one step can fold
// eight bytes with eight independent lookups.
constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

inline constexpr Tables kTables = MakeTables();

inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace crc32_internal

// CRC of [data, data+len). Chain blocks by passing the previous result as
// `seed` (Crc32(b, Crc32(a)) == Crc32(a ++ b)).
inline uint32_t Crc32(const uint8_t* data, size_t len, uint32_t seed = 0) {
  const auto& t = crc32_internal::kTables;
  uint32_t crc = ~seed;
  for (; len >= 8; data += 8, len -= 8) {
    uint32_t lo = crc32_internal::LoadLe32(data) ^ crc;
    uint32_t hi = crc32_internal::LoadLe32(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (size_t i = 0; i < len; ++i) {
    crc = t[0][(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

template <typename Container>
  requires requires(const Container& c) {
    c.size();
    c.empty();
  }
inline uint32_t Crc32(const Container& bytes, uint32_t seed = 0) {
  return Crc32(bytes.empty() ? nullptr : &bytes[0], bytes.size(), seed);
}

}  // namespace obladi

#endif  // OBLADI_SRC_COMMON_CRC32_H_
