#include "src/oram/block_codec.h"

#include <cstring>

#include "src/common/serde.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/sha256.h"

namespace obladi {

BlockCodec::BlockCodec(const RingOramConfig& config, Bytes dummy_seed_key)
    : payload_size_(config.block_payload_size),
      plaintext_size_(config.slot_plaintext_size()) {
  Sha256::Digest d = Sha256::Hash(dummy_seed_key);
  dummy_key_.assign(d.begin(), d.end());
}

Bytes BlockCodec::EncodeBlock(BlockId id, Leaf leaf, const Bytes& payload) const {
  Bytes out(plaintext_size_, 0);
  BinaryWriter header;
  header.PutU64(id);
  header.PutU32(leaf);
  std::memcpy(out.data(), header.bytes().data(), header.size());
  size_t n = payload.size() < payload_size_ ? payload.size() : payload_size_;
  if (n > 0) {  // an empty payload's data() may be null
    std::memcpy(out.data() + 12, payload.data(), n);
  }
  return out;
}

DecodedBlock BlockCodec::DecodeBlock(const Bytes& plaintext) const {
  DecodedBlock out;
  if (plaintext.size() < 12) {
    return out;
  }
  BinaryReader reader(plaintext.data(), 12);
  out.id = reader.GetU64();
  out.leaf = reader.GetU32();
  out.payload.assign(plaintext.begin() + 12, plaintext.end());
  return out;
}

Bytes BlockCodec::DummyPlaintext(BucketIndex bucket, uint32_t version, SlotIndex slot) const {
  Bytes out(plaintext_size_);
  uint8_t nonce[ChaCha20::kNonceSize];
  BinaryWriter w;
  w.PutU32(bucket);
  w.PutU32(version);
  w.PutU32(slot);
  std::memcpy(nonce, w.bytes().data(), sizeof(nonce));
  ChaCha20 prf(dummy_key_.data(), nonce);
  prf.Keystream(out.data(), out.size());
  // Stamp the invalid id so decoded dummies are recognizable.
  BinaryWriter header;
  header.PutU64(kInvalidBlockId);
  header.PutU32(kInvalidLeaf);
  std::memcpy(out.data(), header.bytes().data(), header.size());
  return out;
}

Bytes BlockCodec::MakeAad(BucketIndex bucket, uint32_t version, SlotIndex slot) {
  BinaryWriter w;
  w.PutU32(bucket);
  w.PutU32(version);
  w.PutU32(slot);
  return w.Take();
}

}  // namespace obladi
