// Keccak-256 (the pre-NIST padding variant used by Ethereum).
//
// Ethereum's `keccak256` is Keccak with rate 1088 / capacity 512 and the
// original 0x01 domain padding (NOT SHA3-256's 0x06). All contract
// addresses, transaction hashes, function selectors and the bytecode hash
// signed by participants in the on/off-chain protocol use this function.

#ifndef ONOFFCHAIN_CRYPTO_KECCAK_H_
#define ONOFFCHAIN_CRYPTO_KECCAK_H_

#include <array>
#include <cstdint>

#include "support/bytes.h"

namespace onoff {

using Hash32 = std::array<uint8_t, 32>;

// Hash-table hasher for keys that already are keccak digests: their leading
// bytes are uniformly distributed, so they serve as the bucket hash.
struct Hash32Hasher {
  size_t operator()(const Hash32& h) const {
    size_t v = 0;
    for (size_t i = 0; i < sizeof(size_t); ++i) {
      v = (v << 8) | h[i];
    }
    return v;
  }
};

// One-shot Keccak-256 of `data`.
Hash32 Keccak256(BytesView data);

// Convenience: hash as a 32-byte Bytes.
Bytes Keccak256Bytes(BytesView data);

// Incremental hasher (absorb/squeeze), used where inputs are assembled from
// several parts without an intermediate copy.
class Keccak256Hasher {
 public:
  Keccak256Hasher();
  void Update(BytesView data);
  Hash32 Finalize();

 private:
  std::array<uint64_t, 25> state_;
  std::array<uint8_t, 136> buffer_;  // rate = 136 bytes
  size_t buffer_len_;
};

}  // namespace onoff

#endif  // ONOFFCHAIN_CRYPTO_KECCAK_H_
