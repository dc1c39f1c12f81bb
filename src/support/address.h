// 20-byte Ethereum-style account address.

#ifndef ONOFFCHAIN_SUPPORT_ADDRESS_H_
#define ONOFFCHAIN_SUPPORT_ADDRESS_H_

#include <array>
#include <compare>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include "support/bytes.h"
#include "support/status.h"
#include "support/u256.h"

namespace onoff {

class Address {
 public:
  static constexpr size_t kSize = 20;

  Address() : bytes_{} {}
  explicit Address(const std::array<uint8_t, kSize>& bytes) : bytes_(bytes) {}

  // Parses "0x"-prefixed or bare 40-digit hex.
  static Result<Address> FromHex(std::string_view hex) {
    ONOFF_ASSIGN_OR_RETURN(Bytes raw, onoff::FromHex(hex));
    if (raw.size() != kSize) {
      return Status::InvalidArgument("address must be 20 bytes");
    }
    Address out;
    std::memcpy(out.bytes_.data(), raw.data(), kSize);
    return out;
  }

  // Takes the low 20 bytes of a 32-byte word (EVM address coercion).
  static Address FromWord(const U256& word) {
    auto be = word.ToBigEndian();
    Address out;
    std::memcpy(out.bytes_.data(), be.data() + 12, kSize);
    return out;
  }

  static Result<Address> FromBytes(BytesView raw) {
    if (raw.size() != kSize) {
      return Status::InvalidArgument("address must be 20 bytes");
    }
    Address out;
    std::memcpy(out.bytes_.data(), raw.data(), kSize);
    return out;
  }

  const std::array<uint8_t, kSize>& bytes() const { return bytes_; }
  BytesView view() const { return BytesView(bytes_.data(), kSize); }
  bool IsZero() const {
    for (uint8_t b : bytes_) {
      if (b != 0) return false;
    }
    return true;
  }

  // Zero-extends to a 32-byte EVM word.
  U256 ToWord() const {
    return U256::FromBigEndianTruncating(view());
  }

  std::string ToHex() const { return onoff::ToHex0x(view()); }

  auto operator<=>(const Address&) const = default;

 private:
  std::array<uint8_t, kSize> bytes_;
};

}  // namespace onoff

// Hash support so Address can key unordered maps.
template <>
struct std::hash<onoff::Address> {
  size_t operator()(const onoff::Address& a) const noexcept {
    // Folds all 20 bytes: keccak-derived addresses are uniform anywhere,
    // but addresses made from small words (precompiles, fixtures) differ
    // only in their trailing bytes. Odd multipliers keep each part's
    // contribution injective.
    uint64_t head, mid;
    uint32_t tail;
    std::memcpy(&head, a.bytes().data(), sizeof(head));
    std::memcpy(&mid, a.bytes().data() + 8, sizeof(mid));
    std::memcpy(&tail, a.bytes().data() + 16, sizeof(tail));
    return static_cast<size_t>(head ^ (mid * 0x9e3779b97f4a7c15ULL) ^
                               (tail * 0xc2b2ae3d27d4eb4fULL));
  }
};

#endif  // ONOFFCHAIN_SUPPORT_ADDRESS_H_
