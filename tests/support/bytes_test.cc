#include "support/bytes.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "support/address.h"

namespace onoff {
namespace {

TEST(BytesTest, ToHex) {
  EXPECT_EQ(ToHex(Bytes{}), "");
  EXPECT_EQ(ToHex(Bytes{0x00, 0xff, 0x1a}), "00ff1a");
  EXPECT_EQ(ToHex0x(Bytes{0xde, 0xad}), "0xdead");
}

TEST(BytesTest, FromHexAcceptsPrefixAndCase) {
  auto a = FromHex("0xDEADbeef");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, (Bytes{0xde, 0xad, 0xbe, 0xef}));
  auto b = FromHex("00ff");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, (Bytes{0x00, 0xff}));
  auto empty = FromHex("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(BytesTest, FromHexErrors) {
  EXPECT_FALSE(FromHex("abc").ok());   // odd length
  EXPECT_FALSE(FromHex("zz").ok());    // bad digit
  EXPECT_FALSE(FromHex("0x1").ok());   // odd after prefix
}

TEST(BytesTest, ConcatAndAppend) {
  Bytes a{1, 2};
  Append(a, Bytes{3, 4});
  EXPECT_EQ(a, (Bytes{1, 2, 3, 4}));
  Bytes c = Concat({Bytes{1}, Bytes{}, Bytes{2, 3}});
  EXPECT_EQ(c, (Bytes{1, 2, 3}));
}

TEST(BytesTest, ConstantTimeEqual) {
  EXPECT_TRUE(ConstantTimeEqual(Bytes{1, 2, 3}, Bytes{1, 2, 3}));
  EXPECT_FALSE(ConstantTimeEqual(Bytes{1, 2, 3}, Bytes{1, 2, 4}));
  EXPECT_FALSE(ConstantTimeEqual(Bytes{1, 2}, Bytes{1, 2, 3}));
  EXPECT_TRUE(ConstantTimeEqual(Bytes{}, Bytes{}));
}

TEST(BytesTest, BytesOf) {
  EXPECT_EQ(BytesOf("ab"), (Bytes{'a', 'b'}));
  EXPECT_TRUE(BytesOf("").empty());
}

TEST(AddressTest, HashSpreadsSmallWordAddresses) {
  // Addresses from small words differ only in their last bytes; a hash of
  // the leading bytes alone maps them all to one value.
  std::unordered_set<size_t> hashes;
  for (uint64_t i = 0; i < 4096; ++i) {
    hashes.insert(std::hash<Address>{}(Address::FromWord(U256(i))));
  }
  EXPECT_EQ(hashes.size(), 4096u);
}

}  // namespace
}  // namespace onoff
