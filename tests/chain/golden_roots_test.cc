// Frozen consensus bytes: tx/receipt-style indexed roots and the state
// commitments of a fixed small world state. The expected values were
// captured from the unique-ownership trie (now the test-only
// ReferenceTrie); any change that alters a header root, a storage root or
// a proof's bytes fails here.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chain/block.h"
#include "crypto/keccak.h"
#include "state/world_state.h"
#include "support/address.h"
#include "support/bytes.h"
#include "support/u256.h"

namespace onoff {
namespace {

std::string Hex(const Hash32& h) { return ToHex(BytesView(h.data(), h.size())); }

// Deterministic payloads of mixed length (1..90 bytes), so the indexed trie
// holds both embedded (< 32-byte) and hashed nodes.
std::vector<Bytes> Payloads(size_t n) {
  std::vector<Bytes> out;
  for (size_t i = 0; i < n; ++i) {
    Hash32 h = Keccak256(BytesOf("payload-" + std::to_string(i)));
    Bytes p(h.begin(), h.end());
    p.resize(1 + (i * 7) % 90, static_cast<uint8_t>(i));
    out.push_back(std::move(p));
  }
  return out;
}

TEST(GoldenRootsTest, IndexedRoots) {
  const std::vector<std::pair<size_t, std::string>> golden = {
      {0,
       "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421"},
      {1,
       "03b3d4de72dcdbaf5d77e469b51a92ca38240a2fd5808bd3b00c94bbeab543fc"},
      {2,
       "48034ff8a98efaaba15c08af801de079b4dfb1afa3ee786e0dad87ea83187d31"},
      {16,
       "d623e35d14633a659601c38450f3855ccc77789abdf80091d4c79c312f132698"},
      {17,
       "7830af619afbba15e0e1e7700bd5ef9c127b8185c927bd4dc46b2e700173d033"},
      {128,
       "cb26a30254a713be26f5c2fadc25336e5a77f0e45cc8929a3f3f8338edffb3c4"},
      {200,
       "c5defeb8c2869ffebed4491d51bca408d231acb2051a7e3fdb9a6033a09863e4"},
  };
  for (const auto& [n, expected] : golden) {
    EXPECT_EQ(Hex(chain::IndexedRoot(Payloads(n))), expected) << n;
  }
}

Address Addr(const std::string& name) {
  Hash32 h = Keccak256(BytesOf(name));
  return *Address::FromBytes(BytesView(h.data() + 12, 20));
}

// Three EOAs, one contract with code and storage, one account with a
// nonce only.
void BuildWorld(state::WorldState& ws) {
  for (int i = 0; i < 3; ++i) {
    ws.AddBalance(Addr("eoa-" + std::to_string(i)), U256(1000 + i));
  }
  Address contract = Addr("contract");
  ws.CreateAccount(contract);
  ws.SetCode(contract, Bytes{0x60, 0x00, 0x60, 0x00, 0xf3});
  ws.SetNonce(contract, 1);
  for (uint64_t k = 0; k < 20; ++k) {
    ws.SetStorage(contract, U256(k), U256(k * k + 1));
  }
  ws.SetNonce(Addr("nonce-only"), 7);
}

TEST(GoldenRootsTest, WorldStateCommitments) {
  state::WorldState ws;
  BuildWorld(ws);
  const std::string kStateRoot =
      "a6ea5feebbb2ff1bdac9e08c45546ae043c3446ecb85b8b63be10c07eae76b3e";
  const std::string kStorageRoot =
      "24d98fa8a6dfa1d9aa9f1ee90ee90bc07db1f59f315c84871e6cc0867b259399";
  const std::vector<std::string> kAccountProof = {
      "f8b1a0659d4b567a61b0ecc7862866f48ab288b89a040af6daa7b7389d9a8799"
      "65f6eb80808080a0a02cd9a92016b8266639b9c9cc88338094b420ea0fb507a5"
      "2b02124de11ab79480a0323874d7d3f83332aa2e88b7edbd864eee66c555ba9e"
      "5073da54d30239514f07a0e0e8b11edc58e92f8dc75956375dbdbcef95951acf"
      "ed59bba56cbedbc74a9779a0971b12a4d1496bd27a708df92bc06abeb071dc42"
      "e4790b8574d8e5576c11cdd080808080808080",
      "f869a03a48cd6b53f50086631e4fd2fe38fd610442145598c9628ec73862c56f"
      "64e071b846f8440180a024d98fa8a6dfa1d9aa9f1ee90ee90bc07db1f59f315c"
      "84871e6cc0867b259399a0d003426e799329b8dca093f3bbab55a5e4e9f3c401"
      "60fc942068eef712ae88ad",
  };

  Hash32 root = ws.StateRoot();
  EXPECT_EQ(Hex(root), kStateRoot);
  EXPECT_EQ(Hex(ws.RebuildStateRoot()), kStateRoot);

  state::WorldState::Proof proof = ws.ProveAccount(Addr("contract"));
  std::vector<std::string> proof_hex;
  for (const Bytes& node : proof.account_proof) proof_hex.push_back(ToHex(node));
  EXPECT_EQ(proof_hex, kAccountProof);

  auto info = state::WorldState::VerifyAccountProof(root, Addr("contract"),
                                                    proof.account_proof);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_TRUE(info->has_value());
  EXPECT_EQ(Hex((*info)->storage_root), kStorageRoot);
  EXPECT_EQ((*info)->nonce, 1u);
}

}  // namespace
}  // namespace onoff
