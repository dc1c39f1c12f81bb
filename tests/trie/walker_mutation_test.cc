// Seeded, structure-aware mutation test for the one trie-node walker
// (`trie::Descend`) through both of its callers: `Trie::VerifyProof` over
// proof elements and `NodeStore::LookupSecure` over stored node records.
//
// Mutations: byte flips, truncation, element reorder and duplication,
// 2<->17-field list arity, hashed<->embedded child references and
// hex-prefix flag nibbles > 3. Properties:
//  - against the honest root, VerifyProof never returns Ok with a value
//    other than the true one;
//  - a proof or store whose hashes were re-linked after the mutation (so
//    the walker really decodes the malformed node) never crashes either
//    caller (the ASan job checks for reads of freed memory);
//  - swapping a hashed child for the embedded node (or back) changes no
//    verdict.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "crypto/keccak.h"
#include "rlp/rlp.h"
#include "storage/node_store.h"
#include "support/bytes.h"
#include "trie/trie.h"

namespace onoff::trie {
namespace {

using Found = std::optional<Bytes>;
using Records = std::map<Hash32, Bytes>;

Bytes HashBytes(const Hash32& h) { return Bytes(h.begin(), h.end()); }

Hash32 ToHash(const Bytes& b) {
  Hash32 h{};
  std::copy(b.begin(), b.end(), h.begin());
  return h;
}

// ---- Node-level mutations (each returns nullopt when not applicable) ----

std::optional<Bytes> FlipByte(const Bytes& enc, std::mt19937_64& rng) {
  if (enc.empty()) return std::nullopt;
  Bytes out = enc;
  out[rng() % out.size()] ^= static_cast<uint8_t>(1u << (rng() % 8));
  return out;
}

std::optional<Bytes> TruncateBytes(const Bytes& enc, std::mt19937_64& rng) {
  if (enc.empty()) return std::nullopt;
  return Bytes(enc.begin(), enc.begin() + rng() % enc.size());
}

// A 2-field node becomes a 17-field one (15 empty slots appended) and a
// 17-field node keeps only its first two fields.
std::optional<Bytes> SwapArity(const Bytes& enc) {
  Result<rlp::Item> item = rlp::Decode(enc);
  if (!item.ok() || !item->IsList()) return std::nullopt;
  std::vector<rlp::Item> fields = item->list();
  if (fields.size() == 2) {
    fields.resize(17, rlp::Item::String(Bytes{}));
  } else if (fields.size() == 17) {
    fields.resize(2, rlp::Item::String(Bytes{}));
  } else {
    return std::nullopt;
  }
  return rlp::Encode(rlp::Item::List(std::move(fields)));
}

// Sets the hex-prefix flag nibble of a 2-field node to a value in 4..15.
std::optional<Bytes> BadFlag(const Bytes& enc, std::mt19937_64& rng) {
  Result<rlp::Item> item = rlp::Decode(enc);
  if (!item.ok() || !item->IsList() || item->list().size() != 2 ||
      !item->list()[0].IsString() || item->list()[0].string().empty()) {
    return std::nullopt;
  }
  std::vector<rlp::Item> fields = item->list();
  Bytes path = fields[0].string();
  path[0] = static_cast<uint8_t>(((4 + rng() % 12) << 4) | (path[0] & 0xf));
  fields[0] = rlp::Item::String(path);
  return rlp::Encode(rlp::Item::List(std::move(fields)));
}

// Replaces the first top-level hashed child reference that `resolve`
// knows with the decoded child node.
template <typename Resolve>
std::optional<Bytes> EmbedChild(const Bytes& enc, Resolve resolve) {
  Result<rlp::Item> item = rlp::Decode(enc);
  if (!item.ok() || !item->IsList()) return std::nullopt;
  std::vector<rlp::Item> fields = item->list();
  size_t first_child = fields.size() == 2 ? 1 : 0;
  size_t end_child = fields.size() == 2 ? 2 : std::min<size_t>(16, fields.size());
  for (size_t i = first_child; i < end_child; ++i) {
    if (!fields[i].IsString() || fields[i].string().size() != 32) continue;
    std::optional<Bytes> child = resolve(ToHash(fields[i].string()));
    if (!child.has_value()) continue;
    Result<rlp::Item> child_item = rlp::Decode(*child);
    if (!child_item.ok()) continue;
    fields[i] = std::move(*child_item);
    return rlp::Encode(rlp::Item::List(std::move(fields)));
  }
  return std::nullopt;
}

// Replaces the first top-level embedded child with its hash; `sink`
// receives the child's record.
template <typename Sink>
std::optional<Bytes> HashChild(const Bytes& enc, Sink sink) {
  Result<rlp::Item> item = rlp::Decode(enc);
  if (!item.ok() || !item->IsList()) return std::nullopt;
  std::vector<rlp::Item> fields = item->list();
  size_t first_child = fields.size() == 2 ? 1 : 0;
  size_t end_child = fields.size() == 2 ? 2 : std::min<size_t>(16, fields.size());
  for (size_t i = first_child; i < end_child; ++i) {
    if (!fields[i].IsList()) continue;
    Bytes child = rlp::Encode(fields[i]);
    Hash32 h = Keccak256(child);
    sink(h, child);
    fields[i] = rlp::Item::String(HashBytes(h));
    return rlp::Encode(rlp::Item::List(std::move(fields)));
  }
  return std::nullopt;
}

// Replaces every occurrence of the 32 bytes `from` in `enc` with `to`
// (same length, so no RLP length prefix changes).
void Relink(Bytes& enc, const Hash32& from, const Hash32& to) {
  if (enc.size() < 32) return;
  for (size_t i = 0; i + 32 <= enc.size(); ++i) {
    if (std::equal(from.begin(), from.end(), enc.begin() + i)) {
      std::copy(to.begin(), to.end(), enc.begin() + i);
    }
  }
}

// After element `i` changed, re-links every ancestor to its new hash and
// returns the new root (the proof's first element is the root node).
Hash32 RelinkProof(std::vector<Bytes>& proof, size_t i, const Bytes& old_enc) {
  Hash32 old_hash = Keccak256(old_enc);
  for (size_t j = i; j-- > 0;) {
    Bytes before = proof[j];
    Relink(proof[j], old_hash, Keccak256(proof[j + 1]));
    old_hash = Keccak256(before);
  }
  return Keccak256(proof[0]);
}

enum class Kind { kFlip, kTruncate, kArity, kFlag, kEmbed, kHash };
constexpr Kind kNodeKinds[] = {Kind::kFlip,  Kind::kTruncate, Kind::kArity,
                               Kind::kFlag,  Kind::kEmbed,    Kind::kHash};

// The mutations that need no other node; nullopt for the other kinds.
std::optional<Bytes> MutateAlone(Kind kind, const Bytes& enc,
                                 std::mt19937_64& rng) {
  switch (kind) {
    case Kind::kFlip: return FlipByte(enc, rng);
    case Kind::kTruncate: return TruncateBytes(enc, rng);
    case Kind::kArity: return SwapArity(enc);
    case Kind::kFlag: return BadFlag(enc, rng);
    case Kind::kEmbed:
    case Kind::kHash: break;
  }
  return std::nullopt;
}

// Element `i` with the next proof element embedded in place of its hash.
std::optional<Bytes> EmbedNext(const std::vector<Bytes>& proof, size_t i) {
  if (i + 1 >= proof.size()) return std::nullopt;
  Hash32 next = Keccak256(proof[i + 1]);
  return EmbedChild(proof[i], [&](const Hash32& h) {
    return h == next ? std::optional<Bytes>(proof[i + 1]) : std::nullopt;
  });
}

// ---- Proof fixture: raw keys, so short leaves embed in their parents ----

struct ProofFixture {
  Trie trie;
  Hash32 root;
  std::vector<std::pair<Bytes, Found>> cases;  // key -> true verdict
};

ProofFixture MakeProofFixture() {
  ProofFixture f;
  for (int i = 0; i < 60; ++i) {
    std::string value = i % 3 == 0 ? std::string(40 + i, 'v')
                                   : "balance-" + std::to_string(i * 7);
    f.trie.Put(BytesOf("account-" + std::to_string(i)), BytesOf(value));
  }
  f.root = f.trie.RootHash();
  for (int i = 0; i < 60; i += 4) {
    Bytes key = BytesOf("account-" + std::to_string(i));
    f.cases.emplace_back(key, Found(*f.trie.Get(key)));
  }
  for (const char* absent : {"account-999", "account-", "acc", "", "b"}) {
    f.cases.emplace_back(BytesOf(absent), Found(std::nullopt));
  }
  return f;
}

void ExpectTrueOrError(const Result<Found>& got, const Found& truth,
                       const std::string& what) {
  if (!got.ok()) return;
  EXPECT_EQ(*got, truth) << what;
}

TEST(WalkerMutationTest, ProofMutationsNeverProveAWrongValue) {
  ProofFixture f = MakeProofFixture();
  std::mt19937_64 rng(20190408);
  size_t rejected = 0;
  size_t checked = 0;
  for (const auto& [key, truth] : f.cases) {
    const std::vector<Bytes> proof = f.trie.Prove(key);
    Result<Found> honest = Trie::VerifyProof(f.root, key, proof);
    ASSERT_TRUE(honest.ok()) << honest.status().ToString();
    ASSERT_EQ(*honest, truth);
    auto check = [&](const std::vector<Bytes>& bad, const std::string& what) {
      Result<Found> got = Trie::VerifyProof(f.root, key, bad);
      ExpectTrueOrError(got, truth, what);
      rejected += got.ok() ? 0 : 1;
      ++checked;
    };

    for (int round = 0; round < 8; ++round) {
      // Sequence mutations: reorder, duplicate, drop the tail.
      if (proof.size() > 1) {
        std::vector<Bytes> bad = proof;
        std::swap(bad[rng() % bad.size()], bad[rng() % bad.size()]);
        check(bad, "reorder");
        bad = proof;
        bad.resize(1 + rng() % (proof.size() - 1));
        check(bad, "truncate proof");
      }
      std::vector<Bytes> dup = proof;
      dup.insert(dup.begin() + rng() % (dup.size() + 1),
                 proof[rng() % proof.size()]);
      check(dup, "duplicate");

      // Node mutations against the honest root.
      for (Kind kind : kNodeKinds) {
        size_t i = rng() % proof.size();
        std::vector<Bytes> bad = proof;
        std::optional<Bytes> mutated = MutateAlone(kind, proof[i], rng);
        if (kind == Kind::kEmbed) {
          mutated = EmbedNext(proof, i);
          if (mutated.has_value()) bad.erase(bad.begin() + i + 1);
        } else if (kind == Kind::kHash) {
          mutated = HashChild(proof[i], [&](const Hash32&, const Bytes& rec) {
            bad.insert(bad.begin() + i + 1, rec);
          });
        }
        if (!mutated.has_value()) continue;
        bad[i] = *mutated;
        check(bad, "node mutation " + std::to_string(static_cast<int>(kind)));
      }
    }
  }
  EXPECT_GT(checked, 500u);
  EXPECT_GT(rejected, checked / 2);
}

TEST(WalkerMutationTest, RelinkedProofMutationsAreDecodedSafely) {
  // Re-linking ancestors makes the mutated node hash-valid, so the walker
  // decodes it: malformed bytes must give an error or a verdict, never a
  // crash. Embedding the hashed child on the path keeps the verdict.
  ProofFixture f = MakeProofFixture();
  std::mt19937_64 rng(7);
  size_t embedded = 0;
  for (const auto& [key, truth] : f.cases) {
    const std::vector<Bytes> proof = f.trie.Prove(key);
    for (int round = 0; round < 6; ++round) {
      for (Kind kind : kNodeKinds) {
        if (kind == Kind::kHash) continue;  // needs the element reordered
        size_t i = rng() % proof.size();
        std::vector<Bytes> bad = proof;
        std::optional<Bytes> mutated = kind == Kind::kEmbed
                                           ? EmbedNext(proof, i)
                                           : MutateAlone(kind, proof[i], rng);
        if (!mutated.has_value()) continue;
        bad[i] = *mutated;
        Hash32 root = RelinkProof(bad, i, proof[i]);
        if (kind == Kind::kEmbed) bad.erase(bad.begin() + i + 1);
        Result<Found> got = Trie::VerifyProof(root, key, bad);
        if (kind == Kind::kEmbed) {
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_EQ(*got, truth);
          ++embedded;
        }
      }
    }
  }
  EXPECT_GT(embedded, 0u);
}

// ---- Store fixture: a persisted secure trie plus hand-built roots whose
// ---- extensions hold embedded branches and leaves.

struct StoreCase {
  Hash32 root;
  Bytes key;
  Found truth;
};

struct StoreFixture {
  Records records;
  std::vector<StoreCase> cases;
};

StoreFixture MakeStoreFixture() {
  StoreFixture f;
  SecureTrie t;
  for (int i = 0; i < 40; ++i) {
    t.Put(BytesOf("slot-" + std::to_string(i)),
          BytesOf(std::string(1 + i % 45, static_cast<char>('a' + i % 26))));
  }
  t.PersistNodes([&](const Hash32& h) { return f.records.count(h) > 0; },
                 [&](const Hash32& h, const Bytes& enc,
                     const std::vector<Hash32>&) { f.records[h] = enc; });
  Hash32 root = t.RootHash();
  for (int i = 0; i < 40; i += 5) {
    Bytes key = BytesOf("slot-" + std::to_string(i));
    f.cases.push_back({root, key, Found(*t.Get(key))});
  }
  f.cases.push_back({root, BytesOf("slot-missing"), Found(std::nullopt)});

  for (int i = 0; i < 6; ++i) {
    Bytes key = BytesOf("channel-" + std::to_string(i));
    Hash32 hashed = Keccak256(key);
    std::vector<uint8_t> nibbles =
        BytesToNibbles(BytesView(hashed.data(), hashed.size()));
    Bytes value = BytesOf("bet-" + std::to_string(i));
    rlp::Item leaf = rlp::Item::List(
        {rlp::Item::String(HexPrefixEncode({}, /*is_leaf=*/true)),
         rlp::Item::String(value)});
    std::vector<rlp::Item> kids(17, rlp::Item::String(Bytes{}));
    kids[nibbles.back()] = leaf;
    std::vector<uint8_t> ext_path(nibbles.begin(), nibbles.end() - 1);
    Bytes enc = rlp::Encode(rlp::Item::List(
        {rlp::Item::String(HexPrefixEncode(ext_path, /*is_leaf=*/false)),
         rlp::Item::List(std::move(kids))}));
    Hash32 ext_root = Keccak256(enc);
    f.records[ext_root] = enc;
    f.cases.push_back({ext_root, key, Found(value)});
    f.cases.push_back(
        {ext_root, BytesOf("elsewhere-" + std::to_string(i)), Found(std::nullopt)});
  }
  return f;
}

// An in-memory store holding exactly `records`.
std::unique_ptr<storage::NodeStore> MakeStore(const Records& records) {
  auto store = std::make_unique<storage::NodeStore>();
  for (const auto& [hash, enc] : records) {
    EXPECT_TRUE(store->Put(hash, enc, {}).ok());
  }
  return store;
}

TEST(WalkerMutationTest, StoreRecordMutationsAreDecodedSafely) {
  StoreFixture f = MakeStoreFixture();
  auto honest_store = MakeStore(f.records);
  for (const StoreCase& c : f.cases) {
    Result<Found> honest = honest_store->LookupSecure(c.root, c.key);
    ASSERT_TRUE(honest.ok()) << honest.status().ToString();
    ASSERT_EQ(*honest, c.truth);
  }

  std::mt19937_64 rng(0x5eed);
  std::vector<Hash32> hashes;
  for (const auto& entry : f.records) hashes.push_back(entry.first);
  size_t preserved = 0;
  for (int round = 0; round < 60; ++round) {
    for (Kind kind : kNodeKinds) {
      // The store is content-addressed but trusts its records: a mutated
      // record stays under its old hash, so the walker decodes it as is.
      Records bad = f.records;
      const Hash32& target = hashes[rng() % hashes.size()];
      const Bytes& enc = f.records.at(target);
      std::optional<Bytes> mutated = MutateAlone(kind, enc, rng);
      if (kind == Kind::kEmbed) {
        mutated = EmbedChild(enc, [&](const Hash32& h) -> std::optional<Bytes> {
          auto it = f.records.find(h);
          if (it == f.records.end()) return std::nullopt;
          return it->second;
        });
      } else if (kind == Kind::kHash) {
        mutated = HashChild(enc, [&](const Hash32& h, const Bytes& rec) {
          bad[h] = rec;
        });
      }
      if (!mutated.has_value()) continue;
      bad[target] = *mutated;
      auto store = MakeStore(bad);
      for (const StoreCase& c : f.cases) {
        Result<Found> got = store->LookupSecure(c.root, c.key);
        if (kind == Kind::kEmbed || kind == Kind::kHash) {
          // Same content, other reference form: same verdict.
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_EQ(*got, c.truth);
          ++preserved;
        }
      }
    }
  }
  EXPECT_GT(preserved, 0u);

  // A missing record is an error, not absence.
  Records missing = f.records;
  missing.erase(f.cases.front().root);
  EXPECT_FALSE(MakeStore(missing)
                   ->LookupSecure(f.cases.front().root, f.cases.front().key)
                   .ok());
}

}  // namespace
}  // namespace onoff::trie
