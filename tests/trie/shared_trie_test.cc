#include "trie/trie.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "reference_trie.h"
#include "support/bytes.h"

namespace onoff::trie {
namespace {

std::string RootHex(const Trie& t) {
  Hash32 h = t.RootHash();
  return ToHex(BytesView(h.data(), h.size()));
}

// Copy-on-write structure: snapshots, structural sharing, concurrent hashing
// and the persist walk, checked against the test-only reference trie.

using testing::ReferenceTrie;

TEST(CowTrieTest, KnownVectorsMatchReferenceTrie) {
  // The canonical MPT documentation example, plus the reference trie on the
  // same content — roots must be byte-identical.
  Trie cow;
  ReferenceTrie ref;
  for (const char* kv : {"doe/reindeer", "dog/puppy", "dogglesworth/cat"}) {
    std::string s(kv);
    size_t slash = s.find('/');
    Bytes k = BytesOf(s.substr(0, slash));
    Bytes v = BytesOf(s.substr(slash + 1));
    cow.Put(k, v);
    ref.Put(k, v);
  }
  EXPECT_EQ(RootHex(cow),
            "8aad789dff2f538bca5d8ea56e8abe10f4c7ba3a5dea95fea4cd6e7c3a1168d3");
  EXPECT_EQ(cow.RootHash(), ref.RootHash());
}

TEST(CowTrieTest, DifferentialAgainstReferenceTrie) {
  // Random inserts, overwrites and deletes; after every mutation the trie's
  // root must equal a reference trie holding the same content.
  std::mt19937_64 rng(0xC0FFEE);
  Trie cow;
  ReferenceTrie ref;
  std::map<std::string, std::string> model;

  auto random_key = [&rng]() {
    // Short keys collide prefixes aggressively — exercises extension/branch
    // splitting and re-merging.
    size_t len = 1 + rng() % 6;
    std::string k;
    for (size_t i = 0; i < len; ++i) k.push_back('a' + rng() % 4);
    return k;
  };

  for (int step = 0; step < 800; ++step) {
    std::string k = random_key();
    if (rng() % 4 == 0 && !model.empty()) {
      auto it = model.begin();
      std::advance(it, rng() % model.size());
      k = it->first;
      cow.Delete(BytesOf(k));
      ref.Delete(BytesOf(k));
      model.erase(k);
    } else {
      std::string v = "value-" + std::to_string(rng() % 1000);
      cow.Put(BytesOf(k), BytesOf(v));
      ref.Put(BytesOf(k), BytesOf(v));
      model[k] = v;
    }
    ASSERT_EQ(cow.RootHash(), ref.RootHash()) << "diverged at step " << step;
  }
  // Content agrees with the model too.
  for (const auto& [k, v] : model) {
    Result<Bytes> got = cow.Get(BytesOf(k));
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(*got, BytesOf(v));
  }
}

TEST(CowTrieTest, CopyIsIndependentSnapshot) {
  Trie a;
  a.Put(BytesOf("doe"), BytesOf("reindeer"));
  a.Put(BytesOf("dog"), BytesOf("puppy"));
  Hash32 root_before = a.RootHash();

  Trie b = a;  // O(1): shares all nodes
  EXPECT_EQ(a.root().get(), b.root().get());

  a.Put(BytesOf("dog"), BytesOf("hound"));
  EXPECT_NE(a.RootHash(), root_before);
  // The snapshot is untouched — same root, same content.
  EXPECT_EQ(b.RootHash(), root_before);
  EXPECT_EQ(*b.Get(BytesOf("dog")), BytesOf("puppy"));

  // Reverting the value restores the exact root (content-addressed).
  a.Put(BytesOf("dog"), BytesOf("puppy"));
  EXPECT_EQ(a.RootHash(), root_before);
}

TEST(CowTrieTest, StructuralSharingAfterMutation) {
  // Two tries differing in one key share the untouched subtrees: mutating
  // one key must not clone the whole trie.
  Trie a;
  for (int i = 0; i < 200; ++i) {
    a.Put(BytesOf("key-" + std::to_string(i)), BytesOf("v" + std::to_string(i)));
  }
  size_t nodes_before = a.CountNodes();
  Trie b = a;
  b.Put(BytesOf("key-7"), BytesOf("changed"));
  // Only the spine from the root to one leaf was copied; reachable node
  // count is unchanged (same shape), and far fewer than 2x nodes exist in
  // total across both tries.
  EXPECT_EQ(b.CountNodes(), nodes_before);
  EXPECT_NE(a.root().get(), b.root().get());
}

TEST(CowTrieTest, NoOpWritePreservesIdentity) {
  Trie t;
  t.Put(BytesOf("alpha"), BytesOf("1"));
  t.Put(BytesOf("beta"), BytesOf("2"));
  const void* root_before = t.root().get();
  t.Put(BytesOf("alpha"), BytesOf("1"));  // same value: no-op
  EXPECT_EQ(t.root().get(), root_before);
  t.Delete(BytesOf("missing"));  // absent key: no-op
  EXPECT_EQ(t.root().get(), root_before);
}

TEST(CowTrieTest, ProofsVerifyWithAbsence) {
  Trie t;
  std::vector<std::string> keys;
  for (int i = 0; i < 50; ++i) {
    std::string k = "account-" + std::to_string(i);
    keys.push_back(k);
    t.Put(BytesOf(k), BytesOf("balance-" + std::to_string(i * 7)));
  }
  Hash32 root = t.RootHash();
  for (const std::string& k : keys) {
    std::vector<Bytes> proof = t.Prove(BytesOf(k));
    Result<std::optional<Bytes>> res = Trie::VerifyProof(root, BytesOf(k), proof);
    ASSERT_TRUE(res.ok()) << k << ": " << res.status().message();
    ASSERT_TRUE(res->has_value()) << k;
    EXPECT_EQ(**res, BytesOf("balance-" + std::to_string(
                                 std::stoi(k.substr(8)) * 7)));
  }
  // Absence proof.
  std::vector<Bytes> absent = t.Prove(BytesOf("account-999"));
  Result<std::optional<Bytes>> res =
      Trie::VerifyProof(root, BytesOf("account-999"), absent);
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res->has_value());
}

TEST(CowTrieTest, SecureTrieMatchesReferenceOverHashedKeys) {
  SecureTrie secure;
  ReferenceTrie ref;
  auto hashed = [](const Bytes& k) {
    Hash32 h = Keccak256(k);
    return Bytes(h.begin(), h.end());
  };
  for (int i = 0; i < 64; ++i) {
    Bytes k = BytesOf("slot" + std::to_string(i));
    Bytes v = BytesOf(std::string(1 + i % 40, 'x'));
    secure.Put(k, v);
    ref.Put(hashed(k), v);
  }
  EXPECT_EQ(secure.RootHash(), ref.RootHash());
  secure.Delete(BytesOf("slot3"));
  ref.Delete(hashed(BytesOf("slot3")));
  EXPECT_EQ(secure.RootHash(), ref.RootHash());
}

TEST(CowTrieTest, ConcurrentHashingOfSharedSnapshots) {
  // Snapshots share nodes whose encodings are memoized lazily; hashing the
  // same nodes from many threads must be race-free (TSan-checked in CI).
  Trie base;
  for (int i = 0; i < 300; ++i) {
    base.Put(BytesOf("key-" + std::to_string(i)),
             BytesOf("value-" + std::to_string(i)));
  }
  // Note: RootHash has NOT been called yet — encodings are all cold.
  std::vector<Trie> copies(8, base);
  Hash32 expect;
  std::vector<std::thread> threads;
  std::vector<Hash32> roots(copies.size());
  for (size_t i = 0; i < copies.size(); ++i) {
    threads.emplace_back([&, i] { roots[i] = copies[i].RootHash(); });
  }
  for (std::thread& th : threads) th.join();
  expect = base.RootHash();
  for (const Hash32& r : roots) EXPECT_EQ(r, expect);
}

TEST(CowTrieTest, PersistWalkEmitsEachNodeOnceAndStopsAtKnown) {
  Trie t;
  for (int i = 0; i < 120; ++i) {
    t.Put(BytesOf("key-" + std::to_string(i)), BytesOf(std::string(40, 'a')));
  }
  std::map<std::string, Bytes> store;
  size_t emitted = 0;
  auto known = [&store](const Hash32& h) {
    return store.count(std::string(h.begin(), h.end())) > 0;
  };
  auto emit = [&](const Hash32& h, const Bytes& enc,
                  const std::vector<Hash32>& refs) {
    // Children before parents: every hashed reference must already be
    // present when the referencing node arrives.
    for (const Hash32& r : refs) {
      EXPECT_TRUE(store.count(std::string(r.begin(), r.end())) > 0);
    }
    EXPECT_EQ(Keccak256(enc), h);
    store[std::string(h.begin(), h.end())] = enc;
    ++emitted;
  };
  t.PersistNodes(known, emit);
  EXPECT_GT(emitted, 0u);
  // Second walk with everything known: nothing re-emitted.
  size_t before = emitted;
  t.PersistNodes(known, emit);
  EXPECT_EQ(emitted, before);
  // One more key: only the new spine is emitted, not the whole trie.
  t.Put(BytesOf("key-new"), BytesOf(std::string(40, 'b')));
  t.PersistNodes(known, emit);
  EXPECT_GT(emitted, before);
  EXPECT_LT(emitted - before, 12u);
}

}  // namespace
}  // namespace onoff::trie
