// Test-only reference Merkle Patricia Trie: the original unique-ownership
// implementation that re-encodes the whole trie on every RootHash. It
// shares no node code with `trie::Trie` (only the hex-prefix and nibble
// helpers), so the differential tests compare two independent builds of
// the same commitment.

#ifndef ONOFFCHAIN_TESTS_TRIE_REFERENCE_TRIE_H_
#define ONOFFCHAIN_TESTS_TRIE_REFERENCE_TRIE_H_

#include <memory>

#include "crypto/keccak.h"
#include "support/bytes.h"

namespace onoff::trie::testing {

struct RefNode;

class ReferenceTrie {
 public:
  ReferenceTrie();
  ~ReferenceTrie();
  ReferenceTrie(const ReferenceTrie&) = delete;
  ReferenceTrie& operator=(const ReferenceTrie&) = delete;

  // Inserts or overwrites; an empty value deletes the key.
  void Put(BytesView key, BytesView value);
  void Delete(BytesView key);
  Hash32 RootHash() const;

 private:
  std::unique_ptr<RefNode> root_;
};

}  // namespace onoff::trie::testing

#endif  // ONOFFCHAIN_TESTS_TRIE_REFERENCE_TRIE_H_
