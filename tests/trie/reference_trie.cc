#include "reference_trie.h"

#include <array>
#include <cassert>
#include <vector>

#include "rlp/rlp.h"
#include "trie/trie.h"

namespace onoff::trie::testing {

struct RefNode {
  enum class Type { kLeaf, kExtension, kBranch };

  Type type;
  // Nibble path for leaf/extension nodes.
  std::vector<uint8_t> path;
  // Leaf value, or the value slot of a branch.
  Bytes value;
  // Extension child.
  std::unique_ptr<RefNode> child;
  // Branch children.
  std::array<std::unique_ptr<RefNode>, 16> children;

  static std::unique_ptr<RefNode> Leaf(std::vector<uint8_t> path, Bytes value) {
    auto n = std::make_unique<RefNode>();
    n->type = Type::kLeaf;
    n->path = std::move(path);
    n->value = std::move(value);
    return n;
  }
  static std::unique_ptr<RefNode> Extension(std::vector<uint8_t> path,
                                         std::unique_ptr<RefNode> child) {
    auto n = std::make_unique<RefNode>();
    n->type = Type::kExtension;
    n->path = std::move(path);
    n->child = std::move(child);
    return n;
  }
  static std::unique_ptr<RefNode> Branch() {
    auto n = std::make_unique<RefNode>();
    n->type = Type::kBranch;
    return n;
  }
};

namespace {

using Node = RefNode;
using NodePtr = std::unique_ptr<Node>;
using Nibbles = std::vector<uint8_t>;

Nibbles Sub(const Nibbles& n, size_t from) {
  return Nibbles(n.begin() + from, n.end());
}

size_t CommonPrefix(const Nibbles& a, const Nibbles& b) {
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return i;
}

// ---- Insert ----

NodePtr InsertNode(NodePtr node, const Nibbles& key, Bytes value) {
  if (node == nullptr) {
    return Node::Leaf(key, std::move(value));
  }
  switch (node->type) {
    case Node::Type::kLeaf: {
      size_t cp = CommonPrefix(node->path, key);
      if (cp == node->path.size() && cp == key.size()) {
        node->value = std::move(value);
        return node;
      }
      // Split into a branch (optionally under an extension for the shared
      // prefix).
      NodePtr branch = Node::Branch();
      if (cp == node->path.size()) {
        branch->value = std::move(node->value);
      } else {
        uint8_t idx = node->path[cp];
        branch->children[idx] =
            Node::Leaf(Sub(node->path, cp + 1), std::move(node->value));
      }
      if (cp == key.size()) {
        branch->value = std::move(value);
      } else {
        uint8_t idx = key[cp];
        branch->children[idx] = Node::Leaf(Sub(key, cp + 1), std::move(value));
      }
      if (cp > 0) {
        Nibbles prefix(key.begin(), key.begin() + cp);
        return Node::Extension(std::move(prefix), std::move(branch));
      }
      return branch;
    }
    case Node::Type::kExtension: {
      size_t cp = CommonPrefix(node->path, key);
      if (cp == node->path.size()) {
        node->child = InsertNode(std::move(node->child), Sub(key, cp),
                                 std::move(value));
        return node;
      }
      // The extension splits.
      NodePtr branch = Node::Branch();
      uint8_t ext_idx = node->path[cp];
      Nibbles ext_rest = Sub(node->path, cp + 1);
      if (ext_rest.empty()) {
        branch->children[ext_idx] = std::move(node->child);
      } else {
        branch->children[ext_idx] =
            Node::Extension(std::move(ext_rest), std::move(node->child));
      }
      if (cp == key.size()) {
        branch->value = std::move(value);
      } else {
        branch->children[key[cp]] =
            Node::Leaf(Sub(key, cp + 1), std::move(value));
      }
      if (cp > 0) {
        Nibbles prefix(key.begin(), key.begin() + cp);
        return Node::Extension(std::move(prefix), std::move(branch));
      }
      return branch;
    }
    case Node::Type::kBranch: {
      if (key.empty()) {
        node->value = std::move(value);
        return node;
      }
      uint8_t idx = key[0];
      node->children[idx] = InsertNode(std::move(node->children[idx]),
                                       Sub(key, 1), std::move(value));
      return node;
    }
  }
  return node;  // unreachable
}

// ---- Delete ----

// Re-collapses an extension whose child may have degenerated.
NodePtr NormalizeExtension(NodePtr node) {
  assert(node->type == Node::Type::kExtension);
  Node* child = node->child.get();
  if (child == nullptr) return nullptr;
  switch (child->type) {
    case Node::Type::kLeaf: {
      Nibbles merged = node->path;
      merged.insert(merged.end(), child->path.begin(), child->path.end());
      return Node::Leaf(std::move(merged), std::move(child->value));
    }
    case Node::Type::kExtension: {
      Nibbles merged = node->path;
      merged.insert(merged.end(), child->path.begin(), child->path.end());
      return Node::Extension(std::move(merged), std::move(child->child));
    }
    case Node::Type::kBranch:
      return node;
  }
  return node;
}

// Collapses a branch left with a single child and no value, or only a value.
NodePtr NormalizeBranch(NodePtr node) {
  assert(node->type == Node::Type::kBranch);
  int live = -1;
  int count = 0;
  for (int i = 0; i < 16; ++i) {
    if (node->children[i] != nullptr) {
      live = i;
      ++count;
    }
  }
  bool has_value = !node->value.empty();
  if (count == 0 && !has_value) return nullptr;
  if (count == 0 && has_value) {
    return Node::Leaf(Nibbles{}, std::move(node->value));
  }
  if (count == 1 && !has_value) {
    NodePtr child = std::move(node->children[live]);
    Nibbles merged{static_cast<uint8_t>(live)};
    switch (child->type) {
      case Node::Type::kLeaf:
        merged.insert(merged.end(), child->path.begin(), child->path.end());
        return Node::Leaf(std::move(merged), std::move(child->value));
      case Node::Type::kExtension:
        merged.insert(merged.end(), child->path.begin(), child->path.end());
        return Node::Extension(std::move(merged), std::move(child->child));
      case Node::Type::kBranch:
        return Node::Extension(std::move(merged), std::move(child));
    }
  }
  return node;
}

NodePtr DeleteNode(NodePtr node, const Nibbles& key) {
  if (node == nullptr) return nullptr;
  switch (node->type) {
    case Node::Type::kLeaf:
      if (node->path == key) return nullptr;
      return node;
    case Node::Type::kExtension: {
      size_t cp = CommonPrefix(node->path, key);
      if (cp != node->path.size()) return node;  // key not present
      node->child = DeleteNode(std::move(node->child), Sub(key, cp));
      if (node->child == nullptr) return nullptr;
      return NormalizeExtension(std::move(node));
    }
    case Node::Type::kBranch: {
      if (key.empty()) {
        node->value.clear();
      } else {
        uint8_t idx = key[0];
        node->children[idx] =
            DeleteNode(std::move(node->children[idx]), Sub(key, 1));
      }
      return NormalizeBranch(std::move(node));
    }
  }
  return node;  // unreachable
}

// ---- Hashing ----

Bytes EncodeNode(const Node* node);

// A node reference inside a parent: raw encoding if < 32 bytes, else the
// 32-byte keccak wrapped as an RLP string.
Bytes Ref(const Node* node) {
  Bytes enc = EncodeNode(node);
  if (enc.size() < 32) return enc;  // embedded structurally
  Hash32 h = Keccak256(enc);
  return rlp::EncodeString(BytesView(h.data(), h.size()));
}

Bytes EncodeNode(const Node* node) {
  switch (node->type) {
    case Node::Type::kLeaf: {
      std::vector<Bytes> fields;
      fields.push_back(rlp::EncodeString(HexPrefixEncode(node->path, true)));
      fields.push_back(rlp::EncodeString(node->value));
      return rlp::EncodeList(fields);
    }
    case Node::Type::kExtension: {
      std::vector<Bytes> fields;
      fields.push_back(rlp::EncodeString(HexPrefixEncode(node->path, false)));
      fields.push_back(Ref(node->child.get()));
      return rlp::EncodeList(fields);
    }
    case Node::Type::kBranch: {
      std::vector<Bytes> fields;
      for (int i = 0; i < 16; ++i) {
        if (node->children[i] == nullptr) {
          fields.push_back(rlp::EncodeString(Bytes{}));
        } else {
          fields.push_back(Ref(node->children[i].get()));
        }
      }
      fields.push_back(rlp::EncodeString(node->value));
      return rlp::EncodeList(fields);
    }
  }
  return {};  // unreachable
}

}  // namespace

ReferenceTrie::ReferenceTrie() = default;
ReferenceTrie::~ReferenceTrie() = default;

void ReferenceTrie::Put(BytesView key, BytesView value) {
  Nibbles nibbles = BytesToNibbles(key);
  if (value.empty()) {
    root_ = DeleteNode(std::move(root_), nibbles);
    return;
  }
  root_ = InsertNode(std::move(root_), nibbles,
                     Bytes(value.begin(), value.end()));
}

void ReferenceTrie::Delete(BytesView key) {
  root_ = DeleteNode(std::move(root_), BytesToNibbles(key));
}

Hash32 ReferenceTrie::RootHash() const {
  if (root_ == nullptr) return Keccak256(rlp::EncodeString(Bytes{}));
  return Keccak256(EncodeNode(root_.get()));
}

}  // namespace onoff::trie::testing
