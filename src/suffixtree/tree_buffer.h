// Append-only node arena for one sub-tree: the one in-memory suffix-tree
// form. Builders fill it, WriteSubTree encodes it (ServedSubTree::
// EncodePayload), and ServedSubTree::Inflate rebuilds it from a sub-tree
// file for the validator and the TRELLIS merge.

#ifndef ERA_SUFFIXTREE_TREE_BUFFER_H_
#define ERA_SUFFIXTREE_TREE_BUFFER_H_

#include <cstdint>
#include <vector>

#include "suffixtree/node.h"

namespace era {

/// Growable array of TreeNodes. Node 0 is always the root. The buffer only
/// provides storage and navigation; builders maintain the sibling ordering
/// invariant (lexicographic by first edge symbol).
class TreeBuffer {
 public:
  TreeBuffer() { nodes_.emplace_back(); }

  /// Appends a fresh node, returning its index.
  uint32_t AddNode() {
    nodes_.emplace_back();
    return static_cast<uint32_t>(nodes_.size() - 1);
  }

  TreeNode& node(uint32_t i) { return nodes_[i]; }
  const TreeNode& node(uint32_t i) const { return nodes_[i]; }

  uint32_t size() const { return static_cast<uint32_t>(nodes_.size()); }
  uint64_t MemoryBytes() const { return nodes_.size() * sizeof(TreeNode); }

  void Reserve(uint64_t n) { nodes_.reserve(n); }

  /// Appends `child` as the LAST child of `parent` (O(#children); used by
  /// merge-based builders — batch builders link siblings directly).
  void AppendChildLast(uint32_t parent, uint32_t child) {
    uint32_t c = nodes_[parent].first_child;
    if (c == kNilNode) {
      nodes_[parent].first_child = child;
      return;
    }
    while (nodes_[c].next_sibling != kNilNode) c = nodes_[c].next_sibling;
    nodes_[c].next_sibling = child;
  }

  /// Number of children of `u` (O(#children)).
  uint32_t CountChildren(uint32_t u) const {
    uint32_t n = 0;
    for (uint32_t c = nodes_[u].first_child; c != kNilNode;
         c = nodes_[c].next_sibling) {
      ++n;
    }
    return n;
  }

  const std::vector<TreeNode>& nodes() const { return nodes_; }
  std::vector<TreeNode>& mutable_nodes() { return nodes_; }

 private:
  std::vector<TreeNode> nodes_;
};

}  // namespace era

#endif  // ERA_SUFFIXTREE_TREE_BUFFER_H_
