// In-memory suffix-tree node: TreeNode, the one node form every builder
// writes and every consumer of an in-memory tree reads.
//
// Edges are stored on their child node as (edge_start, edge_len) offsets
// into the input string S — the O(n) representation of Section 2. Children
// are linked through first_child/next_sibling in lexicographic order of their
// first edge symbol, so a depth-first traversal emits suffixes in
// lexicographic order. The on-disk and serving form (suffixtree/
// compressed_tree.h) re-lays a tree out depth-first with contiguous child
// blocks and subtree leaf counts; it is encoded straight from, and inflates
// back to, this form.
//
// Every non-root node stores the first symbol of its incoming edge (the byte
// S[edge_start]). Builders fill it from symbols they already hold (ERA's
// B[i] = (c1, c2, offset) entries, in-memory text, or the symbols a baseline
// compares anyway), so child lookup at query time compares stored symbols
// and never reads the text. The root stores 0; every text symbol is a
// printable byte, so 0 is never a valid child symbol.
//
// The paper sizes sub-trees as 2 * f_p * sizeof(tree node); FM derives from
// sizeof(TreeNode) (see era/memory_layout.h).

#ifndef ERA_SUFFIXTREE_NODE_H_
#define ERA_SUFFIXTREE_NODE_H_

#include <cstdint>

namespace era {

/// Sentinel for "no node".
inline constexpr uint32_t kNilNode = 0xFFFFFFFFu;
/// Sentinel leaf id for internal nodes.
inline constexpr uint64_t kNoLeaf = ~0ull;

/// One suffix-tree node (32 bytes, trivially copyable).
struct TreeNode {
  /// Offset in S of the first symbol of the incoming edge label.
  uint64_t edge_start = 0;
  /// For leaves: starting offset of the suffix this leaf represents.
  /// kNoLeaf for internal nodes.
  uint64_t leaf_id = kNoLeaf;
  /// Length of the incoming edge label (0 only for the root).
  uint32_t edge_len = 0;
  /// First child in lexicographic order; kNilNode if none.
  uint32_t first_child = kNilNode;
  /// Next sibling in lexicographic order; kNilNode if last.
  uint32_t next_sibling = kNilNode;
  /// First symbol of the incoming edge label (0 for the root).
  uint8_t first_symbol = 0;
  /// Padding (keeps the struct at 32 bytes; always zero).
  uint8_t reserved[3] = {0, 0, 0};

  bool IsLeaf() const { return leaf_id != kNoLeaf; }
};

static_assert(sizeof(TreeNode) == 32, "TreeNode must stay 32 bytes");

}  // namespace era

#endif  // ERA_SUFFIXTREE_NODE_H_
