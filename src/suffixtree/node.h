// In-memory suffix-tree node layouts.
//
// Two 32-byte POD node formats share this header:
//
//  * TreeNode — the builder-side linked layout. Edges are stored on their
//    child node as (edge_start, edge_len) offsets into the input string S —
//    the O(n) representation of Section 2. Children are linked through
//    first_child/next_sibling in lexicographic order of their first edge
//    symbol, so a depth-first traversal emits suffixes in lexicographic
//    order.
//
//  * CountedNode — the counted layout the on-disk format bit-packs (see
//    suffixtree/compressed_tree.h). Children are stored contiguously,
//    sorted by first edge symbol (child lookup is a binary search instead
//    of a sibling-list walk), and every node carries its subtree leaf count,
//    so Count is a pure root-to-node walk with zero leaf enumeration.
//
// Both layouts store the first symbol of every non-root node's incoming edge
// (the byte S[edge_start]). Builders fill it from symbols they already hold
// (ERA's B[i] = (c1, c2, offset) entries, in-memory text, or the symbols a
// baseline compares anyway), so child lookup at query time compares stored
// symbols and never reads the text. The root stores 0; every text symbol is
// a printable byte, so 0 is never a valid child symbol.
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

/// One node of the counted layout (32 bytes, trivially copyable).
///
/// The writer lays nodes out depth-first, reserving each node's child block
/// the moment the node is first visited. Two structural guarantees follow,
/// and the reader enforces both:
///   * the children of a node occupy the contiguous slot range
///     [children_begin, children_begin + num_children), sorted strictly
///     ascending by the first symbol of their incoming edge (first_symbol);
///   * the strict descendants of a node occupy one contiguous slot range
///     starting at children_begin, so collecting the occurrences under a
///     match is a linear scan that stops after subtree_leaf_count leaves.
/// children_begin > own index for every internal node, which also bounds
/// every traversal (no cycles are representable).
struct CountedNode {
  /// Offset in S of the first symbol of the incoming edge label.
  uint64_t edge_start = 0;
  /// Leaves (num_children == 0): starting offset of the suffix this leaf
  /// represents. Internal nodes: number of leaves in this node's subtree —
  /// the Count answer for a pattern ending on this node's incoming edge.
  uint64_t leaf_or_count = 0;
  /// Length of the incoming edge label (0 only for the root).
  uint32_t edge_len = 0;
  /// First slot of the contiguous child block (internal nodes only).
  uint32_t children_begin = 0;
  /// Number of children; 0 discriminates leaves.
  uint32_t num_children = 0;
  /// First symbol of the incoming edge label (0 for the root). Child lookup
  /// binary-searches a child block on this field, so it needs no text.
  uint8_t first_symbol = 0;
  /// Padding (keeps the struct at 32 bytes; always zero).
  uint8_t reserved[3] = {0, 0, 0};

  bool IsLeaf() const { return num_children == 0; }
  /// Suffix offset of a leaf (meaningless for internal nodes).
  uint64_t leaf_id() const { return leaf_or_count; }
  /// Leaves in this node's subtree (1 for a leaf).
  uint64_t LeafCount() const { return IsLeaf() ? 1 : leaf_or_count; }
};

static_assert(sizeof(CountedNode) == 32, "CountedNode must stay 32 bytes");

}  // namespace era

#endif  // ERA_SUFFIXTREE_NODE_H_
