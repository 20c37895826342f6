#include "era/build_subtree.h"

#include <limits>
#include <string>
#include <vector>

namespace era {

namespace {

/// TreeNode stores edge lengths in 32 bits. An input whose suffix edges pass
/// 4 GiB cannot be represented in the current node format, so fail loudly
/// instead of silently truncating into a wrong tree.
Status CheckedEdgeLen(uint64_t len, uint32_t* out) {
  if (len > std::numeric_limits<uint32_t>::max()) {
    return Status::Internal(
        "edge length " + std::to_string(len) +
        " overflows the 32-bit tree-node field; the input is beyond the "
        "node format's 4 GiB edge limit");
  }
  *out = static_cast<uint32_t>(len);
  return Status::OK();
}

}  // namespace

StatusOr<TreeBuffer> BuildSubTree(const PreparedSubTree& prepared,
                                  uint64_t text_length) {
  const std::vector<uint64_t>& leaves = prepared.leaves;
  const std::vector<BranchInfo>& branches = prepared.branches;
  if (leaves.empty()) {
    return Status::InvalidArgument("prepared sub-tree has no leaves");
  }

  TreeBuffer tree;
  tree.Reserve(2 * leaves.size());

  // Stack of the rightmost path: (node, string depth at node).
  struct Entry {
    uint32_t node;
    uint64_t depth;
  };
  std::vector<Entry> stack;
  stack.push_back({0, 0});

  // Every edge gets its first symbol from (L, B) alone, never from the text:
  // the first leaf's is the prefix's first symbol, and a branch at depth d
  // splits off the continuation toward L[i-1] (symbol c1) and hangs the new
  // leaf L[i] (symbol c2). A split's upper half keeps the symbol it had.

  // First (lexicographically smallest) leaf hangs off the root with its
  // whole suffix as the label (Figure 5(a)).
  {
    uint32_t leaf = tree.AddNode();
    TreeNode& node = tree.node(leaf);
    node.edge_start = leaves[0];
    node.first_symbol = static_cast<uint8_t>(
        prepared.prefix.empty() ? branches[0].c2 : prepared.prefix[0]);
    ERA_RETURN_NOT_OK(
        CheckedEdgeLen(text_length - leaves[0], &node.edge_len));
    node.leaf_id = leaves[0];
    tree.node(0).first_child = leaf;
    stack.push_back({leaf, text_length - leaves[0]});
  }

  for (std::size_t i = 1; i < leaves.size(); ++i) {
    if (!branches[i].defined) {
      return Status::Internal("undefined B entry at " + std::to_string(i));
    }
    const uint64_t d = branches[i].offset;

    // Pop the rightmost path down to depth d; `last` is the node whose
    // incoming edge crosses depth d (always exists: d is strictly smaller
    // than the previous leaf's depth because the terminal is unique).
    uint32_t last = kNilNode;
    while (stack.back().depth > d) {
      last = stack.back().node;
      stack.pop_back();
    }
    if (last == kNilNode) {
      return Status::Internal("non-decreasing branch offset at " +
                              std::to_string(i));
    }

    uint32_t attach;
    if (stack.back().depth == d) {
      // Branch point is an existing node.
      attach = stack.back().node;
    } else {
      // Break the edge to `last` at depth d (lines 15-21 of the paper).
      const uint64_t parent_depth = stack.back().depth;
      uint32_t mid = tree.AddNode();
      TreeNode& last_node = tree.node(last);
      TreeNode& mid_node = tree.node(mid);
      mid_node.edge_start = last_node.edge_start;
      mid_node.first_symbol = last_node.first_symbol;
      ERA_RETURN_NOT_OK(CheckedEdgeLen(d - parent_depth, &mid_node.edge_len));
      last_node.edge_start += mid_node.edge_len;
      last_node.edge_len -= mid_node.edge_len;
      last_node.first_symbol = static_cast<uint8_t>(branches[i].c1);
      mid_node.first_child = last;
      mid_node.next_sibling = last_node.next_sibling;
      last_node.next_sibling = kNilNode;

      // Replace `last` with `mid` in its parent's child chain. `last` is on
      // the rightmost path, so the walk is bounded by the branching factor.
      uint32_t parent = stack.back().node;
      if (tree.node(parent).first_child == last) {
        tree.node(parent).first_child = mid;
      } else {
        uint32_t c = tree.node(parent).first_child;
        while (tree.node(c).next_sibling != last) {
          c = tree.node(c).next_sibling;
          if (c == kNilNode) {
            return Status::Internal("rightmost child not found during split");
          }
        }
        tree.node(c).next_sibling = mid;
      }
      stack.push_back({mid, d});
      attach = mid;
      last = tree.node(mid).first_child;  // == old `last`, now mid's child
    }

    // Append the new leaf as the last (lexicographically largest so far)
    // child of the attach node.
    uint32_t leaf = tree.AddNode();
    TreeNode& leaf_node = tree.node(leaf);
    leaf_node.edge_start = leaves[i] + d;
    leaf_node.first_symbol = static_cast<uint8_t>(branches[i].c2);
    ERA_RETURN_NOT_OK(
        CheckedEdgeLen(text_length - leaves[i] - d, &leaf_node.edge_len));
    leaf_node.leaf_id = leaves[i];
    tree.node(last).next_sibling = leaf;
    (void)attach;
    stack.push_back({leaf, text_length - leaves[i]});
  }
  return tree;
}

}  // namespace era
