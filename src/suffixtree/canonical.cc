#include "suffixtree/canonical.h"

namespace era {

SaLcp TreeToSaLcp(const TreeBuffer& tree) {
  SaLcp out;
  if (tree.size() == 0) return out;

  // Iterative DFS with explicit (node, depth, next_child) frames.
  // `pending_lcp` is updated every time the traversal moves between child
  // subtrees of a node at depth d; the last assignment before a leaf emission
  // is the depth of that leaf's LCA with the previously emitted leaf.
  struct Frame {
    uint32_t node;
    uint64_t depth;       // string depth at this node
    uint32_t next_child;  // next unvisited child
  };
  std::vector<Frame> stack;
  uint64_t pending_lcp = 0;
  bool first_leaf = true;

  const TreeNode& root = tree.node(0);
  if (root.IsLeaf()) {
    out.sa.push_back(root.leaf_id);
    return out;
  }
  stack.push_back({0, 0, root.first_child});

  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_child == kNilNode) {
      stack.pop_back();
      if (!stack.empty()) pending_lcp = stack.back().depth;
      continue;
    }
    uint32_t c = top.next_child;
    const TreeNode& child = tree.node(c);
    top.next_child = child.next_sibling;
    if (child.IsLeaf()) {
      if (!first_leaf) out.lcp.push_back(pending_lcp);
      out.sa.push_back(child.leaf_id);
      first_leaf = false;
      pending_lcp = top.depth;
    } else {
      stack.push_back({c, top.depth + child.edge_len, child.first_child});
    }
  }
  return out;
}

SaLcp TreeToSaLcp(const ServedSubTree& tree) {
  SaLcp out;
  if (tree.size() == 0) return out;

  // Same traversal as the linked overload, through the NodeView cursor:
  // `next_child` is an index into the contiguous child block instead of a
  // sibling pointer, and no TreeNode is materialized.
  struct Frame {
    uint32_t node;
    uint64_t depth;       // string depth at this node
    uint32_t next_child;  // next unvisited child (0 .. num_children)
  };
  std::vector<Frame> stack;
  uint64_t pending_lcp = 0;
  bool first_leaf = true;

  const NodeView root = tree.node(0);
  if (root.IsLeaf()) {
    out.sa.push_back(tree.LeafId(root.leaf_ref));
    return out;
  }
  stack.push_back({0, 0, 0});

  while (!stack.empty()) {
    Frame& top = stack.back();
    const NodeView node = tree.node(top.node);
    if (top.next_child == node.num_children) {
      stack.pop_back();
      if (!stack.empty()) pending_lcp = stack.back().depth;
      continue;
    }
    uint32_t c = node.children_begin + top.next_child;
    ++top.next_child;
    const NodeView child = tree.node(c);
    if (child.IsLeaf()) {
      if (!first_leaf) out.lcp.push_back(pending_lcp);
      out.sa.push_back(tree.LeafId(child.leaf_ref));
      first_leaf = false;
      pending_lcp = top.depth;
    } else {
      stack.push_back({c, top.depth + child.edge_len, 0});
    }
  }
  return out;
}

uint64_t CountLeaves(const TreeBuffer& tree) {
  uint64_t n = 0;
  for (uint32_t i = 0; i < tree.size(); ++i) {
    if (tree.node(i).IsLeaf()) ++n;
  }
  return n;
}

}  // namespace era
