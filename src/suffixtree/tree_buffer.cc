#include "suffixtree/tree_buffer.h"

#include <utility>

namespace era {

StatusOr<CountedTree> BuildCountedTree(const TreeBuffer& tree) {
  const uint32_t n = tree.size();
  if (n == 0) return Status::Corruption("cannot convert an empty tree");

  CountedTree out;
  std::vector<CountedNode>& nodes = out.mutable_nodes();
  nodes.resize(n);

  auto copy_edge = [&](uint32_t old_id, uint32_t slot) {
    const TreeNode& src = tree.node(old_id);
    CountedNode& dst = nodes[slot];
    dst.edge_start = src.edge_start;
    dst.edge_len = src.edge_len;
    dst.first_symbol = src.first_symbol;
    // Valid for leaves; overwritten with the subtree leaf count for internal
    // nodes by the reverse pass below.
    dst.leaf_or_count = src.leaf_id;
  };

  // DFS placement: popping a node assigns its children one contiguous block
  // at the tail, then descends into the first child, so the strict
  // descendants of every node end up in one contiguous range starting at its
  // children_begin (the layout contract of node.h).
  std::vector<std::pair<uint32_t, uint32_t>> stack;  // (old id, slot)
  std::vector<char> seen(n, 0);
  std::vector<uint32_t> kids;
  copy_edge(0, 0);
  seen[0] = 1;
  stack.push_back({0, 0});
  uint32_t next_slot = 1;
  while (!stack.empty()) {
    auto [u_old, u_slot] = stack.back();
    stack.pop_back();
    kids.clear();
    for (uint32_t c = tree.node(u_old).first_child; c != kNilNode;
         c = tree.node(c).next_sibling) {
      if (c >= n) return Status::Corruption("child id out of range");
      if (seen[c]) return Status::Corruption("linked structure is not a tree");
      seen[c] = 1;
      kids.push_back(c);
    }
    CountedNode& u = nodes[u_slot];
    if (kids.empty()) {
      if (!tree.node(u_old).IsLeaf()) {
        // Includes the degenerate root-only tree: a sub-tree that indexes no
        // suffix is never written, so fail loudly instead of encoding it.
        return Status::Corruption("childless internal node");
      }
      continue;
    }
    u.num_children = static_cast<uint32_t>(kids.size());
    u.children_begin = next_slot;
    for (std::size_t i = 0; i < kids.size(); ++i) {
      copy_edge(kids[i], next_slot + static_cast<uint32_t>(i));
    }
    uint32_t block_begin = next_slot;
    next_slot += static_cast<uint32_t>(kids.size());
    for (std::size_t i = kids.size(); i-- > 0;) {
      stack.push_back({kids[i], block_begin + static_cast<uint32_t>(i)});
    }
  }
  if (next_slot != n) {
    return Status::Corruption("orphan nodes in linked tree");
  }

  // Children always live at higher slots than their parent, so one reverse
  // pass resolves every subtree leaf count.
  for (uint32_t i = n; i-- > 0;) {
    CountedNode& u = nodes[i];
    if (u.IsLeaf()) continue;
    uint64_t total = 0;
    for (uint32_t c = 0; c < u.num_children; ++c) {
      total += nodes[u.children_begin + c].LeafCount();
    }
    u.leaf_or_count = total;
  }
  return out;
}

Status ValidateCountedLayout(const CountedTree& tree) {
  const uint64_t n = tree.size();
  if (n == 0) return Status::Corruption("empty counted tree");
  if (tree.node(0).edge_len != 0 || tree.node(0).first_symbol != 0) {
    return Status::Corruption("counted root has an incoming edge");
  }
  // Reverse pass: children always sit at higher slots, so subtree node and
  // leaf totals resolve bottom-up in one sweep.
  std::vector<uint64_t> span(n);  // nodes in the subtree, self included
  for (uint64_t i = n; i-- > 0;) {
    const CountedNode& u = tree.node(i);
    if (u.IsLeaf()) {
      span[i] = 1;
      continue;
    }
    if (u.children_begin <= i || u.children_begin > n ||
        n - u.children_begin < u.num_children) {
      return Status::Corruption("counted child block out of bounds");
    }
    uint64_t nodes = 1;
    uint64_t leaves = 0;
    for (uint32_t c = 0; c < u.num_children; ++c) {
      const CountedNode& child = tree.node(u.children_begin + c);
      // Child lookup binary-searches this field, so the order node.h
      // promises is checked here rather than trusted.
      if (child.first_symbol == 0 ||
          (c > 0 && child.first_symbol <=
                        tree.node(u.children_begin + c - 1).first_symbol)) {
        return Status::Corruption(
            "child block first symbols are not strictly ascending");
      }
      nodes += span[u.children_begin + c];
      leaves += child.LeafCount();
    }
    if (leaves != u.leaf_or_count) {
      return Status::Corruption("inconsistent subtree leaf count");
    }
    span[i] = nodes;
    // Canonical DFS block layout: after this node's child block, the strict
    // descendants of each internal child follow consecutively in child
    // order. Without this, two subtrees' slot ranges could interleave and a
    // linear descendant scan would surface another subtree's leaves.
    uint64_t next = u.children_begin + u.num_children;
    for (uint32_t c = 0; c < u.num_children; ++c) {
      const CountedNode& child = tree.node(u.children_begin + c);
      if (child.IsLeaf()) continue;
      if (child.children_begin != next) {
        return Status::Corruption("descendant blocks are not contiguous");
      }
      next += span[u.children_begin + c] - 1;
    }
  }
  if (span[0] != n) {
    return Status::Corruption("unreachable nodes in counted tree");
  }
  return Status::OK();
}

StatusOr<TreeBuffer> LinkedFromCounted(const CountedTree& tree) {
  const uint32_t n = tree.size();
  if (n == 0) return Status::Corruption("cannot convert an empty tree");
  TreeBuffer out;
  out.Reserve(n);
  for (uint32_t i = 1; i < n; ++i) out.AddNode();
  for (uint32_t i = 0; i < n; ++i) {
    const CountedNode& src = tree.node(i);
    TreeNode& dst = out.node(i);
    dst.edge_start = src.edge_start;
    dst.edge_len = src.edge_len;
    dst.first_symbol = src.first_symbol;
    dst.leaf_id = src.IsLeaf() ? src.leaf_id() : kNoLeaf;
    if (src.IsLeaf()) continue;
    if (src.children_begin <= i ||
        src.children_begin + src.num_children > n ||
        src.children_begin + src.num_children < src.children_begin) {
      return Status::Corruption("counted child block out of range");
    }
    dst.first_child = src.children_begin;
    for (uint32_t c = 0; c + 1 < src.num_children; ++c) {
      out.node(src.children_begin + c).next_sibling =
          src.children_begin + c + 1;
    }
  }
  return out;
}

}  // namespace era
