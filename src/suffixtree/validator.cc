#include "suffixtree/validator.h"

#include <algorithm>
#include <vector>

#include "suffixtree/canonical.h"

namespace era {

namespace {

/// Compares suffixes `a` and `b` of `text` lexicographically.
bool SuffixLess(const std::string& text, uint64_t a, uint64_t b) {
  return text.compare(a, std::string::npos, text, b, std::string::npos) < 0;
}

}  // namespace

Status ValidateSubTree(const TreeBuffer& tree, const std::string& text,
                       const std::string& prefix) {
  if (tree.size() == 0) return Status::Corruption("empty tree");
  const uint64_t n = text.size();

  std::vector<char> visited(tree.size(), 0);
  struct Frame {
    uint32_t node;
    uint64_t depth;
  };
  std::vector<Frame> stack;
  stack.push_back({0, 0});
  visited[0] = 1;
  if (tree.node(0).edge_len != 0) {
    return Status::Corruption("root must have no incoming edge");
  }

  std::vector<uint64_t> leaves_in_order;
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const TreeNode& node = tree.node(f.node);

    uint32_t num_children = 0;
    char prev_symbol = '\0';
    bool first = true;
    // Push children in reverse order so DFS emits them in forward order.
    std::vector<uint32_t> children;
    for (uint32_t c = node.first_child; c != kNilNode;
         c = tree.node(c).next_sibling) {
      if (c >= tree.size()) return Status::Corruption("child out of range");
      if (visited[c]) return Status::Corruption("node visited twice");
      visited[c] = 1;
      const TreeNode& child = tree.node(c);
      if (child.edge_len == 0) {
        return Status::Corruption("non-root node with empty edge");
      }
      if (child.edge_start + child.edge_len > n) {
        return Status::Corruption("edge label out of text bounds");
      }
      char symbol = text[child.edge_start];
      if (child.first_symbol != static_cast<uint8_t>(symbol)) {
        return Status::Corruption("stored first symbol does not match text");
      }
      if (!first && symbol <= prev_symbol) {
        return Status::Corruption("children not in strict symbol order");
      }
      prev_symbol = symbol;
      first = false;
      ++num_children;
      children.push_back(c);
    }

    if (node.IsLeaf()) {
      if (num_children != 0) {
        return Status::Corruption("leaf with children");
      }
      if (node.leaf_id >= n) return Status::Corruption("leaf id out of range");
      // Root-to-leaf path must spell the suffix: depth symbols consumed, and
      // the edge labels must match the suffix text. We verify by checking
      // that the total depth equals the suffix length and each edge label
      // equals the corresponding slice of the suffix (done incrementally via
      // edge_start bookkeeping below).
      if (f.depth != n - node.leaf_id) {
        return Status::Corruption("leaf depth != suffix length");
      }
      leaves_in_order.push_back(node.leaf_id);
    } else {
      if (f.node != 0 && num_children < 2) {
        return Status::Corruption("internal node with < 2 children");
      }
      if (f.node == 0 && num_children < 1) {
        return Status::Corruption("root with no children");
      }
    }

    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.push_back({*it, f.depth + tree.node(*it).edge_len});
    }
  }

  for (uint32_t i = 0; i < tree.size(); ++i) {
    if (!visited[i]) return Status::Corruption("orphan node");
  }

  // Each leaf's path label must equal its suffix, and leaves must be sorted.
  // Because edges reference the text, path-label equality reduces to: for
  // each leaf, walking down from the root, each edge label must match the
  // suffix slice at the appropriate offset. Internal edges are compared
  // byte by byte. A leaf edge runs to the end of S, and S ends with a unique
  // terminal, so its label equals S[leaf_pos + depth, n) exactly when it
  // starts there and has that length: an O(1) check where a byte compare
  // would make the walk Θ(n²) per sub-tree.
  for (uint64_t leaf_pos : leaves_in_order) {
    uint64_t suffix_len = n - leaf_pos;
    uint64_t depth = 0;
    uint32_t cur = 0;
    while (true) {
      const TreeNode& node = tree.node(cur);
      if (node.IsLeaf()) break;
      bool advanced = false;
      for (uint32_t c = node.first_child; c != kNilNode;
           c = tree.node(c).next_sibling) {
        const TreeNode& child = tree.node(c);
        if (text[child.edge_start] == text[leaf_pos + depth]) {
          const bool label_ok =
              child.IsLeaf()
                  ? child.edge_start == leaf_pos + depth &&
                        child.edge_len == suffix_len - depth
                  : text.compare(child.edge_start, child.edge_len, text,
                                 leaf_pos + depth,
                                 std::min<uint64_t>(child.edge_len,
                                                    suffix_len - depth)) == 0;
          if (!label_ok) {
            return Status::Corruption("edge label does not match suffix");
          }
          depth += child.edge_len;
          cur = c;
          advanced = true;
          break;
        }
      }
      if (!advanced) return Status::Corruption("suffix not navigable");
      if (depth > suffix_len) {
        return Status::Corruption("path deeper than suffix");
      }
    }
    if (tree.node(cur).leaf_id != leaf_pos) {
      return Status::Corruption("navigation reached wrong leaf");
    }
  }

  for (std::size_t i = 0; i < leaves_in_order.size(); ++i) {
    uint64_t pos = leaves_in_order[i];
    if (text.compare(pos, prefix.size(), prefix) != 0) {
      return Status::Corruption("leaf suffix does not start with prefix");
    }
    if (i > 0 && !SuffixLess(text, leaves_in_order[i - 1], pos)) {
      return Status::Corruption("leaves not in lexicographic order");
    }
  }
  return Status::OK();
}

Status ValidateSubTree(const ServedSubTree& tree, const std::string& text,
                       const std::string& prefix) {
  const TreeBuffer linked = tree.Inflate();
  ERA_RETURN_NOT_OK(ValidateSubTree(linked, text, prefix));
  // The cursor walk over the serving form (bit-packed field decode + lazy
  // leaf-slot ranges) must agree with the inflated linked tree.
  if (TreeToSaLcp(tree) != TreeToSaLcp(linked)) {
    return Status::Corruption(
        "compressed cursor walk disagrees with inflated tree");
  }
  return Status::OK();
}

Status ValidateIndex(Env* env, const TreeIndex& index,
                     const std::string& text) {
  if (index.text().length != text.size()) {
    return Status::Corruption("index text length mismatch");
  }

  std::vector<int32_t> subtree_ids;
  std::vector<uint64_t> terminal_leaves;
  index.trie().CollectInOrder(0, &subtree_ids, &terminal_leaves);
  if (subtree_ids.size() != index.subtrees().size()) {
    return Status::Corruption("trie references != manifest sub-tree count");
  }

  std::vector<char> covered(text.size(), 0);
  auto cover = [&](uint64_t pos) -> Status {
    if (pos >= text.size()) return Status::Corruption("position out of range");
    if (covered[pos]) {
      return Status::Corruption("suffix covered twice: " +
                                std::to_string(pos));
    }
    covered[pos] = 1;
    return Status::OK();
  };

  for (uint64_t pos : terminal_leaves) {
    ERA_RETURN_NOT_OK(cover(pos));
    // A terminal leaf for trie path p asserts text[pos..] == p + terminal;
    // verify the terminal indeed follows immediately.
    // (Path recovery from the trie is implicit; length check suffices
    // because coverage + per-subtree checks pin everything else down.)
  }

  for (int32_t id : subtree_ids) {
    const SubTreeEntry& entry = index.subtrees()[static_cast<uint32_t>(id)];
    ERA_ASSIGN_OR_RETURN(
        auto tree,
        index.OpenSubTree(env, static_cast<uint32_t>(id), nullptr));
    ERA_RETURN_NOT_OK(ValidateSubTree(*tree, text, entry.prefix));
    SaLcp canon = TreeToSaLcp(*tree);
    if (canon.sa.size() != entry.frequency) {
      return Status::Corruption("sub-tree frequency mismatch: " +
                                entry.prefix);
    }
    for (uint64_t pos : canon.sa) {
      ERA_RETURN_NOT_OK(cover(pos));
    }
  }

  for (std::size_t i = 0; i < covered.size(); ++i) {
    if (!covered[i]) {
      return Status::Corruption("suffix not covered: " + std::to_string(i));
    }
  }
  return Status::OK();
}

}  // namespace era
