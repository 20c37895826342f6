// Top-level trie connecting the sub-trees (Section 4, Figure 3).
//
// Vertical partitioning produces a set of variable-length S-prefixes; the
// trie routes a query prefix to the sub-tree that indexes it. It also holds
// the "direct leaves": suffixes of the form p$ that fall out when a prefix p
// is split during partitioning (the paper's singleton sub-trees like T$).
// The trie is tiny (KBs for the human genome) and always memory-resident.

#ifndef ERA_SUFFIXTREE_TRIE_H_
#define ERA_SUFFIXTREE_TRIE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace era {

/// Mutable prefix trie with per-node sub-tree references and direct leaves.
class PrefixTrie {
 public:
  struct Node {
    std::map<char, uint32_t> children;
    /// Sub-tree indexing all suffixes that start with this node's path;
    /// -1 if none. A node with a sub-tree reference has no children.
    int32_t subtree_id = -1;
    /// Frequency (leaf count) of the referenced sub-tree.
    uint64_t subtree_freq = 0;
    /// Direct leaf: position of the unique suffix path+terminal, or -1.
    int64_t terminal_leaf = -1;
  };

  PrefixTrie() : nodes_(1) {}

  /// Registers sub-tree `subtree_id` for `prefix`.
  Status InsertSubTree(const std::string& prefix, uint32_t subtree_id,
                       uint64_t frequency);

  /// Registers the direct leaf for suffix prefix+terminal at `position`.
  /// An empty prefix registers the terminal-only suffix (position n).
  Status InsertTerminalLeaf(const std::string& prefix, uint64_t position);

  /// Result of walking the trie with a pattern.
  struct DescendResult {
    /// Deepest trie node reached.
    uint32_t node = 0;
    /// Symbols of the pattern consumed by the walk.
    std::size_t matched = 0;
    /// True if the entire pattern was consumed inside the trie.
    bool pattern_exhausted = false;
  };

  /// Walks `pattern` from the root as far as the trie goes. If the walk stops
  /// at a node holding a sub-tree reference, the caller continues inside that
  /// sub-tree with the remaining pattern suffix.
  DescendResult Descend(const std::string& pattern) const;

  const Node& node(uint32_t i) const { return nodes_[i]; }
  uint32_t size() const { return static_cast<uint32_t>(nodes_.size()); }

  /// Sum of sub-tree frequencies and terminal leaves under `node` (number of
  /// suffixes sharing the node's path as a prefix).
  uint64_t TotalFrequency(uint32_t node) const;

  /// Collects, in lexicographic order, the sub-tree ids and terminal-leaf
  /// positions under `node`. Lexicographic means: at each node, children by
  /// symbol first, then the terminal leaf (the terminal sorts last).
  void CollectInOrder(uint32_t node, std::vector<int32_t>* subtree_ids,
                      std::vector<uint64_t>* terminal_leaves) const;

  /// One element of the interleaved lexicographic stream under a node:
  /// either a sub-tree reference or a direct terminal leaf.
  struct Entry {
    int32_t subtree_id = -1;     // >= 0 for sub-tree entries
    uint64_t leaf_position = 0;  // valid when subtree_id < 0
  };

  /// Emits sub-trees and terminal leaves under `node` as one lexicographic
  /// stream (the global suffix order of the index).
  void CollectEntries(uint32_t node, std::vector<Entry>* entries) const;

  /// Serialization to/from a flat byte string (stored in the index manifest).
  std::string Serialize() const;
  static StatusOr<PrefixTrie> Deserialize(const std::string& bytes);

  /// Rough memory footprint (for the "trie area" budget accounting).
  uint64_t MemoryBytes() const;

 private:
  /// Returns the node for `prefix`, creating intermediate nodes.
  uint32_t GetOrCreate(const std::string& prefix);

  std::vector<Node> nodes_;
};

}  // namespace era

#endif  // ERA_SUFFIXTREE_TRIE_H_
