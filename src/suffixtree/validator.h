// Structural and semantic validation of sub-trees and whole indexes.
//
// Used by tests (including failure injection) and available to applications
// as a post-construction integrity check. Validation needs the text in
// memory, so it is intended for test-scale inputs.

#ifndef ERA_SUFFIXTREE_VALIDATOR_H_
#define ERA_SUFFIXTREE_VALIDATOR_H_

#include <string>

#include "common/status.h"
#include "io/env.h"
#include "suffixtree/tree_buffer.h"
#include "suffixtree/tree_index.h"

namespace era {

/// Checks one sub-tree against the text:
///  * indices in range, exactly one visit per node (no cycles / orphans)
///  * every non-root internal node has >= 2 children; the sub-tree root has
///    >= 1 (its incoming path is the partition prefix)
///  * children are in strictly increasing first-symbol order, and every
///    non-root node's stored first_symbol equals text[edge_start]
///  * each leaf's root-to-leaf label equals its suffix and starts with
///    `prefix`
///  * leaves appear in lexicographic order
Status ValidateSubTree(const TreeBuffer& tree, const std::string& text,
                       const std::string& prefix);

/// Serving-form overload. The packed invariants — header widths minimal for
/// the recorded maxima, leaf-stream restart offsets and delta decode, stored
/// subtree counts, child blocks strictly after their parent and the DFS
/// block layout (a node's leaf range is exactly its DFS leaf set) — were
/// already enforced when the payload was decoded; this additionally
/// inflates to the linked form, runs every check above on it, and
/// cross-checks that the compressed cursor walk yields the identical
/// canonical (SA, LCP).
Status ValidateSubTree(const ServedSubTree& tree, const std::string& text,
                       const std::string& prefix);

/// Validates a complete index: every sub-tree (loaded from `env`), plus
/// coverage — each suffix of `text` appears in exactly one sub-tree or trie
/// leaf, and the global leaf order is lexicographic.
Status ValidateIndex(Env* env, const TreeIndex& index,
                     const std::string& text);

}  // namespace era

#endif  // ERA_SUFFIXTREE_VALIDATOR_H_
