// Algorithm BuildSubTree (Section 4.2.2).
//
// Assembles a sub-tree from the prepared (L, B) arrays in one batch pass
// with a stack of the rightmost path — sequential memory access, no
// traversals, and no access to the input string: every edge label is an
// (offset, length) slice of S derived from L and the B offsets, and its
// first symbol (stored for text-free child lookup) comes from the B
// symbols.

#ifndef ERA_ERA_BUILD_SUBTREE_H_
#define ERA_ERA_BUILD_SUBTREE_H_

#include "common/status.h"
#include "era/subtree_prepare.h"
#include "suffixtree/tree_buffer.h"

namespace era {

/// Builds the sub-tree for `prepared` over a text of `text_length` bytes
/// (terminal included). The resulting sub-tree root (node 0) carries the
/// full path labels from the global root, i.e. the first edge starts with
/// the partition prefix.
StatusOr<TreeBuffer> BuildSubTree(const PreparedSubTree& prepared,
                                  uint64_t text_length);

}  // namespace era

#endif  // ERA_ERA_BUILD_SUBTREE_H_
