// Memory allocation plan (Figure 6 of the paper).
//
// ERA divides the budget into: the retrieved-data area (input buffer B_S, the
// next-symbol buffer R, a small trie area), the suffix-tree area MTS (~60% of
// what remains), and the processing area (arrays L and B). B_S is each scan
// reader's only window. The shared tile cache, when on, is carved out of R
// and the trie area above their floors. I, A and P live inside the tree area:
// they are only needed by SubTreePrepare, and BuildSubTree — which is what
// fills the tree area — runs afterwards and only needs L and B, so the
// regions can safely overlap. Every ERA build hands each prefix's L and B to
// its background writer, whose threads each fill one tree at a time.
//
// FM (Equation 1) is MTS / (2 * sizeof(TreeNode)), further constrained by the
// per-leaf processing footprint. Figure 6 gives the processing area the other
// ~40%, but the tree area binds FM, so a quarter of that share would sit
// idle: the processing area is sized to exactly FM leaves and an auto-sized R
// takes the surplus (fewer prepare rounds, same FM and partition).

#ifndef ERA_ERA_MEMORY_LAYOUT_H_
#define ERA_ERA_MEMORY_LAYOUT_H_

#include <cstdint>

#include "common/options.h"
#include "common/status.h"

namespace era {

/// Resolved allocation of one builder's memory budget.
struct MemoryLayout {
  uint64_t input_buffer_bytes = 0;  // B_S (the one scan window)
  uint64_t r_buffer_bytes = 0;      // R
  /// This core's share of the shared input-text tile cache (io/tile_cache.h).
  /// Carved out of the retrieved-data slack (R above its floor, then the
  /// trie area above its floor), never out of the tree/processing areas,
  /// so enabling the cache shrinks the elastic range but leaves FM — and
  /// with it the partition plan and the emitted index bytes — unchanged.
  uint64_t tile_cache_bytes = 0;
  uint64_t trie_bytes = 0;          // top-level trie area
  uint64_t tree_area_bytes = 0;     // MTS (sub-tree nodes; hosts I/A/P too)
  uint64_t processing_bytes = 0;    // L + B: fm * kProcessingBytesPerLeaf
  /// Maximum sub-tree frequency that fits (Equation 1 + processing bound).
  uint64_t fm = 0;

  uint64_t total() const {
    return input_buffer_bytes + r_buffer_bytes + tile_cache_bytes +
           trie_bytes + tree_area_bytes + processing_bytes;
  }
};

/// Per-leaf footprint in the processing area: L (8 bytes) + B (16 bytes) +
/// elastic-range slack for R bookkeeping (8 bytes).
inline constexpr uint64_t kProcessingBytesPerLeaf = 32;

/// Per-leaf footprint in the tree area: 2 nodes of 32 bytes (the paper's
/// 2 * f_p * sizeof(tree node)); I/A/P (24 bytes/leaf) overlap this and are
/// strictly smaller, so they do not constrain FM.
inline constexpr uint64_t kTreeBytesPerLeaf = 64;

/// FM ceiling: prepare's slot indices and slot->window map are 32-bit, and
/// so are TreeBuffer node ids, of which a sub-tree of F leaves needs up to
/// 2F. FM therefore stays below 2^31.
inline constexpr uint64_t kMaxFm = (uint64_t{1} << 31) - 1;

/// Computes the layout for `options` and `alphabet_size`. Fails with
/// OutOfBudget if the fixed areas leave no room for trees.
StatusOr<MemoryLayout> PlanMemory(const BuildOptions& options,
                                  int alphabet_size);

/// WaveFront's allocation for the same budget (Section 3 / Section 6.1): the
/// two nested-loop buffers take ~50% of memory and the sub-tree the rest, so
/// WaveFront's FM is lower than ERA's for the same budget.
StatusOr<MemoryLayout> PlanMemoryWaveFront(const BuildOptions& options,
                                           int alphabet_size);

}  // namespace era

#endif  // ERA_ERA_MEMORY_LAYOUT_H_
