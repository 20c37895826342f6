#include "era/memory_layout.h"

#include <algorithm>

namespace era {

StatusOr<MemoryLayout> PlanMemory(const BuildOptions& options,
                                  int alphabet_size) {
  ERA_RETURN_NOT_OK(ValidateBuildOptions(options));
  MemoryLayout layout;
  // B_S shrinks for small budgets so buffers never crowd out the tree area.
  layout.input_buffer_bytes = std::clamp<uint64_t>(
      options.memory_budget / 8, 4096, options.input_buffer_bytes);
  layout.r_buffer_bytes = ResolveRBufferBytes(options, alphabet_size);
  if (options.r_buffer_bytes == 0) {
    // Auto-sized R must not eat the whole budget at small scales. An
    // explicitly configured R is honored; if it does not fit, the budget
    // check below reports the configuration error.
    layout.r_buffer_bytes =
        std::min(layout.r_buffer_bytes, options.memory_budget / 4);
  }
  layout.trie_bytes = std::min<uint64_t>(1 << 20, options.memory_budget / 16);

  // The tile cache and the prefetch ring are both carved out of the
  // retrieved-data area's slack (R above max(512 KB, R/8) plus the trie
  // area above max(64 KB, trie/8)), never out of the tree/processing
  // areas: the sum of the fixed areas is unchanged, so FM — and with it
  // the vertical partition and the emitted index bytes — is identical
  // whatever the cache/prefetch configuration. The elastic range pays
  // instead (a smaller range means more prepare rounds), which the cache
  // repays by serving those rounds from memory. Allocation priority is
  // cache first (residency removes device traffic outright), then ring
  // windows (they only *overlap* it): when a partial-residency cache
  // consumes the whole slack, the ring degrades to zero and read-ahead
  // turns off — exactly the regime where hits are memcpys anyway. Small-R
  // configurations carve nothing and keep both features' costs at zero.
  const uint64_t r = layout.r_buffer_bytes;
  const uint64_t r_floor = std::max<uint64_t>(512 << 10, r / 8);
  const uint64_t trie = layout.trie_bytes;
  const uint64_t trie_floor = std::max<uint64_t>(64 << 10, trie / 8);
  uint64_t slack = (r > r_floor ? r - r_floor : 0) +
                   (trie > trie_floor ? trie - trie_floor : 0);
  const uint64_t total_slack = slack;
  if (options.tile_cache) {
    if (options.tile_cache_budget_bytes > 0) {
      if (options.tile_cache_budget_bytes > slack) {
        return Status::OutOfBudget(
            "explicit tile cache budget (" +
            std::to_string(options.tile_cache_budget_bytes) +
            " bytes per core) does not fit in the retrieved-data area (" +
            std::to_string(slack) + " bytes of R/trie slack available)");
      }
      layout.tile_cache_bytes = options.tile_cache_budget_bytes;
    } else {
      layout.tile_cache_bytes = slack;
    }
    slack -= layout.tile_cache_bytes;
  }
  if (options.prefetch_reads) {
    const uint64_t want = layout.input_buffer_bytes * kBuildPrefetchDepth;
    layout.read_ahead_bytes =
        std::min(want, (slack / layout.input_buffer_bytes) *
                           layout.input_buffer_bytes);
    slack -= layout.read_ahead_bytes;
  }
  {
    // Deduct the consumed slack from R first, then from the trie area.
    const uint64_t taken = total_slack - slack;
    const uint64_t from_r =
        std::min(taken, r > r_floor ? r - r_floor : 0);
    layout.r_buffer_bytes = r - from_r;
    layout.trie_bytes = trie - (taken - from_r);
  }

  uint64_t fixed = layout.input_buffer_bytes + layout.read_ahead_bytes +
                   layout.r_buffer_bytes + layout.tile_cache_bytes +
                   layout.trie_bytes;
  if (fixed + (1 << 12) > options.memory_budget) {
    return Status::OutOfBudget(
        "memory budget too small for buffers and trie");
  }
  uint64_t remaining = options.memory_budget - fixed;
  layout.tree_area_bytes = remaining * 6 / 10;
  const uint64_t processing_share = remaining - layout.tree_area_bytes;

  layout.fm = std::min({layout.tree_area_bytes / kTreeBytesPerLeaf,
                        processing_share / kProcessingBytesPerLeaf, kMaxFm});
  if (layout.fm < 2) {
    return Status::OutOfBudget("memory budget yields FM < 2");
  }
  // The tree area binds FM, so 60/40 leaves part of the processing share
  // idle (0.1 of what remains). The processing area keeps exactly what FM
  // leaves need; an auto-sized R takes the rest, which cuts prepare rounds
  // without moving FM. An explicit R is honored as given.
  layout.processing_bytes = layout.fm * kProcessingBytesPerLeaf;
  if (options.r_buffer_bytes == 0) {
    layout.r_buffer_bytes += processing_share - layout.processing_bytes;
  }
  return layout;
}

StatusOr<MemoryLayout> PlanMemoryWaveFront(const BuildOptions& options,
                                           int alphabet_size) {
  ERA_RETURN_NOT_OK(ValidateBuildOptions(options));
  MemoryLayout layout;
  // Per the paper: for optimum performance WaveFront's two block-nested-loop
  // buffers occupy roughly 50% of the available memory.
  uint64_t buffers = options.memory_budget / 2;
  layout.input_buffer_bytes = buffers / 2;
  layout.r_buffer_bytes = buffers - layout.input_buffer_bytes;
  layout.trie_bytes = std::min<uint64_t>(1 << 20, options.memory_budget / 16);
  (void)alphabet_size;

  uint64_t fixed = buffers + layout.trie_bytes;
  if (fixed + (1 << 12) > options.memory_budget) {
    return Status::OutOfBudget(
        "memory budget too small for WaveFront buffers");
  }
  uint64_t remaining = options.memory_budget - fixed;
  // WaveFront builds the tree in place while inserting; its per-leaf
  // processing state (the suffix queue) is part of the tree area.
  layout.tree_area_bytes = remaining;
  layout.processing_bytes = 0;
  layout.fm = layout.tree_area_bytes / (kTreeBytesPerLeaf + 8);
  if (layout.fm < 2) {
    return Status::OutOfBudget("memory budget yields FM < 2");
  }
  return layout;
}

}  // namespace era
