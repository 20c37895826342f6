// Reusable working memory for the SubTreePrepare hot path.
//
// GroupPreparer's rounds used to allocate ~8 fresh std::vectors per active
// area per round (window storage, sort records, permutation temporaries).
// PrepareScratch hoists all of that into one arena: BeginRound() sizes every
// buffer for the round's total active leaf count and widest area, reusing
// capacity from previous rounds. In steady state no round performs any heap
// allocation: the elastic range keeps active leaves * range bounded by the R
// budget while both factors drift, so the high-water marks are established
// within the first couple of rounds. A builder worker keeps one arena for
// all of its groups, so later groups start at those marks too.
//
// The occurrence scan reads the text in place, from the reader's window;
// the queue of round-1 windows that straddle a refill lives here, so a
// worker's groups share it.
//
// The `allocations()` counter ticks once per buffer growth event; tests pin
// the hot path's allocation-freedom by asserting it stops moving after the
// first round.

#ifndef ERA_ERA_PREPARE_SCRATCH_H_
#define ERA_ERA_PREPARE_SCRATCH_H_

#include <cstdint>
#include <vector>

#include "common/loser_tree.h"
#include "io/string_reader.h"

namespace era {

/// One sort-key record: the window's next (up to) symbols_per_word codes,
/// aligned to the most significant bit, and the slot they belong to. Radix
/// passes consume the key bytes most significant first; ties reload the key
/// from deeper in the window.
struct WindowSortRec {
  uint64_t key = 0;
  uint32_t slot = 0;
};

/// A round-1 window that runs past the end of the window being scanned: the
/// text position it starts at and its compact index.
struct StraddlingWindow {
  uint64_t start = 0;
  uint64_t compact = 0;
};

class PrepareScratch {
 public:
  /// Sizes every buffer for one round and zeroes its window slab.
  /// `total_active` is the group-wide active leaf count, `range` the
  /// symbols fetched per leaf, `bits` the bits per symbol code, `max_area`
  /// the widest single active area.
  void BeginRound(uint64_t total_active, uint32_t range, uint32_t bits,
                  uint64_t max_area);

  /// Makes room for `max_straddlers` round-1 windows pending across a
  /// refill of the occurrence scan.
  void BeginScan(uint64_t max_straddlers);

  /// Number of buffer-growth events since construction.
  uint64_t allocations() const { return allocations_; }

  /// Heap bytes the arena's buffers hold (capacity), apart from the
  /// merge's per-state keys.
  uint64_t MemoryBytes() const;

  // Shared window arena: one slab of packed WindowCode codes for every
  // state of the group. A state's window for compact index c holds symbol
  // i at bits [((window_base + c) * range + i) * bits, +bits), most
  // significant bit first, with no per-window rounding. The slab holds
  // ceil(active * range * bits / 64) + 1 words: the extra word lets a
  // 64-bit load start at any symbol.
  std::vector<uint64_t> windows;
  std::vector<uint32_t> window_len;

  // One slice of the merged fetch stream, and the compact index of each
  // request's window.
  static constexpr uint64_t kFetchSlice = 8192;
  std::vector<FetchRequest> requests;
  std::vector<uint64_t> request_window;

  // Radix sort records for one area.
  std::vector<WindowSortRec> sort_records;

  // Permutation temporaries for one area. Windows are never moved: the
  // permutation is applied to L, P and the slot->compact map, so a round
  // costs zero window byte copies.
  std::vector<uint64_t> perm_l;
  std::vector<uint64_t> perm_p;
  std::vector<uint32_t> perm_compact;

  // Next round's active areas for the state being processed.
  std::vector<std::pair<uint32_t, uint32_t>> area_tmp;

  // The k-way merger of the per-state fetch streams and each state's
  // appearance-rank cursor into it.
  LoserTree merge;
  std::vector<std::size_t> cursor_rank;

  // The FIFO of round-1 windows that the occurrence scan's next refill
  // finishes (in report order, so in order of window end).
  std::vector<StraddlingWindow> straddlers;

 private:
  /// Makes `vec` hold at least `n` elements. Buffers only grow: a round
  /// smaller than the high-water mark neither frees nor re-zeroes anything,
  /// and a growth starts from an empty vector, so it copies nothing. Counts
  /// capacity growth (the allocation events the hot path must not produce
  /// in steady state).
  template <typename V>
  void Size(V* vec, std::size_t n) {
    if (vec->size() >= n) return;
    if (vec->capacity() < n) {
      ++allocations_;
      vec->clear();
    }
    vec->resize(n);
  }

  uint64_t allocations_ = 0;
};

}  // namespace era

#endif  // ERA_ERA_PREPARE_SCRATCH_H_
