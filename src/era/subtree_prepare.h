// Algorithm SubTreePrepare (Section 4.2.2).
//
// For each S-prefix p in a virtual tree, computes the intermediate structure
// (L, B): L lists the occurrences of p (the sub-tree's leaves) in
// lexicographic order of their suffixes, and B[i] = (c1, c2, offset) records
// the branching relation between adjacent leaves — offset is the absolute
// string depth where the branches to L[i-1] and L[i] separate, and c1/c2 the
// first symbols after the separation.
//
// The implementation maintains the paper's auxiliary arrays:
//   I: appearance-rank -> current slot (drives the sequential fill of R)
//   P: slot -> appearance rank
//   A: active areas (represented as [begin,end) slot ranges)
//   R: per-active-slot window of `range` next symbols, packed as
//      WindowCode codes (3 bits per DNA symbol, 5 per protein or English
//      symbol), so R's bytes hold 8 / bits times the symbols
// Each iteration performs one sequential scan of S for all sub-trees of the
// group, sorts every active area by window content, emits the B entries
// that became decidable, and retires resolved leaves — shrinking the active
// set so the elastic range grows. The first iteration's scan is the
// occurrence scan itself: the prefixes' counted frequencies fix round 1's
// active leaves and range in advance, so the scan packs each occurrence's
// window as it finds it. Later iterations fill R with one merged pass.

#ifndef ERA_ERA_SUBTREE_PREPARE_H_
#define ERA_ERA_SUBTREE_PREPARE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "alphabet/window_code.h"
#include "common/status.h"
#include "era/prepare_scratch.h"
#include "era/range_policy.h"
#include "era/vertical_partitioner.h"
#include "io/string_reader.h"

namespace era {

/// Branching relation between adjacent leaves (B array entry). BuildSubTree
/// stores c1/c2 as the first symbols of the edges the branch creates, so
/// every producer of (L, B) must fill them. B[0] has no predecessor; its c2
/// is read only when the prefix is empty, as the first symbol of L[0].
struct BranchInfo {
  uint64_t offset = 0;  // absolute depth of the separation point
  char c1 = 0;          // first symbol of the branch to L[i-1] after it
  char c2 = 0;          // first symbol of the branch to L[i] after it
  bool defined = false;
};

/// The (L, B) pair for one sub-tree, ready for BuildSubTree.
struct PreparedSubTree {
  std::string prefix;
  std::vector<uint64_t> leaves;       // L, lexicographically sorted
  std::vector<BranchInfo> branches;   // parallel to leaves; [0] unused
};

/// Wall seconds of prepare's sub-phases. Emit callbacks are excluded, so
/// the sum never exceeds the enclosing "prepare" phase. Round 1's windows
/// are filled during the occurrence scan, so layout and fetch time only
/// rounds >= 2.
struct PrepareTimes {
  double scan_seconds = 0;    // occurrence scan + round 1's windows (1-12)
  double layout_seconds = 0;  // compact maps, BeginRound, loser-tree merge
  double fetch_seconds = 0;   // FetchBatch (lines 10-12, rounds >= 2)
  double sort_seconds = 0;    // sort + B-scan + retire (lines 13-23)

  void Add(const PrepareTimes& other) {
    scan_seconds += other.scan_seconds;
    layout_seconds += other.layout_seconds;
    fetch_seconds += other.fetch_seconds;
    sort_seconds += other.sort_seconds;
  }
};

/// Counters for one group's preparation.
struct PrepareStats {
  uint32_t rounds = 0;
  uint64_t symbols_fetched = 0;
  uint64_t occurrence_scan_matches = 0;
  PrepareTimes times;
};

/// Post-round state exposed to tests (mirrors the paper's Traces 1-3).
struct PrepareSnapshot {
  uint32_t round = 0;   // 1-based
  uint32_t range = 0;
  struct State {
    std::string prefix;
    std::vector<int64_t> I;  // -1 = done
    std::vector<uint64_t> P;
    std::vector<uint64_t> L;
    std::vector<std::string> R;  // window per slot; empty if not fetched
    std::vector<int64_t> area;   // -1 = resolved, else area ordinal (1-based)
    std::vector<std::optional<std::tuple<char, char, uint64_t>>> B;
  };
  std::vector<State> states;
};

/// Runs SubTreePrepare for all sub-trees of one virtual tree, sharing every
/// scan of S across the group (Section 4.1's I/O amortization).
class GroupPreparer {
 public:
  /// `reader` must outlive the preparer; its IoStats accumulate the scans.
  /// `alphabet` is the text's: its WindowCode packs R, and `policy` counts
  /// R in symbols of that width. `scratch`, when given, is the hot-path
  /// arena to use instead of a private one: a worker passes the same arena
  /// to all of its groups, so its buffers are grown once per worker rather
  /// than once per group.
  GroupPreparer(const VirtualTree& group, const RangePolicy& policy,
                StringReader* reader, uint64_t text_length,
                const Alphabet& alphabet, PrepareScratch* scratch = nullptr);
  GroupPreparer(const GroupPreparer&) = delete;
  GroupPreparer& operator=(const GroupPreparer&) = delete;

  /// Observer invoked after every iteration (tests reproduce the paper's
  /// traces through this hook).
  void SetObserver(std::function<void(const PrepareSnapshot&)> observer) {
    observer_ = std::move(observer);
  }

  /// Streaming hand-off: called with (k, prepared) the moment prefix k's
  /// (L, B) is fully defined — often many rounds before the rest of the
  /// group resolves, which is what lets BuildSubTree/serialization overlap
  /// the remaining prepare scans. When set, ownership of each
  /// PreparedSubTree moves to the callback and results() stays empty.
  /// Mutually exclusive with SetObserver (the trace observer needs every
  /// state's arrays to survive to the end).
  using EmitFn = std::function<Status(std::size_t k, PreparedSubTree&&)>;
  void SetEmitCallback(EmitFn emit) { emit_ = std::move(emit); }

  /// Finds the occurrences (one scan, which also fills round 1's windows)
  /// and iterates until every B is defined. Every prefix of the group must
  /// carry its exact frequency: a 0 is InvalidArgument before S is read,
  /// and a scan that finds a different count is Internal. A window byte
  /// outside the alphabet is Corruption.
  Status Run();

  /// Results, one per prefix in group order. Valid after Run(); empty when
  /// an emit callback consumed them instead.
  std::vector<PreparedSubTree>& results() { return results_; }
  const PrepareStats& stats() const { return stats_; }

  /// The hot-path arena (tests assert its allocation counter stops moving
  /// after the first round).
  const PrepareScratch& scratch() const { return *scratch_; }

 private:
  static constexpr int64_t kDoneSlot = -1;

  /// Per-prefix working state.
  struct State {
    std::string prefix;
    uint64_t expected_frequency = 0;
    std::vector<uint64_t> L;  // slot -> position in S
    std::vector<uint64_t> P;  // slot -> appearance rank
    std::vector<int64_t> I;   // appearance rank -> slot; kDoneSlot = done
    std::vector<BranchInfo> B;
    /// Active areas as [begin, end) slot ranges, each of size >= 2, sorted.
    std::vector<std::pair<uint32_t, uint32_t>> areas;
    uint64_t start = 0;  // symbols consumed so far (>= |prefix|)

    // Round-local layout into the shared PrepareScratch arena. A slot's
    // window starts at symbol (window_base + slot_to_compact[slot]) * range
    // of the packed slab. The per-slot maps are sized once in
    // ScanOccurrences and rewritten in place each round.
    std::vector<uint32_t> slot_to_compact;
    std::vector<char> was_active;   // slot took part in the current round
    uint64_t window_base = 0;       // first arena compact index of this state
    bool emitted = false;           // handed to the emit callback already
  };

  /// Plans round 1 from the counted frequencies, then finds every
  /// occurrence in one scan of S and fills round 1's windows as it goes.
  Status ScanOccurrences(uint32_t range);
  /// Lays a later round out in the arena and fills its windows with one
  /// merged pass over S.
  Status FetchRound(uint32_t range);
  /// Sorts the round's active areas, defines B and retires resolved leaves.
  Status SortRound(uint32_t range);
  void EmitSnapshot(uint32_t range);
  /// Hands every newly resolved state (no active areas left) to emit_.
  Status FlushResolved();
  /// The error for a window byte without a code.
  static Status NoCodeError();

  const VirtualTree& group_;
  RangePolicy policy_;
  StringReader* reader_;
  uint64_t text_length_;
  WindowCode code_;
  std::vector<State> states_;
  std::vector<PreparedSubTree> results_;
  PrepareStats stats_;
  std::function<void(const PrepareSnapshot&)> observer_;
  EmitFn emit_;

  // Recycled hot-path working memory (see prepare_scratch.h): the caller's
  // arena, or own_scratch_ when none was given.
  PrepareScratch own_scratch_;
  PrepareScratch* scratch_;
};

}  // namespace era

#endif  // ERA_ERA_SUBTREE_PREPARE_H_
