// ERA construction, serial (Section 4) and shared-memory / shared-disk
// parallel (Section 5), through one driver: the serial ERA is one worker.
//
// A master performs vertical partitioning; then each worker takes the next
// group of TileAffinityOrder from one shared counter and runs it whole
// through ProcessGroup:
//
//   * Workers only prepare — as soon as a prefix's (L, B) resolves, the
//     worker hands them to a bounded BackgroundSubTreeWriter and goes on
//     preparing.
//   * Writers build, encode and write — one writer thread per worker runs
//     BuildSubTree on the (L, B), frees them and serializes the tree;
//     (group, k) slot naming keeps the assembled index byte-identical for
//     any worker count. Build and write time land in the phase profile's
//     writer column, one past the workers.
//
// BranchEdge groups hand their fused pass's built trees to the same
// writer. The WaveFront variant runs each single-prefix unit through
// WaveFrontProcessUnit instead, over its own three readers. A failed group
// or a failed background write stops every worker before its next group.
// Each ERA worker reads S through its own synchronous StringReader, served
// from the shared tile cache when one is open.
//
// All workers read the same input file (the architecture's strength) and
// split the memory budget equally (its constraint): FM is computed from the
// per-core share, so more cores mean smaller sub-trees — the
// interference-driven scaling limit of Figure 12.

#ifndef ERA_ERA_PARALLEL_BUILDER_H_
#define ERA_ERA_PARALLEL_BUILDER_H_

#include <vector>

#include "common/options.h"
#include "common/status.h"
#include "era/era_builder.h"

namespace era {

/// Which construction algorithm the parallel drivers run per work unit.
enum class ParallelAlgorithm {
  kEra,        // ERA horizontal partitioning (grouped virtual trees)
  kWaveFront,  // PWaveFront-style: one sub-tree per unit, WF insertion
};

/// Result of a parallel build: the index plus per-worker timing.
struct ParallelBuildResult {
  TreeIndex index;
  BuildStats stats;
  std::vector<double> worker_seconds;
  /// Seconds each worker spent running groups; the rest of worker_seconds
  /// is idle time, once no group was left to take.
  std::vector<double> worker_busy_seconds;
};

/// LPT dispatch order: group indices sorted by descending total_frequency,
/// ties by ascending index (deterministic). Dispatching in this order keeps
/// one giant group from landing on the last free worker. Exposed for tests.
std::vector<std::size_t> LptGroupOrder(const std::vector<VirtualTree>& groups);

/// LPT order refined by tile-footprint affinity: starting from the LPT
/// head, each next group is the one whose footprint_mask overlaps the
/// previously scheduled group's the most (ties resolved by LPT rank, so
/// uniform footprints — e.g. short prefixes over random text — degrade to
/// exactly the LPT order). Groups that touch the same text regions run
/// adjacently, so their prepare rounds find each other's tiles still
/// resident in the shared TileCache instead of re-reading them from the
/// device. Deterministic; scheduling order never affects the emitted index
/// bytes. Exposed for tests.
std::vector<std::size_t> TileAffinityOrder(
    const std::vector<VirtualTree>& groups);

/// ERA builder over a shared Env/input file, at any worker count.
class ParallelBuilder {
 public:
  /// `options.memory_budget` is the TOTAL budget; it is divided equally
  /// among `num_workers` (the paper's Figure 12 setup). `num_workers == 0`
  /// is rejected by Build() with InvalidArgument.
  ParallelBuilder(const BuildOptions& options, unsigned num_workers,
                  ParallelAlgorithm algorithm = ParallelAlgorithm::kEra)
      : options_(options),
        num_workers_(num_workers),
        algorithm_(algorithm) {}

  StatusOr<ParallelBuildResult> Build(const TextInfo& text);

 private:
  BuildOptions options_;
  unsigned num_workers_;
  ParallelAlgorithm algorithm_;
};

}  // namespace era

#endif  // ERA_ERA_PARALLEL_BUILDER_H_
