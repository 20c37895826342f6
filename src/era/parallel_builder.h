// Shared-memory / shared-disk parallel construction (Section 5), pipelined.
//
// A master performs vertical partitioning, then the horizontal phase runs as
// a two-stage pipeline over subtree-granular tasks:
//
//   1. Scheduling — group tasks seed a work-stealing queue in LPT order
//      (era/work_queue.h); a group's prepare stage spawns one build task per
//      prefix the moment that prefix resolves, so idle workers steal
//      BuildSubTree work out of large groups mid-prepare.
//   2. Write overlap — finished trees go to a bounded BackgroundSubTreeWriter
//      instead of blocking the worker; (group, k) slot naming keeps the
//      assembled index byte-identical for any worker count.
//
// Each worker reads S through its own synchronous StringReader, served from
// the shared tile cache when one is open.
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
  /// Seconds each worker spent executing pipeline tasks (the rest of
  /// worker_seconds is time idle-waiting for stealable work).
  std::vector<double> worker_busy_seconds;
};

/// LPT dispatch order: group indices sorted by descending total_frequency,
/// ties by ascending index (deterministic). Seeding the queue in this order
/// keeps one giant group from landing on the last free worker. Exposed for
/// tests.
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

/// Multicore builder over a shared Env/input file.
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
