// The ERA build stages (Section 4) that ParallelBuilder and ClusterBuilder
// drive: per virtual tree SubTreePrepare (or BranchEdge) on the preparing
// worker, BuildSubTree and serialization on a BackgroundSubTreeWriter, and
// assembly of the final index behind the top-level trie. The serial ERA of
// Section 4 is ParallelBuilder at one worker.

#ifndef ERA_ERA_ERA_BUILDER_H_
#define ERA_ERA_ERA_BUILDER_H_

#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/options.h"
#include "common/status.h"
#include "era/memory_layout.h"
#include "era/subtree_prepare.h"
#include "era/vertical_partitioner.h"
#include "io/string_reader.h"
#include "suffixtree/tree_index.h"
#include "text/corpus.h"

namespace era {

/// Timing and resource counters of one build.
struct BuildStats {
  double total_seconds = 0;
  double vertical_seconds = 0;
  double horizontal_seconds = 0;
  IoStats io;
  uint64_t fm = 0;
  uint64_t num_groups = 0;
  uint64_t num_subtrees = 0;
  uint64_t prepare_rounds = 0;    // sum over groups
  uint64_t peak_tree_bytes = 0;   // max per-group in-memory tree footprint
  /// Groups skipped by a resume after their sub-trees checksum-verified.
  uint64_t groups_resumed = 0;
  /// Sub-tree files whose CRC-32C the resume pass re-verified.
  uint64_t subtrees_verified = 0;
  /// Length of the indexed text (terminal included); denominator of
  /// io_amplification().
  uint64_t text_bytes = 0;
  /// Per-(phase, worker) wall-time attribution of the build: phases are
  /// "vertical_partition", "prepare", "build_subtree", "branch_edge",
  /// "wavefront", "subtree_write", and "assemble_index". Background-writer
  /// time is attributed to a synthetic worker id one past the build workers.
  /// Render with FormatPhaseTable().
  std::vector<PhaseProfiler::Entry> phases;
  /// Prepare's sub-phases (occurrence scan with round 1's windows, round
  /// layout and fetch of rounds >= 2, sort + B-scan), summed over groups
  /// and workers. They nest inside the "prepare" phase, so they stay out
  /// of `phases`, whose entries are disjoint.
  PrepareTimes prepare_times;

  /// Device bytes read per text byte — the cost of re-streaming S across
  /// groups and rounds. io.bytes_read counts only true device transfers
  /// (tile-cache hits bill cache_served_bytes instead), so this is the
  /// metric the shared tile cache exists to push down.
  double io_amplification() const {
    return text_bytes == 0
               ? 0.0
               : static_cast<double>(io.bytes_read) /
                     static_cast<double>(text_bytes);
  }

  /// Tile-cache hit rate over all lookups (0 when the cache was off).
  double tile_hit_rate() const {
    const uint64_t lookups = io.tile_hits + io.tile_misses;
    return lookups == 0
               ? 0.0
               : static_cast<double>(io.tile_hits) /
                     static_cast<double>(lookups);
  }

  /// Wall time plus the disk model's price for the recorded I/O (see
  /// io/io_stats.h for why benchmarks report this alongside raw wall time).
  double ModeledSeconds(const DiskModel& disk) const {
    return total_seconds + disk.ModeledSeconds(io);
  }

  std::string ToString() const;
};

/// A finished build: the on-disk index plus its statistics.
struct BuildResult {
  TreeIndex index;
  BuildStats stats;
};

class BackgroundSubTreeWriter;
class CheckpointManager;

/// Output of processing one virtual tree. The preparing worker fills it; the
/// background writer's threads fill each sub-tree's `tree_bytes`.
struct GroupOutput {
  struct SubTreeOut {
    std::string prefix;
    uint64_t frequency = 0;
    std::string filename;
    uint64_t tree_bytes = 0;  // in-memory size of the built tree
  };
  /// Slot-indexed by the prefix's position in the group, so the (group, k)
  /// assembly order is fixed whatever order the groups and the background
  /// writes finish in.
  std::vector<SubTreeOut> subtrees;
  uint32_t rounds = 0;
  PrepareTimes prepare_times;
  IoStats write_io;  // the WaveFront and TRELLIS baselines' own writes

  /// Sum of the group's sub-tree bytes. Complete once the group's writes
  /// have drained.
  uint64_t TreeBytes() const;
};

/// Names one built sub-tree `st_<group_id>_<k>.bin`, records it in
/// out->subtrees[k] (which must already be sized) and hands it to `writer`,
/// whose thread writes it, stores its bytes in the slot and reports the
/// published file to `checkpoint` (when given) with its CRC-32C. A failed
/// write surfaces through writer->Drain(). The hand-off's backpressure wait
/// is billed to `profiler` (when given) as "writer_handoff" under `worker`.
void EmitBuiltSubTree(const BuildOptions& options, uint64_t group_id,
                      std::size_t k, std::string prefix, uint64_t frequency,
                      TreeBuffer&& tree, GroupOutput* out,
                      BackgroundSubTreeWriter* writer,
                      CheckpointManager* checkpoint = nullptr,
                      PhaseProfiler* profiler = nullptr, unsigned worker = 0);

/// The per-prefix tail of ProcessGroup's prepare stage. Takes (L, B) by
/// value, so the caller's copy is left empty: records the sub-tree in
/// out->subtrees[k] and hands (L, B) to `writer`, whose thread builds,
/// encodes and writes the tree and stores its bytes in out->subtrees[k].
/// Billing and failure reporting as for EmitBuiltSubTree.
void BuildAndEmitPrefix(const BuildOptions& options, uint64_t text_length,
                        uint64_t group_id, std::size_t k,
                        PreparedSubTree prepared, GroupOutput* out,
                        BackgroundSubTreeWriter* writer,
                        CheckpointManager* checkpoint = nullptr,
                        PhaseProfiler* profiler = nullptr,
                        unsigned worker = 0);

/// Builds all sub-trees of `group`, writes them under `options.work_dir`
/// with filenames `st_<group_id>_<k>`, and reports what was written.
/// `reader` supplies the (instrumented) scans of S. The prepare stage
/// streams: each prefix leaves through BuildAndEmitPrefix to `writer` as
/// soon as it resolves, before the group's remaining prefixes finish
/// preparing, so the calling worker only prepares. `scratch`, when given,
/// is the caller's prepare arena, reused across its groups.
Status ProcessGroup(const TextInfo& text, const BuildOptions& options,
                    const MemoryLayout& layout, const VirtualTree& group,
                    uint64_t group_id, StringReader* reader,
                    GroupOutput* out, BackgroundSubTreeWriter* writer,
                    CheckpointManager* checkpoint = nullptr,
                    PhaseProfiler* profiler = nullptr, unsigned worker = 0,
                    PrepareScratch* scratch = nullptr);

/// The background writer's backlog bound for a build planned with `layout`:
/// the tree area of one share, which a group's trees would otherwise have
/// filled before its last prefix, but at least 4 MiB.
uint64_t WriterBacklogBytes(const MemoryLayout& layout);

/// Fills `out` for a group that a resume pass verified on disk: sub-tree
/// entries are reconstructed from the plan (prefix, frequency) and the
/// deterministic slot naming, with no device traffic.
void ReconstructGroupOutput(const VirtualTree& group, uint64_t group_id,
                            GroupOutput* out);

/// PlanMemory plus the build-level tile-cache refinement: when the auto
/// carve exceeds this build's useful per-core share (tile-rounded file size
/// / num_workers — residency beyond the whole text buys nothing), the plan
/// is redone with the carve capped and the excess returned to the elastic
/// range, which directly reduces prepare rounds. FM is unaffected either
/// way.
StatusOr<MemoryLayout> PlanMemoryForBuild(const BuildOptions& options,
                                          const TextInfo& text,
                                          unsigned num_workers);

/// Opens the process-wide input-text tile cache for a build whose layout
/// carved `tile_cache_bytes` per core, or returns nullptr when the carve is
/// zero (cache disabled or budget too small). The budget is the sum of the
/// per-core carves, capped at the tile-rounded file size.
StatusOr<std::shared_ptr<TileCache>> OpenBuildTileCache(
    Env* env, const TextInfo& text, const MemoryLayout& layout,
    unsigned num_workers);

/// Folds a build tile cache's counters into `stats` (hits/misses/evictions
/// plus its device reads into io.bytes_read). No-op on nullptr.
void FoldTileCacheStats(const std::shared_ptr<TileCache>& cache,
                        BuildStats* stats);

/// Assembles a TreeIndex from per-group outputs plus the partition plan's
/// direct trie leaves, and saves its manifest into `options.work_dir`.
StatusOr<TreeIndex> AssembleIndex(const TextInfo& text,
                                  const BuildOptions& options,
                                  const PartitionPlan& plan,
                                  const std::vector<GroupOutput>& outputs);

}  // namespace era

#endif  // ERA_ERA_ERA_BUILDER_H_
