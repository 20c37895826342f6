// Build configuration shared by all construction algorithms.

#ifndef ERA_COMMON_OPTIONS_H_
#define ERA_COMMON_OPTIONS_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "suffixtree/node.h"

namespace era {

class Env;

/// How SubTreePrepare chooses the per-iteration range of prefetched symbols
/// (Section 4.4).
enum class RangePolicyKind {
  /// range = |R| / (active leaves): grows as leaves resolve (the paper's
  /// elastic range).
  kElastic,
  /// A constant range regardless of |R| (the static 16/32-symbol baselines of
  /// Figure 9(b)).
  kFixed,
};

/// Which horizontal-partitioning method builds each sub-tree (Figure 7).
enum class HorizontalMethod {
  /// SubTreePrepare + BuildSubTree (Section 4.2.2, "ERA-str+mem").
  kPrepareBuild,
  /// ComputeSuffixSubTree / BranchEdge (Section 4.2.1, "ERA-str").
  kBranchEdge,
};

/// Speculative windows the prefetch ring keeps ahead of each build scan (1
/// would be classic double buffering). PlanMemory charges the ring's windows
/// against the retrieved-data slack, after the tile cache: a build whose
/// cache consumed the slack runs with a shallower ring (possibly none), so
/// read-ahead never silently exceeds the budget
/// (MemoryLayout::read_ahead_bytes).
inline constexpr uint32_t kBuildPrefetchDepth = 4;

/// Memory and behavior knobs for a build. The defaults are laptop-scaled
/// versions of the paper's settings; all experiments override them per sweep.
struct BuildOptions {
  /// Total memory the builder may use for tree + processing + buffers.
  uint64_t memory_budget = 64ull << 20;

  /// Read-ahead buffer R for next-symbol ranges; 0 = auto (Figure 8's tuned
  /// values, scaled: budget/16 clamped to [64 KB, 32 MB] for 4-symbol
  /// alphabets and [256 KB, 256 MB] for larger ones), to which PlanMemory
  /// adds the processing area's surplus over FM leaves. An explicit value is
  /// honored exactly.
  uint64_t r_buffer_bytes = 0;

  /// Input buffer B_S (the paper uses 1 MB).
  uint64_t input_buffer_bytes = 1 << 20;

  /// Group sub-trees into virtual trees to share scans (Section 4.1).
  bool group_virtual_trees = true;

  /// Horizontal partitioning method (Section 4.2 / Figure 7).
  HorizontalMethod horizontal = HorizontalMethod::kPrepareBuild;

  /// Elastic vs fixed prefetch range (Section 4.4 / Figure 9(b)).
  RangePolicyKind range_policy = RangePolicyKind::kElastic;
  /// Range used when range_policy == kFixed.
  uint32_t fixed_range = 32;

  /// Skip unneeded blocks with a seek during scans (Section 4.4).
  bool seek_optimization = true;

  /// Ring-buffered read-ahead on the sequential scans (vertical counting,
  /// occurrence scans, SubTreePrepare rounds): a background thread keeps
  /// the next input-buffer windows read while the builder consumes the
  /// resident one, hiding device latency behind compute. See
  /// PrefetchingStringReader. The ring is kBuildPrefetchDepth windows deep.
  bool prefetch_reads = true;

  /// Shared read-through tile cache over the input text (io/tile_cache.h):
  /// every horizontal-phase reader of every worker is served from one
  /// process-wide budgeted cache, so repeated scans of the same tiles stop
  /// hitting the device. The budget is carved out of memory_budget's
  /// retrieved-data area (the elastic range shrinks accordingly; FM and the
  /// partition plan are unchanged, so cached and uncached builds emit
  /// byte-identical indexes). Disabled automatically when the budget is too
  /// small to spare cache room.
  bool tile_cache = true;

  /// Total tile-cache budget in bytes across all workers; 0 = auto (each
  /// worker's share is carved from its R allocation, leaving at least
  /// max(512 KB, R/8) of elastic-range room, and capped at the per-core
  /// share of the tile-rounded file size — see PlanMemoryForBuild). An
  /// explicit budget that does not fit in the retrieved-data area fails
  /// with OutOfBudget.
  uint64_t tile_cache_budget_bytes = 0;

  /// Maintain `<work_dir>/CHECKPOINT`, a crash-consistent record of the
  /// prefix groups whose sub-trees are fully on disk. Costs one small
  /// atomic file rewrite per completed group; makes a killed build
  /// resumable.
  bool checkpoint = true;

  /// Resume from an existing CHECKPOINT in work_dir: checksum-verify the
  /// recorded groups' sub-tree files, skip rebuilding the ones that check
  /// out, and rebuild only the remainder. A missing, stale, or corrupt
  /// checkpoint degrades to a full rebuild (never an error). The resumed
  /// index is byte-identical to an uninterrupted build.
  bool resume = false;

  /// Directory that receives serialized sub-trees and the index manifest.
  std::string work_dir;

  /// Filesystem; nullptr = process-wide POSIX Env.
  Env* env = nullptr;

  /// Resolved Env (never null).
  Env* GetEnv() const;
};

/// Checks internal consistency (budget large enough for the fixed areas,
/// non-empty work_dir, a positive fixed range, a 4 KB input buffer).
Status ValidateBuildOptions(const BuildOptions& options);

/// Resolves r_buffer_bytes: explicit value, or the alphabet-dependent auto
/// rule described on BuildOptions::r_buffer_bytes.
uint64_t ResolveRBufferBytes(const BuildOptions& options, int alphabet_size);

}  // namespace era

#endif  // ERA_COMMON_OPTIONS_H_
