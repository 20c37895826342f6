#include "era/era_builder.h"

#include <algorithm>
#include <sstream>

#include "alphabet/window_code.h"
#include "common/timer.h"
#include "era/branch_edge.h"
#include "era/checkpoint.h"
#include "era/range_policy.h"
#include "era/subtree_prepare.h"
#include "era/subtree_writer.h"

namespace era {

std::string BuildStats::ToString() const {
  std::ostringstream os;
  os << "total=" << total_seconds << "s (vertical=" << vertical_seconds
     << "s horizontal=" << horizontal_seconds << "s) fm=" << fm
     << " groups=" << num_groups << " subtrees=" << num_subtrees
     << " rounds=" << prepare_rounds << " peak_tree=" << peak_tree_bytes
     << "B groups_resumed=" << groups_resumed
     << " subtrees_verified=" << subtrees_verified
     << " io_amplification=" << io_amplification()
     << " tile_hit_rate=" << tile_hit_rate()
     << " prepare{scan=" << prepare_times.scan_seconds
     << "s layout=" << prepare_times.layout_seconds
     << "s fetch=" << prepare_times.fetch_seconds
     << "s sort=" << prepare_times.sort_seconds << "s}"
     << " io{" << io.ToString() << "}";
  return os.str();
}

StatusOr<MemoryLayout> PlanMemoryForBuild(const BuildOptions& options,
                                          const TextInfo& text,
                                          unsigned num_workers) {
  ERA_ASSIGN_OR_RETURN(MemoryLayout layout,
                       PlanMemory(options, text.alphabet.size()));
  if (options.tile_cache_budget_bytes != 0 || layout.tile_cache_bytes == 0 ||
      num_workers == 0) {
    return layout;
  }
  TileCacheOptions defaults;
  const uint64_t tiles =
      (text.length + defaults.tile_bytes - 1) / defaults.tile_bytes;
  // Per-core share of a cache that holds the whole text, rounded up a tile
  // so the shares still sum past the file size.
  const uint64_t cap_per_core =
      std::max<uint64_t>(tiles, 1) * defaults.tile_bytes / num_workers +
      defaults.tile_bytes;
  if (layout.tile_cache_bytes <= cap_per_core) return layout;
  // More workers than the text needs cache: give the excess back to the
  // elastic range (fewer prepare rounds) instead of hoarding dead budget.
  BuildOptions capped = options;
  capped.tile_cache_budget_bytes = cap_per_core;
  return PlanMemory(capped, text.alphabet.size());
}

StatusOr<std::shared_ptr<TileCache>> OpenBuildTileCache(
    Env* env, const TextInfo& text, const MemoryLayout& layout,
    unsigned num_workers) {
  if (layout.tile_cache_bytes == 0) {
    return std::shared_ptr<TileCache>();
  }
  TileCacheOptions cache_options;
  // The cache is shared process-wide: its budget is the sum of the per-core
  // carves, capped at the (tile-rounded) file size — residency beyond the
  // whole text buys nothing.
  const uint64_t tiles =
      (text.length + cache_options.tile_bytes - 1) / cache_options.tile_bytes;
  cache_options.budget_bytes =
      std::min(layout.tile_cache_bytes * num_workers,
               std::max<uint64_t>(tiles, 1) * cache_options.tile_bytes);
  // Shards trade lock contention against budget granularity: each shard
  // strands up to one tile of its share. When the cache cannot hold the
  // whole file anyway (the partial-residency regime, where every stranded
  // tile is a per-pass device read), bytes win: use one shard. With the
  // whole file resident, contention wins: shard by size.
  const uint64_t rounded_file =
      std::max<uint64_t>(tiles, 1) * cache_options.tile_bytes;
  cache_options.shards =
      cache_options.budget_bytes < rounded_file
          ? 1
          : static_cast<uint32_t>(std::clamp<uint64_t>(
                cache_options.budget_bytes / (4 * cache_options.tile_bytes),
                1, 8));
  return TileCache::Open(env, text.path, cache_options);
}

void FoldTileCacheStats(const std::shared_ptr<TileCache>& cache,
                        BuildStats* stats) {
  if (cache == nullptr) return;
  const TileCache::Snapshot snapshot = cache->stats();
  stats->io.tile_hits += snapshot.hits;
  stats->io.tile_misses += snapshot.misses;
  stats->io.tile_device_bytes += snapshot.device_bytes_read;
  stats->io.tile_evicted_bytes += snapshot.evicted_bytes;
  stats->io.read_retries += snapshot.read_retries;
  // The cache's loads are the build's only device reads on cache-backed
  // paths; fold them into the canonical device-read total.
  stats->io.bytes_read += snapshot.device_bytes_read;
}

uint64_t GroupOutput::TreeBytes() const {
  uint64_t bytes = 0;
  for (const SubTreeOut& sub : subtrees) bytes += sub.tree_bytes;
  return bytes;
}

namespace {

/// Records sub-tree k of `group_id` in out->subtrees[k]; returns its path.
std::string RecordSubTree(const BuildOptions& options, uint64_t group_id,
                          std::size_t k, const std::string& prefix,
                          uint64_t frequency, GroupOutput* out) {
  std::string filename = SubTreeFileName(group_id, k);
  std::string path = options.work_dir + "/" + filename;
  out->subtrees[k] = {prefix, frequency, std::move(filename)};
  return path;
}

/// The writer's completion hook for sub-tree k of `group_id`: stores the
/// tree's bytes in its slot and reports the published file to `checkpoint`
/// (when given).
BackgroundSubTreeWriter::WriteDone NoteWritten(GroupOutput* out,
                                               uint64_t group_id,
                                               std::size_t k,
                                               CheckpointManager* checkpoint) {
  return [out, group_id, k, checkpoint](const Status& s, uint32_t file_crc,
                                        uint64_t tree_bytes) {
    if (!s.ok()) return;
    out->subtrees[k].tree_bytes = tree_bytes;
    if (checkpoint != nullptr) {
      checkpoint->NoteSubTreeWritten(group_id, k, file_crc);
    }
  };
}

/// Runs `enqueue`, a hand-off to the background writer. It blocks while the
/// writer's backlog is full; that wait is the worker's, so it gets its own
/// phase instead of going unattributed.
template <typename Enqueue>
void HandOff(PhaseProfiler* profiler, unsigned worker, Enqueue&& enqueue) {
  WallTimer handoff_timer;
  enqueue();
  if (profiler != nullptr) {
    profiler->Record("writer_handoff", worker, handoff_timer.Seconds());
  }
}

}  // namespace

void BuildAndEmitPrefix(const BuildOptions& options, uint64_t text_length,
                        uint64_t group_id, std::size_t k,
                        PreparedSubTree prepared, GroupOutput* out,
                        BackgroundSubTreeWriter* writer,
                        CheckpointManager* checkpoint, PhaseProfiler* profiler,
                        unsigned worker) {
  std::string path = RecordSubTree(options, group_id, k, prepared.prefix,
                                   prepared.leaves.size(), out);
  HandOff(profiler, worker, [&] {
    writer->EnqueuePrepared(std::move(path), std::move(prepared), text_length,
                            NoteWritten(out, group_id, k, checkpoint));
  });
}

void EmitBuiltSubTree(const BuildOptions& options, uint64_t group_id,
                      std::size_t k, std::string prefix, uint64_t frequency,
                      TreeBuffer&& tree, GroupOutput* out,
                      BackgroundSubTreeWriter* writer,
                      CheckpointManager* checkpoint, PhaseProfiler* profiler,
                      unsigned worker) {
  std::string path =
      RecordSubTree(options, group_id, k, prefix, frequency, out);
  HandOff(profiler, worker, [&] {
    writer->Enqueue(std::move(path), std::move(prefix), std::move(tree),
                    NoteWritten(out, group_id, k, checkpoint));
  });
}

uint64_t WriterBacklogBytes(const MemoryLayout& layout) {
  return std::max<uint64_t>(layout.tree_area_bytes, 4ull << 20);
}

void ReconstructGroupOutput(const VirtualTree& group, uint64_t group_id,
                            GroupOutput* out) {
  out->subtrees.resize(group.prefixes.size());
  for (std::size_t k = 0; k < group.prefixes.size(); ++k) {
    out->subtrees[k] = {group.prefixes[k].prefix,
                        group.prefixes[k].frequency,
                        SubTreeFileName(group_id, k)};
  }
}

Status ProcessGroup(const TextInfo& text, const BuildOptions& options,
                    const MemoryLayout& layout, const VirtualTree& group,
                    uint64_t group_id, StringReader* reader, GroupOutput* out,
                    BackgroundSubTreeWriter* writer,
                    CheckpointManager* checkpoint, PhaseProfiler* profiler,
                    unsigned worker, PrepareScratch* scratch) {
  out->subtrees.resize(group.prefixes.size());

  if (options.horizontal == HorizontalMethod::kBranchEdge) {
    WallTimer fused_timer;
    // BranchEdge keeps one byte per symbol in R.
    GroupStrBuilder builder(
        group,
        RangePolicy::FromOptions(options, layout, /*symbol_bits=*/8),
        reader, text.length);
    ERA_RETURN_NOT_OK(builder.Run());
    if (profiler != nullptr) {
      profiler->Record("branch_edge", worker, fused_timer.Seconds());
    }
    out->rounds = builder.stats().rounds;
    for (std::size_t k = 0; k < builder.results().size(); ++k) {
      auto& [prefix, tree] = builder.results()[k];
      EmitBuiltSubTree(options, group_id, k, prefix,
                       group.prefixes[k].frequency, std::move(tree), out,
                       writer, checkpoint, profiler, worker);
    }
  } else {
    GroupPreparer preparer(
        group,
        RangePolicy::FromOptions(options, layout,
                                 WindowCode(text.alphabet).bits()),
        reader, text.length, text.alphabet, scratch);
    // Stream: a resolved prefix leaves for the writer while the group's
    // remaining prefixes are still scanning S, so its L and B never wait
    // for the group's end. Time spent inside the emit callback (the
    // hand-off) is subtracted from the prepare phase so the breakdown
    // reflects the stages, not the call nesting.
    WallTimer prepare_timer;
    double nested_seconds = 0;
    preparer.SetEmitCallback(
        [&](std::size_t k, PreparedSubTree&& prepared) -> Status {
          WallTimer nested_timer;
          BuildAndEmitPrefix(options, text.length, group_id, k,
                             std::move(prepared), out, writer, checkpoint,
                             profiler, worker);
          nested_seconds += nested_timer.Seconds();
          return Status::OK();
        });
    ERA_RETURN_NOT_OK(preparer.Run());
    if (profiler != nullptr) {
      profiler->Record(
          "prepare", worker,
          std::max(0.0, prepare_timer.Seconds() - nested_seconds));
    }
    out->rounds = preparer.stats().rounds;
    out->prepare_times = preparer.stats().times;
  }
  return Status::OK();
}

StatusOr<TreeIndex> AssembleIndex(const TextInfo& text,
                                  const BuildOptions& options,
                                  const PartitionPlan& plan,
                                  const std::vector<GroupOutput>& outputs) {
  TreeIndex index;
  index.SetText(text);
  for (const GroupOutput& output : outputs) {
    for (const auto& sub : output.subtrees) {
      uint32_t id = index.AddSubTree(sub.prefix, sub.frequency, sub.filename);
      ERA_RETURN_NOT_OK(
          index.mutable_trie().InsertSubTree(sub.prefix, id, sub.frequency));
    }
  }
  for (const auto& [prefix, position] : plan.terminal_leaves) {
    ERA_RETURN_NOT_OK(
        index.mutable_trie().InsertTerminalLeaf(prefix, position));
  }
  ERA_RETURN_NOT_OK(index.Save(options.GetEnv(), options.work_dir));
  ERA_ASSIGN_OR_RETURN(TreeIndex loaded,
                       TreeIndex::Load(options.GetEnv(), options.work_dir));
  return loaded;
}

}  // namespace era
