#include "era/parallel_builder.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <numeric>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "era/checkpoint.h"
#include "era/memory_layout.h"
#include "era/prepare_scratch.h"
#include "era/subtree_writer.h"
#include "wavefront/wavefront.h"

namespace era {

std::vector<std::size_t> LptGroupOrder(
    const std::vector<VirtualTree>& groups) {
  std::vector<std::size_t> order(groups.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (groups[a].total_frequency != groups[b].total_frequency) {
      return groups[a].total_frequency > groups[b].total_frequency;
    }
    return a < b;
  });
  return order;
}

std::vector<std::size_t> TileAffinityOrder(
    const std::vector<VirtualTree>& groups) {
  std::vector<std::size_t> lpt = LptGroupOrder(groups);
  if (lpt.size() <= 2) return lpt;
  // Greedy footprint chaining over the LPT list: O(G^2) popcounts, trivial
  // at realistic group counts. Iterating candidates in LPT order makes the
  // tie-break (equal overlap -> better LPT rank) implicit, so all-equal
  // masks reproduce LptGroupOrder exactly.
  std::vector<char> used(groups.size(), 0);
  std::vector<std::size_t> order;
  order.reserve(lpt.size());
  std::size_t current = lpt[0];
  used[current] = 1;
  order.push_back(current);
  for (std::size_t step = 1; step < lpt.size(); ++step) {
    std::size_t best = lpt.size();
    int best_overlap = -1;
    for (std::size_t candidate : lpt) {
      if (used[candidate]) continue;
      const int overlap = std::popcount(groups[current].footprint_mask &
                                        groups[candidate].footprint_mask);
      if (overlap > best_overlap) {
        best_overlap = overlap;
        best = candidate;
      }
    }
    current = best;
    used[current] = 1;
    order.push_back(current);
  }
  return order;
}

StatusOr<ParallelBuildResult> ParallelBuilder::Build(const TextInfo& text) {
  WallTimer total_timer;
  ERA_RETURN_NOT_OK(ValidateBuildOptions(options_));
  if (num_workers_ == 0) {
    return Status::InvalidArgument("parallel build needs at least one worker");
  }
  if (options_.memory_budget < num_workers_) {
    // Dividing the budget below would silently plan a zero-byte layout.
    return Status::InvalidArgument(
        "memory budget (" + std::to_string(options_.memory_budget) +
        " bytes) is smaller than the worker count (" +
        std::to_string(num_workers_) + "); the per-core share would be zero");
  }
  Env* env = options_.GetEnv();
  ERA_RETURN_NOT_OK(env->CreateDir(options_.work_dir));

  BuildStats stats;
  stats.text_bytes = text.length;

  // Memory is divided equally among cores; plan with the per-core share.
  BuildOptions worker_options = options_;
  worker_options.memory_budget = options_.memory_budget / num_workers_;
  if (options_.tile_cache_budget_bytes > 0) {
    // An explicit cache budget is the process-wide total, like
    // memory_budget; PlanMemory carves the per-core share.
    worker_options.tile_cache_budget_bytes = std::max<uint64_t>(
        1, options_.tile_cache_budget_bytes / num_workers_);
  }
  const bool wavefront = algorithm_ == ParallelAlgorithm::kWaveFront;
  if (wavefront) worker_options.group_virtual_trees = false;

  ERA_ASSIGN_OR_RETURN(
      MemoryLayout layout,
      wavefront ? PlanMemoryWaveFront(worker_options, text.alphabet.size())
                : PlanMemoryForBuild(worker_options, text, num_workers_));
  stats.fm = layout.fm;

  // One process-wide tile cache serves every worker: a tile one group's
  // scan loads is a hit for every group scheduled near it. The WaveFront
  // emulation keeps its modeled device pattern uncached
  // (PlanMemoryWaveFront never carves).
  ERA_ASSIGN_OR_RETURN(std::shared_ptr<TileCache> tile_cache,
                       OpenBuildTileCache(env, text, layout, num_workers_));

  // Vertical partitioning is not parallelized (its cost is low; Section 5).
  PhaseProfiler profiler;
  ERA_ASSIGN_OR_RETURN(
      PartitionPlan plan,
      VerticalPartition(text, worker_options, layout.fm, tile_cache));
  stats.vertical_seconds = plan.seconds;
  profiler.Record("vertical_partition", 0, plan.seconds);
  stats.io.Add(plan.io);
  stats.num_groups = plan.groups.size();
  stats.num_subtrees = plan.NumSubTrees();

  // ---- Horizontal phase: whole groups; builds and writes overlapped. ----
  WallTimer horizontal_timer;
  const std::size_t num_groups = plan.groups.size();

  const CheckpointFingerprint fingerprint{text.length, layout.fm,
                                          plan.groups.size(),
                                          plan.NumSubTrees()};
  ResumePlan resume;
  resume.group_done.assign(num_groups, 0);
  if (options_.resume) {
    resume = PlanResume(env, options_.work_dir, fingerprint, plan);
    stats.groups_resumed = resume.groups_skipped;
    stats.subtrees_verified = resume.subtrees_verified;
  }
  std::unique_ptr<CheckpointManager> checkpoint;
  if (options_.checkpoint) {
    std::vector<uint64_t> group_sizes(num_groups);
    for (std::size_t g = 0; g < num_groups; ++g) {
      group_sizes[g] = plan.groups[g].prefixes.size();
    }
    checkpoint = std::make_unique<CheckpointManager>(
        env, options_.work_dir, fingerprint, std::move(group_sizes));
    for (std::size_t g = 0; g < num_groups; ++g) {
      if (resume.group_done[g]) {
        checkpoint->MarkGroupVerified(g, resume.group_crcs[g]);
      }
    }
  }

  std::vector<GroupOutput> outputs(num_groups);
  std::vector<IoStats> worker_io(num_workers_);
  std::vector<double> worker_seconds(num_workers_, 0);
  std::vector<double> worker_busy_seconds(num_workers_, 0);
  std::vector<Status> worker_status(num_workers_);

  // Each resolved prefix leaves the workers' critical path as its (L, B):
  // the bounded background writer's threads build, encode and write the
  // tree, so workers only prepare. One writer thread per worker: each holds
  // one tree at a time, as each per-core tree area plans, and the backlog
  // left when the workers finish drains on as many threads as there were
  // workers.
  BackgroundSubTreeWriter writer(env, num_workers_,
                                 WriterBacklogBytes(layout));

  // Groups in tile-affinity-refined LPT order (groups with overlapping text
  // footprints run adjacently and convert each other's tile-cache misses
  // into hits). Each worker takes the next one from a shared counter and
  // runs it whole.
  std::vector<std::size_t> order;
  order.reserve(num_groups);
  for (std::size_t g : TileAffinityOrder(plan.groups)) {
    if (resume.group_done[g]) {
      // Verified on disk by the resume pass: reconstruct the output from
      // the plan and never schedule the group.
      ReconstructGroupOutput(plan.groups[g], g, &outputs[g]);
      continue;
    }
    order.push_back(g);
  }
  std::atomic<std::size_t> next_group{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> workers;
  for (unsigned w = 0; w < num_workers_; ++w) {
    workers.emplace_back([&, w] {
      WallTimer worker_timer;
      double busy = 0;
      auto run = [&]() -> Status {
        std::unique_ptr<StringReader> reader;
        WaveFrontReaders wf;
        if (wavefront) {
          ERA_ASSIGN_OR_RETURN(wf, OpenWaveFrontReaders(env, text.path,
                                                        layout,
                                                        &worker_io[w]));
        } else {
          StringReaderOptions reader_options;
          reader_options.buffer_bytes = layout.input_buffer_bytes;
          reader_options.seek_optimization =
              worker_options.seek_optimization;
          reader_options.tile_cache = tile_cache;
          ERA_ASSIGN_OR_RETURN(reader,
                               OpenStringReader(env, text.path,
                                                reader_options,
                                                &worker_io[w]));
        }
        // One prepare arena serves every group this worker prepares.
        PrepareScratch scratch;
        // A failed group (here or on another worker) or a failed background
        // write stops every worker before its next group; building more
        // trees would only queue doomed work. Drain() reports a write error.
        while (!stop.load(std::memory_order_relaxed) && !writer.Failed()) {
          const std::size_t i =
              next_group.fetch_add(1, std::memory_order_relaxed);
          if (i >= order.size()) break;
          const std::size_t g = order[i];
          WallTimer group_timer;
          Status s;
          if (wavefront) {
            s = WaveFrontProcessUnit(text, worker_options, plan.groups[g], g,
                                     &wf, &outputs[g]);
            profiler.Record("wavefront", w, group_timer.Seconds());
          } else {
            s = ProcessGroup(text, worker_options, layout, plan.groups[g], g,
                             reader.get(), &outputs[g], &writer,
                             checkpoint.get(), &profiler, w, &scratch);
          }
          busy += group_timer.Seconds();
          ERA_RETURN_NOT_OK(s);
        }
        return Status::OK();
      };
      worker_status[w] = run();
      if (!worker_status[w].ok()) stop.store(true, std::memory_order_relaxed);
      worker_seconds[w] = worker_timer.Seconds();
      worker_busy_seconds[w] = busy;
    });
  }
  for (auto& t : workers) t.join();
  Status write_status = writer.Drain();
  for (const Status& s : worker_status) ERA_RETURN_NOT_OK(s);
  ERA_RETURN_NOT_OK(write_status);

  for (const IoStats& io : worker_io) stats.io.Add(io);
  stats.io.Add(writer.io());
  FoldTileCacheStats(tile_cache, &stats);
  for (const GroupOutput& output : outputs) {
    stats.prepare_rounds += output.rounds;
    stats.prepare_times.Add(output.prepare_times);
    stats.peak_tree_bytes =
        std::max(stats.peak_tree_bytes, output.TreeBytes());
    stats.io.Add(output.write_io);
  }
  stats.horizontal_seconds = horizontal_timer.Seconds();
  // Background builds and serialization ran off the workers' critical
  // path; attribute them to a synthetic worker column one past the build
  // workers.
  if (writer.jobs_built() > 0) {
    profiler.Record("build_subtree", num_workers_, writer.build_seconds(),
                    writer.jobs_built());
  }
  if (writer.jobs_written() > 0) {
    profiler.Record("subtree_write", num_workers_, writer.write_seconds(),
                    writer.jobs_written());
  }

  ParallelBuildResult result;
  WallTimer assemble_timer;
  ERA_ASSIGN_OR_RETURN(result.index,
                       AssembleIndex(text, worker_options, plan, outputs));
  profiler.Record("assemble_index", 0, assemble_timer.Seconds());
  result.worker_seconds = worker_seconds;
  result.worker_busy_seconds = worker_busy_seconds;
  stats.total_seconds = total_timer.Seconds();
  stats.phases = profiler.Entries();
  result.stats = stats;
  return result;
}

}  // namespace era
