#include "era/parallel_builder.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <numeric>
#include <thread>
#include <vector>

#include "alphabet/window_code.h"
#include "common/timer.h"
#include "era/build_subtree.h"
#include "era/checkpoint.h"
#include "era/memory_layout.h"
#include "era/range_policy.h"
#include "era/subtree_prepare.h"
#include "era/subtree_writer.h"
#include "era/work_queue.h"
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

namespace {

/// Hand-off area between a group's prepare stage and the (stealable) build
/// tasks it spawns. `prepared` is slot-indexed; a slot is written by the
/// preparing worker strictly before the matching task is pushed (the queue
/// mutex publishes it), and moved out by whichever worker pops that task,
/// which leaves it empty.
struct GroupWork {
  std::vector<PreparedSubTree> prepared;
  std::atomic<uint64_t> tree_bytes{0};
};

}  // namespace

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

  // ---- Horizontal phase: subtree-granular pipeline. ----
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
  std::vector<GroupWork> works(num_groups);
  std::vector<IoStats> worker_io(num_workers_);
  std::vector<double> worker_seconds(num_workers_, 0);
  std::vector<double> worker_busy_seconds(num_workers_, 0);
  std::vector<Status> worker_status(num_workers_);

  // Stage 3: finished trees leave the workers' critical path through a
  // bounded background writer. The backlog bound reuses the tree area of
  // one per-core share — memory the serial design would have spent holding
  // a group's trees until its last prefix anyway.
  BackgroundSubTreeWriter writer(
      env, /*num_threads=*/2,
      /*max_queued_bytes=*/
      std::max<uint64_t>(layout.tree_area_bytes, 4ull << 20));

  // Stage 1: injection queue in tile-affinity-refined LPT order (groups
  // with overlapping text footprints run adjacently and convert each
  // other's tile-cache misses into hits) + per-worker deques.
  WorkStealingQueue queue(num_workers_);
  {
    std::vector<PipelineTask> seeds;
    seeds.reserve(num_groups);
    for (std::size_t g : TileAffinityOrder(plan.groups)) {
      if (resume.group_done[g]) {
        // Verified on disk by the resume pass: reconstruct the output from
        // the plan and never schedule the group.
        ReconstructGroupOutput(plan.groups[g], g, &outputs[g]);
        continue;
      }
      seeds.push_back({PipelineTask::Kind::kGroup,
                       static_cast<uint32_t>(g), 0});
    }
    queue.SeedGlobal(std::move(seeds));
  }

  const RangePolicy policy =
      RangePolicy::FromOptions(worker_options, layout,
                               WindowCode(text.alphabet).bits());
  const bool prepare_build =
      !wavefront && worker_options.horizontal == HorizontalMethod::kPrepareBuild;

  std::vector<std::thread> workers;
  for (unsigned w = 0; w < num_workers_; ++w) {
    workers.emplace_back([&, w] {
      WallTimer worker_timer;
      double busy = 0;
      auto run = [&]() -> Status {
        StringReaderOptions reader_options;
        reader_options.buffer_bytes = layout.input_buffer_bytes;
        reader_options.seek_optimization = worker_options.seek_optimization;
        if (!wavefront) reader_options.tile_cache = tile_cache;
        ERA_ASSIGN_OR_RETURN(auto reader,
                             OpenStringReader(env, text.path, reader_options,
                                              &worker_io[w]));
        // One prepare arena serves every group this worker prepares.
        PrepareScratch scratch;
        std::unique_ptr<StringReader> suffix_reader;
        std::unique_ptr<StringReader> edge_reader;
        if (wavefront) {
          StringReaderOptions wf_options;
          wf_options.buffer_bytes = layout.input_buffer_bytes;
          wf_options.bill_random_as_sequential = true;
          wf_options.random_window_bytes = 512;
          ERA_ASSIGN_OR_RETURN(suffix_reader,
                               OpenStringReader(env, text.path, wf_options,
                                                &worker_io[w]));
          StringReaderOptions edge_options;
          edge_options.buffer_bytes = layout.r_buffer_bytes;
          edge_options.bill_random_as_sequential = true;
          edge_options.random_window_bytes = 512;
          ERA_ASSIGN_OR_RETURN(edge_reader,
                               OpenStringReader(env, text.path, edge_options,
                                                &worker_io[w]));
        }

        auto run_task = [&](const PipelineTask& task) -> Status {
          const uint32_t g = task.group;
          if (task.kind == PipelineTask::Kind::kBuildPrefix) {
            GroupWork& gw = works[g];
            ERA_ASSIGN_OR_RETURN(
                uint64_t bytes,
                BuildAndEmitPrefix(worker_options, text.length, g, task.prefix,
                                   std::move(gw.prepared[task.prefix]),
                                   &outputs[g], &writer, checkpoint.get(),
                                   &profiler, w));
            gw.tree_bytes.fetch_add(bytes, std::memory_order_relaxed);
            return Status::OK();
          }
          if (wavefront) {
            WallTimer unit_timer;
            Status s = WaveFrontProcessUnit(text, worker_options,
                                            plan.groups[g], g, reader.get(),
                                            suffix_reader.get(),
                                            edge_reader.get(), &outputs[g]);
            profiler.Record("wavefront", w, unit_timer.Seconds());
            return s;
          }
          if (!prepare_build) {
            // BranchEdge fuses prepare+build per group; only its writes
            // overlap (the background writer).
            return ProcessGroup(text, worker_options, layout, plan.groups[g],
                                g, reader.get(), &outputs[g], &writer,
                                checkpoint.get(), &profiler, w);
          }
          // Prepare stage: stream each resolved prefix out as a stealable
          // build task, then keep draining our own deque LIFO.
          const VirtualTree& group = plan.groups[g];
          GroupWork& gw = works[g];
          gw.prepared.resize(group.prefixes.size());
          outputs[g].subtrees.resize(group.prefixes.size());
          GroupPreparer preparer(group, policy, reader.get(), text.length,
                                 text.alphabet, &scratch);
          preparer.SetEmitCallback(
              [&](std::size_t k, PreparedSubTree&& prepared) -> Status {
                gw.prepared[k] = std::move(prepared);
                queue.Push(w, {PipelineTask::Kind::kBuildPrefix, g,
                               static_cast<uint32_t>(k)});
                return Status::OK();
              });
          WallTimer prepare_timer;
          ERA_RETURN_NOT_OK(preparer.Run());
          profiler.Record("prepare", w, prepare_timer.Seconds());
          outputs[g].rounds = preparer.stats().rounds;
          outputs[g].prepare_times = preparer.stats().times;
          return Status::OK();
        };

        PipelineTask task;
        while (queue.Pop(w, &task)) {
          if (writer.Failed()) {
            // A background write already failed permanently; building more
            // trees only queues more doomed work. Drain() reports the error.
            queue.TaskDone();
            queue.Abort();
            break;
          }
          WallTimer task_timer;
          Status s = run_task(task);
          busy += task_timer.Seconds();
          queue.TaskDone();
          ERA_RETURN_NOT_OK(s);
        }
        return Status::OK();
      };
      worker_status[w] = run();
      if (!worker_status[w].ok()) queue.Abort();
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
  for (std::size_t g = 0; g < num_groups; ++g) {
    GroupOutput& output = outputs[g];
    output.tree_bytes +=
        works[g].tree_bytes.load(std::memory_order_relaxed);
    stats.prepare_rounds += output.rounds;
    stats.prepare_times.Add(output.prepare_times);
    stats.peak_tree_bytes = std::max(stats.peak_tree_bytes, output.tree_bytes);
    stats.io.Add(output.write_io);
  }
  stats.horizontal_seconds = horizontal_timer.Seconds();
  // Background serialization ran off the workers' critical path; attribute
  // it to a synthetic worker column one past the build workers.
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
