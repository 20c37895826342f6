#include "era/cluster_builder.h"

#include <algorithm>
#include <numeric>
#include <thread>

#include "common/timer.h"
#include "era/memory_layout.h"
#include "wavefront/wavefront.h"

namespace era {

StatusOr<ClusterBuildResult> ClusterBuilder::Build(const TextInfo& text) {
  ERA_RETURN_NOT_OK(ValidateBuildOptions(options_));
  Env* env = options_.GetEnv();
  ERA_RETURN_NOT_OK(env->CreateDir(options_.work_dir));

  ClusterBuildResult result;
  BuildStats& stats = result.stats;
  const unsigned nodes = std::max(1u, cluster_.num_nodes);

  // Each node plans against its own private budget.
  BuildOptions node_options = options_;
  node_options.memory_budget = cluster_.per_node_budget;
  const bool wavefront = cluster_.algorithm == ParallelAlgorithm::kWaveFront;
  if (wavefront) node_options.group_virtual_trees = false;
  // The shared-nothing emulation models independent nodes with private
  // memory; no process-wide TileCache exists here, so plan without the
  // carve.
  node_options.tile_cache = false;

  ERA_ASSIGN_OR_RETURN(
      MemoryLayout layout,
      wavefront ? PlanMemoryWaveFront(node_options, text.alphabet.size())
                : PlanMemory(node_options, text.alphabet.size()));
  stats.fm = layout.fm;
  stats.text_bytes = text.length;

  // Master: vertical partitioning (serial, reported separately).
  ERA_ASSIGN_OR_RETURN(PartitionPlan plan,
                       VerticalPartition(text, node_options, layout.fm));
  result.vertical_seconds = plan.seconds;
  stats.vertical_seconds = plan.seconds;
  stats.io.Add(plan.io);
  stats.num_groups = plan.groups.size();
  stats.num_subtrees = plan.NumSubTrees();

  // Modeled broadcast of S to every node.
  result.transfer_seconds = static_cast<double>(text.length) /
                            cluster_.network_bytes_per_second;

  // Longest-processing-time assignment of groups to nodes (same LPT order
  // the shared-memory pipeline feeds its queue, incl. deterministic ties).
  std::vector<std::size_t> order = LptGroupOrder(plan.groups);
  std::vector<std::vector<std::size_t>> assignment(nodes);
  std::vector<uint64_t> load(nodes, 0);
  for (std::size_t g : order) {
    std::size_t target = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    assignment[target].push_back(g);
    load[target] += plan.groups[g].total_frequency;
  }

  // Run every node as an isolated worker thread.
  std::vector<GroupOutput> outputs(plan.groups.size());
  result.node_seconds.assign(nodes, 0);
  result.node_io.assign(nodes, IoStats{});
  std::vector<Status> node_status(nodes);
  std::vector<std::thread> threads;
  for (unsigned nd = 0; nd < nodes; ++nd) {
    threads.emplace_back([&, nd] {
      WallTimer node_timer;
      auto run = [&]() -> Status {
        // Private handles: a shared-nothing node owns its disk.
        StringReaderOptions reader_options;
        reader_options.buffer_bytes = layout.input_buffer_bytes;
        reader_options.seek_optimization = node_options.seek_optimization;
        ERA_ASSIGN_OR_RETURN(auto reader,
                             OpenStringReader(env, text.path, reader_options,
                                              &result.node_io[nd]));
        std::unique_ptr<StringReader> suffix_reader;
        std::unique_ptr<StringReader> edge_reader;
        if (wavefront) {
          StringReaderOptions wf_options;
          wf_options.buffer_bytes = layout.input_buffer_bytes;
          wf_options.bill_random_as_sequential = true;
          wf_options.random_window_bytes = 512;
          ERA_ASSIGN_OR_RETURN(suffix_reader,
                               OpenStringReader(env, text.path, wf_options,
                                                &result.node_io[nd]));
          StringReaderOptions edge_options;
          edge_options.buffer_bytes = layout.r_buffer_bytes;
          edge_options.bill_random_as_sequential = true;
          edge_options.random_window_bytes = 512;
          ERA_ASSIGN_OR_RETURN(edge_reader,
                               OpenStringReader(env, text.path, edge_options,
                                                &result.node_io[nd]));
        }
        PrepareScratch scratch;  // one prepare arena for the node's groups
        for (std::size_t g : assignment[nd]) {
          if (wavefront) {
            ERA_RETURN_NOT_OK(WaveFrontProcessUnit(
                text, node_options, plan.groups[g], g, reader.get(),
                suffix_reader.get(), edge_reader.get(), &outputs[g]));
          } else {
            ERA_RETURN_NOT_OK(ProcessGroup(
                text, node_options, layout, plan.groups[g], g, reader.get(),
                &outputs[g], /*writer=*/nullptr, /*checkpoint=*/nullptr,
                /*profiler=*/nullptr, /*worker=*/0, &scratch));
          }
        }
        return Status::OK();
      };
      node_status[nd] = run();
      result.node_seconds[nd] = node_timer.Seconds();
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& s : node_status) ERA_RETURN_NOT_OK(s);

  result.makespan_seconds =
      *std::max_element(result.node_seconds.begin(), result.node_seconds.end());
  for (const IoStats& io : result.node_io) stats.io.Add(io);
  for (const GroupOutput& output : outputs) {
    stats.prepare_rounds += output.rounds;
    stats.prepare_times.Add(output.prepare_times);
    stats.peak_tree_bytes = std::max(stats.peak_tree_bytes, output.tree_bytes);
    stats.io.Add(output.write_io);
  }

  ERA_ASSIGN_OR_RETURN(result.index,
                       AssembleIndex(text, node_options, plan, outputs));
  stats.total_seconds = result.AllSeconds();
  stats.horizontal_seconds = result.makespan_seconds;
  return result;
}

}  // namespace era
