// Shared-nothing cluster construction (Section 5, Table 3, Figure 13).
//
// Simulates a cluster in-process: each "node" is a worker thread with its
// own private memory budget, its own file handle over its own copy of S,
// and its own IoStats — nothing is shared except the master's partition
// plan. The two costs the paper reports separately are modeled explicitly:
//   * string transfer:  |S| / network bandwidth (the broadcast to nodes);
//   * vertical partitioning: executed serially on the master (the paper did
//     not parallelize it either).
// Groups are assigned by longest-processing-time (greedy by frequency),
// which is what makes ERA's speed-up in Table 3 near-optimal. Each node
// prepares its groups through ProcessGroup and hands every sub-tree to its
// own one-thread BackgroundSubTreeWriter, which builds and writes it; a
// node's time and I/O include draining that writer.

#ifndef ERA_ERA_CLUSTER_BUILDER_H_
#define ERA_ERA_CLUSTER_BUILDER_H_

#include <vector>

#include "common/options.h"
#include "common/status.h"
#include "era/era_builder.h"
#include "era/parallel_builder.h"

namespace era {

/// Cluster shape and network model.
struct ClusterOptions {
  unsigned num_nodes = 4;
  /// Memory budget per node (the paper's 1 GB / 4 GB per CPU settings).
  uint64_t per_node_budget = 64 << 20;
  /// Broadcast bandwidth for the initial string transfer, bytes/second.
  double network_bytes_per_second = 19.0 * 1024 * 1024;  // paper's switch
  ParallelAlgorithm algorithm = ParallelAlgorithm::kEra;
};

/// Result with the per-phase breakdown Table 3 reports.
struct ClusterBuildResult {
  TreeIndex index;
  BuildStats stats;            // aggregated over nodes
  double makespan_seconds = 0; // slowest node's construction time
  double transfer_seconds = 0; // modeled broadcast of S
  double vertical_seconds = 0; // serial master phase
  std::vector<double> node_seconds;
  std::vector<IoStats> node_io;

  /// Construction-only time (Table 3's main columns exclude transfer and
  /// vertical partitioning).
  double ConstructionSeconds() const { return makespan_seconds; }
  /// End-to-end time (the paper's "ERA all" column).
  double AllSeconds() const {
    return makespan_seconds + transfer_seconds + vertical_seconds;
  }
};

/// Shared-nothing builder.
class ClusterBuilder {
 public:
  ClusterBuilder(const BuildOptions& options, const ClusterOptions& cluster)
      : options_(options), cluster_(cluster) {}

  StatusOr<ClusterBuildResult> Build(const TextInfo& text);

 private:
  BuildOptions options_;
  ClusterOptions cluster_;
};

}  // namespace era

#endif  // ERA_ERA_CLUSTER_BUILDER_H_
