// Shared-memory and shared-nothing parallel construction: identical output
// to the one-worker (serial) build, clean work division, and coherent phase
// accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/thread_pool.h"
#include "era/cluster_builder.h"
#include "era/memory_layout.h"
#include "era/parallel_builder.h"
#include "io/faulty_env.h"
#include "io/mem_env.h"
#include "suffixtree/validator.h"
#include "tests/test_util.h"

namespace era {
namespace {

struct Workload {
  MemEnv env;
  TextInfo info;
  std::string text;
};

std::unique_ptr<Workload> MakeWorkload(std::size_t length, uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->text = testing::RepetitiveText(Alphabet::Dna(), length, seed);
  auto info = MaterializeText(&w->env, "/text", Alphabet::Dna(), w->text);
  EXPECT_TRUE(info.ok());
  w->info = *info;
  return w;
}

BuildOptions BaseOptions(Env* env, const std::string& dir) {
  BuildOptions options;
  options.env = env;
  options.work_dir = dir;
  options.memory_budget = 2 << 20;
  options.input_buffer_bytes = 4096;
  return options;
}

class ParallelWorkers : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelWorkers, MatchesOracleAndSerial) {
  unsigned workers = GetParam();
  auto w = MakeWorkload(20000, 51);

  ParallelBuilder builder(BaseOptions(&w->env, "/par"), workers);
  auto result = builder.Build(w->info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(testing::IndexMatchesOracle(&w->env, result->index, w->text));
  EXPECT_TRUE(ValidateIndex(&w->env, result->index, w->text).ok());
  EXPECT_EQ(result->worker_seconds.size(), workers);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ParallelWorkers,
                         ::testing::Values(1u, 2u, 4u, 8u),
                         [](const auto& info) {
                           return "workers_" + std::to_string(info.param);
                         });

TEST(ParallelBuilderTest, OutputIdenticalAcrossWorkerCounts) {
  auto w = MakeWorkload(15000, 52);
  std::vector<uint64_t> reference;
  for (unsigned workers : {1u, 3u, 7u}) {
    ParallelBuilder builder(
        BaseOptions(&w->env, "/par" + std::to_string(workers)), workers);
    auto result = builder.Build(w->info);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto order = testing::GlobalLeafOrder(&w->env, result->index);
    ASSERT_TRUE(order.ok());
    if (reference.empty()) {
      reference = *order;
    } else {
      EXPECT_EQ(*order, reference) << workers << " workers diverged";
    }
  }
}

TEST(ParallelBuilderTest, PerCoreBudgetShrinksFm) {
  // Dividing memory across cores lowers FM (more, smaller sub-trees): the
  // contention mechanism behind Figure 12(a)'s 8-core knee.
  auto w = MakeWorkload(15000, 53);
  ParallelBuilder one(BaseOptions(&w->env, "/p1"), 1);
  ParallelBuilder eight(BaseOptions(&w->env, "/p8"), 8);
  auto r1 = one.Build(w->info);
  auto r8 = eight.Build(w->info);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r8.ok());
  EXPECT_GT(r1->stats.fm, r8->stats.fm);
  EXPECT_LE(r1->stats.num_subtrees, r8->stats.num_subtrees);
}

TEST(ParallelBuilderTest, RejectsZeroWorkers) {
  auto w = MakeWorkload(5000, 58);
  ParallelBuilder builder(BaseOptions(&w->env, "/zero"), 0);
  auto result = builder.Build(w->info);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
}

TEST(ParallelBuilderTest, RejectsBudgetSmallerThanWorkerCount) {
  // A budget below the worker count used to silently plan a zero-byte
  // per-core layout; it must be rejected up front.
  auto w = MakeWorkload(5000, 57);
  BuildOptions options = BaseOptions(&w->env, "/tiny");
  // Passes the generic >= 64 KB validation but still divides to zero bytes
  // per worker; the guard rejects it before any thread is spawned.
  options.memory_budget = 1 << 16;
  ParallelBuilder builder(options, (1 << 16) + 1);
  auto result = builder.Build(w->info);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
}

TEST(ParallelBuilderTest, LptOrderSortsGroupsByDescendingFrequency) {
  // The giant group must be dispatched first, not land on the last free
  // worker (longest-processing-time heuristic).
  std::vector<VirtualTree> groups(5);
  groups[0].total_frequency = 10;
  groups[1].total_frequency = 500;
  groups[2].total_frequency = 10;  // tie with 0: index order breaks it
  groups[3].total_frequency = 90000;
  groups[4].total_frequency = 4000;
  std::vector<std::size_t> order = LptGroupOrder(groups);
  EXPECT_EQ(order, (std::vector<std::size_t>{3, 4, 1, 0, 2}));
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(groups[order[i - 1]].total_frequency,
              groups[order[i]].total_frequency)
        << "dispatch order is not LPT at position " << i;
  }
}

TEST(ParallelBuilderTest, TileAffinityOrderChainsOverlappingFootprints) {
  // Four groups: two live in the first half of the text, two in the second.
  // Affinity must schedule same-half groups adjacently so the shared tile
  // cache serves the second of each pair, while the LPT head still leads.
  std::vector<VirtualTree> groups(4);
  groups[0].total_frequency = 1000;
  groups[0].footprint_mask = 0x00000000FFFFFFFFull;  // first half
  groups[1].total_frequency = 900;
  groups[1].footprint_mask = 0xFFFFFFFF00000000ull;  // second half
  groups[2].total_frequency = 800;
  groups[2].footprint_mask = 0x00000000FFFF0000ull;  // first half
  groups[3].total_frequency = 700;
  groups[3].footprint_mask = 0xFFFF000000000000ull;  // second half
  std::vector<std::size_t> order = TileAffinityOrder(groups);
  // LPT head (group 0) first; its half-mate (2) next; then the other half
  // pair in LPT order.
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 2, 1, 3}));
}

TEST(ParallelBuilderTest, TileAffinityOrderDegradesToLptOnUniformMasks) {
  // Short prefixes over random text occur everywhere: every mask is the
  // same, so the refinement must reproduce the LPT order exactly (this is
  // what keeps the committed DNA bench schedule comparable across PRs).
  std::vector<VirtualTree> groups(5);
  const uint64_t everywhere = ~uint64_t{0};
  groups[0].total_frequency = 10;
  groups[1].total_frequency = 500;
  groups[2].total_frequency = 10;
  groups[3].total_frequency = 90000;
  groups[4].total_frequency = 4000;
  for (auto& g : groups) g.footprint_mask = everywhere;
  EXPECT_EQ(TileAffinityOrder(groups), LptGroupOrder(groups));
}

TEST(ParallelBuilderTest, PartitionPlanCarriesFootprintMasks) {
  auto w = MakeWorkload(30000, 61);
  BuildOptions options = BaseOptions(&w->env, "/fp");
  options.memory_budget = 1 << 20;
  auto layout = PlanMemory(options, w->info.alphabet.size());
  ASSERT_TRUE(layout.ok());
  auto plan = VerticalPartition(w->info, options, layout->fm);
  ASSERT_TRUE(plan.ok());
  ASSERT_GT(plan->groups.size(), 1u);
  for (const VirtualTree& group : plan->groups) {
    EXPECT_NE(group.footprint_mask, 0u)
        << "every group occurs somewhere, so its mask cannot be empty";
    uint64_t union_of_members = 0;
    for (const PrefixInfo& p : group.prefixes) {
      EXPECT_NE(p.footprint_mask, 0u) << p.prefix;
      union_of_members |= p.footprint_mask;
    }
    EXPECT_EQ(group.footprint_mask, union_of_members);
  }
  // The affinity order is a permutation of all groups.
  std::vector<std::size_t> order = TileAffinityOrder(plan->groups);
  std::vector<char> seen(plan->groups.size(), 0);
  for (std::size_t g : order) {
    ASSERT_LT(g, seen.size());
    EXPECT_FALSE(seen[g]);
    seen[g] = 1;
  }
}

TEST(ParallelBuilderTest, LptOrderMatchesRealPartitionPlan) {
  // End-to-end: the order fed to the queue for a real plan is monotonically
  // non-increasing in total_frequency.
  auto w = MakeWorkload(30000, 59);
  BuildOptions options = BaseOptions(&w->env, "/lpt");
  options.memory_budget = 1 << 20;  // small budget => many groups
  auto layout = PlanMemory(options, w->info.alphabet.size());
  ASSERT_TRUE(layout.ok());
  auto plan = VerticalPartition(w->info, options, layout->fm);
  ASSERT_TRUE(plan.ok());
  ASSERT_GT(plan->groups.size(), 2u);
  std::vector<std::size_t> order = LptGroupOrder(plan->groups);
  ASSERT_EQ(order.size(), plan->groups.size());
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(plan->groups[order[i - 1]].total_frequency,
              plan->groups[order[i]].total_frequency);
  }
}

TEST(ParallelBuilderTest, WriterThreadsBuildEverySubTree) {
  // Workers only prepare: every build_subtree entry of the phase profile
  // sits in the writer column, one past the workers, with one call per
  // sub-tree, and the workers hand (L, B) off instead.
  auto w = MakeWorkload(20000, 59);
  constexpr unsigned kWorkers = 3;
  ParallelBuilder builder(BaseOptions(&w->env, "/pwriter"), kWorkers);
  auto result = builder.Build(w->info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  uint64_t build_calls = 0;
  uint64_t handoffs = 0;
  for (const PhaseProfiler::Entry& e : result->stats.phases) {
    if (e.phase == "build_subtree") {
      EXPECT_EQ(e.worker, kWorkers) << "build_subtree under worker "
                                    << e.worker;
      build_calls += e.calls;
    }
    if (e.phase == "writer_handoff") {
      EXPECT_LT(e.worker, kWorkers);
      handoffs += e.calls;
    }
  }
  EXPECT_EQ(build_calls, result->stats.num_subtrees);
  EXPECT_EQ(handoffs, result->stats.num_subtrees);
  EXPECT_GT(result->stats.peak_tree_bytes, 0u);
  EXPECT_TRUE(testing::IndexMatchesOracle(&w->env, result->index, w->text));
}

TEST(ParallelBuilderTest, WaveFrontVariantMatchesOracle) {
  auto w = MakeWorkload(10000, 54);
  ParallelBuilder builder(BaseOptions(&w->env, "/pwf"), 4,
                          ParallelAlgorithm::kWaveFront);
  auto result = builder.Build(w->info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(testing::IndexMatchesOracle(&w->env, result->index, w->text));
}

TEST(ParallelBuilderTest, PermanentSubTreeWriteFaultFailsTheBuild) {
  // Every sub-tree write fails while the text stays readable: once all
  // three workers have stopped and been joined, the build must return the
  // failed background write's error, which names its st_ file.
  auto w = MakeWorkload(20000, 55);
  FaultSpec spec;
  spec.fail_write_at = 1;
  spec.write_fail_permanent = true;
  spec.path_filter = "st_";
  FaultyEnv faulty(&w->env, spec);
  ParallelBuilder builder(BaseOptions(&faulty, "/pfault"), 3);
  auto result = builder.Build(w->info);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError()) << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("st_"), std::string::npos)
      << result.status().ToString();
  EXPECT_GE(faulty.stats().write_faults, 1u);
  EXPECT_FALSE(w->env.FileExists("/pfault/MANIFEST"));
}

ClusterOptions MakeCluster(unsigned nodes) {
  ClusterOptions cluster;
  cluster.num_nodes = nodes;
  cluster.per_node_budget = 1 << 20;
  cluster.network_bytes_per_second = 16.0 * 1024 * 1024;
  return cluster;
}

class ClusterNodes : public ::testing::TestWithParam<unsigned> {};

TEST_P(ClusterNodes, MatchesOracle) {
  unsigned nodes = GetParam();
  auto w = MakeWorkload(20000, 61);
  ClusterBuilder builder(BaseOptions(&w->env, "/cluster"),
                         MakeCluster(nodes));
  auto result = builder.Build(w->info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(testing::IndexMatchesOracle(&w->env, result->index, w->text));
  EXPECT_EQ(result->node_seconds.size(), nodes);
  EXPECT_EQ(result->node_io.size(), nodes);

  // Phase accounting: transfer is |S| / bandwidth; all-in time adds the
  // serial phases (Table 3's last column).
  double expected_transfer =
      static_cast<double>(w->info.length) / (16.0 * 1024 * 1024);
  EXPECT_NEAR(result->transfer_seconds, expected_transfer, 1e-9);
  EXPECT_GE(result->AllSeconds(), result->ConstructionSeconds());
  EXPECT_NEAR(result->AllSeconds(),
              result->makespan_seconds + result->transfer_seconds +
                  result->vertical_seconds,
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, ClusterNodes,
                         ::testing::Values(1u, 2u, 5u, 16u),
                         [](const auto& info) {
                           return "nodes_" + std::to_string(info.param);
                         });

TEST(ClusterBuilderTest, OutputIdenticalAcrossNodeCounts) {
  auto w = MakeWorkload(15000, 62);
  std::vector<uint64_t> reference;
  for (unsigned nodes : {1u, 4u, 9u}) {
    ClusterBuilder builder(
        BaseOptions(&w->env, "/c" + std::to_string(nodes)),
        MakeCluster(nodes));
    auto result = builder.Build(w->info);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto order = testing::GlobalLeafOrder(&w->env, result->index);
    ASSERT_TRUE(order.ok());
    if (reference.empty()) {
      reference = *order;
    } else {
      EXPECT_EQ(*order, reference) << nodes << " nodes diverged";
    }
  }
}

TEST(ClusterBuilderTest, LoadBalancingSpreadsWork) {
  // With many groups and LPT assignment, per-node I/O should be within a
  // reasonable factor across nodes (near-optimal speed-up in Table 3).
  auto w = MakeWorkload(40000, 63);
  ClusterOptions cluster = MakeCluster(4);
  cluster.per_node_budget = 512 << 10;  // more, smaller groups
  ClusterBuilder builder(BaseOptions(&w->env, "/bal"), cluster);
  auto result = builder.Build(w->info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  uint64_t min_bytes = ~0ull;
  uint64_t max_bytes = 0;
  for (const IoStats& io : result->node_io) {
    min_bytes = std::min(min_bytes, io.bytes_read);
    max_bytes = std::max(max_bytes, io.bytes_read);
  }
  ASSERT_GT(min_bytes, 0u);
  EXPECT_LE(max_bytes, 3 * min_bytes)
      << "grossly unbalanced node I/O: " << min_bytes << " vs " << max_bytes;
}

TEST(ClusterBuilderTest, WaveFrontClusterMatchesOracle) {
  auto w = MakeWorkload(10000, 64);
  ClusterOptions cluster = MakeCluster(3);
  cluster.algorithm = ParallelAlgorithm::kWaveFront;
  ClusterBuilder builder(BaseOptions(&w->env, "/cwf"), cluster);
  auto result = builder.Build(w->info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(testing::IndexMatchesOracle(&w->env, result->index, w->text));
}

TEST(ClusterBuilderTest, PermanentSubTreeWriteFaultFailsTheBuild) {
  // Every sub-tree write fails while the text stays readable: once all
  // three nodes have drained their writers, the build must return the
  // failed background write's error, which names its st_ file.
  auto w = MakeWorkload(20000, 55);
  FaultSpec spec;
  spec.fail_write_at = 1;
  spec.write_fail_permanent = true;
  spec.path_filter = "st_";
  FaultyEnv faulty(&w->env, spec);
  ClusterBuilder builder(BaseOptions(&faulty, "/cfault"), MakeCluster(3));
  auto result = builder.Build(w->info);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError()) << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("st_"), std::string::npos)
      << result.status().ToString();
  EXPECT_GE(faulty.stats().write_faults, 1u);
  EXPECT_FALSE(w->env.FileExists("/cfault/MANIFEST"));
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleBlocksUntilCompletion) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      done.fetch_add(1);
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 8);
}

}  // namespace
}  // namespace era
