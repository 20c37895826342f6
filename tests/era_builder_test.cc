// End-to-end tests of the one-worker (serial) ERA build against the SA-IS
// oracle, sweeping alphabets, text shapes, memory budgets, range policies,
// grouping and the two horizontal methods.

#include "era/era_builder.h"

#include <gtest/gtest.h>

#include "era/parallel_builder.h"
#include "era/range_policy.h"
#include "era/subtree_prepare.h"
#include "era/subtree_writer.h"
#include "io/mem_env.h"
#include "suffixtree/validator.h"
#include "tests/test_util.h"

namespace era {
namespace {

struct BuilderCase {
  std::string name;
  Alphabet alphabet;
  std::size_t length;
  uint64_t seed;
  bool repetitive = false;
  uint64_t memory_budget = 1 << 20;
  bool grouping = true;
  bool seek_optimization = true;
  RangePolicyKind range_policy = RangePolicyKind::kElastic;
  uint32_t fixed_range = 16;
  HorizontalMethod horizontal = HorizontalMethod::kPrepareBuild;
};

class EraBuilderEndToEnd : public ::testing::TestWithParam<BuilderCase> {
 protected:
  std::string BuildAndCheck(const BuilderCase& c) {
    MemEnv env;
    std::string text =
        c.repetitive ? testing::RepetitiveText(c.alphabet, c.length, c.seed)
                     : testing::RandomText(c.alphabet, c.length, c.seed);
    auto info = MaterializeText(&env, "/text", c.alphabet, text);
    EXPECT_TRUE(info.ok());

    BuildOptions options;
    options.env = &env;
    options.work_dir = "/idx";
    options.memory_budget = c.memory_budget;
    options.input_buffer_bytes = 4096;
    options.group_virtual_trees = c.grouping;
    options.seek_optimization = c.seek_optimization;
    options.range_policy = c.range_policy;
    options.fixed_range = c.fixed_range;
    options.horizontal = c.horizontal;

    ParallelBuilder builder(options, 1);
    auto result = builder.Build(*info);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return "";

    EXPECT_TRUE(testing::IndexMatchesOracle(&env, result->index, text));
    EXPECT_TRUE(ValidateIndex(&env, result->index, text).ok());
    EXPECT_EQ(result->index.TotalSuffixes(), text.size());
    EXPECT_GT(result->stats.num_subtrees, 0u);
    EXPECT_GT(result->stats.io.bytes_read, 0u);

    // Return the manifest for determinism checks.
    std::string manifest;
    EXPECT_TRUE(env.ReadFileToString("/idx/MANIFEST", &manifest).ok());
    return manifest;
  }
};

TEST_P(EraBuilderEndToEnd, MatchesOracle) { BuildAndCheck(GetParam()); }

INSTANTIATE_TEST_SUITE_P(
    Sweep, EraBuilderEndToEnd,
    ::testing::Values(
        BuilderCase{.name = "dna_small", .alphabet = Alphabet::Dna(),
                    .length = 2000, .seed = 1},
        BuilderCase{.name = "dna_tiny_budget", .alphabet = Alphabet::Dna(),
                    .length = 20000, .seed = 2, .memory_budget = 96 << 10},
        BuilderCase{.name = "dna_repetitive", .alphabet = Alphabet::Dna(),
                    .length = 8000, .seed = 3, .repetitive = true},
        BuilderCase{.name = "protein", .alphabet = Alphabet::Protein(),
                    .length = 6000, .seed = 4},
        BuilderCase{.name = "english", .alphabet = Alphabet::English(),
                    .length = 6000, .seed = 5},
        BuilderCase{.name = "binary", .alphabet = *Alphabet::Create("ab"),
                    .length = 6000, .seed = 6},
        BuilderCase{.name = "no_grouping", .alphabet = Alphabet::Dna(),
                    .length = 5000, .seed = 7, .grouping = false},
        BuilderCase{.name = "no_seek_opt", .alphabet = Alphabet::Dna(),
                    .length = 5000, .seed = 8, .seek_optimization = false},
        BuilderCase{.name = "fixed_range_16", .alphabet = Alphabet::Dna(),
                    .length = 5000, .seed = 9,
                    .range_policy = RangePolicyKind::kFixed,
                    .fixed_range = 16},
        BuilderCase{.name = "fixed_range_4", .alphabet = Alphabet::Dna(),
                    .length = 5000, .seed = 10,
                    .range_policy = RangePolicyKind::kFixed,
                    .fixed_range = 4},
        BuilderCase{.name = "branch_edge_dna", .alphabet = Alphabet::Dna(),
                    .length = 5000, .seed = 11,
                    .horizontal = HorizontalMethod::kBranchEdge},
        BuilderCase{.name = "branch_edge_protein",
                    .alphabet = Alphabet::Protein(), .length = 4000,
                    .seed = 12, .horizontal = HorizontalMethod::kBranchEdge},
        BuilderCase{.name = "branch_edge_repetitive",
                    .alphabet = Alphabet::Dna(), .length = 5000, .seed = 13,
                    .repetitive = true,
                    .horizontal = HorizontalMethod::kBranchEdge},
        BuilderCase{.name = "branch_edge_tiny_budget",
                    .alphabet = Alphabet::Dna(), .length = 20000, .seed = 14,
                    .memory_budget = 96 << 10,
                    .horizontal = HorizontalMethod::kBranchEdge}),
    [](const auto& info) { return info.param.name; });

TEST(EraBuilderTest, DeterministicAcrossRuns) {
  BuilderCase c{.name = "det", .alphabet = Alphabet::Dna(), .length = 4000,
                .seed = 42};
  // Run the same build twice in fresh environments; manifests must match.
  auto run = [&]() {
    MemEnv env;
    std::string text = testing::RandomText(c.alphabet, c.length, c.seed);
    auto info = MaterializeText(&env, "/text", c.alphabet, text);
    BuildOptions options;
    options.env = &env;
    options.work_dir = "/idx";
    options.memory_budget = c.memory_budget;
    options.input_buffer_bytes = 4096;
    ParallelBuilder builder(options, 1);
    auto result = builder.Build(*info);
    EXPECT_TRUE(result.ok());
    std::string manifest;
    EXPECT_TRUE(env.ReadFileToString("/idx/MANIFEST", &manifest).ok());
    return manifest;
  };
  EXPECT_EQ(run(), run());
}

TEST(EraBuilderTest, VariantsProduceIdenticalTrees) {
  // Elastic vs fixed range, grouping on/off, seek on/off and both horizontal
  // methods must all produce the same canonical global order.
  MemEnv env;
  std::string text = testing::RepetitiveText(Alphabet::Dna(), 6000, 99);
  auto info = MaterializeText(&env, "/text", Alphabet::Dna(), text);
  ASSERT_TRUE(info.ok());

  auto global_order = [&](BuildOptions options, const std::string& dir) {
    options.env = &env;
    options.work_dir = dir;
    options.memory_budget = 1 << 20;
    options.input_buffer_bytes = 4096;
    ParallelBuilder builder(options, 1);
    auto result = builder.Build(*info);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    auto order = testing::GlobalLeafOrder(&env, result->index);
    EXPECT_TRUE(order.ok());
    return *order;
  };

  BuildOptions base;
  auto reference = global_order(base, "/idx0");
  EXPECT_EQ(reference, testing::OracleSaLcp(text).sa);

  BuildOptions fixed;
  fixed.range_policy = RangePolicyKind::kFixed;
  fixed.fixed_range = 8;
  EXPECT_EQ(global_order(fixed, "/idx1"), reference);

  BuildOptions ungrouped;
  ungrouped.group_virtual_trees = false;
  EXPECT_EQ(global_order(ungrouped, "/idx2"), reference);

  BuildOptions no_seek;
  no_seek.seek_optimization = false;
  EXPECT_EQ(global_order(no_seek, "/idx3"), reference);

  BuildOptions branch_edge;
  branch_edge.horizontal = HorizontalMethod::kBranchEdge;
  EXPECT_EQ(global_order(branch_edge, "/idx4"), reference);
}

TEST(EraBuilderTest, FailsCleanlyOnMissingText) {
  MemEnv env;
  BuildOptions options;
  options.env = &env;
  options.work_dir = "/idx";
  TextInfo info{"/missing", 100, Alphabet::Dna()};
  ParallelBuilder builder(options, 1);
  auto result = builder.Build(info);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError()) << result.status().ToString();
}

TEST(EraBuilderTest, FailsCleanlyOnLengthMismatch) {
  MemEnv env;
  ASSERT_TRUE(env.WriteFile("/text", "ACGT~").ok());
  BuildOptions options;
  options.env = &env;
  options.work_dir = "/idx";
  TextInfo info{"/text", 100, Alphabet::Dna()};  // wrong length
  ParallelBuilder builder(options, 1);
  auto result = builder.Build(info);
  EXPECT_FALSE(result.ok());
}

TEST(EraBuilderTest, StatsAreCoherent) {
  MemEnv env;
  std::string text = testing::RandomText(Alphabet::Dna(), 30000, 17);
  auto info = MaterializeText(&env, "/text", Alphabet::Dna(), text);
  ASSERT_TRUE(info.ok());
  BuildOptions options;
  options.env = &env;
  options.work_dir = "/idx";
  options.memory_budget = 128 << 10;
  options.input_buffer_bytes = 4096;
  ParallelBuilder builder(options, 1);
  auto result = builder.Build(*info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const BuildStats& stats = result->stats;
  EXPECT_GT(stats.fm, 0u);
  EXPECT_GT(stats.num_groups, 0u);
  EXPECT_GE(stats.num_subtrees, stats.num_groups);
  EXPECT_GT(stats.prepare_rounds, 0u);
  EXPECT_GT(stats.peak_tree_bytes, 0u);
  // The peak in-memory tree must respect the budgeted tree area:
  // 2 nodes/leaf * 32 B * FM.
  EXPECT_LE(stats.peak_tree_bytes, stats.fm * kTreeBytesPerLeaf);
  EXPECT_GE(stats.total_seconds, stats.vertical_seconds);
  // Multiple scans of S happened (partitioning rounds + per-group scans).
  EXPECT_GT(stats.io.scans_started, stats.num_groups);
  DiskModel disk;
  EXPECT_GT(stats.ModeledSeconds(disk), stats.total_seconds);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(EraBuilderTest, GroupingReducesScansOfS) {
  MemEnv env;
  std::string text = testing::RandomText(Alphabet::Dna(), 40000, 23);
  auto info = MaterializeText(&env, "/text", Alphabet::Dna(), text);
  ASSERT_TRUE(info.ok());

  auto scans = [&](bool grouping, const std::string& dir) {
    BuildOptions options;
    options.env = &env;
    options.work_dir = dir;
    options.memory_budget = 256 << 10;
    options.input_buffer_bytes = 4096;
    options.group_virtual_trees = grouping;
    ParallelBuilder builder(options, 1);
    auto result = builder.Build(*info);
    EXPECT_TRUE(result.ok());
    return result->stats.io.scans_started;
  };
  // Virtual trees amortize scans across sub-trees (Figure 9(a)).
  EXPECT_LT(scans(true, "/g1"), scans(false, "/g2"));
}

TEST(EraBuilderTest, BuildAndEmitPrefixLeavesTheCallerSlotEmpty) {
  // L and B (24 bytes per leaf) must be freed once the tree is built; the
  // caller's copy must not keep them alive. Handed to the writer, the
  // prefix's tree is built and written on a writer thread, which reports
  // its bytes into the slot.
  MemEnv env;
  std::string text = testing::RandomText(Alphabet::Dna(), 5000, 31);
  ASSERT_TRUE(env.WriteFile("/s", text).ok());
  ASSERT_TRUE(env.CreateDir("/idx").ok());
  const VirtualTree group = testing::CountedGroup(text, {"A", "C"});
  IoStats io;
  auto reader = OpenStringReader(&env, "/s", {}, &io);
  ASSERT_TRUE(reader.ok());
  GroupPreparer preparer(group, RangePolicy::Elastic(64 << 10, 4, 256),
                         reader->get(), text.size(), Alphabet::Dna());
  ASSERT_TRUE(preparer.Run().ok());

  BuildOptions options;
  options.env = &env;
  options.work_dir = "/idx";
  GroupOutput out;
  out.subtrees.resize(group.prefixes.size());
  PreparedSubTree& handed = preparer.results()[0];
  const uint64_t leaves = handed.leaves.size();
  ASSERT_GT(leaves, 1u);
  BackgroundSubTreeWriter writer(&env, /*num_threads=*/1, 1 << 20);
  BuildAndEmitPrefix(options, text.size(), /*group_id=*/0, /*k=*/0,
                     std::move(handed), &out, &writer);
  EXPECT_EQ(handed.leaves.capacity(), 0u);
  EXPECT_EQ(handed.branches.capacity(), 0u);
  ASSERT_TRUE(writer.Drain().ok());
  EXPECT_EQ(writer.jobs_built(), 1u);
  EXPECT_GT(out.subtrees[0].tree_bytes, 0u);
  EXPECT_EQ(out.subtrees[0].frequency, leaves);
  EXPECT_TRUE(env.FileExists("/idx/" + out.subtrees[0].filename));
}

TEST(EraBuilderTest, PrepareSubPhasesNestInsidePrepare) {
  // Round 1's windows ride the occurrence scan, so round layout and fetch
  // time only rounds >= 2: the repetitive text's deep LCPs keep some group
  // preparing past its first round.
  MemEnv env;
  std::string text = testing::RepetitiveText(Alphabet::Dna(), 30000, 41);
  auto info = MaterializeText(&env, "/text", Alphabet::Dna(), text);
  ASSERT_TRUE(info.ok());
  BuildOptions options;
  options.env = &env;
  options.memory_budget = 128 << 10;
  options.input_buffer_bytes = 4096;

  auto check = [](const BuildStats& stats) {
    EXPECT_GT(stats.prepare_rounds, stats.num_groups);
    const PrepareTimes& t = stats.prepare_times;
    EXPECT_GT(t.scan_seconds, 0);
    EXPECT_GT(t.layout_seconds, 0);
    EXPECT_GT(t.fetch_seconds, 0);
    EXPECT_GT(t.sort_seconds, 0);
    double prepare = 0;
    for (const PhaseProfiler::Entry& e : stats.phases) {
      if (e.phase == "prepare") prepare += e.seconds;
    }
    // Disjoint intervals of one clock, up to the seconds' rounding.
    EXPECT_LE(t.scan_seconds + t.layout_seconds + t.fetch_seconds +
                  t.sort_seconds,
              prepare + 1e-9);
    EXPECT_NE(stats.ToString().find("prepare{scan="), std::string::npos);
  };
  options.work_dir = "/serial";
  auto serial = ParallelBuilder(options, 1).Build(*info);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  check(serial->stats);

  options.work_dir = "/parallel";
  options.memory_budget = 256 << 10;
  auto parallel = ParallelBuilder(options, 2).Build(*info);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  check(parallel->stats);
}

}  // namespace
}  // namespace era
