// Correctness of the competitor implementations (WaveFront, B2ST, TRELLIS)
// against the SA-IS oracle, plus their paper-documented characteristics.

#include <gtest/gtest.h>

#include "b2st/b2st.h"
#include "era/build_subtree.h"
#include "era/parallel_builder.h"
#include "sa/lcp.h"
#include "io/mem_env.h"
#include "suffixtree/serializer.h"
#include "suffixtree/validator.h"
#include "tests/test_util.h"
#include "trellis/trellis.h"
#include "ukkonen/ukkonen.h"

namespace era {
namespace {

struct BaselineCase {
  std::string name;
  Alphabet alphabet;
  std::size_t length;
  uint64_t seed;
  bool repetitive = false;
  uint64_t memory_budget = 1 << 20;
};

BuildOptions MakeOptions(Env* env, const BaselineCase& c,
                         const std::string& dir) {
  BuildOptions options;
  options.env = env;
  options.work_dir = dir;
  options.memory_budget = c.memory_budget;
  options.input_buffer_bytes = 4096;
  return options;
}

class WaveFrontEndToEnd : public ::testing::TestWithParam<BaselineCase> {};

TEST_P(WaveFrontEndToEnd, MatchesOracle) {
  const auto& c = GetParam();
  MemEnv env;
  std::string text =
      c.repetitive ? testing::RepetitiveText(c.alphabet, c.length, c.seed)
                   : testing::RandomText(c.alphabet, c.length, c.seed);
  auto info = MaterializeText(&env, "/text", c.alphabet, text);
  ASSERT_TRUE(info.ok());

  ParallelBuilder builder(MakeOptions(&env, c, "/wf"), 1,
                          ParallelAlgorithm::kWaveFront);
  auto result = builder.Build(*info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(testing::IndexMatchesOracle(&env, result->index, text));
  EXPECT_TRUE(ValidateIndex(&env, result->index, text).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WaveFrontEndToEnd,
    ::testing::Values(
        BaselineCase{"dna", Alphabet::Dna(), 3000, 1},
        BaselineCase{"dna_repetitive", Alphabet::Dna(), 3000, 2, true},
        BaselineCase{"protein", Alphabet::Protein(), 3000, 3},
        BaselineCase{"english", Alphabet::English(), 3000, 4},
        BaselineCase{"dna_small_budget", Alphabet::Dna(), 15000, 5, false,
                     128 << 10}),
    [](const auto& info) { return info.param.name; });

TEST(WaveFrontTest, OneScanPerSubTree) {
  // No virtual trees: the occurrence scans alone equal the sub-tree count
  // (ERA's grouping is exactly what removes this overhead).
  MemEnv env;
  std::string text = testing::RandomText(Alphabet::Dna(), 30000, 9);
  auto info = MaterializeText(&env, "/text", Alphabet::Dna(), text);
  ASSERT_TRUE(info.ok());
  BaselineCase c{"x", Alphabet::Dna(), 0, 0, false, 256 << 10};
  ParallelBuilder builder(MakeOptions(&env, c, "/wf"), 1,
                          ParallelAlgorithm::kWaveFront);
  auto result = builder.Build(*info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->stats.io.scans_started, result->stats.num_subtrees);
  EXPECT_GT(result->stats.num_subtrees, 1u);
}

class B2stEndToEnd : public ::testing::TestWithParam<BaselineCase> {};

TEST_P(B2stEndToEnd, ForestMatchesOracle) {
  const auto& c = GetParam();
  MemEnv env;
  std::string text =
      c.repetitive ? testing::RepetitiveText(c.alphabet, c.length, c.seed)
                   : testing::RandomText(c.alphabet, c.length, c.seed);
  auto info = MaterializeText(&env, "/text", c.alphabet, text);
  ASSERT_TRUE(info.ok());

  B2stBuilder builder(MakeOptions(&env, c, "/b2st"));
  auto result = builder.Build(*info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Concatenated forest = oracle suffix array; per-tree LCPs match.
  SaLcp oracle = testing::OracleSaLcp(text);
  std::vector<uint64_t> global_sa;
  std::size_t rank = 0;
  for (const std::string& file : result->subtree_files) {
    TreeBuffer tree;
    ASSERT_TRUE(
        ReadSubTree(&env, result->work_dir + "/" + file, &tree, nullptr,
                    nullptr)
            .ok());
    SaLcp canon = TreeToSaLcp(tree);
    for (std::size_t i = 0; i < canon.lcp.size(); ++i) {
      ASSERT_EQ(canon.lcp[i], oracle.lcp[rank + i]) << "file " << file;
    }
    rank += canon.sa.size();
    global_sa.insert(global_sa.end(), canon.sa.begin(), canon.sa.end());
  }
  EXPECT_EQ(global_sa, oracle.sa);

  // Temporaries were billed: B2ST writes partition suffix arrays (8 bytes
  // per suffix) before the merge — the "large temporary results" the paper
  // criticizes.
  EXPECT_GE(result->stats.io.bytes_written, text.size() * sizeof(uint64_t));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, B2stEndToEnd,
    ::testing::Values(
        BaselineCase{"dna", Alphabet::Dna(), 3000, 11},
        BaselineCase{"dna_repetitive", Alphabet::Dna(), 3000, 12, true},
        BaselineCase{"protein", Alphabet::Protein(), 3000, 13},
        BaselineCase{"many_partitions", Alphabet::Dna(), 50000, 14, false,
                     256 << 10},
        BaselineCase{"single_partition", Alphabet::Dna(), 1000, 15, false,
                     32 << 20}),
    [](const auto& info) { return info.param.name; });

class TrellisEndToEnd : public ::testing::TestWithParam<BaselineCase> {};

TEST_P(TrellisEndToEnd, MatchesOracle) {
  const auto& c = GetParam();
  MemEnv env;
  std::string text =
      c.repetitive ? testing::RepetitiveText(c.alphabet, c.length, c.seed)
                   : testing::RandomText(c.alphabet, c.length, c.seed);
  auto info = MaterializeText(&env, "/text", c.alphabet, text);
  ASSERT_TRUE(info.ok());

  TrellisBuilder builder(MakeOptions(&env, c, "/trellis"));
  auto result = builder.Build(*info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(testing::IndexMatchesOracle(&env, result->index, text));
  EXPECT_TRUE(ValidateIndex(&env, result->index, text).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TrellisEndToEnd,
    ::testing::Values(
        BaselineCase{"dna", Alphabet::Dna(), 3000, 21},
        BaselineCase{"dna_repetitive", Alphabet::Dna(), 3000, 22, true},
        BaselineCase{"protein", Alphabet::Protein(), 2000, 23},
        BaselineCase{"multi_segment", Alphabet::Dna(), 30000, 24, false,
                     512 << 10}),
    [](const auto& info) { return info.param.name; });

TEST(TrellisTest, RefusesWhenStringExceedsMemory) {
  // The paper's Figure 10(a): TRELLIS plots only start once S fits in RAM.
  MemEnv env;
  std::string text = testing::RandomText(Alphabet::Protein(), 400000, 25);
  auto info = MaterializeText(&env, "/text", Alphabet::Protein(), text);
  ASSERT_TRUE(info.ok());
  BaselineCase c{"too_big", Alphabet::Protein(), 0, 0, false, 256 << 10};
  TrellisBuilder builder(MakeOptions(&env, c, "/trellis"));
  auto result = builder.Build(*info);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotSupported()) << result.status().ToString();
}

TEST(TrellisMergeTest, MergesDisjointLeafSets) {
  // Split the suffixes of one string across two trees by parity, merge,
  // and compare with the whole-tree oracle.
  std::string text = testing::RandomText(Alphabet::Dna(), 400, 31);
  SaLcp oracle = testing::OracleSaLcp(text);

  auto build_subset = [&](int parity) {
    PreparedSubTree prepared;
    prepared.prefix = "";
    bool first = true;
    uint64_t prev = 0;
    for (uint64_t pos : oracle.sa) {
      if (static_cast<int>(pos % 2) != parity) continue;
      if (first) {
        prepared.branches.push_back({0, 0, 0, true});
        first = false;
      } else {
        BranchInfo branch;
        branch.offset = LcpOfSuffixes(text, prev, pos);
        branch.defined = true;
        prepared.branches.push_back(branch);
      }
      prepared.leaves.push_back(pos);
      prev = pos;
    }
    auto tree = BuildSubTree(prepared, text.size());
    EXPECT_TRUE(tree.ok());
    return std::move(*tree);
  };

  TreeBuffer even = build_subset(0);
  TreeBuffer odd = build_subset(1);
  auto merged = MergeSubTrees({&even, &odd}, text);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(TreeToSaLcp(*merged), oracle);
  EXPECT_TRUE(ValidateSubTree(*merged, text, "").ok());
}

TEST(TrellisMergeTest, SingleTreeMergeIsIdentity) {
  std::string text = testing::RandomText(Alphabet::Dna(), 300, 33);
  auto whole = BuildUkkonenTree(text);
  ASSERT_TRUE(whole.ok());
  auto merged = MergeSubTrees({&*whole}, text);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(TreeToSaLcp(*merged), TreeToSaLcp(*whole));
}

TEST(BaselineAgreementTest, AllBuildersProduceTheSameTree) {
  // ERA, WaveFront and TRELLIS all emit prefix-routed TreeIndexes: their
  // global leaf orders must agree bit-for-bit.
  MemEnv env;
  std::string text = testing::RepetitiveText(Alphabet::Dna(), 5000, 41);
  auto info = MaterializeText(&env, "/text", Alphabet::Dna(), text);
  ASSERT_TRUE(info.ok());
  BaselineCase c{"agree", Alphabet::Dna(), 0, 0, false, 1 << 20};

  ParallelBuilder era_builder(MakeOptions(&env, c, "/era"), 1);
  auto era_result = era_builder.Build(*info);
  ASSERT_TRUE(era_result.ok());
  auto era_order = testing::GlobalLeafOrder(&env, era_result->index);
  ASSERT_TRUE(era_order.ok());

  ParallelBuilder wf_builder(MakeOptions(&env, c, "/wf"), 1,
                             ParallelAlgorithm::kWaveFront);
  auto wf_result = wf_builder.Build(*info);
  ASSERT_TRUE(wf_result.ok());
  auto wf_order = testing::GlobalLeafOrder(&env, wf_result->index);
  ASSERT_TRUE(wf_order.ok());
  EXPECT_EQ(*wf_order, *era_order);

  TrellisBuilder trellis_builder(MakeOptions(&env, c, "/trellis"));
  auto trellis_result = trellis_builder.Build(*info);
  ASSERT_TRUE(trellis_result.ok());
  auto trellis_order = testing::GlobalLeafOrder(&env, trellis_result->index);
  ASSERT_TRUE(trellis_order.ok());
  EXPECT_EQ(*trellis_order, *era_order);
}

}  // namespace
}  // namespace era
