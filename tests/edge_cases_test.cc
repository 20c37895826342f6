// Adversarial and degenerate inputs through the full ERA pipeline: unary
// strings (maximum LCP chains), alternating strings, de-Bruijn-like dense
// strings, single-symbol bodies, and pathological prefix structures.

#include <gtest/gtest.h>

#include <limits>

#include "era/branch_edge.h"
#include "era/build_subtree.h"
#include "era/memory_layout.h"
#include "era/parallel_builder.h"
#include "era/range_policy.h"
#include "era/subtree_prepare.h"
#include "era/vertical_partitioner.h"
#include "io/mem_env.h"
#include "suffixtree/validator.h"
#include "tests/test_util.h"
#include "wavefront/wavefront.h"

namespace era {
namespace {

/// Builds with ERA and checks the result against the oracle.
void BuildAndVerify(const std::string& text, const Alphabet& alphabet,
                    uint64_t budget = 1 << 20) {
  MemEnv env;
  auto info = MaterializeText(&env, "/text", alphabet, text);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  BuildOptions options;
  options.env = &env;
  options.work_dir = "/idx";
  options.memory_budget = budget;
  options.input_buffer_bytes = 4096;
  ParallelBuilder builder(options, 1);
  auto result = builder.Build(*info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(testing::IndexMatchesOracle(&env, result->index, text));
  EXPECT_TRUE(ValidateIndex(&env, result->index, text).ok());
}

TEST(EdgeCaseTest, TerminalOnlyText) {
  BuildAndVerify(std::string(1, kTerminal), Alphabet::Dna());
}

TEST(EdgeCaseTest, SingleSymbolBody) { BuildAndVerify("A~", Alphabet::Dna()); }

TEST(EdgeCaseTest, TwoSymbolBody) { BuildAndVerify("AC~", Alphabet::Dna()); }

TEST(EdgeCaseTest, UnaryString) {
  // a^n: every suffix is a prefix of the previous; adjacent LCPs are n-1,
  // n-2, ... — the deepest possible tree.
  for (std::size_t n : {3u, 17u, 100u, 1000u}) {
    BuildAndVerify(std::string(n, 'A') + '~', Alphabet::Dna());
  }
}

TEST(EdgeCaseTest, AlternatingString) {
  std::string text;
  for (int i = 0; i < 500; ++i) text += "AC";
  BuildAndVerify(text + '~', Alphabet::Dna());
}

TEST(EdgeCaseTest, PeriodicWithLongPeriod) {
  std::string unit = "ACGTTGCAACGG";
  std::string text;
  for (int i = 0; i < 100; ++i) text += unit;
  BuildAndVerify(text + '~', Alphabet::Dna());
}

TEST(EdgeCaseTest, DenseKmerCoverage) {
  // All 3-mers over {A,C,G,T} concatenated: every short prefix occurs.
  std::string text;
  const char* sym = "ACGT";
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      for (int c = 0; c < 4; ++c) {
        text += sym[a];
        text += sym[b];
        text += sym[c];
      }
    }
  }
  BuildAndVerify(text + '~', Alphabet::Dna());
}

TEST(EdgeCaseTest, PalindromeHeavy) {
  std::string half = testing::RandomText(Alphabet::Dna(), 400, 5);
  half.pop_back();
  std::string text = half;
  text.append(half.rbegin(), half.rend());
  BuildAndVerify(text + '~', Alphabet::Dna());
}

TEST(EdgeCaseTest, TinyBudgetOnRepetitiveText) {
  // Tight memory on a nasty string: many sub-trees, deep prefixes.
  std::string text = testing::RepetitiveText(Alphabet::Dna(), 30000, 6);
  BuildAndVerify(text, Alphabet::Dna(), 80 << 10);
}

TEST(EdgeCaseTest, SingleCharacterAlphabet) {
  auto unary = Alphabet::Create("x");
  ASSERT_TRUE(unary.ok());
  BuildAndVerify(std::string(300, 'x') + '~', *unary);
}

TEST(EdgeCaseTest, TwoCharacterAlphabetThueMorse) {
  // Thue-Morse sequence: overlap-free, worst-case-ish branching structure.
  std::string text = "a";
  while (text.size() < 2048) {
    std::string flipped;
    for (char c : text) flipped += (c == 'a' ? 'b' : 'a');
    text += flipped;
  }
  auto ab = Alphabet::Create("ab");
  ASSERT_TRUE(ab.ok());
  BuildAndVerify(text + '~', *ab);
}

TEST(EdgeCaseTest, GroupPreparerWithManyPrefixesInOneGroup) {
  // A virtual tree holding every 2-mer: the shared-scan machinery must
  // interleave many states without confusing their request streams.
  MemEnv env;
  std::string text = testing::RandomText(Alphabet::Dna(), 20000, 7);
  ASSERT_TRUE(env.WriteFile("/s", text).ok());

  std::vector<std::string> two_mers;
  const char* sym = "ACGT";
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) two_mers.push_back({sym[a], sym[b]});
  }
  const VirtualTree group = testing::CountedGroup(text, two_mers);
  IoStats stats;
  auto reader = OpenStringReader(&env, "/s", {}, &stats);
  ASSERT_TRUE(reader.ok());
  GroupPreparer preparer(group, RangePolicy::Elastic(1 << 16, 4, 1024),
                         reader->get(), text.size(), Alphabet::Dna());
  ASSERT_TRUE(preparer.Run().ok());

  // Every prefix's (L, B) must match the oracle slice.
  SaLcp oracle = testing::OracleSaLcp(text);
  for (auto& prepared : preparer.results()) {
    std::vector<uint64_t> expected_sa;
    std::vector<uint64_t> expected_lcp;
    for (std::size_t i = 0; i < oracle.sa.size(); ++i) {
      if (text.compare(oracle.sa[i], prepared.prefix.size(),
                       prepared.prefix) == 0) {
        if (!expected_sa.empty()) expected_lcp.push_back(oracle.lcp[i - 1]);
        expected_sa.push_back(oracle.sa[i]);
      }
    }
    ASSERT_EQ(prepared.leaves, expected_sa) << prepared.prefix;
    for (std::size_t i = 1; i < prepared.branches.size(); ++i) {
      ASSERT_TRUE(prepared.branches[i].defined);
      ASSERT_EQ(prepared.branches[i].offset, expected_lcp[i - 1])
          << prepared.prefix << " bond " << i;
    }
  }
}

TEST(EdgeCaseTest, FixedRangeOneSymbol) {
  // range = 1 degenerates SubTreePrepare to symbol-by-symbol refinement —
  // the slowest correct configuration.
  MemEnv env;
  std::string text = testing::RandomText(Alphabet::Dna(), 2000, 8);
  auto info = MaterializeText(&env, "/text", Alphabet::Dna(), text);
  ASSERT_TRUE(info.ok());
  BuildOptions options;
  options.env = &env;
  options.work_dir = "/idx";
  options.memory_budget = 1 << 20;
  options.input_buffer_bytes = 4096;
  options.range_policy = RangePolicyKind::kFixed;
  options.fixed_range = 1;
  ParallelBuilder builder(options, 1);
  auto result = builder.Build(*info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(testing::IndexMatchesOracle(&env, result->index, text));
}

TEST(EdgeCaseTest, BuildSubTreeAcceptsEdgeLenAtThe32BitBoundary) {
  // BuildSubTree works purely on (L, B) and text_length, so the 4 GiB edge
  // boundary is testable without materializing a 4 GiB string. One leaf at
  // position 5 with text_length = 5 + UINT32_MAX puts the leaf edge exactly
  // at the widest representable length.
  const uint64_t kMax = std::numeric_limits<uint32_t>::max();
  PreparedSubTree prepared;
  prepared.prefix = "A";
  prepared.leaves = {5};
  prepared.branches.resize(1);
  prepared.branches[0].defined = true;  // sentinel
  auto tree = BuildSubTree(prepared, /*text_length=*/5 + kMax);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->node(1).edge_len, kMax);
}

TEST(EdgeCaseTest, BuildSubTreeRejectsEdgeLenOverflow) {
  // One past the boundary: silently truncating edge_len used to produce a
  // structurally wrong tree; now it must fail loudly.
  const uint64_t kMax = std::numeric_limits<uint32_t>::max();
  PreparedSubTree prepared;
  prepared.prefix = "A";
  prepared.leaves = {5};
  prepared.branches.resize(1);
  prepared.branches[0].defined = true;
  auto tree = BuildSubTree(prepared, /*text_length=*/5 + kMax + 1);
  ASSERT_FALSE(tree.ok());
  EXPECT_TRUE(tree.status().IsInternal()) << tree.status().ToString();
}

TEST(EdgeCaseTest, WaveFrontBuildSubTreeRejectsEdgeLenOverflow) {
  // WaveFront's insertion fills the same 32-bit edge field: one leaf whose
  // edge runs one past the boundary used to come back as edge_len 0.
  const uint64_t kMax = std::numeric_limits<uint32_t>::max();
  MemEnv env;
  ASSERT_TRUE(env.WriteFile("/s", "AAAAAA~").ok());
  IoStats io;
  auto suffix_reader = OpenStringReader(&env, "/s", {}, &io);
  auto edge_reader = OpenStringReader(&env, "/s", {}, &io);
  ASSERT_TRUE(suffix_reader.ok());
  ASSERT_TRUE(edge_reader.ok());
  auto tree = WaveFrontBuildSubTree("A", {5}, /*text_length=*/5 + kMax + 1,
                                    suffix_reader->get(), edge_reader->get());
  ASSERT_FALSE(tree.ok());
  EXPECT_TRUE(tree.status().IsInternal()) << tree.status().ToString();
}

TEST(EdgeCaseTest, BuildSubTreeRejectsOverflowOnLaterLeaves) {
  // The first leaf fits but the second one's edge (text_length - pos - d)
  // still overflows; every edge_len assignment must be checked.
  const uint64_t kMax = std::numeric_limits<uint32_t>::max();
  PreparedSubTree prepared;
  prepared.prefix = "A";
  prepared.leaves = {static_cast<uint64_t>(kMax) + 10, 2};
  prepared.branches.resize(2);
  prepared.branches[0].defined = true;
  prepared.branches[1] = {/*offset=*/1, 'a', 'b', /*defined=*/true};
  auto tree = BuildSubTree(prepared, /*text_length=*/kMax + 20);
  ASSERT_FALSE(tree.ok());
  EXPECT_TRUE(tree.status().IsInternal()) << tree.status().ToString();
}

TEST(EdgeCaseTest, BranchEdgeRejectsTextBeyondEdgeLimit) {
  // The BranchEdge method assigns whole suffix tails as edge labels, so a
  // text past the 32-bit node field must be rejected up front instead of
  // silently truncating (the same guarantee CheckedEdgeLen gives the
  // prepare/build path).
  MemEnv env;
  ASSERT_TRUE(env.WriteFile("/s", "ACGT~").ok());
  IoStats io;
  auto reader = OpenStringReader(&env, "/s", {}, &io);
  ASSERT_TRUE(reader.ok());
  VirtualTree group;
  group.prefixes.push_back({"A", 1});
  GroupStrBuilder builder(
      group, RangePolicy::Fixed(4), reader->get(),
      /*text_length=*/uint64_t{std::numeric_limits<uint32_t>::max()} + 2);
  Status s = builder.Run();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInternal()) << s.ToString();
}

TEST(EdgeCaseTest, VerticalPartitionSurvivesDegenerateTinyInputs) {
  // Tiny bodies with a tiny FM: working prefixes quickly reach (and the
  // guard must stop them at) the text-body boundary where
  // n - p.size() would wrap around.
  for (const char* body : {"", "A", "AA", "AC", "AAA"}) {
    MemEnv env;
    std::string text = std::string(body) + '~';
    auto info = MaterializeText(&env, "/t", Alphabet::Dna(), text);
    ASSERT_TRUE(info.ok());
    BuildOptions options;
    options.env = &env;
    options.work_dir = "/idx";
    options.memory_budget = 1 << 20;
    options.input_buffer_bytes = 4096;
    for (uint64_t fm : {1u, 2u, 100u}) {
      auto plan = VerticalPartition(*info, options, fm);
      ASSERT_TRUE(plan.ok()) << "body '" << body << "' fm " << fm << ": "
                             << plan.status().ToString();
      // Accounting must still close: every suffix lands in exactly one
      // sub-tree or direct trie leaf.
      uint64_t suffixes = plan->terminal_leaves.size();
      for (const VirtualTree& g : plan->groups) {
        suffixes += g.total_frequency;
      }
      EXPECT_EQ(suffixes, text.size()) << "body '" << body << "' fm " << fm;
    }
  }
}

TEST(EdgeCaseTest, SweepSeedsForFuzzCoverage) {
  // Small randomized sweep: every seed builds and validates.
  for (uint64_t seed = 100; seed < 112; ++seed) {
    std::string text = seed % 2 == 0
                           ? testing::RandomText(Alphabet::Dna(),
                                                 500 + seed * 37, seed)
                           : testing::RepetitiveText(Alphabet::Protein(),
                                                     500 + seed * 29, seed);
    const Alphabet alphabet =
        seed % 2 == 0 ? Alphabet::Dna() : Alphabet::Protein();
    BuildAndVerify(text, alphabet, 256 << 10);
  }
}

}  // namespace
}  // namespace era
