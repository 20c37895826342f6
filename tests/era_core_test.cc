// Unit tests for the ERA core pieces: memory layout, range policy, vertical
// partitioning, SubTreePrepare (including the paper's literal traces), and
// BuildSubTree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>

#include "era/build_subtree.h"
#include "era/memory_layout.h"
#include "era/range_policy.h"
#include "era/subtree_prepare.h"
#include "era/vertical_partitioner.h"
#include "io/mem_env.h"
#include "suffixtree/validator.h"
#include "tests/test_util.h"
#include "text/aho_corasick.h"

namespace era {
namespace {

// The running example of Figure 2 with '~' as the terminal.
constexpr const char* kPaperText = "TGGTGGTGGTGCGGTGATGGTGC~";

BuildOptions TestOptions(Env* env) {
  BuildOptions options;
  options.env = env;
  options.work_dir = "/work";
  options.memory_budget = 1 << 20;
  options.input_buffer_bytes = 4096;
  return options;
}

TEST(MemoryLayoutTest, AreasSumToBudgetAndFmPositive) {
  // Figure 6's split gives the tree area ~60% of what remains after the
  // fixed buffers; FM is bound by it. The processing area keeps exactly FM
  // leaves' worth of that remainder, and an auto-sized R takes the rest.
  // The reference is the same budget with R set explicitly to the auto
  // rule's base size: it shares every fixed area, and keeps its R as given.
  for (uint64_t budget : {1ull << 20, 8ull << 20, 16ull << 20, 64ull << 20}) {
    for (bool tile_cache : {false, true}) {
      SCOPED_TRACE("budget " + std::to_string(budget) + " tile_cache " +
                   std::to_string(tile_cache));
      BuildOptions options;
      options.work_dir = "/w";
      options.memory_budget = budget;
      options.tile_cache = tile_cache;
      BuildOptions explicit_r = options;
      explicit_r.r_buffer_bytes =
          std::min(ResolveRBufferBytes(options, 4), budget / 4);
      auto layout = PlanMemory(options, 4);
      auto fixed_r = PlanMemory(explicit_r, 4);
      ASSERT_TRUE(layout.ok()) << layout.status().ToString();
      ASSERT_TRUE(fixed_r.ok()) << fixed_r.status().ToString();

      // The old 60/40 formula, from the reference plan's fixed areas.
      const uint64_t remaining =
          budget - fixed_r->input_buffer_bytes - fixed_r->r_buffer_bytes -
          fixed_r->tile_cache_bytes - fixed_r->trie_bytes;
      const uint64_t tree = remaining * 6 / 10;
      const uint64_t old_processing = remaining - tree;
      const uint64_t old_fm =
          std::min(tree / kTreeBytesPerLeaf,
                   old_processing / kProcessingBytesPerLeaf);
      const uint64_t surplus =
          old_processing - old_fm * kProcessingBytesPerLeaf;
      EXPECT_GT(surplus, 0u);

      for (const MemoryLayout& plan : {*layout, *fixed_r}) {
        EXPECT_EQ(plan.fm, old_fm);
        EXPECT_GT(plan.fm, 0u);
        EXPECT_EQ(plan.tree_area_bytes, tree);
        EXPECT_EQ(plan.processing_bytes, plan.fm * kProcessingBytesPerLeaf);
        EXPECT_LE(plan.total(), budget);
      }
      // Both plans share every other area; the auto R gains exactly the
      // surplus, so its areas sum to the whole budget.
      EXPECT_EQ(layout->input_buffer_bytes, fixed_r->input_buffer_bytes);
      EXPECT_EQ(layout->tile_cache_bytes, fixed_r->tile_cache_bytes);
      EXPECT_EQ(layout->trie_bytes, fixed_r->trie_bytes);
      EXPECT_EQ(layout->r_buffer_bytes, fixed_r->r_buffer_bytes + surplus);
      EXPECT_EQ(layout->total(), budget);
    }
  }
  // An explicit R is never topped up: without carves it is the plan's R.
  BuildOptions plain;
  plain.work_dir = "/w";
  plain.memory_budget = 16 << 20;
  plain.tile_cache = false;
  plain.r_buffer_bytes = 300 << 10;
  auto layout = PlanMemory(plain, 4);
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout->r_buffer_bytes, plain.r_buffer_bytes);
}

TEST(MemoryLayoutTest, FmStaysBelow2To31AtHugeBudgets) {
  // Slot indices, the slot->window map and tree node ids are 32-bit. The
  // test only plans; nothing of the budget is allocated.
  BuildOptions options;
  options.work_dir = "/w";
  options.memory_budget = 1ull << 40;
  auto layout = PlanMemory(options, 4);
  ASSERT_TRUE(layout.ok()) << layout.status().ToString();
  EXPECT_EQ(layout->fm, kMaxFm);
  EXPECT_LT(layout->fm, uint64_t{1} << 31);
  EXPECT_EQ(layout->processing_bytes, layout->fm * kProcessingBytesPerLeaf);
  EXPECT_LE(layout->total(), options.memory_budget);
}

TEST(MemoryLayoutTest, TileCacheCarveComesFromRAndPreservesFm) {
  BuildOptions uncached;
  uncached.work_dir = "/w";
  uncached.memory_budget = 64 << 20;
  uncached.tile_cache = false;
  BuildOptions cached = uncached;
  cached.tile_cache = true;
  auto plain = PlanMemory(uncached, 4);
  auto carved = PlanMemory(cached, 4);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(carved.ok());
  EXPECT_EQ(plain->tile_cache_bytes, 0u);
  EXPECT_GT(carved->tile_cache_bytes, 0u);
  // The carve comes out of the retrieved-data area (R/trie slack) alone...
  EXPECT_EQ(carved->r_buffer_bytes + carved->trie_bytes +
                carved->tile_cache_bytes,
            plain->r_buffer_bytes + plain->trie_bytes);
  EXPECT_GE(carved->r_buffer_bytes, 512u << 10);  // elastic-range floor
  EXPECT_GE(carved->trie_bytes, 64u << 10);       // trie floor
  // ...so FM, the tree area, and the processing area — everything the
  // partition plan (and with it the emitted index bytes) depends on — are
  // identical between cached and uncached builds.
  EXPECT_EQ(carved->fm, plain->fm);
  EXPECT_EQ(carved->tree_area_bytes, plain->tree_area_bytes);
  EXPECT_EQ(carved->processing_bytes, plain->processing_bytes);
  EXPECT_EQ(carved->total(), plain->total());
}

TEST(MemoryLayoutTest, ExplicitTileCacheBudgetHonoredOrRejected) {
  BuildOptions options;
  options.work_dir = "/w";
  options.memory_budget = 64 << 20;
  options.tile_cache = true;
  options.tile_cache_budget_bytes = 1 << 20;
  auto layout = PlanMemory(options, 4);
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout->tile_cache_bytes, uint64_t{1} << 20);

  // A budget that would squeeze R below its floor is a configuration
  // error, not a silent over-commit.
  options.tile_cache_budget_bytes = 1ull << 30;
  auto too_big = PlanMemory(options, 4);
  ASSERT_FALSE(too_big.ok());
  EXPECT_TRUE(too_big.status().IsOutOfBudget());
}

TEST(MemoryLayoutTest, TinyBudgetDisablesTileCacheInsteadOfFailing) {
  BuildOptions options;
  options.work_dir = "/w";
  options.memory_budget = 1 << 20;
  options.tile_cache = true;
  auto layout = PlanMemory(options, 4);
  ASSERT_TRUE(layout.ok()) << layout.status().ToString();
  // R at this scale is already at its floor; the auto carve backs off to
  // zero (builders then skip cache creation) rather than starving the
  // elastic range.
  EXPECT_EQ(layout->tile_cache_bytes, 0u);
  EXPECT_GT(layout->fm, 0u);
}

TEST(MemoryLayoutTest, FmScalesWithBudget) {
  BuildOptions small;
  small.work_dir = "/w";
  small.memory_budget = 1 << 20;
  BuildOptions large = small;
  large.memory_budget = 64 << 20;
  auto l1 = PlanMemory(small, 4);
  auto l2 = PlanMemory(large, 4);
  ASSERT_TRUE(l1.ok());
  ASSERT_TRUE(l2.ok());
  EXPECT_GT(l2->fm, 8 * l1->fm);
}

TEST(MemoryLayoutTest, RejectsOversizedExplicitRBuffer) {
  BuildOptions options;
  options.work_dir = "/w";
  options.memory_budget = 1 << 20;
  options.r_buffer_bytes = 2 << 20;  // explicitly larger than the budget
  auto layout = PlanMemory(options, 4);
  EXPECT_FALSE(layout.ok());
  EXPECT_TRUE(layout.status().IsOutOfBudget());
}

TEST(MemoryLayoutTest, TinyBudgetShrinksInputBuffer) {
  // A 64 KB budget still plans: B_S adapts downward instead of starving the
  // tree area.
  BuildOptions options;
  options.work_dir = "/w";
  options.memory_budget = 1 << 16;
  auto layout = PlanMemory(options, 4);
  ASSERT_TRUE(layout.ok()) << layout.status().ToString();
  EXPECT_LT(layout->input_buffer_bytes, options.input_buffer_bytes);
  EXPECT_GT(layout->fm, 0u);
  EXPECT_LE(layout->total(), options.memory_budget);
}

TEST(MemoryLayoutTest, WaveFrontGetsSmallerFmThanEraForSameBudget) {
  BuildOptions options;
  options.work_dir = "/w";
  options.memory_budget = 32 << 20;
  auto era = PlanMemory(options, 4);
  auto wf = PlanMemoryWaveFront(options, 4);
  ASSERT_TRUE(era.ok());
  ASSERT_TRUE(wf.ok());
  // WaveFront spends ~50% on buffers, so it can host smaller sub-trees:
  // the drawback the paper calls out in Section 3.
  EXPECT_LT(wf->fm, era->fm);
}

TEST(RangePolicyTest, ElasticGrowsAsLeavesResolve) {
  RangePolicy policy = RangePolicy::Elastic(1 << 20, 4, 65536);
  uint32_t r1 = policy.NextRange(1 << 18);  // many active leaves
  uint32_t r2 = policy.NextRange(1 << 10);
  uint32_t r3 = policy.NextRange(4);
  EXPECT_LT(r1, r2);
  EXPECT_LT(r2, r3);
  EXPECT_EQ(r1, 4u);       // clamped at min
  EXPECT_EQ(r3, 65536u);   // clamped at max
}

TEST(RangePolicyTest, FixedIgnoresActiveCount) {
  RangePolicy policy = RangePolicy::Fixed(32);
  EXPECT_EQ(policy.NextRange(1), 32u);
  EXPECT_EQ(policy.NextRange(1000000), 32u);
  EXPECT_FALSE(policy.elastic());
}

TEST(GroupingTest, FirstFitDecreasingRespectsFm) {
  std::vector<PrefixInfo> prefixes = {
      {"GT", 5}, {"GG", 5}, {"TGG", 4}, {"C", 2},  {"GC", 2},
      {"TGC", 2}, {"A", 1}, {"GA", 1},  {"TGA", 1}};
  auto groups = GroupPrefixes(prefixes, 5, true);
  uint64_t total = 0;
  for (const auto& g : groups) {
    EXPECT_LE(g.total_frequency, 5u);
    uint64_t sum = 0;
    for (const auto& p : g.prefixes) sum += p.frequency;
    EXPECT_EQ(sum, g.total_frequency);
    total += sum;
  }
  EXPECT_EQ(total, 23u);
  // First-fit-decreasing packs tightly: 23 total at FM=5 needs 5 groups.
  EXPECT_EQ(groups.size(), 5u);
}

TEST(GroupingTest, PaperExampleGroupsTggWithTga) {
  // Section 4.1: with FM = 5, TGG (4) and TGA (1) share a group while TGC
  // lands elsewhere.
  std::vector<PrefixInfo> prefixes = {{"TGA", 1}, {"TGC", 2}, {"TGG", 4}};
  auto groups = GroupPrefixes(prefixes, 5, true);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].prefixes[0].prefix, "TGG");
  ASSERT_EQ(groups[0].prefixes.size(), 2u);
  EXPECT_EQ(groups[0].prefixes[1].prefix, "TGA");
  EXPECT_EQ(groups[1].prefixes[0].prefix, "TGC");
}

TEST(GroupingTest, DisabledGroupingMakesSingletons) {
  std::vector<PrefixInfo> prefixes = {{"A", 1}, {"B", 2}, {"C", 3}};
  auto groups = GroupPrefixes(prefixes, 100, false);
  EXPECT_EQ(groups.size(), 3u);
}

class VerticalPartitionTest : public ::testing::Test {
 protected:
  StatusOr<PartitionPlan> Partition(const std::string& text, uint64_t fm,
                                    bool grouping = true) {
    env_ = std::make_unique<MemEnv>();
    auto info = MaterializeText(env_.get(), "/s", Alphabet::Dna(), text);
    if (!info.ok()) return info.status();
    BuildOptions options = TestOptions(env_.get());
    options.group_virtual_trees = grouping;
    return VerticalPartition(*info, options, fm);
  }

  std::unique_ptr<MemEnv> env_;
};

TEST_F(VerticalPartitionTest, PaperExampleFrequencies) {
  auto plan = Partition(kPaperText, 5);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // Collect all selected prefixes with frequencies.
  std::map<std::string, uint64_t> freq;
  for (const auto& group : plan->groups) {
    for (const auto& p : group.prefixes) freq[p.prefix] = p.frequency;
  }
  std::map<std::string, uint64_t> expected = {
      {"A", 1},  {"C", 2},  {"GA", 1},  {"GC", 2},  {"GG", 5},
      {"GT", 5}, {"TGA", 1}, {"TGC", 2}, {"TGG", 4}};
  EXPECT_EQ(freq, expected);

  // Terminal-only suffix is a direct trie leaf at position n = 23.
  ASSERT_EQ(plan->terminal_leaves.size(), 1u);
  EXPECT_EQ(plan->terminal_leaves[0].first, "");
  EXPECT_EQ(plan->terminal_leaves[0].second, 23u);

  // Every suffix is covered exactly once: sum of frequencies + leaves.
  uint64_t covered = 1;  // terminal leaf
  for (const auto& [p, f] : freq) covered += f;
  EXPECT_EQ(covered, 24u);
}

TEST_F(VerticalPartitionTest, AllFrequenciesRespectFm) {
  std::string text = testing::RandomText(Alphabet::Dna(), 20000, 3);
  for (uint64_t fm : {50ull, 200ull, 1000ull}) {
    auto plan = Partition(text, fm);
    ASSERT_TRUE(plan.ok());
    uint64_t covered = 0;
    for (const auto& group : plan->groups) {
      EXPECT_LE(group.total_frequency, fm);
      for (const auto& p : group.prefixes) {
        EXPECT_LE(p.frequency, fm);
        EXPECT_GT(p.frequency, 0u);
        covered += p.frequency;
      }
    }
    covered += plan->terminal_leaves.size();
    EXPECT_EQ(covered, text.size()) << "fm=" << fm;
  }
}

TEST_F(VerticalPartitionTest, SplitEmitsTerminalLeafForTailPrefix) {
  // Text ends with "AC" + terminal and "A" is frequent enough to split, so
  // suffix "AC~"... — rather, force a split of a prefix that is a suffix of
  // the body. Use "AAAA...AC" so prefix "A" splits and the tail "C" check
  // fires for prefix "C"? Build a targeted case: body "ACACACAC...AC" with
  // fm small: "AC" repeated; prefix A splits into AA(0), AC(k), AG, AT and
  // the suffix "C~" sits under prefix "C"; the tail occurrence of "AC" ends
  // at the terminal so when "AC" splits further, "AC~" becomes a leaf.
  std::string body;
  for (int i = 0; i < 32; ++i) body += "AC";
  auto plan = Partition(body + "~", 4);
  ASSERT_TRUE(plan.ok());
  // "AC...": frequency 32 > 4, splits repeatedly; eventually the suffix
  // "ACAC..~" tails produce terminal leaves for split prefixes.
  bool found_nonroot_leaf = false;
  for (const auto& [prefix, pos] : plan->terminal_leaves) {
    if (!prefix.empty()) {
      found_nonroot_leaf = true;
      // The leaf must indeed be the suffix prefix+terminal.
      EXPECT_EQ(body.substr(pos), prefix);
    }
  }
  EXPECT_TRUE(found_nonroot_leaf);
  // Coverage still exact.
  uint64_t covered = plan->terminal_leaves.size();
  for (const auto& group : plan->groups) covered += group.total_frequency;
  EXPECT_EQ(covered, body.size() + 1);
}

TEST_F(VerticalPartitionTest, FmOfOneTerminatesOnUnaryText) {
  // fm = 1 forces maximal prefix extension: on A^64 the only accepted
  // sub-tree is A^64 itself (frequency 1) and every shorter suffix A^k~
  // becomes a direct terminal leaf. The worst case is many rounds — it must
  // still terminate with exact coverage.
  std::string body(64, 'A');
  auto plan = Partition(body + "~", 1);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  uint64_t covered = plan->terminal_leaves.size();
  for (const auto& group : plan->groups) {
    EXPECT_LE(group.total_frequency, 1u);
    covered += group.total_frequency;
  }
  EXPECT_EQ(covered, 65u);
  EXPECT_EQ(plan->rounds, 64u);
}

// ---------------------------------------------------------------------------
// SubTreePrepare: the paper's worked example, literally (Traces 1-3).
// ---------------------------------------------------------------------------

class PaperTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(env_.WriteFile("/s", kPaperText).ok());
    reader_options_.buffer_bytes = 4096;
    auto reader = OpenStringReader(&env_, "/s", reader_options_, &stats_);
    ASSERT_TRUE(reader.ok());
    reader_ = std::move(*reader);
    group_.prefixes = {{"TG", 7}};
    group_.total_frequency = 7;
  }

  MemEnv env_;
  StringReaderOptions reader_options_;
  IoStats stats_;
  std::unique_ptr<StringReader> reader_;
  VirtualTree group_;
};

TEST_F(PaperTraceTest, TracesMatchThePaper) {
  GroupPreparer preparer(group_, RangePolicy::Fixed(4), reader_.get(),
                         std::strlen(kPaperText));
  std::vector<PrepareSnapshot> snapshots;
  preparer.SetObserver(
      [&](const PrepareSnapshot& s) { snapshots.push_back(s); });
  ASSERT_TRUE(preparer.Run().ok());

  ASSERT_EQ(snapshots.size(), 2u) << "the paper's example takes 2 iterations";

  // ---- After iteration 1 (the paper's Trace 2).
  const auto& t2 = snapshots[0].states[0];
  EXPECT_EQ(snapshots[0].range, 4u);
  EXPECT_EQ(t2.L, (std::vector<uint64_t>{14, 9, 20, 6, 17, 0, 3}));
  EXPECT_EQ(t2.P, (std::vector<uint64_t>{4, 3, 6, 2, 5, 0, 1}));
  EXPECT_EQ(t2.I, (std::vector<int64_t>{5, 6, 3, -1, -1, 4, -1}));
  // R (windows), post-sort: ATGG CGGT C~ GTGC GTGC GTGG GTGG.
  EXPECT_EQ(t2.R,
            (std::vector<std::string>{"ATGG", "CGGT", "C~", "GTGC", "GTGC",
                                      "GTGG", "GTGG"}));
  // B: (A,C,2) (G,~,3) (C,G,2) — — (C,G,5) —
  ASSERT_TRUE(t2.B[1].has_value());
  EXPECT_EQ(*t2.B[1], std::make_tuple('A', 'C', uint64_t{2}));
  ASSERT_TRUE(t2.B[2].has_value());
  EXPECT_EQ(*t2.B[2], std::make_tuple('G', '~', uint64_t{3}));
  ASSERT_TRUE(t2.B[3].has_value());
  EXPECT_EQ(*t2.B[3], std::make_tuple('C', 'G', uint64_t{2}));
  EXPECT_FALSE(t2.B[4].has_value());
  ASSERT_TRUE(t2.B[5].has_value());
  EXPECT_EQ(*t2.B[5], std::make_tuple('C', 'G', uint64_t{5}));
  EXPECT_FALSE(t2.B[6].has_value());
  // Active areas: {3,4} and {5,6}; slots 0-2 resolved.
  EXPECT_EQ(t2.area[0], -1);
  EXPECT_EQ(t2.area[1], -1);
  EXPECT_EQ(t2.area[2], -1);
  EXPECT_EQ(t2.area[3], t2.area[4]);
  EXPECT_EQ(t2.area[5], t2.area[6]);
  EXPECT_NE(t2.area[3], t2.area[5]);
  EXPECT_GT(t2.area[3], 0);

  // ---- After iteration 2 (the paper's Trace 3).
  const auto& t3 = snapshots[1].states[0];
  EXPECT_EQ(t3.L, (std::vector<uint64_t>{14, 9, 20, 6, 17, 3, 0}));
  // Note: the paper's Trace 3 prints P = [4,3,6,2,5,0,1], i.e. it does not
  // permute P in the final iteration even though Line 14 reorders R, P and
  // L together. With P permuted alongside L (as the algorithm specifies),
  // slots 5/6 carry appearance ranks 1/0 after leaves 3 and 0 swap. The
  // done-marking via I[P[i]] touches the same set either way, so the trees
  // are identical; we assert the self-consistent value.
  EXPECT_EQ(t3.P, (std::vector<uint64_t>{4, 3, 6, 2, 5, 1, 0}));
  EXPECT_EQ(t3.I, (std::vector<int64_t>{-1, -1, -1, -1, -1, -1, -1}));
  // Newly fetched windows: GGTG at slot 3, ~ at slot 4, TGCG/TGGT at 5/6.
  EXPECT_EQ(t3.R[3], "GGTG");
  EXPECT_EQ(t3.R[4], "~");
  EXPECT_EQ(t3.R[5], "TGCG");
  EXPECT_EQ(t3.R[6], "TGGT");
  ASSERT_TRUE(t3.B[4].has_value());
  EXPECT_EQ(*t3.B[4], std::make_tuple('G', '~', uint64_t{6}));
  ASSERT_TRUE(t3.B[6].has_value());
  EXPECT_EQ(*t3.B[6], std::make_tuple('C', 'G', uint64_t{8}));

  // ---- Final (L, B): Section 4.2.2's table for T_TG.
  auto& result = preparer.results()[0];
  EXPECT_EQ(result.leaves, (std::vector<uint64_t>{14, 9, 20, 6, 17, 3, 0}));
  std::vector<std::tuple<char, char, uint64_t>> expected_b = {
      {'A', 'C', 2}, {'G', '~', 3}, {'C', 'G', 2},
      {'G', '~', 6}, {'C', 'G', 5}, {'C', 'G', 8}};
  for (std::size_t i = 1; i < result.branches.size(); ++i) {
    ASSERT_TRUE(result.branches[i].defined);
    EXPECT_EQ(result.branches[i].c1, std::get<0>(expected_b[i - 1]));
    EXPECT_EQ(result.branches[i].c2, std::get<1>(expected_b[i - 1]));
    EXPECT_EQ(result.branches[i].offset, std::get<2>(expected_b[i - 1]));
  }
}

TEST_F(PaperTraceTest, BuildSubTreeProducesFigure5Tree) {
  GroupPreparer preparer(group_, RangePolicy::Fixed(4), reader_.get(),
                         std::strlen(kPaperText));
  ASSERT_TRUE(preparer.Run().ok());
  auto tree = BuildSubTree(preparer.results()[0], std::strlen(kPaperText));
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();

  std::string text = kPaperText;
  EXPECT_TRUE(ValidateSubTree(*tree, text, "TG").ok());
  EXPECT_EQ(CountLeaves(*tree), 7u);

  // Canonical form equals the oracle restricted to suffixes starting TG.
  SaLcp oracle = testing::OracleSaLcp(text);
  std::vector<uint64_t> tg_sa;
  std::vector<uint64_t> tg_lcp;
  for (std::size_t i = 0; i < oracle.sa.size(); ++i) {
    if (text.compare(oracle.sa[i], 2, "TG") == 0) {
      if (!tg_sa.empty()) tg_lcp.push_back(oracle.lcp[i - 1]);
      tg_sa.push_back(oracle.sa[i]);
    }
  }
  SaLcp canon = TreeToSaLcp(*tree);
  EXPECT_EQ(canon.sa, tg_sa);
  EXPECT_EQ(canon.lcp, tg_lcp);
}

TEST_F(PaperTraceTest, ElasticRangeGrowsAfterLeavesResolve) {
  // With R = 28 bytes, iteration 1 has 7 active leaves -> range 4; after
  // three leaves resolve, 4 remain -> range 7.
  GroupPreparer preparer(group_, RangePolicy::Elastic(28, 2, 64),
                         reader_.get(), std::strlen(kPaperText));
  std::vector<uint32_t> ranges;
  preparer.SetObserver(
      [&](const PrepareSnapshot& s) { ranges.push_back(s.range); });
  ASSERT_TRUE(preparer.Run().ok());
  ASSERT_GE(ranges.size(), 2u);
  EXPECT_EQ(ranges[0], 4u);
  EXPECT_EQ(ranges[1], 7u);
}

TEST_F(PaperTraceTest, EachRoundReadsTheTextOnce) {
  // Round 1's windows are copied out of the occurrence scan, so the
  // example's two rounds read S twice: the scan and round 2's fetch.
  GroupPreparer preparer(group_, RangePolicy::Fixed(4), reader_.get(),
                         std::strlen(kPaperText));
  ASSERT_TRUE(preparer.Run().ok());
  EXPECT_EQ(preparer.stats().rounds, 2u);
  EXPECT_EQ(stats_.scans_started, preparer.stats().rounds);
}

TEST(SubTreePrepareTest, EveryPrefixNeedsItsCountedFrequency) {
  MemEnv env;
  std::string text = testing::RandomText(Alphabet::Dna(), 3000, 29);
  // One prefix occurs once (no round-1 window) and one twice.
  text.insert(1000, "GATTACAG");
  text.insert(500, "TGCATGCA");
  text.insert(2500, "TGCATGCA");
  ASSERT_TRUE(env.WriteFile("/s", text).ok());
  const VirtualTree counted = testing::CountedGroup(
      text, {"A", "CC", "GATTACAG", "TGCATGCA", "TTT"});
  ASSERT_EQ(counted.prefixes[2].frequency, 1u);
  ASSERT_EQ(counted.prefixes[3].frequency, 2u);
  const RangePolicy policy = RangePolicy::Elastic(4 << 10, 4, 64);
  auto run = [&](const VirtualTree& group, IoStats* io) {
    auto reader = OpenStringReader(&env, "/s", {}, io);
    EXPECT_TRUE(reader.ok());
    GroupPreparer preparer(group, policy, reader->get(), text.size());
    return preparer.Run();
  };
  IoStats io;
  ASSERT_TRUE(run(counted, &io).ok());

  // An unknown (0) frequency is refused before S is read.
  for (std::size_t k = 0; k < counted.prefixes.size(); ++k) {
    VirtualTree group = counted;
    group.prefixes[k].frequency = 0;
    IoStats zero_io;
    Status s = run(group, &zero_io);
    EXPECT_TRUE(s.IsInvalidArgument()) << k << ": " << s.ToString();
    EXPECT_EQ(zero_io.scans_started, 0u);
  }
  // A count off by one either way fails the group after the scan. Round 1's
  // windows are laid out from these counts, so an over-counted prefix
  // leaves windows unfilled and an under-counted one has matches beyond
  // its slab: neither may write outside its own windows (the ASan build
  // runs this test).
  for (std::size_t k = 0; k < counted.prefixes.size(); ++k) {
    for (int delta : {-1, 1}) {
      VirtualTree group = counted;
      group.prefixes[k].frequency += delta;
      if (group.prefixes[k].frequency == 0) continue;
      IoStats off_io;
      Status s = run(group, &off_io);
      EXPECT_TRUE(s.IsInternal())
          << group.prefixes[k].prefix << " " << delta << ": " << s.ToString();
    }
  }
}

TEST(SubTreePrepareTest, SharedArenaIsReusedAcrossGroups) {
  // A builder worker hands one arena to all of its groups, and the
  // occurrence scan's refill buffer lives in it. Preparing a group again on
  // it grows nothing, and yields the same (L, B) as a private arena. The
  // group's second round spans several fetch slices.
  MemEnv env;
  std::string text = testing::RandomText(Alphabet::Dna(), 30000, 5);
  ASSERT_TRUE(env.WriteFile("/s", text).ok());
  const VirtualTree group = testing::CountedGroup(text, {"A", "CG", "T"});
  IoStats io;
  auto reader = OpenStringReader(&env, "/s", {}, &io);
  ASSERT_TRUE(reader.ok());
  const RangePolicy policy = RangePolicy::Elastic(64 << 10, 4, 256);

  PrepareScratch scratch;
  GroupPreparer first(group, policy, reader->get(), text.size(), &scratch);
  ASSERT_TRUE(first.Run().ok());
  const uint64_t grown = scratch.allocations();
  EXPECT_GT(grown, 0u);
  GroupPreparer again(group, policy, reader->get(), text.size(), &scratch);
  uint64_t second_round_leaves = 0;
  again.SetObserver([&](const PrepareSnapshot& snapshot) {
    if (snapshot.round != 1) return;
    for (const PrepareSnapshot::State& state : snapshot.states) {
      second_round_leaves += static_cast<uint64_t>(
          std::count_if(state.area.begin(), state.area.end(),
                        [](int64_t area) { return area > 0; }));
    }
  });
  ASSERT_TRUE(again.Run().ok());
  EXPECT_EQ(scratch.allocations(), grown);
  EXPECT_EQ(&again.scratch(), &scratch);
  EXPECT_GT(second_round_leaves, PrepareScratch::kFetchSlice);

  GroupPreparer alone(group, policy, reader->get(), text.size());
  ASSERT_TRUE(alone.Run().ok());
  EXPECT_EQ(alone.scratch().allocations(), grown);
  ASSERT_EQ(again.results().size(), alone.results().size());
  for (std::size_t k = 0; k < alone.results().size(); ++k) {
    const PreparedSubTree& got = again.results()[k];
    const PreparedSubTree& want = alone.results()[k];
    EXPECT_EQ(got.leaves, want.leaves);
    ASSERT_EQ(got.branches.size(), want.branches.size());
    for (std::size_t b = 0; b < want.branches.size(); ++b) {
      EXPECT_EQ(got.branches[b].offset, want.branches[b].offset);
      EXPECT_EQ(got.branches[b].c1, want.branches[b].c1);
      EXPECT_EQ(got.branches[b].c2, want.branches[b].c2);
      EXPECT_EQ(got.branches[b].defined, want.branches[b].defined);
    }
  }
  EXPECT_EQ(scratch.scan_chunk.size(), AhoCorasick::kScanChunk);
}

// ---------------------------------------------------------------------------
// BuildSubTree unit cases.
// ---------------------------------------------------------------------------

TEST(BuildSubTreeTest, SingleLeaf) {
  PreparedSubTree prepared;
  prepared.prefix = "G";
  prepared.leaves = {5};
  prepared.branches.resize(1);
  auto tree = BuildSubTree(prepared, 10);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->size(), 2u);
  EXPECT_EQ(tree->node(1).leaf_id, 5u);
  EXPECT_EQ(tree->node(1).edge_len, 5u);  // suffix of length 10-5
}

TEST(BuildSubTreeTest, EmptyFails) {
  PreparedSubTree prepared;
  auto tree = BuildSubTree(prepared, 10);
  EXPECT_FALSE(tree.ok());
}

TEST(BuildSubTreeTest, UndefinedBranchFails) {
  PreparedSubTree prepared;
  prepared.prefix = "A";
  prepared.leaves = {1, 2};
  prepared.branches.resize(2);  // branches[1] undefined
  auto tree = BuildSubTree(prepared, 10);
  EXPECT_FALSE(tree.ok());
  EXPECT_TRUE(tree.status().IsInternal());
}

}  // namespace
}  // namespace era
