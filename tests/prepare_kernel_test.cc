// Equivalence and allocation-freedom of the rewritten SubTreePrepare kernel.
//
// The radix/arena/batched-fetch GroupPreparer must produce byte-identical
// (L, B) output to BaselineGroupPreparer (the checked-in pre-refactor code
// path) across alphabets, prefix counts, and range policies while reading
// the text once per round — and its scratch arena must stop allocating
// after the first round.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "era/prepare_scratch.h"
#include "era/range_policy.h"
#include "era/subtree_prepare.h"
#include "era/subtree_prepare_baseline.h"
#include "io/mem_env.h"
#include "tests/test_util.h"
#include "text/aho_corasick.h"

namespace era {
namespace {

/// Draws `count` distinct k-mers that occur in `text` (appearance order).
std::vector<std::string> SamplePrefixes(const std::string& text,
                                        std::size_t k, std::size_t count,
                                        uint64_t seed) {
  std::set<std::string> pool;
  for (std::size_t i = 0; i + k < text.size(); ++i) {
    pool.insert(text.substr(i, k));
  }
  std::vector<std::string> all(pool.begin(), pool.end());
  std::mt19937_64 rng(seed);
  std::shuffle(all.begin(), all.end(), rng);
  all.resize(std::min(count, all.size()));
  return all;
}

struct PrepareCase {
  Alphabet alphabet;
  std::size_t text_len;
  std::size_t prefix_len;
  std::size_t prefix_count;
  RangePolicy policy;
  bool repetitive;
  uint64_t seed;
};

/// Prepares `group` over `text` with both preparers and expects identical
/// (L, B), rounds and fetched symbols — and one text pass per round from
/// the rewritten kernel, whose occurrence scan fills round 1's windows.
void ExpectSameAsBaseline(const std::string& text, const VirtualTree& group,
                          const RangePolicy& policy) {
  MemEnv env;
  ASSERT_TRUE(env.WriteFile("/s", text).ok());
  IoStats new_io, old_io;
  auto new_reader = OpenStringReader(&env, "/s", {}, &new_io);
  auto old_reader = OpenStringReader(&env, "/s", {}, &old_io);
  ASSERT_TRUE(new_reader.ok());
  ASSERT_TRUE(old_reader.ok());

  GroupPreparer rewritten(group, policy, new_reader->get(), text.size());
  BaselineGroupPreparer reference(group, policy, old_reader->get(),
                                  text.size());
  ASSERT_TRUE(rewritten.Run().ok());
  ASSERT_TRUE(reference.Run().ok());

  ASSERT_EQ(rewritten.results().size(), reference.results().size());
  EXPECT_EQ(rewritten.stats().rounds, reference.stats().rounds);
  EXPECT_EQ(rewritten.stats().symbols_fetched,
            reference.stats().symbols_fetched);
  EXPECT_EQ(new_io.scans_started,
            std::max<uint64_t>(rewritten.stats().rounds, 1));
  for (std::size_t i = 0; i < rewritten.results().size(); ++i) {
    const PreparedSubTree& got = rewritten.results()[i];
    const PreparedSubTree& want = reference.results()[i];
    EXPECT_EQ(got.prefix, want.prefix);
    ASSERT_EQ(got.leaves, want.leaves) << "prefix " << want.prefix;
    ASSERT_EQ(got.branches.size(), want.branches.size());
    for (std::size_t b = 0; b < got.branches.size(); ++b) {
      EXPECT_EQ(got.branches[b].defined, want.branches[b].defined)
          << want.prefix << " branch " << b;
      EXPECT_EQ(got.branches[b].offset, want.branches[b].offset)
          << want.prefix << " branch " << b;
      EXPECT_EQ(got.branches[b].c1, want.branches[b].c1)
          << want.prefix << " branch " << b;
      EXPECT_EQ(got.branches[b].c2, want.branches[b].c2)
          << want.prefix << " branch " << b;
    }
  }
}

void RunEquivalenceCase(const PrepareCase& c) {
  const std::string text =
      c.repetitive
          ? testing::RepetitiveText(c.alphabet, c.text_len, c.seed)
          : testing::RandomText(c.alphabet, c.text_len, c.seed);
  const VirtualTree group = testing::CountedGroup(
      text,
      SamplePrefixes(text, c.prefix_len, c.prefix_count, c.seed * 7 + 1));
  ASSERT_FALSE(group.prefixes.empty());
  ExpectSameAsBaseline(text, group, c.policy);
}

TEST(PrepareKernelEquivalence, DnaSinglePrefixFixedRange) {
  RunEquivalenceCase({Alphabet::Dna(), 4000, 2, 1, RangePolicy::Fixed(4),
                      /*repetitive=*/false, 11});
}

TEST(PrepareKernelEquivalence, DnaManyPrefixesElastic) {
  RunEquivalenceCase({Alphabet::Dna(), 20000, 2, 16,
                      RangePolicy::Elastic(64 << 10, 4, 512),
                      /*repetitive=*/false, 12});
}

TEST(PrepareKernelEquivalence, DnaRepetitiveDeepLcps) {
  // Long shared runs force full-key radix ties and the deep re-extraction
  // path (and, in the baseline, the memcmp fallback).
  RunEquivalenceCase({Alphabet::Dna(), 15000, 3, 24,
                      RangePolicy::Elastic(32 << 10, 4, 256),
                      /*repetitive=*/true, 13});
}

TEST(PrepareKernelEquivalence, ProteinWidePrefixSet) {
  RunEquivalenceCase({Alphabet::Protein(), 25000, 1, 20,
                      RangePolicy::Elastic(64 << 10, 8, 1024),
                      /*repetitive=*/false, 14});
}

TEST(PrepareKernelEquivalence, ProteinFixedWideRange) {
  RunEquivalenceCase({Alphabet::Protein(), 12000, 2, 64,
                      RangePolicy::Fixed(32), /*repetitive=*/false, 15});
}

TEST(PrepareKernelEquivalence, EnglishMixedFixedNarrowRange) {
  // range < 8: every key is zero-padded and areas resolve via the short-key
  // paths.
  RunEquivalenceCase({Alphabet::English(), 18000, 2, 32,
                      RangePolicy::Fixed(3), /*repetitive=*/false, 16});
}

TEST(PrepareKernelEquivalence, RandomizedSweep) {
  std::mt19937_64 rng(991);
  const Alphabet alphabets[] = {Alphabet::Dna(), Alphabet::Protein()};
  for (int round = 0; round < 12; ++round) {
    RangePolicy policy =
        rng() % 2 == 0
            ? RangePolicy::Fixed(2 + rng() % 40)
            : RangePolicy::Elastic(8ull << (10 + rng() % 4), 4,
                                   4u << (rng() % 8));
    PrepareCase c{alphabets[round % 2],
                  2000 + rng() % 12000,
                  1 + rng() % 3,
                  1 + rng() % 64,
                  policy,
                  (rng() % 3) == 0,
                  rng()};
    SCOPED_TRACE("sweep round " + std::to_string(round));
    RunEquivalenceCase(c);
  }
}

TEST(PrepareKernelEquivalence, RoundOneWindowsAcrossScanRefills) {
  // Round 1's windows are copied out of the occurrence scan's refills. The
  // planted string q sits right before every refill boundary b, so its
  // three 8-symbol substrings end at b - 1, b - 2 and b - 3: one window
  // starts exactly at b, two straddle it, and "ATTG" ends where one of
  // them does. q also ends two symbols before the terminal, so the last
  // windows are cut short by end-of-file.
  constexpr uint64_t kChunk = AhoCorasick::kScanChunk;
  const std::string q = "ACGGTCATTG";
  std::string text =
      testing::RandomText(Alphabet::Dna(), 4 * kChunk + 5000, 37);
  const uint64_t terminal = text.size() - 1;
  for (uint64_t b = kChunk; b < terminal; b += kChunk) {
    text.replace(b - q.size(), q.size(), q);
  }
  text.replace(terminal - 2 - q.size(), q.size(), q);
  const std::vector<std::string> planted = {q.substr(0, 8), q.substr(1, 8),
                                            q.substr(2, 8)};
  for (uint64_t b = kChunk; b < terminal; b += kChunk) {
    for (uint64_t gap = 1; gap <= 3; ++gap) {
      const std::string& p = planted[3 - gap];
      const std::vector<uint64_t> hits = testing::NaiveLocate(text, p);
      ASSERT_TRUE(std::binary_search(hits.begin(), hits.end(),
                                     b - gap + 1 - p.size()))
          << p << " before " << b;
    }
  }

  std::vector<std::string> prefixes = planted;
  for (const char* p : {"ATTG", "GCA", "TTA"}) prefixes.push_back(p);
  const VirtualTree group = testing::CountedGroup(text, prefixes);
  for (const RangePolicy& policy :
       {RangePolicy::Elastic(64 << 10, 4, 1024), RangePolicy::Fixed(4),
        RangePolicy::Fixed(16), RangePolicy::Fixed(64)}) {
    SCOPED_TRACE("range " + std::to_string(policy.NextRange(
                                group.total_frequency)));
    ExpectSameAsBaseline(text, group, policy);
  }
  // Windows longer than a refill are finished over two refills.
  SCOPED_TRACE("range longer than a refill");
  ExpectSameAsBaseline(text, testing::CountedGroup(text, planted),
                       RangePolicy::Fixed(kChunk + kChunk / 2));
}

TEST(PrepareScratchTest, SteadyStateRoundsDoNotAllocate) {
  PrepareScratch scratch;
  scratch.BeginRound(/*total_active=*/5000, /*range=*/16, /*max_area=*/5000);
  uint64_t after_first = scratch.allocations();
  EXPECT_GT(after_first, 0u);
  // Re-laying out rounds at or below the high-water mark is free.
  for (int round = 0; round < 50; ++round) {
    scratch.BeginRound(5000 - round * 50, 16, 4000);
  }
  EXPECT_EQ(scratch.allocations(), after_first);
  // Growing any dimension allocates again...
  scratch.BeginRound(20000, 16, 8000);
  EXPECT_GT(scratch.allocations(), after_first);
  uint64_t after_growth = scratch.allocations();
  // ...and the new high-water mark is again free to reuse.
  scratch.BeginRound(20000, 16, 8000);
  EXPECT_EQ(scratch.allocations(), after_growth);
}

TEST(PrepareScratchTest, PreparerStopsAllocatingAfterFirstRound) {
  // The acceptance proxy for "zero vector constructions in RunRound steady
  // state": the elastic range keeps active*range bounded by the R budget,
  // which round 2 reaches (round 1's product can sit slightly below it, so
  // the high-water mark may still move once); from round 2 on the arena
  // counter must freeze.
  // Repetitive text keeps areas alive for many rounds (deep LCPs).
  std::string text = testing::RepetitiveText(Alphabet::Dna(), 60000, 77);
  MemEnv env;
  ASSERT_TRUE(env.WriteFile("/s", text).ok());
  const VirtualTree group =
      testing::CountedGroup(text, SamplePrefixes(text, 2, 8, 5));
  IoStats io;
  auto reader = OpenStringReader(&env, "/s", {}, &io);
  ASSERT_TRUE(reader.ok());
  GroupPreparer preparer(group, RangePolicy::Elastic(64 << 10, 4, 256),
                         reader->get(), text.size());
  std::vector<uint64_t> allocations_per_round;
  preparer.SetObserver([&](const PrepareSnapshot&) {
    allocations_per_round.push_back(preparer.scratch().allocations());
  });
  ASSERT_TRUE(preparer.Run().ok());
  ASSERT_GE(allocations_per_round.size(), 3u);
  for (std::size_t r = 2; r < allocations_per_round.size(); ++r) {
    EXPECT_EQ(allocations_per_round[r], allocations_per_round[1])
        << "round " << r + 1 << " allocated";
  }
}

}  // namespace
}  // namespace era
