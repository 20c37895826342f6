// Equivalence and allocation-freedom of the rewritten SubTreePrepare kernel.
//
// The radix/arena/batched-fetch GroupPreparer, which packs R's windows into
// WindowCode codes, must produce byte-identical (L, B) output to
// BaselineGroupPreparer (the checked-in pre-refactor code path, one byte per
// symbol) across alphabets of every code width, prefix counts, and range
// policies while reading the text once per round — and its scratch arena
// must stop allocating after the first round.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "alphabet/window_code.h"
#include "common/options.h"
#include "era/prepare_scratch.h"
#include "era/range_policy.h"
#include "era/subtree_prepare.h"
#include "era/subtree_prepare_baseline.h"
#include "io/mem_env.h"
#include "tests/test_util.h"

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

/// Two symbols: 2-bit codes.
Alphabet Binary() { return *Alphabet::Create("AB"); }

/// Every byte Alphabet::Create accepts ('!' .. '}', 93 symbols): 7-bit
/// codes.
Alphabet Widest() {
  std::string symbols;
  for (char c = '!'; c < kTerminal; ++c) symbols.push_back(c);
  return *Alphabet::Create(symbols);
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
/// Both read through readers with `reader_options`.
void ExpectSameAsBaseline(const std::string& text, const Alphabet& alphabet,
                          const VirtualTree& group, const RangePolicy& policy,
                          const StringReaderOptions& reader_options = {}) {
  MemEnv env;
  ASSERT_TRUE(env.WriteFile("/s", text).ok());
  IoStats new_io, old_io;
  auto new_reader = OpenStringReader(&env, "/s", reader_options, &new_io);
  auto old_reader = OpenStringReader(&env, "/s", reader_options, &old_io);
  ASSERT_TRUE(new_reader.ok());
  ASSERT_TRUE(old_reader.ok());

  GroupPreparer rewritten(group, policy, new_reader->get(), text.size(),
                          alphabet);
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
  ExpectSameAsBaseline(text, c.alphabet, group, c.policy);
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
  // Every code width: 2 bits (binary), 3 (DNA), 5 (protein, English) and
  // 7 (the widest alphabet).
  std::mt19937_64 rng(991);
  const Alphabet alphabets[] = {Binary(), Alphabet::Dna(), Alphabet::Protein(),
                                Alphabet::English(), Widest()};
  const uint32_t widths[] = {2, 3, 5, 5, 7};
  for (int round = 0; round < 15; ++round) {
    const Alphabet& alphabet = alphabets[round % 5];
    ASSERT_EQ(WindowCode(alphabet).bits(), widths[round % 5]);
    RangePolicy policy =
        rng() % 2 == 0
            ? RangePolicy::Fixed(2 + rng() % 40)
            : RangePolicy::Elastic(8ull << (10 + rng() % 4), 4,
                                   4u << (rng() % 8));
    PrepareCase c{alphabet,
                  2000 + rng() % 12000,
                  1 + rng() % 3,
                  1 + rng() % 64,
                  policy,
                  (rng() % 3) == 0,
                  rng()};
    SCOPED_TRACE("sweep round " + std::to_string(round) + ", alphabet of " +
                 std::to_string(alphabet.size()));
    RunEquivalenceCase(c);
  }
}

TEST(PrepareKernelEquivalence, WindowsAndKeysCrossWords) {
  // Windows are packed with no per-window rounding, so at these ranges
  // windows start at every bit offset of a word and span two or three
  // words, and sort keys (21 DNA or 12 protein symbols) end mid-window.
  for (uint32_t range : {20u, 22u, 43u}) {
    SCOPED_TRACE("range " + std::to_string(range));
    RunEquivalenceCase({Alphabet::Dna(), 12000, 2, 16,
                        RangePolicy::Fixed(range), /*repetitive=*/true,
                        17 + range});
    RunEquivalenceCase({Alphabet::Dna(), 12000, 3, 24,
                        RangePolicy::Fixed(range), /*repetitive=*/false,
                        18 + range});
    RunEquivalenceCase({Alphabet::Protein(), 12000, 1, 20,
                        RangePolicy::Fixed(range), /*repetitive=*/true,
                        19 + range});
  }
}

TEST(PrepareKernelTest, ByteOutsideTheAlphabetIsCorruption) {
  // Code 0 marks a window's end, so a byte without a code must fail the
  // group rather than pack as a short window. The prefix occurs twice,
  // and the 'N' lands in a round-1 window (range 8) or, with range 4,
  // past two equal round-1 windows in a round-2 window.
  const std::string prefix = "GATTACAGGTCA";
  std::string text = testing::RandomText(Alphabet::Dna(), 6000, 41);
  text.replace(1000, prefix.size() + 6, prefix + "CCGGTN");
  text.replace(4000, prefix.size() + 6, prefix + "CCGGTN");
  MemEnv env;
  ASSERT_TRUE(env.WriteFile("/s", text).ok());
  const VirtualTree group = testing::CountedGroup(text, {prefix});
  ASSERT_EQ(group.total_frequency, 2u);
  for (uint32_t range : {8u, 4u}) {
    SCOPED_TRACE("range " + std::to_string(range));
    IoStats io;
    auto reader = OpenStringReader(&env, "/s", {}, &io);
    ASSERT_TRUE(reader.ok());
    GroupPreparer preparer(group, RangePolicy::Fixed(range), reader->get(),
                           text.size(), Alphabet::Dna());
    std::vector<uint32_t> rounds;
    preparer.SetObserver(
        [&](const PrepareSnapshot& s) { rounds.push_back(s.round); });
    Status s = preparer.Run();
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    // Range 4 fails in round 2's fetch, after round 1 sorted.
    EXPECT_EQ(rounds.size(), range == 4 ? 1u : 0u);
  }
}

TEST(PrepareKernelTest, ElasticSlabHoldsAtMostRBytesPlusOneWord) {
  // The elastic range counts R in symbols of the text's code width, and
  // the slab packs them densely: no round holds more than R bytes plus
  // the word that lets a load start at any symbol.
  std::string text = testing::RandomText(Alphabet::Dna(), 30000, 43);
  MemEnv env;
  ASSERT_TRUE(env.WriteFile("/s", text).ok());
  const VirtualTree group = testing::CountedGroup(text, {"A", "CG", "T"});
  constexpr uint64_t kRBytes = 64 << 10;
  MemoryLayout layout;
  layout.r_buffer_bytes = kRBytes;
  layout.input_buffer_bytes = 1 << 20;
  const RangePolicy policy = RangePolicy::FromOptions(
      BuildOptions(), layout, WindowCode(Alphabet::Dna()).bits());
  IoStats io;
  auto reader = OpenStringReader(&env, "/s", {}, &io);
  ASSERT_TRUE(reader.ok());
  GroupPreparer preparer(group, policy, reader->get(), text.size(),
                         Alphabet::Dna());
  ASSERT_TRUE(preparer.Run().ok());
  ASSERT_GE(preparer.stats().rounds, 2u);
  const uint64_t slab_bytes =
      preparer.scratch().windows.size() * sizeof(uint64_t);
  EXPECT_LE(slab_bytes, kRBytes + sizeof(uint64_t));
  EXPECT_GT(slab_bytes, kRBytes / 2);  // the rounds did fill R
}

TEST(PrepareKernelEquivalence, RoundOneWindowsAcrossScanRefills) {
  // Round 1's windows are packed out of the occurrence scan, which walks
  // the reader's window in place. The planted string q sits right before
  // every refill boundary b, so its three 8-symbol substrings end at
  // b - 1, b - 2 and b - 3: one window starts exactly at b, two straddle
  // it, and "ATTG" ends where one of them does. q also ends two symbols
  // before the terminal, so the last windows are cut short by end-of-file.
  constexpr uint64_t kWindow = 64 << 10;
  StringReaderOptions reader_options;
  reader_options.buffer_bytes = kWindow;
  const std::string q = "ACGGTCATTG";
  std::string text =
      testing::RandomText(Alphabet::Dna(), 4 * kWindow + 5000, 37);
  const uint64_t terminal = text.size() - 1;
  for (uint64_t b = kWindow; b < terminal; b += kWindow) {
    text.replace(b - q.size(), q.size(), q);
  }
  text.replace(terminal - 2 - q.size(), q.size(), q);
  const std::vector<std::string> planted = {q.substr(0, 8), q.substr(1, 8),
                                            q.substr(2, 8)};
  for (uint64_t b = kWindow; b < terminal; b += kWindow) {
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
    ExpectSameAsBaseline(text, Alphabet::Dna(), group, policy,
                         reader_options);
  }
  // Windows longer than a refill are finished over two refills.
  SCOPED_TRACE("range longer than a refill");
  ExpectSameAsBaseline(text, Alphabet::Dna(),
                       testing::CountedGroup(text, planted),
                       RangePolicy::Fixed(kWindow + kWindow / 2),
                       reader_options);
}

TEST(PrepareScratchTest, SteadyStateRoundsDoNotAllocate) {
  PrepareScratch scratch;
  scratch.BeginRound(/*total_active=*/5000, /*range=*/16, /*bits=*/3,
                     /*max_area=*/5000);
  uint64_t after_first = scratch.allocations();
  EXPECT_GT(after_first, 0u);
  // Re-laying out rounds at or below the high-water mark is free.
  for (int round = 0; round < 50; ++round) {
    scratch.BeginRound(5000 - round * 50, 16, 3, 4000);
  }
  EXPECT_EQ(scratch.allocations(), after_first);
  // Growing any dimension allocates again...
  scratch.BeginRound(20000, 16, 3, 8000);
  EXPECT_GT(scratch.allocations(), after_first);
  uint64_t after_growth = scratch.allocations();
  // ...and the new high-water mark is again free to reuse.
  scratch.BeginRound(20000, 16, 3, 8000);
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
                         reader->get(), text.size(), Alphabet::Dna());
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
