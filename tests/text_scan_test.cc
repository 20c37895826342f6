// Aho-Corasick matcher, CRC-32C, and options plumbing.

#include "text/aho_corasick.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <span>

#include "common/crc32.h"
#include "common/options.h"
#include "io/mem_env.h"
#include "tests/test_util.h"

namespace era {
namespace {

/// Brute-force pattern match oracle.
std::vector<std::pair<int32_t, uint64_t>> NaiveMatches(
    const std::string& text, const std::vector<std::string>& patterns) {
  std::vector<std::pair<int32_t, uint64_t>> out;
  for (std::size_t id = 0; id < patterns.size(); ++id) {
    std::size_t pos = text.find(patterns[id]);
    while (pos != std::string::npos) {
      out.emplace_back(static_cast<int32_t>(id), pos);
      pos = text.find(patterns[id], pos + 1);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second < b.second
                                          : a.first < b.first;
            });
  return out;
}

std::vector<std::pair<int32_t, uint64_t>> AcMatches(
    const std::string& text, const std::vector<std::string>& patterns) {
  auto ac = AhoCorasick::Build(patterns);
  EXPECT_TRUE(ac.ok());
  std::vector<std::pair<int32_t, uint64_t>> out;
  ac->Reset();
  for (std::size_t i = 0; i < text.size(); ++i) {
    ac->Step(text[i], i,
             [&](int32_t id, uint64_t pos) { out.emplace_back(id, pos); });
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second < b.second
                                          : a.first < b.first;
            });
  return out;
}

TEST(AhoCorasickTest, SimplePatterns) {
  std::string text = "ABCABCDABX";
  std::vector<std::string> patterns = {"ABC", "BCD", "X"};
  EXPECT_EQ(AcMatches(text, patterns), NaiveMatches(text, patterns));
}

TEST(AhoCorasickTest, OverlappingAndNestedPatterns) {
  std::string text = "AAAAAA";
  std::vector<std::string> patterns = {"A", "AA", "AAA"};
  EXPECT_EQ(AcMatches(text, patterns), NaiveMatches(text, patterns));
}

TEST(AhoCorasickTest, PatternIsSuffixOfAnother) {
  std::string text = "GTGCGTGG";
  std::vector<std::string> patterns = {"GTG", "TG", "G"};
  EXPECT_EQ(AcMatches(text, patterns), NaiveMatches(text, patterns));
}

TEST(AhoCorasickTest, DuplicatePatternsBothFire) {
  std::string text = "XYXY";
  std::vector<std::string> patterns = {"XY", "XY"};
  auto matches = AcMatches(text, patterns);
  EXPECT_EQ(matches.size(), 4u);  // 2 occurrences x 2 pattern ids
}

TEST(AhoCorasickTest, EmptyPatternRejected) {
  EXPECT_FALSE(AhoCorasick::Build({"A", ""}).ok());
}

/// Every DNA string of length `k`.
std::vector<std::string> AllDnaKmers(int k) {
  std::vector<std::string> kmers = {""};
  for (int i = 0; i < k; ++i) {
    std::vector<std::string> longer;
    for (const std::string& p : kmers) {
      for (char c : {'A', 'C', 'G', 'T'}) longer.push_back(p + c);
    }
    kmers = std::move(longer);
  }
  return kmers;
}

/// Pattern sets drawn from `text` (its body, never the terminal): random
/// substrings of mixed lengths 1-8, which nest and overlap, and one string's
/// prefixes and suffixes, each nested in the next.
std::vector<std::vector<std::string>> SampledPatternSets(
    const std::string& text, uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::size_t body = text.size() - 1;
  std::vector<std::string> mixed;
  for (int i = 0; i < 12; ++i) {
    const std::size_t len = 1 + rng() % 8;
    mixed.push_back(text.substr(rng() % (body - len), len));
  }
  const std::string s = text.substr(rng() % (body - 8), 8);
  std::vector<std::string> nested;
  for (std::size_t k = 1; k <= s.size(); ++k) {
    nested.push_back(s.substr(0, k));
    nested.push_back(s.substr(s.size() - k));
  }
  return {mixed, nested};
}

/// Overwrites a few text bytes with bytes that occur in no pattern (NUL and
/// 0xFF; the terminal already ends the text).
void AddStrayBytes(std::string* text) {
  (*text)[text->size() / 7] = '\0';
  (*text)[text->size() / 3] = '\xFF';
  (*text)[text->size() / 3 + 1] = '\0';
}

TEST(AhoCorasickTest, RandomTextsMatchOracle) {
  for (const Alphabet& alphabet :
       {Alphabet::Dna(), Alphabet::Protein(), Alphabet::English()}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      std::string text = testing::RandomText(alphabet, 5000, seed);
      std::vector<std::vector<std::string>> sets =
          SampledPatternSets(text, seed);
      if (alphabet.size() == 4) {
        sets.push_back({"A", "ACG", "TTT", "GTGC", "CATG", "GGGGG"});
        sets.push_back(AllDnaKmers(5));
      }
      AddStrayBytes(&text);
      for (const std::vector<std::string>& patterns : sets) {
        EXPECT_EQ(AcMatches(text, patterns), NaiveMatches(text, patterns))
            << "alphabet size " << alphabet.size() << " seed " << seed
            << " first pattern '" << patterns[0] << "'";
      }
    }
  }
}

TEST(AhoCorasickTest, ScanAllStreamsWholeFile) {
  // The scan walks the reader's window in place, so its refills fall at
  // multiples of the window size.
  constexpr uint64_t kWindow = 64 << 10;
  std::string text = testing::RandomText(Alphabet::Dna(), 200000, 9);
  // Planted patterns straddle the first two refill boundaries.
  const std::string straddle1 = text.substr(kWindow - 3, 7);
  const std::string straddle2 = text.substr(2 * kWindow - 1, 2);
  std::vector<std::vector<std::string>> sets = SampledPatternSets(text, 9);
  const std::size_t planted = sets.size();
  sets.push_back({"ACGT", "TTAA", straddle1, straddle2});
  sets.push_back(AllDnaKmers(5));
  AddStrayBytes(&text);
  MemEnv env;
  ASSERT_TRUE(env.WriteFile("/s", text).ok());
  StringReaderOptions options;
  options.buffer_bytes = kWindow;

  for (std::size_t set = 0; set < sets.size(); ++set) {
    const std::vector<std::string>& patterns = sets[set];
    auto ac = AhoCorasick::Build(patterns);
    ASSERT_TRUE(ac.ok());
    IoStats stats;
    auto reader = OpenStringReader(&env, "/s", options, &stats);
    ASSERT_TRUE(reader.ok());
    std::vector<std::pair<int32_t, uint64_t>> matches;
    // Every refill is announced before its matches, holds the next text
    // bytes in the reader's own window (no copy), and the refills tile the
    // file.
    uint64_t scanned = 0;
    const char* window = nullptr;
    ASSERT_TRUE(ac->ScanAll(
                      reader->get(),
                      [&](int32_t id, uint64_t pos) {
                        EXPECT_LT(pos + ac->pattern(id).size() - 1, scanned);
                        matches.emplace_back(id, pos);
                      },
                      [&](uint64_t begin, std::span<const char> bytes) {
                        EXPECT_EQ(begin, scanned);
                        EXPECT_EQ(bytes.size(),
                                  std::min<uint64_t>(kWindow,
                                                     text.size() - begin));
                        if (window == nullptr) window = bytes.data();
                        EXPECT_EQ(bytes.data(), window);
                        EXPECT_EQ(std::string(bytes.begin(), bytes.end()),
                                  text.substr(begin, bytes.size()));
                        scanned += bytes.size();
                      })
                    .ok());
    EXPECT_EQ(scanned, text.size());
    std::sort(matches.begin(), matches.end(),
              [](const auto& a, const auto& b) {
                return a.second != b.second ? a.second < b.second
                                            : a.first < b.first;
              });
    EXPECT_EQ(matches, NaiveMatches(text, patterns))
        << "first pattern '" << patterns[0] << "'";
    EXPECT_GE(stats.bytes_read, text.size());
    EXPECT_EQ(stats.scans_started, 1u);
    if (set == planted) {
      EXPECT_NE(std::find(matches.begin(), matches.end(),
                          std::make_pair(int32_t{2}, kWindow - 3)),
                matches.end());
      EXPECT_NE(std::find(matches.begin(), matches.end(),
                          std::make_pair(int32_t{3}, 2 * kWindow - 1)),
                matches.end());
    }
  }
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  std::string data = testing::RandomText(Alphabet::Dna(), 1000, 3);
  uint32_t crc = Crc32c(data.data(), data.size());
  data[500] = static_cast<char>(data[500] ^ 1);
  EXPECT_NE(Crc32c(data.data(), data.size()), crc);
}

TEST(OptionsTest, ValidationCatchesBadConfigs) {
  BuildOptions options;
  options.work_dir = "/w";
  EXPECT_TRUE(ValidateBuildOptions(options).ok());

  BuildOptions no_dir = options;
  no_dir.work_dir = "";
  EXPECT_FALSE(ValidateBuildOptions(no_dir).ok());

  BuildOptions tiny = options;
  tiny.memory_budget = 1024;
  EXPECT_FALSE(ValidateBuildOptions(tiny).ok());

  BuildOptions bad_fixed = options;
  bad_fixed.range_policy = RangePolicyKind::kFixed;
  bad_fixed.fixed_range = 0;
  EXPECT_FALSE(ValidateBuildOptions(bad_fixed).ok());

  BuildOptions small_input = options;
  small_input.input_buffer_bytes = 100;
  EXPECT_FALSE(ValidateBuildOptions(small_input).ok());
}

TEST(OptionsTest, RBufferAutoSizing) {
  BuildOptions options;
  options.work_dir = "/w";
  options.memory_budget = 64 << 20;
  // DNA-sized alphabets get a smaller R than protein-sized ones when the
  // auto rule hits the clamps.
  options.memory_budget = 1 << 20;
  uint64_t dna = ResolveRBufferBytes(options, 4);
  uint64_t protein = ResolveRBufferBytes(options, 20);
  EXPECT_LE(dna, protein);
  // Explicit value wins.
  options.r_buffer_bytes = 12345;
  EXPECT_EQ(ResolveRBufferBytes(options, 4), 12345u);
}

}  // namespace
}  // namespace era
