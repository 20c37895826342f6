// Shared-descent dictionary matching (QueryEngine::MatchDictionary) against
// the per-pattern oracle loop and the Aho-Corasick streaming baseline, the
// duplicate-folding regression pins, doc-level dictionary counting, and
// mid-dictionary cancellation. The concurrency case runs under the
// ThreadSanitizer CI job.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "collection/collection_builder.h"
#include "collection/doc_engine.h"
#include "era/parallel_builder.h"
#include "io/faulty_env.h"
#include "io/latency_env.h"
#include "io/mem_env.h"
#include "io/string_reader.h"
#include "query/query_engine.h"
#include "query/query_workload.h"
#include "tests/test_util.h"
#include "text/aho_corasick.h"

namespace era {
namespace {

BuildOptions SmallBuildOptions(Env* env, const std::string& dir) {
  BuildOptions options;
  options.env = env;
  options.work_dir = dir;
  options.memory_budget = 256 << 10;  // force several sub-trees
  options.input_buffer_bytes = 4096;
  return options;
}

/// The oracle: the per-pattern Count/Locate loop MatchDictionary must be
/// byte-identical to.
std::vector<DictOutcome> PerPatternLoop(QueryEngine* engine,
                                        const std::vector<std::string>& patterns,
                                        const DictMatchOptions& options) {
  std::vector<DictOutcome> out(patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    auto count = engine->Count(patterns[i]);
    if (!count.ok()) {
      out[i].status = count.status();
      continue;
    }
    out[i].count = *count;
    if (options.locate) {
      auto hits = engine->Locate(patterns[i], options.locate_limit);
      if (!hits.ok()) {
        out[i].status = hits.status();
        out[i].count = 0;
        continue;
      }
      out[i].offsets = std::move(*hits);
    }
  }
  return out;
}

void ExpectSameOutcomes(const std::vector<DictOutcome>& got,
                        const std::vector<DictOutcome>& expected,
                        const std::vector<std::string>& patterns) {
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].status.code(), expected[i].status.code())
        << "item " << i << " pattern: " << patterns[i] << " got "
        << got[i].status.ToString() << " want "
        << expected[i].status.ToString();
    EXPECT_EQ(got[i].count, expected[i].count)
        << "item " << i << " pattern: " << patterns[i];
    EXPECT_EQ(got[i].offsets, expected[i].offsets)
        << "item " << i << " pattern: " << patterns[i];
  }
}

// ---------------------------------------------------------------------------
// Randomized equivalence: every alphabet, dictionary sizes from one pattern
// to thousands, count and locate modes.
// ---------------------------------------------------------------------------

TEST(DictMatcherEquivalence, MatchesPerPatternLoopAcrossAlphabets) {
  const Alphabet alphabets[] = {Alphabet::Dna(), Alphabet::Protein(),
                                Alphabet::English()};
  for (const Alphabet& alphabet : alphabets) {
    MemEnv env;
    const std::string text = testing::RepetitiveText(alphabet, 6000, 29);
    auto info = MaterializeText(&env, "/text", alphabet, text);
    ASSERT_TRUE(info.ok());
    ParallelBuilder builder(SmallBuildOptions(&env, "/idx"), 1);
    auto result = builder.Build(*info);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto engine = QueryEngine::Open(&env, "/idx");
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    for (std::size_t num_patterns : {1u, 7u, 300u, 2000u}) {
      DictWorkloadOptions workload;
      workload.num_patterns = num_patterns;
      workload.num_prefix_groups = 8;
      workload.prefix_len = 6;
      workload.min_len = 3;
      workload.max_len = 20;
      workload.seed = 100 + num_patterns;
      const std::vector<std::string> patterns =
          SampleDictionaryWorkload(text, workload);
      ASSERT_EQ(patterns.size(), num_patterns);

      DictMatchOptions count_mode;
      auto counted = (*engine)->MatchDictionary(patterns, count_mode);
      ASSERT_TRUE(counted.ok()) << counted.status().ToString();
      ExpectSameOutcomes(*counted,
                         PerPatternLoop(engine->get(), patterns, count_mode),
                         patterns);

      DictMatchOptions locate_mode;
      locate_mode.locate = true;
      locate_mode.locate_limit = 13;
      auto located = (*engine)->MatchDictionary(patterns, locate_mode);
      ASSERT_TRUE(located.ok()) << located.status().ToString();
      ExpectSameOutcomes(
          *located, PerPatternLoop(engine->get(), patterns, locate_mode),
          patterns);
    }
  }
}

TEST(DictMatcherEquivalence, AhoCorasickStreamingBaselineAgreesOnCounts) {
  MemEnv env;
  const std::string text = testing::RepetitiveText(Alphabet::Dna(), 8000, 53);
  auto info = MaterializeText(&env, "/text", Alphabet::Dna(), text);
  ASSERT_TRUE(info.ok());
  ParallelBuilder builder(SmallBuildOptions(&env, "/idx"), 1);
  ASSERT_TRUE(builder.Build(*info).ok());
  auto engine = QueryEngine::Open(&env, "/idx");
  ASSERT_TRUE(engine.ok());

  DictWorkloadOptions workload;
  workload.num_patterns = 500;
  workload.prefix_len = 5;
  workload.min_len = 2;
  workload.max_len = 16;
  workload.seed = 9;
  const std::vector<std::string> patterns =
      SampleDictionaryWorkload(text, workload);

  // Stream the text through the automaton once; duplicates fire per id, so
  // the per-id tallies line up with the per-item dictionary outcomes.
  auto matcher = AhoCorasick::Build(patterns);
  ASSERT_TRUE(matcher.ok()) << matcher.status().ToString();
  IoStats io;
  auto reader = OpenStringReader(&env, "/text", {}, &io);
  ASSERT_TRUE(reader.ok());
  std::vector<uint64_t> ac_counts(patterns.size(), 0);
  ASSERT_TRUE(matcher
                  ->ScanAll(reader->get(),
                            [&](int32_t id, uint64_t) {
                              ++ac_counts[static_cast<std::size_t>(id)];
                            })
                  .ok());

  auto outcomes = (*engine)->MatchDictionary(patterns);
  ASSERT_TRUE(outcomes.ok());
  ASSERT_EQ(outcomes->size(), patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    ASSERT_TRUE((*outcomes)[i].status.ok())
        << (*outcomes)[i].status.ToString();
    EXPECT_EQ((*outcomes)[i].count, ac_counts[i])
        << "pattern: " << patterns[i];
  }
}

TEST(DictMatcherEquivalence, DescentReadsTextOnlyForEdgeLabels) {
  // Range narrowing at each node compares stored first symbols; the text is
  // read only to compare labels past an edge's first symbol, so device
  // refills of the text stay within the label fetches, and the answers stay
  // identical to the per-pattern loop.
  MemEnv mem;
  const std::string text = testing::RepetitiveText(Alphabet::Dna(), 8000, 61);
  auto info = MaterializeText(&mem, "/text", Alphabet::Dna(), text);
  ASSERT_TRUE(info.ok());
  ParallelBuilder builder(SmallBuildOptions(&mem, "/idx"), 1);
  ASSERT_TRUE(builder.Build(*info).ok());
  FaultSpec spec;
  spec.path_filter = "/text";  // count text reads only
  FaultyEnv counting(&mem, spec);
  auto engine = QueryEngine::Open(&counting, "/idx");
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  DictWorkloadOptions workload;
  workload.num_patterns = 400;
  workload.seed = 5;
  const std::vector<std::string> patterns =
      SampleDictionaryWorkload(text, workload);
  const uint64_t reads_before = counting.stats().reads;
  auto outcomes = (*engine)->MatchDictionary(patterns);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  const uint64_t reads = counting.stats().reads - reads_before;
  const QueryStats stats = (*engine)->stats();
  EXPECT_GT(stats.label_fetches, 0u);
  EXPECT_LE(reads, stats.label_fetches);
  ExpectSameOutcomes(
      *outcomes, PerPatternLoop(engine->get(), patterns, DictMatchOptions{}),
      patterns);
}

// ---------------------------------------------------------------------------
// Routing edge paths: trie-resolved shorts, misses, empty patterns.
// ---------------------------------------------------------------------------

class DictMatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    text_ = testing::RepetitiveText(Alphabet::Dna(), 8000, 71);
    auto info = MaterializeText(&env_, "/text", Alphabet::Dna(), text_);
    ASSERT_TRUE(info.ok());
    ParallelBuilder builder(SmallBuildOptions(&env_, "/idx"), 1);
    auto result = builder.Build(*info);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto engine = QueryEngine::Open(&env_, "/idx");
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(*engine);
  }

  MemEnv env_;
  std::string text_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(DictMatcherTest, TrieResolvedMissingAndEmptyPatterns) {
  std::string almost = text_.substr(1000, 20);
  almost.back() = almost.back() == 'A' ? 'C' : 'A';
  const std::vector<std::string> patterns = {
      "",                                   // per-item InvalidArgument
      "A",                                  // trie-resolved
      "C",
      "AC",
      "ACGTACGTACGTACGTACGTACGTACGTACGT",   // almost surely absent
      text_.substr(10, 12),
      almost,                               // diverges in its last symbol
      "A",                                  // duplicate of a trie pattern
      "",                                   // duplicate empty
      text_.substr(7000),                   // full suffix incl. terminal
  };
  for (bool locate : {false, true}) {
    DictMatchOptions options;
    options.locate = locate;
    options.locate_limit = 7;
    auto outcomes = engine_->MatchDictionary(patterns, options);
    ASSERT_TRUE(outcomes.ok());
    ExpectSameOutcomes(*outcomes,
                       PerPatternLoop(engine_.get(), patterns, options),
                       patterns);
    EXPECT_TRUE((*outcomes)[0].status.IsInvalidArgument());
    EXPECT_TRUE((*outcomes)[8].status.IsInvalidArgument());
  }
}

// ---------------------------------------------------------------------------
// Duplicate folding: duplicated items must not add tree work.
// ---------------------------------------------------------------------------

TEST_F(DictMatcherTest, BatchDuplicatesFoldWithoutExtraTreeWork) {
  // Distinct patterns only (the repetitive text makes naive substring picks
  // collide, which would skew the fold accounting below).
  std::vector<std::string> unique;
  for (std::size_t i = 0; unique.size() < 40 && i * 97 + 17 < text_.size();
       ++i) {
    std::string pattern = text_.substr(i * 97, 8 + i % 9);
    if (std::find(unique.begin(), unique.end(), pattern) == unique.end()) {
      unique.push_back(std::move(pattern));
    }
  }
  ASSERT_EQ(unique.size(), 40u);
  std::vector<std::string> duplicated;
  for (std::size_t i = 0; i < unique.size() * 5; ++i) {
    duplicated.push_back(unique[i % unique.size()]);
  }
  const uint64_t expected_folds = duplicated.size() - unique.size();

  // Duplicated items fold before routing, so the duplicated dictionary must
  // cost exactly the unique one's tree work (the regression this test
  // pins): descents, child probes and leaf enumeration all match.
  DictMatchOptions locate_mode;
  locate_mode.locate = true;
  locate_mode.locate_limit = 10;
  const QueryStats before = engine_->stats();
  auto unique_dict = engine_->MatchDictionary(unique, locate_mode);
  ASSERT_TRUE(unique_dict.ok());
  const QueryStats mid = engine_->stats();
  auto dup_dict = engine_->MatchDictionary(duplicated, locate_mode);
  ASSERT_TRUE(dup_dict.ok());
  const QueryStats after = engine_->stats();
  EXPECT_EQ(after.dict_descents_shared - mid.dict_descents_shared,
            mid.dict_descents_shared - before.dict_descents_shared);
  EXPECT_EQ(after.nodes_visited - mid.nodes_visited,
            mid.nodes_visited - before.nodes_visited);
  EXPECT_EQ(after.leaves_enumerated - mid.leaves_enumerated,
            mid.leaves_enumerated - before.leaves_enumerated);
  EXPECT_EQ(after.batch_duplicates_folded - mid.batch_duplicates_folded,
            expected_folds);
  EXPECT_EQ(after.dict_groups_formed - mid.dict_groups_formed,
            mid.dict_groups_formed - before.dict_groups_formed);
  for (std::size_t i = 0; i < duplicated.size(); ++i) {
    EXPECT_EQ((*dup_dict)[i].count, (*unique_dict)[i % unique.size()].count);
    EXPECT_EQ((*dup_dict)[i].offsets,
              (*unique_dict)[i % unique.size()].offsets);
  }
}

TEST_F(DictMatcherTest, SharedPrefixesShareDescents) {
  // Patterns extending one anchor share their prefix descent: the saved
  // counter must light up, and the whole dictionary must route to few
  // groups (one per touched sub-tree, not one per pattern).
  std::vector<std::string> patterns;
  for (std::size_t len = 6; len < 26; ++len) {
    patterns.push_back(text_.substr(500, len));
  }
  const QueryStats before = engine_->stats();
  auto outcomes = engine_->MatchDictionary(patterns);
  ASSERT_TRUE(outcomes.ok());
  const QueryStats after = engine_->stats();
  EXPECT_GT(after.dict_descents_saved, before.dict_descents_saved);
  // All 20 patterns extend one 6-symbol anchor, so they route to one
  // sub-tree and form one group.
  EXPECT_EQ(after.dict_groups_formed - before.dict_groups_formed, 1u);
  ExpectSameOutcomes(*outcomes,
                     PerPatternLoop(engine_.get(), patterns, {}), patterns);
}

// ---------------------------------------------------------------------------
// Doc-level dictionary counting.
// ---------------------------------------------------------------------------

TEST(DictMatcherDocTest, CountDocsDictionaryMatchesPerPatternCountDocs) {
  MemEnv env;
  CollectionBuildOptions options;
  options.build.env = &env;
  options.build.work_dir = "/coll";
  options.build.memory_budget = 512 << 10;
  options.build.input_buffer_bytes = 4096;
  CollectionBuilder builder(Alphabet::Dna(), options);
  ASSERT_TRUE(builder.AddSyntheticDocuments(12, 2048, 5).ok());
  ASSERT_TRUE(builder.Build().ok());
  auto doc_engine = DocEngine::Open(&env, "/coll");
  ASSERT_TRUE(doc_engine.ok()) << doc_engine.status().ToString();

  std::string text;
  ASSERT_TRUE(
      env.ReadFileToString((*doc_engine)->engine().index().text().path, &text)
          .ok());
  DictWorkloadOptions workload;
  workload.num_patterns = 300;
  workload.prefix_len = 5;
  workload.min_len = 3;
  workload.max_len = 14;
  workload.seed = 17;
  std::vector<std::string> patterns = SampleDictionaryWorkload(text, workload);
  patterns.push_back("AC|GT");  // crosses a separator: InvalidArgument
  patterns.push_back("");

  auto outcomes = (*doc_engine)->CountDocsDictionary(patterns);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes->size(), patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    auto expected = (*doc_engine)->CountDocs(patterns[i]);
    if (!expected.ok()) {
      EXPECT_EQ((*outcomes)[i].status.code(), expected.status().code())
          << "pattern: " << patterns[i];
      continue;
    }
    ASSERT_TRUE((*outcomes)[i].status.ok())
        << (*outcomes)[i].status.ToString();
    EXPECT_EQ((*outcomes)[i].count, *expected) << "pattern: " << patterns[i];
  }
}

// ---------------------------------------------------------------------------
// Mid-dictionary cancellation and concurrent dictionaries.
// ---------------------------------------------------------------------------

TEST(DictMatcherServingTest, MidDictionaryCancellationLeavesEngineReusable) {
  MemEnv env;
  const std::string text = testing::RepetitiveText(Alphabet::Dna(), 12000, 47);
  auto info = MaterializeText(&env, "/text", Alphabet::Dna(), text);
  ASSERT_TRUE(info.ok());
  ParallelBuilder builder(SmallBuildOptions(&env, "/idx"), 1);
  ASSERT_TRUE(builder.Build(*info).ok());

  // ~1ms of device time per request and an all-straggler dictionary (no
  // shared anchors to amortize): the run takes hundreds of milliseconds, so
  // a cancel fired at 50ms lands mid-flight.
  LatencyModel model;
  model.read_latency_seconds = 0.001;
  model.queue_depth = 2;
  LatencyEnv slow_env(&env, model);
  QueryEngineOptions engine_options;
  engine_options.cache.budget_bytes = 64 << 10;
  auto slow = QueryEngine::Open(&slow_env, "/idx", engine_options);
  ASSERT_TRUE(slow.ok());
  auto fast = QueryEngine::Open(&env, "/idx");
  ASSERT_TRUE(fast.ok());

  DictWorkloadOptions workload;
  workload.num_patterns = 600;
  workload.duplicate_fraction = 0;
  workload.straggler_fraction = 1.0;
  workload.mutant_fraction = 0.3;
  workload.min_len = 6;
  workload.max_len = 24;
  workload.seed = 3;
  const std::vector<std::string> patterns =
      SampleDictionaryWorkload(text, workload);
  DictMatchOptions options;
  options.locate = true;
  options.locate_limit = 25;
  const std::vector<DictOutcome> expected =
      PerPatternLoop(fast->get(), patterns, options);

  QueryContext ctx;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ctx.cancel.Cancel();
  });
  auto outcomes = (*slow)->MatchDictionary(ctx, patterns, options);
  canceller.join();
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes->size(), patterns.size());

  // The dictionary is processed in sorted-unique order, so the cancelled
  // items are not a contiguous tail of the ORIGINAL order; the contract is
  // per item: either Cancelled, or the full correct answer.
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < outcomes->size(); ++i) {
    const DictOutcome& outcome = (*outcomes)[i];
    if (outcome.status.IsCancelled()) {
      ++cancelled;
      EXPECT_EQ(outcome.count, 0u);
      EXPECT_TRUE(outcome.offsets.empty());
      continue;
    }
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_EQ(outcome.count, expected[i].count) << "item " << i;
    EXPECT_EQ(outcome.offsets, expected[i].offsets) << "item " << i;
  }
  EXPECT_GT(cancelled, 0u) << "cancellation landed too late to observe";
  EXPECT_GE((*slow)->serving().cancelled, 1u);

  // The engine must be fully reusable afterwards (lease returned, no state
  // left behind): a fresh context-free run answers everything.
  auto again = (*slow)->MatchDictionary(patterns, options);
  ASSERT_TRUE(again.ok());
  ExpectSameOutcomes(*again, expected, patterns);
}

TEST(DictMatcherConcurrencyTest, ParallelDictionariesReturnIdenticalOutcomes) {
  MemEnv env;
  const std::string text = testing::RepetitiveText(Alphabet::Dna(), 8000, 13);
  auto info = MaterializeText(&env, "/text", Alphabet::Dna(), text);
  ASSERT_TRUE(info.ok());
  ParallelBuilder builder(SmallBuildOptions(&env, "/idx"), 1);
  ASSERT_TRUE(builder.Build(*info).ok());
  QueryEngineOptions engine_options;
  engine_options.cache.budget_bytes = 128 << 10;  // keep evictions happening
  auto engine = QueryEngine::Open(&env, "/idx", engine_options);
  ASSERT_TRUE(engine.ok());

  DictWorkloadOptions workload;
  workload.num_patterns = 400;
  workload.seed = 21;
  const std::vector<std::string> patterns =
      SampleDictionaryWorkload(text, workload);
  DictMatchOptions locate_mode;
  locate_mode.locate = true;
  locate_mode.locate_limit = 9;
  const std::vector<DictOutcome> expected_counts =
      PerPatternLoop(engine->get(), patterns, {});
  const std::vector<DictOutcome> expected_hits =
      PerPatternLoop(engine->get(), patterns, locate_mode);

  constexpr unsigned kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<Status> failures(kThreads, Status::OK());
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const bool locate = t % 2 == 1;
      auto outcomes = (*engine)->MatchDictionary(
          patterns, locate ? locate_mode : DictMatchOptions{});
      if (!outcomes.ok()) {
        failures[t] = outcomes.status();
        return;
      }
      const std::vector<DictOutcome>& expected =
          locate ? expected_hits : expected_counts;
      for (std::size_t i = 0; i < outcomes->size(); ++i) {
        if ((*outcomes)[i].count != expected[i].count ||
            (*outcomes)[i].offsets != expected[i].offsets ||
            !(*outcomes)[i].status.ok()) {
          failures[t] = Status::Corruption("thread saw divergent outcome");
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].ok()) << "thread " << t << ": "
                                  << failures[t].ToString();
  }
}

}  // namespace
}  // namespace era
