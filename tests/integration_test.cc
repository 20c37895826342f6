// Full-pipeline integration tests on the POSIX filesystem: generate ->
// build (serial/parallel/baselines) -> persist -> reload -> query ->
// validate, at sizes large enough to force many virtual trees.

#include <gtest/gtest.h>

#include <chrono>

#include "era/era_builder.h"
#include "era/parallel_builder.h"
#include "io/env.h"
#include "query/applications.h"
#include "query/query_engine.h"
#include "suffixtree/validator.h"
#include "tests/test_util.h"
#include "text/corpus.h"
#include "text/text_generator.h"

namespace era {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = GetDefaultEnv();
    base_ = ::testing::TempDir() + "era_integration_" +
            std::to_string(
                std::chrono::steady_clock::now().time_since_epoch().count());
    ASSERT_TRUE(env_->CreateDir(base_).ok());
  }

  Env* env_ = nullptr;
  std::string base_;
};

TEST_F(IntegrationTest, EndToEndOnDisk) {
  // 256 KB DNA with a 128 KB budget: decidedly out-of-core.
  std::string text = GenerateDna(256 << 10, 77);
  auto info = MaterializeText(env_, base_ + "/text", Alphabet::Dna(), text);
  ASSERT_TRUE(info.ok());

  BuildOptions options;
  options.work_dir = base_ + "/index";
  options.memory_budget = 128 << 10;
  ParallelBuilder builder(options, 1);
  auto result = builder.Build(*info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.num_groups, 4u)
      << "budget should force several virtual trees";

  // Reload from disk through a fresh handle and validate everything.
  auto loaded = TreeIndex::Load(env_, base_ + "/index");
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(ValidateIndex(env_, *loaded, text).ok());
  EXPECT_TRUE(testing::IndexMatchesOracle(env_, *loaded, text));

  // Queries against a naive scan.
  auto engine = QueryEngine::Open(env_, base_ + "/index");
  ASSERT_TRUE(engine.ok());
  for (std::size_t offset : {0u, 1000u, 77777u, 200000u}) {
    std::string pattern = text.substr(offset, 24);
    auto hits = (*engine)->Locate(pattern);
    ASSERT_TRUE(hits.ok());
    std::vector<uint64_t> expected;
    std::size_t pos = text.find(pattern);
    while (pos != std::string::npos) {
      expected.push_back(pos);
      pos = text.find(pattern, pos + 1);
    }
    EXPECT_EQ(*hits, expected) << "offset " << offset;
  }

  // The longest repeated substring agrees with the LCP oracle.
  SaLcp oracle = testing::OracleSaLcp(text);
  auto lrs = LongestRepeatedSubstring(env_, *loaded, text);
  ASSERT_TRUE(lrs.ok());
  EXPECT_EQ(lrs->length,
            *std::max_element(oracle.lcp.begin(), oracle.lcp.end()));
}

TEST_F(IntegrationTest, ParallelAndSerialAgreeOnDisk) {
  std::string text = GenerateProtein(128 << 10, 78);
  auto info =
      MaterializeText(env_, base_ + "/text", Alphabet::Protein(), text);
  ASSERT_TRUE(info.ok());

  BuildOptions serial_options;
  serial_options.work_dir = base_ + "/serial";
  serial_options.memory_budget = 256 << 10;
  ParallelBuilder serial(serial_options, 1);
  auto serial_result = serial.Build(*info);
  ASSERT_TRUE(serial_result.ok()) << serial_result.status().ToString();

  BuildOptions parallel_options;
  parallel_options.work_dir = base_ + "/parallel";
  parallel_options.memory_budget = 256 << 10;
  // NOTE: per-worker budget = total/workers, so the partition plans differ
  // from the one-worker build; canonical suffix order must still agree.
  ParallelBuilder parallel(parallel_options, 3);
  auto parallel_result = parallel.Build(*info);
  ASSERT_TRUE(parallel_result.ok()) << parallel_result.status().ToString();

  auto serial_order = testing::GlobalLeafOrder(env_, serial_result->index);
  auto parallel_order =
      testing::GlobalLeafOrder(env_, parallel_result->index);
  ASSERT_TRUE(serial_order.ok());
  ASSERT_TRUE(parallel_order.ok());
  EXPECT_EQ(*serial_order, *parallel_order);
}

TEST_F(IntegrationTest, WaveFrontProducesIdenticalIndexOnDisk) {
  std::string text = GenerateDna(96 << 10, 79);
  auto info = MaterializeText(env_, base_ + "/text", Alphabet::Dna(), text);
  ASSERT_TRUE(info.ok());

  BuildOptions options;
  options.work_dir = base_ + "/wf";
  options.memory_budget = 192 << 10;
  ParallelBuilder builder(options, 1, ParallelAlgorithm::kWaveFront);
  auto result = builder.Build(*info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(testing::IndexMatchesOracle(env_, result->index, text));
}

TEST_F(IntegrationTest, EnglishCorpusRoundTrip) {
  std::string text = GenerateEnglish(128 << 10, 80);
  auto info =
      MaterializeText(env_, base_ + "/text", Alphabet::English(), text);
  ASSERT_TRUE(info.ok());

  BuildOptions options;
  options.work_dir = base_ + "/idx";
  options.memory_budget = 192 << 10;
  ParallelBuilder builder(options, 1);
  auto result = builder.Build(*info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(testing::IndexMatchesOracle(env_, result->index, text));

  auto engine = QueryEngine::Open(env_, base_ + "/idx");
  ASSERT_TRUE(engine.ok());
  auto the_count = (*engine)->Count("the");
  ASSERT_TRUE(the_count.ok());
  EXPECT_GT(*the_count, 0u) << "'the' is the most frequent vocabulary word";
}

TEST_F(IntegrationTest, RebuildingIntoSameDirectoryIsClean) {
  std::string text1 = GenerateDna(32 << 10, 81);
  std::string text2 = GenerateDna(48 << 10, 82);
  auto info1 = MaterializeText(env_, base_ + "/t1", Alphabet::Dna(), text1);
  auto info2 = MaterializeText(env_, base_ + "/t2", Alphabet::Dna(), text2);
  ASSERT_TRUE(info1.ok());
  ASSERT_TRUE(info2.ok());

  BuildOptions options;
  options.work_dir = base_ + "/idx";
  options.memory_budget = 96 << 10;
  ParallelBuilder builder(options, 1);
  ASSERT_TRUE(builder.Build(*info1).ok());
  auto second = builder.Build(*info2);  // overwrite with a different text
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(testing::IndexMatchesOracle(env_, second->index, text2));
}

}  // namespace
}  // namespace era
