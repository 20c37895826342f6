// Sub-tree file format: every builder emits bit-packed version-4 files that
// validate, serve smaller than the 32-byte TreeNodes they inflate to, and
// answer queries like a scan of the text. Files of retired versions (1:
// linked, 2: 32-byte child-block records, 3: one fixed-width record per
// node) are refused with NotSupported: rebuild the index.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "b2st/b2st.h"
#include "era/parallel_builder.h"
#include "io/mem_env.h"
#include "query/query_engine.h"
#include "suffixtree/canonical.h"
#include "suffixtree/serializer.h"
#include "suffixtree/validator.h"
#include "tests/test_util.h"
#include "trellis/trellis.h"
#include "ukkonen/ukkonen.h"

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

/// Version field of a serialized sub-tree file (header bytes 8..11).
uint32_t FileVersion(MemEnv* env, const std::string& path) {
  std::string raw;
  EXPECT_TRUE(env->ReadFileToString(path, &raw).ok());
  uint32_t version = 0;
  EXPECT_GE(raw.size(), 12u);
  std::memcpy(&version, raw.data() + 8, sizeof(version));
  return version;
}

/// Requires Count and Locate on `engine` to match a scan of `text`.
void ExpectAnswersMatchText(QueryEngine* engine, const std::string& text) {
  std::vector<std::string> patterns = {"A", "AC", "TTT"};
  for (std::size_t offset : {0u, 17u, 901u, 2503u}) {
    for (std::size_t len : {3u, 9u, 30u}) {
      if (offset + len < text.size()) {
        patterns.push_back(text.substr(offset, len));
      }
    }
  }
  patterns.push_back(text.substr(text.size() - 12));  // suffix incl. terminal
  patterns.push_back("ACGTACGTACGTACGTACGTACGT");     // likely absent
  for (const std::string& pattern : patterns) {
    const std::vector<uint64_t> expected = testing::NaiveLocate(text, pattern);
    auto count = engine->Count(pattern);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(*count, expected.size()) << "pattern: " << pattern;
    auto hits = engine->Locate(pattern);
    ASSERT_TRUE(hits.ok()) << hits.status().ToString();
    EXPECT_EQ(*hits, expected) << "pattern: " << pattern;
  }
}

class BuilderFormatTest
    : public ::testing::TestWithParam<std::pair<const char*, int>> {};

StatusOr<TreeIndex> BuildWith(int which, const BuildOptions& options,
                              const TextInfo& info) {
  if (which == 2) {
    ERA_ASSIGN_OR_RETURN(BuildResult result,
                         TrellisBuilder(options).Build(info));
    return std::move(result.index);
  }
  ERA_ASSIGN_OR_RETURN(
      ParallelBuildResult result,
      ParallelBuilder(options, 1,
                      which == 0 ? ParallelAlgorithm::kEra
                                 : ParallelAlgorithm::kWaveFront)
          .Build(info));
  return std::move(result.index);
}

TEST_P(BuilderFormatTest, EmitsPackedFilesThatValidateAndAnswerLikeTheText) {
  MemEnv env;
  std::string text = testing::RepetitiveText(Alphabet::Dna(), 4000, 99);
  auto info = MaterializeText(&env, "/text", Alphabet::Dna(), text);
  ASSERT_TRUE(info.ok());

  auto result =
      BuildWith(GetParam().second, SmallBuildOptions(&env, "/idx"), *info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const TreeIndex& index = *result;
  ASSERT_GT(index.subtrees().size(), 1u);

  // Every emitted file is version 4, validates, and serves smaller than the
  // TreeNodes it inflates to (the cache-density win of the format).
  for (const SubTreeEntry& entry : index.subtrees()) {
    const std::string path = index.dir() + "/" + entry.filename;
    EXPECT_EQ(FileVersion(&env, path), 4u);
    ServedSubTree served;
    std::string prefix;
    ASSERT_TRUE(ReadServedSubTree(&env, path, &served, &prefix, nullptr).ok());
    EXPECT_EQ(prefix, entry.prefix);
    EXPECT_EQ(served.LeafCount(), entry.frequency);
    EXPECT_TRUE(ValidateSubTree(served, text, entry.prefix).ok());
    EXPECT_LT(served.MemoryBytes(), served.Inflate().MemoryBytes());
  }

  auto engine = QueryEngine::Open(&env, "/idx");
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ExpectAnswersMatchText(engine->get(), text);
}

INSTANTIATE_TEST_SUITE_P(AllBuilders, BuilderFormatTest,
                         ::testing::Values(std::make_pair("era", 0),
                                           std::make_pair("wavefront", 1),
                                           std::make_pair("trellis", 2)),
                         [](const auto& info) { return info.param.first; });

TEST(B2stFormatTest, ForestFilesRoundTripBothForms) {
  // B2ST emits a forest (no manifest); its files must still round-trip
  // through both readers with identical canonical form.
  MemEnv env;
  std::string text = testing::RandomText(Alphabet::Dna(), 3000, 21);
  auto info = MaterializeText(&env, "/text", Alphabet::Dna(), text);
  ASSERT_TRUE(info.ok());
  B2stBuilder builder(SmallBuildOptions(&env, "/b2st"));
  auto result = builder.Build(*info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->subtree_files.empty());
  for (const std::string& file : result->subtree_files) {
    const std::string path = result->work_dir + "/" + file;
    TreeBuffer linked;
    ServedSubTree served;
    ASSERT_TRUE(ReadSubTree(&env, path, &linked, nullptr, nullptr).ok());
    ASSERT_TRUE(ReadServedSubTree(&env, path, &served, nullptr, nullptr).ok());
    EXPECT_EQ(TreeToSaLcp(linked), TreeToSaLcp(served));
    EXPECT_EQ(CountLeaves(served.Inflate()), served.LeafCount());
  }
}

/// Expects both readers to refuse `path` with NotSupported and the rebuild
/// hint.
void ExpectNotSupported(MemEnv* env, const std::string& path) {
  TreeBuffer linked;
  Status s = ReadSubTree(env, path, &linked, nullptr, nullptr);
  EXPECT_TRUE(s.IsNotSupported()) << path << ": " << s.ToString();
  EXPECT_NE(s.message().find("rebuild the index"), std::string::npos)
      << s.ToString();
  ServedSubTree served;
  s = ReadServedSubTree(env, path, &served, nullptr, nullptr);
  EXPECT_TRUE(s.IsNotSupported()) << path << ": " << s.ToString();
  EXPECT_NE(s.message().find("rebuild the index"), std::string::npos)
      << s.ToString();
}

TEST(FormatCompatTest, RetiredVersionsAreNotSupported) {
  // Version 1 (linked TreeNode array), 2 (32-byte child-block records) and 3
  // (one fixed-width packed record per node) files are no longer read. A v4
  // file with only its header version patched stands in for them: the CRC
  // covers prefix and payload, not the header, so the version check is what
  // refuses it.
  std::string text = testing::RandomText(Alphabet::Dna(), 500, 3);
  auto tree = BuildUkkonenTree(text);
  ASSERT_TRUE(tree.ok());
  MemEnv env;
  ASSERT_TRUE(WriteSubTree(&env, "/v4.bin", "AC", *tree, nullptr).ok());
  std::string raw;
  ASSERT_TRUE(env.ReadFileToString("/v4.bin", &raw).ok());
  for (uint32_t version : {1u, 2u, 3u}) {
    const std::string path = "/v" + std::to_string(version) + ".bin";
    std::string patched = raw;
    std::memcpy(patched.data() + 8, &version, sizeof(version));
    ASSERT_TRUE(env.WriteFile(path, patched).ok());
    EXPECT_EQ(FileVersion(&env, path), version);
    ExpectNotSupported(&env, path);
    Status s = InspectSubTreeFile(&env, path).status();
    EXPECT_TRUE(s.IsNotSupported()) << path << ": " << s.ToString();
    EXPECT_NE(s.message().find("rebuild the index"), std::string::npos)
        << s.ToString();
  }
  // The untouched file still reads.
  ServedSubTree served;
  EXPECT_TRUE(ReadServedSubTree(&env, "/v4.bin", &served, nullptr, nullptr)
                  .ok());
}

}  // namespace
}  // namespace era
