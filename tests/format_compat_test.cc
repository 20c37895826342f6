// Format compatibility across v1/v2/v3: every builder emits the configured
// format (bit-packed v3 by default, counted v2 on request), both serve
// queries byte-identically, and legacy v1 mirrors still read and answer the
// same. Files written before first edge symbols were stored are refused
// with NotSupported in every version.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "b2st/b2st.h"
#include "common/crc32.h"
#include "era/era_builder.h"
#include "io/mem_env.h"
#include "query/query_engine.h"
#include "suffixtree/canonical.h"
#include "suffixtree/serializer.h"
#include "suffixtree/validator.h"
#include "tests/test_util.h"
#include "trellis/trellis.h"
#include "ukkonen/ukkonen.h"
#include "wavefront/wavefront.h"

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

/// Mirrors `index` into `dst_dir` with every sub-tree rewritten as v1.
void MirrorIndexAsV1(MemEnv* env, const TreeIndex& index,
                     const std::string& dst_dir) {
  ASSERT_TRUE(env->CreateDir(dst_dir).ok());
  std::string manifest;
  ASSERT_TRUE(
      env->ReadFileToString(index.dir() + "/MANIFEST", &manifest).ok());
  ASSERT_TRUE(env->WriteFile(dst_dir + "/MANIFEST", manifest).ok());
  for (const SubTreeEntry& entry : index.subtrees()) {
    TreeBuffer tree;
    std::string prefix;
    ASSERT_TRUE(ReadSubTree(env, index.dir() + "/" + entry.filename, &tree,
                            &prefix, nullptr)
                    .ok());
    ASSERT_TRUE(WriteSubTreeV1(env, dst_dir + "/" + entry.filename, prefix,
                               tree, nullptr)
                    .ok());
    EXPECT_EQ(FileVersion(env, dst_dir + "/" + entry.filename), 1u);
  }
}

/// Queries both engines with the same pattern set and requires identical
/// answers (the "byte-identical query results" criterion).
void ExpectIdenticalAnswers(QueryEngine* v2, QueryEngine* v1,
                            const std::string& text) {
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
    auto count2 = v2->Count(pattern);
    auto count1 = v1->Count(pattern);
    ASSERT_TRUE(count2.ok()) << count2.status().ToString();
    ASSERT_TRUE(count1.ok()) << count1.status().ToString();
    EXPECT_EQ(*count2, *count1) << "pattern: " << pattern;
    auto hits2 = v2->Locate(pattern);
    auto hits1 = v1->Locate(pattern);
    ASSERT_TRUE(hits2.ok());
    ASSERT_TRUE(hits1.ok());
    EXPECT_EQ(*hits2, *hits1) << "pattern: " << pattern;
    EXPECT_EQ(hits2->size(), *count2) << "pattern: " << pattern;
  }
}

class BuilderFormatTest
    : public ::testing::TestWithParam<std::pair<const char*, int>> {};

StatusOr<BuildResult> BuildWith(int which, const BuildOptions& options,
                                const TextInfo& info) {
  switch (which) {
    case 0: {
      EraBuilder builder(options);
      return builder.Build(info);
    }
    case 1: {
      WaveFrontBuilder builder(options);
      return builder.Build(info);
    }
    default: {
      TrellisBuilder builder(options);
      return builder.Build(info);
    }
  }
}

TEST_P(BuilderFormatTest, EmitsConfiguredFormatAndAllVersionsAnswerAlike) {
  MemEnv env;
  std::string text = testing::RepetitiveText(Alphabet::Dna(), 4000, 99);
  auto info = MaterializeText(&env, "/text", Alphabet::Dna(), text);
  ASSERT_TRUE(info.ok());

  // Default build: bit-packed v3 files.
  auto result_v3 = BuildWith(GetParam().second,
                             SmallBuildOptions(&env, "/idx_v3"), *info);
  ASSERT_TRUE(result_v3.ok()) << result_v3.status().ToString();
  const TreeIndex& index_v3 = result_v3->index;
  ASSERT_GT(index_v3.subtrees().size(), 1u);

  // Same build with --format v2 semantics: counted files.
  BuildOptions v2_options = SmallBuildOptions(&env, "/idx_v2");
  v2_options.format = SubTreeFormat::kCounted;
  auto result_v2 = BuildWith(GetParam().second, v2_options, *info);
  ASSERT_TRUE(result_v2.ok()) << result_v2.status().ToString();
  const TreeIndex& index_v2 = result_v2->index;
  ASSERT_EQ(index_v2.subtrees().size(), index_v3.subtrees().size());

  // Every emitted file carries the configured version, validates, and the
  // v3 serving form stays compressed with the identical canonical shape as
  // its v2 twin.
  for (std::size_t i = 0; i < index_v3.subtrees().size(); ++i) {
    const SubTreeEntry& entry = index_v3.subtrees()[i];
    const SubTreeEntry& entry_v2 = index_v2.subtrees()[i];
    EXPECT_EQ(entry.prefix, entry_v2.prefix);
    EXPECT_EQ(FileVersion(&env, index_v3.dir() + "/" + entry.filename), 3u);
    EXPECT_EQ(
        FileVersion(&env, index_v2.dir() + "/" + entry_v2.filename), 2u);

    CountedTree counted;
    std::string prefix;
    ASSERT_TRUE(ReadCountedSubTree(&env, index_v3.dir() + "/" + entry.filename,
                                   &counted, &prefix, nullptr)
                    .ok());
    EXPECT_EQ(prefix, entry.prefix);
    EXPECT_EQ(counted.LeafCount(), entry.frequency);
    EXPECT_TRUE(ValidateSubTree(counted, text, entry.prefix).ok());

    ServedSubTree served;
    ASSERT_TRUE(ReadServedSubTree(&env, index_v3.dir() + "/" + entry.filename,
                                  &served, nullptr, nullptr)
                    .ok());
    EXPECT_TRUE(served.compressed());
    // The packed serving form must be smaller than the counted records it
    // replaces (the cache-density win the format exists for).
    EXPECT_LT(served.MemoryBytes(), counted.MemoryBytes());

    CountedTree counted_v2;
    ASSERT_TRUE(
        ReadCountedSubTree(&env, index_v2.dir() + "/" + entry_v2.filename,
                           &counted_v2, nullptr, nullptr)
            .ok());
    EXPECT_EQ(TreeToSaLcp(served), TreeToSaLcp(counted_v2));
  }

  MirrorIndexAsV1(&env, index_v2, "/idx_v1");
  auto v3 = QueryEngine::Open(&env, "/idx_v3");
  auto v2 = QueryEngine::Open(&env, "/idx_v2");
  auto v1 = QueryEngine::Open(&env, "/idx_v1");
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  ExpectIdenticalAnswers(v3->get(), v2->get(), text);
  ExpectIdenticalAnswers(v2->get(), v1->get(), text);
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
    CountedTree counted;
    ASSERT_TRUE(ReadSubTree(&env, path, &linked, nullptr, nullptr).ok());
    ASSERT_TRUE(
        ReadCountedSubTree(&env, path, &counted, nullptr, nullptr).ok());
    EXPECT_EQ(TreeToSaLcp(linked), TreeToSaLcp(counted));
    EXPECT_EQ(CountLeaves(counted), counted.LeafCount());
  }
}

TEST(FormatCompatTest, V1FilesStillReadable) {
  // The full v1 write -> read matrix: a legacy file loads into the linked
  // form verbatim and into the serving form via conversion, with the same
  // canonical structure and a correct leaf count.
  std::string text = testing::RandomText(Alphabet::Dna(), 500, 3);
  auto tree = BuildUkkonenTree(text);
  ASSERT_TRUE(tree.ok());
  MemEnv env;
  ASSERT_TRUE(WriteSubTreeV1(&env, "/v1.bin", "AC", *tree, nullptr).ok());
  EXPECT_EQ(FileVersion(&env, "/v1.bin"), 1u);

  TreeBuffer linked;
  std::string prefix;
  ASSERT_TRUE(ReadSubTree(&env, "/v1.bin", &linked, &prefix, nullptr).ok());
  EXPECT_EQ(prefix, "AC");
  EXPECT_EQ(TreeToSaLcp(linked), TreeToSaLcp(*tree));

  CountedTree counted;
  ASSERT_TRUE(
      ReadCountedSubTree(&env, "/v1.bin", &counted, &prefix, nullptr).ok());
  EXPECT_EQ(counted.size(), tree->size());
  EXPECT_EQ(TreeToSaLcp(counted), TreeToSaLcp(*tree));
  EXPECT_EQ(counted.LeafCount(), CountLeaves(*tree));
}

TEST(FormatCompatTest, FilesWithoutStoredSymbolsAreNotSupported) {
  // Files written before first symbols were stored left the v1/v2 symbol
  // byte 0 and the v3 symbol-table count 0 (then a pad byte). Serving them
  // would need a text read per child probe, so every reader refuses them
  // with NotSupported (rebuild the index) instead of serving or reporting
  // damage.
  std::string text = testing::RandomText(Alphabet::Dna(), 500, 3);
  auto tree = BuildUkkonenTree(text);
  ASSERT_TRUE(tree.ok());
  auto counted = BuildCountedTree(*tree);
  ASSERT_TRUE(counted.ok());
  CountedTree legacy = *counted;
  for (CountedNode& node : legacy.mutable_nodes()) node.first_symbol = 0;
  TreeBuffer legacy_linked = *tree;
  for (TreeNode& node : legacy_linked.mutable_nodes()) node.first_symbol = 0;

  MemEnv env;
  ASSERT_TRUE(WriteSubTreeV1(&env, "/v1.bin", "AC", legacy_linked, nullptr)
                  .ok());
  ASSERT_TRUE(WriteCountedSubTree(&env, "/v2.bin", "AC", legacy, nullptr,
                                  nullptr, SubTreeFormat::kCounted)
                  .ok());

  // v3: a current file with its header rewritten the way the old encoder
  // left it (symbol count and rank width zero), CRC re-sealed.
  const std::string prefix = "AC";
  ASSERT_TRUE(WriteCountedSubTree(&env, "/v3.bin", prefix, *counted, nullptr,
                                  nullptr, SubTreeFormat::kPacked)
                  .ok());
  std::string raw;
  ASSERT_TRUE(env.ReadFileToString("/v3.bin", &raw).ok());
  const std::size_t payload = 32 + prefix.size();
  raw[payload + offsetof(PackedHeader, num_symbols)] = 0;
  raw[payload + offsetof(PackedHeader, w_symbol_rank)] = 0;
  const uint32_t crc = Crc32c(raw.data() + payload, raw.size() - payload,
                              Crc32c(prefix.data(), prefix.size()));
  std::memcpy(raw.data() + 24, &crc, sizeof(crc));  // header crc field
  ASSERT_TRUE(env.WriteFile("/v3.bin", raw).ok());

  for (const char* path : {"/v1.bin", "/v2.bin", "/v3.bin"}) {
    TreeBuffer linked;
    Status s = ReadSubTree(&env, path, &linked, nullptr, nullptr);
    EXPECT_TRUE(s.IsNotSupported()) << path << ": " << s.ToString();
    CountedTree as_counted;
    s = ReadCountedSubTree(&env, path, &as_counted, nullptr, nullptr);
    EXPECT_TRUE(s.IsNotSupported()) << path << ": " << s.ToString();
    ServedSubTree served;
    s = ReadServedSubTree(&env, path, &served, nullptr, nullptr);
    EXPECT_TRUE(s.IsNotSupported()) << path << ": " << s.ToString();
    EXPECT_NE(s.message().find("rebuild the index"), std::string::npos)
        << s.ToString();
  }
}

}  // namespace
}  // namespace era
