// On-disk damage on the read path: checksums turn bit flips and truncation
// into Corruption (never silent wrong answers), and the QueryEngine degrades
// per-query — a damaged sub-tree quarantines itself while the rest of the
// index keeps serving, and a repaired file serves again without a restart.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "era/parallel_builder.h"
#include "io/mem_env.h"
#include "query/query_engine.h"
#include "suffixtree/serializer.h"
#include "suffixtree/tree_index.h"
#include "tests/test_util.h"
#include "text/corpus.h"

namespace era {
namespace {

/// A small built index on MemEnv shared by the cases in this file.
struct BuiltIndex {
  MemEnv env;
  TextInfo info;
  std::vector<SubTreeEntry> subtrees;

  BuiltIndex() {
    std::string text = testing::RepetitiveText(Alphabet::Dna(), 12000, 31);
    auto materialized =
        MaterializeText(&env, "/text", Alphabet::Dna(), text);
    EXPECT_TRUE(materialized.ok());
    info = *materialized;
    BuildOptions options;
    options.env = &env;
    options.work_dir = "/idx";
    options.memory_budget = 2 << 20;
    options.input_buffer_bytes = 4096;
    ParallelBuilder builder(options, 1);
    auto result = builder.Build(info);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    subtrees = result->index.subtrees();
    EXPECT_GE(subtrees.size(), 2u)
        << "the degradation cases need a healthy sub-tree to keep serving";
  }

  /// Copies the clean index into a fresh MemEnv so each case damages its
  /// own copy.
  void CloneInto(MemEnv* dst) const {
    auto copy = [&](const std::string& path) {
      std::string bytes;
      ASSERT_TRUE(
          const_cast<MemEnv&>(env).ReadFileToString(path, &bytes).ok());
      ASSERT_TRUE(dst->WriteFile(path, bytes).ok());
    };
    copy("/text");
    copy("/idx/MANIFEST");
    for (const SubTreeEntry& entry : subtrees) copy("/idx/" + entry.filename);
  }
};

BuiltIndex& Built() {
  static BuiltIndex* built = new BuiltIndex();
  return *built;
}

TEST(CorruptionTest, SubTreeBitFlipsAreCorruption) {
  MemEnv env;
  Built().CloneInto(&env);
  std::string path = "/idx/" + Built().subtrees[0].filename;
  std::string clean;
  ASSERT_TRUE(env.ReadFileToString(path, &clean).ok());

  for (std::size_t offset :
       {std::size_t{0}, clean.size() / 4, clean.size() / 2,
        clean.size() - 1}) {
    std::string damaged = clean;
    damaged[offset] ^= 0x10;
    ASSERT_TRUE(env.WriteFile(path, damaged).ok());
    ServedSubTree tree;
    Status s = ReadServedSubTree(&env, path, &tree, nullptr, nullptr);
    EXPECT_FALSE(s.ok()) << "bit flip at offset " << offset << " undetected";
    EXPECT_TRUE(s.IsCorruption())
        << "offset " << offset << ": " << s.ToString();
  }
}

TEST(CorruptionTest, TruncatedSubTreeIsCorruption) {
  MemEnv env;
  Built().CloneInto(&env);
  std::string path = "/idx/" + Built().subtrees[0].filename;
  std::string clean;
  ASSERT_TRUE(env.ReadFileToString(path, &clean).ok());

  for (std::size_t keep : {std::size_t{0}, std::size_t{4}, clean.size() / 2,
                           clean.size() - 1}) {
    ASSERT_TRUE(env.WriteFile(path, clean.substr(0, keep)).ok());
    ServedSubTree tree;
    Status s = ReadServedSubTree(&env, path, &tree, nullptr, nullptr);
    EXPECT_FALSE(s.ok()) << "truncation to " << keep << " bytes undetected";
    EXPECT_TRUE(s.IsCorruption()) << "keep=" << keep << ": " << s.ToString();
  }
}

TEST(CorruptionTest, DamagedStoredFirstSymbolIsCorruption) {
  // Child lookup binary-searches the stored first symbols without reading
  // the text, so a CRC-valid file whose symbols break the sorted child-block
  // order must fail structurally.
  MemEnv env;
  Built().CloneInto(&env);
  const std::string path = "/idx/" + Built().subtrees[0].filename;
  ServedSubTree served;
  std::string prefix;
  ASSERT_TRUE(ReadServedSubTree(&env, path, &served, &prefix, nullptr).ok());
  const TreeBuffer clean = served.Inflate();
  uint32_t left = kNilNode;  // first child of the first branching node
  for (uint32_t i = 0; i < clean.size() && left == kNilNode; ++i) {
    if (clean.CountChildren(i) >= 2) left = clean.node(i).first_child;
  }
  ASSERT_NE(left, kNilNode);
  const uint32_t victim = clean.node(left).next_sibling;
  std::string file;
  ASSERT_TRUE(env.ReadFileToString(path, &file).ok());
  const std::size_t payload_offset = 32 + prefix.size();  // header + prefix

  // Duplicate the left sibling's symbol (order broken), or clear it.
  for (uint8_t symbol : {clean.node(left).first_symbol, uint8_t{0}}) {
    TreeBuffer damaged = clean;
    damaged.node(victim).first_symbol = symbol;
    // The clean file's header and prefix, the damaged payload, and the CRC
    // re-sealed so only the structural checks can catch it.
    auto encoded = ServedSubTree::EncodePayload(damaged);
    ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
    const std::string& payload = *encoded;
    std::string bytes = file.substr(0, payload_offset) + payload;
    const uint32_t crc = Crc32c(payload.data(), payload.size(),
                                Crc32c(prefix.data(), prefix.size()));
    std::memcpy(bytes.data() + 24, &crc, sizeof(crc));  // header crc field
    ASSERT_TRUE(env.WriteFile("/damaged", bytes).ok());

    ServedSubTree as_served;
    Status s = ReadServedSubTree(&env, "/damaged", &as_served, nullptr,
                                 nullptr);
    EXPECT_TRUE(s.IsCorruption()) << "symbol " << int{symbol} << ": "
                                  << s.ToString();
    TreeBuffer linked;
    s = ReadSubTree(&env, "/damaged", &linked, nullptr, nullptr);
    EXPECT_TRUE(s.IsCorruption()) << "symbol " << int{symbol} << ": "
                                  << s.ToString();
  }
}

TEST(CorruptionTest, ManifestDamageIsCorruption) {
  MemEnv env;
  Built().CloneInto(&env);
  std::string clean;
  ASSERT_TRUE(env.ReadFileToString("/idx/MANIFEST", &clean).ok());

  // Flip one character of a recorded frequency.
  std::string damaged = clean;
  std::size_t pos = damaged.find("subtree: ");
  ASSERT_NE(pos, std::string::npos);
  std::size_t digit = damaged.find_first_of("0123456789", pos);
  ASSERT_NE(digit, std::string::npos);
  damaged[digit] = damaged[digit] == '1' ? '2' : '1';
  ASSERT_TRUE(env.WriteFile("/idx/MANIFEST", damaged).ok());
  EXPECT_TRUE(TreeIndex::Load(&env, "/idx").status().IsCorruption());

  // Truncate away the trailing checksum line.
  std::size_t crc_line = clean.rfind("crc: ");
  ASSERT_NE(crc_line, std::string::npos);
  ASSERT_TRUE(
      env.WriteFile("/idx/MANIFEST", clean.substr(0, crc_line)).ok());
  EXPECT_TRUE(TreeIndex::Load(&env, "/idx").status().IsCorruption());

  // A text_length that is not a number (first digit replaced), or too long
  // for 64 bits. Left unsealed, the checksum catches it before any field is
  // parsed; with the checksum re-sealed over the damage, the field parser
  // must catch it. Either way: Corruption, never an exception.
  auto seal = [](const std::string& body) {
    return body + "crc: " +
           std::to_string(Crc32c(body.data(), body.size())) + "\n";
  };
  // Sealing the clean body reproduces the MANIFEST byte for byte, so below
  // the parser, not the sealing, is what rejects the damage.
  ASSERT_EQ(seal(clean.substr(0, crc_line)), clean);
  const std::size_t length_line = clean.find("text_length: ");
  ASSERT_NE(length_line, std::string::npos);
  const std::size_t value = length_line + std::strlen("text_length: ");
  const std::size_t value_end = clean.find('\n', value);
  for (const std::string& bad :
       {"q" + clean.substr(value + 1, value_end - value - 1),
        std::string("12345678901234567890123")}) {
    std::string body = clean.substr(0, crc_line);
    body.replace(value, value_end - value, bad);
    const std::string unsealed = body + clean.substr(crc_line);
    ASSERT_TRUE(env.WriteFile("/idx/MANIFEST", unsealed).ok());
    Status s = TreeIndex::Load(&env, "/idx").status();
    EXPECT_TRUE(s.IsCorruption()) << bad << ": " << s.ToString();

    ASSERT_TRUE(env.WriteFile("/idx/MANIFEST", seal(body)).ok());
    s = TreeIndex::Load(&env, "/idx").status();
    EXPECT_TRUE(s.IsCorruption()) << bad << ": " << s.ToString();
    EXPECT_NE(s.message().find("text_length"), std::string::npos)
        << s.ToString();
  }
}

TEST(CorruptionTest, QueryEngineQuarantinesAndRecoversWithoutRestart) {
  MemEnv env;
  Built().CloneInto(&env);
  auto engine = QueryEngine::Open(&env, "/idx");
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Patterns one symbol longer than a sub-tree's prefix force the engine to
  // open that sub-tree (the trie alone cannot answer them).
  const SubTreeEntry& victim = Built().subtrees[0];
  const SubTreeEntry& healthy = Built().subtrees[1];
  std::string victim_pattern = victim.prefix + "A";
  std::string healthy_pattern = healthy.prefix + "A";

  std::string victim_path = "/idx/" + victim.filename;
  std::string clean;
  ASSERT_TRUE(env.ReadFileToString(victim_path, &clean).ok());
  std::string damaged = clean;
  damaged[damaged.size() / 2] ^= 0x08;
  ASSERT_TRUE(env.WriteFile(victim_path, damaged).ok());

  // The damaged sub-tree fails ITS queries with Unavailable...
  auto count = (*engine)->Count(victim_pattern);
  EXPECT_TRUE(count.status().IsUnavailable()) << count.status().ToString();
  auto located = (*engine)->Locate(victim_pattern);
  EXPECT_TRUE(located.status().IsUnavailable());
  EXPECT_GE((*engine)->stats().unavailable_queries, 2u);
  auto quarantine = (*engine)->quarantine();
  ASSERT_EQ(quarantine.size(), 1u);
  EXPECT_EQ(quarantine.begin()->first, 0u) << "sub-tree 0 is the victim";
  EXPECT_GE(quarantine.begin()->second, 2u);

  // ...while patterns routed to healthy sub-trees keep serving.
  auto healthy_count = (*engine)->Count(healthy_pattern);
  ASSERT_TRUE(healthy_count.ok()) << healthy_count.status().ToString();

  // Repair the file: the very next query succeeds on the same engine —
  // proof that the failed load was never admitted to the cache.
  ASSERT_TRUE(env.WriteFile(victim_path, clean).ok());
  auto recovered = (*engine)->Count(victim_pattern);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  // And the answer agrees with a fresh engine over the clean index.
  MemEnv fresh_env;
  Built().CloneInto(&fresh_env);
  auto fresh = QueryEngine::Open(&fresh_env, "/idx");
  ASSERT_TRUE(fresh.ok());
  auto expected = (*fresh)->Count(victim_pattern);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*recovered, *expected);
}

TEST(CorruptionTest, MissingSubTreeFileIsUnavailableNotFatal) {
  MemEnv env;
  Built().CloneInto(&env);
  auto engine = QueryEngine::Open(&env, "/idx");
  ASSERT_TRUE(engine.ok());
  const SubTreeEntry& victim = Built().subtrees[0];
  ASSERT_TRUE(env.DeleteFile("/idx/" + victim.filename).ok());
  auto count = (*engine)->Count(victim.prefix + "A");
  EXPECT_TRUE(count.status().IsUnavailable()) << count.status().ToString();
  auto healthy = (*engine)->Count(Built().subtrees[1].prefix + "A");
  EXPECT_TRUE(healthy.ok()) << healthy.status().ToString();
}

}  // namespace
}  // namespace era
