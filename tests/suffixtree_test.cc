#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <random>
#include <vector>

#include "io/mem_env.h"
#include "suffixtree/canonical.h"
#include "suffixtree/serializer.h"
#include "suffixtree/tree_buffer.h"
#include "suffixtree/tree_index.h"
#include "suffixtree/trie.h"
#include "suffixtree/validator.h"
#include "tests/test_util.h"
#include "ukkonen/ukkonen.h"

namespace era {
namespace {

TEST(TreeNodeTest, LayoutIs32Bytes) {
  EXPECT_EQ(sizeof(TreeNode), 32u);
  TreeNode node;
  EXPECT_FALSE(node.IsLeaf());
  node.leaf_id = 5;
  EXPECT_TRUE(node.IsLeaf());
}

TEST(TreeBufferTest, RootAlwaysPresent) {
  TreeBuffer tree;
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.node(0).first_child, kNilNode);
}

TEST(TreeBufferTest, AppendChildLastMaintainsOrder) {
  TreeBuffer tree;
  uint32_t a = tree.AddNode();
  uint32_t b = tree.AddNode();
  uint32_t c = tree.AddNode();
  tree.AppendChildLast(0, a);
  tree.AppendChildLast(0, b);
  tree.AppendChildLast(0, c);
  EXPECT_EQ(tree.node(0).first_child, a);
  EXPECT_EQ(tree.node(a).next_sibling, b);
  EXPECT_EQ(tree.node(b).next_sibling, c);
  EXPECT_EQ(tree.node(c).next_sibling, kNilNode);
  EXPECT_EQ(tree.CountChildren(0), 3u);
}

TEST(CanonicalTest, HandBuiltTree) {
  // Tree for "aba~": suffixes aba~(0), a~(2), ba~(1), ~(3).
  // Sorted: aba~ < a~ (b < ~), ba~, ~.
  std::string text = "aba~";
  auto tree = BuildUkkonenTree(text);
  ASSERT_TRUE(tree.ok());
  SaLcp canon = TreeToSaLcp(*tree);
  EXPECT_EQ(canon.sa, (std::vector<uint64_t>{0, 2, 1, 3}));
  EXPECT_EQ(canon.lcp, (std::vector<uint64_t>{1, 0, 0}));
}

TEST(SerializerTest, RoundTrip) {
  std::string text = testing::RandomText(Alphabet::Dna(), 300, 5);
  auto tree = BuildUkkonenTree(text);
  ASSERT_TRUE(tree.ok());

  MemEnv env;
  IoStats stats;
  ASSERT_TRUE(WriteSubTree(&env, "/t.bin", "AC", *tree, &stats).ok());
  EXPECT_GT(stats.bytes_written, 0u);

  TreeBuffer back;
  std::string prefix;
  ASSERT_TRUE(ReadSubTree(&env, "/t.bin", &back, &prefix, &stats).ok());
  EXPECT_EQ(prefix, "AC");
  EXPECT_EQ(back.size(), tree->size());
  EXPECT_EQ(TreeToSaLcp(back), TreeToSaLcp(*tree));
}

TEST(SerializerTest, DetectsCorruption) {
  std::string text = testing::RandomText(Alphabet::Dna(), 100, 6);
  auto tree = BuildUkkonenTree(text);
  ASSERT_TRUE(tree.ok());

  MemEnv env;
  ASSERT_TRUE(WriteSubTree(&env, "/t.bin", "A", *tree, nullptr).ok());
  std::string raw;
  ASSERT_TRUE(env.ReadFileToString("/t.bin", &raw).ok());

  // Flip one byte in the node array (past the 32-byte header + 1-byte
  // prefix).
  std::string corrupted = raw;
  corrupted[40] = static_cast<char>(corrupted[40] ^ 0x40);
  ASSERT_TRUE(env.WriteFile("/bad.bin", corrupted).ok());
  TreeBuffer out;
  Status s = ReadSubTree(&env, "/bad.bin", &out, nullptr, nullptr);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  // Truncation.
  ASSERT_TRUE(env.WriteFile("/short.bin", raw.substr(0, raw.size() / 2)).ok());
  s = ReadSubTree(&env, "/short.bin", &out, nullptr, nullptr);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  // Bad magic.
  std::string bad_magic = raw;
  bad_magic[0] = 'X';
  ASSERT_TRUE(env.WriteFile("/magic.bin", bad_magic).ok());
  s = ReadSubTree(&env, "/magic.bin", &out, nullptr, nullptr);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(TreeIndexCacheTest, LruEvictsWithinBudgetAndPinsInFlight) {
  MemEnv env;
  std::string text = testing::RepetitiveText(Alphabet::Dna(), 8000, 31);

  // A hand-assembled index (dir is the MemEnv root): the same Ukkonen tree
  // serialized under eight distinct ids.
  TreeIndex index;
  TextInfo info{"/text", static_cast<uint64_t>(text.size()), Alphabet::Dna()};
  ASSERT_TRUE(env.WriteFile("/text", text).ok());
  index.SetText(info);
  auto tree = BuildUkkonenTree(text);
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 8; ++i) {
    std::string name = "st_" + std::to_string(i);
    ASSERT_TRUE(WriteSubTree(&env, "/" + name, "A", *tree, nullptr).ok());
    index.AddSubTree("A", CountLeaves(*tree), name);
  }
  // The budget math must use the actual serving charge (the packed blob),
  // not the inflated TreeNode size.
  ServedSubTree served;
  ASSERT_TRUE(ReadServedSubTree(&env, "/st_0", &served, nullptr, nullptr).ok());
  const uint64_t tree_bytes = served.MemoryBytes();

  // Room for ~2 trees: opening 8 distinct ids must evict.
  TreeCacheOptions options;
  options.budget_bytes = 2 * tree_bytes + tree_bytes / 2;
  index.ConfigureCache(options);

  IoStats stats;
  std::shared_ptr<const ServedSubTree> pinned;
  for (uint32_t id = 0; id < 8; ++id) {
    auto opened = index.OpenSubTree(&env, id, &stats);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    if (id == 0) pinned = *opened;
  }
  TreeIndex::CacheSnapshot snap = index.CacheStats();
  EXPECT_EQ(snap.misses, 8u);
  EXPECT_GT(snap.evictions, 0u);
  EXPECT_LE(snap.resident_bytes, options.budget_bytes);
  EXPECT_EQ(stats.cache_misses, 8u);
  EXPECT_EQ(stats.cache_evicted_bytes, snap.evicted_bytes);

  // Id 0 was evicted long ago, but the pinned shared_ptr stays valid.
  EXPECT_EQ(pinned->LeafCount(), CountLeaves(*tree));

  // Re-opening a resident id is a hit; re-opening id 0 is a miss again.
  auto hit = index.OpenSubTree(&env, 7, &stats);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(stats.cache_hits, 1u);
  auto miss = index.OpenSubTree(&env, 0, &stats);
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(stats.cache_misses, 9u);

  // LRU order: after touching id 7, filling past the budget evicts older
  // ids first, never the most recently used one.
  EXPECT_TRUE(index.OpenSubTree(&env, 7, nullptr).ok());
  snap = index.CacheStats();
  uint64_t hits_before = snap.hits;
  EXPECT_TRUE(index.OpenSubTree(&env, 7, nullptr).ok());
  EXPECT_EQ(index.CacheStats().hits, hits_before + 1);

  // An explicit sweep empties residency without counting as LRU eviction.
  uint64_t evictions_before = index.CacheStats().evictions;
  index.EvictCache();
  snap = index.CacheStats();
  EXPECT_EQ(snap.resident_trees, 0u);
  EXPECT_EQ(snap.resident_bytes, 0u);
  EXPECT_EQ(snap.evictions, evictions_before);
}

/// Forwarding Env that counts RandomAccessFile reads (device requests).
class ReadCountingEnv : public Env {
 public:
  explicit ReadCountingEnv(Env* base) : base_(base) {}

  StatusOr<std::unique_ptr<RandomAccessFile>> OpenRandomAccess(
      const std::string& path) override {
    ERA_ASSIGN_OR_RETURN(auto file, base_->OpenRandomAccess(path));
    return std::unique_ptr<RandomAccessFile>(
        new CountingFile(std::move(file), &reads_));
  }
  StatusOr<std::unique_ptr<WritableFile>> NewWritable(
      const std::string& path) override {
    return base_->NewWritable(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  StatusOr<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }

  uint64_t reads() const { return reads_.load(); }

 private:
  class CountingFile : public RandomAccessFile {
   public:
    CountingFile(std::unique_ptr<RandomAccessFile> base,
                 std::atomic<uint64_t>* reads)
        : base_(std::move(base)), reads_(reads) {}
    Status Read(uint64_t offset, std::size_t n, char* scratch,
                std::size_t* out_n) const override {
      ++*reads_;
      return base_->Read(offset, n, scratch, out_n);
    }
    uint64_t Size() const override { return base_->Size(); }

   private:
    std::unique_ptr<RandomAccessFile> base_;
    std::atomic<uint64_t>* reads_;
  };

  Env* base_;
  std::atomic<uint64_t> reads_{0};
};

/// A hand-assembled index (dir is the MemEnv root) of `count` sub-trees,
/// each the Ukkonen tree of its own random text, so their sizes differ.
/// `serving_bytes` receives each one's cache charge.
TreeIndex DistinctSubTrees(MemEnv* env, uint32_t count,
                           std::vector<uint64_t>* serving_bytes) {
  TreeIndex index;
  for (uint32_t i = 0; i < count; ++i) {
    const std::string text =
        testing::RandomText(Alphabet::Dna(), 1500 + 100 * i, 100 + i);
    auto tree = BuildUkkonenTree(text);
    EXPECT_TRUE(tree.ok());
    const std::string name = "st_" + std::to_string(i);
    EXPECT_TRUE(WriteSubTree(env, "/" + name, "A", *tree, nullptr).ok());
    index.AddSubTree("A", CountLeaves(*tree), name);
    ServedSubTree served;
    EXPECT_TRUE(
        ReadServedSubTree(env, "/" + name, &served, nullptr, nullptr).ok());
    serving_bytes->push_back(served.MemoryBytes());
  }
  return index;
}

TEST(TreeIndexCacheTest, EachMissIsOneDeviceRead) {
  MemEnv base;
  std::vector<uint64_t> sizes;
  TreeIndex index = DistinctSubTrees(&base, 3, &sizes);
  ReadCountingEnv env(&base);
  IoStats stats;
  for (uint32_t id : {0u, 1u, 0u, 2u, 1u}) {
    const uint64_t before = env.reads();
    const uint64_t misses_before = stats.cache_misses;
    ASSERT_TRUE(index.OpenSubTree(&env, id, &stats).ok());
    EXPECT_EQ(env.reads() - before, stats.cache_misses - misses_before)
        << "id " << id << ": a miss is one read, a hit none";
  }
  EXPECT_EQ(stats.cache_misses, 3u);
  EXPECT_EQ(env.reads(), 3u);
}

TEST(TreeIndexCacheTest, RandomOpensNeverExceedTheBudget) {
  MemEnv env;
  std::vector<uint64_t> sizes;
  TreeIndex index = DistinctSubTrees(&env, 12, &sizes);
  // Room for two of the largest; every sub-tree is larger than an eighth of
  // the budget, the regime where per-shard budgets with one pinned entry
  // per shard overshoot.
  TreeCacheOptions options;
  options.budget_bytes = 2 * *std::max_element(sizes.begin(), sizes.end());
  for (uint64_t bytes : sizes) ASSERT_GT(bytes, options.budget_bytes / 8);
  index.ConfigureCache(options);

  std::mt19937 rng(5);
  for (int op = 0; op < 400; ++op) {
    const uint32_t id = rng() % sizes.size();
    ASSERT_TRUE(index.OpenSubTree(&env, id, nullptr).ok());
    const TreeIndex::CacheSnapshot snap = index.CacheStats();
    ASSERT_LE(snap.resident_bytes, options.budget_bytes) << "op " << op;
    ASSERT_GE(snap.resident_trees, 1u);
  }
  EXPECT_GT(index.CacheStats().evictions, 0u);

  // A sub-tree larger than the whole budget still caches, alone.
  options.budget_bytes = sizes[5] - 1;
  index.ConfigureCache(options);
  ASSERT_TRUE(index.OpenSubTree(&env, 0, nullptr).ok());
  ASSERT_TRUE(index.OpenSubTree(&env, 5, nullptr).ok());
  TreeIndex::CacheSnapshot snap = index.CacheStats();
  EXPECT_EQ(snap.resident_trees, 1u);
  EXPECT_EQ(snap.resident_bytes, sizes[5]);
  ASSERT_TRUE(index.OpenSubTree(&env, 5, nullptr).ok());
  EXPECT_EQ(index.CacheStats().hits, 1u);
}

TEST(TrieTest, InsertAndDescend) {
  PrefixTrie trie;
  ASSERT_TRUE(trie.InsertSubTree("TGA", 0, 10).ok());
  ASSERT_TRUE(trie.InsertSubTree("TGC", 1, 20).ok());
  ASSERT_TRUE(trie.InsertSubTree("A", 2, 5).ok());
  ASSERT_TRUE(trie.InsertTerminalLeaf("TG", 100).ok());
  ASSERT_TRUE(trie.InsertTerminalLeaf("", 999).ok());

  auto r = trie.Descend("TGAXX");
  EXPECT_EQ(r.matched, 3u);
  EXPECT_FALSE(r.pattern_exhausted);
  EXPECT_EQ(trie.node(r.node).subtree_id, 0);

  r = trie.Descend("T");
  EXPECT_EQ(r.matched, 1u);
  EXPECT_TRUE(r.pattern_exhausted);

  r = trie.Descend("G");
  EXPECT_EQ(r.matched, 0u);
  EXPECT_FALSE(r.pattern_exhausted);
}

TEST(TrieTest, RejectsConflicts) {
  PrefixTrie trie;
  ASSERT_TRUE(trie.InsertSubTree("AB", 0, 1).ok());
  EXPECT_FALSE(trie.InsertSubTree("AB", 1, 1).ok());   // duplicate
  EXPECT_FALSE(trie.InsertSubTree("", 2, 1).ok());     // empty
  ASSERT_TRUE(trie.InsertTerminalLeaf("A", 5).ok());
  EXPECT_FALSE(trie.InsertTerminalLeaf("A", 6).ok());  // duplicate leaf
}

TEST(TrieTest, TotalFrequencyAggregates) {
  PrefixTrie trie;
  ASSERT_TRUE(trie.InsertSubTree("AA", 0, 10).ok());
  ASSERT_TRUE(trie.InsertSubTree("AB", 1, 20).ok());
  ASSERT_TRUE(trie.InsertTerminalLeaf("A", 7).ok());
  ASSERT_TRUE(trie.InsertTerminalLeaf("", 99).ok());
  EXPECT_EQ(trie.TotalFrequency(0), 32u);  // 10 + 20 + 2 terminal leaves
}

TEST(TrieTest, CollectInOrderIsLexicographic) {
  PrefixTrie trie;
  ASSERT_TRUE(trie.InsertSubTree("TGG", 0, 1).ok());
  ASSERT_TRUE(trie.InsertSubTree("TGA", 1, 1).ok());
  ASSERT_TRUE(trie.InsertSubTree("A", 2, 1).ok());
  ASSERT_TRUE(trie.InsertTerminalLeaf("TG", 50).ok());
  ASSERT_TRUE(trie.InsertTerminalLeaf("", 99).ok());

  std::vector<int32_t> ids;
  std::vector<uint64_t> leaves;
  trie.CollectInOrder(0, &ids, &leaves);
  // Lexicographic: A(2), TGA(1), TGG(0); terminal leaves: TG~ then ~...
  EXPECT_EQ(ids, (std::vector<int32_t>{2, 1, 0}));
  // "TG~" < "~" because 'T' < '~'.
  EXPECT_EQ(leaves, (std::vector<uint64_t>{50, 99}));
}

TEST(TrieTest, SerializeDeserializeRoundTrip) {
  PrefixTrie trie;
  ASSERT_TRUE(trie.InsertSubTree("ACG", 0, 11).ok());
  ASSERT_TRUE(trie.InsertSubTree("ACT", 1, 22).ok());
  ASSERT_TRUE(trie.InsertSubTree("G", 2, 33).ok());
  ASSERT_TRUE(trie.InsertTerminalLeaf("AC", 5).ok());
  ASSERT_TRUE(trie.InsertTerminalLeaf("", 44).ok());

  auto back = PrefixTrie::Deserialize(trie.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), trie.size());
  EXPECT_EQ(back->TotalFrequency(0), trie.TotalFrequency(0));

  std::vector<int32_t> ids1, ids2;
  std::vector<uint64_t> l1, l2;
  trie.CollectInOrder(0, &ids1, &l1);
  back->CollectInOrder(0, &ids2, &l2);
  EXPECT_EQ(ids1, ids2);
  EXPECT_EQ(l1, l2);

  auto r = back->Descend("ACT");
  EXPECT_TRUE(r.pattern_exhausted);
  EXPECT_EQ(back->node(r.node).subtree_id, 1);
}

TEST(TrieTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(PrefixTrie::Deserialize("").ok());
  EXPECT_FALSE(PrefixTrie::Deserialize("abc").ok());
  std::string valid = PrefixTrie().Serialize();
  EXPECT_FALSE(
      PrefixTrie::Deserialize(valid + "trailing garbage").ok());
}

TEST(TreeIndexTest, SaveLoadRoundTrip) {
  MemEnv env;
  std::string text = testing::RandomText(Alphabet::Dna(), 200, 8);

  TreeIndex index;
  TextInfo info{"/text", static_cast<uint64_t>(text.size()), Alphabet::Dna()};
  index.SetText(info);

  auto tree = BuildUkkonenTree(text);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(env.CreateDir("/idx").ok());
  ASSERT_TRUE(WriteSubTree(&env, "/idx/st_0", "A", *tree, nullptr).ok());
  uint32_t id = index.AddSubTree("A", 42, "st_0");
  ASSERT_TRUE(index.mutable_trie().InsertSubTree("A", id, 42).ok());
  ASSERT_TRUE(index.Save(&env, "/idx").ok());

  auto loaded = TreeIndex::Load(&env, "/idx");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->text().length, text.size());
  EXPECT_EQ(loaded->text().alphabet.symbols(), "ACGT");
  ASSERT_EQ(loaded->subtrees().size(), 1u);
  EXPECT_EQ(loaded->subtrees()[0].prefix, "A");
  EXPECT_EQ(loaded->subtrees()[0].frequency, 42u);

  IoStats stats;
  auto sub = loaded->OpenSubTree(&env, 0, &stats);
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ((*sub)->size(), tree->size());
  EXPECT_GT(stats.bytes_read, 0u);

  // Second open comes from cache: stats unchanged.
  uint64_t bytes = stats.bytes_read;
  auto sub2 = loaded->OpenSubTree(&env, 0, &stats);
  ASSERT_TRUE(sub2.ok());
  EXPECT_EQ(stats.bytes_read, bytes);

  loaded->EvictCache();
  auto sub3 = loaded->OpenSubTree(&env, 0, &stats);
  ASSERT_TRUE(sub3.ok());
  EXPECT_GT(stats.bytes_read, bytes);
}

TEST(TreeIndexTest, LoadRejectsMissingOrBadManifest) {
  MemEnv env;
  EXPECT_FALSE(TreeIndex::Load(&env, "/nope").ok());
  ASSERT_TRUE(env.WriteFile("/bad/MANIFEST", "format: other-thing\n").ok());
  EXPECT_FALSE(TreeIndex::Load(&env, "/bad").ok());
}

TEST(ValidatorTest, DetectsMutations) {
  std::string text = testing::RandomText(Alphabet::Dna(), 300, 15);
  auto tree = BuildUkkonenTree(text);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(ValidateSubTree(*tree, text, "").ok());

  // Swap two leaves' ids: breaks suffix/path correspondence.
  TreeBuffer broken = *tree;
  std::vector<uint32_t> leaf_nodes;
  for (uint32_t i = 0; i < broken.size(); ++i) {
    if (broken.node(i).IsLeaf()) leaf_nodes.push_back(i);
  }
  ASSERT_GE(leaf_nodes.size(), 2u);
  std::swap(broken.node(leaf_nodes[0]).leaf_id,
            broken.node(leaf_nodes[1]).leaf_id);
  EXPECT_FALSE(ValidateSubTree(broken, text, "").ok());

  // Out-of-range edge.
  TreeBuffer broken2 = *tree;
  broken2.node(leaf_nodes[0]).edge_start = text.size() + 100;
  EXPECT_FALSE(ValidateSubTree(broken2, text, "").ok());

  // Cycle: point a child pointer back at the root.
  TreeBuffer broken3 = *tree;
  broken3.node(leaf_nodes[0]).leaf_id = kNoLeaf;
  broken3.node(leaf_nodes[0]).first_child = 0;
  EXPECT_FALSE(ValidateSubTree(broken3, text, "").ok());
}

}  // namespace
}  // namespace era
