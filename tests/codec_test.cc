// Codec-layer tests for the v4 compressed sub-tree format: varint/zigzag
// round-trips, bit-packing at every width (including the 0 and 64 edges),
// randomized fuzz against a reference model, the encoder's slot placement
// from a linked TreeBuffer (structure, counts, rejected non-trees, pinned
// payload checksums), and payload-level corruption — every truncation of a
// valid payload and every broken format invariant must decode to
// Corruption, never to a wrong tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/crc32.h"
#include "era/parallel_builder.h"
#include "io/mem_env.h"
#include "suffixtree/canonical.h"
#include "suffixtree/compressed_tree.h"
#include "suffixtree/serializer.h"
#include "suffixtree/tree_buffer.h"
#include "suffixtree/validator.h"
#include "tests/test_util.h"
#include "text/corpus.h"
#include "ukkonen/ukkonen.h"

namespace era {
namespace {

TEST(VarintTest, RoundTripsBoundaryValues) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             129,
                             16383,
                             16384,
                             (1ull << 21) - 1,
                             1ull << 21,
                             (1ull << 35) + 17,
                             (1ull << 56) - 1,
                             1ull << 63,
                             std::numeric_limits<uint64_t>::max()};
  std::string buf;
  for (uint64_t v : values) PutVarint64(&buf, v);
  std::size_t pos = 0;
  for (uint64_t v : values) {
    uint64_t decoded = 0;
    ASSERT_TRUE(GetVarint64(buf.data(), buf.size(), &pos, &decoded));
    EXPECT_EQ(decoded, v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(VarintTest, RejectsTruncationAndOverlongEncodings) {
  std::string buf;
  PutVarint64(&buf, std::numeric_limits<uint64_t>::max());
  // Every strict prefix of a varint is a truncation error.
  for (std::size_t len = 0; len < buf.size(); ++len) {
    std::size_t pos = 0;
    uint64_t out = 0;
    EXPECT_FALSE(GetVarint64(buf.data(), len, &pos, &out)) << len;
  }
  // Ten continuation bytes: the encoding claims > 64 bits.
  std::string overlong(10, static_cast<char>(0x80));
  std::size_t pos = 0;
  uint64_t out = 0;
  EXPECT_FALSE(GetVarint64(overlong.data(), overlong.size(), &pos, &out));
  // A 10th byte above 1 overflows 64 bits even with a clear top bit.
  std::string overflow(9, static_cast<char>(0xFF));
  overflow.push_back(0x02);
  pos = 0;
  EXPECT_FALSE(GetVarint64(overflow.data(), overflow.size(), &pos, &out));
}

TEST(ZigZagTest, RoundTripsAndOrdersSmallMagnitudes) {
  const int64_t values[] = {0, -1, 1, -2, 2, 1000, -1000,
                            std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()};
  for (int64_t v : values) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v) << v;
  }
  // Small magnitudes of either sign must stay 1-byte varints.
  EXPECT_LT(ZigZagEncode(-64), 128u);
  EXPECT_LT(ZigZagEncode(63), 128u);
}

TEST(BitWidthTest, MatchesDefinition) {
  EXPECT_EQ(BitWidth(0), 0u);
  EXPECT_EQ(BitWidth(1), 1u);
  EXPECT_EQ(BitWidth(2), 2u);
  EXPECT_EQ(BitWidth(3), 2u);
  EXPECT_EQ(BitWidth(255), 8u);
  EXPECT_EQ(BitWidth(256), 9u);
  EXPECT_EQ(BitWidth(std::numeric_limits<uint64_t>::max()), 64u);
  for (uint32_t w = 1; w <= 64; ++w) {
    EXPECT_EQ(BitWidth(MaskLow(w)), w);
    if (w < 64) EXPECT_EQ(BitWidth(1ull << w), w + 1);
  }
}

TEST(BitPackTest, RoundTripsEveryWidth) {
  // For each width, write boundary values and read them back at computed
  // offsets, exactly as the packed node records do.
  for (uint32_t width = 0; width <= 64; ++width) {
    std::vector<uint64_t> values = {0, MaskLow(width),
                                    MaskLow(width) >> 1,
                                    width == 0 ? 0 : 1ull};
    BitWriter writer;
    for (uint64_t v : values) writer.Put(v, width);
    writer.Finish();
    std::string bytes = writer.TakeBytes();
    bytes.append(kBitReaderPadBytes, '\0');
    BitReader reader(bytes.data(), bytes.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(reader.Get(i * width, width), values[i])
          << "width=" << width << " i=" << i;
    }
  }
}

TEST(BitPackTest, FuzzMixedWidthRecordsAgainstModel) {
  // Random records of six random-width fields (a packed-record shape),
  // written once and then read back in random access order.
  std::mt19937_64 rng(20260807);
  for (int round = 0; round < 50; ++round) {
    std::vector<uint32_t> widths(6);
    uint32_t record_bits = 0;
    for (uint32_t& w : widths) {
      w = static_cast<uint32_t>(rng() % 65);
      record_bits += w;
    }
    if (record_bits == 0) continue;
    const std::size_t num_records = 1 + rng() % 200;

    std::vector<std::vector<uint64_t>> model(num_records);
    BitWriter writer;
    for (std::size_t r = 0; r < num_records; ++r) {
      for (uint32_t w : widths) {
        const uint64_t v = rng() & MaskLow(w);
        model[r].push_back(v);
        writer.Put(v, w);
      }
    }
    writer.Finish();
    std::string bytes = writer.TakeBytes();
    EXPECT_EQ(bytes.size(),
              (static_cast<uint64_t>(record_bits) * num_records + 7) / 8);
    bytes.append(kBitReaderPadBytes, '\0');
    BitReader reader(bytes.data(), bytes.size());

    std::vector<std::size_t> order(num_records);
    for (std::size_t r = 0; r < num_records; ++r) order[r] = r;
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t r : order) {
      uint64_t bit = static_cast<uint64_t>(r) * record_bits;
      for (std::size_t f = 0; f < widths.size(); ++f) {
        EXPECT_EQ(reader.Get(bit, widths[f]), model[r][f])
            << "round=" << round << " record=" << r << " field=" << f;
        bit += widths[f];
      }
    }
  }
}

TreeBuffer EncodableTree(uint64_t text_bytes, uint64_t seed) {
  std::string text = testing::RandomText(Alphabet::Dna(), text_bytes, seed);
  auto tree = BuildUkkonenTree(text);
  EXPECT_TRUE(tree.ok());
  return tree.ok() ? std::move(*tree) : TreeBuffer();
}

std::string Encode(const TreeBuffer& tree) {
  auto payload = ServedSubTree::EncodePayload(tree);
  EXPECT_TRUE(payload.ok()) << payload.status().ToString();
  return payload.ok() ? *payload : std::string();
}

TEST(CompressedPayloadTest, RoundTripsExactly) {
  for (uint64_t seed : {1u, 7u, 23u}) {
    TreeBuffer tree = EncodableTree(1500, seed);
    std::string payload = Encode(tree);
    auto packed = ServedSubTree::FromPayload(payload, tree.size());
    ASSERT_TRUE(packed.ok()) << packed.status().ToString();
    EXPECT_EQ(packed->size(), tree.size());
    EXPECT_EQ(packed->LeafCount(), CountLeaves(tree));
    EXPECT_EQ(packed->MemoryBytes(),
              ServedSubTree::ServingBytes(payload.size(), tree.size()) +
                  sizeof(ServedSubTree));
    // Deterministic encoding: same tree, same bytes.
    EXPECT_EQ(Encode(tree), payload);

    // Slot i inflates to node i with its child block as a sibling chain, so
    // the inflated tree re-encodes to the same bytes.
    const TreeBuffer inflated = packed->Inflate();
    ASSERT_EQ(inflated.size(), tree.size());
    EXPECT_EQ(Encode(inflated), payload);
    EXPECT_EQ(TreeToSaLcp(inflated), TreeToSaLcp(tree));
    for (uint32_t i = 0; i < inflated.size(); ++i) {
      const NodeView v = packed->node(i);
      const TreeNode& u = inflated.node(i);
      EXPECT_EQ(u.edge_start, v.edge_start);
      EXPECT_EQ(u.edge_len, v.edge_len);
      EXPECT_EQ(u.first_symbol, v.first_symbol);
      EXPECT_EQ(u.IsLeaf(), v.IsLeaf());
      if (v.IsLeaf()) {
        EXPECT_EQ(u.leaf_id, packed->LeafId(v.leaf_ref));
      } else {
        EXPECT_EQ(u.first_child, v.children_begin);
        EXPECT_EQ(inflated.CountChildren(i), v.num_children);
      }
    }
  }
}

TEST(CompressedPayloadTest, EncodingKeepsStructureAndCounts) {
  std::string text = testing::RepetitiveText(Alphabet::Dna(), 600, 9);
  auto tree = BuildUkkonenTree(text);
  ASSERT_TRUE(tree.ok());
  const std::string payload = Encode(*tree);
  auto served = ServedSubTree::FromPayload(payload, tree->size());
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->size(), tree->size());
  EXPECT_EQ(served->LeafCount(), CountLeaves(*tree));
  // Root slot 0, no incoming edge; every internal node's child block sits
  // strictly after it and the stored counts aggregate correctly.
  EXPECT_EQ(served->node(0).edge_len, 0u);
  for (uint32_t i = 0; i < served->size(); ++i) {
    const NodeView v = served->node(i);
    if (v.IsLeaf()) continue;
    EXPECT_GT(v.children_begin, i);
    uint64_t total = 0;
    for (uint32_t c = 0; c < v.num_children; ++c) {
      total += served->node(v.children_begin + c).count;
    }
    EXPECT_EQ(total, v.count);
  }
  EXPECT_EQ(TreeToSaLcp(*served), TreeToSaLcp(*tree));
  const TreeBuffer inflated = served->Inflate();
  EXPECT_EQ(TreeToSaLcp(inflated), TreeToSaLcp(*tree));
  EXPECT_TRUE(ValidateSubTree(inflated, text, "").ok());
  EXPECT_TRUE(ValidateSubTree(*served, text, "").ok());
}

/// Deterministic text over `alphabet` that leans on no standard-library
/// distribution: splitmix64 symbols, with one in 16 draws copying an earlier
/// stretch instead (repeats give deep trees). Terminal appended.
std::string PinnedText(const Alphabet& alphabet, std::size_t body_len,
                       uint64_t seed) {
  uint64_t state = seed;
  auto next = [&state] {
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  std::string text;
  while (text.size() < body_len) {
    const uint64_t r = next();
    if (text.size() > 64 && r % 16 == 0) {
      const std::size_t len = 8 + (r >> 8) % 48;
      const std::size_t src = (r >> 16) % (text.size() - len);
      text += text.substr(src, len);
    } else {
      text.push_back(alphabet.Symbol(static_cast<int>(r % alphabet.size())));
    }
  }
  text.resize(body_len);
  text.push_back(alphabet.terminal());
  return text;
}

/// CRC-32C of the payload of the sub-tree file at `path` (everything after
/// the 32-byte header and the prefix).
uint32_t PayloadCrc(MemEnv* env, const std::string& path) {
  std::string file;
  EXPECT_TRUE(env->ReadFileToString(path, &file).ok());
  uint32_t prefix_len = 0;
  EXPECT_GE(file.size(), 32u);
  std::memcpy(&prefix_len, file.data() + 12, sizeof(prefix_len));
  const std::size_t payload = 32 + prefix_len;
  EXPECT_LE(payload, file.size());
  return Crc32c(file.data() + payload, file.size() - payload);
}

TEST(CompressedPayloadTest, PinnedPayloadChecksums) {
  // The encoder's output is part of the format: a change to slot placement,
  // widths or the leaf stream shows up here before it reaches an index.
  // Each payload is written through WriteSubTree, so the check reads the
  // same bytes whatever the in-memory path to them.
  MemEnv env;
  const struct {
    const char* name;
    Alphabet alphabet;
    uint32_t crc;
  } texts[] = {{"dna", Alphabet::Dna(), 1261016518u},
               {"protein", Alphabet::Protein(), 3894615662u},
               {"english", Alphabet::English(), 2229760900u}};
  for (const auto& t : texts) {
    auto tree = BuildUkkonenTree(PinnedText(t.alphabet, 2048, 11));
    ASSERT_TRUE(tree.ok()) << t.name;
    const std::string path = std::string("/") + t.name;
    ASSERT_TRUE(WriteSubTree(&env, path, "", *tree, nullptr).ok()) << t.name;
    EXPECT_EQ(PayloadCrc(&env, path), t.crc) << t.name;
  }

  // One sub-tree of an ERA build: the builder's node order and a non-empty
  // prefix.
  const std::string text = PinnedText(Alphabet::Dna(), 4096, 12);
  auto info = MaterializeText(&env, "/text", Alphabet::Dna(), text);
  ASSERT_TRUE(info.ok());
  BuildOptions options;
  options.env = &env;
  options.work_dir = "/idx";
  options.memory_budget = 256 << 10;
  options.input_buffer_bytes = 4096;
  auto result = ParallelBuilder(options, 1).Build(*info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<SubTreeEntry>& subtrees = result->index.subtrees();
  ASSERT_GT(subtrees.size(), 1u);
  const SubTreeEntry& entry = subtrees[subtrees.size() / 2];
  EXPECT_EQ(entry.prefix, "G");
  EXPECT_EQ(PayloadCrc(&env, "/idx/" + entry.filename), 2608087827u);
}

TEST(CompressedPayloadTest, EveryTruncationIsCorruption) {
  TreeBuffer tree = EncodableTree(600, 5);
  std::string payload = Encode(tree);
  ASSERT_GT(payload.size(), 80u);
  // Check every length near the structural boundaries plus a sample of the
  // rest (full O(n^2) is slow for no extra coverage).
  for (std::size_t len = 0; len < payload.size(); ++len) {
    if (len > 100 && len + 100 < payload.size() && len % 37 != 0) continue;
    auto packed =
        ServedSubTree::FromPayload(payload.substr(0, len), tree.size());
    EXPECT_FALSE(packed.ok()) << "len=" << len;
    if (!packed.ok()) {
      EXPECT_TRUE(packed.status().IsCorruption()) << "len=" << len;
    }
  }
  // Trailing garbage is just as dead.
  auto padded = ServedSubTree::FromPayload(payload + "x", tree.size());
  EXPECT_FALSE(padded.ok());
  // A wrong node count cannot pass the size checks.
  EXPECT_FALSE(ServedSubTree::FromPayload(payload, tree.size() - 1).ok());
  EXPECT_FALSE(ServedSubTree::FromPayload(payload, tree.size() + 1).ok());
}

TEST(CompressedPayloadTest, HeaderTamperingIsCorruption) {
  TreeBuffer tree = EncodableTree(600, 11);
  std::string payload = Encode(tree);
  // Flipping any declared width breaks the w == BitWidth(max) rule or the
  // total-size equation; both must be caught.
  for (std::size_t off = offsetof(PackedHeader, w_leaf_edge_start);
       off <= offsetof(PackedHeader, w_symbol_rank); ++off) {
    std::string bad = payload;
    bad[off] = static_cast<char>(bad[off] + 1);
    EXPECT_FALSE(ServedSubTree::FromPayload(bad, tree.size()).ok())
        << "width byte " << off;
  }
}

/// Byte offsets of a payload's sections, for tampering with them.
struct PayloadLayout {
  PackedHeader header;
  std::size_t leaf_bits = 0;
  std::size_t internal_records = 0;
};

PayloadLayout LayoutOf(const std::string& payload, uint64_t node_count) {
  PayloadLayout layout;
  std::memcpy(&layout.header, payload.data(), sizeof(PackedHeader));
  const PackedSections s = PackedSections::Of(layout.header, node_count);
  layout.leaf_bits = sizeof(PackedHeader) + s.symbols;
  layout.internal_records = layout.leaf_bits + s.leaf_bits + s.symbol_ranks;
  return layout;
}

/// Overwrites `width` bits at bit `bit` of the section at byte `section`.
void PokeBits(std::string* payload, std::size_t section, uint64_t bit,
              uint32_t width, uint64_t value) {
  for (uint32_t k = 0; k < width; ++k) {
    char& byte = (*payload)[section + (bit + k) / 8];
    const char mask = static_cast<char>(1u << ((bit + k) % 8));
    byte = static_cast<char>(((value >> k) & 1) ? (byte | mask)
                                                 : (byte & ~mask));
  }
}

void ExpectCorruption(const std::string& payload, uint64_t node_count,
                      const std::string& needle) {
  auto packed = ServedSubTree::FromPayload(payload, node_count);
  ASSERT_FALSE(packed.ok()) << "tampering with " << needle << " undetected";
  EXPECT_TRUE(packed.status().IsCorruption()) << packed.status().ToString();
  EXPECT_NE(packed.status().message().find(needle), std::string::npos)
      << packed.status().ToString();
}

/// The fields of an internal record, in record order.
enum InternalField {
  kEdgeStart,
  kEdgeLen,
  kCount,
  kChildrenBegin,
  kNumChildren,
};

/// Overwrites field `field` of the internal record with internal rank
/// `rank` (the rank among internal slots).
void PokeInternal(std::string* payload, uint64_t node_count, uint64_t rank,
                  InternalField field, uint64_t value) {
  const PayloadLayout layout = LayoutOf(*payload, node_count);
  const PackedHeader& h = layout.header;
  const uint32_t widths[] = {h.w_edge_start, h.w_edge_len, h.w_count,
                             h.w_children_begin, h.w_num_children};
  uint64_t bit = 0;
  for (uint32_t w : widths) bit += w;
  bit *= rank;
  for (int f = 0; f < field; ++f) bit += widths[f];
  PokeBits(payload, layout.internal_records, bit, widths[field], value);
}

TEST(CompressedPayloadTest, BrokenLeafSplitInvariantsAreCorruption) {
  TreeBuffer tree = EncodableTree(600, 17);
  const std::string payload = Encode(tree);
  auto served = ServedSubTree::FromPayload(payload, tree.size());
  ASSERT_TRUE(served.ok());
  const PayloadLayout layout = LayoutOf(payload, tree.size());
  uint32_t first_leaf = 0;
  while (!served->node(first_leaf).IsLeaf()) ++first_leaf;

  // One leaf bit cleared: the popcount no longer matches leaf_count.
  std::string bad = payload;
  PokeBits(&bad, layout.leaf_bits, first_leaf, 1, 0);
  ExpectCorruption(bad, tree.size(), "popcount");

  // The root marked as a leaf (with another leaf bit cleared, so the
  // popcount still matches).
  PokeBits(&bad, layout.leaf_bits, 0, 1, 1);
  ExpectCorruption(bad, tree.size(), "root");

  // A leaf edge that starts at the shared leaf edge end.
  bad = payload;
  const uint64_t end = layout.header.max_leaf_edge_start;
  std::memcpy(bad.data() + offsetof(PackedHeader, leaf_edge_end), &end,
              sizeof(end));
  ExpectCorruption(bad, tree.size(), "leaf edge end");

  // The root's child block starting at slot 0 (before the root's own slot).
  bad = payload;
  PokeInternal(&bad, tree.size(), 0, kChildrenBegin, 0);
  ExpectCorruption(bad, tree.size(), "child block out of bounds");

  // A leaf-record width one bit wider than its maximum needs.
  bad = payload;
  ++bad[offsetof(PackedHeader, w_leaf_edge_start)];
  ExpectCorruption(bad, tree.size(), "width-minimal");
}

TEST(CompressedPayloadTest, LeavesEndingApartFailWriteSubTree) {
  // Root with two leaf children whose edges end at 9 and 8: the packed
  // format keeps one leaf edge end per sub-tree, so the writer refuses.
  TreeBuffer tree;
  const uint32_t a = tree.AddNode();
  const uint32_t b = tree.AddNode();
  tree.node(a) = TreeNode{.edge_start = 3, .leaf_id = 3, .edge_len = 6,
                          .first_symbol = 'A'};
  tree.node(b) = TreeNode{.edge_start = 5, .leaf_id = 5, .edge_len = 3,
                          .first_symbol = 'C'};
  tree.AppendChildLast(0, a);
  tree.AppendChildLast(0, b);
  MemEnv env;
  Status s = WriteSubTree(&env, "/st", "", tree, nullptr);
  EXPECT_TRUE(s.IsInternal()) << s.ToString();
  EXPECT_FALSE(env.FileExists("/st"));

  // The same tree with both edges ending at 9 writes and reads back.
  tree.node(b).edge_len = 4;
  ASSERT_TRUE(WriteSubTree(&env, "/st", "", tree, nullptr).ok());
  ServedSubTree served;
  ASSERT_TRUE(ReadServedSubTree(&env, "/st", &served, nullptr, nullptr).ok());
  EXPECT_EQ(served.node(2).edge_len, 4u);
}

TEST(CompressedPayloadTest, MalformedLinkedTreesFailWriteSubTree) {
  MemEnv env;
  auto expect_refused = [&env](const TreeBuffer& tree, const char* what,
                               bool internal) {
    const Status s = WriteSubTree(&env, "/st", "", tree, nullptr);
    EXPECT_TRUE(internal ? s.IsInternal() : s.IsCorruption())
        << what << ": " << s.ToString();
    EXPECT_FALSE(env.FileExists("/st")) << what;
    EXPECT_FALSE(env.FileExists("/st.tmp")) << what;
  };

  // Cycle through first_child.
  TreeBuffer cyclic;
  const uint32_t a = cyclic.AddNode();
  cyclic.node(0).first_child = a;
  cyclic.node(a).first_child = 0;
  expect_refused(cyclic, "cycle", false);

  // One leaf linked under two parents.
  TreeBuffer shared;
  const uint32_t p = shared.AddNode();
  const uint32_t q = shared.AddNode();
  const uint32_t leaf = shared.AddNode();
  shared.node(leaf) = TreeNode{.edge_start = 1, .leaf_id = 1, .edge_len = 1,
                               .first_symbol = 'A'};
  shared.AppendChildLast(0, p);
  shared.AppendChildLast(0, q);
  shared.node(p).first_child = leaf;
  shared.node(q).first_child = leaf;
  expect_refused(shared, "shared child", false);

  // Childless internal node (includes the degenerate root-only arena).
  expect_refused(TreeBuffer(), "root only", false);

  // Orphan: node never linked under the root.
  TreeBuffer orphan;
  const uint32_t linked = orphan.AddNode();
  orphan.node(linked).leaf_id = 0;
  orphan.node(linked).edge_len = 1;
  orphan.node(0).first_child = linked;
  orphan.AddNode();  // never linked
  expect_refused(orphan, "orphan", false);

  // A leaf root indexes one suffix with no edge: v4 cannot hold it.
  TreeBuffer leaf_root;
  leaf_root.node(0).leaf_id = 0;
  expect_refused(leaf_root, "leaf root", true);
}

/// A hand-made tree for layout tampering: `children[u]` lists node u's
/// children (node 0 is the root); a node without children is a leaf. Edges
/// carry only what the encoder needs: ascending first symbols in each child
/// block and one leaf edge end (100). Listing nodes in the canonical DFS
/// slot order makes node ids equal slots.
TreeBuffer ShapedTree(const std::vector<std::vector<uint32_t>>& children) {
  TreeBuffer tree;
  for (std::size_t i = 1; i < children.size(); ++i) tree.AddNode();
  uint64_t leaf_id = 0;
  for (uint32_t u = 0; u < children.size(); ++u) {
    char symbol = 'A';
    for (uint32_t c : children[u]) {
      TreeNode& child = tree.node(c);
      child.first_symbol = static_cast<uint8_t>(symbol++);
      child.edge_start = c;
      child.edge_len = children[c].empty() ? 100 - c : 1;
      if (children[c].empty()) child.leaf_id = leaf_id++;
      tree.AppendChildLast(u, c);
    }
  }
  return tree;
}

TEST(CompressedPayloadTest, NonCanonicalBlockLayoutsAreCorruption) {
  // Every count and bound below stays plausible record by record; only the
  // canonical DFS layout check can tell. Without it a node's contiguous
  // leaf range could surface another subtree's leaves.
  //
  //   slot 0 root  -> 1 P, 2 Q      internal ranks: root 0, P 1, Q 2, R 3
  //   slot 1 P     -> 3 x, 4 R      children_begin: root 1, P 3, Q 7, R 5
  //   slot 4 R     -> 5, 6
  //   slot 2 Q     -> 7, 8
  const TreeBuffer tree =
      ShapedTree({{1, 2}, {3, 4}, {7, 8}, {}, {5, 6}, {}, {}, {}, {}});
  const std::string payload = Encode(tree);
  auto served = ServedSubTree::FromPayload(payload, tree.size());
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_EQ(served->node(1).children_begin, 3u);
  ASSERT_EQ(served->node(2).children_begin, 7u);
  ASSERT_EQ(served->node(4).children_begin, 5u);

  // Q's and R's blocks swapped: Q's leaves sit inside P's range, so P's and
  // Q's descendants interleave.
  std::string bad = payload;
  PokeInternal(&bad, tree.size(), 2, kChildrenBegin, 5);
  PokeInternal(&bad, tree.size(), 3, kChildrenBegin, 7);
  ExpectCorruption(bad, tree.size(), "descendant blocks are not contiguous");

  // P's and Q's blocks swapped: Q now claims x and R, three leaves against
  // its stored count of two.
  bad = payload;
  PokeInternal(&bad, tree.size(), 1, kChildrenBegin, 7);
  PokeInternal(&bad, tree.size(), 2, kChildrenBegin, 3);
  ExpectCorruption(bad, tree.size(), "inconsistent subtree leaf count");

  // A stored count alone off by one.
  bad = payload;
  PokeInternal(&bad, tree.size(), 3, kCount, 3);
  ExpectCorruption(bad, tree.size(), "inconsistent subtree leaf count");

  // slot 0 root -> 1 L, 2 A;  slot 2 A -> 3, 4. The root drops A from its
  // block and counts only L, and the header's count maximum follows (2 and
  // 3 need the same width): every record is consistent, but A's subtree is
  // reached from nowhere.
  const TreeBuffer small = ShapedTree({{1, 2}, {}, {3, 4}, {}, {}});
  bad = Encode(small);
  ASSERT_TRUE(ServedSubTree::FromPayload(bad, small.size()).ok());
  PokeInternal(&bad, small.size(), 0, kNumChildren, 1);
  PokeInternal(&bad, small.size(), 0, kCount, 1);
  const uint64_t max_count = 2;
  std::memcpy(bad.data() + offsetof(PackedHeader, max_count), &max_count,
              sizeof(max_count));
  ExpectCorruption(bad, small.size(), "unreachable nodes");
}

TEST(CompressedPayloadTest, LazyLeafRangesMatchFullDecode) {
  TreeBuffer tree = EncodableTree(2000, 13);
  std::string payload = Encode(tree);
  auto packed = ServedSubTree::FromPayload(std::move(payload), tree.size());
  ASSERT_TRUE(packed.ok());

  std::vector<uint64_t> all;
  ASSERT_TRUE(packed
                  ->DecodeLeafRange(0, packed->LeafCount(), nullptr,
                                    packed->LeafCount(), &all)
                  .ok());
  ASSERT_EQ(all.size(), packed->LeafCount());
  for (uint64_t rank = 0; rank < packed->LeafCount(); rank += 17) {
    EXPECT_EQ(packed->LeafId(rank), all[rank]);
  }

  std::mt19937_64 rng(99);
  for (int round = 0; round < 40; ++round) {
    const uint64_t begin = rng() % all.size();
    const uint64_t count = rng() % (all.size() - begin + 1);
    const std::size_t limit = static_cast<std::size_t>(rng() % (count + 2));
    std::vector<uint64_t> got;
    ASSERT_TRUE(
        packed->DecodeLeafRange(begin, count, nullptr, limit, &got).ok());
    const std::size_t expect = std::min<std::size_t>(limit, count);
    ASSERT_EQ(got.size(), expect);
    for (std::size_t i = 0; i < expect; ++i) {
      EXPECT_EQ(got[i], all[begin + i]);
    }
  }
}

}  // namespace
}  // namespace era
