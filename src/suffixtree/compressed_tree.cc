#include "suffixtree/compressed_tree.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/query_context.h"

namespace era {

namespace {

/// Leaf-stream restart block size: one absolute varint every this many
/// values. 64 keeps a bounded-Locate seek to at most 63 skipped varints
/// while costing one uint64 restart slot per 64 leaves.
constexpr uint32_t kLeafRestartInterval = 64;

/// Cancellation/deadline poll period inside decode loops.
constexpr uint64_t kCtxCheckStride = 4096;

/// Slots per leaf-bits word, and so per rank sample.
constexpr uint64_t kSlotsPerWord = 64;

uint64_t ReadRestart(const std::string& blob, uint64_t restarts_off,
                     uint64_t block) {
  uint64_t v;
  std::memcpy(&v, blob.data() + restarts_off + block * sizeof(uint64_t),
              sizeof(v));
  return v;
}

uint64_t LeafBitsWords(uint64_t slots) {
  return (slots + kSlotsPerWord - 1) / kSlotsPerWord;
}

/// Bytes of `fields` bit-packed fields of `width` bits each.
uint64_t PackedBytes(uint64_t fields, uint32_t width) {
  return (fields * width + 7) / 8;
}

uint32_t InternalRecordBits(const PackedHeader& h) {
  return uint32_t{h.w_edge_start} + h.w_edge_len + h.w_count +
         h.w_children_begin + h.w_num_children;
}

}  // namespace

PackedSections PackedSections::Of(const PackedHeader& h,
                                  uint64_t node_count) {
  PackedSections s;
  s.symbols = h.num_symbols;
  s.leaf_bits = LeafBitsWords(node_count) * sizeof(uint64_t);
  s.symbol_ranks = PackedBytes(node_count, h.w_symbol_rank);
  s.internal_records =
      PackedBytes(node_count - h.leaf_count, InternalRecordBits(h));
  s.leaf_records = PackedBytes(h.leaf_count, h.w_leaf_edge_start);
  s.restarts = uint64_t{h.num_restarts} * sizeof(uint64_t);
  s.leaf_stream = h.leaf_stream_bytes;
  return s;
}

uint64_t PackedSections::PayloadBytes() const {
  return sizeof(PackedHeader) + symbols + leaf_bits + symbol_ranks +
         internal_records + leaf_records + restarts + leaf_stream;
}

StatusOr<std::string> ServedSubTree::EncodePayload(const TreeBuffer& tree) {
  const uint32_t n = tree.size();
  if (n == 0) return Status::Corruption("cannot encode an empty tree");
  const TreeNode& root = tree.node(0);
  if (root.first_child == kNilNode) {
    // A sub-tree that indexes no suffix is never written, so fail loudly
    // instead of encoding it.
    if (!root.IsLeaf()) return Status::Corruption("childless internal node");
    if (n != 1) return Status::Corruption("orphan nodes in linked tree");
    return Status::Internal("packed sub-tree needs an internal root");
  }
  PackedHeader h;
  h.leaf_restart_interval = kLeafRestartInterval;
  h.max_edge_start = root.edge_start;
  h.max_edge_len = root.edge_len;

  // Slot placement, depth-first: popping a node gives its children one
  // contiguous block at the tail, then descends into the first child, so
  // the strict descendants of every node occupy one contiguous slot range
  // starting at its children_begin (the layout the file comment describes).
  // Sibling order — lexicographic, as every builder keeps it — is the block
  // order. Per slot the encoder keeps the node id, children_begin (0 for a
  // leaf: every block starts past slot 0), the child count and the subtree
  // leaf count, 16 bytes in all; it reads each node's own fields only while
  // placing it and while packing it. Placing a child also gathers its leaf
  // bit, its first symbol and the per-field edge maxima (internal and leaf
  // records apart).
  std::vector<uint32_t> node_of(n);
  std::vector<uint32_t> children_begin(n, 0);
  std::vector<uint32_t> num_children(n, 0);
  std::vector<uint32_t> count(n, 1);
  std::vector<uint64_t> leaf_bits(LeafBitsWords(n), 0);
  std::vector<char> placed(n, 0);  // by node id: rejects cycles and DAGs
  std::vector<uint32_t> stack;     // internal slots whose children are unplaced
  bool used[256] = {};
  auto is_leaf_slot = [&leaf_bits](uint32_t slot) {
    return ((leaf_bits[slot / kSlotsPerWord] >> (slot % kSlotsPerWord)) & 1) !=
           0;
  };
  node_of[0] = 0;
  placed[0] = 1;
  stack.push_back(0);
  uint32_t next_slot = 1;
  while (!stack.empty()) {
    const uint32_t slot = stack.back();
    stack.pop_back();
    const uint32_t block_begin = next_slot;
    for (uint32_t c = tree.node(node_of[slot]).first_child; c != kNilNode;
         c = tree.node(c).next_sibling) {
      if (c >= n) return Status::Corruption("child id out of range");
      if (placed[c]) {
        return Status::Corruption("linked structure is not a tree");
      }
      placed[c] = 1;
      const uint32_t child_slot = next_slot++;
      node_of[child_slot] = c;
      const TreeNode& child = tree.node(c);
      used[child.first_symbol] = true;
      if (child.first_child != kNilNode) {
        h.max_edge_start = std::max(h.max_edge_start, child.edge_start);
        h.max_edge_len = std::max(h.max_edge_len, child.edge_len);
        continue;
      }
      if (!child.IsLeaf()) return Status::Corruption("childless internal node");
      const uint64_t end = child.edge_start + child.edge_len;
      if (h.leaf_count++ == 0) {
        h.leaf_edge_end = end;
      } else if (end != h.leaf_edge_end) {
        return Status::Internal(
            "leaf edges of one sub-tree end at " +
            std::to_string(h.leaf_edge_end) + " and " + std::to_string(end) +
            "; the packed format stores one leaf edge end");
      }
      leaf_bits[child_slot / kSlotsPerWord] |= 1ull
                                              << (child_slot % kSlotsPerWord);
      h.max_leaf_edge_start = std::max(h.max_leaf_edge_start, child.edge_start);
    }
    children_begin[slot] = block_begin;
    num_children[slot] = next_slot - block_begin;
    h.max_children_begin = std::max(h.max_children_begin, block_begin);
    h.max_num_children = std::max(h.max_num_children, num_children[slot]);
    for (uint32_t child = next_slot; child-- > block_begin;) {
      if (!is_leaf_slot(child)) stack.push_back(child);
    }
  }
  if (next_slot != n) return Status::Corruption("orphan nodes in linked tree");

  // Reverse pass: children sit at higher slots than their parent, so one
  // sweep resolves every subtree leaf count (at most n - 1 < 2^32).
  for (uint32_t i = n; i-- > 0;) {
    if (children_begin[i] == 0) continue;
    uint32_t leaves = 0;
    for (uint32_t c = 0; c < num_children[i]; ++c) {
      leaves += count[children_begin[i] + c];
    }
    count[i] = leaves;
    h.max_count = std::max<uint64_t>(h.max_count, leaves);
  }
  std::string symbols;
  uint8_t rank_of[256] = {};
  for (uint32_t c = 1; c < 256; ++c) {
    if (!used[c]) continue;
    rank_of[c] = static_cast<uint8_t>(symbols.size());
    symbols.push_back(static_cast<char>(c));
  }
  h.num_symbols = static_cast<uint8_t>(symbols.size());
  h.w_symbol_rank = static_cast<uint8_t>(
      symbols.empty() ? 0 : BitWidth(symbols.size() - 1));
  h.w_leaf_edge_start = static_cast<uint8_t>(BitWidth(h.max_leaf_edge_start));
  h.w_edge_start = static_cast<uint8_t>(BitWidth(h.max_edge_start));
  h.w_edge_len = static_cast<uint8_t>(BitWidth(h.max_edge_len));
  h.w_count = static_cast<uint8_t>(BitWidth(h.max_count));
  h.w_children_begin = static_cast<uint8_t>(BitWidth(h.max_children_begin));
  h.w_num_children = static_cast<uint8_t>(BitWidth(h.max_num_children));

  // Forward pass: bit-pack the per-slot symbol ranks and the two record
  // arrays, and stream the leaf ids in slot order — restart array plus
  // delta/varint blocks.
  BitWriter ranks;
  BitWriter internals;
  BitWriter leaves;
  std::string leaf_stream;
  std::vector<uint64_t> restarts;
  uint64_t leaf_rank = 0;
  uint64_t prev = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const TreeNode& u = tree.node(node_of[i]);
    ranks.Put(i == 0 ? 0 : rank_of[u.first_symbol], h.w_symbol_rank);
    if (children_begin[i] == 0) {
      leaves.Put(u.edge_start, h.w_leaf_edge_start);
      if (leaf_rank++ % kLeafRestartInterval == 0) {
        restarts.push_back(leaf_stream.size());
        PutVarint64(&leaf_stream, u.leaf_id);
      } else {
        PutVarint64(&leaf_stream,
                    ZigZagEncode(static_cast<int64_t>(u.leaf_id - prev)));
      }
      prev = u.leaf_id;
      continue;
    }
    internals.Put(u.edge_start, h.w_edge_start);
    internals.Put(u.edge_len, h.w_edge_len);
    internals.Put(count[i], h.w_count);
    internals.Put(children_begin[i], h.w_children_begin);
    internals.Put(num_children[i], h.w_num_children);
  }
  ranks.Finish();
  internals.Finish();
  leaves.Finish();
  h.num_restarts = static_cast<uint32_t>(restarts.size());
  h.leaf_stream_bytes = leaf_stream.size();

  std::string payload;
  payload.reserve(PackedSections::Of(h, n).PayloadBytes());
  payload.append(reinterpret_cast<const char*>(&h), sizeof(h));
  payload.append(symbols);
  payload.append(reinterpret_cast<const char*>(leaf_bits.data()),
                 leaf_bits.size() * sizeof(uint64_t));
  payload.append(ranks.bytes());
  payload.append(internals.bytes());
  payload.append(leaves.bytes());
  payload.append(reinterpret_cast<const char*>(restarts.data()),
                 restarts.size() * sizeof(uint64_t));
  payload.append(leaf_stream);
  return payload;
}

uint64_t ServedSubTree::ServingBytes(uint64_t payload_bytes,
                                     uint64_t node_count) {
  return payload_bytes + kBitReaderPadBytes +
         (LeafBitsWords(node_count) + 1) * sizeof(uint32_t);
}

StatusOr<ServedSubTree> ServedSubTree::FromPayload(
    std::string payload, uint64_t node_count) {
  if (payload.size() < sizeof(PackedHeader)) {
    return Status::Corruption("packed subtree payload shorter than header");
  }
  PackedHeader h;
  std::memcpy(&h, payload.data(), sizeof(h));

  if (node_count == 0 || node_count > 0xFFFFFFFFull) {
    return Status::Corruption("packed subtree node count out of range");
  }
  // Every written sub-tree has a non-root edge, so its symbol table is never
  // empty.
  if (h.num_symbols == 0) {
    return Status::Corruption("packed subtree has an empty symbol table");
  }
  if (h.leaf_count == 0 || h.leaf_count >= node_count) {
    return Status::Corruption("packed subtree leaf count out of range");
  }
  if (h.w_leaf_edge_start > 64 || h.w_edge_start > 64 || h.w_count > 64 ||
      h.w_edge_len > 32 || h.w_children_begin > 32 || h.w_num_children > 32) {
    return Status::Corruption("packed field width exceeds field size");
  }
  // The width rule is part of the format: widths must be exactly minimal for
  // the recorded maxima (and the maxima themselves are re-derived below).
  if (h.w_leaf_edge_start != BitWidth(h.max_leaf_edge_start) ||
      h.w_edge_start != BitWidth(h.max_edge_start) ||
      h.w_edge_len != BitWidth(h.max_edge_len) ||
      h.w_count != BitWidth(h.max_count) ||
      h.w_children_begin != BitWidth(h.max_children_begin) ||
      h.w_num_children != BitWidth(h.max_num_children) ||
      h.w_symbol_rank != BitWidth(h.num_symbols - 1u)) {
    return Status::Corruption("packed field width is not width-minimal");
  }
  if (h.leaf_restart_interval == 0 ||
      h.leaf_restart_interval > (1u << 20)) {
    return Status::Corruption("packed leaf restart interval out of range");
  }
  const uint64_t expected_restarts =
      (h.leaf_count + h.leaf_restart_interval - 1) / h.leaf_restart_interval;
  if (h.num_restarts != expected_restarts) {
    return Status::Corruption("packed restart count mismatch");
  }
  // Bounding the one unbounded size field first keeps the sum exact.
  const PackedSections sections = PackedSections::Of(h, node_count);
  if (h.leaf_stream_bytes > payload.size() ||
      payload.size() != sections.PayloadBytes()) {
    return Status::Corruption("packed subtree payload size mismatch");
  }

  ServedSubTree t;
  t.blob_ = std::move(payload);
  t.blob_.append(kBitReaderPadBytes, '\0');
  t.header_ = h;
  t.node_count_ = static_cast<uint32_t>(node_count);
  t.internal_bits_ = InternalRecordBits(h);
  t.leaf_bits_off_ = sizeof(PackedHeader) + sections.symbols;
  t.ranks_off_ = t.leaf_bits_off_ + sections.leaf_bits;
  t.internals_off_ = t.ranks_off_ + sections.symbol_ranks;
  t.leaf_records_off_ = t.internals_off_ + sections.internal_records;
  t.restarts_off_ = t.leaf_records_off_ + sections.leaf_records;
  t.leaves_off_ = t.restarts_off_ + sections.restarts;

  // Symbol table: strictly ascending, no 0 (it marks the root).
  const uint8_t* symbols =
      reinterpret_cast<const uint8_t*>(t.blob_.data()) + sizeof(PackedHeader);
  for (uint32_t r = 0; r < h.num_symbols; ++r) {
    if (symbols[r] == 0 || (r > 0 && symbols[r] <= symbols[r - 1])) {
      return Status::Corruption(
          "packed symbol table is not strictly ascending");
    }
  }

  // Leaf bits: build the rank samples; the popcount must be the leaf count
  // and no bit may be set past the last slot.
  const uint32_t n = t.node_count_;
  const uint64_t words = LeafBitsWords(n);
  t.rank_samples_.resize(words + 1);
  uint64_t popcount = 0;
  for (uint64_t w = 0; w < words; ++w) {
    t.rank_samples_[w] = static_cast<uint32_t>(popcount);
    popcount += std::popcount(t.LeafBitsWord(w));
  }
  t.rank_samples_[words] = static_cast<uint32_t>(popcount);
  if (n % kSlotsPerWord != 0 &&
      (t.LeafBitsWord(words - 1) >> (n % kSlotsPerWord)) != 0) {
    return Status::Corruption("packed leaf bit set past the last slot");
  }
  if (popcount != h.leaf_count) {
    return Status::Corruption(
        "packed leaf-bit popcount does not match the leaf count");
  }
  if (t.IsLeafSlot(0)) {
    return Status::Corruption("packed root is marked as a leaf");
  }

  // Structural pass 1 (forward): decode every field once, section by
  // section, checking ranges and re-deriving the recorded maxima. Internal
  // nodes keep what pass 2 needs (24 bytes each); leaves keep nothing.
  PackedHeader actual;  // re-derived maxima
  const BitReader leaf_records(t.blob_.data() + t.leaf_records_off_,
                               t.blob_.size() - t.leaf_records_off_);
  for (uint64_t r = 0; r < h.leaf_count; ++r) {
    const uint64_t start =
        leaf_records.Get(r * h.w_leaf_edge_start, h.w_leaf_edge_start);
    if (start >= h.leaf_edge_end || h.leaf_edge_end - start > 0xFFFFFFFFull) {
      return Status::Corruption(
          "packed leaf edge does not end at the leaf edge end");
    }
    actual.max_leaf_edge_start = std::max(actual.max_leaf_edge_start, start);
  }

  struct Internal {
    uint64_t count = 0;
    uint32_t children_begin = 0;
    uint32_t num_children = 0;
    uint32_t span = 0;  // slots in the subtree, filled by pass 2
  };
  std::vector<Internal> internals(n - h.leaf_count);
  // Bit i set iff slot i starts a child block.
  std::vector<uint64_t> block_starts(words, 0);
  const BitReader internal_records(t.blob_.data() + t.internals_off_,
                                   t.blob_.size() - t.internals_off_);
  uint64_t internal_rank = 0;
  for (uint64_t w = 0; w < words; ++w) {
    // Internal slots of this word: its clear bits below slot n.
    uint64_t internal_slots =
        ~t.LeafBitsWord(w) &
        MaskLow(static_cast<uint32_t>(
            std::min<uint64_t>(kSlotsPerWord, n - w * kSlotsPerWord)));
    for (; internal_slots != 0; internal_slots &= internal_slots - 1) {
      const uint64_t i = w * kSlotsPerWord + std::countr_zero(internal_slots);
      uint64_t bit = internal_rank * t.internal_bits_;
      const uint64_t edge_start = internal_records.Get(bit, h.w_edge_start);
      bit += h.w_edge_start;
      const auto edge_len =
          static_cast<uint32_t>(internal_records.Get(bit, h.w_edge_len));
      bit += h.w_edge_len;
      Internal& u = internals[internal_rank++];
      u.count = internal_records.Get(bit, h.w_count);
      bit += h.w_count;
      u.children_begin = static_cast<uint32_t>(
          internal_records.Get(bit, h.w_children_begin));
      bit += h.w_children_begin;
      u.num_children =
          static_cast<uint32_t>(internal_records.Get(bit, h.w_num_children));
      if (u.num_children == 0 || u.children_begin <= i ||
          u.children_begin > n || n - u.children_begin < u.num_children) {
        return Status::Corruption("packed child block out of bounds");
      }
      if (u.count == 0) {
        return Status::Corruption("packed internal node with zero count");
      }
      if (i == 0 && edge_len != 0) {
        return Status::Corruption("packed root has an incoming edge");
      }
      block_starts[u.children_begin / kSlotsPerWord] |=
          1ull << (u.children_begin % kSlotsPerWord);
      actual.max_edge_start = std::max(actual.max_edge_start, edge_start);
      actual.max_edge_len = std::max(actual.max_edge_len, edge_len);
      actual.max_count = std::max(actual.max_count, u.count);
      actual.max_children_begin =
          std::max(actual.max_children_begin, u.children_begin);
      actual.max_num_children =
          std::max(actual.max_num_children, u.num_children);
    }
  }
  if (actual.max_leaf_edge_start != h.max_leaf_edge_start ||
      actual.max_edge_start != h.max_edge_start ||
      actual.max_edge_len != h.max_edge_len ||
      actual.max_count != h.max_count ||
      actual.max_children_begin != h.max_children_begin ||
      actual.max_num_children != h.max_num_children) {
    return Status::Corruption("packed field maxima do not match records");
  }

  // Symbol ranks, in slot order: in range, every table entry used, and
  // strictly ascending inside each child block. Pass 2 proves the blocks
  // tile slots [1, n), so "not a block start" means "same block as the
  // previous slot".
  const BitReader ranks(t.blob_.data() + t.ranks_off_,
                        t.blob_.size() - t.ranks_off_);
  if (ranks.Get(0, h.w_symbol_rank) != 0) {
    return Status::Corruption("packed symbol rank out of range");
  }
  std::vector<char> rank_used(h.num_symbols, 0);
  uint64_t prev_rank = 0;
  for (uint32_t i = 1; i < n; ++i) {
    const uint64_t rank =
        ranks.Get(uint64_t{i} * h.w_symbol_rank, h.w_symbol_rank);
    if (rank >= h.num_symbols) {
      return Status::Corruption("packed symbol rank out of range");
    }
    // Whether a slot starts a block is data, so test without branching on
    // it.
    const uint64_t block_start =
        (block_starts[i / kSlotsPerWord] >> (i % kSlotsPerWord)) & 1;
    if ((block_start ^ 1) & (rank <= prev_rank)) {
      return Status::Corruption(
          "child block first symbols are not strictly ascending");
    }
    prev_rank = rank;
    rank_used[rank] = 1;
  }
  if (std::find(rank_used.begin(), rank_used.end(), 0) != rank_used.end()) {
    return Status::Corruption("packed symbol table lists an unused symbol");
  }

  // Structural pass 2 (reverse): the canonical DFS layout and the stored
  // subtree counts, over the decoded internal records. After a node's child
  // block, the strict descendants of each internal child must follow
  // consecutively in child order; otherwise two subtrees' slot ranges could
  // interleave and a leaf-range decode would surface another subtree's
  // leaves. Children live at higher slots than their parent, so walking
  // internal ranks downward sees every child before its parent. A child
  // block's leaf children are counted by rank, and its internal children are
  // the consecutive internal ranks in between.
  for (uint64_t k = internals.size(); k-- > 0;) {
    Internal& u = internals[k];
    const uint32_t block_end = u.children_begin + u.num_children;
    const uint64_t leaves_before = t.LeafRank(u.children_begin);
    const uint64_t leaf_children = t.LeafRank(block_end) - leaves_before;
    uint64_t subtree_nodes = 1 + leaf_children;
    uint64_t leaves = leaf_children;
    uint64_t next = block_end;
    const uint64_t first_internal = u.children_begin - leaves_before;
    const uint64_t end_internal =
        first_internal + u.num_children - leaf_children;
    for (uint64_t c = first_internal; c < end_internal; ++c) {
      const Internal& child = internals[c];
      if (child.children_begin != next) {
        return Status::Corruption("descendant blocks are not contiguous");
      }
      next += child.span - 1;
      subtree_nodes += child.span;
      leaves += child.count;
    }
    // Each child's span is at most n, so the sum cannot overflow first.
    if (subtree_nodes > n) {
      return Status::Corruption("unreachable nodes in packed tree");
    }
    if (leaves != u.count) {
      return Status::Corruption("inconsistent subtree leaf count");
    }
    u.span = static_cast<uint32_t>(subtree_nodes);
  }
  if (internals[0].span != n) {
    return Status::Corruption("unreachable nodes in packed tree");
  }

  // Leaf-stream pass: decode exactly leaf_count values, checking every
  // restart offset against the actual block boundary and consuming the
  // stream exactly.
  const char* stream = t.blob_.data() + t.leaves_off_;
  std::size_t pos = 0;
  for (uint64_t r = 0; r < h.leaf_count; ++r) {
    uint64_t raw;
    if (r % h.leaf_restart_interval == 0) {
      const uint64_t block = r / h.leaf_restart_interval;
      if (ReadRestart(t.blob_, t.restarts_off_, block) != pos) {
        return Status::Corruption("leaf stream restart offset mismatch");
      }
    }
    if (!GetVarint64(stream, h.leaf_stream_bytes, &pos, &raw)) {
      return Status::Corruption("truncated or malformed leaf stream varint");
    }
  }
  if (pos != h.leaf_stream_bytes) {
    return Status::Corruption("trailing bytes in leaf stream");
  }

  return t;
}

uint64_t ServedSubTree::LeafBitsWord(uint64_t w) const {
  uint64_t word;
  std::memcpy(&word, blob_.data() + leaf_bits_off_ + w * sizeof(uint64_t),
              sizeof(word));
  return word;
}

bool ServedSubTree::IsLeafSlot(uint32_t i) const {
  return (LeafBitsWord(i / kSlotsPerWord) >> (i % kSlotsPerWord)) & 1;
}

uint64_t ServedSubTree::LeafRank(uint64_t i) const {
  const uint64_t below = LeafBitsWord(i / kSlotsPerWord) &
                         MaskLow(static_cast<uint32_t>(i % kSlotsPerWord));
  return rank_samples_[i / kSlotsPerWord] + std::popcount(below);
}

NodeView ServedSubTree::node(uint32_t i) const {
  NodeView v;
  if (i != 0) {
    v.first_symbol =
        static_cast<uint8_t>(blob_[sizeof(PackedHeader) + FirstSymbolRank(i)]);
  }
  const uint64_t leaf_rank = LeafRank(i);
  if (IsLeafSlot(i)) {
    const BitReader records(blob_.data() + leaf_records_off_,
                            blob_.size() - leaf_records_off_);
    v.edge_start = records.Get(leaf_rank * header_.w_leaf_edge_start,
                               header_.w_leaf_edge_start);
    v.edge_len = static_cast<uint32_t>(header_.leaf_edge_end - v.edge_start);
    v.count = 1;
    v.leaf_ref = leaf_rank;
    return v;
  }
  const BitReader records(blob_.data() + internals_off_,
                          blob_.size() - internals_off_);
  uint64_t bit = (i - leaf_rank) * internal_bits_;
  v.edge_start = records.Get(bit, header_.w_edge_start);
  bit += header_.w_edge_start;
  v.edge_len = static_cast<uint32_t>(records.Get(bit, header_.w_edge_len));
  bit += header_.w_edge_len;
  v.count = records.Get(bit, header_.w_count);
  bit += header_.w_count;
  v.children_begin =
      static_cast<uint32_t>(records.Get(bit, header_.w_children_begin));
  bit += header_.w_children_begin;
  v.num_children =
      static_cast<uint32_t>(records.Get(bit, header_.w_num_children));
  v.leaf_ref = LeafRank(v.children_begin);
  return v;
}

bool ServedSubTree::SymbolRank(uint8_t symbol, uint32_t* rank) const {
  const uint8_t* begin =
      reinterpret_cast<const uint8_t*>(blob_.data()) + sizeof(PackedHeader);
  const uint8_t* end = begin + header_.num_symbols;
  const uint8_t* it = std::lower_bound(begin, end, symbol);
  if (it == end || *it != symbol) return false;
  *rank = static_cast<uint32_t>(it - begin);
  return true;
}

uint32_t ServedSubTree::FirstSymbolRank(uint32_t i) const {
  const BitReader ranks(blob_.data() + ranks_off_, blob_.size() - ranks_off_);
  return static_cast<uint32_t>(ranks.Get(
      static_cast<uint64_t>(i) * header_.w_symbol_rank,
      header_.w_symbol_rank));
}

uint64_t ServedSubTree::LeafId(uint64_t rank) const {
  const char* stream = blob_.data() + leaves_off_;
  const uint64_t block = rank / header_.leaf_restart_interval;
  std::size_t pos = ReadRestart(blob_, restarts_off_, block);
  uint64_t v = 0;
  GetVarint64(stream, header_.leaf_stream_bytes, &pos, &v);
  for (uint64_t r = block * header_.leaf_restart_interval; r < rank; ++r) {
    uint64_t raw = 0;
    GetVarint64(stream, header_.leaf_stream_bytes, &pos, &raw);
    v = static_cast<uint64_t>(static_cast<int64_t>(v) + ZigZagDecode(raw));
  }
  return v;
}

Status ServedSubTree::DecodeLeafRange(uint64_t rank_begin, uint64_t count,
                                          const QueryContext* ctx,
                                          std::size_t limit,
                                          std::vector<uint64_t>* out) const {
  if (count == 0 || limit == 0) return Status::OK();
  const uint64_t rank_end = rank_begin + count;
  const uint32_t interval = header_.leaf_restart_interval;
  const char* stream = blob_.data() + leaves_off_;
  const uint64_t first_block = rank_begin / interval;
  std::size_t pos = ReadRestart(blob_, restarts_off_, first_block);
  uint64_t v = 0;
  std::size_t appended = 0;
  for (uint64_t r = first_block * interval; r < rank_end; ++r) {
    uint64_t raw = 0;
    GetVarint64(stream, header_.leaf_stream_bytes, &pos, &raw);
    if (r % interval == 0) {
      v = raw;  // block-leading absolute value
    } else {
      v = static_cast<uint64_t>(static_cast<int64_t>(v) + ZigZagDecode(raw));
    }
    if (r >= rank_begin) {
      out->push_back(v);
      if (++appended >= limit) break;
    }
    if (ctx != nullptr && (r % kCtxCheckStride) == kCtxCheckStride - 1) {
      ERA_RETURN_NOT_OK(ctx->Check());
    }
  }
  return Status::OK();
}

TreeBuffer ServedSubTree::Inflate() const {
  std::vector<uint64_t> leaves;
  leaves.reserve(header_.leaf_count);
  // Without a context the decode has nothing to fail on.
  (void)DecodeLeafRange(0, header_.leaf_count, nullptr,
                        static_cast<std::size_t>(-1), &leaves);
  TreeBuffer out;
  std::vector<TreeNode>& nodes = out.mutable_nodes();
  nodes.resize(node_count_);
  for (uint32_t i = 0; i < node_count_; ++i) {
    const NodeView v = node(i);
    TreeNode& dst = nodes[i];
    dst.edge_start = v.edge_start;
    dst.edge_len = v.edge_len;
    dst.first_symbol = v.first_symbol;
    if (v.IsLeaf()) {
      dst.leaf_id = leaves[v.leaf_ref];
      continue;
    }
    // FromPayload proved the block in bounds and after slot i.
    dst.first_child = v.children_begin;
    for (uint32_t c = 0; c + 1 < v.num_children; ++c) {
      nodes[v.children_begin + c].next_sibling = v.children_begin + c + 1;
    }
  }
  return out;
}

Status ServedSubTree::CollectLeaves(uint32_t slot, const QueryContext* ctx,
                                    std::size_t limit,
                                    std::vector<uint64_t>* out) const {
  const NodeView v = node(slot);
  return DecodeLeafRange(v.leaf_ref, v.count, ctx, limit, out);
}

Status ServedSubTree::CollectLeafSlices(const std::vector<uint32_t>& slots,
                                        const QueryContext* ctx,
                                        std::vector<uint64_t>* buffer,
                                        std::vector<LeafSlice>* slices) const {
  slices->assign(slots.size(), LeafSlice{});
  // Each slot's leaves are the contiguous leaf-rank range [leaf_ref,
  // leaf_ref + count). Laminar ranges sorted by start are either nested in
  // the previous maximal run or start at/after its end, so one
  // DecodeLeafRange per maximal run covers everything and nested requests
  // alias into the run's decoded span.
  struct Req {
    uint64_t begin = 0;
    uint64_t count = 0;
    std::size_t idx = 0;
  };
  std::vector<Req> reqs(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const NodeView v = node(slots[i]);
    reqs[i] = Req{v.leaf_ref, v.count, i};
  }
  std::sort(reqs.begin(), reqs.end(), [](const Req& a, const Req& b) {
    if (a.begin != b.begin) return a.begin < b.begin;
    return a.count > b.count;  // outermost first on shared starts
  });
  uint64_t run_begin = 0;
  uint64_t run_end = 0;  // empty run sentinel: nothing nests in [0, 0)
  std::size_t run_base = 0;
  for (const Req& req : reqs) {
    const bool nested = run_end > run_begin && req.begin >= run_begin &&
                        req.begin + req.count <= run_end;
    if (!nested) {
      run_begin = req.begin;
      run_end = req.begin + req.count;
      run_base = buffer->size();
      ERA_RETURN_NOT_OK(DecodeLeafRange(req.begin, req.count, ctx,
                                        static_cast<std::size_t>(-1), buffer));
    }
    (*slices)[req.idx] =
        LeafSlice{run_base + static_cast<std::size_t>(req.begin - run_begin),
                  static_cast<std::size_t>(req.count)};
  }
  return Status::OK();
}

}  // namespace era
