// Format-v4 compressed sub-tree, the only sub-tree format: ServedSubTree
// is the serving form, cached and walked without inflating back to a
// TreeBuffer.
//
// On-disk payload (after the shared 32-byte file header + prefix bytes):
//
//   [PackedHeader]        80 bytes, POD, little-endian
//   [symbol table]        num_symbols bytes, strictly ascending: the
//                         distinct first symbols of the sub-tree's non-root
//                         edges
//   [leaf bits]           ceil(n / 64) x uint64: bit i % 64 of word i / 64 is
//                         set iff slot i is a leaf; bits past slot n - 1 are 0
//   [symbol ranks]        n fields of w_symbol_rank bits (BitWidth(num_symbols
//                         - 1): 3 bits for DNA plus the terminal), slot order
//   [internal records]    one per internal slot, in slot order: edge_start,
//                         edge_len, count, children_begin, num_children, each
//                         in the BitWidth of its maximum over internal nodes
//   [leaf records]        one per leaf slot, in slot order: edge_start in the
//                         BitWidth of its maximum over leaves
//   [leaf restart array]  num_restarts x uint64 byte offsets into the leaf
//                         stream, one per restart block
//   [leaf stream]         leaf suffix offsets in SLOT order; blocks of
//                         leaf_restart_interval values, each block an absolute
//                         varint followed by zigzag-delta varints
//
// Each bit-packed section starts on a byte boundary. A leaf stores only its
// edge start: every leaf edge ends at leaf_edge_end (the text end, terminal
// included), its count is 1, it has no children, and its leaf_ref is its
// rank among leaf slots. Leaves are about 58% of the nodes of a DNA tree, so
// this split halves the file compared with one fixed-width record per node.
//
// Slots follow the canonical DFS layout EncodePayload places: node 0 is the
// root; popping a node gives its children one contiguous block at the tail
// (ascending by first symbol, the builders' sibling order) and descends into
// the first child. So children_begin(u) > u, and the strict descendants of
// node u occupy one contiguous slot range starting at children_begin(u):
// the leaves under u are exactly the leaf slots with slot-order ranks
// [leaf_ref(u), leaf_ref(u) + count(u)) where
//   leaf_ref(leaf)     = number of leaf slots before it (its slot rank), and
//   leaf_ref(internal) = number of leaf slots before children_begin(u).
// Both are a rank over the leaf bits, answered by one uint32 sample per
// 64 slots (built at load, not stored) plus one popcount; the same rank
// locates a slot's record among the internal or the leaf records. That turns
// CollectLeaves into a lazy range decode of the leaf stream — restart-seek
// to the first block, stop after `limit` values — and keeps Count a pure
// record read (`count` is the stored subtree leaf count).
// symbol_rank(u) indexes the symbol table for the first symbol of u's
// incoming edge (the root stores rank 0 and has no symbol). The table is
// sorted, so ranks order siblings exactly like their symbols and child
// lookup binary-searches ranks without touching the text.
//
// Everything here is validated once in FromPayload (widths match recorded
// maxima, leaf-bit popcount, a structural pass that proves the canonical
// DFS layout and the stored subtree counts, leaf-stream restarts and
// monotone block structure); after that node()/LeafId() are infallible and
// DecodeLeafRange only fails on cancellation.

#ifndef ERA_SUFFIXTREE_COMPRESSED_TREE_H_
#define ERA_SUFFIXTREE_COMPRESSED_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "suffixtree/tree_buffer.h"

namespace era {

struct QueryContext;

/// Fixed per-subtree header at the start of a v4 payload.
struct PackedHeader {
  uint64_t leaf_count = 0;     // leaf slots (== popcount of the leaf bits)
  uint64_t leaf_edge_end = 0;  // where every leaf edge ends (the text end)
  uint64_t max_leaf_edge_start = 0;  // leaf-record maximum
  uint64_t max_edge_start = 0;  // internal-record maxima the widths derive from
  uint64_t max_count = 0;
  uint64_t leaf_stream_bytes = 0;  // varint leaf stream size in bytes
  uint32_t max_edge_len = 0;
  uint32_t max_children_begin = 0;
  uint32_t max_num_children = 0;
  uint32_t leaf_restart_interval = 0;  // values per restart block
  uint32_t num_restarts = 0;           // == ceil(leaf_count / interval)
  uint8_t w_leaf_edge_start = 0;       // bit widths; w_x == BitWidth(max_x)
  uint8_t w_edge_start = 0;
  uint8_t w_edge_len = 0;
  uint8_t w_count = 0;
  uint8_t w_children_begin = 0;
  uint8_t w_num_children = 0;
  uint8_t num_symbols = 0;    // symbol-table entries (>= 1)
  uint8_t w_symbol_rank = 0;  // == BitWidth(num_symbols - 1)
  uint8_t pad[4] = {0, 0, 0, 0};
};

static_assert(sizeof(PackedHeader) == 80, "PackedHeader must stay 80 bytes");

/// Byte size of each payload section that a header and a node count imply
/// (the file comment's order). FromPayload checks a payload against it;
/// `era_cli inspect` reports it without decoding. Requires leaf_count <=
/// node_count.
struct PackedSections {
  uint64_t symbols = 0;
  uint64_t leaf_bits = 0;
  uint64_t symbol_ranks = 0;
  uint64_t internal_records = 0;
  uint64_t leaf_records = 0;
  uint64_t restarts = 0;
  uint64_t leaf_stream = 0;

  static PackedSections Of(const PackedHeader& h, uint64_t node_count);
  uint64_t PayloadBytes() const;
};

/// Decoded view of one packed node: its record plus the leaf reference;
/// cheap to return by value.
struct NodeView {
  uint64_t edge_start = 0;
  uint64_t count = 0;     // leaves in this node's subtree (1 for a leaf)
  uint64_t leaf_ref = 0;  // see file comment
  uint32_t edge_len = 0;
  uint32_t children_begin = 0;
  uint32_t num_children = 0;
  uint8_t first_symbol = 0;  // first symbol of the incoming edge (0: root)

  bool IsLeaf() const { return num_children == 0; }
};

/// One request's answer inside a shared leaf buffer: `buffer[offset,
/// offset + count)` are the suffix offsets of the leaves under the
/// requested slot, in slot order.
struct LeafSlice {
  std::size_t offset = 0;
  std::size_t count = 0;
};

/// What TreeIndex caches and the query path walks: a validated v4 payload
/// served in place — random node access via BitReader, lazy leaf-range
/// decode via the restart array. Immutable after FromPayload.
class ServedSubTree {
 public:
  ServedSubTree() = default;
  ServedSubTree(ServedSubTree&&) = default;
  ServedSubTree& operator=(ServedSubTree&&) = default;

  /// Places `tree`'s nodes in the canonical DFS slot layout and encodes
  /// them into a v4 payload; slot 0 is node 0. Deterministic: same tree,
  /// same bytes. Corruption when the linked structure is not a tree rooted
  /// at node 0 (a cycle, a node reached twice, an orphan, a childless
  /// internal node); Internal for a leaf root, or when two leaf edges end at
  /// different offsets, which v4 cannot represent.
  static StatusOr<std::string> EncodePayload(const TreeBuffer& tree);

  /// Parses + fully validates a payload of `node_count` nodes. Returns
  /// Corruption on any structural or size inconsistency. Takes the payload
  /// by value and keeps it (plus reader pad) as the resident blob.
  static StatusOr<ServedSubTree> FromPayload(std::string payload,
                                             uint64_t node_count);

  /// What MemoryBytes() of a served `payload_bytes` payload of `node_count`
  /// nodes will be, minus the object itself: the payload, the reader pad
  /// and the rank samples.
  static uint64_t ServingBytes(uint64_t payload_bytes, uint64_t node_count);

  uint32_t size() const { return node_count_; }
  uint64_t LeafCount() const { return header_.leaf_count; }
  /// Resident bytes — what the byte-budgeted cache charges.
  uint64_t MemoryBytes() const {
    return blob_.size() + rank_samples_.size() * sizeof(uint32_t) +
           sizeof(*this);
  }

  /// Decodes node `i` (i < size(); infallible post-validation).
  NodeView node(uint32_t i) const;

  /// Rank of `symbol` in the symbol table; false if no edge of this
  /// sub-tree starts with it, so a child lookup can stop without probing.
  /// Ranks order like symbols.
  bool SymbolRank(uint8_t symbol, uint32_t* rank) const;
  /// symbol_rank field of node `i`, read without decoding the others.
  uint32_t FirstSymbolRank(uint32_t i) const;

  /// Suffix offset of the leaf with slot-order rank `rank` (< LeafCount()).
  /// A leaf node `v` has rank v.leaf_ref.
  uint64_t LeafId(uint64_t rank) const;

  /// Appends the suffix offsets of leaf ranks [rank_begin, rank_begin +
  /// count) to `out`, in slot order, stopping early once `limit` total
  /// values have been appended this call. `ctx` (nullable) is checked
  /// periodically; its error aborts the decode.
  Status DecodeLeafRange(uint64_t rank_begin, uint64_t count,
                         const QueryContext* ctx, std::size_t limit,
                         std::vector<uint64_t>* out) const;

  /// Appends the suffix offsets of all leaves under slot `slot` to `out`
  /// (slot order), stopping after `limit` appended values. `ctx` nullable.
  Status CollectLeaves(uint32_t slot, const QueryContext* ctx,
                       std::size_t limit, std::vector<uint64_t>* out) const;

  /// Batched leaf enumeration: resolves every slot in `slots` in ONE pass
  /// over the leaf stream instead of one CollectLeaves per slot. Appends
  /// leaves to `buffer` and fills `slices` (index-aligned with `slots`;
  /// offsets are absolute indices into `buffer`). Exploits the
  /// laminar-family property of match loci — two slots' leaf ranges are
  /// nested or disjoint, never partially overlapping — so nested requests
  /// alias one decoded run and each maximal run is decoded once. Duplicate
  /// slots are fine and share a slice. `ctx` (nullable) is checked
  /// periodically.
  Status CollectLeafSlices(const std::vector<uint32_t>& slots,
                           const QueryContext* ctx,
                           std::vector<uint64_t>* buffer,
                           std::vector<LeafSlice>* slices) const;

  /// Rebuilds the linked form: slot i becomes node i and each child block a
  /// sibling chain, so re-encoding it gives the same payload. Used by
  /// consumers that walk TreeNodes — the validator and the TRELLIS merge
  /// (via ReadSubTree).
  TreeBuffer Inflate() const;

 private:
  uint64_t LeafBitsWord(uint64_t w) const;
  bool IsLeafSlot(uint32_t i) const;
  /// Leaf slots before slot `i` (i <= size()).
  uint64_t LeafRank(uint64_t i) const;

  std::string blob_;  // payload + kBitReaderPadBytes zero tail
  /// rank_samples_[w] = leaf slots before slot 64 * w (one per bits word,
  /// plus the total).
  std::vector<uint32_t> rank_samples_;
  PackedHeader header_;
  uint64_t leaf_bits_off_ = 0;     // byte offsets of the sections in blob_
  uint64_t ranks_off_ = 0;
  uint64_t internals_off_ = 0;
  uint64_t leaf_records_off_ = 0;
  uint64_t restarts_off_ = 0;
  uint64_t leaves_off_ = 0;
  uint32_t node_count_ = 0;
  uint32_t internal_bits_ = 0;  // sum of the five internal field widths
};

}  // namespace era

#endif  // ERA_SUFFIXTREE_COMPRESSED_TREE_H_
