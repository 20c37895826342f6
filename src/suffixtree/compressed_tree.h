// Format-v3 compressed sub-tree, the only sub-tree format: ServedSubTree
// is the serving form, cached and walked without inflating back to
// CountedNode.
//
// On-disk payload (after the shared 32-byte file header + prefix bytes):
//
//   [PackedHeader]                 72 bytes, POD, little-endian
//   [symbol table]                 num_symbols bytes, strictly ascending:
//                                  the distinct first symbols of the
//                                  sub-tree's non-root edges
//   [bit-packed node records]      node i at bit i * record_bits; fields in
//                                  order edge_start, edge_len, count,
//                                  leaf_ref, children_begin, num_children,
//                                  symbol_rank, each in its width-minimal
//                                  bit width (BitWidth of the per-subtree
//                                  maximum, recorded in the header;
//                                  symbol_rank takes BitWidth(num_symbols
//                                  - 1): 3 bits for DNA plus the terminal)
//   [leaf restart array]           num_restarts x uint64 byte offsets into
//                                  the leaf stream, one per restart block
//   [leaf stream]                  leaf suffix offsets in SLOT order; blocks
//                                  of leaf_restart_interval values, each
//                                  block an absolute varint followed by
//                                  zigzag-delta varints
//
// Field semantics lean on the canonical counted DFS layout (node.h): the
// strict descendants of node u occupy one contiguous slot range starting at
// children_begin(u), so the leaves under u are exactly the leaf slots with
// slot-order ranks [leaf_ref(u), leaf_ref(u) + count(u)) where
//   leaf_ref(leaf)     = number of leaf slots before it (its slot rank), and
//   leaf_ref(internal) = number of leaf slots before children_begin(u).
// That turns CollectLeaves into a lazy range decode of the leaf stream —
// restart-seek to the first block, stop after `limit` values — and keeps
// Count a pure record read (`count` is the stored subtree leaf count).
// symbol_rank(u) indexes the symbol table for the first symbol of u's
// incoming edge (the root stores rank 0 and has no symbol). The table is
// sorted, so ranks order siblings exactly like their symbols and child
// lookup binary-searches ranks without touching the text.
//
// Everything here is validated once in FromPayload (widths match recorded
// maxima, structural pass mirroring ValidateCountedLayout, leaf-stream
// restarts and monotone block structure); after that node()/LeafId() are
// infallible and DecodeLeafRange only fails on cancellation.

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

/// Fixed per-subtree header at the start of a v3 payload.
struct PackedHeader {
  uint64_t leaf_count = 0;         // leaf slots (== root subtree count)
  uint64_t max_edge_start = 0;     // per-field maxima the widths derive from
  uint64_t max_count = 0;
  uint64_t max_leaf_ref = 0;
  uint64_t leaf_stream_bytes = 0;  // varint leaf stream size in bytes
  uint32_t max_edge_len = 0;
  uint32_t max_children_begin = 0;
  uint32_t max_num_children = 0;
  uint32_t leaf_restart_interval = 0;  // values per restart block
  uint32_t num_restarts = 0;           // == ceil(leaf_count / interval)
  uint8_t w_edge_start = 0;            // bit widths; w_x == BitWidth(max_x)
  uint8_t w_edge_len = 0;
  uint8_t w_count = 0;
  uint8_t w_leaf_ref = 0;
  uint8_t w_children_begin = 0;
  uint8_t w_num_children = 0;
  /// Symbol-table entries. Files written before first symbols were stored
  /// carry 0 here (the old pad byte) and are refused with NotSupported.
  uint8_t num_symbols = 0;
  uint8_t w_symbol_rank = 0;  // == BitWidth(num_symbols - 1)
  uint8_t pad[4] = {0, 0, 0, 0};
};

static_assert(sizeof(PackedHeader) == 72, "PackedHeader must stay 72 bytes");

/// Decoded view of one packed node. Mirrors CountedNode plus the leaf
/// reference; cheap to return by value.
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

/// What TreeIndex caches and the query path walks: a validated v3 payload
/// served in place — random node access via BitReader, lazy leaf-range
/// decode via the restart array. Immutable after FromPayload.
class ServedSubTree {
 public:
  ServedSubTree() = default;
  ServedSubTree(ServedSubTree&&) = default;
  ServedSubTree& operator=(ServedSubTree&&) = default;

  /// Encodes `tree` (canonical counted layout; caller has validated it) into
  /// a v3 payload. Deterministic: same tree, same bytes.
  static std::string EncodePayload(const CountedTree& tree);

  /// Parses + fully validates a payload of `node_count` nodes. Returns
  /// Corruption on any structural or size inconsistency. Takes the payload
  /// by value and keeps it (plus reader pad) as the resident blob.
  static StatusOr<ServedSubTree> FromPayload(std::string payload,
                                             uint64_t node_count);

  uint32_t size() const { return node_count_; }
  uint64_t LeafCount() const { return header_.leaf_count; }
  /// Resident bytes — what the byte-budgeted cache charges.
  uint64_t MemoryBytes() const { return blob_.size() + sizeof(*this); }

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

  /// Exact reconstruction of the counted form this payload was encoded from
  /// (byte-identical nodes). Used by consumers that need CountedNode — the
  /// validator and the TRELLIS merge (via ReadSubTree).
  StatusOr<CountedTree> Inflate() const;

 private:
  std::string blob_;  // payload + kBitReaderPadBytes zero tail
  PackedHeader header_;
  uint64_t records_off_ = 0;   // byte offset of packed records in blob_
  uint32_t rank_bit_ = 0;      // bit offset of symbol_rank in a record
  uint64_t restarts_off_ = 0;  // byte offset of the restart array
  uint64_t leaves_off_ = 0;    // byte offset of the leaf stream
  uint32_t node_count_ = 0;
  uint32_t record_bits_ = 0;   // sum of the seven field widths
};

}  // namespace era

#endif  // ERA_SUFFIXTREE_COMPRESSED_TREE_H_
