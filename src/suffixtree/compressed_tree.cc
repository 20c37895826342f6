#include "suffixtree/compressed_tree.h"

#include <algorithm>
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

uint64_t ReadRestart(const std::string& blob, uint64_t restarts_off,
                     uint64_t block) {
  uint64_t v;
  std::memcpy(&v, blob.data() + restarts_off + block * sizeof(uint64_t),
              sizeof(v));
  return v;
}

}  // namespace

std::string ServedSubTree::EncodePayload(const CountedTree& tree) {
  const uint32_t n = tree.size();
  PackedHeader h;
  h.leaf_restart_interval = kLeafRestartInterval;

  // Pass 1: per-field maxima, leaf ranks, the leaf-id stream source, and
  // the set of first symbols.
  std::vector<uint64_t> leaf_prefix(n + 1, 0);  // leaf slots before slot i
  std::vector<uint64_t> leaves_by_rank;
  bool used[256] = {};
  for (uint32_t i = 0; i < n; ++i) {
    const CountedNode& u = tree.node(i);
    if (i != 0) used[u.first_symbol] = true;
    leaf_prefix[i + 1] = leaf_prefix[i] + (u.IsLeaf() ? 1 : 0);
    if (u.IsLeaf()) leaves_by_rank.push_back(u.leaf_id());
    if (u.edge_start > h.max_edge_start) h.max_edge_start = u.edge_start;
    if (u.edge_len > h.max_edge_len) h.max_edge_len = u.edge_len;
    if (u.LeafCount() > h.max_count) h.max_count = u.LeafCount();
    if (u.children_begin > h.max_children_begin) {
      h.max_children_begin = u.children_begin;
    }
    if (u.num_children > h.max_num_children) {
      h.max_num_children = u.num_children;
    }
  }
  h.leaf_count = leaf_prefix[n];
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
  for (uint32_t i = 0; i < n; ++i) {
    const CountedNode& u = tree.node(i);
    const uint64_t ref =
        u.IsLeaf() ? leaf_prefix[i] : leaf_prefix[u.children_begin];
    if (ref > h.max_leaf_ref) h.max_leaf_ref = ref;
  }
  h.w_edge_start = static_cast<uint8_t>(BitWidth(h.max_edge_start));
  h.w_edge_len = static_cast<uint8_t>(BitWidth(h.max_edge_len));
  h.w_count = static_cast<uint8_t>(BitWidth(h.max_count));
  h.w_leaf_ref = static_cast<uint8_t>(BitWidth(h.max_leaf_ref));
  h.w_children_begin = static_cast<uint8_t>(BitWidth(h.max_children_begin));
  h.w_num_children = static_cast<uint8_t>(BitWidth(h.max_num_children));

  // Pass 2: bit-pack the records.
  BitWriter records;
  for (uint32_t i = 0; i < n; ++i) {
    const CountedNode& u = tree.node(i);
    const uint64_t ref =
        u.IsLeaf() ? leaf_prefix[i] : leaf_prefix[u.children_begin];
    records.Put(u.edge_start, h.w_edge_start);
    records.Put(u.edge_len, h.w_edge_len);
    records.Put(u.LeafCount(), h.w_count);
    records.Put(ref, h.w_leaf_ref);
    records.Put(u.children_begin, h.w_children_begin);
    records.Put(u.num_children, h.w_num_children);
    records.Put(i == 0 ? 0 : rank_of[u.first_symbol], h.w_symbol_rank);
  }
  records.Finish();

  // Pass 3: restart array + delta/varint leaf stream in slot order.
  std::string leaf_stream;
  std::vector<uint64_t> restarts;
  uint64_t prev = 0;
  for (uint64_t r = 0; r < leaves_by_rank.size(); ++r) {
    const uint64_t v = leaves_by_rank[r];
    if (r % kLeafRestartInterval == 0) {
      restarts.push_back(leaf_stream.size());
      PutVarint64(&leaf_stream, v);
    } else {
      PutVarint64(&leaf_stream,
                  ZigZagEncode(static_cast<int64_t>(v - prev)));
    }
    prev = v;
  }
  h.num_restarts = static_cast<uint32_t>(restarts.size());
  h.leaf_stream_bytes = leaf_stream.size();

  std::string payload;
  payload.reserve(sizeof(PackedHeader) + symbols.size() +
                  records.bytes().size() + restarts.size() * sizeof(uint64_t) +
                  leaf_stream.size());
  payload.append(reinterpret_cast<const char*>(&h), sizeof(h));
  payload.append(symbols);
  payload.append(records.bytes());
  for (uint64_t off : restarts) {
    payload.append(reinterpret_cast<const char*>(&off), sizeof(off));
  }
  payload.append(leaf_stream);
  return payload;
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
  // Every written sub-tree has a non-root edge, so an empty symbol table
  // means the file predates stored first symbols.
  if (h.num_symbols == 0) {
    return Status::NotSupported(
        "packed sub-tree has no stored first symbols (written by an older "
        "version); rebuild the index");
  }
  if (h.leaf_count == 0 || h.leaf_count > node_count) {
    return Status::Corruption("packed subtree leaf count out of range");
  }
  if (h.w_edge_start > 64 || h.w_count > 64 || h.w_leaf_ref > 64 ||
      h.w_edge_len > 32 || h.w_children_begin > 32 || h.w_num_children > 32) {
    return Status::Corruption("packed field width exceeds field size");
  }
  // The width rule is part of the format: widths must be exactly minimal for
  // the recorded maxima (and the maxima themselves are re-derived below).
  if (h.w_edge_start != BitWidth(h.max_edge_start) ||
      h.w_edge_len != BitWidth(h.max_edge_len) ||
      h.w_count != BitWidth(h.max_count) ||
      h.w_leaf_ref != BitWidth(h.max_leaf_ref) ||
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

  const uint32_t rank_bit = h.w_edge_start + h.w_edge_len + h.w_count +
                            h.w_leaf_ref + h.w_children_begin +
                            h.w_num_children;
  const uint32_t record_bits = rank_bit + h.w_symbol_rank;
  const uint64_t record_bytes = (node_count * record_bits + 7) / 8;
  const uint64_t expected_size = sizeof(PackedHeader) + h.num_symbols +
                                 record_bytes +
                                 h.num_restarts * sizeof(uint64_t) +
                                 h.leaf_stream_bytes;
  if (payload.size() != expected_size) {
    return Status::Corruption("packed subtree payload size mismatch");
  }

  ServedSubTree t;
  t.blob_ = std::move(payload);
  t.blob_.append(kBitReaderPadBytes, '\0');
  t.header_ = h;
  t.node_count_ = static_cast<uint32_t>(node_count);
  t.record_bits_ = record_bits;
  t.rank_bit_ = rank_bit;
  t.records_off_ = sizeof(PackedHeader) + h.num_symbols;
  t.restarts_off_ = t.records_off_ + record_bytes;
  t.leaves_off_ = t.restarts_off_ + h.num_restarts * sizeof(uint64_t);

  // Symbol table: strictly ascending, no 0 (it marks the root).
  const uint8_t* symbols =
      reinterpret_cast<const uint8_t*>(t.blob_.data()) + sizeof(PackedHeader);
  for (uint32_t r = 0; r < h.num_symbols; ++r) {
    if (symbols[r] == 0 || (r > 0 && symbols[r] <= symbols[r - 1])) {
      return Status::Corruption(
          "packed symbol table is not strictly ascending");
    }
  }

  // Structural pass 1 (forward): field ranges, leaf ranks, recorded maxima.
  const uint32_t n = t.node_count_;
  std::vector<NodeView> nodes(n);
  std::vector<uint64_t> leaf_prefix(n + 1, 0);
  std::vector<char> rank_used(h.num_symbols, 0);
  PackedHeader actual;  // re-derived maxima
  uint64_t leaf_rank = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t rank = t.FirstSymbolRank(i);
    if (rank >= h.num_symbols || (i == 0 && rank != 0)) {
      return Status::Corruption("packed symbol rank out of range");
    }
    if (i != 0) rank_used[rank] = 1;
    const NodeView v = t.node(i);
    nodes[i] = v;
    leaf_prefix[i + 1] = leaf_prefix[i] + (v.IsLeaf() ? 1 : 0);
    if (v.IsLeaf()) {
      if (v.count != 1) {
        return Status::Corruption("packed leaf stores a subtree count != 1");
      }
      if (v.leaf_ref != leaf_rank) {
        return Status::Corruption("packed leaf rank out of sequence");
      }
      ++leaf_rank;
    } else {
      if (v.children_begin <= i || v.children_begin > n ||
          n - v.children_begin < v.num_children) {
        return Status::Corruption("counted child block out of bounds");
      }
      if (v.count == 0) {
        return Status::Corruption("packed internal node with zero count");
      }
    }
    if (v.edge_start > actual.max_edge_start) {
      actual.max_edge_start = v.edge_start;
    }
    if (v.edge_len > actual.max_edge_len) actual.max_edge_len = v.edge_len;
    if (v.count > actual.max_count) actual.max_count = v.count;
    if (v.leaf_ref > actual.max_leaf_ref) actual.max_leaf_ref = v.leaf_ref;
    if (v.children_begin > actual.max_children_begin) {
      actual.max_children_begin = v.children_begin;
    }
    if (v.num_children > actual.max_num_children) {
      actual.max_num_children = v.num_children;
    }
  }
  if (leaf_rank != h.leaf_count) {
    return Status::Corruption("packed leaf count does not match leaf slots");
  }
  if (std::find(rank_used.begin(), rank_used.end(), 0) != rank_used.end()) {
    return Status::Corruption("packed symbol table lists an unused symbol");
  }
  if (actual.max_edge_start != h.max_edge_start ||
      actual.max_edge_len != h.max_edge_len ||
      actual.max_count != h.max_count ||
      actual.max_leaf_ref != h.max_leaf_ref ||
      actual.max_children_begin != h.max_children_begin ||
      actual.max_num_children != h.max_num_children) {
    return Status::Corruption("packed field maxima do not match records");
  }
  if (nodes[0].edge_len != 0) {
    return Status::Corruption("counted root has an incoming edge");
  }
  for (uint32_t i = 0; i < n; ++i) {
    const NodeView& v = nodes[i];
    if (!v.IsLeaf() && v.leaf_ref != leaf_prefix[v.children_begin]) {
      return Status::Corruption("packed leaf reference is inconsistent");
    }
  }

  // Structural pass 2 (reverse): the canonical counted DFS layout — same
  // sweep as ValidateCountedLayout, over the packed records.
  std::vector<uint64_t> span(n);
  for (uint64_t i = n; i-- > 0;) {
    const NodeView& u = nodes[i];
    if (u.IsLeaf()) {
      span[i] = 1;
      continue;
    }
    uint64_t subtree_nodes = 1;
    uint64_t leaves = 0;
    for (uint32_t c = 0; c < u.num_children; ++c) {
      if (c > 0 && nodes[u.children_begin + c].first_symbol <=
                       nodes[u.children_begin + c - 1].first_symbol) {
        return Status::Corruption(
            "child block first symbols are not strictly ascending");
      }
      subtree_nodes += span[u.children_begin + c];
      leaves += nodes[u.children_begin + c].count;
    }
    if (leaves != u.count) {
      return Status::Corruption("inconsistent subtree leaf count");
    }
    span[i] = subtree_nodes;
    uint64_t next = u.children_begin + u.num_children;
    for (uint32_t c = 0; c < u.num_children; ++c) {
      const NodeView& child = nodes[u.children_begin + c];
      if (child.IsLeaf()) continue;
      if (child.children_begin != next) {
        return Status::Corruption("descendant blocks are not contiguous");
      }
      next += span[u.children_begin + c] - 1;
    }
  }
  if (span[0] != n) {
    return Status::Corruption("unreachable nodes in counted tree");
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

NodeView ServedSubTree::node(uint32_t i) const {
  const BitReader records(blob_.data() + records_off_,
                          blob_.size() - records_off_);
  uint64_t bit = static_cast<uint64_t>(i) * record_bits_;
  NodeView v;
  v.edge_start = records.Get(bit, header_.w_edge_start);
  bit += header_.w_edge_start;
  v.edge_len = static_cast<uint32_t>(records.Get(bit, header_.w_edge_len));
  bit += header_.w_edge_len;
  v.count = records.Get(bit, header_.w_count);
  bit += header_.w_count;
  v.leaf_ref = records.Get(bit, header_.w_leaf_ref);
  bit += header_.w_leaf_ref;
  v.children_begin =
      static_cast<uint32_t>(records.Get(bit, header_.w_children_begin));
  bit += header_.w_children_begin;
  v.num_children =
      static_cast<uint32_t>(records.Get(bit, header_.w_num_children));
  bit += header_.w_num_children;
  if (i != 0) {
    const uint64_t rank = records.Get(bit, header_.w_symbol_rank);
    v.first_symbol =
        static_cast<uint8_t>(blob_[sizeof(PackedHeader) + rank]);
  }
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
  const BitReader records(blob_.data() + records_off_,
                          blob_.size() - records_off_);
  return static_cast<uint32_t>(records.Get(
      static_cast<uint64_t>(i) * record_bits_ + rank_bit_,
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

StatusOr<CountedTree> ServedSubTree::Inflate() const {
  std::vector<uint64_t> leaves;
  leaves.reserve(header_.leaf_count);
  ERA_RETURN_NOT_OK(DecodeLeafRange(0, header_.leaf_count, nullptr,
                                    static_cast<std::size_t>(-1), &leaves));
  CountedTree out;
  out.mutable_nodes().resize(node_count_);
  for (uint32_t i = 0; i < node_count_; ++i) {
    const NodeView v = node(i);
    CountedNode& dst = out.mutable_nodes()[i];
    dst.edge_start = v.edge_start;
    dst.edge_len = v.edge_len;
    dst.children_begin = v.children_begin;
    dst.num_children = v.num_children;
    dst.first_symbol = v.first_symbol;
    dst.leaf_or_count = v.IsLeaf() ? leaves[v.leaf_ref] : v.count;
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
