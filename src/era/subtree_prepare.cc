#include "era/subtree_prepare.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <numeric>
#include <span>

#include "common/timer.h"
#include "text/aho_corasick.h"

namespace era {

namespace {

// ---------------------------------------------------------------------------
// Packed windows (see prepare_scratch.h): a window is a run of WindowCode
// codes of `bits` bits each, most significant bit first, at any bit offset
// of the slab. Every access is a 64-bit load at a bit offset.
// ---------------------------------------------------------------------------

/// The 64 bits of `words` from bit `bit` on, the first at the top. Reads
/// the word after the one holding `bit`; the slab's extra word keeps that
/// in bounds.
inline uint64_t LoadBits(const uint64_t* words, uint64_t bit) {
  const uint64_t w = bit >> 6;
  const uint32_t off = static_cast<uint32_t>(bit & 63);
  return (words[w] << off) | ((words[w + 1] >> 1) >> (63 - off));
}

/// ORs `value` into `words` so that its top bit lands on bit `bit`.
inline void OrBits(uint64_t* words, uint64_t bit, uint64_t value) {
  const uint64_t w = bit >> 6;
  const uint32_t off = static_cast<uint32_t>(bit & 63);
  words[w] |= value >> off;
  words[w + 1] |= (value << 1) << (63 - off);
}

/// PackSymbols for codes of kBits bits: a word's worth of codes at a time,
/// unrolled with constant shifts, then the tail. A zero code (a byte
/// without one) is caught once per word by a SWAR zero-field test.
template <uint32_t kBits>
inline bool PackCodes(const WindowCode& code, const char* src, uint64_t n,
                      uint64_t* words, uint64_t bit) {
  constexpr uint32_t kPerWord = 64 / kBits;
  // The lowest bit of each of the kPerWord fields, counted from bit 0.
  constexpr uint64_t kLow = [] {
    uint64_t low = 0;
    for (uint32_t i = 0; i < kPerWord; ++i) low |= uint64_t{1} << (i * kBits);
    return low;
  }();
  // Nonzero iff one of the fields of `x` marked by `low` is zero.
  auto has_zero_field = [](uint64_t x, uint64_t low) {
    return (x - low) & ~x & (low << (kBits - 1));
  };
  uint64_t zero = 0;
  for (; n >= kPerWord; n -= kPerWord, src += kPerWord) {
    uint64_t acc = 0;
#pragma GCC unroll 32
    for (uint32_t i = 0; i < kPerWord; ++i) {
      acc |= uint64_t{code.Code(src[i])} << (kBits * (kPerWord - 1 - i));
    }
    zero |= has_zero_field(acc, kLow);
    OrBits(words, bit, acc << (64 - kPerWord * kBits));
    bit += kPerWord * kBits;
  }
  if (n > 0) {
    uint64_t acc = 0;
    for (uint32_t i = 0; i < n; ++i) acc = (acc << kBits) | code.Code(src[i]);
    const uint32_t tail_bits = static_cast<uint32_t>(n) * kBits;
    zero |= has_zero_field(acc, kLow & ((uint64_t{1} << tail_bits) - 1));
    OrBits(words, bit, acc << (64 - tail_bits));
  }
  return zero == 0;
}

/// Packs the codes of text bytes [src, src + n) into the zeroed slab from
/// bit `bit` on, one word's worth of codes per two word updates. Returns
/// false if a byte has no code; what it packed is then garbage.
inline bool PackSymbols(const WindowCode& code, const char* src, uint64_t n,
                        uint64_t* words, uint64_t bit) {
  switch (code.bits()) {
    case 2: return PackCodes<2>(code, src, n, words, bit);
    case 3: return PackCodes<3>(code, src, n, words, bit);
    case 4: return PackCodes<4>(code, src, n, words, bit);
    case 5: return PackCodes<5>(code, src, n, words, bit);
    case 6: return PackCodes<6>(code, src, n, words, bit);
    default:
      assert(code.bits() == 7);  // Alphabet::Create caps sigma + 1 at 94
      return PackCodes<7>(code, src, n, words, bit);
  }
}

// ---------------------------------------------------------------------------
// In-place MSD radix sort of one active area.
//
// Records carry a key of symbols_per_word codes (21 for DNA, 12 for protein
// and English): one 64-bit load at the record's depth, aligned to the most
// significant bit and zero past the window's end. The radix passes consume
// the key one byte at a time with an American-flag permutation; buckets
// below the cutoff finish with an insertion sort on (key, slot). Runs whose
// whole keys tie are reloaded one key deeper and recursed, so a deep-LCP
// area costs one integer compare per symbols_per_word shared symbols.
// ---------------------------------------------------------------------------

/// Resolves slots to their windows inside the shared arena.
struct AreaSortContext {
  const uint64_t* windows;
  const uint32_t* window_len;
  const uint32_t* slot_to_compact;
  uint64_t window_base;
  uint64_t window_bits;  // range * bits
  uint32_t bits;
  uint32_t per_word;     // codes per key

  /// First bit of the slot's window; its length goes to `*len`.
  uint64_t WindowBit(uint32_t slot, uint32_t* len) const {
    const uint64_t compact = window_base + slot_to_compact[slot];
    *len = window_len[compact];
    return compact * window_bits;
  }

  /// Codes [depth, depth + per_word) of the slot's window, aligned to the
  /// most significant bit and zero past the window's end.
  uint64_t KeyAt(uint32_t slot, uint32_t depth) const {
    uint32_t len = 0;
    const uint64_t bit = WindowBit(slot, &len);
    if (depth >= len) return 0;
    const uint32_t n = std::min(per_word, len - depth);
    return LoadBits(windows, bit + uint64_t{depth} * bits) &
           (~uint64_t{0} << (64 - n * bits));
  }

  /// Where two windows part: `common` leading symbols are equal and, if
  /// `common` is below both lengths, `code1` and `code2` are the codes
  /// after them. The B-scan runs this once per adjacent slot pair per
  /// round, one XOR and leading-zero count per key's worth of symbols.
  struct Split {
    uint32_t len1 = 0, len2 = 0;
    uint32_t common = 0;
    uint64_t code1 = 0, code2 = 0;
  };
  Split Compare(uint32_t slot1, uint32_t slot2) const {
    Split split;
    const uint64_t a = WindowBit(slot1, &split.len1);
    const uint64_t b = WindowBit(slot2, &split.len2);
    const uint32_t m = std::min(split.len1, split.len2);
    const uint64_t key_mask = ~uint64_t{0} << (64 - per_word * bits);
    split.common = m;
    for (uint32_t depth = 0; depth < m; depth += per_word) {
      const uint64_t step = uint64_t{depth} * bits;
      const uint64_t x =
          (LoadBits(windows, a + step) ^ LoadBits(windows, b + step)) &
          key_mask;
      if (x != 0) {
        split.common = std::min<uint32_t>(
            m, depth + static_cast<uint32_t>(std::countl_zero(x)) / bits);
        break;
      }
    }
    if (split.common < m) {
      const uint64_t at = uint64_t{split.common} * bits;
      split.code1 = LoadBits(windows, a + at) >> (64 - bits);
      split.code2 = LoadBits(windows, b + at) >> (64 - bits);
    }
    return split;
  }
};

void InsertionSortByKeySlot(WindowSortRec* a, uint32_t n) {
  for (uint32_t i = 1; i < n; ++i) {
    WindowSortRec r = a[i];
    uint32_t j = i;
    while (j > 0 && (a[j - 1].key > r.key ||
                     (a[j - 1].key == r.key && a[j - 1].slot > r.slot))) {
      a[j] = a[j - 1];
      --j;
    }
    a[j] = r;
  }
}

constexpr uint32_t kRadixCutoff = 48;

/// Sorts [a, a+n) by (key, slot): American-flag MSD radix over the key's
/// bytes, insertion sort below the cutoff.
void RadixSortKeys(WindowSortRec* a, uint32_t n, uint32_t key_byte) {
  if (key_byte > 7) {
    // Exhausted key: every record in this bucket shares all 8 bytes, so
    // only the slot order remains — and the earlier byte passes scrambled
    // it. Insertion sort here is Theta(n^2) on large equal-key runs (e.g.
    // thousands of poly-A windows), so restore slot order directly.
    if (n >= kRadixCutoff) {
      std::sort(a, a + n, [](const WindowSortRec& x, const WindowSortRec& y) {
        return x.slot < y.slot;
      });
    } else {
      InsertionSortByKeySlot(a, n);
    }
    return;
  }
  if (n < kRadixCutoff) {
    InsertionSortByKeySlot(a, n);
    return;
  }
  const uint32_t shift = 56 - 8 * key_byte;
  uint32_t count[256] = {0};
  for (uint32_t i = 0; i < n; ++i) {
    ++count[(a[i].key >> shift) & 0xFF];
  }
  uint32_t begin[257];
  begin[0] = 0;
  for (uint32_t b = 0; b < 256; ++b) begin[b + 1] = begin[b] + count[b];
  uint32_t fill[256];
  std::memcpy(fill, begin, sizeof(fill));
  for (uint32_t b = 0; b < 256; ++b) {
    while (fill[b] < begin[b + 1]) {
      uint32_t d = (a[fill[b]].key >> shift) & 0xFF;
      if (d == b) {
        ++fill[b];
      } else {
        std::swap(a[fill[b]], a[fill[d]]);
        ++fill[d];
      }
    }
  }
  for (uint32_t b = 0; b < 256; ++b) {
    if (count[b] > 1) RadixSortKeys(a + begin[b], count[b], key_byte + 1);
  }
}

/// Sorts an area whose keys hold window symbols [depth, depth + per_word).
/// A run of tied keys is re-keyed one key deeper and recursed if any of its
/// windows extends past the key. Otherwise its windows are identical
/// (code 0 marks a window's end), and the radix sort already left them in
/// slot order: the (content, length, slot) order of the reference
/// implementation.
void SortArea(WindowSortRec* a, uint32_t n, uint32_t depth,
              const AreaSortContext& ctx) {
  RadixSortKeys(a, n, 0);
  const uint32_t next = depth + ctx.per_word;
  uint32_t i = 0;
  while (i < n) {
    uint32_t j = i + 1;
    while (j < n && a[j].key == a[i].key) ++j;
    if (j - i >= 2) {
      bool any_deeper = false;
      for (uint32_t k = i; k < j && !any_deeper; ++k) {
        uint32_t len = 0;
        ctx.WindowBit(a[k].slot, &len);
        any_deeper = len > next;
      }
      if (any_deeper) {
        for (uint32_t k = i; k < j; ++k) {
          a[k].key = ctx.KeyAt(a[k].slot, next);
        }
        SortArea(a + i, j - i, next, ctx);
      }
    }
    i = j;
  }
}

}  // namespace

GroupPreparer::GroupPreparer(const VirtualTree& group,
                             const RangePolicy& policy, StringReader* reader,
                             uint64_t text_length, const Alphabet& alphabet,
                             PrepareScratch* scratch)
    : group_(group),
      policy_(policy),
      reader_(reader),
      text_length_(text_length),
      code_(alphabet),
      scratch_(scratch != nullptr ? scratch : &own_scratch_) {}

Status GroupPreparer::NoCodeError() {
  return Status::Corruption(
      "the text holds a byte outside its alphabet; a prepare window cannot "
      "encode it");
}

Status GroupPreparer::ScanOccurrences(uint32_t range) {
  WallTimer scan_timer;
  PrepareScratch& scratch = *scratch_;
  // ---- Lay round 1 out from the counted frequencies: every occurrence of
  // a prefix with f >= 2 is active, and slot s of such a state (its s-th
  // occurrence) owns compact index window_base + s — the layout FetchRound
  // would build for one area [0, f) per state.
  std::vector<std::string> patterns;
  patterns.reserve(group_.prefixes.size());
  states_.resize(group_.prefixes.size());
  uint64_t total_active = 0;
  uint64_t max_frequency = 0;
  uint64_t active_states = 0;
  for (std::size_t i = 0; i < group_.prefixes.size(); ++i) {
    const PrefixInfo& info = group_.prefixes[i];
    State& state = states_[i];
    patterns.push_back(info.prefix);
    state.prefix = info.prefix;
    state.expected_frequency = info.frequency;
    state.L.reserve(info.frequency);
    state.window_base = total_active;
    if (info.frequency >= 2) {
      total_active += info.frequency;
      max_frequency = std::max(max_frequency, info.frequency);
      ++active_states;
    }
  }
  scratch.BeginRound(total_active, range, code_.bits(), max_frequency);
  // A window straddles a refill only if its match ends within `range` of
  // the refill's end, and each prefix ends at most once per position.
  scratch.BeginScan(std::min(total_active, uint64_t{range} * active_states));

  // ---- One scan finds every occurrence (lines 1-7) and packs the `range`
  // symbols after it into its round-1 window (lines 10-12). The scan walks
  // the reader's window in place. A match is reported once its last symbol
  // is scanned, so its window starts inside the window being scanned or
  // right at its end; a prepare window that runs past it is finished from
  // the next refill. Window starts follow match order and every window
  // spans `range`, so straddlers complete in FIFO order. A window cut short
  // by end-of-file keeps its short length.
  uint64_t* const windows = scratch.windows.data();
  uint32_t* const window_len = scratch.window_len.data();
  const uint64_t window_bits = uint64_t{range} * code_.bits();
  std::vector<StraddlingWindow>& straddlers = scratch.straddlers;
  uint64_t chunk_begin = 0;
  std::span<const char> chunk;
  uint64_t symbols = 0;
  bool packed = true;
  auto on_chunk = [&](uint64_t begin, std::span<const char> bytes) {
    chunk_begin = begin;
    chunk = bytes;
    const uint64_t chunk_end = begin + bytes.size();
    std::size_t finished = 0;
    for (const StraddlingWindow& w : straddlers) {
      const uint64_t end = std::min(w.start + range, chunk_end);
      packed &= PackSymbols(code_, bytes.data(), end - begin, windows,
                            w.compact * window_bits +
                                (begin - w.start) * code_.bits());
      window_len[w.compact] = static_cast<uint32_t>(end - w.start);
      symbols += end - begin;
      finished += w.start + range <= chunk_end;
    }
    straddlers.erase(straddlers.begin(), straddlers.begin() + finished);
  };
  auto on_match = [&](int32_t id, uint64_t pos) {
    State& state = states_[static_cast<std::size_t>(id)];
    const uint64_t slot = state.L.size();
    state.L.push_back(pos);
    ++stats_.occurrence_scan_matches;
    // A prefix with f < 2 has no windows; a match beyond the counted f has
    // no slot in its state's slab (the count check below fails the group).
    if (state.expected_frequency < 2 || slot >= state.expected_frequency) {
      return;
    }
    const uint64_t compact = state.window_base + slot;
    const uint64_t start = pos + state.prefix.size();
    const uint64_t chunk_end = chunk_begin + chunk.size();
    const uint64_t end = std::min(start + range, chunk_end);
    packed &= PackSymbols(code_, chunk.data() + (start - chunk_begin),
                          end - start, windows, compact * window_bits);
    window_len[compact] = static_cast<uint32_t>(end - start);
    symbols += end - start;
    if (start + range > chunk_end) {
      assert(straddlers.size() < straddlers.capacity());
      straddlers.push_back({start, compact});
    }
  };
  ERA_ASSIGN_OR_RETURN(auto matcher, AhoCorasick::Build(patterns));
  ERA_RETURN_NOT_OK(matcher.ScanAll(reader_, on_match, on_chunk));
  stats_.symbols_fetched += symbols;
  stats_.times.scan_seconds += scan_timer.Seconds();
  if (!packed) return NoCodeError();

  for (State& state : states_) {
    if (state.L.size() != state.expected_frequency) {
      return Status::Internal(
          "occurrence scan found " + std::to_string(state.L.size()) +
          " matches for '" + state.prefix + "', vertical partitioning " +
          "counted " + std::to_string(state.expected_frequency));
    }
    const std::size_t m = state.L.size();
    state.P.resize(m);
    std::iota(state.P.begin(), state.P.end(), 0);
    state.I.resize(m);
    std::iota(state.I.begin(), state.I.end(), 0);
    state.B.assign(m, BranchInfo{});
    if (!state.B.empty()) state.B[0].defined = true;  // sentinel
    state.start = state.prefix.size();
    // Sized once here, rewritten in place every round: the hot path must
    // not allocate in steady state.
    state.slot_to_compact.resize(m);
    std::iota(state.slot_to_compact.begin(), state.slot_to_compact.end(), 0);
    state.was_active.assign(m, m >= 2 ? 1 : 0);
    state.areas.reserve(m / 2 + 1);  // every area holds >= 2 slots
    if (m >= 2) {
      state.areas.emplace_back(0, static_cast<uint32_t>(m));
    } else if (m == 1) {
      state.I[0] = kDoneSlot;
    }
  }
  scratch.cursor_rank.resize(states_.size());
  return Status::OK();
}

Status GroupPreparer::FetchRound(uint32_t range) {
  PrepareScratch& scratch = *scratch_;
  WallTimer phase_timer;
  // ---- Lay the round out in the arena: per-state compact maps and window
  // slabs (paper lines 10-12's bookkeeping, without the per-round vectors).
  uint64_t total_active = 0;
  uint64_t max_area = 0;
  for (State& state : states_) {
    std::fill(state.was_active.begin(), state.was_active.end(), 0);
    state.window_base = total_active;
    uint64_t compact = 0;
    for (const auto& [begin, end] : state.areas) {
      max_area = std::max<uint64_t>(max_area, end - begin);
      for (uint32_t s = begin; s < end; ++s) {
        state.slot_to_compact[s] = static_cast<uint32_t>(compact++);
        state.was_active[s] = 1;
      }
    }
    total_active += compact;
  }
  scratch.BeginRound(total_active, range, code_.bits(), max_area);

  // ---- Fill R with one merged sequential pass. Each state's unresolved
  // leaves are visited in appearance order via I, so per-state positions are
  // increasing; the loser tree merges the k sorted streams into one
  // monotone request stream, and FetchBatch serves it in a single pass over
  // the input buffer, one bounded slice at a time (consecutive sorted slices
  // of one scan read exactly what a single call would).
  auto advance = [](State* state, std::size_t from) -> std::size_t {
    std::size_t rank = from;
    while (rank < state->I.size() && state->I[rank] == kDoneSlot) ++rank;
    return rank;
  };
  LoserTree& merge = scratch.merge;
  merge.Reset(static_cast<uint32_t>(states_.size()));
  for (std::size_t i = 0; i < states_.size(); ++i) {
    State& state = states_[i];
    std::size_t rank = advance(&state, 0);
    scratch.cursor_rank[i] = rank;
    if (rank < state.I.size()) {
      uint64_t slot = static_cast<uint64_t>(state.I[rank]);
      merge.SetKey(static_cast<uint32_t>(i), state.L[slot] + state.start);
    }
  }
  merge.Build();
  // FetchBatch hands each request's bytes to the sink as spans of the
  // reader's window, which packs them straight into the request's window:
  // no staging copy. A request cut short by end-of-file leaves a short
  // window_len.
  reader_->BeginScan();
  uint64_t* const windows = scratch.windows.data();
  uint32_t* const window_len = scratch.window_len.data();
  const uint64_t* const request_window = scratch.request_window.data();
  const uint64_t window_bits = uint64_t{range} * code_.bits();
  uint64_t symbols = 0;
  bool packed = true;
  auto pack = [&](std::size_t r, uint64_t offset,
                  std::span<const char> piece) {
    const uint64_t compact = request_window[r];
    packed &= PackSymbols(code_, piece.data(), piece.size(), windows,
                          compact * window_bits + offset * code_.bits());
    window_len[compact] = static_cast<uint32_t>(offset + piece.size());
    symbols += piece.size();
  };
  double fetch_seconds = 0;
  [[maybe_unused]] uint64_t served = 0;
  auto serve = [&](uint64_t n) -> Status {
    WallTimer fetch_timer;
    served += n;
    ERA_RETURN_NOT_OK(reader_->FetchBatch(
        std::span<const FetchRequest>(scratch.requests.data(), n), pack));
    fetch_seconds += fetch_timer.Seconds();
    return Status::OK();
  };
  uint64_t num_requests = 0;  // in the current slice
  while (!merge.Empty()) {
    const uint32_t way = merge.MinWay();
    const uint64_t pos = merge.MinKey();
    State& state = states_[way];
    std::size_t rank = scratch.cursor_rank[way];
    uint64_t slot = static_cast<uint64_t>(state.I[rank]);
    uint64_t compact = state.window_base + state.slot_to_compact[slot];
    scratch.requests[num_requests] = {pos, range};
    scratch.request_window[num_requests] = compact;
    window_len[compact] = 0;  // set by its pieces
    if (++num_requests == scratch.requests.size()) {
      ERA_RETURN_NOT_OK(serve(num_requests));
      num_requests = 0;
    }
    rank = advance(&state, rank + 1);
    scratch.cursor_rank[way] = rank;
    merge.Replace(rank < state.I.size()
                      ? state.L[static_cast<uint64_t>(state.I[rank])] +
                            state.start
                      : LoserTree::kExhausted);
  }
  ERA_RETURN_NOT_OK(serve(num_requests));
  assert(served == total_active);
  stats_.symbols_fetched += symbols;
  const double merge_and_fetch = phase_timer.Seconds();
  stats_.times.layout_seconds += merge_and_fetch - fetch_seconds;
  stats_.times.fetch_seconds += fetch_seconds;
  return packed ? Status::OK() : NoCodeError();
}

Status GroupPreparer::SortRound(uint32_t range) {
  PrepareScratch& scratch = *scratch_;
  WallTimer phase_timer;
  auto undecidable = [range](const AreaSortContext::Split& split) {
    if (split.len1 != split.len2) {
      return Status::Internal(
          "window is a proper prefix of its neighbor; the terminal "
          "invariant is broken");
    }
    if (split.len1 < range) {
      return Status::Internal(
          "equal short windows: two suffixes share the terminal");
    }
    return Status::OK();
  };
  // ---- Sort active areas, define B, retire resolved leaves (lines 13-23).
  for (State& state : states_) {
    if (state.areas.empty()) continue;
    const AreaSortContext ctx{scratch.windows.data(),
                              scratch.window_len.data(),
                              state.slot_to_compact.data(),
                              state.window_base,
                              uint64_t{range} * code_.bits(),
                              code_.bits(),
                              code_.symbols_per_word()};

    scratch.area_tmp.clear();
    for (const auto& [begin, end] : state.areas) {
      const uint32_t area_size = end - begin;
      if (area_size == 2) {
        // Most areas degenerate to pairs within a few rounds; one common-
        // prefix scan both orders the pair and yields its B entry, skipping
        // the sort/permute machinery entirely.
        const AreaSortContext::Split split = ctx.Compare(begin, begin + 1);
        if (split.common == std::min(split.len1, split.len2)) {
          ERA_RETURN_NOT_OK(undecidable(split));
          scratch.area_tmp.emplace_back(begin, end);  // still undecidable
          continue;
        }
        uint64_t c1 = split.code1;
        uint64_t c2 = split.code2;
        if (c1 > c2) {
          std::swap(state.L[begin], state.L[begin + 1]);
          std::swap(state.P[begin], state.P[begin + 1]);
          std::swap(state.slot_to_compact[begin],
                    state.slot_to_compact[begin + 1]);
          std::swap(c1, c2);
        }
        state.B[begin + 1].offset = state.start + split.common;
        state.B[begin + 1].c1 = code_.Symbol(c1);
        state.B[begin + 1].c2 = code_.Symbol(c2);
        state.B[begin + 1].defined = true;
        state.I[state.P[begin]] = kDoneSlot;      // both slots resolved
        state.I[state.P[begin + 1]] = kDoneSlot;
        continue;
      }

      // Sort slots [begin, end) by window content (radix on word-wide
      // keys; see SortArea). Equal windows keep their relative slot order
      // (they stay in one active area), so the slot tie-break keeps the
      // sort stable.
      WindowSortRec* order = scratch.sort_records.data();
      for (uint32_t s = begin; s < end; ++s) {
        order[s - begin] = {ctx.KeyAt(s, 0), s};
      }
      SortArea(order, area_size, 0, ctx);

      // Apply the permutation to L, P and the slot->compact map. The packed
      // windows never move: re-pointing the map costs O(area) words instead
      // of two O(area * range) copies per round.
      for (uint32_t k = 0; k < area_size; ++k) {
        uint32_t src = order[k].slot;
        scratch.perm_l[k] = state.L[src];
        scratch.perm_p[k] = state.P[src];
        scratch.perm_compact[k] = state.slot_to_compact[src];
      }
      for (uint32_t k = 0; k < area_size; ++k) {
        uint32_t slot = begin + k;
        state.L[slot] = scratch.perm_l[k];
        state.P[slot] = scratch.perm_p[k];
        state.slot_to_compact[slot] = scratch.perm_compact[k];
        state.I[state.P[slot]] = static_cast<int64_t>(slot);
      }

      // Define the B entries that became decidable in this area and find
      // the runs of still-equal windows (the new active areas).
      uint32_t run_start = begin;
      for (uint32_t i = begin + 1; i <= end; ++i) {
        bool bond_open = false;
        if (i < end) {
          const AreaSortContext::Split split = ctx.Compare(i - 1, i);
          if (split.common == std::min(split.len1, split.len2)) {
            ERA_RETURN_NOT_OK(undecidable(split));
            bond_open = true;  // identical full windows: stay active
          } else {
            state.B[i].offset = state.start + split.common;
            state.B[i].c1 = code_.Symbol(split.code1);
            state.B[i].c2 = code_.Symbol(split.code2);
            state.B[i].defined = true;
          }
        }
        if (!bond_open) {
          // Run [run_start, i) closed.
          if (i - run_start >= 2) {
            scratch.area_tmp.emplace_back(run_start, i);
          } else {
            // Singleton: both bonds of this slot are now defined (or are
            // boundaries) — the leaf is resolved (lines 20-23).
            state.I[state.P[run_start]] = kDoneSlot;
          }
          run_start = i;
        }
      }
    }
    state.areas.assign(scratch.area_tmp.begin(), scratch.area_tmp.end());
    state.start += range;
  }
  stats_.times.sort_seconds += phase_timer.Seconds();
  return Status::OK();
}

void GroupPreparer::EmitSnapshot(uint32_t range) {
  if (!observer_) return;
  PrepareSnapshot snapshot;
  snapshot.round = stats_.rounds;
  snapshot.range = range;
  for (State& state : states_) {
    PrepareSnapshot::State s;
    s.prefix = state.prefix;
    s.I.assign(state.I.begin(), state.I.end());
    s.P = state.P;
    s.L = state.L;
    s.R.resize(state.L.size());
    s.area.assign(state.L.size(), -1);
    for (std::size_t a = 0; a < state.areas.size(); ++a) {
      for (uint32_t slot = state.areas[a].first; slot < state.areas[a].second;
           ++slot) {
        s.area[slot] = static_cast<int64_t>(a + 1);
      }
    }
    // Windows were fetched for the slots active at the start of the round;
    // expose them post-permutation (what the paper's traces print), decoded
    // back to text.
    for (uint32_t slot = 0; slot < state.L.size(); ++slot) {
      if (!state.was_active[slot]) continue;
      const uint64_t compact = state.window_base + state.slot_to_compact[slot];
      const uint64_t* const windows = scratch_->windows.data();
      const uint64_t bit = compact * range * code_.bits();
      for (uint32_t i = 0; i < scratch_->window_len[compact]; ++i) {
        const uint64_t at = bit + uint64_t{i} * code_.bits();
        s.R[slot].push_back(
            code_.Symbol(LoadBits(windows, at) >> (64 - code_.bits())));
      }
    }
    s.B.resize(state.B.size());
    for (std::size_t i = 0; i < state.B.size(); ++i) {
      if (state.B[i].defined && i > 0) {
        s.B[i] = std::make_tuple(state.B[i].c1, state.B[i].c2,
                                 state.B[i].offset);
      }
    }
    snapshot.states.push_back(std::move(s));
  }
  observer_(snapshot);
}

Status GroupPreparer::FlushResolved() {
  if (!emit_) return Status::OK();
  for (std::size_t k = 0; k < states_.size(); ++k) {
    State& state = states_[k];
    if (state.emitted || !state.areas.empty()) continue;
    state.emitted = true;
    PreparedSubTree prepared;
    prepared.prefix = std::move(state.prefix);
    prepared.leaves = std::move(state.L);
    prepared.branches = std::move(state.B);
    // Later rounds still walk this state: its (now moved-from) arrays are
    // never touched again because areas is empty and every I entry is
    // kDoneSlot.
    ERA_RETURN_NOT_OK(emit_(k, std::move(prepared)));
  }
  return Status::OK();
}

Status GroupPreparer::Run() {
  if (emit_ && observer_) {
    // FlushResolved moves each resolved state's arrays out; the trace
    // observer would then snapshot moved-from (empty) states silently.
    return Status::InvalidArgument(
        "SetEmitCallback and SetObserver are mutually exclusive");
  }
  // Round 1's active leaves, and with them its range, follow from the
  // counted frequencies, so the occurrence scan fills round 1's windows.
  uint64_t total_active = 0;
  for (const PrefixInfo& info : group_.prefixes) {
    if (info.frequency == 0) {
      return Status::InvalidArgument(
          "prefix '" + info.prefix + "' has no counted frequency; " +
          "GroupPreparer needs every prefix's exact occurrence count");
    }
    if (info.frequency >= 2) total_active += info.frequency;
  }
  uint32_t range = policy_.NextRange(total_active);
  ERA_RETURN_NOT_OK(ScanOccurrences(range));
  ERA_RETURN_NOT_OK(FlushResolved());  // single-occurrence prefixes

  while (total_active > 0) {
    ++stats_.rounds;
    if (stats_.rounds > 1) {
      range = policy_.NextRange(total_active);
      ERA_RETURN_NOT_OK(FetchRound(range));
    }
    ERA_RETURN_NOT_OK(SortRound(range));
    EmitSnapshot(range);
    ERA_RETURN_NOT_OK(FlushResolved());
    total_active = 0;
    for (const State& state : states_) {
      for (const auto& [begin, end] : state.areas) {
        total_active += end - begin;
      }
    }
  }

  if (emit_) return Status::OK();  // everything already streamed out
  results_.clear();
  results_.reserve(states_.size());
  for (State& state : states_) {
    PreparedSubTree prepared;
    prepared.prefix = std::move(state.prefix);
    prepared.leaves = std::move(state.L);
    prepared.branches = std::move(state.B);
    results_.push_back(std::move(prepared));
  }
  return Status::OK();
}

}  // namespace era
