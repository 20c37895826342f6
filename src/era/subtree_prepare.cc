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

/// Reinterprets a native-endian u64 loaded from memory as the big-endian
/// value of those bytes (the sort keys compare in text byte order).
inline uint64_t NativeToBigEndian64(uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    return __builtin_bswap64(v);
  } else {
    return v;
  }
}

/// Index of the first (lowest-address) differing byte between two words
/// loaded from memory, given their nonzero XOR.
inline uint32_t FirstDiffByte(uint64_t native_xor) {
  if constexpr (std::endian::native == std::endian::little) {
    return static_cast<uint32_t>(__builtin_ctzll(native_xor) >> 3);
  } else {
    return static_cast<uint32_t>(__builtin_clzll(native_xor) >> 3);
  }
}

// ---------------------------------------------------------------------------
// In-place MSD radix sort of one active area.
//
// Records carry an 8-symbol big-endian key (a zero-padded load of window
// bytes [depth, depth+8)). The radix passes consume the key one byte at a
// time with an American-flag permutation; buckets below the cutoff finish
// with an insertion sort on (key, slot). Runs whose full 8-byte keys tie are
// reloaded from the next 8 window symbols and recursed — deep-LCP areas cost
// one 8-byte integer compare per 8 shared symbols instead of a memcmp per
// comparison pair.
// ---------------------------------------------------------------------------

/// Resolves slots to their windows inside the shared arena.
struct AreaSortContext {
  const char* windows;
  const uint32_t* window_len;
  const uint32_t* slot_to_compact;
  uint64_t window_base;
  uint32_t range;

  const char* WindowOf(uint32_t slot, uint32_t* len) const {
    uint64_t compact = window_base + slot_to_compact[slot];
    *len = window_len[compact];
    return windows + compact * range;
  }

  /// Big-endian load of window bytes [depth, depth+8), zero-padded past the
  /// window's end (one unaligned load + byte swap on little-endian hosts).
  uint64_t KeyAt(uint32_t slot, uint32_t depth) const {
    uint32_t len = 0;
    const char* w = WindowOf(slot, &len);
    if (depth >= len) return 0;
    uint64_t v = 0;
    std::memcpy(&v, w + depth, std::min<uint32_t>(8, len - depth));
    return NativeToBigEndian64(v);
  }
};

/// Length of the common prefix of w1[0,l1) and w2[0,l2), compared in 8-byte
/// chunks (the B-scan runs this once per adjacent slot pair per round).
uint32_t CommonPrefixLen(const char* w1, uint32_t l1, const char* w2,
                         uint32_t l2) {
  const uint32_t m = std::min(l1, l2);
  uint32_t cs = 0;
  while (cs + 8 <= m) {
    uint64_t a, b;
    std::memcpy(&a, w1 + cs, 8);
    std::memcpy(&b, w2 + cs, 8);
    if (a != b) {
      return cs + FirstDiffByte(a ^ b);
    }
    cs += 8;
  }
  while (cs < m && w1[cs] == w2[cs]) ++cs;
  return cs;
}

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

/// Sorts an area whose keys hold window bytes [depth, depth+8). Full-key
/// ties re-extract from the window tail and recurse (the memcmp-free deep
/// path); ties that exhaust a window fall back to a comparison sort with
/// the (content, length, slot) order of the reference implementation.
void SortArea(WindowSortRec* a, uint32_t n, uint32_t depth,
              const AreaSortContext& ctx) {
  RadixSortKeys(a, n, 0);
  uint32_t i = 0;
  while (i < n) {
    uint32_t j = i + 1;
    while (j < n && a[j].key == a[i].key) ++j;
    if (j - i >= 2) {
      const uint32_t next = depth + 8;
      bool all_deeper = true;
      for (uint32_t k = i; k < j && all_deeper; ++k) {
        uint32_t len = 0;
        ctx.WindowOf(a[k].slot, &len);
        all_deeper = len > next;
      }
      if (all_deeper) {
        for (uint32_t k = i; k < j; ++k) {
          a[k].key = ctx.KeyAt(a[k].slot, next);
        }
        SortArea(a + i, j - i, next, ctx);
      } else {
        // A window ends inside the key: near end-of-file, or whenever the
        // range is below depth + 8, so every tied run of a round whose
        // range is below 8 takes this comparator sort.
        std::sort(a + i, a + j,
                  [&ctx](const WindowSortRec& x, const WindowSortRec& y) {
                    uint32_t lx = 0, ly = 0;
                    const char* wx = ctx.WindowOf(x.slot, &lx);
                    const char* wy = ctx.WindowOf(y.slot, &ly);
                    int c = std::memcmp(wx, wy, std::min(lx, ly));
                    if (c != 0) return c < 0;
                    if (lx != ly) return lx < ly;
                    return x.slot < y.slot;
                  });
      }
    }
    i = j;
  }
}

}  // namespace

GroupPreparer::GroupPreparer(const VirtualTree& group,
                             const RangePolicy& policy, StringReader* reader,
                             uint64_t text_length, PrepareScratch* scratch)
    : group_(group),
      policy_(policy),
      reader_(reader),
      text_length_(text_length),
      scratch_(scratch != nullptr ? scratch : &own_scratch_) {}

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
  scratch.BeginRound(total_active, range, max_frequency);
  // A window straddles a refill only if its match ends within `range` of
  // the refill's end, and each prefix ends at most once per position.
  scratch.BeginScan(std::min(total_active, uint64_t{range} * active_states));

  // ---- One scan finds every occurrence (lines 1-7) and copies the `range`
  // symbols after it into its round-1 window (lines 10-12). A match is
  // reported once its last symbol is scanned, so its window starts inside
  // the chunk being scanned or right at its end; a window that runs past
  // the chunk is finished from the next refill. Window starts follow match
  // order and every window spans `range`, so straddlers complete in FIFO
  // order. A window cut short by end-of-file keeps its short length.
  char* const windows = scratch.windows.data();
  uint32_t* const window_len = scratch.window_len.data();
  std::vector<StraddlingWindow>& straddlers = scratch.straddlers;
  uint64_t chunk_begin = 0;
  std::span<const char> chunk;
  uint64_t symbols = 0;
  auto on_chunk = [&](uint64_t begin, std::span<const char> bytes) {
    chunk_begin = begin;
    chunk = bytes;
    const uint64_t chunk_end = begin + bytes.size();
    std::size_t finished = 0;
    for (const StraddlingWindow& w : straddlers) {
      const uint64_t end = std::min(w.start + range, chunk_end);
      std::memcpy(windows + w.compact * range + (begin - w.start),
                  bytes.data(), end - begin);
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
    std::memcpy(windows + compact * range,
                chunk.data() + (start - chunk_begin), end - start);
    window_len[compact] = static_cast<uint32_t>(end - start);
    symbols += end - start;
    if (start + range > chunk_end) {
      assert(straddlers.size() < straddlers.capacity());
      straddlers.push_back({start, compact});
    }
  };
  ERA_ASSIGN_OR_RETURN(auto matcher, AhoCorasick::Build(patterns));
  ERA_RETURN_NOT_OK(
      matcher.ScanAll(reader_, scratch.scan_chunk, on_match, on_chunk));
  stats_.symbols_fetched += symbols;
  stats_.times.scan_seconds += scan_timer.Seconds();

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
  scratch.BeginRound(total_active, range, max_area);

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
  reader_->BeginScan();
  const uint64_t file_size = reader_->size();
  char* const windows = scratch.windows.data();
  double fetch_seconds = 0;
  [[maybe_unused]] uint64_t served = 0;
  auto serve = [&](uint64_t n) -> Status {
    WallTimer fetch_timer;
    served += n;
    ERA_RETURN_NOT_OK(reader_->FetchBatch(
        std::span<FetchRequest>(scratch.requests.data(), n)));
    // A fetch comes back short only at end-of-file, and the stream is
    // sorted by position, so only a tail of the requests can need their
    // optimistic window_len corrected.
    stats_.symbols_fetched += n * range;
    for (uint64_t r = n; r-- > 0;) {
      const FetchRequest& request = scratch.requests[r];
      if (request.pos + range <= file_size) break;
      scratch.window_len[static_cast<uint64_t>(request.out - windows) /
                         range] = request.got;
      stats_.symbols_fetched -= range - request.got;
    }
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
    scratch.requests[num_requests] = {pos, range, windows + compact * range,
                                      0};
    scratch.window_len[compact] = range;  // optimistic; EOF tail patched
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
  const double merge_and_fetch = phase_timer.Seconds();
  stats_.times.layout_seconds += merge_and_fetch - fetch_seconds;
  stats_.times.fetch_seconds += fetch_seconds;
  return Status::OK();
}

Status GroupPreparer::SortRound(uint32_t range) {
  PrepareScratch& scratch = *scratch_;
  WallTimer phase_timer;
  // ---- Sort active areas, define B, retire resolved leaves (lines 13-23).
  for (State& state : states_) {
    if (state.areas.empty()) continue;
    AreaSortContext ctx{scratch.windows.data(), scratch.window_len.data(),
                        state.slot_to_compact.data(), state.window_base,
                        range};
    auto window_of = [&](uint32_t slot) {
      uint32_t len = 0;
      const char* w = ctx.WindowOf(slot, &len);
      return std::pair<const char*, uint32_t>(w, len);
    };

    scratch.area_tmp.clear();
    for (const auto& [begin, end] : state.areas) {
      const uint32_t area_size = end - begin;
      if (area_size == 2) {
        // Most areas degenerate to pairs within a few rounds; one common-
        // prefix scan both orders the pair and yields its B entry, skipping
        // the sort/permute machinery entirely.
        auto [w1, l1] = window_of(begin);
        auto [w2, l2] = window_of(begin + 1);
        uint32_t m = std::min(l1, l2);
        uint32_t cs = CommonPrefixLen(w1, l1, w2, l2);
        if (cs == m) {
          if (l1 != l2) {
            return Status::Internal(
                "window is a proper prefix of its neighbor; the terminal "
                "invariant is broken");
          }
          if (l1 < range) {
            return Status::Internal(
                "equal short windows: two suffixes share the terminal");
          }
          scratch.area_tmp.emplace_back(begin, end);  // still undecidable
          continue;
        }
        char c1 = w1[cs];
        char c2 = w2[cs];
        if (static_cast<unsigned char>(c1) > static_cast<unsigned char>(c2)) {
          std::swap(state.L[begin], state.L[begin + 1]);
          std::swap(state.P[begin], state.P[begin + 1]);
          std::swap(state.slot_to_compact[begin],
                    state.slot_to_compact[begin + 1]);
          std::swap(c1, c2);
        }
        state.B[begin + 1].offset = state.start + cs;
        state.B[begin + 1].c1 = c1;
        state.B[begin + 1].c2 = c2;
        state.B[begin + 1].defined = true;
        state.I[state.P[begin]] = kDoneSlot;      // both slots resolved
        state.I[state.P[begin + 1]] = kDoneSlot;
        continue;
      }

      // Sort slots [begin, end) by window content (radix on the 8-symbol
      // keys; see SortArea). Equal windows keep their relative slot order
      // (they stay in one active area), so the slot tie-break keeps the
      // sort stable.
      WindowSortRec* order = scratch.sort_records.data();
      for (uint32_t s = begin; s < end; ++s) {
        order[s - begin] = {ctx.KeyAt(s, 0), s};
      }
      SortArea(order, area_size, 0, ctx);

      // Apply the permutation to L, P and the slot->compact map. The window
      // bytes never move: re-pointing the map costs O(area) words instead
      // of two O(area * range) byte copies per round.
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
          auto [w1, l1] = window_of(i - 1);
          auto [w2, l2] = window_of(i);
          uint32_t m = std::min(l1, l2);
          uint32_t cs = CommonPrefixLen(w1, l1, w2, l2);
          if (cs == m) {
            if (l1 != l2) {
              return Status::Internal(
                  "window is a proper prefix of its neighbor; the terminal "
                  "invariant is broken");
            }
            if (l1 < range) {
              return Status::Internal(
                  "equal short windows: two suffixes share the terminal");
            }
            bond_open = true;  // identical full windows: stay active
          } else {
            state.B[i].offset = state.start + cs;
            state.B[i].c1 = w1[cs];
            state.B[i].c2 = w2[cs];
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
    // expose them post-permutation (what the paper's traces print).
    for (uint32_t slot = 0; slot < state.L.size(); ++slot) {
      if (!state.was_active[slot]) continue;
      uint64_t compact = state.window_base + state.slot_to_compact[slot];
      s.R[slot].assign(scratch_->windows.data() + compact * range,
                       scratch_->window_len[compact]);
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
