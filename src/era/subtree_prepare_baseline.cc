#include "era/subtree_prepare_baseline.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <numeric>
#include <queue>

#include "text/aho_corasick.h"

namespace era {

BaselineGroupPreparer::BaselineGroupPreparer(const VirtualTree& group,
                             const RangePolicy& policy, StringReader* reader,
                             uint64_t text_length)
    : group_(group),
      policy_(policy),
      reader_(reader),
      text_length_(text_length) {}

Status BaselineGroupPreparer::ScanOccurrences() {
  std::vector<std::string> patterns;
  patterns.reserve(group_.prefixes.size());
  states_.resize(group_.prefixes.size());
  for (std::size_t i = 0; i < group_.prefixes.size(); ++i) {
    patterns.push_back(group_.prefixes[i].prefix);
    states_[i].prefix = group_.prefixes[i].prefix;
    states_[i].expected_frequency = group_.prefixes[i].frequency;
    states_[i].L.reserve(group_.prefixes[i].frequency);
  }
  ERA_ASSIGN_OR_RETURN(auto matcher, AhoCorasick::Build(patterns));
  ERA_RETURN_NOT_OK(matcher.ScanAll(
      reader_, [&](int32_t id, uint64_t pos) {
        states_[static_cast<std::size_t>(id)].L.push_back(pos);
        ++stats_.occurrence_scan_matches;
      }));

  for (State& state : states_) {
    if (state.expected_frequency != 0 &&
        state.L.size() != state.expected_frequency) {
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
    if (m >= 2) {
      state.areas.emplace_back(0, static_cast<uint32_t>(m));
      state.active_count = m;
    } else {
      state.active_count = 0;
      if (m == 1) state.I[0] = kDoneSlot;
    }
  }
  return Status::OK();
}

Status BaselineGroupPreparer::RunRound(uint32_t range) {
  // ---- Fill R: one merged sequential scan over all states (lines 10-12).
  // Each state's unresolved leaves are visited in appearance order via I, so
  // per-state request positions are increasing; a k-way merge keeps the
  // global request stream monotone.
  for (State& state : states_) {
    state.slot_to_compact.assign(state.L.size(), 0);
    state.was_active.assign(state.L.size(), 0);
    uint64_t compact = 0;
    for (const auto& [begin, end] : state.areas) {
      for (uint32_t s = begin; s < end; ++s) {
        state.slot_to_compact[s] = static_cast<uint32_t>(compact++);
        state.was_active[s] = 1;
      }
    }
    state.active_count = compact;
    state.windows.assign(compact * range, 0);
    state.window_len.assign(compact, 0);
  }

  struct Cursor {
    State* state;
    std::size_t rank;
    uint64_t pos;
  };
  auto advance = [&](State* state, std::size_t from) -> std::size_t {
    std::size_t rank = from;
    while (rank < state->I.size() && state->I[rank] == kDoneSlot) ++rank;
    return rank;
  };
  auto cmp = [](const Cursor& a, const Cursor& b) { return a.pos > b.pos; };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(cmp)> heap(cmp);
  for (State& state : states_) {
    std::size_t rank = advance(&state, 0);
    if (rank < state.I.size()) {
      uint64_t slot = static_cast<uint64_t>(state.I[rank]);
      heap.push({&state, rank, state.L[slot] + state.start});
    }
  }
  reader_->BeginScan();
  while (!heap.empty()) {
    Cursor cur = heap.top();
    heap.pop();
    State& state = *cur.state;
    uint64_t slot = static_cast<uint64_t>(state.I[cur.rank]);
    uint32_t compact = state.slot_to_compact[slot];
    uint32_t got = 0;
    ERA_RETURN_NOT_OK(reader_->Fetch(cur.pos, range,
                                     state.windows.data() +
                                         static_cast<uint64_t>(compact) * range,
                                     &got));
    state.window_len[compact] = got;
    stats_.symbols_fetched += got;
    std::size_t next = advance(&state, cur.rank + 1);
    if (next < state.I.size()) {
      uint64_t next_slot = static_cast<uint64_t>(state.I[next]);
      heap.push({&state, next, state.L[next_slot] + state.start});
    }
  }

  // ---- Sort active areas, define B, retire resolved leaves (lines 13-23).
  for (State& state : states_) {
    if (state.areas.empty()) continue;
    auto window_of = [&](uint32_t slot) {
      uint32_t compact = state.slot_to_compact[slot];
      return std::pair<const char*, uint32_t>(
          state.windows.data() + static_cast<uint64_t>(compact) * range,
          state.window_len[compact]);
    };

    std::vector<std::pair<uint32_t, uint32_t>> new_areas;
    for (const auto& [begin, end] : state.areas) {
      // Sort slots [begin, end) by window content. An 8-byte big-endian key
      // settles almost every comparison with one integer compare; ties fall
      // back to the window tail. Equal windows keep their relative slot
      // order (they stay in one active area), so the slot tie-break makes
      // the plain sort stable.
      struct SortRec {
        uint64_t key;
        uint32_t slot;
      };
      std::vector<SortRec> order(end - begin);
      for (uint32_t s = begin; s < end; ++s) {
        auto [w, len] = window_of(s);
        uint64_t key = 0;
        uint32_t take = std::min<uint32_t>(len, 8);
        for (uint32_t i = 0; i < take; ++i) {
          key |= static_cast<uint64_t>(static_cast<unsigned char>(w[i]))
                 << (56 - 8 * i);
        }
        order[s - begin] = {key, s};
      }
      std::sort(order.begin(), order.end(),
                [&](const SortRec& x, const SortRec& y) {
                  if (x.key != y.key) return x.key < y.key;
                  auto [wx, lx] = window_of(x.slot);
                  auto [wy, ly] = window_of(y.slot);
                  if (lx > 8 && ly > 8) {
                    uint32_t m = std::min(lx, ly) - 8;
                    int c = std::memcmp(wx + 8, wy + 8, m);
                    if (c != 0) return c < 0;
                  }
                  if (lx != ly) return lx < ly;  // unreachable if valid
                  return x.slot < y.slot;        // stability
                });

      // Apply the permutation to L, P and the compact windows; compact
      // indices within the area stay contiguous, so permute via temporaries.
      std::vector<uint64_t> new_l(order.size()), new_p(order.size());
      std::vector<char> new_windows(order.size() *
                                    static_cast<uint64_t>(range));
      std::vector<uint32_t> new_len(order.size());
      for (std::size_t k = 0; k < order.size(); ++k) {
        uint32_t src = order[k].slot;
        new_l[k] = state.L[src];
        new_p[k] = state.P[src];
        auto [w, len] = window_of(src);
        std::memcpy(new_windows.data() + k * range, w, len);
        new_len[k] = len;
      }
      uint32_t base_compact = state.slot_to_compact[begin];
      for (std::size_t k = 0; k < order.size(); ++k) {
        uint32_t slot = begin + static_cast<uint32_t>(k);
        state.L[slot] = new_l[k];
        state.P[slot] = new_p[k];
        std::memcpy(state.windows.data() +
                        (static_cast<uint64_t>(base_compact) + k) * range,
                    new_windows.data() + k * range, new_len[k]);
        state.window_len[base_compact + k] = new_len[k];
        state.slot_to_compact[slot] = base_compact + static_cast<uint32_t>(k);
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
          uint32_t cs = 0;
          while (cs < m && w1[cs] == w2[cs]) ++cs;
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
            new_areas.emplace_back(run_start, i);
          } else {
            // Singleton: both bonds of this slot are now defined (or are
            // boundaries) — the leaf is resolved (lines 20-23).
            state.I[state.P[run_start]] = kDoneSlot;
          }
          run_start = i;
        }
      }
    }
    state.areas = std::move(new_areas);
    state.start += range;
  }
  return Status::OK();
}

Status BaselineGroupPreparer::Run() {
  ERA_RETURN_NOT_OK(ScanOccurrences());

  while (true) {
    uint64_t total_active = 0;
    for (const State& state : states_) {
      for (const auto& [begin, end] : state.areas) {
        total_active += end - begin;
      }
    }
    if (total_active == 0) break;
    uint32_t range = policy_.NextRange(total_active);
    ++stats_.rounds;
    ERA_RETURN_NOT_OK(RunRound(range));
  }

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
