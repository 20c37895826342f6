#include "query/dict_matcher.h"

#include <algorithm>
#include <map>
#include <string_view>

namespace era {

namespace {

/// Mirrors the batch contract (query_engine.cc): the caller's deadline and
/// cancellation stop the dictionary mid-flight; anything else is the
/// pattern's (or its sub-tree's) own problem.
bool TerminatesDictionary(const Status& status) {
  return status.IsDeadlineExceeded() || status.IsCancelled();
}

}  // namespace

void DictMatcher::ResolveCount(std::size_t w, uint64_t count) {
  UniquePattern& up = unique_[w];
  ++session_->stats.queries;
  for (std::size_t item : up.items) (*outcomes_)[item].count = count;
  up.resolved = true;
}

void DictMatcher::ResolveMatch(std::size_t w, const ServedSubTree& tree,
                               uint32_t node,
                               std::vector<MatchedSlot>* matched) {
  const uint64_t count = tree.node(node).count;
  if (!options_.locate) {
    ResolveCount(w, count);
    return;
  }
  UniquePattern& up = unique_[w];
  ++session_->stats.queries;
  for (std::size_t item : up.items) (*outcomes_)[item].count = count;
  // Resolved only once the group's leaf pass delivers the offsets, so a
  // failure between here and there still stamps this pattern.
  matched->push_back(MatchedSlot{w, node});
}

void DictMatcher::StampUnresolved(std::size_t w, const Status& status,
                                  bool counts_as_query) {
  UniquePattern& up = unique_[w];
  if (up.resolved) return;
  if (counts_as_query) ++session_->stats.queries;
  for (std::size_t item : up.items) {
    (*outcomes_)[item].status = status;
    (*outcomes_)[item].count = 0;
    (*outcomes_)[item].offsets.clear();
  }
  up.resolved = true;
}

Status DictMatcher::ResolveTrie(std::size_t w) {
  UniquePattern& up = unique_[w];
  if (!options_.locate) {
    ++session_->stats.trie_resolved_counts;
    ResolveCount(w, engine_->index_.trie().TotalFrequency(up.trie_node));
    return Status::OK();
  }
  // Locate for a trie-exhausted pattern spans sub-trees; the single-pattern
  // path already does exactly the right walk (and counts its own query).
  auto hits = engine_->LocateWithSession(session_, ctx_, *up.pattern,
                                         options_.locate_limit,
                                         LocateOrder::kSmallest);
  ERA_RETURN_NOT_OK(hits.status());
  const uint64_t total = engine_->index_.trie().TotalFrequency(up.trie_node);
  for (std::size_t item : up.items) {
    (*outcomes_)[item].count = total;
    (*outcomes_)[item].offsets = *hits;
  }
  up.resolved = true;
  return Status::OK();
}

Status DictMatcher::Descend(const ServedSubTree& tree, std::size_t lo,
                            std::size_t hi,
                            std::vector<MatchedSlot>* matched) {
  // Sub-tree labels carry the full path from the global root (trie.h), so
  // the descent starts at sub-tree node 0 with depth 0 for every pattern.
  struct Frame {
    uint32_t node = 0;
    std::size_t depth = 0;
    std::size_t lo = 0;
    std::size_t hi = 0;
  };
  std::vector<Frame> stack{Frame{0, 0, lo, hi}};
  char buf[256];
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    // Node-visit boundary, same cadence as MatchInSubTree.
    ERA_RETURN_NOT_OK(ctx_.Check());
    // At most one pattern can end exactly at this depth (dedup made the
    // shared prefix itself unique); it matches at this node.
    while (f.lo < f.hi && unique_[f.lo].pattern->size() == f.depth) {
      ResolveMatch(f.lo, tree, f.node, matched);
      ++f.lo;
    }
    // Split the range at child boundaries: patterns are sorted, so each
    // distinct next symbol is one contiguous run and costs one child probe.
    std::size_t a = f.lo;
    while (a < f.hi) {
      const unsigned char sym =
          static_cast<unsigned char>((*unique_[a].pattern)[f.depth]);
      std::size_t b = a + 1;
      while (b < f.hi && static_cast<unsigned char>(
                             (*unique_[b].pattern)[f.depth]) == sym) {
        ++b;
      }
      const uint32_t child = engine_->FindChild(
          tree, f.node, static_cast<char>(sym), &session_->stats);
      if (child == kNilNode) {
        for (std::size_t w = a; w < b; ++w) ResolveCount(w, 0);
        a = b;
        continue;
      }
      ++session_->stats.dict_descents_shared;
      session_->stats.dict_descents_saved += (b - a) - 1;
      const NodeView c = tree.node(child);
      // Walk the edge label ONCE for the whole [a, b) run. FindChild
      // matched the stored label symbol 0. Invariant kept below: every
      // surviving pattern is strictly longer than the current depth, so the
      // chunk bound stays positive.
      std::size_t lo2 = a;
      std::size_t hi2 = b;
      std::size_t max_size = 0;
      for (std::size_t w = a; w < b; ++w) {
        max_size = std::max(max_size, unique_[w].pattern->size());
      }
      uint32_t j = 1;
      bool alive = true;
      while (j < c.edge_len && alive) {
        while (lo2 < hi2 && unique_[lo2].pattern->size() == f.depth + j) {
          // Ends inside the edge: the locus is mid-edge, every occurrence
          // sits under `child` (MatchInSubTree's verdict for this case).
          ResolveMatch(lo2, tree, child, matched);
          ++lo2;
        }
        if (lo2 == hi2) {
          alive = false;
          break;
        }
        const uint32_t chunk = static_cast<uint32_t>(std::min<uint64_t>(
            sizeof(buf), std::min<uint64_t>(c.edge_len - j,
                                            max_size - f.depth - j)));
        uint32_t got = 0;
        ++session_->stats.label_fetches;
        ERA_RETURN_NOT_OK(
            session_->reader->RandomFetch(c.edge_start + j, chunk, buf, &got));
        if (got != chunk) return Status::Corruption("edge label truncated");
        for (uint32_t t = 0; t < chunk; ++t) {
          const std::size_t d = f.depth + j + t;
          if (t != 0) {
            while (lo2 < hi2 && unique_[lo2].pattern->size() == d) {
              ResolveMatch(lo2, tree, child, matched);
              ++lo2;
            }
            if (lo2 == hi2) {
              alive = false;
              break;
            }
          }
          // Narrow to the patterns whose symbol at depth d matches the
          // label; the peeled-off edges of the range mismatched inside the
          // edge and have zero occurrences.
          const unsigned char x = static_cast<unsigned char>(buf[t]);
          auto sym_at = [&](std::size_t w) {
            return static_cast<unsigned char>((*unique_[w].pattern)[d]);
          };
          std::size_t nlo = lo2;
          std::size_t nhi = hi2;
          {
            std::size_t l = lo2, r = hi2;
            while (l < r) {
              const std::size_t m = l + (r - l) / 2;
              if (sym_at(m) < x) l = m + 1; else r = m;
            }
            nlo = l;
          }
          {
            std::size_t l = nlo, r = hi2;
            while (l < r) {
              const std::size_t m = l + (r - l) / 2;
              if (sym_at(m) <= x) l = m + 1; else r = m;
            }
            nhi = l;
          }
          for (std::size_t w = lo2; w < nlo; ++w) ResolveCount(w, 0);
          for (std::size_t w = nhi; w < hi2; ++w) ResolveCount(w, 0);
          lo2 = nlo;
          hi2 = nhi;
          if (lo2 == hi2) {
            alive = false;
            break;
          }
        }
        j += chunk;
      }
      if (alive) {
        // The whole label matched: the surviving sub-range continues below
        // `child` at the deeper frame.
        stack.push_back(Frame{child, f.depth + c.edge_len, lo2, hi2});
      }
      a = b;
    }
  }
  return Status::OK();
}

Status DictMatcher::ResolveLocates(const ServedSubTree& tree,
                                   const std::vector<MatchedSlot>& matched) {
  TraceSpan span(ctx_.trace, "collect");
  std::vector<uint32_t> slots(matched.size());
  for (std::size_t i = 0; i < matched.size(); ++i) slots[i] = matched[i].slot;
  std::vector<uint64_t> buffer;
  std::vector<LeafSlice> slices;
  ERA_RETURN_NOT_OK(tree.CollectLeafSlices(slots, &ctx_, &buffer, &slices));
  // The shared pass decodes each leaf once however many patterns need it;
  // the counter reflects the work actually done, not the per-pattern sum.
  session_->stats.leaves_enumerated += buffer.size();
  for (std::size_t i = 0; i < matched.size(); ++i) {
    UniquePattern& up = unique_[matched[i].unique];
    std::vector<uint64_t> hits(
        buffer.begin() + static_cast<std::ptrdiff_t>(slices[i].offset),
        buffer.begin() +
            static_cast<std::ptrdiff_t>(slices[i].offset + slices[i].count));
    // kSmallest semantics, identical to LocateWithSession: select the
    // smallest `limit`, then sort.
    if (hits.size() > options_.locate_limit) {
      std::nth_element(hits.begin(),
                       hits.begin() +
                           static_cast<std::ptrdiff_t>(options_.locate_limit),
                       hits.end());
      hits.resize(options_.locate_limit);
      hits.shrink_to_fit();  // as LocateWithSession: answers stay limit-sized
    }
    std::sort(hits.begin(), hits.end());
    for (std::size_t k = 0; k + 1 < up.items.size(); ++k) {
      (*outcomes_)[up.items[k]].offsets = hits;
    }
    (*outcomes_)[up.items.back()].offsets = std::move(hits);
    up.resolved = true;
  }
  return Status::OK();
}

Status DictMatcher::RunGroup(std::size_t lo, std::size_t hi) {
  ++session_->stats.dict_groups_formed;
  ERA_ASSIGN_OR_RETURN(
      auto tree,
      engine_->OpenSubTreeOrQuarantine(
          static_cast<uint32_t>(unique_[lo].subtree_id), session_, ctx_));
  std::vector<MatchedSlot> matched;
  ERA_RETURN_NOT_OK(Descend(*tree, lo, hi, &matched));
  if (options_.locate && !matched.empty()) {
    ERA_RETURN_NOT_OK(ResolveLocates(*tree, matched));
  }
  return Status::OK();
}

void DictMatcher::Run(const std::vector<std::string>& patterns,
                      std::vector<DictOutcome>* outcomes) {
  outcomes_ = outcomes;
  outcomes_->assign(patterns.size(), DictOutcome{});

  // Dedup + sort in one structure: map keys are views into `patterns`
  // (which outlives the call) and std::string_view compares with memcmp
  // semantics — the same unsigned order the builders sort siblings by, so
  // the unique set comes out aligned with tree child order.
  std::map<std::string_view, std::vector<std::size_t>> buckets;
  std::size_t non_empty = 0;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    if (patterns[i].empty()) {
      (*outcomes_)[i].status = Status::InvalidArgument("empty pattern");
      continue;
    }
    buckets[patterns[i]].push_back(i);
    ++non_empty;
  }
  session_->stats.batch_duplicates_folded += non_empty - buckets.size();

  unique_.clear();
  unique_.reserve(buckets.size());
  for (auto& [view, items] : buckets) {
    UniquePattern up;
    up.pattern = &patterns[items.front()];
    up.items = std::move(items);
    // One trie walk per unique pattern.
    PrefixTrie::DescendResult walk =
        engine_->index_.trie().Descend(*up.pattern);
    if (walk.pattern_exhausted) {
      up.kind = RouteKind::kTrie;
      up.trie_node = walk.node;
    } else {
      const PrefixTrie::Node& node = engine_->index_.trie().node(walk.node);
      if (node.subtree_id < 0) {
        up.kind = RouteKind::kMiss;
      } else {
        up.kind = RouteKind::kSubTree;
        up.subtree_id = node.subtree_id;
      }
    }
    unique_.push_back(std::move(up));
  }

  // Group boundary loop. `terminal` flips once on deadline/cancel and
  // stamps everything still unresolved, preserving the batch contract.
  Status terminal;
  std::size_t u = 0;
  while (u < unique_.size()) {
    if (!terminal.ok()) {
      StampUnresolved(u, terminal, /*counts_as_query=*/false);
      ++u;
      continue;
    }
    if (Status check = ctx_.Check(); !check.ok()) {
      terminal = check;
      engine_->admission_.RecordOutcome(terminal);
      continue;
    }
    UniquePattern& up = unique_[u];
    if (up.kind == RouteKind::kMiss) {
      ResolveCount(u, 0);
      ++u;
      continue;
    }
    if (up.kind == RouteKind::kTrie) {
      Status s = ResolveTrie(u);
      if (!s.ok()) {
        if (TerminatesDictionary(s)) {
          terminal = s;
          engine_->admission_.RecordOutcome(terminal);
          continue;  // stamped (with the rest) at the top of the loop
        }
        StampUnresolved(u, s, /*counts_as_query=*/true);
      }
      ++u;
      continue;
    }
    // Sub-tree group: the sorted order makes same-sub-tree patterns one
    // contiguous run (sub-tree trie paths are prefix-free).
    std::size_t v = u + 1;
    while (v < unique_.size() && unique_[v].kind == RouteKind::kSubTree &&
           unique_[v].subtree_id == up.subtree_id) {
      ++v;
    }
    Status s = RunGroup(u, v);
    if (!s.ok()) {
      const bool is_terminal = TerminatesDictionary(s);
      if (is_terminal) {
        terminal = s;
        engine_->admission_.RecordOutcome(terminal);
      }
      // A group-level failure (unavailable sub-tree, corruption, or the
      // terminal itself) lands on every pattern the descent had not yet
      // resolved; already-resolved patterns keep their answers.
      for (std::size_t w = u; w < v; ++w) {
        StampUnresolved(w, s, /*counts_as_query=*/!is_terminal);
      }
    }
    u = v;
  }
}

StatusOr<std::vector<DictOutcome>> QueryEngine::MatchDictionary(
    const std::vector<std::string>& patterns, const DictMatchOptions& options) {
  return MatchDictionary(QueryContext::Background(), patterns, options);
}

StatusOr<std::vector<DictOutcome>> QueryEngine::MatchDictionary(
    const QueryContext& ctx, const std::vector<std::string>& patterns,
    const DictMatchOptions& options) {
  auto trace = MaybeStartTrace("match_dictionary", ctx);
  if (trace == nullptr) return MatchDictionaryImpl(ctx, patterns, options);
  QueryContext traced = ctx;
  traced.trace = trace.get();
  return FinishTraced(trace, MatchDictionaryImpl(traced, patterns, options));
}

StatusOr<std::vector<DictOutcome>> QueryEngine::MatchDictionaryImpl(
    const QueryContext& ctx, const std::vector<std::string>& patterns,
    const DictMatchOptions& options) {
  Permit permit;
  {
    TraceSpan span(ctx.trace, "admission");
    ERA_RETURN_NOT_OK(admission_.Admit(ctx, &permit));
  }
  Lease lease;
  ERA_RETURN_NOT_OK(lease.Acquire(this));
  ReaderContextGuard guard(lease.get(), &ctx);
  std::vector<DictOutcome> outcomes;
  DictMatcher matcher(this, lease.get(), ctx, options);
  matcher.Run(patterns, &outcomes);
  return outcomes;
}

}  // namespace era
