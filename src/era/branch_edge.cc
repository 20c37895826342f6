#include "era/branch_edge.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "text/aho_corasick.h"

namespace era {

GroupStrBuilder::GroupStrBuilder(const VirtualTree& group,
                                 const RangePolicy& policy,
                                 StringReader* reader, uint64_t text_length)
    : group_(group),
      policy_(policy),
      reader_(reader),
      text_length_(text_length) {}

void GroupStrBuilder::CloseLeaf(State* state, uint32_t node,
                                uint64_t parent_depth, uint64_t pos) {
  TreeNode& n = state->tree.node(node);
  n.edge_start = pos + parent_depth;
  n.edge_len = static_cast<uint32_t>(text_length_ - pos - parent_depth);
  n.leaf_id = pos;
}

Status GroupStrBuilder::CheckEdgeLimit() const {
  // Every edge label is a substring of S, so text_length_ fitting in the
  // 32-bit TreeNode field bounds every edge_len this module assigns
  // (CloseLeaf tails and the incremental open-edge extensions alike) —
  // the same 4 GiB node-format limit BuildSubTree enforces per edge.
  if (text_length_ > std::numeric_limits<uint32_t>::max()) {
    return Status::Internal(
        "text length " + std::to_string(text_length_) +
        " exceeds the 32-bit tree-node edge limit; the BranchEdge method "
        "cannot represent its leaf edges");
  }
  return Status::OK();
}

Status GroupStrBuilder::Run() {
  ERA_RETURN_NOT_OK(CheckEdgeLimit());
  // One shared scan finds the occurrence lists of every prefix in the group.
  std::vector<std::string> patterns;
  states_.resize(group_.prefixes.size());
  for (std::size_t i = 0; i < group_.prefixes.size(); ++i) {
    patterns.push_back(group_.prefixes[i].prefix);
    states_[i].prefix = group_.prefixes[i].prefix;
  }
  ERA_ASSIGN_OR_RETURN(auto matcher, AhoCorasick::Build(patterns));
  std::vector<std::vector<uint64_t>> occurrences(states_.size());
  ERA_RETURN_NOT_OK(matcher.ScanAll(
      reader_, [&](int32_t id, uint64_t pos) {
        occurrences[static_cast<std::size_t>(id)].push_back(pos);
      }));

  for (std::size_t i = 0; i < states_.size(); ++i) {
    State& state = states_[i];
    auto& occ = occurrences[i];
    if (occ.empty()) {
      return Status::Internal("prefix without occurrences: " + state.prefix);
    }
    // ComputeSuffixSubTree: a single edge labeled with the prefix.
    uint32_t child = state.tree.AddNode();
    TreeNode& node = state.tree.node(child);
    node.edge_start = occ[0];
    node.edge_len = static_cast<uint32_t>(state.prefix.size());
    node.first_symbol = static_cast<uint8_t>(state.prefix[0]);
    state.tree.node(0).first_child = child;
    if (occ.size() == 1) {
      CloseLeaf(&state, child, 0, occ[0]);
    } else {
      state.open.push_back({child, state.prefix.size(), std::move(occ)});
    }
  }

  // Level-synchronous BranchEdge rounds with one merged scan per round.
  std::vector<char> windows;
  std::vector<uint32_t> window_len;
  std::vector<std::pair<uint64_t, uint64_t>> fetch_order;  // (pos, window)
  std::vector<FetchRequest> requests;
  while (true) {
    uint64_t total_active = 0;
    for (const State& state : states_) {
      for (const OpenEdge& e : state.open) total_active += e.positions.size();
    }
    if (total_active == 0) break;
    ++stats_.rounds;
    const uint32_t range = policy_.NextRange(total_active);

    // Merged fetch: requests are (position + depth) over all open edges,
    // sorted into one monotone stream and served by a single batched pass
    // over the input buffer, which hands each request's bytes to its
    // window.
    windows.assign(total_active * range, 0);
    window_len.assign(total_active, 0);
    fetch_order.clear();
    fetch_order.reserve(total_active);
    uint64_t flat = 0;
    for (State& state : states_) {
      for (OpenEdge& e : state.open) {
        for (uint64_t q : e.positions) {
          fetch_order.emplace_back(q + e.depth, flat++);
        }
      }
    }
    std::sort(fetch_order.begin(), fetch_order.end());
    requests.clear();
    requests.reserve(total_active);
    for (const auto& [pos, window] : fetch_order) {
      requests.push_back({pos, range});
    }
    reader_->BeginScan();
    ERA_RETURN_NOT_OK(reader_->FetchBatch(
        requests, [&](std::size_t r, uint64_t offset,
                      std::span<const char> piece) {
          const uint64_t window = fetch_order[r].second;
          std::memcpy(windows.data() + window * range + offset, piece.data(),
                      piece.size());
          window_len[window] = static_cast<uint32_t>(offset + piece.size());
          stats_.symbols_fetched += piece.size();
        }));

    // Process each open edge: extend, branch, or settle leaves.
    flat = 0;
    for (State& state : states_) {
      std::vector<OpenEdge> next_open;
      for (OpenEdge& e : state.open) {
        const uint64_t base = flat;
        flat += e.positions.size();
        auto window_of = [&](std::size_t j) {
          return std::pair<const char*, uint32_t>(
              windows.data() + (base + j) * range, window_len[base + j]);
        };

        // Common prefix length of all windows (set Y generalized to ranges).
        auto [w0, l0] = window_of(0);
        uint32_t cl = l0;
        for (std::size_t j = 1; j < e.positions.size() && cl > 0; ++j) {
          auto [wj, lj] = window_of(j);
          uint32_t m = std::min(cl, lj);
          uint32_t k = 0;
          while (k < m && w0[k] == wj[k]) ++k;
          cl = k;
        }

        TreeNode& node = state.tree.node(e.node);
        if (cl == range) {
          // Proposition 1 case 2: the whole fetched range is shared; extend
          // the edge and keep it open.
          node.edge_len += range;
          e.depth += range;
          next_open.push_back(std::move(e));
          continue;
        }

        // Extend by the shared part, then branch on the next symbol
        // (Proposition 1 case 3).
        node.edge_len += cl;
        const uint64_t branch_depth = e.depth + cl;

        // Order positions by branch symbol (stable: keeps string order
        // inside each group).
        std::vector<std::size_t> order(e.positions.size());
        for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                           return window_of(a).first[cl] <
                                  window_of(b).first[cl];
                         });

        uint32_t prev_child = kNilNode;
        std::size_t g = 0;
        while (g < order.size()) {
          char symbol = window_of(order[g]).first[cl];
          std::size_t h = g;
          std::vector<uint64_t> members;
          while (h < order.size() && window_of(order[h]).first[cl] == symbol) {
            members.push_back(e.positions[order[h]]);
            ++h;
          }
          uint32_t child = state.tree.AddNode();
          TreeNode& child_node = state.tree.node(child);
          child_node.edge_start = members[0] + branch_depth;
          child_node.edge_len = 1;
          child_node.first_symbol = static_cast<uint8_t>(symbol);
          if (prev_child == kNilNode) {
            state.tree.node(e.node).first_child = child;
          } else {
            state.tree.node(prev_child).next_sibling = child;
          }
          prev_child = child;
          if (members.size() == 1) {
            CloseLeaf(&state, child, branch_depth, members[0]);
          } else {
            next_open.push_back({child, branch_depth + 1, std::move(members)});
          }
          g = h;
        }
      }
      state.open = std::move(next_open);
    }
  }

  results_.clear();
  for (State& state : states_) {
    results_.emplace_back(std::move(state.prefix), std::move(state.tree));
  }
  return Status::OK();
}

}  // namespace era
