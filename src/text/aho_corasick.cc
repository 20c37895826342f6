#include "text/aho_corasick.h"

#include <limits>

namespace era {

StatusOr<AhoCorasick> AhoCorasick::Build(
    const std::vector<std::string>& patterns) {
  AhoCorasick ac;
  ac.patterns_ = patterns;

  // Compact code map: pattern bytes get codes 1..m in byte order, every
  // other byte keeps code 0.
  std::array<bool, 256> used{};
  for (const std::string& p : patterns) {
    if (p.empty()) return Status::InvalidArgument("empty pattern");
    for (char c : p) used[static_cast<unsigned char>(c)] = true;
  }
  uint32_t m = 0;
  for (int b = 0; b < 256; ++b) {
    if (used[b]) ac.code_[b] = ++m;
  }
  while ((1u << ac.row_shift_) < m + 1) ++ac.row_shift_;
  const std::size_t width = std::size_t{1} << ac.row_shift_;

  // Trie over the codes; absent edges are kNone until the BFS fills them.
  constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> delta(width, kNone);
  std::vector<std::vector<int32_t>> own(1);  // ids ending exactly here
  for (std::size_t id = 0; id < patterns.size(); ++id) {
    std::size_t cur = 0;
    for (char c : patterns[id]) {
      const std::size_t cell =
          cur * width + ac.code_[static_cast<unsigned char>(c)];
      if (delta[cell] == kNone) {
        delta[cell] = static_cast<uint32_t>(own.size());
        own.emplace_back();
        delta.resize(delta.size() + width, kNone);
      }
      cur = delta[cell];
    }
    own[cur].push_back(static_cast<int32_t>(id));
  }
  const std::size_t num_states = own.size();
  if (num_states * width > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "pattern set too large for a 32-bit transition table");
  }

  // BFS: a missing edge (column 0 always) takes the failure state's edge,
  // which is complete already because failure states are shallower. The
  // root's missing edges lead back to the root. Each state's output list
  // is its own ids followed by its failure state's (flattened) list.
  std::vector<uint32_t> fail(num_states, 0);
  std::vector<std::vector<Output>> out(num_states);
  std::vector<uint32_t> order;  // BFS order
  order.reserve(num_states);
  order.push_back(0);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const uint32_t u = order[head];
    for (std::size_t c = 0; c < width; ++c) {
      uint32_t& cell = delta[u * width + c];
      const uint32_t via_fail = u == 0 ? 0 : delta[fail[u] * width + c];
      if (cell == kNone) {
        cell = via_fail;
        continue;
      }
      const uint32_t child = cell;
      fail[child] = via_fail;
      for (int32_t id : own[child]) {
        out[child].push_back(
            {id, static_cast<uint32_t>(patterns[static_cast<std::size_t>(id)]
                                           .size())});
      }
      out[child].insert(out[child].end(), out[via_fail].begin(),
                        out[via_fail].end());
      order.push_back(child);
    }
  }

  // Renumber: states without outputs first (the root stays 0, as patterns
  // are non-empty), then states with outputs; a state's name is its row
  // offset.
  std::vector<uint32_t> renumber(num_states);
  uint32_t next = 0;
  for (std::size_t s = 0; s < num_states; ++s) {
    if (out[s].empty()) renumber[s] = next++;
  }
  ac.first_output_state_ = static_cast<uint32_t>(next * width);
  ac.output_begin_.push_back(0);
  for (std::size_t s = 0; s < num_states; ++s) {
    if (out[s].empty()) continue;
    renumber[s] = next++;
    ac.outputs_.insert(ac.outputs_.end(), out[s].begin(), out[s].end());
    ac.output_begin_.push_back(static_cast<uint32_t>(ac.outputs_.size()));
  }
  ac.delta_.resize(delta.size());
  for (std::size_t s = 0; s < num_states; ++s) {
    for (std::size_t c = 0; c < width; ++c) {
      ac.delta_[renumber[s] * width + c] =
          static_cast<uint32_t>(renumber[delta[s * width + c]] * width);
    }
  }
  return ac;
}

}  // namespace era
