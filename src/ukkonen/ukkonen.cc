#include "ukkonen/ukkonen.h"

#include <map>
#include <vector>

#include "alphabet/alphabet.h"

namespace era {

namespace {

/// Internal node representation during online construction.
struct UkkNode {
  int64_t start;                 // inclusive edge start in text
  int64_t end;                   // exclusive edge end; kOpenEnd for leaves
  int32_t suffix_link = 0;       // defaults to root
  std::map<char, int32_t> next;  // ordered children (terminal byte is
                                 // largest, matching the paper's ordering)
};

constexpr int64_t kOpenEnd = -1;

class UkkonenBuilder {
 public:
  explicit UkkonenBuilder(const std::string& text) : text_(text) {
    nodes_.push_back({-1, -1, 0, {}});  // root = 0
  }

  void Build() {
    for (std::size_t i = 0; i < text_.size(); ++i) {
      Extend(static_cast<int64_t>(i));
    }
  }

  /// Converts to the shared flat representation (children already sorted by
  /// the ordered map).
  TreeBuffer ToTreeBuffer() const {
    TreeBuffer out;
    const int64_t n = static_cast<int64_t>(text_.size());
    struct Frame {
      int32_t ukk;
      uint32_t flat;
      int64_t depth;
    };
    std::vector<Frame> stack;
    stack.push_back({0, 0, 0});
    while (!stack.empty()) {
      Frame f = stack.back();
      stack.pop_back();
      const UkkNode& src = nodes_[f.ukk];
      // Link children in lexicographic order. Build the sibling chain by
      // iterating the ordered map in reverse and prepending.
      uint32_t chain = kNilNode;
      for (auto it = src.next.rbegin(); it != src.next.rend(); ++it) {
        int32_t child = it->second;
        const UkkNode& cn = nodes_[child];
        int64_t edge_end = cn.end == kOpenEnd ? n : cn.end;
        uint32_t flat_child = out.AddNode();
        TreeNode& fc = out.node(flat_child);
        fc.edge_start = static_cast<uint64_t>(cn.start);
        fc.edge_len = static_cast<uint32_t>(edge_end - cn.start);
        fc.first_symbol =
            static_cast<uint8_t>(text_[static_cast<std::size_t>(cn.start)]);
        fc.next_sibling = chain;
        chain = flat_child;
        int64_t child_depth = f.depth + (edge_end - cn.start);
        if (cn.next.empty()) {
          fc.leaf_id = static_cast<uint64_t>(n - child_depth);
        } else {
          stack.push_back({child, flat_child, child_depth});
        }
      }
      out.node(f.flat).first_child = chain;
    }
    return out;
  }

 private:
  int32_t NewNode(int64_t start, int64_t end) {
    nodes_.push_back({start, end, 0, {}});
    return static_cast<int32_t>(nodes_.size() - 1);
  }

  int64_t EdgeLength(int32_t v, int64_t current) const {
    const UkkNode& node = nodes_[v];
    int64_t end = node.end == kOpenEnd ? current + 1 : node.end;
    return end - node.start;
  }

  void Extend(int64_t i) {
    char c = text_[static_cast<std::size_t>(i)];
    ++remaining_;
    int32_t last_internal = 0;

    while (remaining_ > 0) {
      if (active_length_ == 0) active_edge_ = i;
      char edge_first = text_[static_cast<std::size_t>(active_edge_)];
      auto it = nodes_[active_node_].next.find(edge_first);
      if (it == nodes_[active_node_].next.end()) {
        // No edge: create a leaf here.
        int32_t leaf = NewNode(i, kOpenEnd);
        nodes_[active_node_].next[edge_first] = leaf;
        if (last_internal != 0) {
          nodes_[last_internal].suffix_link = active_node_;
          last_internal = 0;
        }
      } else {
        int32_t next_node = it->second;
        int64_t len = EdgeLength(next_node, i);
        if (active_length_ >= len) {
          // Walk down.
          active_edge_ += len;
          active_length_ -= len;
          active_node_ = next_node;
          continue;
        }
        if (text_[static_cast<std::size_t>(nodes_[next_node].start +
                                           active_length_)] == c) {
          // Symbol already present: rule 3, stop here.
          if (last_internal != 0 && active_node_ != 0) {
            nodes_[last_internal].suffix_link = active_node_;
            last_internal = 0;
          }
          ++active_length_;
          break;
        }
        // Split the edge.
        int32_t split = NewNode(nodes_[next_node].start,
                                nodes_[next_node].start + active_length_);
        nodes_[active_node_].next[edge_first] = split;
        int32_t leaf = NewNode(i, kOpenEnd);
        nodes_[split].next[c] = leaf;
        nodes_[next_node].start += active_length_;
        nodes_[split].next[text_[static_cast<std::size_t>(
            nodes_[next_node].start)]] = next_node;
        if (last_internal != 0) {
          nodes_[last_internal].suffix_link = split;
        }
        last_internal = split;
      }

      --remaining_;
      if (active_node_ == 0 && active_length_ > 0) {
        --active_length_;
        active_edge_ = i - remaining_ + 1;
      } else if (active_node_ != 0) {
        active_node_ = nodes_[active_node_].suffix_link;
      }
    }
  }

  const std::string& text_;
  std::vector<UkkNode> nodes_;
  int32_t active_node_ = 0;
  int64_t active_edge_ = 0;
  int64_t active_length_ = 0;
  int64_t remaining_ = 0;
};

}  // namespace

StatusOr<TreeBuffer> BuildUkkonenTree(const std::string& text) {
  if (text.empty() || text.back() != kTerminal) {
    return Status::InvalidArgument("text must end with the terminal byte");
  }
  for (std::size_t i = 0; i + 1 < text.size(); ++i) {
    if (text[i] == kTerminal) {
      return Status::InvalidArgument("terminal byte inside text body");
    }
  }
  UkkonenBuilder builder(text);
  builder.Build();
  return builder.ToTreeBuffer();
}

}  // namespace era
