#include "suffixtree/trie.h"

#include <cstring>

namespace era {

namespace {

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutI64(std::string* out, int64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
bool GetPod(const std::string& in, std::size_t* pos, T* v) {
  if (*pos + sizeof(T) > in.size()) return false;
  std::memcpy(v, in.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

}  // namespace

uint32_t PrefixTrie::GetOrCreate(const std::string& prefix) {
  uint32_t cur = 0;
  for (char c : prefix) {
    auto it = nodes_[cur].children.find(c);
    if (it == nodes_[cur].children.end()) {
      nodes_.emplace_back();
      uint32_t fresh = static_cast<uint32_t>(nodes_.size() - 1);
      nodes_[cur].children.emplace(c, fresh);
      cur = fresh;
    } else {
      cur = it->second;
    }
  }
  return cur;
}

Status PrefixTrie::InsertSubTree(const std::string& prefix,
                                 uint32_t subtree_id, uint64_t frequency) {
  if (prefix.empty()) {
    return Status::InvalidArgument("sub-tree prefix must be non-empty");
  }
  uint32_t node = GetOrCreate(prefix);
  if (nodes_[node].subtree_id >= 0) {
    return Status::InvalidArgument("duplicate sub-tree prefix: " + prefix);
  }
  if (!nodes_[node].children.empty()) {
    return Status::InvalidArgument(
        "sub-tree prefix is a proper prefix of another: " + prefix);
  }
  nodes_[node].subtree_id = static_cast<int32_t>(subtree_id);
  nodes_[node].subtree_freq = frequency;
  return Status::OK();
}

Status PrefixTrie::InsertTerminalLeaf(const std::string& prefix,
                                      uint64_t position) {
  uint32_t node = GetOrCreate(prefix);
  if (nodes_[node].terminal_leaf >= 0) {
    return Status::InvalidArgument("duplicate terminal leaf for: " + prefix);
  }
  nodes_[node].terminal_leaf = static_cast<int64_t>(position);
  return Status::OK();
}

PrefixTrie::DescendResult PrefixTrie::Descend(
    const std::string& pattern) const {
  DescendResult result;
  uint32_t cur = 0;
  std::size_t i = 0;
  while (i < pattern.size()) {
    auto it = nodes_[cur].children.find(pattern[i]);
    if (it == nodes_[cur].children.end()) break;
    cur = it->second;
    ++i;
  }
  result.node = cur;
  result.matched = i;
  result.pattern_exhausted = (i == pattern.size());
  return result;
}

uint64_t PrefixTrie::TotalFrequency(uint32_t node) const {
  const Node& n = nodes_[node];
  uint64_t total = n.subtree_freq;
  if (n.terminal_leaf >= 0) ++total;
  for (const auto& [sym, child] : n.children) {
    (void)sym;
    total += TotalFrequency(child);
  }
  return total;
}

void PrefixTrie::CollectInOrder(uint32_t node,
                                std::vector<int32_t>* subtree_ids,
                                std::vector<uint64_t>* terminal_leaves) const {
  const Node& n = nodes_[node];
  if (n.subtree_id >= 0) subtree_ids->push_back(n.subtree_id);
  for (const auto& [sym, child] : n.children) {
    (void)sym;
    CollectInOrder(child, subtree_ids, terminal_leaves);
  }
  // The terminal sorts after every alphabet symbol (see alphabet.h), so the
  // terminal leaf of this node comes last.
  if (n.terminal_leaf >= 0) {
    terminal_leaves->push_back(static_cast<uint64_t>(n.terminal_leaf));
  }
}

void PrefixTrie::CollectEntries(uint32_t node,
                                std::vector<Entry>* entries) const {
  const Node& n = nodes_[node];
  if (n.subtree_id >= 0) entries->push_back({n.subtree_id, 0});
  for (const auto& [sym, child] : n.children) {
    (void)sym;
    CollectEntries(child, entries);
  }
  if (n.terminal_leaf >= 0) {
    entries->push_back({-1, static_cast<uint64_t>(n.terminal_leaf)});
  }
}

std::string PrefixTrie::Serialize() const {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(nodes_.size()));
  for (const Node& n : nodes_) {
    PutU32(&out, static_cast<uint32_t>(n.subtree_id));
    PutU64(&out, n.subtree_freq);
    PutI64(&out, n.terminal_leaf);
    PutU32(&out, static_cast<uint32_t>(n.children.size()));
    for (const auto& [sym, child] : n.children) {
      out.push_back(sym);
      PutU32(&out, child);
    }
  }
  return out;
}

StatusOr<PrefixTrie> PrefixTrie::Deserialize(const std::string& bytes) {
  PrefixTrie trie;
  std::size_t pos = 0;
  uint32_t count = 0;
  if (!GetPod(bytes, &pos, &count) || count == 0) {
    return Status::Corruption("trie: bad node count");
  }
  trie.nodes_.assign(count, Node{});
  for (uint32_t i = 0; i < count; ++i) {
    Node& n = trie.nodes_[i];
    uint32_t subtree_id = 0;
    uint32_t num_children = 0;
    if (!GetPod(bytes, &pos, &subtree_id) ||
        !GetPod(bytes, &pos, &n.subtree_freq) ||
        !GetPod(bytes, &pos, &n.terminal_leaf) ||
        !GetPod(bytes, &pos, &num_children)) {
      return Status::Corruption("trie: truncated node");
    }
    n.subtree_id = static_cast<int32_t>(subtree_id);
    for (uint32_t c = 0; c < num_children; ++c) {
      if (pos >= bytes.size()) return Status::Corruption("trie: truncated");
      char sym = bytes[pos++];
      uint32_t child = 0;
      if (!GetPod(bytes, &pos, &child) || child >= count) {
        return Status::Corruption("trie: bad child reference");
      }
      n.children.emplace(sym, child);
    }
  }
  if (pos != bytes.size()) {
    return Status::Corruption("trie: trailing bytes");
  }
  return trie;
}

uint64_t PrefixTrie::MemoryBytes() const {
  uint64_t total = nodes_.size() * sizeof(Node);
  for (const Node& n : nodes_) {
    total += n.children.size() * 48;  // rough map node overhead
  }
  return total;
}

}  // namespace era
