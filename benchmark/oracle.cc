#include "benchmark/oracle.h"

#include <algorithm>

#include "sa/lcp.h"
#include "sa/sais.h"
#include "suffixtree/canonical.h"

namespace era {
namespace benchmark {

TextOracle::TextOracle(const std::string& text)
    : text_(text), sa_(BuildSuffixArray(text)) {}

std::pair<std::size_t, std::size_t> TextOracle::Range(
    const std::string& pattern) const {
  // Suffixes compare against the pattern on their first |pattern| bytes;
  // std::string::compare orders bytes as unsigned, like the suffix array.
  auto prefix_cmp = [&](uint64_t suffix) {
    return text_.compare(suffix, pattern.size(), pattern);
  };
  auto first = std::partition_point(sa_.begin(), sa_.end(), [&](uint64_t s) {
    return prefix_cmp(s) < 0;
  });
  auto last = std::partition_point(first, sa_.end(), [&](uint64_t s) {
    return prefix_cmp(s) == 0;
  });
  return {static_cast<std::size_t>(first - sa_.begin()),
          static_cast<std::size_t>(last - sa_.begin())};
}

uint64_t TextOracle::Count(const std::string& pattern) const {
  const auto [first, last] = Range(pattern);
  return last - first;
}

std::vector<uint64_t> TextOracle::SmallestOffsets(const std::string& pattern,
                                                  std::size_t limit) const {
  const auto [first, last] = Range(pattern);
  std::vector<uint64_t> offsets(sa_.begin() + first, sa_.begin() + last);
  if (offsets.size() > limit) {
    std::nth_element(offsets.begin(), offsets.begin() + limit, offsets.end());
    offsets.resize(limit);
  }
  std::sort(offsets.begin(), offsets.end());
  return offsets;
}

Status CheckIndexAgainstOracle(const TreeIndex& index, const std::string& text,
                               const TextOracle& oracle,
                               const SubTreeOpener& open) {
  const std::vector<uint64_t>& sa = oracle.sa();
  // lcp[r] is the LCP of the suffixes at ranks r-1 and r.
  const std::vector<uint64_t> lcp = BuildLcpArray(text, sa);
  std::vector<PrefixTrie::Entry> entries;
  index.trie().CollectEntries(0, &entries);
  std::size_t rank = 0;
  for (const PrefixTrie::Entry& entry : entries) {
    if (entry.subtree_id < 0) {
      if (rank >= sa.size() || sa[rank] != entry.leaf_position) {
        return Status::Corruption(
            "trie leaf " + std::to_string(entry.leaf_position) +
            " is not suffix rank " + std::to_string(rank));
      }
      ++rank;
      continue;
    }
    const uint32_t id = static_cast<uint32_t>(entry.subtree_id);
    ERA_ASSIGN_OR_RETURN(auto tree, open(id));
    const SaLcp canon = TreeToSaLcp(*tree);
    if (rank + canon.sa.size() > sa.size() ||
        !std::equal(canon.sa.begin(), canon.sa.end(), sa.begin() + rank)) {
      return Status::Corruption("sub-tree " + std::to_string(id) +
                                " is not the suffix-array run at rank " +
                                std::to_string(rank));
    }
    for (std::size_t i = 0; i < canon.lcp.size(); ++i) {
      if (canon.lcp[i] != lcp[rank + i + 1]) {
        return Status::Corruption("sub-tree " + std::to_string(id) + " lcp[" +
                                  std::to_string(i) + "] differs from the "
                                  "oracle");
      }
    }
    rank += canon.sa.size();
  }
  if (rank != sa.size()) {
    return Status::Corruption("index covers " + std::to_string(rank) + " of " +
                              std::to_string(sa.size()) + " suffixes");
  }
  return Status::OK();
}

}  // namespace benchmark
}  // namespace era
