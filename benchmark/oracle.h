// Answer checks for the benchmark: every workload's output is compared
// against the SA-IS suffix array (plus Kasai LCP for tree shape) of the text
// it was given, after the timed phase.

#ifndef ERA_BENCHMARK_ORACLE_H_
#define ERA_BENCHMARK_ORACLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "suffixtree/tree_index.h"

namespace era {
namespace benchmark {

/// Suffix array of one text, answering pattern queries by binary search.
class TextOracle {
 public:
  /// `text` must end with its terminal byte; it is borrowed and must outlive
  /// the oracle.
  explicit TextOracle(const std::string& text);

  uint64_t Count(const std::string& pattern) const;
  /// The `limit` smallest occurrence offsets, ascending.
  std::vector<uint64_t> SmallestOffsets(const std::string& pattern,
                                        std::size_t limit) const;

  const std::vector<uint64_t>& sa() const { return sa_; }

 private:
  /// [first, last) ranks of the suffixes that start with `pattern`.
  std::pair<std::size_t, std::size_t> Range(const std::string& pattern) const;

  const std::string& text_;
  std::vector<uint64_t> sa_;
};

using SubTreeOpener =
    std::function<StatusOr<std::shared_ptr<const ServedSubTree>>(uint32_t)>;

/// Checks a built index against the oracle: in trie order, each sub-tree's
/// (SA, LCP) must be the next contiguous run of the oracle's suffix array
/// with equal adjacent LCPs, each direct trie leaf the next single suffix,
/// and together they must cover all suffixes. `open` loads sub-tree `id`.
Status CheckIndexAgainstOracle(const TreeIndex& index, const std::string& text,
                               const TextOracle& oracle,
                               const SubTreeOpener& open);

}  // namespace benchmark
}  // namespace era

#endif  // ERA_BENCHMARK_ORACLE_H_
