// Shared helpers for the test suite.

#ifndef ERA_TESTS_TEST_UTIL_H_
#define ERA_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "alphabet/alphabet.h"
#include "era/vertical_partitioner.h"
#include "io/env.h"
#include "sa/lcp.h"
#include "sa/sais.h"
#include "suffixtree/canonical.h"
#include "suffixtree/tree_index.h"
#include "suffixtree/trie.h"

namespace era {
namespace testing {

/// Uniform random string over `alphabet` of `body_len` symbols, terminal
/// appended. Deterministic in (alphabet, body_len, seed).
inline std::string RandomText(const Alphabet& alphabet, std::size_t body_len,
                              uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> dist(0, alphabet.size() - 1);
  std::string text;
  text.reserve(body_len + 1);
  for (std::size_t i = 0; i < body_len; ++i) {
    text.push_back(alphabet.Symbol(dist(rng)));
  }
  text.push_back(alphabet.terminal());
  return text;
}

/// Highly repetitive random text (exercises deep trees / long LCPs).
inline std::string RepetitiveText(const Alphabet& alphabet,
                                  std::size_t body_len, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> dist(0, alphabet.size() - 1);
  std::string unit;
  std::size_t unit_len = 3 + seed % 7;
  for (std::size_t i = 0; i < unit_len; ++i) {
    unit.push_back(alphabet.Symbol(dist(rng)));
  }
  std::string text;
  while (text.size() < body_len) {
    text += unit;
    if (rng() % 4 == 0 && !text.empty()) {
      text.back() = alphabet.Symbol(dist(rng));  // occasional mutation
    }
  }
  text.resize(body_len);
  text.push_back(alphabet.terminal());
  return text;
}

/// All (overlapping) occurrence positions of `pattern` in `text` by naive
/// scan, ascending (the terminal byte is part of the text and may match).
inline std::vector<uint64_t> NaiveLocate(const std::string& text,
                                         const std::string& pattern) {
  std::vector<uint64_t> hits;
  for (std::size_t pos = text.find(pattern); pos != std::string::npos;
       pos = text.find(pattern, pos + 1)) {
    hits.push_back(pos);
  }
  return hits;
}

/// One virtual tree holding `prefixes` in order, each with its exact
/// (overlapping) occurrence count in `text`, as vertical partitioning
/// records it. GroupPreparer requires these counts.
inline VirtualTree CountedGroup(const std::string& text,
                                const std::vector<std::string>& prefixes) {
  VirtualTree group;
  for (const std::string& prefix : prefixes) {
    const uint64_t frequency = NaiveLocate(text, prefix).size();
    group.prefixes.push_back({prefix, frequency});
    group.total_frequency += frequency;
  }
  return group;
}

/// Ground-truth (SA, LCP-between-adjacent) via SA-IS + Kasai.
inline SaLcp OracleSaLcp(const std::string& text) {
  SaLcp out;
  out.sa = BuildSuffixArray(text);
  auto lcp = BuildLcpArray(text, out.sa);
  out.lcp.assign(lcp.begin() + 1, lcp.end());
  return out;
}

/// Global lexicographic leaf order of an index (trie-interleaved sub-tree
/// leaves plus direct terminal leaves). Must equal the oracle suffix array.
inline StatusOr<std::vector<uint64_t>> GlobalLeafOrder(Env* env,
                                                       const TreeIndex& index) {
  std::vector<PrefixTrie::Entry> entries;
  index.trie().CollectEntries(0, &entries);
  std::vector<uint64_t> order;
  for (const auto& entry : entries) {
    if (entry.subtree_id >= 0) {
      ERA_ASSIGN_OR_RETURN(
          auto tree, index.OpenSubTree(
                         env, static_cast<uint32_t>(entry.subtree_id),
                         nullptr));
      SaLcp canon = TreeToSaLcp(*tree);
      order.insert(order.end(), canon.sa.begin(), canon.sa.end());
    } else {
      order.push_back(entry.leaf_position);
    }
  }
  return order;
}

/// Full equivalence check of an index against the SA-IS oracle: global leaf
/// order and per-sub-tree LCP structure.
inline ::testing::AssertionResult IndexMatchesOracle(Env* env,
                                                     const TreeIndex& index,
                                                     const std::string& text) {
  SaLcp oracle = OracleSaLcp(text);
  auto order = GlobalLeafOrder(env, index);
  if (!order.ok()) {
    return ::testing::AssertionFailure()
           << "GlobalLeafOrder failed: " << order.status().ToString();
  }
  if (*order != oracle.sa) {
    return ::testing::AssertionFailure()
           << "global leaf order differs from the oracle suffix array "
           << "(sizes " << order->size() << " vs " << oracle.sa.size() << ")";
  }
  // Each sub-tree covers a contiguous SA range, so its internal LCPs must
  // equal the oracle's LCPs for adjacent global ranks.
  std::size_t rank = 0;
  std::vector<PrefixTrie::Entry> entries;
  index.trie().CollectEntries(0, &entries);
  for (const auto& entry : entries) {
    if (entry.subtree_id < 0) {
      ++rank;
      continue;
    }
    auto tree = index.OpenSubTree(
        env, static_cast<uint32_t>(entry.subtree_id), nullptr);
    if (!tree.ok()) {
      return ::testing::AssertionFailure()
             << "OpenSubTree: " << tree.status().ToString();
    }
    SaLcp canon = TreeToSaLcp(**tree);
    for (std::size_t i = 0; i < canon.lcp.size(); ++i) {
      uint64_t expected = oracle.lcp[rank + i];  // bond (rank+i, rank+i+1)
      if (canon.lcp[i] != expected) {
        return ::testing::AssertionFailure()
               << "sub-tree " << entry.subtree_id << " lcp[" << i << "] = "
               << canon.lcp[i] << ", oracle says " << expected;
      }
    }
    rank += canon.sa.size();
  }
  return ::testing::AssertionSuccess();
}

}  // namespace testing
}  // namespace era

#endif  // ERA_TESTS_TEST_UTIL_H_
