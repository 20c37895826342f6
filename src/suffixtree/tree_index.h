// The full disk-resident suffix-tree index: trie + sub-tree files + manifest.
//
// Every construction algorithm in this repository (ERA, WaveFront, B2ST,
// TRELLIS) produces a TreeIndex, so validation, canonicalization and the
// query engine are shared.
//
// The reading side serves sub-trees through one byte-budgeted LRU cache of
// ServedSubTree values: files stay in their compressed form (the cache
// charges the packed size, which is what fits about 4.5x more sub-trees in
// the same budget than 32-byte TreeNodes would). Lookups and inserts
// hold one mutex briefly, loads run outside it, and entries are handed out
// as shared_ptr so an eviction never invalidates a tree an in-flight query
// is still walking. A pattern reaches its sub-tree through the resident
// top-level trie (trie().Descend()).

#ifndef ERA_SUFFIXTREE_TREE_INDEX_H_
#define ERA_SUFFIXTREE_TREE_INDEX_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/query_context.h"
#include "common/status.h"
#include "io/env.h"
#include "io/io_stats.h"
#include "io/retry_policy.h"
#include "suffixtree/compressed_tree.h"
#include "suffixtree/tree_buffer.h"
#include "suffixtree/trie.h"
#include "text/corpus.h"

namespace era {

/// One serialized sub-tree in the manifest.
struct SubTreeEntry {
  std::string prefix;
  uint64_t frequency = 0;  // leaf count
  std::string filename;    // relative to the index directory
};

/// Tuning knobs for the sub-tree cache.
struct TreeCacheOptions {
  /// Total bytes of resident sub-trees. After every insert the cache
  /// evicts from its LRU end until it is within budget, but never below one
  /// resident entry, so a single oversized sub-tree still caches (alone).
  uint64_t budget_bytes = 64ull << 20;
  /// Retry schedule for sub-tree loads. Only IOError is retried; a
  /// Corruption (bad checksum) fails immediately and is never cached.
  RetryPolicy retry;
};

/// Disk layout:
///   <dir>/MANIFEST   key:value text lines + serialized trie blob
///   <dir>/st_<id>    sub-tree files (serializer.h format)
class TreeIndex {
 public:
  TreeIndex() = default;

  // ---- building side ----
  void SetText(const TextInfo& text) { text_ = text; }
  /// Registers a sub-tree file; returns its id.
  uint32_t AddSubTree(const std::string& prefix, uint64_t frequency,
                      const std::string& filename);
  PrefixTrie& mutable_trie() { return trie_; }

  /// Writes MANIFEST into `dir` (sub-tree files must already be there).
  Status Save(Env* env, const std::string& dir) const;

  // ---- reading side ----
  static StatusOr<TreeIndex> Load(Env* env, const std::string& dir);

  /// Reads (and caches) sub-tree `id` in its compressed serving form.
  /// Thread-safe; cache hits/misses and eviction volume are billed to
  /// `stats` when given. Concurrent misses on the same id may load the file
  /// more than once; exactly one copy is retained. `ctx` (may be null) is
  /// the caller's deadline/cancellation context: a cache hit always
  /// succeeds, but a miss checks it before touching the device and its
  /// retry backoffs never sleep past the deadline.
  StatusOr<std::shared_ptr<const ServedSubTree>> OpenSubTree(
      Env* env, uint32_t id, IoStats* stats,
      const QueryContext* ctx = nullptr) const;

  /// Replaces the cache with a fresh one using `options`. Call before
  /// serving traffic; NOT safe concurrently with OpenSubTree.
  void ConfigureCache(const TreeCacheOptions& options) const;

  /// Drops every cached sub-tree (memory control for sweeps). Thread-safe;
  /// in-flight queries keep their pinned trees alive. Not counted as LRU
  /// evictions.
  void EvictCache() const;

  /// Point-in-time cache totals.
  struct CacheSnapshot {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t evicted_bytes = 0;
    uint64_t resident_bytes = 0;
    uint64_t resident_trees = 0;
  };
  CacheSnapshot CacheStats() const;

  const TextInfo& text() const { return text_; }
  const PrefixTrie& trie() const { return trie_; }
  const std::vector<SubTreeEntry>& subtrees() const { return subtrees_; }
  const std::string& dir() const { return dir_; }

  /// Total number of suffixes indexed (sub-tree frequencies + direct
  /// leaves); equals text().length when the index is complete.
  uint64_t TotalSuffixes() const;

 private:
  // Cache state lives behind a pointer so TreeIndex stays movable despite
  // the mutex.
  struct Cache {
    explicit Cache(const TreeCacheOptions& opts) : options(opts) {}
    struct Entry {
      std::shared_ptr<const ServedSubTree> tree;
      std::list<uint32_t>::iterator pos;
      uint64_t bytes = 0;
    };
    const TreeCacheOptions options;
    std::mutex mutex;
    /// Most-recently-used at the front.
    std::list<uint32_t> lru;
    std::unordered_map<uint32_t, Entry> entries;
    uint64_t resident_bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t evicted_bytes = 0;
  };

  TextInfo text_;
  PrefixTrie trie_;
  std::vector<SubTreeEntry> subtrees_;
  std::string dir_;
  mutable std::shared_ptr<Cache> cache_ =
      std::make_shared<Cache>(TreeCacheOptions{});
};

}  // namespace era

#endif  // ERA_SUFFIXTREE_TREE_INDEX_H_
