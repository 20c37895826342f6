// Query engine over a built TreeIndex: exact pattern search in O(|P|)
// symbol comparisons (the suffix tree's raison d'être, Section 1).
//
// A query walks the index's resident top-level trie (PrefixTrie::Descend)
// to the responsible sub-tree, loads it through the index's byte-budgeted
// LRU cache, and continues matching inside it.
// Sub-trees are walked in their serving form (ServedSubTree): compressed
// payloads are never inflated — child lookup is a binary search over the
// symbol-table ranks of the sorted child block's stored first symbols and
// reads no text; only an edge label's bytes past its first symbol are read
// from the text, through a buffered reader. Count reads the match node's
// stored subtree leaf count, so the O(|P|) bound holds with zero leaf
// enumeration. Pattern batches go through MatchDictionary, which shares
// sub-tree opens, descents and leaf decoding across the whole batch.
//
// The engine is thread-safe: any number of threads may issue queries
// concurrently. Each call leases a text-reader session from an internal pool
// (readers are pooled, never shared), the sub-tree cache holds its lock only
// for lookups and inserts (never across a load), and per-session I/O and
// query counters are folded into the engine's registry counters when the
// lease is returned.
//
// Overload control: every entry point has a QueryContext overload carrying
// an absolute deadline and a cancellation token, checked at node-visit and
// device-read boundaries (the context-free overloads run under
// QueryContext::Background()). All queries pass through an
// AdmissionController (query/admission.h) — disabled by default, so
// existing callers only gain the Drain() contract — and serving degradation
// is counted in ServingStats beside QueryStats.

#ifndef ERA_QUERY_QUERY_ENGINE_H_
#define ERA_QUERY_QUERY_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/query_context.h"
#include "common/status.h"
#include "io/string_reader.h"
#include "query/admission.h"
#include "suffixtree/tree_index.h"

namespace era {

/// Per-engine tracing knobs (see common/metrics.h for the trace layer).
struct QueryTraceOptions {
  /// Master switch. Off (default) keeps every trace pointer null: the whole
  /// span layer costs one pointer test per checkpoint.
  bool enabled = false;
  /// Trace every Nth top-level request (1 = all). Sampling is a per-engine
  /// round-robin counter, so a steady workload traces a steady fraction.
  uint64_t sample_every = 1;
  /// Ring capacities and the slow-query threshold.
  TraceRecorderOptions recorder;
};

/// Tuning for a serving engine.
struct QueryEngineOptions {
  /// Sub-tree cache budget and load retries (see TreeCacheOptions).
  TreeCacheOptions cache;
  /// Overload policy (disabled by default: everything admitted instantly,
  /// but Drain() still rejects new work while in-flight queries finish).
  AdmissionOptions admission;
  /// Registry the engine's counters live in; null means
  /// MetricsRegistry::Global(). Each engine registers its series under a
  /// unique {engine="N"} label, so a fresh engine always starts from zero.
  MetricsRegistry* registry = nullptr;
  /// Per-request tracing (off by default).
  QueryTraceOptions trace;
};

/// Aggregate query-path counters (device traffic is in IoStats; these count
/// tree work).
struct QueryStats {
  /// Completed Count/Locate/Contains calls (MatchDictionary items count
  /// individually, except duplicates folded onto an identical item — those
  /// count only in batch_duplicates_folded).
  uint64_t queries = 0;
  /// Counts answered from the trie alone (no sub-tree open).
  uint64_t trie_resolved_counts = 0;
  /// Sub-tree nodes examined while matching: one per child-lookup probe
  /// (binary-search steps over stored first symbols).
  uint64_t nodes_visited = 0;
  /// Text reads issued by edge-label comparison past an edge's first symbol
  /// (MatchInSubTree and the dictionary descent). Child lookup itself reads
  /// no text, so these are the query path's only label reads.
  uint64_t label_fetches = 0;
  /// Leaf records materialized (Locate only; Count never enumerates).
  uint64_t leaves_enumerated = 0;
  /// Queries answered Unavailable because their sub-tree could not be
  /// loaded (corrupt or unreadable after retries). The failure is per-query:
  /// patterns routed to healthy sub-trees keep succeeding.
  uint64_t unavailable_queries = 0;
  /// MatchDictionary items answered by copying the outcome of an identical
  /// pattern in the same batch (no descent, no leaf work).
  uint64_t batch_duplicates_folded = 0;
  /// Same-sub-tree pattern groups formed by MatchDictionary (one sub-tree
  /// open and one range descent per group).
  uint64_t dict_groups_formed = 0;
  /// Tree edges walked once on behalf of a whole pattern range during a
  /// shared descent.
  uint64_t dict_descents_shared = 0;
  /// Edge walks avoided versus the per-pattern loop: for every shared edge,
  /// (patterns entering the edge - 1).
  uint64_t dict_descents_saved = 0;
};

/// QueryStats field table for the metrics registry (the IoStatsFields
/// pattern; see io/io_stats.h).
struct QueryStatsField {
  const char* name;
  const char* help;
  uint64_t QueryStats::*member;
};
const std::vector<QueryStatsField>& QueryStatsFields();

/// Per-item result of a batch (DocEngine::CountDocsDictionary). A batch
/// stops mid-flight on deadline expiry or cancellation: items already
/// answered keep their results, the item that hit the boundary and
/// everything unresolved after it carry that terminal status. Non-fatal
/// per-item failures (bad pattern, sub-tree unavailable) do not stop the
/// batch.
struct CountOutcome {
  Status status;
  uint64_t count = 0;
};

/// What a limited Locate promises about WHICH occurrences it returns.
enum class LocateOrder {
  /// The smallest `limit` offsets: every occurrence is enumerated, then a
  /// selection keeps the smallest. Deterministic, but the enumeration cost
  /// is proportional to the total occurrence count, not the limit.
  kSmallest,
  /// Any `limit` occurrences (still returned sorted): decoding stops after
  /// `limit` leaf slots, so a huge posting list costs O(limit) leaf decodes.
  /// Use when the caller needs *some* occurrences — existence samples,
  /// result-page seeds — rather than the smallest ones.
  kArbitrary,
};

/// Knobs for MatchDictionary.
struct DictMatchOptions {
  /// When true every matched pattern also gets its occurrence offsets
  /// (kSmallest semantics under locate_limit, like Locate). Leaf work is
  /// shared: one enumeration pass per touched sub-tree resolves every
  /// matched pattern routed there.
  bool locate = false;
  /// Per-pattern cap on returned offsets (locate mode only).
  std::size_t locate_limit = SIZE_MAX;
};

/// Per-pattern result of MatchDictionary. `count` is the full occurrence
/// count in both modes; `offsets` is filled only in locate mode (ascending,
/// at most locate_limit entries, smallest first). Per-item and terminal
/// statuses follow the CountOutcome batch contract.
struct DictOutcome {
  Status status;
  uint64_t count = 0;
  std::vector<uint64_t> offsets;
};

/// Read-side facade over an index directory.
class QueryEngine {
 public:
  /// Loads the manifest from `index_dir`, configures the sub-tree cache and
  /// opens the text file referenced by the manifest.
  static StatusOr<std::unique_ptr<QueryEngine>> Open(
      Env* env, const std::string& index_dir,
      const QueryEngineOptions& options = QueryEngineOptions{});

  ~QueryEngine();

  /// Number of occurrences of `pattern` in the text. O(|P|) — answered from
  /// trie frequencies or the match node's subtree leaf count.
  StatusOr<uint64_t> Count(const std::string& pattern);
  StatusOr<uint64_t> Count(const QueryContext& ctx, const std::string& pattern);

  /// Starting offsets of occurrences, ascending. With a `limit`, `order`
  /// picks the contract: kSmallest (default) collects every occurrence and
  /// keeps the smallest `limit`; kArbitrary stops decoding after `limit`
  /// leaf slots (see LocateOrder).
  StatusOr<std::vector<uint64_t>> Locate(
      const std::string& pattern, std::size_t limit = SIZE_MAX,
      LocateOrder order = LocateOrder::kSmallest);
  StatusOr<std::vector<uint64_t>> Locate(
      const QueryContext& ctx, const std::string& pattern,
      std::size_t limit = SIZE_MAX, LocateOrder order = LocateOrder::kSmallest);

  /// True iff `pattern` occurs at least once (via Count; no enumeration).
  StatusOr<bool> Contains(const std::string& pattern);
  StatusOr<bool> Contains(const QueryContext& ctx, const std::string& pattern);

  /// Shared-descent dictionary matching: answers the whole pattern set in
  /// one batched pass. Patterns are deduplicated and sorted (memcmp order,
  /// which is also the tree's child order), grouped by target sub-tree, and
  /// each group descends the tree with a pattern-range cursor — every tree
  /// edge is walked at most once per distinct shared prefix, and each
  /// touched sub-tree is opened exactly once. Results are byte-identical to
  /// running the per-pattern Count/Locate loop. One leased reader session
  /// and one admission permit serve the whole batch. Outcomes are
  /// index-aligned with `patterns`; the outer status is only non-OK when
  /// the batch never ran (shed by admission, or no reader session), so a
  /// bad pattern or an unavailable sub-tree fails only its own items
  /// (CountOutcome contract). Deadline/cancel checkpoints sit at group
  /// and node boundaries, and a terminal status stamps the item that hit
  /// the boundary plus everything unresolved after it.
  StatusOr<std::vector<DictOutcome>> MatchDictionary(
      const std::vector<std::string>& patterns,
      const DictMatchOptions& options = DictMatchOptions{});
  StatusOr<std::vector<DictOutcome>> MatchDictionary(
      const QueryContext& ctx, const std::vector<std::string>& patterns,
      const DictMatchOptions& options = DictMatchOptions{});

  const TreeIndex& index() const { return index_; }
  /// Snapshot of the accumulated I/O of retired sessions (sub-tree loads,
  /// cache traffic, label reads), read from the engine's registry counters.
  /// Sessions still in flight report on release.
  IoStats io() const;
  /// Snapshot of the aggregate query counters (registry-backed, like io()).
  QueryStats stats() const;
  /// Snapshot of the sub-tree cache (hits/misses/evictions/residency).
  TreeIndex::CacheSnapshot cache() const { return index_.CacheStats(); }
  /// Sub-trees whose loads have failed, with failure counts — the serving
  /// blast radius of on-disk damage. Failed loads are never cached, so a
  /// repaired file starts serving again without a restart.
  std::map<uint32_t, uint64_t> quarantine() const;

  /// Snapshot of the serving-layer counters (admitted/queued/shed/...).
  ServingStats serving() const { return admission_.stats(); }
  /// Trace recorder when tracing is enabled in the options, else null.
  TraceRecorder* tracer() const { return tracer_.get(); }
  /// Graceful shutdown: sheds queued work, refuses new queries with
  /// ResourceExhausted (even through the context-free overloads), lets
  /// in-flight queries finish. Follow with admission().WaitIdle() to block
  /// until they have.
  void Drain() { admission_.Drain(); }
  void Resume() { admission_.Resume(); }
  /// The underlying controller (in_flight(), WaitIdle(), options()).
  AdmissionController& admission() { return admission_; }

 private:
  /// The shared-descent dictionary matcher (query/dict_matcher.cc) runs
  /// inside a leased session and shares the engine's private traversal
  /// helpers (FindChild, OpenSubTreeOrQuarantine, LocateWithSession).
  friend class DictMatcher;

  /// One pooled serving session: a private text reader plus the stat sinks
  /// it is bound to.
  struct Session {
    std::unique_ptr<StringReader> reader;
    IoStats io;
    QueryStats stats;
  };

  /// RAII over AcquireSession/ReleaseSession: folds the session's counters
  /// into the engine's registry counters on every exit path.
  class Lease {
   public:
    Lease() = default;
    ~Lease();
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Status Acquire(QueryEngine* engine);
    Session* get() { return session_.get(); }

   private:
    QueryEngine* engine_ = nullptr;
    std::unique_ptr<Session> session_;
  };

  /// Scoped binding of a query's context to a leased session's reader, so
  /// every device read the session performs observes the caller's deadline.
  /// Declare AFTER the Lease: the binding must unwind before the session
  /// returns to the pool (a pooled reader must never point at a dead
  /// context).
  class ReaderContextGuard {
   public:
    ReaderContextGuard(Session* session, const QueryContext* ctx);
    ~ReaderContextGuard();
    ReaderContextGuard(const ReaderContextGuard&) = delete;
    ReaderContextGuard& operator=(const ReaderContextGuard&) = delete;

   private:
    Session* session_;
  };

  QueryEngine(Env* env, TreeIndex index, const QueryEngineOptions& options)
      : env_(env),
        index_(std::move(index)),
        options_(options),
        admission_(options.admission) {}

  /// Registers the engine's counter series and snapshot collector (cache,
  /// quarantine, in-flight) under a unique {engine="N"} label, and creates
  /// the trace recorder when tracing is enabled. Called once from Open.
  void InitObservability();

  /// Starts a sampled trace for one top-level request; null when tracing is
  /// off or the sampler skips this request.
  std::shared_ptr<Trace> MaybeStartTrace(const char* label,
                                         const QueryContext& ctx);
  /// Finishes `trace` (no-op when null) and passes `result` through.
  template <typename T>
  StatusOr<T> FinishTraced(const std::shared_ptr<Trace>& trace,
                           StatusOr<T> result) {
    if (trace != nullptr) {
      tracer_->FinishTrace(trace,
                           result.ok() ? Status::OK() : result.status());
    }
    return result;
  }

  StatusOr<std::unique_ptr<Session>> AcquireSession();
  void ReleaseSession(std::unique_ptr<Session> session);

  /// OpenSubTree with serving degradation: a failed load is recorded in the
  /// quarantine map and surfaced as Unavailable naming the sub-tree, so one
  /// damaged file fails its own queries instead of the process. A deadline
  /// or cancellation abandon is NOT the file's fault and passes through
  /// without quarantining.
  StatusOr<std::shared_ptr<const ServedSubTree>> OpenSubTreeOrQuarantine(
      uint32_t id, Session* session, const QueryContext& ctx);

  /// Bodies of the public context-aware entry points (admission → lease →
  /// per-session work). The public wrappers only add trace start/finish.
  StatusOr<uint64_t> CountImpl(const QueryContext& ctx,
                               const std::string& pattern);
  StatusOr<std::vector<uint64_t>> LocateImpl(const QueryContext& ctx,
                                             const std::string& pattern,
                                             std::size_t limit,
                                             LocateOrder order);
  StatusOr<std::vector<DictOutcome>> MatchDictionaryImpl(
      const QueryContext& ctx, const std::vector<std::string>& patterns,
      const DictMatchOptions& options);

  StatusOr<uint64_t> CountWithSession(Session* session,
                                      const QueryContext& ctx,
                                      const std::string& pattern);
  StatusOr<std::vector<uint64_t>> LocateWithSession(Session* session,
                                                    const QueryContext& ctx,
                                                    const std::string& pattern,
                                                    std::size_t limit,
                                                    LocateOrder order);

  /// Match outcome inside one sub-tree.
  struct SubTreeMatch {
    bool matched = false;
    uint32_t node = 0;  // node whose subtree holds all occurrences
  };
  StatusOr<SubTreeMatch> MatchInSubTree(const ServedSubTree& tree,
                                        const QueryContext& ctx,
                                        const std::string& pattern,
                                        Session* session);
  /// Child of `node` whose edge starts with `symbol`: a binary search over
  /// the stored first symbols of the sorted child block, reading no text.
  /// Each probe counts in stats->nodes_visited. kNilNode if absent (at once,
  /// without probing, when no edge of the tree starts with `symbol`).
  static uint32_t FindChild(const ServedSubTree& tree, uint32_t node,
                            char symbol, QueryStats* stats);

  Env* env_;
  TreeIndex index_;
  QueryEngineOptions options_;
  AdmissionController admission_;

  mutable std::mutex mu_;  // guards pool_ and quarantine_
  std::vector<std::unique_ptr<Session>> pool_;
  std::map<uint32_t, uint64_t> quarantine_;  // subtree id -> failed loads

  /// Registry wiring in options_.registry. The counter vectors are
  /// index-aligned with IoStatsFields() / QueryStatsFields(): ReleaseSession
  /// folds a retired session into them, io()/stats() materialize the
  /// snapshot structs back out.
  std::vector<std::shared_ptr<Counter>> io_counters_;
  std::vector<std::shared_ptr<Counter>> query_counters_;
  uint64_t collector_id_ = 0;
  std::unique_ptr<TraceRecorder> tracer_;
  std::atomic<uint64_t> trace_tick_{0};  // sampling counter
};

}  // namespace era

#endif  // ERA_QUERY_QUERY_ENGINE_H_
