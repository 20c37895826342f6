// Document-aware serving over a collection index.
//
// DocEngine layers the DOCMAP catalog on top of the thread-safe QueryEngine:
// a doc query matches the pattern once (O(|P|) walk to the match node),
// enumerates the node's contiguous descendant leaf-slot range, and folds the
// resulting global offsets through the DocumentMap.  Because Locate returns
// offsets in ascending order and document spans are ascending too, the
// per-document histogram falls out of a single merge-style pass — no hash
// table, no second sort.
//
// Patterns containing the reserved separator or terminal byte are rejected
// with InvalidArgument: documents cannot contain them, so such a "match"
// could only be an artifact of the concatenated layout.
//
// Thread-safe: any number of threads may issue doc queries concurrently
// (sessions are pooled inside QueryEngine; the per-call doc counters fold
// into the aggregate under a mutex).

#ifndef ERA_COLLECTION_DOC_ENGINE_H_
#define ERA_COLLECTION_DOC_ENGINE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "collection/document_map.h"
#include "common/status.h"
#include "query/query_engine.h"

namespace era {

/// One document's share of a pattern's occurrences.
struct DocHit {
  uint32_t doc_id = 0;
  uint64_t occurrences = 0;

  bool operator==(const DocHit& other) const {
    return doc_id == other.doc_id && occurrences == other.occurrences;
  }
};

/// Aggregate counters for the document-query path (tree-walk work is in the
/// underlying QueryEngine's QueryStats; these count catalog work and
/// serving degradation as seen by collection callers).
struct DocQueryStats {
  /// Completed doc-level calls (batch items count individually).
  uint64_t queries = 0;
  /// Global occurrence offsets folded through the DocumentMap.
  uint64_t offsets_resolved = 0;
  /// Offsets that resolved to no document (separator/terminal positions;
  /// always 0 for valid patterns — a nonzero value flags a layout bug).
  uint64_t offsets_outside_documents = 0;
  /// Sum over queries of distinct matching documents.
  uint64_t docs_matched = 0;
  /// Doc queries that failed Unavailable (their sub-tree is quarantined
  /// below; see DocEngine::quarantine()).
  uint64_t unavailable_queries = 0;
  /// Doc queries abandoned by their caller — deadline expiry or
  /// cancellation (both are "the caller stopped waiting"; the split is in
  /// serving().deadline_exceeded vs serving().cancelled).
  uint64_t deadline_exceeded = 0;
  /// Doc queries refused by admission control (ResourceExhausted).
  uint64_t shed = 0;

  void Add(const DocQueryStats& other) {
    queries += other.queries;
    offsets_resolved += other.offsets_resolved;
    offsets_outside_documents += other.offsets_outside_documents;
    docs_matched += other.docs_matched;
    unavailable_queries += other.unavailable_queries;
    deadline_exceeded += other.deadline_exceeded;
    shed += other.shed;
  }
};

/// Read-side facade over a collection index directory (MANIFEST + DOCMAP).
class DocEngine {
 public:
  /// Opens the underlying QueryEngine and loads + checksum-verifies DOCMAP.
  static StatusOr<std::unique_ptr<DocEngine>> Open(
      Env* env, const std::string& index_dir,
      const QueryEngineOptions& options = QueryEngineOptions{});

  /// Number of distinct documents containing `pattern` (document frequency).
  /// Every call also has a QueryContext overload: the context's deadline and
  /// cancellation apply to the underlying Locate (checked at node-visit and
  /// device-read boundaries) and the call passes through admission control.
  StatusOr<uint64_t> CountDocs(const std::string& pattern);
  StatusOr<uint64_t> CountDocs(const QueryContext& ctx,
                               const std::string& pattern);

  /// The `k` documents with the most occurrences of `pattern`, ordered by
  /// descending occurrence count, ties by ascending doc id. Fewer than `k`
  /// entries when fewer documents match.
  StatusOr<std::vector<DocHit>> TopKDocuments(const std::string& pattern,
                                              std::size_t k);
  StatusOr<std::vector<DocHit>> TopKDocuments(const QueryContext& ctx,
                                              const std::string& pattern,
                                              std::size_t k);

  /// Occurrence offsets of `pattern` WITHIN document `doc_id` (document-
  /// local coordinates), ascending.
  StatusOr<std::vector<uint64_t>> LocateInDoc(const std::string& pattern,
                                              uint32_t doc_id);
  StatusOr<std::vector<uint64_t>> LocateInDoc(const QueryContext& ctx,
                                              const std::string& pattern,
                                              uint32_t doc_id);

  /// Per-document occurrence histogram for `pattern`, ascending doc id.
  /// (CountDocs/TopKDocuments are views of this.)
  StatusOr<std::vector<DocHit>> DocumentHistogram(const std::string& pattern);
  StatusOr<std::vector<DocHit>> DocumentHistogram(const QueryContext& ctx,
                                                  const std::string& pattern);

  /// TopKDocuments over a batch; answers are index-aligned with `patterns`.
  /// The context overload shares one deadline across the batch and stops
  /// mid-flight when it expires (remaining items are not attempted).
  StatusOr<std::vector<std::vector<DocHit>>> TopKDocumentsBatch(
      const std::vector<std::string>& patterns, std::size_t k);
  StatusOr<std::vector<std::vector<DocHit>>> TopKDocumentsBatch(
      const QueryContext& ctx, const std::vector<std::string>& patterns,
      std::size_t k);

  /// Distinct-document counts (document frequency) for a whole dictionary
  /// in one batched pass: patterns share descents and leaf enumeration
  /// through QueryEngine::MatchDictionary — one sub-tree open and one leaf
  /// pass per touched sub-tree, regardless of dictionary size — then each
  /// pattern's ascending offsets fold through the DocumentMap with the
  /// usual merge pass. Outcomes are index-aligned with `patterns` and
  /// follow the per-item CountOutcome contract (`count` = distinct
  /// documents containing the pattern); the outer status is non-OK only
  /// when the batch never ran.
  StatusOr<std::vector<CountOutcome>> CountDocsDictionary(
      const std::vector<std::string>& patterns);
  StatusOr<std::vector<CountOutcome>> CountDocsDictionary(
      const QueryContext& ctx, const std::vector<std::string>& patterns);

  const DocumentMap& documents() const { return documents_; }
  /// The underlying pattern engine (plain Count/Locate over the combined
  /// text, cache snapshots, I/O counters).
  QueryEngine& engine() { return *engine_; }
  /// Snapshot of the aggregate document-query counters.
  DocQueryStats doc_stats() const;

  /// Serving-degradation views, re-exported so collection callers see
  /// quarantined sub-trees and overload counters without reaching into
  /// engine().
  std::map<uint32_t, uint64_t> quarantine() const {
    return engine_->quarantine();
  }
  ServingStats serving() const { return engine_->serving(); }
  /// Graceful shutdown passthroughs (see QueryEngine::Drain).
  void Drain() { engine_->Drain(); }
  void Resume() { engine_->Resume(); }

 private:
  DocEngine(std::unique_ptr<QueryEngine> engine, DocumentMap documents)
      : engine_(std::move(engine)), documents_(std::move(documents)) {}

  /// Rejects patterns that could only match across the concatenated layout.
  Status ValidatePattern(const std::string& pattern) const;

  /// Histogram core: one Locate + one merge pass; per-call counters are
  /// accumulated into `stats`.
  StatusOr<std::vector<DocHit>> HistogramWithStats(const QueryContext& ctx,
                                                   const std::string& pattern,
                                                   DocQueryStats* stats);

  /// The merge pass itself (ascending global offsets -> per-document
  /// histogram), shared by the single-pattern and dictionary paths.
  std::vector<DocHit> HistogramFromOffsets(const std::vector<uint64_t>& offsets,
                                           DocQueryStats* stats) const;

  void FoldStats(const DocQueryStats& stats);

  /// Bills a failed doc query's status into the degradation counters.
  static void ClassifyFailure(const Status& status, DocQueryStats* stats);

  std::unique_ptr<QueryEngine> engine_;
  DocumentMap documents_;

  mutable std::mutex mu_;
  DocQueryStats stats_;

  /// Exporter wiring: a registry collector translating stats_ into
  /// era_doc_* samples (registered by Open in the engine's registry; see
  /// doc_engine.cc).
  MetricsRegistry* registry_ = nullptr;
  uint64_t collector_id_ = 0;

 public:
  ~DocEngine();
};

/// Sorts a document histogram into TopK order (occurrences descending, doc
/// id ascending) and truncates to `k`. Exposed for tests and benches.
std::vector<DocHit> TopKFromHistogram(std::vector<DocHit> histogram,
                                      std::size_t k);

}  // namespace era

#endif  // ERA_COLLECTION_DOC_ENGINE_H_
