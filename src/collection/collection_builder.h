// Collection indexing: named documents in, a generalized suffix-tree index
// plus its DOCMAP catalog out.
//
// The builder collects documents (in-memory bodies, raw text files,
// per-record FASTA files, or a synthetic corpus), joins them with the
// reserved separator symbol, extends the alphabet with that separator
// (keeping symbol order: the separator sorts above every document symbol,
// below the terminal), and runs the existing ParallelBuilder over the
// combined text.  The resulting directory serves both plain
// pattern queries (QueryEngine) and document-aware queries (DocEngine):
//
//   <dir>/TEXT       the concatenated text (documents + separators + terminal)
//   <dir>/MANIFEST   the usual index manifest (trie + sub-tree catalog)
//   <dir>/st_*       sub-tree files (suffixtree/serializer.h format)
//   <dir>/DOCMAP     the document catalog (collection/document_map.h)

#ifndef ERA_COLLECTION_COLLECTION_BUILDER_H_
#define ERA_COLLECTION_COLLECTION_BUILDER_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "collection/document_map.h"
#include "common/options.h"
#include "common/status.h"
#include "era/era_builder.h"
#include "text/fasta.h"

namespace era {

/// Default separator: '|' (0x7C) sorts above every built-in alphabet symbol
/// ('z' = 0x7A is the largest) and below the terminal '~' (0x7E), so the
/// extended alphabet stays in strictly ascending byte order.
inline constexpr char kDocSeparator = '|';

/// Knobs for one collection build.
struct CollectionBuildOptions {
  /// Passed through to the pipeline builder. `work_dir` is the index
  /// directory; `memory_budget` is the TOTAL budget (split across workers).
  BuildOptions build;
  /// Horizontal-phase workers (>= 1); ParallelBuilder and its background
  /// writer run even single-threaded.
  unsigned num_workers = 1;
  /// Separator symbol; must sort strictly above every alphabet symbol.
  char separator = kDocSeparator;
};

/// A finished collection build.
struct CollectionBuildResult {
  TreeIndex index;
  DocumentMap documents;
  BuildStats stats;
};

/// Accumulates named documents, then builds the generalized index.
class CollectionBuilder {
 public:
  /// `alphabet` is the DOCUMENT alphabet (e.g. Alphabet::Dna()); the indexed
  /// text uses this alphabet extended with the separator.
  CollectionBuilder(const Alphabet& alphabet,
                    const CollectionBuildOptions& options)
      : alphabet_(alphabet), options_(options) {}

  /// Adds one in-memory document. InvalidArgument if the body contains a
  /// byte outside the alphabet (separator and terminal included) or the
  /// name is empty/duplicate.
  Status AddDocument(std::string name, std::string body);

  /// Adds a raw text file as a single document named `name` (defaults to
  /// the path). A trailing terminal byte, if present, is stripped.
  Status AddTextFile(Env* env, const std::string& path,
                     const std::string& name = "");

  /// Adds every record of a FASTA file as one document named by its header
  /// (see ReadFastaRecords). This is where multi-record files become
  /// documents instead of being flattened into one sequence.
  Status AddFastaFile(Env* env, const std::string& path,
                      FastaCleanPolicy policy);

  /// Adds `count` synthetic documents named `<prefix><i>` with bodies drawn
  /// uniformly from the alphabet; lengths vary deterministically in
  /// [body_len/2, 3*body_len/2]. For benchmarks and tests.
  Status AddSyntheticDocuments(std::size_t count, std::size_t body_len,
                               uint64_t seed,
                               const std::string& prefix = "synth");

  std::size_t num_documents() const { return documents_.size(); }

  /// Concatenates, builds the index with the pipelined ParallelBuilder, and
  /// writes DOCMAP next to MANIFEST. The builder can be reused afterwards
  /// (documents stay accumulated).
  StatusOr<CollectionBuildResult> Build();

 private:
  Alphabet alphabet_;
  CollectionBuildOptions options_;
  std::vector<CollectionDocument> documents_;
  std::unordered_set<std::string> names_;  // duplicate check in O(1) per add
};

}  // namespace era

#endif  // ERA_COLLECTION_COLLECTION_BUILDER_H_
