// WaveFront baseline (Ghoting & Makarychev, SIGMOD 2009 — reference [7]).
//
// Implemented as this paper describes it (Sections 3 and 6.1):
//   * vertical partitioning by variable-length S-prefixes, but WITHOUT
//     virtual-tree grouping — every sub-tree scans S on its own;
//   * the block-nested-loop memory split: the two buffers take ~50% of the
//     budget, so FM is roughly half of ERA's for the same memory
//     (PlanMemoryWaveFront);
//   * suffixes are inserted in string order (left to right), each insertion
//     traversing the partial sub-tree top-down and comparing edge labels
//     symbol by symbol — the CPU overhead and scattered memory access the
//     paper contrasts with ERA's lexicographic batch construction; larger
//     alphabets mean longer child chains, reproducing Figure 11(b)'s
//     sensitivity to |Σ|.
//
// Suffix-side symbols stream through one buffer; edge-label symbols through
// the other (the nested-loop tiling). Both are instrumented.

#ifndef ERA_WAVEFRONT_WAVEFRONT_H_
#define ERA_WAVEFRONT_WAVEFRONT_H_

#include <memory>
#include <string>

#include "common/options.h"
#include "common/status.h"
#include "era/era_builder.h"
#include "era/memory_layout.h"
#include "era/vertical_partitioner.h"
#include "io/string_reader.h"
#include "suffixtree/tree_buffer.h"
#include "text/corpus.h"

namespace era {

/// WaveFront's two nested-loop buffers over S: `suffix` streams new-suffix
/// symbols through a B_S window, `edge` streams edge-label symbols through
/// an R window. Both bill their random probes as sequential tile traffic in
/// 512-byte windows.
struct WaveFrontReaders {
  std::unique_ptr<StringReader> suffix;
  std::unique_ptr<StringReader> edge;
};

/// Opens the reader pair over `path`, sized from `layout`; both bill `stats`.
StatusOr<WaveFrontReaders> OpenWaveFrontReaders(Env* env,
                                                const std::string& path,
                                                const MemoryLayout& layout,
                                                IoStats* stats);

/// Builds the sub-tree for one S-prefix by string-order insertion.
/// `suffix_reader` feeds new-suffix symbols, `edge_reader` feeds edge-label
/// symbols (WaveFront's two nested-loop buffers).
StatusOr<TreeBuffer> WaveFrontBuildSubTree(const std::string& prefix,
                                           const std::vector<uint64_t>& occ,
                                           uint64_t text_length,
                                           StringReader* suffix_reader,
                                           StringReader* edge_reader);

/// Processes one single-prefix work unit end to end (occurrence scan +
/// insertion + serialization). Shared by the serial and parallel drivers.
Status WaveFrontProcessUnit(const TextInfo& text, const BuildOptions& options,
                            const VirtualTree& unit, uint64_t unit_id,
                            StringReader* scan_reader,
                            StringReader* suffix_reader,
                            StringReader* edge_reader, GroupOutput* out);

/// The serial WaveFront builder.
class WaveFrontBuilder {
 public:
  explicit WaveFrontBuilder(const BuildOptions& options) : options_(options) {}

  StatusOr<BuildResult> Build(const TextInfo& text);

 private:
  BuildOptions options_;
};

}  // namespace era

#endif  // ERA_WAVEFRONT_WAVEFRONT_H_
