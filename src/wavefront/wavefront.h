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
// the other (the nested-loop tiling). Both are instrumented. The drivers are
// ParallelBuilder and ClusterBuilder with ParallelAlgorithm::kWaveFront; the
// serial WaveFront is ParallelBuilder at one worker.

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

/// One WaveFront worker's readers over S: `scan` finds each unit's
/// occurrences through a window the size of the trie area and reads S in
/// full (no seek skipping); `suffix` streams new-suffix symbols through a
/// B_S window and `edge` streams edge-label symbols through an R window, the
/// two nested-loop buffers, both billing their random probes as sequential
/// tile traffic in 512-byte windows.
struct WaveFrontReaders {
  std::unique_ptr<StringReader> scan;
  std::unique_ptr<StringReader> suffix;
  std::unique_ptr<StringReader> edge;
};

/// Opens the three readers over `path`, sized from `layout`; all bill
/// `stats`.
StatusOr<WaveFrontReaders> OpenWaveFrontReaders(Env* env,
                                                const std::string& path,
                                                const MemoryLayout& layout,
                                                IoStats* stats);

/// Builds the sub-tree for one S-prefix by string-order insertion.
/// `suffix_reader` feeds new-suffix symbols, `edge_reader` feeds edge-label
/// symbols (WaveFront's two nested-loop buffers). Fails with Internal when
/// `text_length` passes the 32-bit edge field of the tree node.
StatusOr<TreeBuffer> WaveFrontBuildSubTree(const std::string& prefix,
                                           const std::vector<uint64_t>& occ,
                                           uint64_t text_length,
                                           StringReader* suffix_reader,
                                           StringReader* edge_reader);

/// Processes one single-prefix work unit end to end (occurrence scan +
/// insertion + serialization) through `readers`.
Status WaveFrontProcessUnit(const TextInfo& text, const BuildOptions& options,
                            const VirtualTree& unit, uint64_t unit_id,
                            WaveFrontReaders* readers, GroupOutput* out);

}  // namespace era

#endif  // ERA_WAVEFRONT_WAVEFRONT_H_
