// Multi-pattern matching automaton (Aho-Corasick), compiled to a dense DFA.
//
// Vertical partitioning (frequency counting of the working set) and the
// occurrence scans that seed L for each sub-tree both need every match of a
// set of S-prefixes in one sequential pass over S. The automaton is built
// per working set / per virtual tree; its size is the total pattern length,
// a few KB in practice.
//
// The scan is the per-byte hot loop of every such pass, so the automaton is
// laid out for it. Bytes that occur in some pattern get compact codes 1..m
// and every other byte gets code 0, which always leads back to the root.
// One flat table holds every state's transitions with the failure links
// already folded in. Each state's row is padded to a power of two >= m + 1
// and a state is named by its row's offset, so a byte costs one code lookup,
// one add and one table load. States with matches are numbered last, so
// "does this state report anything" is a single compare, and each keeps a
// flat list of every pattern ending there (output links already followed).

#ifndef ERA_TEXT_AHO_CORASICK_H_
#define ERA_TEXT_AHO_CORASICK_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "io/string_reader.h"

namespace era {

/// Matcher for a fixed set of patterns over byte strings. Patterns must be
/// non-empty. Matches are reported as (pattern_id, start_position).
class AhoCorasick {
 public:
  /// Builds the automaton. Duplicate patterns are allowed (both ids fire).
  /// Fails with InvalidArgument on an empty pattern, or on a set whose
  /// transition table would outgrow 32-bit offsets.
  static StatusOr<AhoCorasick> Build(const std::vector<std::string>& patterns);

  /// Feeds one byte; invokes `emit(pattern_id, start_pos)` for every pattern
  /// ending at this byte. `pos` is the global position of `c`.
  template <typename Emit>
  void Step(char c, uint64_t pos, Emit&& emit) {
    state_ = delta_[state_ + code_[static_cast<unsigned char>(c)]];
    if (state_ >= first_output_state_) EmitOutputs(state_, pos, emit);
  }

  /// Resets the automaton to the root state (start of a new scan).
  void Reset() { state_ = 0; }

  /// ScanAll's default `on_chunk`: ignores every refill.
  struct IgnoreChunks {
    void operator()(uint64_t, std::span<const char>) const {}
  };

  /// Streams the whole file through the automaton (one sequential scan) in
  /// place, over the reader's resident window, invoking
  /// `emit(pattern_id, start_pos)` for every match in position order.
  /// `on_chunk(begin, bytes)` runs for each window the scan walks, before
  /// any match in it is reported: `bytes` holds text
  /// [begin, begin + bytes.size()), so an emit call may read the text from
  /// its match up to the end of the window being scanned. Neither callback
  /// may use the reader.
  template <typename Emit, typename OnChunk = IgnoreChunks>
  Status ScanAll(StringReader* reader, Emit&& emit, OnChunk&& on_chunk = {});

  std::size_t num_patterns() const { return patterns_.size(); }
  const std::string& pattern(int32_t id) const {
    return patterns_[static_cast<std::size_t>(id)];
  }

 private:
  /// Bytes whose matching states ScanAll collects before reporting them.
  static constexpr uint32_t kScanBlock = 4 << 10;

  /// One pattern ending at a state: its id and its length (so the start
  /// position needs no lookup into patterns_).
  struct Output {
    int32_t id = 0;
    uint32_t length = 0;
  };

  template <typename Emit>
  void EmitOutputs(uint32_t state, uint64_t pos, Emit& emit) const {
    const uint32_t row = (state - first_output_state_) >> row_shift_;
    for (uint32_t i = output_begin_[row]; i < output_begin_[row + 1]; ++i) {
      emit(outputs_[i].id, pos + 1 - outputs_[i].length);
    }
  }

  std::array<uint32_t, 256> code_{};  // byte -> column; 0 = in no pattern
  uint32_t row_shift_ = 0;            // log2 of the padded row width
  /// delta_[state + code] is the next state; states are row offsets.
  std::vector<uint32_t> delta_;
  /// States at or above this offset report matches; the rest report none.
  uint32_t first_output_state_ = 0;
  /// The k-th reporting state's patterns are outputs_[output_begin_[k] ..
  /// output_begin_[k + 1]).
  std::vector<uint32_t> output_begin_;
  std::vector<Output> outputs_;
  std::vector<std::string> patterns_;
  uint32_t state_ = 0;
};

template <typename Emit, typename OnChunk>
Status AhoCorasick::ScanAll(StringReader* reader, Emit&& emit,
                            OnChunk&& on_chunk) {
  Reset();
  reader->BeginScan();
  // The transition loop only records where a reporting state was reached,
  // without a data-dependent branch; the matches are reported afterwards,
  // block by block. Locals keep the table in registers across emit calls,
  // which may write anywhere.
  std::array<uint32_t, kScanBlock> hit_offset{};
  std::array<uint32_t, kScanBlock> hit_state{};
  const uint32_t* delta = delta_.data();
  const uint32_t first_output = first_output_state_;
  uint32_t state = 0;
  ERA_RETURN_NOT_OK(reader->FetchSpans(
      0, reader->size(), [&](uint64_t begin, std::span<const char> bytes) {
        on_chunk(begin, bytes);
        const char* const chunk = bytes.data();
        for (std::size_t block = 0; block < bytes.size();
             block += kScanBlock) {
          const uint32_t n = static_cast<uint32_t>(
              std::min<std::size_t>(bytes.size() - block, kScanBlock));
          uint32_t hits = 0;
          for (uint32_t i = 0; i < n; ++i) {
            state = delta[state + code_[static_cast<unsigned char>(
                                          chunk[block + i])]];
            hit_offset[hits] = i;
            hit_state[hits] = state;
            hits += state >= first_output;
          }
          for (uint32_t h = 0; h < hits; ++h) {
            EmitOutputs(hit_state[h], begin + block + hit_offset[h], emit);
          }
        }
      }));
  state_ = state;
  return Status::OK();
}

}  // namespace era

#endif  // ERA_TEXT_AHO_CORASICK_H_
