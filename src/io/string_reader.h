// Buffered, instrumented access to the input string.
//
// StringReader is the only path through which builders touch the text of S.
// It provides:
//   * Fetch()       — monotonically increasing positions within a scan; this
//                     is the sequential access pattern of ERA/WaveFront/B2ST.
//                     With the disk-seek optimization enabled, long gaps
//                     between requested positions are skipped with a seek
//                     instead of being read through (Section 4.4 of the
//                     paper). FetchSpans() and FetchBatch() serve the same
//                     scans as spans of the resident window, without a
//                     copy.
//   * RandomFetch() — arbitrary positions (used by the semi-disk-based
//                     TRELLIS merge phase and by query-time edge-label
//                     resolution); buffer misses count as seeks.
//
// All traffic is tallied into the IoStats supplied at construction.

#ifndef ERA_IO_STRING_READER_H_
#define ERA_IO_STRING_READER_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/query_context.h"
#include "common/status.h"
#include "io/env.h"
#include "io/io_stats.h"
#include "io/retry_policy.h"
#include "io/tile_cache.h"

namespace era {

/// Options controlling one StringReader.
struct StringReaderOptions {
  /// Size of the in-memory window (the paper's input buffer B_S). The
  /// window never exceeds the file: a read at p transfers at most
  /// size - p bytes whatever the window, so a larger one only holds memory.
  uint64_t buffer_bytes = 1 << 20;
  /// If true, skip unneeded stretches of the file with a seek when the gap
  /// exceeds `skip_threshold_bytes`.
  bool seek_optimization = false;
  /// Minimum gap that justifies a seek instead of reading through.
  uint64_t skip_threshold_bytes = 64 << 10;
  /// Window loaded on a random (non-sequential) repositioning. Small by
  /// default: a random miss fetches a block, not a full scan buffer.
  uint64_t random_window_bytes = 4096;
  /// Bill random repositionings as sequential transfer instead of seeks.
  /// Used by the WaveFront emulation: the real algorithm organizes exactly
  /// this traffic into block-nested-loop tile scans, so its device-level
  /// pattern is sequential volume, not head movement (see
  /// wavefront/wavefront.h).
  bool bill_random_as_sequential = false;
  /// Shared read-through tile cache (io/tile_cache.h). When set, the reader
  /// is served from the cache instead of the device: refills bill
  /// IoStats::cache_served_bytes, and the cache accounts the real device
  /// traffic its misses cause. The cache must have been opened on the same
  /// path this reader is opened on.
  std::shared_ptr<TileCache> tile_cache;
  /// Transient device-read faults (IOError only — never Corruption) are
  /// retried with exponential backoff before the scan fails; absorbed
  /// retries are tallied into IoStats::read_retries.
  RetryPolicy retry;
};

/// One read of a batched fetch: `len` bytes at `pos`.
struct FetchRequest {
  uint64_t pos = 0;
  uint32_t len = 0;
};

/// Instrumented buffered reader over one file. Not thread-safe; each worker
/// owns its own StringReader.
class StringReader {
 public:
  /// `stats` may be nullptr (no accounting). Does not take ownership of it.
  StringReader(std::unique_ptr<RandomAccessFile> file,
               const StringReaderOptions& options, IoStats* stats);

  /// Starts a new sequential scan at position `start_pos`; Fetch positions
  /// must be non-decreasing until the next BeginScan.
  void BeginScan(uint64_t start_pos = 0);

  /// Reads up to `len` bytes at `pos` (which must be >= the previous Fetch
  /// position within this scan); `*out_len` receives the bytes available
  /// (short at end-of-file).
  Status Fetch(uint64_t pos, uint32_t len, char* out, uint32_t* out_len);

  /// Fetch without the copy: hands text [pos, pos + len) to
  /// `sink(offset, piece)` as spans of the resident window, in order. A
  /// piece holds text [pos + offset, pos + offset + piece.size()); a range
  /// that crosses refills arrives in several pieces, and the pieces stop
  /// short at end-of-file. `pos` and the window's moves follow Fetch, so a
  /// scan makes the same device reads either way. A piece is valid only
  /// during its call, and the sink must not use this reader.
  template <typename Sink>
  Status FetchSpans(uint64_t pos, uint64_t len, Sink&& sink);

  /// Serves a pre-merged stream of sequential reads in one call: request
  /// positions must be non-decreasing (like Fetch within a scan). Request
  /// r's bytes reach `sink(r, offset, piece)` as FetchSpans pieces. A
  /// request inside the resident window costs one bounds check and one
  /// call, and the window advances once per gap instead of once per
  /// request — the batch drives exactly one pass over the buffer. A
  /// request no longer than the window that runs past its end, followed by
  /// one starting before that end, reloads the window at its own start
  /// (billed as a seek) and arrives in one piece; other requests that run
  /// past the window arrive in several.
  template <typename Sink>
  Status FetchBatch(std::span<const FetchRequest> requests, Sink&& sink);

  /// Reads up to `len` bytes at any `pos`; buffer misses reposition the
  /// window (counted as a seek).
  Status RandomFetch(uint64_t pos, uint32_t len, char* out, uint32_t* out_len);

  /// File size in bytes.
  uint64_t size() const { return file_->Size(); }

  /// Binds the caller's deadline/cancellation context to subsequent reads:
  /// every window refill checks it before touching the device and its retry
  /// backoffs never sleep past the deadline. `ctx` is borrowed, not owned —
  /// it must outlive the binding; pass nullptr to unbind.
  void SetContext(const QueryContext* ctx) { context_ = ctx; }

 private:
  /// Loads the window so that it starts at `pos`. `sequential` controls
  /// whether the move is billed as a continued scan or as a seek;
  /// `full_window` loads the whole scan buffer even on a seek (used by the
  /// disk-seek optimization, which continues a scan after the skip).
  Status Refill(uint64_t pos, bool sequential, bool full_window = true);

  /// Moves the window of a scan so that it holds `pos`, which it does not
  /// hold yet: skips or reads through the gap (Section 4.4's seek
  /// optimization). Leaves an empty window at end-of-file.
  Status MoveWindowTo(uint64_t pos);

  bool InWindow(uint64_t pos) const {
    return has_window_ && pos >= buffer_start_ &&
           pos < buffer_start_ + buffer_len_;
  }

  std::unique_ptr<RandomAccessFile> file_;
  StringReaderOptions options_;
  IoStats* stats_;
  /// Borrowed per-query context (see SetContext); nullptr = unbounded.
  const QueryContext* context_ = nullptr;

  std::vector<char> buffer_;
  uint64_t buffer_start_ = 0;  // file offset of buffer_[0]
  uint64_t buffer_len_ = 0;    // valid bytes in buffer_
  bool has_window_ = false;
  uint64_t scan_pos_ = 0;      // last requested position in this scan
};

template <typename Sink>
Status StringReader::FetchSpans(uint64_t pos, uint64_t len, Sink&& sink) {
  if (pos < scan_pos_) {
    return Status::InvalidArgument(
        "Fetch position moved backwards within a scan");
  }
  scan_pos_ = pos;
  const uint64_t size = file_->Size();
  const uint64_t end = pos + std::min(len, size - std::min(pos, size));
  uint64_t cur = pos;
  while (cur < end) {
    if (!InWindow(cur)) {
      ERA_RETURN_NOT_OK(MoveWindowTo(cur));
      if (buffer_len_ == 0) break;  // EOF
    }
    const uint64_t take = std::min(end, buffer_start_ + buffer_len_) - cur;
    sink(cur - pos, std::span<const char>(
                        buffer_.data() + (cur - buffer_start_), take));
    cur += take;
  }
  return Status::OK();
}

template <typename Sink>
Status StringReader::FetchBatch(std::span<const FetchRequest> requests,
                                Sink&& sink) {
  if (stats_ != nullptr) {
    ++stats_->fetch_batches;
    stats_->batched_requests += requests.size();
  }
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const FetchRequest& request = requests[r];
    if (request.pos < scan_pos_) {
      return Status::InvalidArgument(
          "FetchBatch request stream is not sorted by position");
    }
    scan_pos_ = request.pos;
    if (InWindow(request.pos)) {
      const uint64_t window_end = buffer_start_ + buffer_len_;
      // Fast path: runs of adjacent and overlapping windows land in the
      // resident buffer.
      if (request.pos + request.len <= window_end) {
        sink(r, uint64_t{0},
             std::span<const char>(
                 buffer_.data() + (request.pos - buffer_start_),
                 request.len));
        continue;
      }
      // A request that runs past the window's end, when the next request
      // starts before that end, reloads the window at its own start (a
      // seek): it arrives whole and the next one stays resident, where
      // continuing at the window's end would make the next one seek back
      // and reload. Otherwise the scan continues at the window's end, as
      // does a request longer than the window or one the window already
      // holds up to EOF, served in pieces below.
      if (request.len <= buffer_.size() && window_end < file_->Size() &&
          r + 1 < requests.size() && requests[r + 1].pos < window_end) {
        ERA_RETURN_NOT_OK(Refill(request.pos, /*sequential=*/false));
        sink(r, uint64_t{0},
             std::span<const char>(
                 buffer_.data(),
                 std::min<uint64_t>(request.len, buffer_len_)));
        continue;
      }
    }
    ERA_RETURN_NOT_OK(FetchSpans(
        request.pos, request.len,
        [&](uint64_t offset, std::span<const char> piece) {
          sink(r, offset, piece);
        }));
  }
  return Status::OK();
}

/// Opens `path` from `env` and wraps it in a StringReader.
StatusOr<std::unique_ptr<StringReader>> OpenStringReader(
    Env* env, const std::string& path, const StringReaderOptions& options,
    IoStats* stats);

}  // namespace era

#endif  // ERA_IO_STRING_READER_H_
