#include "io/string_reader.h"

#include <algorithm>
#include <cstring>

#include "common/metrics.h"

namespace era {

StringReader::StringReader(std::unique_ptr<RandomAccessFile> file,
                           const StringReaderOptions& options, IoStats* stats)
    : file_(std::move(file)), options_(options), stats_(stats) {
  const uint64_t window = std::max<uint64_t>(options_.buffer_bytes, 4096);
  buffer_.resize(std::max<uint64_t>(1, std::min(window, file_->Size())));
}

void StringReader::BeginScan(uint64_t start_pos) {
  scan_pos_ = start_pos;
  if (stats_ != nullptr) ++stats_->scans_started;
  // The window itself is kept: if the new scan starts inside it we can serve
  // without touching the device.
}

Status StringReader::Refill(uint64_t pos, bool sequential,
                            bool full_window) {
  // The device-read boundary: an expired or cancelled query abandons here,
  // before issuing the next window, never mid-transfer.
  if (context_ != nullptr) ERA_RETURN_NOT_OK(context_->Check());
  std::size_t want = buffer_.size();
  if (!sequential && !full_window) {
    want = std::min<std::size_t>(want, options_.random_window_bytes);
  }
  std::size_t got = 0;
  uint64_t retries = 0;
  // Traced queries record each window transfer as a span; `note`
  // distinguishes sequential refills from random repositionings.
  TraceSpan span(context_ != nullptr ? context_->trace : nullptr,
                 "device_read");
  span.set_note(sequential ? "sequential" : "random");
  ERA_RETURN_NOT_OK(RunWithRetry(
      options_.retry, context_,
      [&] { return file_->Read(pos, want, buffer_.data(), &got); },
      &retries));
  if (stats_ != nullptr) {
    stats_->read_retries += retries;
    // A cache-backed reader copies from resident tiles, not the device; the
    // TileCache bills the device bytes its misses actually transfer.
    if (options_.tile_cache != nullptr) {
      stats_->cache_served_bytes += got;
    } else {
      stats_->bytes_read += got;
    }
    if (sequential || options_.bill_random_as_sequential) {
      ++stats_->sequential_refills;
    } else {
      ++stats_->seeks;
    }
  }
  buffer_start_ = pos;
  buffer_len_ = got;
  has_window_ = true;
  return Status::OK();
}

Status StringReader::MoveWindowTo(uint64_t cur) {
  const uint64_t window_end = has_window_ ? buffer_start_ + buffer_len_ : 0;
  if (!has_window_ || cur < window_end) {
    // First access of this reader, or a position before the window (only
    // possible right after BeginScan rewound): treat as a fresh
    // positioning.
    return Refill(cur, /*sequential=*/!has_window_);
  }
  const uint64_t gap = cur - window_end;
  if (options_.seek_optimization && gap >= options_.skip_threshold_bytes) {
    // Skip the gap with a short seek instead of reading through it. A
    // device-backed reader loads a full window (the scan continues and the
    // next actives amortize it — Section 4.4); a cache-backed reader loads
    // a small one instead: on sparse rounds each skip landing in a
    // non-resident tile would otherwise bypass-read a full window from the
    // device, while re-refilling out of resident tiles costs only a memcpy.
    if (stats_ != nullptr) stats_->bytes_skipped += gap;
    return Refill(cur, /*sequential=*/false,
                  /*full_window=*/options_.tile_cache == nullptr);
  }
  // Read through: the scan continues sequentially; intermediate blocks are
  // fetched (and billed) even though they are unneeded.
  uint64_t next = window_end;
  while (next + buffer_.size() <= cur) {
    ERA_RETURN_NOT_OK(Refill(next, /*sequential=*/true));
    next = buffer_start_ + buffer_len_;
    if (buffer_len_ == 0) break;  // EOF guard
  }
  return Refill(cur, /*sequential=*/true);
}

Status StringReader::Fetch(uint64_t pos, uint32_t len, char* out,
                           uint32_t* out_len) {
  uint64_t written = 0;
  ERA_RETURN_NOT_OK(
      FetchSpans(pos, len, [&](uint64_t offset, std::span<const char> piece) {
        std::memcpy(out + offset, piece.data(), piece.size());
        written = offset + piece.size();
      }));
  *out_len = static_cast<uint32_t>(written);
  return Status::OK();
}

Status StringReader::RandomFetch(uint64_t pos, uint32_t len, char* out,
                                 uint32_t* out_len) {
  uint32_t written = 0;
  uint64_t cur = pos;
  while (written < len && cur < file_->Size()) {
    if (!InWindow(cur)) {
      ERA_RETURN_NOT_OK(
          Refill(cur, /*sequential=*/false, /*full_window=*/false));
      if (buffer_len_ == 0) break;
    }
    uint64_t offset_in_buffer = cur - buffer_start_;
    uint64_t avail = buffer_len_ - offset_in_buffer;
    uint32_t take = static_cast<uint32_t>(
        std::min<uint64_t>(avail, len - written));
    std::memcpy(out + written, buffer_.data() + offset_in_buffer, take);
    written += take;
    cur += take;
  }
  *out_len = written;
  return Status::OK();
}

StatusOr<std::unique_ptr<StringReader>> OpenStringReader(
    Env* env, const std::string& path, const StringReaderOptions& options,
    IoStats* stats) {
  std::unique_ptr<RandomAccessFile> file;
  if (options.tile_cache != nullptr) {
    if (options.tile_cache->path() != path) {
      return Status::InvalidArgument(
          "tile cache was opened on '" + options.tile_cache->path() +
          "', reader on '" + path + "'");
    }
    file = NewCachedFile(options.tile_cache);
  } else {
    ERA_ASSIGN_OR_RETURN(file, env->OpenRandomAccess(path));
  }
  return std::make_unique<StringReader>(std::move(file), options, stats);
}

}  // namespace era
