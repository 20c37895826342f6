#include "io/string_reader.h"

#include <algorithm>
#include <cstring>

#include "common/metrics.h"

namespace era {

namespace {

/// memcpy for the batched fast path: writes exactly `len` bytes with two
/// overlapped word stores instead of a size-dispatched memcpy call. The
/// SubTreePrepare request stream is millions of 4..64-byte copies; the
/// dispatch overhead is measurable there.
inline void CopySmall(char* dst, const char* src, uint32_t len) {
  if (len >= 8) {
    if (len <= 16) {
      uint64_t head, tail;
      std::memcpy(&head, src, 8);
      std::memcpy(&tail, src + len - 8, 8);
      std::memcpy(dst, &head, 8);
      std::memcpy(dst + len - 8, &tail, 8);
      return;
    }
    std::memcpy(dst, src, len);
    return;
  }
  if (len >= 4) {
    uint32_t head, tail;
    std::memcpy(&head, src, 4);
    std::memcpy(&tail, src + len - 4, 4);
    std::memcpy(dst, &head, 4);
    std::memcpy(dst + len - 4, &tail, 4);
    return;
  }
  for (uint32_t i = 0; i < len; ++i) dst[i] = src[i];
}

}  // namespace

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

Status StringReader::Fetch(uint64_t pos, uint32_t len, char* out,
                           uint32_t* out_len) {
  if (pos < scan_pos_) {
    return Status::InvalidArgument(
        "Fetch position moved backwards within a scan");
  }
  scan_pos_ = pos;
  return FetchInto(pos, len, out, out_len);
}

Status StringReader::FetchInto(uint64_t pos, uint32_t len, char* out,
                               uint32_t* out_len) {
  uint32_t written = 0;
  uint64_t cur = pos;
  while (written < len && cur < file_->Size()) {
    bool in_window = has_window_ && cur >= buffer_start_ &&
                     cur < buffer_start_ + buffer_len_;
    if (!in_window) {
      uint64_t window_end = has_window_ ? buffer_start_ + buffer_len_ : 0;
      if (has_window_ && cur >= window_end) {
        uint64_t gap = cur - window_end;
        if (options_.seek_optimization && gap >= options_.skip_threshold_bytes) {
          // Skip the gap with a short seek instead of reading through it.
          // A device-backed reader loads a full window (the scan continues
          // and the next actives amortize it — Section 4.4); a cache-backed
          // reader loads a small one instead: on sparse rounds each skip
          // landing in a non-resident tile would otherwise bypass-read a
          // full window from the device, while re-refilling out of resident
          // tiles costs only a memcpy.
          if (stats_ != nullptr) stats_->bytes_skipped += gap;
          ERA_RETURN_NOT_OK(Refill(cur, /*sequential=*/false,
                                   /*full_window=*/options_.tile_cache ==
                                       nullptr));
        } else {
          // Read through: the scan continues sequentially; intermediate
          // blocks are fetched (and billed) even though they are unneeded.
          uint64_t next = window_end;
          while (next + buffer_.size() <= cur) {
            ERA_RETURN_NOT_OK(Refill(next, /*sequential=*/true));
            next = buffer_start_ + buffer_len_;
            if (buffer_len_ == 0) break;  // EOF guard
          }
          ERA_RETURN_NOT_OK(Refill(cur, /*sequential=*/true));
        }
      } else {
        // First access of this reader, or a position before the window (only
        // possible right after BeginScan rewound): treat as a fresh
        // positioning.
        ERA_RETURN_NOT_OK(Refill(cur, /*sequential=*/!has_window_));
      }
      if (buffer_len_ == 0) break;  // EOF
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

Status StringReader::FetchBatch(std::span<FetchRequest> requests) {
  if (stats_ != nullptr) {
    ++stats_->fetch_batches;
    stats_->batched_requests += requests.size();
  }
  for (FetchRequest& request : requests) {
    if (request.pos < scan_pos_) {
      return Status::InvalidArgument(
          "FetchBatch request stream is not sorted by position");
    }
    scan_pos_ = request.pos;
    // Coalesced fast path: runs of adjacent and overlapping windows land in
    // the resident buffer, where each request is one bounds check and one
    // small copy.
    if (has_window_ && request.pos >= buffer_start_ &&
        request.pos + request.len <= buffer_start_ + buffer_len_) {
      CopySmall(request.out, buffer_.data() + (request.pos - buffer_start_),
                request.len);
      request.got = request.len;
      continue;
    }
    ERA_RETURN_NOT_OK(
        FetchInto(request.pos, request.len, request.out, &request.got));
  }
  return Status::OK();
}

Status StringReader::RandomFetch(uint64_t pos, uint32_t len, char* out,
                                 uint32_t* out_len) {
  uint32_t written = 0;
  uint64_t cur = pos;
  while (written < len && cur < file_->Size()) {
    bool in_window = has_window_ && cur >= buffer_start_ &&
                     cur < buffer_start_ + buffer_len_;
    if (!in_window) {
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
