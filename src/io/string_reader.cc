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
  if (options_.buffer_bytes < 4096) options_.buffer_bytes = 4096;
  buffer_.resize(options_.buffer_bytes);
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

PrefetchingStringReader::PrefetchingStringReader(
    std::unique_ptr<RandomAccessFile> file, const StringReaderOptions& options,
    IoStats* stats)
    : StringReader(std::move(file), options, stats) {
  ring_.resize(std::max<uint32_t>(1, options_.prefetch_depth));
  for (Slot& slot : ring_) slot.data.resize(buffer_.size());
  thread_ = std::thread([this] { PrefetchLoop(); });
}

PrefetchingStringReader::~PrefetchingStringReader() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // Bill reads the consumer never synchronized on (e.g. the speculative
  // windows past the last refill of a scan) — they did hit the device.
  if (stats_ != nullptr) stats_->Add(background_io_);
}

int PrefetchingStringReader::FreeSlotLocked() const {
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    if (!ring_[i].valid && !ring_[i].pending) return static_cast<int>(i);
  }
  return -1;
}

uint32_t PrefetchingStringReader::LiveCountLocked() const {
  uint32_t live = 0;
  for (const Slot& slot : ring_) {
    if (slot.valid || slot.pending) ++live;
  }
  return live;
}

void PrefetchingStringReader::FoldBackgroundIoLocked() {
  if (stats_ != nullptr) {
    stats_->Add(background_io_);
    background_io_ = IoStats();
  }
}

void PrefetchingStringReader::IssueSpeculationLocked() {
  bool issued = false;
  while (spec_armed_ && next_spec_pos_ < file_->Size()) {
    const int s = FreeSlotLocked();
    if (s < 0) break;
    Slot& slot = ring_[static_cast<std::size_t>(s)];
    slot.pending = true;
    slot.start = next_spec_pos_;
    slot.issued_with_live = LiveCountLocked() - 1;  // everyone but this slot
    next_spec_pos_ += slot.data.size();
    issue_queue_.push_back(s);
    issued = true;
  }
  if (issued) cv_.notify_all();
}

void PrefetchingStringReader::PrefetchLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return shutdown_ || !issue_queue_.empty(); });
    if (shutdown_) return;
    const int s = issue_queue_.front();
    issue_queue_.erase(issue_queue_.begin());
    Slot& slot = ring_[static_cast<std::size_t>(s)];
    const uint64_t pos = slot.start;
    lock.unlock();
    std::size_t got = 0;
    uint64_t retries = 0;
    Status status = RunWithRetry(
        options_.retry,
        [&] {
          return file_->ReadAt(pos, slot.data.size(), slot.data.data(), &got);
        },
        &retries);
    lock.lock();
    background_io_.read_retries += retries;
    if (status.ok()) {
      slot.len = got;
      slot.valid = got > 0;
      if (options_.tile_cache != nullptr) {
        background_io_.cache_served_bytes += got;
      } else {
        background_io_.bytes_read += got;
      }
      background_io_.prefetched_bytes += got;
      ++background_io_.sequential_refills;
    } else {
      background_status_ = status;
      slot.valid = false;
      spec_armed_ = false;  // stop speculating until the consumer resolves it
    }
    slot.pending = false;
    cv_.notify_all();
  }
}

Status PrefetchingStringReader::Refill(uint64_t pos, bool sequential,
                                       bool full_window) {
  if (!sequential || !full_window) {
    // Random repositionings (including seek-optimization skips) keep the
    // base path. Background reads only touch ring slots, so they may
    // proceed concurrently; their windows stay valid for when the
    // interrupted scan resumes. A skip also breaks the streak that re-arms
    // a paused speculation.
    recovery_refills_ = 0;
    return StringReader::Refill(pos, sequential, full_window);
  }
  // Same boundary as the base Refill: a ring hit is still a refill, and the
  // wait on an in-flight slot below should not start for a dead query.
  if (context_ != nullptr) ERA_RETURN_NOT_OK(context_->Check());
  std::unique_lock<std::mutex> lock(mu_);
  FoldBackgroundIoLocked();
  if (!background_status_.ok()) {
    // The speculation failed, but this refill may target a readable
    // window the algorithm actually needs — treat it as a miss and let
    // the foreground read's own status decide. A real device error still
    // fails fast below.
    background_status_ = Status::OK();
    for (Slot& slot : ring_) {
      if (!slot.pending) slot.valid = false;
    }
  }
  // Serve from the ring: wait out an in-flight read of the target window
  // (the wait is exactly the device overlap the hit measures).
  int found = -1;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const Slot& slot = ring_[i];
    const uint64_t end =
        slot.start + (slot.pending ? slot.data.size() : slot.len);
    if ((slot.valid || slot.pending) && pos >= slot.start && pos < end) {
      found = static_cast<int>(i);
      break;
    }
  }
  if (found >= 0 && ring_[static_cast<std::size_t>(found)].pending) {
    Slot& slot = ring_[static_cast<std::size_t>(found)];
    cv_.wait(lock, [&slot] { return !slot.pending; });
    FoldBackgroundIoLocked();
    if (!slot.valid || pos >= slot.start + slot.len) found = -1;
    background_status_ = Status::OK();  // a short/failed read falls through
  }
  if (found >= 0) {
    Slot& slot = ring_[static_cast<std::size_t>(found)];
    std::swap(buffer_, slot.data);
    buffer_start_ = slot.start;
    buffer_len_ = slot.len;
    has_window_ = true;
    slot.valid = false;
    wasted_speculations_ = 0;
    recovery_refills_ = 0;
    if (stats_ != nullptr) {
      ++stats_->prefetch_hits;
      if (slot.issued_with_live > 0) ++stats_->prefetch_depth_hits;
    }
    // Windows entirely behind the scan can never be consumed now; free
    // their slots so the ring keeps speculating ahead.
    for (Slot& stale : ring_) {
      if (stale.valid && stale.start + stale.len <= pos) stale.valid = false;
    }
    spec_armed_ = true;
    IssueSpeculationLocked();
    return Status::OK();
  }

  // Miss: the scan went somewhere the ring did not speculate. Completed
  // windows are wasted; discard them, and cancel issued-but-unstarted reads
  // (a read already in flight finishes and is swept as stale later).
  bool wasted = false;
  for (Slot& slot : ring_) {
    if (slot.valid) {
      slot.valid = false;
      wasted = true;
    }
  }
  for (int s : issue_queue_) {
    ring_[static_cast<std::size_t>(s)].pending = false;
  }
  issue_queue_.clear();
  if (wasted) ++wasted_speculations_;
  spec_armed_ = false;
  lock.unlock();
  ERA_RETURN_NOT_OK(StringReader::Refill(pos, sequential, full_window));
  if (stats_ != nullptr) ++stats_->prefetch_misses;
  bool speculate = true;
  if (wasted_speculations_ >= kMaxWastedSpeculations) {
    // Sparse scan: stop burning bandwidth on windows the skips jump over
    // until the pattern proves sequential again.
    if (++recovery_refills_ >= kRecoveryRefills) {
      wasted_speculations_ = 0;
      recovery_refills_ = 0;
    } else {
      speculate = false;
    }
  }
  if (!speculate) return Status::OK();
  lock.lock();
  if (buffer_len_ > 0 && buffer_start_ + buffer_len_ < file_->Size()) {
    next_spec_pos_ = buffer_start_ + buffer_len_;
    spec_armed_ = true;
    IssueSpeculationLocked();
  }
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
  if (options.prefetch) {
    return std::unique_ptr<StringReader>(
        new PrefetchingStringReader(std::move(file), options, stats));
  }
  return std::make_unique<StringReader>(std::move(file), options, stats);
}

}  // namespace era
