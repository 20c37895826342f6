// I/O instrumentation and the disk cost model.
//
// Every builder reads the input string through readers that tally their
// accesses into an IoStats. Benchmarks report both measured wall time and the
// "modeled disk time" obtained by pricing the recorded events with a
// DiskModel. This is the repository's documented substitution for the paper's
// disk-bound testbed: at laptop scale the OS page cache hides most I/O
// latency, so modeled time restores the I/O-bound component of the shapes the
// paper measures (see DESIGN.md §4).

#ifndef ERA_IO_IO_STATS_H_
#define ERA_IO_IO_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace era {

/// Counters for the disk traffic of one builder (or one thread of one).
struct IoStats {
  /// Bytes actually transferred from the input string file.
  uint64_t bytes_read = 0;
  /// Bytes written (serialized sub-trees, temporaries).
  uint64_t bytes_written = 0;
  /// Number of buffer refills that continued sequentially.
  uint64_t sequential_refills = 0;
  /// Number of random repositionings (disk seeks).
  uint64_t seeks = 0;
  /// Bytes skipped over via the disk-seek optimization (Section 4.4).
  uint64_t bytes_skipped = 0;
  /// Number of full passes over the input string that were started.
  uint64_t scans_started = 0;
  /// Number of FetchBatch calls issued.
  uint64_t fetch_batches = 0;
  /// Total individual requests served through batched fetches.
  uint64_t batched_requests = 0;
  /// Sequential window refills served from a completed background prefetch
  /// (the device wait overlapped with compute; see PrefetchingStringReader).
  uint64_t prefetch_hits = 0;
  /// Sequential window refills that went to the device in the foreground
  /// even though prefetching was enabled (first window of a scan, or the
  /// scan jumped outside the predicted next window).
  uint64_t prefetch_misses = 0;
  /// Prefetch hits on windows that were issued while other speculative
  /// windows were still live in the ring — hits only a prefetch depth > 1
  /// can produce (see StringReaderOptions::prefetch_depth).
  uint64_t prefetch_depth_hits = 0;
  /// Bytes transferred by background prefetch reads. For a device-backed
  /// reader these are counted into bytes_read as well (real device traffic,
  /// just issued off the consuming thread); for a cache-backed reader they
  /// count into cache_served_bytes instead.
  uint64_t prefetched_bytes = 0;
  /// Reader bytes served out of a shared TileCache (memory copies; the
  /// cache bills the underlying device traffic into tile_device_bytes).
  uint64_t cache_served_bytes = 0;
  /// Tile-cache lookups served from resident tiles (no device traffic).
  uint64_t tile_hits = 0;
  /// Tile-cache lookups that loaded the tile from the device.
  uint64_t tile_misses = 0;
  /// Bytes the tile cache transferred from the device on misses. The
  /// builders fold this into bytes_read as well, so bytes_read stays the
  /// single honest device-read total; this field keeps the attribution.
  uint64_t tile_device_bytes = 0;
  /// Bytes of resident tiles dropped by tile-cache budget evictions.
  uint64_t tile_evicted_bytes = 0;
  /// Sub-tree opens served from the in-memory cache (no device traffic).
  uint64_t cache_hits = 0;
  /// Sub-tree opens that had to load the file from the device.
  uint64_t cache_misses = 0;
  /// Bytes of cached sub-trees dropped by LRU budget evictions (explicit
  /// EvictCache sweeps are not counted; see TreeIndex).
  uint64_t cache_evicted_bytes = 0;
  /// Device reads that failed transiently and were re-issued by a
  /// RetryPolicy. A nonzero count with a successful run means faults were
  /// absorbed, not ignored.
  uint64_t read_retries = 0;

  /// Accumulates `other` into this (for aggregating per-thread stats).
  void Add(const IoStats& other) {
    bytes_read += other.bytes_read;
    bytes_written += other.bytes_written;
    sequential_refills += other.sequential_refills;
    seeks += other.seeks;
    bytes_skipped += other.bytes_skipped;
    scans_started += other.scans_started;
    fetch_batches += other.fetch_batches;
    batched_requests += other.batched_requests;
    prefetch_hits += other.prefetch_hits;
    prefetch_misses += other.prefetch_misses;
    prefetch_depth_hits += other.prefetch_depth_hits;
    prefetched_bytes += other.prefetched_bytes;
    cache_served_bytes += other.cache_served_bytes;
    tile_hits += other.tile_hits;
    tile_misses += other.tile_misses;
    tile_device_bytes += other.tile_device_bytes;
    tile_evicted_bytes += other.tile_evicted_bytes;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    cache_evicted_bytes += other.cache_evicted_bytes;
    read_retries += other.read_retries;
  }

  std::string ToString() const;
};

/// One IoStats field described for the metrics registry: exported metric
/// name, help text, and the member it reads. The table (IoStatsFields) is
/// the single source of truth for folding an IoStats into registry counters
/// and for materializing the IoStats snapshot back out of them — adding a
/// field here wires it through export automatically.
struct IoStatsField {
  const char* name;
  const char* help;
  uint64_t IoStats::*member;
};

/// All IoStats fields, in declaration order.
const std::vector<IoStatsField>& IoStatsFields();

/// Prices IoStats events as a conventional spinning disk would.
struct DiskModel {
  /// Sequential transfer bandwidth in bytes/second (default 100 MB/s).
  double sequential_bytes_per_second = 100.0 * 1024 * 1024;
  /// Cost of one random repositioning in seconds (default 8 ms).
  double seek_seconds = 0.008;

  /// Disk time the recorded events would take on the modeled device.
  double ModeledSeconds(const IoStats& stats) const {
    double xfer = static_cast<double>(stats.bytes_read + stats.bytes_written) /
                  sequential_bytes_per_second;
    double seek = static_cast<double>(stats.seeks) * seek_seconds;
    return xfer + seek;
  }
};

}  // namespace era

#endif  // ERA_IO_IO_STATS_H_
