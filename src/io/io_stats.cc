#include "io/io_stats.h"

#include <sstream>

namespace era {

std::string IoStats::ToString() const {
  std::ostringstream os;
  os << "read=" << bytes_read << "B written=" << bytes_written
     << "B seq_refills=" << sequential_refills << " seeks=" << seeks
     << " skipped=" << bytes_skipped << "B scans=" << scans_started
     << " batches=" << fetch_batches << " batched_reqs=" << batched_requests
     << " prefetch_hits=" << prefetch_hits
     << " prefetch_misses=" << prefetch_misses
     << " prefetch_depth_hits=" << prefetch_depth_hits
     << " prefetched=" << prefetched_bytes << "B"
     << " cache_served=" << cache_served_bytes << "B"
     << " tile_hits=" << tile_hits << " tile_misses=" << tile_misses
     << " tile_device=" << tile_device_bytes << "B"
     << " tile_evicted=" << tile_evicted_bytes << "B"
     << " cache_hits=" << cache_hits << " cache_misses=" << cache_misses
     << " cache_evicted=" << cache_evicted_bytes << "B"
     << " read_retries=" << read_retries;
  return os.str();
}

const std::vector<IoStatsField>& IoStatsFields() {
  static const std::vector<IoStatsField>* fields = new std::vector<IoStatsField>{
      {"era_io_bytes_read_total", "Bytes transferred from the device",
       &IoStats::bytes_read},
      {"era_io_bytes_written_total", "Bytes written (sub-trees, temporaries)",
       &IoStats::bytes_written},
      {"era_io_sequential_refills_total",
       "Buffer refills that continued sequentially",
       &IoStats::sequential_refills},
      {"era_io_seeks_total", "Random repositionings (disk seeks)",
       &IoStats::seeks},
      {"era_io_bytes_skipped_total",
       "Bytes skipped via the disk-seek optimization", &IoStats::bytes_skipped},
      {"era_io_scans_started_total", "Full input passes started",
       &IoStats::scans_started},
      {"era_io_fetch_batches_total", "FetchBatch calls",
       &IoStats::fetch_batches},
      {"era_io_batched_requests_total",
       "Individual requests served through batched fetches",
       &IoStats::batched_requests},
      {"era_io_prefetch_hits_total",
       "Refills served from a completed background prefetch",
       &IoStats::prefetch_hits},
      {"era_io_prefetch_misses_total",
       "Refills that went to the device despite prefetching",
       &IoStats::prefetch_misses},
      {"era_io_prefetch_depth_hits_total",
       "Prefetch hits only a depth > 1 ring can produce",
       &IoStats::prefetch_depth_hits},
      {"era_io_prefetched_bytes_total",
       "Bytes transferred by background prefetch reads",
       &IoStats::prefetched_bytes},
      {"era_io_cache_served_bytes_total",
       "Reader bytes served out of a shared tile cache",
       &IoStats::cache_served_bytes},
      {"era_io_tile_hits_total", "Tile-cache lookups served from residency",
       &IoStats::tile_hits},
      {"era_io_tile_misses_total",
       "Tile-cache lookups that loaded from the device", &IoStats::tile_misses},
      {"era_io_tile_device_bytes_total",
       "Bytes the tile cache transferred from the device on misses",
       &IoStats::tile_device_bytes},
      {"era_io_tile_evicted_bytes_total",
       "Resident tile bytes dropped by budget evictions",
       &IoStats::tile_evicted_bytes},
      {"era_io_cache_hits_total",
       "Sub-tree opens served from the in-memory cache", &IoStats::cache_hits},
      {"era_io_cache_misses_total",
       "Sub-tree opens that loaded the file from the device",
       &IoStats::cache_misses},
      {"era_io_cache_evicted_bytes_total",
       "Cached sub-tree bytes dropped by LRU budget evictions",
       &IoStats::cache_evicted_bytes},
      {"era_io_read_retries_total",
       "Transiently failed device reads re-issued by a RetryPolicy",
       &IoStats::read_retries},
  };
  return *fields;
}

}  // namespace era
