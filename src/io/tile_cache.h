// Shared read-through tile cache over the input string.
//
// ERA's premise is that S does not fit in memory, so the horizontal phase
// re-streams it once per group per prepare round — BENCH_era.json's committed
// record prices that at ~1000x I/O amplification (device bytes read / text
// bytes). Most of that traffic is the *same* tiles over and over: every
// group's occurrence scan walks the whole file and consecutive prepare rounds
// revisit almost the same positions. The TileCache turns that repetition into
// memory hits: one process-wide, byte-budgeted cache of fixed-size tiles,
// shared by every worker, fed through the thread-safe
// RandomAccessFile::ReadAt hook.
//
// Design points (see README "I/O anatomy"):
//   * Sharded LRU with shared_ptr pinning, in the style of the sub-tree
//     cache (suffixtree/tree_index.h): lookups lock only their shard, device
//     loads run outside any lock, and a tile handed to a reader stays valid
//     even if the budget evicts it mid-copy.
//   * Scan-resistant admission: a cyclic scan of a file larger than the
//     budget is LRU's worst case (every hit-to-be is evicted moments before
//     its reuse). Eviction is therefore gated on proven reuse — a resident
//     tile that has been touched more than once since the last aging sweep
//     is never evicted for a first-time tile; the newcomer is served straight
//     from the device instead (a "bypass"). The resident set freezes onto a
//     stable prefix of the scan cycle, converting that fraction of every
//     subsequent pass into hits. Periodic count-halving lets the set rotate
//     if the workload genuinely shifts.
//   * The cache owns the device accounting: misses bill device bytes into
//     the cache's counters, and cache-backed readers bill
//     IoStats::cache_served_bytes instead of bytes_read, so
//     BuildStats::io_amplification stays an honest device-traffic ratio.

#ifndef ERA_IO_TILE_CACHE_H_
#define ERA_IO_TILE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/query_context.h"
#include "common/status.h"
#include "io/env.h"
#include "io/retry_policy.h"

namespace era {

/// Tuning knobs for one TileCache.
struct TileCacheOptions {
  /// Total bytes of resident tile data across all shards. A shard evicts
  /// (or bypasses) once it exceeds its share, but always keeps at least one
  /// resident tile so a budget smaller than one tile still caches.
  uint64_t budget_bytes = 8ull << 20;
  /// Tile size in bytes. Must be a power of two >= 4 KiB. 128 KiB default:
  /// coarse enough that per-tile overhead vanishes, fine enough that a
  /// budget a few MB short of the file still keeps ~90% of it resident.
  uint32_t tile_bytes = 128u << 10;
  /// Independently locked shards (tile index modulo shards, so neighboring
  /// tiles of one sequential scan land in different shards).
  uint32_t shards = 8;
  /// Transient device-read faults (IOError only) under cache loads and
  /// bypass reads are retried with exponential backoff; absorbed retries
  /// show up in Snapshot::read_retries.
  RetryPolicy retry;
};

/// One cached tile. `data.size()` is the valid length (short only for the
/// tile containing end-of-file).
struct CachedTile {
  std::vector<char> data;
};

/// Process-wide cache of fixed-size tiles of one file. Thread-safe: any
/// number of workers may call GetTile/ReadAt concurrently.
class TileCache {
 public:
  /// Opens `path` from `env` and snapshots its size. The file must outlive
  /// nothing — the cache owns its handle.
  static StatusOr<std::shared_ptr<TileCache>> Open(
      Env* env, const std::string& path, const TileCacheOptions& options);

  /// Returns tile `index` (file bytes [index*tile, (index+1)*tile)),
  /// loading it from the device on a miss. The shared_ptr pins the bytes:
  /// eviction drops a tile from the cache but never invalidates a pinned
  /// copy. Indexes at or past end-of-file return an empty tile. `ctx` (may
  /// be null) is the caller's deadline/cancellation context, checked before
  /// a miss touches the device and threaded into the retry backoffs.
  StatusOr<std::shared_ptr<const CachedTile>> GetTile(
      uint64_t index, const QueryContext* ctx = nullptr);

  /// Read-through positional read (pread semantics, short at end-of-file).
  /// Spans tile boundaries transparently. `ctx` (may be null) is checked at
  /// each tile boundary — a multi-tile read abandons between tiles, never
  /// mid-copy.
  Status ReadAt(uint64_t offset, std::size_t n, char* scratch,
                std::size_t* out_n, const QueryContext* ctx = nullptr);

  /// Drops every resident tile (not counted as LRU evictions). Pinned tiles
  /// stay valid for their holders.
  void EvictAll();

  uint64_t file_size() const { return file_size_; }
  uint32_t tile_bytes() const { return options_.tile_bytes; }
  const std::string& path() const { return path_; }

  /// Point-in-time totals across shards.
  struct Snapshot {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t device_bytes_read = 0;
    uint64_t evictions = 0;
    uint64_t evicted_bytes = 0;
    /// Misses served from the device without admission (the would-be victim
    /// had proven reuse; see the scan-resistance note above).
    uint64_t bypasses = 0;
    /// Transient device-read faults absorbed by the retry policy.
    uint64_t read_retries = 0;
    uint64_t resident_bytes = 0;
    uint64_t resident_tiles = 0;
  };
  Snapshot stats() const;

 private:
  TileCache(std::unique_ptr<RandomAccessFile> file, std::string path,
            const TileCacheOptions& options);

  struct Shard {
    mutable std::mutex mutex;
    /// Most-recently-used at the front.
    std::list<uint64_t> lru;
    struct Entry {
      std::shared_ptr<const CachedTile> tile;
      std::list<uint64_t>::iterator pos;
      /// Touches since the last aging sweep; eviction requires <= 1.
      uint32_t access_count = 0;
    };
    std::unordered_map<uint64_t, Entry> entries;
    uint64_t resident_bytes = 0;
    uint64_t lookup_tick = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t evicted_bytes = 0;
    uint64_t bypasses = 0;
  };

  Shard& ShardFor(uint64_t index) {
    return shards_[index % shards_.size()];
  }
  /// Halves every access count once enough lookups have passed; called with
  /// the shard lock held. Keeps the frozen resident set rotatable.
  void AgeLocked(Shard* shard);
  /// Whether the admission policy could make room for `bytes` of tile
  /// `index` without mutating anything (the pre-load decision). Caller
  /// holds the shard lock.
  bool RoomPossibleLocked(const Shard& shard, uint64_t index,
                          uint64_t bytes) const;
  /// Evicts what the admission policy allows to make room for `bytes` of
  /// tile `index`; returns whether the tile may be admitted. Only called
  /// after a successful device load. Caller holds the shard lock.
  bool MakeRoomLocked(Shard* shard, uint64_t index, uint64_t bytes);
  /// Reads tile `index` from the device; inserts it when `admit` (subject
  /// to a re-check against racing inserts).
  StatusOr<std::shared_ptr<const CachedTile>> LoadAndMaybeAdmit(
      uint64_t index, bool admit, const QueryContext* ctx);

  std::unique_ptr<RandomAccessFile> file_;
  const std::string path_;
  const TileCacheOptions options_;
  const uint64_t file_size_;
  const uint64_t per_shard_budget_;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> device_bytes_read_{0};
  std::atomic<uint64_t> read_retries_{0};
};

/// RandomAccessFile adapter serving all reads through `cache` (both Read and
/// ReadAt — the adapter is stateless, so either is safe from any thread).
/// Lets a StringReader become cache-backed without changing its refill
/// logic.
std::unique_ptr<RandomAccessFile> NewCachedFile(
    std::shared_ptr<TileCache> cache);

}  // namespace era

#endif  // ERA_IO_TILE_CACHE_H_
