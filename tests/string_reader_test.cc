#include "io/string_reader.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "io/mem_env.h"

namespace era {
namespace {

class StringReaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_.resize(1 << 20);
    for (std::size_t i = 0; i < data_.size(); ++i) {
      data_[i] = static_cast<char>('A' + (i % 26));
    }
    ASSERT_TRUE(env_.WriteFile("/s", data_).ok());
  }

  std::unique_ptr<StringReader> Open(const StringReaderOptions& options) {
    auto reader = OpenStringReader(&env_, "/s", options, &stats_);
    EXPECT_TRUE(reader.ok());
    return std::move(*reader);
  }

  MemEnv env_;
  IoStats stats_;
  std::string data_;
};

TEST_F(StringReaderTest, SequentialFetchMatchesContent) {
  StringReaderOptions options;
  options.buffer_bytes = 8192;
  auto reader = Open(options);
  reader->BeginScan();
  char buf[64];
  uint32_t got = 0;
  for (uint64_t pos = 0; pos < 100000; pos += 1000) {
    ASSERT_TRUE(reader->Fetch(pos, 64, buf, &got).ok());
    ASSERT_EQ(got, 64u);
    EXPECT_EQ(std::string(buf, 64), data_.substr(pos, 64));
  }
}

TEST_F(StringReaderTest, BackwardsFetchWithinScanFails) {
  auto reader = Open({});
  reader->BeginScan();
  char buf[8];
  uint32_t got = 0;
  ASSERT_TRUE(reader->Fetch(5000, 8, buf, &got).ok());
  EXPECT_FALSE(reader->Fetch(4000, 8, buf, &got).ok());
}

TEST_F(StringReaderTest, NewScanAllowsRewind) {
  auto reader = Open({});
  reader->BeginScan();
  char buf[8];
  uint32_t got = 0;
  ASSERT_TRUE(reader->Fetch(5000, 8, buf, &got).ok());
  reader->BeginScan();
  ASSERT_TRUE(reader->Fetch(0, 8, buf, &got).ok());
  EXPECT_EQ(std::string(buf, got), data_.substr(0, 8));
  EXPECT_EQ(stats_.scans_started, 2u);
}

TEST_F(StringReaderTest, FetchClampsAtEof) {
  auto reader = Open({});
  reader->BeginScan(data_.size() - 10);
  char buf[64];
  uint32_t got = 0;
  ASSERT_TRUE(reader->Fetch(data_.size() - 10, 64, buf, &got).ok());
  EXPECT_EQ(got, 10u);
  ASSERT_TRUE(reader->Fetch(data_.size() + 5, 64, buf, &got).ok());
  EXPECT_EQ(got, 0u);
}

TEST_F(StringReaderTest, ReadThroughBillsSequentialBytes) {
  StringReaderOptions options;
  options.buffer_bytes = 4096;
  options.seek_optimization = false;
  auto reader = Open(options);
  reader->BeginScan();
  char buf[4];
  uint32_t got = 0;
  ASSERT_TRUE(reader->Fetch(0, 4, buf, &got).ok());
  uint64_t before = stats_.bytes_read;
  // Jump far ahead: without seek optimization, the gap is read through.
  ASSERT_TRUE(reader->Fetch(500000, 4, buf, &got).ok());
  EXPECT_GE(stats_.bytes_read - before, 490000u);
  EXPECT_EQ(stats_.bytes_skipped, 0u);
}

TEST_F(StringReaderTest, SeekOptimizationSkipsGap) {
  StringReaderOptions options;
  options.buffer_bytes = 4096;
  options.seek_optimization = true;
  options.skip_threshold_bytes = 64 << 10;
  auto reader = Open(options);
  reader->BeginScan();
  char buf[4];
  uint32_t got = 0;
  ASSERT_TRUE(reader->Fetch(0, 4, buf, &got).ok());
  uint64_t read_before = stats_.bytes_read;
  uint64_t seeks_before = stats_.seeks;
  ASSERT_TRUE(reader->Fetch(500000, 4, buf, &got).ok());
  EXPECT_EQ(std::string(buf, 4), data_.substr(500000, 4));
  // Only one buffer worth of data fetched; the gap was skipped with a seek.
  EXPECT_LE(stats_.bytes_read - read_before, options.buffer_bytes);
  EXPECT_EQ(stats_.seeks, seeks_before + 1);
  EXPECT_GT(stats_.bytes_skipped, 400000u);
}

TEST_F(StringReaderTest, SmallGapIsReadThroughEvenWithSeekOpt) {
  StringReaderOptions options;
  options.buffer_bytes = 4096;
  options.seek_optimization = true;
  options.skip_threshold_bytes = 64 << 10;
  auto reader = Open(options);
  reader->BeginScan();
  char buf[4];
  uint32_t got = 0;
  ASSERT_TRUE(reader->Fetch(0, 4, buf, &got).ok());
  uint64_t seeks_before = stats_.seeks;
  ASSERT_TRUE(reader->Fetch(10000, 4, buf, &got).ok());  // < threshold
  EXPECT_EQ(stats_.seeks, seeks_before);
  EXPECT_EQ(std::string(buf, 4), data_.substr(10000, 4));
}

TEST_F(StringReaderTest, RandomFetchCountsSeeks) {
  StringReaderOptions options;
  options.buffer_bytes = 4096;
  auto reader = Open(options);
  char buf[16];
  uint32_t got = 0;
  ASSERT_TRUE(reader->RandomFetch(900000, 16, buf, &got).ok());
  EXPECT_EQ(std::string(buf, got), data_.substr(900000, 16));
  uint64_t seeks_after_first = stats_.seeks;
  EXPECT_GE(seeks_after_first, 1u);
  // A second fetch inside the same window is free.
  ASSERT_TRUE(reader->RandomFetch(900100, 16, buf, &got).ok());
  EXPECT_EQ(stats_.seeks, seeks_after_first);
  // Jumping back is another seek.
  ASSERT_TRUE(reader->RandomFetch(100, 16, buf, &got).ok());
  EXPECT_EQ(stats_.seeks, seeks_after_first + 1);
}

TEST_F(StringReaderTest, FetchSpanningBufferBoundary) {
  StringReaderOptions options;
  options.buffer_bytes = 4096;
  auto reader = Open(options);
  reader->BeginScan();
  char buf[256];
  uint32_t got = 0;
  ASSERT_TRUE(reader->Fetch(4000, 256, buf, &got).ok());
  EXPECT_EQ(got, 256u);
  EXPECT_EQ(std::string(buf, 256), data_.substr(4000, 256));
}

TEST_F(StringReaderTest, FetchBatchMatchesContentAndCoalesces) {
  StringReaderOptions options;
  options.buffer_bytes = 64 << 10;
  auto reader = Open(options);
  reader->BeginScan();

  // Adjacent and overlapping windows, the SubTreePrepare request shape.
  char out[8][32];
  std::vector<FetchRequest> requests;
  uint64_t pos = 1000;
  for (int i = 0; i < 8; ++i) {
    requests.push_back({pos, 32, out[i], 0});
    pos += (i % 2 == 0) ? 16 : 32;  // every other request overlaps
  }
  ASSERT_TRUE(reader->FetchBatch(requests).ok());
  for (const FetchRequest& r : requests) {
    ASSERT_EQ(r.got, 32u);
    EXPECT_EQ(std::string(r.out, r.got), data_.substr(r.pos, 32));
  }
  // The whole batch fits in one window residency: one refill, no seeks.
  EXPECT_EQ(stats_.sequential_refills, 1u);
  EXPECT_EQ(stats_.seeks, 0u);
  EXPECT_EQ(stats_.fetch_batches, 1u);
  EXPECT_EQ(stats_.batched_requests, 8u);
}

TEST_F(StringReaderTest, FetchBatchShortReadsAtEof) {
  auto reader = Open({});
  reader->BeginScan();
  char a[64], b[64], c[64];
  std::vector<FetchRequest> requests = {
      {data_.size() - 100, 64, a, 0},  // fully inside
      {data_.size() - 10, 64, b, 0},   // short
      {data_.size() + 5, 64, c, 0},    // past the end
  };
  ASSERT_TRUE(reader->FetchBatch(requests).ok());
  EXPECT_EQ(requests[0].got, 64u);
  EXPECT_EQ(requests[1].got, 10u);
  EXPECT_EQ(std::string(requests[1].out, requests[1].got),
            data_.substr(data_.size() - 10));
  EXPECT_EQ(requests[2].got, 0u);
}

TEST_F(StringReaderTest, FetchBatchRejectsUnsortedStream) {
  auto reader = Open({});
  reader->BeginScan();
  char a[8], b[8];
  std::vector<FetchRequest> requests = {{5000, 8, a, 0}, {4000, 8, b, 0}};
  Status status = reader->FetchBatch(requests);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

TEST(DiskModelTest, PricesTransferAndSeeks) {
  IoStats stats;
  stats.bytes_read = 100 * 1024 * 1024;  // 1 second at 100 MB/s
  stats.seeks = 125;                     // 1 second at 8 ms each
  DiskModel model;
  EXPECT_NEAR(model.ModeledSeconds(stats), 2.0, 1e-9);
}

// ---------------------------------------------------------------------------
// PrefetchingStringReader
// ---------------------------------------------------------------------------

TEST_F(StringReaderTest, PrefetchingSequentialScanMatchesAndHits) {
  StringReaderOptions options;
  options.buffer_bytes = 16384;
  options.prefetch = true;
  auto reader = Open(options);
  reader->BeginScan();
  char buf[128];
  uint32_t got = 0;
  for (uint64_t pos = 0; pos + 128 <= data_.size(); pos += 4096) {
    ASSERT_TRUE(reader->Fetch(pos, 128, buf, &got).ok());
    ASSERT_EQ(got, 128u);
    ASSERT_EQ(std::string(buf, got), data_.substr(pos, 128)) << pos;
  }
  // 1 MiB through 16 KiB windows: after the first (cold) refill every
  // window should come from the double buffer.
  EXPECT_GT(stats_.prefetch_hits, 50u);
  EXPECT_LE(stats_.prefetch_misses, 2u);
  EXPECT_GT(stats_.prefetched_bytes, 0u);
  // Prefetched traffic is billed into bytes_read like any other read.
  EXPECT_GE(stats_.bytes_read, data_.size());
}

TEST_F(StringReaderTest, PrefetchingMatchesPlainReaderUnderRandomizedUse) {
  // Adversarial equivalence: the same call sequence against a plain and a
  // prefetching reader must return identical bytes — across scan restarts,
  // seek-optimized gaps, EOF short reads, and interleaved RandomFetch.
  StringReaderOptions plain_options;
  plain_options.buffer_bytes = 8192;
  plain_options.seek_optimization = true;
  plain_options.skip_threshold_bytes = 16384;
  StringReaderOptions prefetch_options = plain_options;
  prefetch_options.prefetch = true;

  IoStats plain_stats;
  auto plain = OpenStringReader(&env_, "/s", plain_options, &plain_stats);
  ASSERT_TRUE(plain.ok());
  auto prefetching = Open(prefetch_options);

  std::mt19937_64 rng(1234);
  char a[256], b[256];
  uint64_t pos = 0;
  (*plain)->BeginScan();
  prefetching->BeginScan();
  for (int step = 0; step < 3000; ++step) {
    const int kind = static_cast<int>(rng() % 20);
    if (kind == 0) {
      pos = rng() % data_.size();
      (*plain)->BeginScan(pos);
      prefetching->BeginScan(pos);
      continue;
    }
    if (kind == 1) {
      // Interleaved random access (the vertical partitioner's tail probe).
      uint64_t rpos = rng() % (data_.size() + 64);
      uint32_t len = 1 + static_cast<uint32_t>(rng() % 64);
      uint32_t got_a = 0, got_b = 0;
      ASSERT_TRUE((*plain)->RandomFetch(rpos, len, a, &got_a).ok());
      ASSERT_TRUE(prefetching->RandomFetch(rpos, len, b, &got_b).ok());
      ASSERT_EQ(got_a, got_b);
      ASSERT_EQ(std::string(a, got_a), std::string(b, got_b));
      continue;
    }
    uint64_t gap = rng() % 3 == 0 ? rng() % 50000 : rng() % 512;
    pos += gap;
    if (pos > data_.size() + 32) {
      pos = 0;
      (*plain)->BeginScan();
      prefetching->BeginScan();
    }
    uint32_t len = 1 + static_cast<uint32_t>(rng() % 256);
    uint32_t got_a = 0, got_b = 0;
    ASSERT_TRUE((*plain)->Fetch(pos, len, a, &got_a).ok());
    ASSERT_TRUE(prefetching->Fetch(pos, len, b, &got_b).ok());
    ASSERT_EQ(got_a, got_b) << "pos " << pos << " len " << len;
    ASSERT_EQ(std::string(a, got_a), std::string(b, got_b)) << "pos " << pos;
  }
}

TEST_F(StringReaderTest, PrefetchingFetchBatchMatchesPlain) {
  StringReaderOptions options;
  options.buffer_bytes = 8192;
  StringReaderOptions prefetch_options = options;
  prefetch_options.prefetch = true;
  IoStats plain_stats;
  auto plain = OpenStringReader(&env_, "/s", options, &plain_stats);
  ASSERT_TRUE(plain.ok());
  auto prefetching = Open(prefetch_options);

  std::mt19937_64 rng(99);
  for (int round = 0; round < 20; ++round) {
    std::vector<uint64_t> positions;
    uint64_t pos = rng() % 1000;
    while (pos + 64 < data_.size()) {
      positions.push_back(pos);
      pos += 16 + rng() % 30000;
    }
    std::vector<char> out_a(positions.size() * 32);
    std::vector<char> out_b(positions.size() * 32);
    std::vector<FetchRequest> req_a(positions.size());
    std::vector<FetchRequest> req_b(positions.size());
    for (std::size_t i = 0; i < positions.size(); ++i) {
      req_a[i] = {positions[i], 32, out_a.data() + 32 * i, 0};
      req_b[i] = {positions[i], 32, out_b.data() + 32 * i, 0};
    }
    (*plain)->BeginScan();
    prefetching->BeginScan();
    ASSERT_TRUE((*plain)->FetchBatch(req_a).ok());
    ASSERT_TRUE(prefetching->FetchBatch(req_b).ok());
    for (std::size_t i = 0; i < positions.size(); ++i) {
      ASSERT_EQ(req_a[i].got, req_b[i].got);
    }
    ASSERT_EQ(out_a, out_b) << "round " << round;
  }
  EXPECT_GT(stats_.prefetch_hits, 0u);
}

TEST_F(StringReaderTest, PrefetchThrottlesSpeculationOnSeekHeavyScans) {
  // A sparse seek-optimized scan discards every speculative window; after
  // a couple of wasted windows the reader must stop speculating instead of
  // burning a full buffer of device bandwidth per skip.
  StringReaderOptions options;
  options.buffer_bytes = 8192;
  options.seek_optimization = true;
  options.skip_threshold_bytes = 8192;
  options.prefetch = true;
  auto reader = Open(options);
  reader->BeginScan();
  char buf[16];
  uint32_t got = 0;
  for (uint64_t pos = 0; pos + 16 <= data_.size(); pos += 60000) {
    ASSERT_TRUE(reader->Fetch(pos, 16, buf, &got).ok());
    ASSERT_EQ(std::string(buf, got), data_.substr(pos, 16));
  }
  // ~17 skips; unthrottled speculation would read one 8 KiB window per
  // skip (~140 KiB). The throttle caps waste at kMaxWastedSpeculations
  // windows plus the re-arm probes after recovery streaks.
  EXPECT_LE(stats_.prefetched_bytes, 6u * options.buffer_bytes)
      << "speculation was not throttled on a seek-heavy scan";

  // ...and a dense sequential scan afterwards re-arms the double buffer.
  uint64_t hits_before = stats_.prefetch_hits;
  reader->BeginScan();
  for (uint64_t pos = 0; pos < 200000; pos += 4096) {
    ASSERT_TRUE(reader->Fetch(pos, 16, buf, &got).ok());
  }
  EXPECT_GT(stats_.prefetch_hits, hits_before + 5)
      << "speculation did not recover after the pattern turned sequential";
}

TEST_F(StringReaderTest, PrefetchRingCountsDepthHits) {
  // Depth 4 (the default): a steady sequential scan keeps several windows
  // live at once, so most hits come from windows issued alongside others —
  // exactly what prefetch_depth_hits counts.
  StringReaderOptions options;
  options.buffer_bytes = 16384;
  options.prefetch = true;
  options.prefetch_depth = 4;
  auto reader = Open(options);
  reader->BeginScan();
  char buf[64];
  uint32_t got = 0;
  for (uint64_t pos = 0; pos + 64 <= data_.size(); pos += 8192) {
    ASSERT_TRUE(reader->Fetch(pos, 64, buf, &got).ok());
  }
  reader.reset();  // fold residual background traffic
  EXPECT_GT(stats_.prefetch_hits, 50u);
  EXPECT_GT(stats_.prefetch_depth_hits, 40u);
  EXPECT_LE(stats_.prefetch_depth_hits, stats_.prefetch_hits);
}

TEST_F(StringReaderTest, PrefetchDepthOneIsDoubleBufferingWithoutDepthHits) {
  StringReaderOptions options;
  options.buffer_bytes = 16384;
  options.prefetch = true;
  options.prefetch_depth = 1;
  auto reader = Open(options);
  reader->BeginScan();
  char buf[64];
  uint32_t got = 0;
  for (uint64_t pos = 0; pos + 64 <= data_.size(); pos += 8192) {
    ASSERT_TRUE(reader->Fetch(pos, 64, buf, &got).ok());
    EXPECT_EQ(std::string(buf, got), data_.substr(pos, 64));
  }
  reader.reset();
  // Still hits (the classic double buffer) but never a depth hit: a single
  // slot is always issued alone.
  EXPECT_GT(stats_.prefetch_hits, 50u);
  EXPECT_EQ(stats_.prefetch_depth_hits, 0u);
}

TEST_F(StringReaderTest, RingMatchesPlainReaderUnderRandomizedUse) {
  // The adversarial sequence of PrefetchingMatchesPlainReaderUnderRandomized
  // Use, at ring depth 4 (that test runs the same body at the default
  // depth): scan restarts, seek-optimized gaps, EOF, interleaved random.
  StringReaderOptions plain_options;
  plain_options.buffer_bytes = 8192;
  plain_options.seek_optimization = true;
  plain_options.skip_threshold_bytes = 16384;
  StringReaderOptions prefetch_options = plain_options;
  prefetch_options.prefetch = true;
  prefetch_options.prefetch_depth = 4;

  IoStats plain_stats;
  auto plain = OpenStringReader(&env_, "/s", plain_options, &plain_stats);
  ASSERT_TRUE(plain.ok());
  auto prefetching = Open(prefetch_options);

  std::mt19937_64 rng(777);
  char a[256], b[256];
  uint64_t pos = 0;
  (*plain)->BeginScan();
  prefetching->BeginScan();
  for (int step = 0; step < 3000; ++step) {
    const int kind = static_cast<int>(rng() % 20);
    if (kind == 0) {
      pos = rng() % data_.size();
      (*plain)->BeginScan(pos);
      prefetching->BeginScan(pos);
      continue;
    }
    if (kind == 1) {
      uint64_t rpos = rng() % (data_.size() + 64);
      uint32_t len = 1 + static_cast<uint32_t>(rng() % 64);
      uint32_t got_a = 0, got_b = 0;
      ASSERT_TRUE((*plain)->RandomFetch(rpos, len, a, &got_a).ok());
      ASSERT_TRUE(prefetching->RandomFetch(rpos, len, b, &got_b).ok());
      ASSERT_EQ(got_a, got_b);
      ASSERT_EQ(std::string(a, got_a), std::string(b, got_b));
      continue;
    }
    uint64_t gap = rng() % 3 == 0 ? rng() % 50000 : rng() % 512;
    pos += gap;
    if (pos > data_.size() + 32) {
      pos = 0;
      (*plain)->BeginScan();
      prefetching->BeginScan();
    }
    uint32_t len = 1 + static_cast<uint32_t>(rng() % 256);
    uint32_t got_a = 0, got_b = 0;
    ASSERT_TRUE((*plain)->Fetch(pos, len, a, &got_a).ok());
    ASSERT_TRUE(prefetching->Fetch(pos, len, b, &got_b).ok());
    ASSERT_EQ(got_a, got_b) << "pos " << pos << " len " << len;
    ASSERT_EQ(std::string(a, got_a), std::string(b, got_b)) << "pos " << pos;
  }
}

TEST_F(StringReaderTest, CacheBackedReaderBillsCacheBytesNotDeviceBytes) {
  TileCacheOptions cache_options;
  cache_options.budget_bytes = 2 << 20;
  cache_options.tile_bytes = 64 << 10;
  auto cache = TileCache::Open(&env_, "/s", cache_options);
  ASSERT_TRUE(cache.ok());

  StringReaderOptions options;
  options.buffer_bytes = 16384;
  options.prefetch = true;
  options.tile_cache = *cache;
  auto reader = Open(options);
  reader->BeginScan();
  char buf[64];
  uint32_t got = 0;
  for (uint64_t pos = 0; pos + 64 <= data_.size(); pos += 4096) {
    ASSERT_TRUE(reader->Fetch(pos, 64, buf, &got).ok());
    ASSERT_EQ(std::string(buf, got), data_.substr(pos, 64));
  }
  reader.reset();
  // The reader's traffic is memory copies out of the cache...
  EXPECT_EQ(stats_.bytes_read, 0u);
  EXPECT_GE(stats_.cache_served_bytes, data_.size());
  // ...and the device transfer happened exactly once, inside the cache.
  TileCache::Snapshot snapshot = (*cache)->stats();
  EXPECT_EQ(snapshot.device_bytes_read, data_.size());
  EXPECT_GT(snapshot.hits, 0u);

  // A second full scan is pure cache residency: zero new device bytes.
  IoStats second_stats;
  StringReaderOptions second_options = options;
  auto second = OpenStringReader(&env_, "/s", second_options, &second_stats);
  ASSERT_TRUE(second.ok());
  (*second)->BeginScan();
  for (uint64_t pos = 0; pos + 64 <= data_.size(); pos += 4096) {
    ASSERT_TRUE((*second)->Fetch(pos, 64, buf, &got).ok());
  }
  second->reset();
  EXPECT_EQ((*cache)->stats().device_bytes_read, data_.size());
}

TEST_F(StringReaderTest, CacheBackedReaderRejectsMismatchedPath) {
  ASSERT_TRUE(env_.WriteFile("/other", "abc").ok());
  TileCacheOptions cache_options;
  cache_options.budget_bytes = 1 << 20;
  auto cache = TileCache::Open(&env_, "/other", cache_options);
  ASSERT_TRUE(cache.ok());
  StringReaderOptions options;
  options.tile_cache = *cache;
  auto reader = OpenStringReader(&env_, "/s", options, &stats_);
  EXPECT_FALSE(reader.ok());
}

TEST_F(StringReaderTest, PrefetchDisabledReaderHasNoPrefetchCounters) {
  auto reader = Open({});
  reader->BeginScan();
  char buf[64];
  uint32_t got = 0;
  for (uint64_t pos = 0; pos < 500000; pos += 8192) {
    ASSERT_TRUE(reader->Fetch(pos, 64, buf, &got).ok());
  }
  EXPECT_EQ(stats_.prefetch_hits, 0u);
  EXPECT_EQ(stats_.prefetch_misses, 0u);
  EXPECT_EQ(stats_.prefetched_bytes, 0u);
}

}  // namespace
}  // namespace era
