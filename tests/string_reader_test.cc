#include "io/string_reader.h"

#include <gtest/gtest.h>

#include <random>
#include <span>
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

/// Serves `requests` with one FetchBatch and joins each request's pieces,
/// which must arrive in order.
Status CollectBatch(StringReader* reader,
                    const std::vector<FetchRequest>& requests,
                    std::vector<std::string>* out,
                    std::vector<int>* pieces = nullptr) {
  out->assign(requests.size(), "");
  if (pieces != nullptr) pieces->assign(requests.size(), 0);
  return reader->FetchBatch(
      requests,
      [&](std::size_t r, uint64_t offset, std::span<const char> piece) {
        EXPECT_EQ(offset, (*out)[r].size()) << "request " << r;
        (*out)[r].append(piece.data(), piece.size());
        if (pieces != nullptr) ++(*pieces)[r];
      });
}

TEST_F(StringReaderTest, FetchBatchMatchesContentAndCoalesces) {
  StringReaderOptions options;
  options.buffer_bytes = 64 << 10;
  auto reader = Open(options);
  reader->BeginScan();

  // Adjacent and overlapping windows, the SubTreePrepare request shape.
  std::vector<FetchRequest> requests;
  uint64_t pos = 1000;
  for (int i = 0; i < 8; ++i) {
    requests.push_back({pos, 32});
    pos += (i % 2 == 0) ? 16 : 32;  // every other request overlaps
  }
  std::vector<std::string> got;
  std::vector<int> pieces;
  ASSERT_TRUE(CollectBatch(reader.get(), requests, &got, &pieces).ok());
  for (std::size_t r = 0; r < requests.size(); ++r) {
    EXPECT_EQ(got[r], data_.substr(requests[r].pos, 32));
    EXPECT_EQ(pieces[r], 1);
  }
  // The whole batch fits in one window residency: one refill, no seeks.
  EXPECT_EQ(stats_.sequential_refills, 1u);
  EXPECT_EQ(stats_.seeks, 0u);
  EXPECT_EQ(stats_.fetch_batches, 1u);
  EXPECT_EQ(stats_.batched_requests, 8u);
}

TEST_F(StringReaderTest, FetchBatchHandsPiecesAcrossRefills) {
  // A request that runs past the resident window but fits in one window
  // is reloaded whole when the next request overlaps it; otherwise it, like
  // a request longer than the window, arrives in pieces, each a span of
  // the window at the time: no copy is made.
  StringReaderOptions options;
  options.buffer_bytes = 4096;
  auto reader = Open(options);
  reader->BeginScan();
  const std::vector<FetchRequest> requests = {
      {100, 50}, {4000, 200}, {4100, 64}, {8000, 200}, {9000, 10000}};
  std::vector<std::string> got;
  std::vector<int> pieces;
  ASSERT_TRUE(CollectBatch(reader.get(), requests, &got, &pieces).ok());
  for (std::size_t r = 0; r < requests.size(); ++r) {
    EXPECT_EQ(got[r], data_.substr(requests[r].pos, requests[r].len));
  }
  // Windows [100, 4196), then [4000, 8096) reloaded at the straddling
  // request, then [8096, 12192) continuing past the second straddle (the
  // request after it starts beyond 8096), then [12192, 16288) and
  // [16288, 20384) for the long one.
  EXPECT_EQ(pieces, (std::vector<int>{1, 1, 1, 2, 3}));
  EXPECT_EQ(stats_.sequential_refills, 4u);
  EXPECT_EQ(stats_.seeks, 1u);
}

TEST_F(StringReaderTest, FetchBatchReloadsAStraddleAtItsStart) {
  // Overlapping windows across the resident window's end, the prepare
  // request shape: the straddling request costs one refill, at its own
  // start, and the requests after it stay resident instead of seeking back
  // before the new window.
  StringReaderOptions options;
  options.buffer_bytes = 4096;
  auto reader = Open(options);
  reader->BeginScan();
  const std::vector<FetchRequest> requests = {
      {0, 64}, {4064, 64}, {4080, 64}, {4090, 64}};
  std::vector<std::string> got;
  std::vector<int> pieces;
  ASSERT_TRUE(CollectBatch(reader.get(), requests, &got, &pieces).ok());
  for (std::size_t r = 0; r < requests.size(); ++r) {
    EXPECT_EQ(got[r], data_.substr(requests[r].pos, 64));
    EXPECT_EQ(pieces[r], 1) << "request " << r;
  }
  EXPECT_EQ(stats_.sequential_refills, 1u);  // [0, 4096)
  EXPECT_EQ(stats_.seeks, 1u);               // [4064, 8160)
  EXPECT_EQ(stats_.bytes_read, 2u * 4096);
}

TEST_F(StringReaderTest, FetchBatchShortReadsAtEof) {
  auto reader = Open({});
  reader->BeginScan();
  const std::vector<FetchRequest> requests = {
      {data_.size() - 100, 64},  // fully inside
      {data_.size() - 10, 64},   // short
      {data_.size() + 5, 64},    // past the end
  };
  std::vector<std::string> got;
  ASSERT_TRUE(CollectBatch(reader.get(), requests, &got).ok());
  EXPECT_EQ(got[0], data_.substr(data_.size() - 100, 64));
  EXPECT_EQ(got[1], data_.substr(data_.size() - 10));
  EXPECT_EQ(got[2], "");
}

TEST_F(StringReaderTest, FetchBatchRejectsUnsortedStream) {
  auto reader = Open({});
  reader->BeginScan();
  const std::vector<FetchRequest> requests = {{5000, 8}, {4000, 8}};
  std::vector<std::string> got;
  Status status = CollectBatch(reader.get(), requests, &got);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

TEST(DiskModelTest, PricesTransferAndSeeks) {
  IoStats stats;
  stats.bytes_read = 100 * 1024 * 1024;  // 1 second at 100 MB/s
  stats.seeks = 125;                     // 1 second at 8 ms each
  DiskModel model;
  EXPECT_NEAR(model.ModeledSeconds(stats), 2.0, 1e-9);
}

TEST_F(StringReaderTest, MatchesTextUnderRandomizedUse) {
  // Adversarial use against the text itself: scan restarts, seek-optimized
  // gaps, EOF short reads and interleaved RandomFetch must all return
  // exactly the bytes of the file.
  StringReaderOptions options;
  options.buffer_bytes = 8192;
  options.seek_optimization = true;
  options.skip_threshold_bytes = 16384;
  auto reader = Open(options);

  // The bytes a read of `len` at `pos` must return (short at end-of-file).
  auto expected = [&](uint64_t pos, uint32_t len) {
    return pos >= data_.size() ? std::string() : data_.substr(pos, len);
  };
  std::mt19937_64 rng(1234);
  char buf[256];
  uint64_t pos = 0;
  reader->BeginScan();
  for (int step = 0; step < 3000; ++step) {
    const int kind = static_cast<int>(rng() % 20);
    if (kind == 0) {
      pos = rng() % data_.size();
      reader->BeginScan(pos);
      continue;
    }
    if (kind == 1) {
      // Interleaved random access (the vertical partitioner's tail probe).
      uint64_t rpos = rng() % (data_.size() + 64);
      uint32_t len = 1 + static_cast<uint32_t>(rng() % 64);
      uint32_t got = 0;
      ASSERT_TRUE(reader->RandomFetch(rpos, len, buf, &got).ok());
      ASSERT_EQ(std::string(buf, got), expected(rpos, len)) << "pos " << rpos;
      continue;
    }
    uint64_t gap = rng() % 3 == 0 ? rng() % 50000 : rng() % 512;
    pos += gap;
    if (pos > data_.size() + 32) {
      pos = 0;
      reader->BeginScan();
    }
    uint32_t len = 1 + static_cast<uint32_t>(rng() % 256);
    uint32_t got = 0;
    ASSERT_TRUE(reader->Fetch(pos, len, buf, &got).ok());
    ASSERT_EQ(std::string(buf, got), expected(pos, len))
        << "pos " << pos << " len " << len;
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

}  // namespace
}  // namespace era
