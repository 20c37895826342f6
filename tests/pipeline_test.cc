// The parallel horizontal phase: background sub-tree writer,
// latency-injecting Env, and — the acceptance bar — a byte-identical
// serialized index from ParallelBuilder at any worker count versus its
// one-worker build, on both MemEnv and PosixEnv.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/timer.h"
#include "era/era_builder.h"
#include "era/parallel_builder.h"
#include "era/range_policy.h"
#include "era/subtree_prepare.h"
#include "era/subtree_writer.h"
#include "io/latency_env.h"
#include "io/mem_env.h"
#include "suffixtree/serializer.h"
#include "suffixtree/tree_buffer.h"
#include "tests/test_util.h"

namespace era {
namespace {

// ---------------------------------------------------------------------------
// BackgroundSubTreeWriter
// ---------------------------------------------------------------------------

TreeBuffer MakeTree(uint32_t leaves) {
  TreeBuffer tree;
  for (uint32_t i = 0; i < leaves; ++i) {
    uint32_t node = tree.AddNode();
    // Every leaf edge runs to the end of the text (offset `leaves`), as in
    // any suffix tree; the sub-tree format stores that end once.
    tree.node(node).edge_start = i;
    tree.node(node).edge_len = leaves - i;
    tree.node(node).leaf_id = i;
    // Distinct ascending first symbols, as every sub-tree file must store.
    tree.node(node).first_symbol = static_cast<uint8_t>('A' + i);
    tree.AppendChildLast(0, node);
  }
  return tree;
}

TEST(BackgroundSubTreeWriterTest, WritesEverythingAndCountsIo) {
  MemEnv env;
  BackgroundSubTreeWriter writer(&env, 2, 1 << 20);
  for (int i = 0; i < 16; ++i) {
    writer.Enqueue("/st_" + std::to_string(i), "p" + std::to_string(i),
                   MakeTree(8));
  }
  ASSERT_TRUE(writer.Drain().ok());
  EXPECT_GT(writer.io().bytes_written, 0u);
  for (int i = 0; i < 16; ++i) {
    TreeBuffer tree;
    std::string prefix;
    ASSERT_TRUE(
        ReadSubTree(&env, "/st_" + std::to_string(i), &tree, &prefix, nullptr)
            .ok());
    EXPECT_EQ(prefix, "p" + std::to_string(i));
    EXPECT_EQ(tree.size(), 9u);  // root + 8 leaves
  }
}

/// The (L, B) of every prefix of `prefixes` over `text`, prepared from a
/// copy of the text at "/s" in `env`.
std::vector<PreparedSubTree> PrepareAll(
    MemEnv* env, const std::string& text,
    const std::vector<std::string>& prefixes) {
  EXPECT_TRUE(env->WriteFile("/s", text).ok());
  IoStats io;
  auto reader = OpenStringReader(env, "/s", {}, &io);
  EXPECT_TRUE(reader.ok());
  const VirtualTree group = testing::CountedGroup(text, prefixes);
  GroupPreparer preparer(group, RangePolicy::Elastic(1 << 16, 4, 256),
                         reader->get(), text.size(), Alphabet::Dna());
  EXPECT_TRUE(preparer.Run().ok());
  return std::move(preparer.results());
}

/// What an EnqueuePrepared job counts against the backlog bound.
uint64_t PreparedBytes(const PreparedSubTree& prepared) {
  return prepared.leaves.capacity() * sizeof(uint64_t) +
         prepared.branches.capacity() * sizeof(BranchInfo);
}

TEST(BackgroundSubTreeWriterTest, BackpressureBoundsTheBacklog) {
  MemEnv env;
  LatencyModel slow;
  slow.write_latency_seconds = 0.005;
  LatencyEnv latency_env(&env, slow);
  const uint64_t tree_bytes = MakeTree(64).MemoryBytes();
  // Bound admits ~2 trees; the peak backlog must respect it even though 12
  // trees flow through a deliberately slow device.
  BackgroundSubTreeWriter writer(&latency_env, 1, 2 * tree_bytes);
  for (int i = 0; i < 12; ++i) {
    writer.Enqueue("/st_" + std::to_string(i), "p", MakeTree(64));
  }
  ASSERT_TRUE(writer.Drain().ok());
  EXPECT_LE(writer.peak_queued_bytes(), 2 * tree_bytes);
  EXPECT_EQ(env.FileCount(), 12u);

  // Prepared prefixes count their L and B bytes: a bound of two jobs holds
  // while 12 of them are built and written through the same slow device.
  MemEnv text_env;
  const std::string text = testing::RandomText(Alphabet::Dna(), 4000, 77);
  std::vector<PreparedSubTree> prepared =
      PrepareAll(&text_env, text,
                 {"AA", "AC", "AG", "AT", "CA", "CC", "CG", "CT", "GA", "GC",
                  "GG", "GT"});
  uint64_t job_bytes = 0;
  for (const PreparedSubTree& p : prepared) {
    job_bytes = std::max(job_bytes, PreparedBytes(p));
  }
  ASSERT_GT(job_bytes, 0u);
  BackgroundSubTreeWriter building(&latency_env, 1, 2 * job_bytes);
  for (std::size_t k = 0; k < prepared.size(); ++k) {
    building.EnqueuePrepared("/pt_" + std::to_string(k),
                             std::move(prepared[k]), text.size());
  }
  ASSERT_TRUE(building.Drain().ok());
  EXPECT_GE(building.peak_queued_bytes(), job_bytes / 2);
  EXPECT_LE(building.peak_queued_bytes(), 2 * job_bytes);
  EXPECT_EQ(building.jobs_built(), 12u);
  EXPECT_EQ(env.FileCount(), 24u);
}

TEST(BackgroundSubTreeWriterTest, FailedBuildFailsTheWriterAndWritesNothing) {
  // An undefined B entry makes BuildSubTree fail with Internal on the
  // writer thread: Drain() returns it, no file is written for it, and every
  // later job is dropped with the same error.
  MemEnv env;
  const std::string text = testing::RandomText(Alphabet::Dna(), 4000, 79);
  std::vector<PreparedSubTree> prepared =
      PrepareAll(&env, text, {"AA", "AC", "AG", "AT"});
  ASSERT_GT(prepared[0].branches.size(), 1u);
  prepared[0].branches[1].defined = false;
  BackgroundSubTreeWriter writer(&env, 1, 1 << 20);
  std::vector<Status> done(prepared.size());
  std::vector<int> calls(prepared.size(), 0);
  for (std::size_t k = 0; k < prepared.size(); ++k) {
    writer.EnqueuePrepared(
        "/st_" + std::to_string(k), std::move(prepared[k]), text.size(),
        [&done, &calls, k](const Status& s, uint32_t, uint64_t) {
          done[k] = s;
          ++calls[k];
        });
  }
  Status s = writer.Drain();
  EXPECT_TRUE(s.IsInternal()) << s.ToString();
  EXPECT_TRUE(writer.Failed());
  for (std::size_t k = 0; k < prepared.size(); ++k) {
    EXPECT_EQ(calls[k], 1) << "job " << k;
    EXPECT_TRUE(done[k].IsInternal()) << "job " << k;
    EXPECT_EQ(done[k].message(), s.message()) << "job " << k;
    EXPECT_FALSE(env.FileExists("/st_" + std::to_string(k))) << "job " << k;
  }
  EXPECT_EQ(writer.jobs_written(), 0u);
}

TEST(BackgroundSubTreeWriterTest, ReportsFirstWriteError) {
  // PosixEnv with a nonexistent directory: every write fails.
  BackgroundSubTreeWriter writer(GetDefaultEnv(), 1, 1 << 20);
  writer.Enqueue("/nonexistent_era_dir/st_0", "p", MakeTree(4));
  Status s = writer.Drain();
  EXPECT_FALSE(s.ok());
}

// ---------------------------------------------------------------------------
// LatencyEnv
// ---------------------------------------------------------------------------

TEST(LatencyEnvTest, PreservesBytesAndInjectsWallTime) {
  MemEnv base;
  ASSERT_TRUE(base.WriteFile("/f", std::string(100000, 'x')).ok());
  LatencyModel model;
  model.read_latency_seconds = 0.01;
  model.read_bytes_per_second = 1e12;  // latency-only
  LatencyEnv env(&base, model);

  auto file = env.OpenRandomAccess("/f");
  ASSERT_TRUE(file.ok());
  std::string buf(100000, '\0');
  std::size_t got = 0;
  WallTimer timer;
  ASSERT_TRUE((*file)->Read(0, buf.size(), buf.data(), &got).ok());
  EXPECT_GE(timer.Seconds(), 0.009);
  EXPECT_EQ(got, 100000u);
  EXPECT_EQ(buf, std::string(100000, 'x'));
}

// ---------------------------------------------------------------------------
// Determinism: identical index bytes at any worker count
// ---------------------------------------------------------------------------

constexpr uint64_t kSerialBudget = 2 << 20;

BuildOptions DetOptions(Env* env, const std::string& dir, uint64_t budget) {
  BuildOptions options;
  options.env = env;
  options.work_dir = dir;
  options.memory_budget = budget;
  options.input_buffer_bytes = 4096;
  return options;
}

/// All index files (MANIFEST + every sub-tree), keyed by relative name.
std::vector<std::pair<std::string, std::string>> IndexBytes(
    Env* env, const TreeIndex& index, const std::string& dir) {
  std::vector<std::pair<std::string, std::string>> files;
  std::string manifest;
  EXPECT_TRUE(env->ReadFileToString(dir + "/MANIFEST", &manifest).ok());
  files.emplace_back("MANIFEST", std::move(manifest));
  for (const SubTreeEntry& entry : index.subtrees()) {
    std::string blob;
    EXPECT_TRUE(
        env->ReadFileToString(dir + "/" + entry.filename, &blob).ok());
    files.emplace_back(entry.filename, std::move(blob));
  }
  return files;
}

void CheckDeterminismOn(Env* env, const std::string& root) {
  std::string text = testing::RepetitiveText(Alphabet::Dna(), 20000, 71);
  auto info = MaterializeText(env, root + "/text", Alphabet::Dna(), text);
  ASSERT_TRUE(info.ok());

  ParallelBuilder serial(DetOptions(env, root + "/serial", kSerialBudget), 1);
  auto serial_result = serial.Build(*info);
  ASSERT_TRUE(serial_result.ok()) << serial_result.status().ToString();
  auto reference =
      IndexBytes(env, serial_result->index, root + "/serial");
  ASSERT_FALSE(reference.empty());

  for (unsigned workers : {1u, 2u, 7u}) {
    // Budget scales with workers so the per-core share — and therefore FM
    // and the whole partition plan — matches the one-worker run exactly.
    std::string dir = root + "/w" + std::to_string(workers);
    ParallelBuilder builder(
        DetOptions(env, dir, kSerialBudget * workers), workers);
    auto result = builder.Build(*info);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto files = IndexBytes(env, result->index, dir);
    ASSERT_EQ(files.size(), reference.size()) << workers << " workers";
    for (std::size_t i = 0; i < files.size(); ++i) {
      EXPECT_EQ(files[i].first, reference[i].first) << workers << " workers";
      EXPECT_TRUE(files[i].second == reference[i].second)
          << "file " << files[i].first << " diverged at " << workers
          << " workers";
    }
    // The writer threads report the trees they build, so the peak does not
    // depend on how many threads built them.
    EXPECT_EQ(result->stats.peak_tree_bytes,
              serial_result->stats.peak_tree_bytes)
        << workers << " workers";
  }
}

TEST(PipelineDeterminismTest, ByteIdenticalIndexOnMemEnv) {
  MemEnv env;
  CheckDeterminismOn(&env, "/det");
}

/// Cached vs uncached builds must emit byte-identical indexes at every
/// worker count: the tile-cache carve changes only the elastic range (the
/// algorithm's convergence point is range-independent), never FM or the
/// partition plan, and the cache returns exactly the file's bytes.
void CheckCachedUncachedIdentity(Env* env, const std::string& root) {
  std::string text = testing::RepetitiveText(Alphabet::Dna(), 24000, 91);
  auto info = MaterializeText(env, root + "/text", Alphabet::Dna(), text);
  ASSERT_TRUE(info.ok());

  // An explicit R large enough to carve from (the auto R at this tiny
  // budget sits at the carve floor, which disables the cache). Identical
  // in the cached and uncached builds so the fixed areas — and FM — match.
  constexpr uint64_t kTestRBuffer = 1 << 20;

  BuildOptions uncached_options = DetOptions(env, root + "/ref",
                                             kSerialBudget);
  uncached_options.r_buffer_bytes = kTestRBuffer;
  uncached_options.tile_cache = false;
  ParallelBuilder uncached(uncached_options, 1);
  auto uncached_result = uncached.Build(*info);
  ASSERT_TRUE(uncached_result.ok()) << uncached_result.status().ToString();
  EXPECT_EQ(uncached_result->stats.io.tile_hits, 0u);
  EXPECT_EQ(uncached_result->stats.io.tile_misses, 0u);
  auto reference = IndexBytes(env, uncached_result->index, root + "/ref");
  ASSERT_FALSE(reference.empty());

  for (unsigned workers : {1u, 2u, 7u}) {
    std::string dir = root + "/cw" + std::to_string(workers);
    BuildOptions options = DetOptions(env, dir, kSerialBudget * workers);
    options.r_buffer_bytes = kTestRBuffer;
    ASSERT_TRUE(options.tile_cache) << "tile cache must default on";
    ParallelBuilder builder(options, workers);
    auto result = builder.Build(*info);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->stats.io.tile_hits, 0u) << workers << " workers";
    // The cache's whole point: strictly fewer device bytes than the
    // uncached reference moved, while producing the same tree.
    EXPECT_LT(result->stats.io.bytes_read,
              uncached_result->stats.io.bytes_read)
        << workers << " workers";
    EXPECT_GT(result->stats.io.cache_served_bytes, 0u);
    auto files = IndexBytes(env, result->index, dir);
    ASSERT_EQ(files.size(), reference.size()) << workers << " workers";
    for (std::size_t i = 0; i < files.size(); ++i) {
      EXPECT_EQ(files[i].first, reference[i].first) << workers << " workers";
      EXPECT_TRUE(files[i].second == reference[i].second)
          << "file " << files[i].first << " diverged from the uncached "
          << "reference at " << workers << " workers";
    }
  }
}

TEST(PipelineDeterminismTest, CachedMatchesUncachedOnMemEnv) {
  MemEnv env;
  CheckCachedUncachedIdentity(&env, "/cvu");
}

TEST(PipelineDeterminismTest, CachedMatchesUncachedOnPosixEnv) {
  std::string root = "/tmp/era_pipeline_cvu_" + std::to_string(::getpid());
  Env* env = GetDefaultEnv();
  ASSERT_TRUE(env->CreateDir(root).ok());
  CheckCachedUncachedIdentity(env, root);
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
}

TEST(PipelineTest, TileCacheStatsSurfaceInBuildStats) {
  MemEnv env;
  std::string text = testing::RepetitiveText(Alphabet::Dna(), 30000, 92);
  auto info = MaterializeText(&env, "/text", Alphabet::Dna(), text);
  ASSERT_TRUE(info.ok());
  BuildOptions options = DetOptions(&env, "/tc", 4 << 20);
  options.r_buffer_bytes = 1 << 20;  // room for the carve at this budget
  ParallelBuilder builder(options, 2);
  auto result = builder.Build(*info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const BuildStats& stats = result->stats;
  EXPECT_EQ(stats.text_bytes, info->length);
  EXPECT_GT(stats.io.tile_hits, 0u);
  EXPECT_GT(stats.io.tile_device_bytes, 0u);
  EXPECT_GT(stats.tile_hit_rate(), 0.0);
  EXPECT_GT(stats.io_amplification(), 0.0);
  // The whole text fits in the cache at this scale, so device reads are
  // bounded by a couple of passes while logical traffic is far larger.
  EXPECT_LT(stats.io.bytes_read, stats.io.cache_served_bytes);
  EXPECT_TRUE(testing::IndexMatchesOracle(&env, result->index, text));
}

TEST(PipelineDeterminismTest, ByteIdenticalIndexOnPosixEnv) {
  std::string root = "/tmp/era_pipeline_det_" + std::to_string(::getpid());
  Env* env = GetDefaultEnv();
  ASSERT_TRUE(env->CreateDir(root).ok());
  CheckDeterminismOn(env, root);
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
}

// ---------------------------------------------------------------------------
// Pipeline integration details
// ---------------------------------------------------------------------------

TEST(PipelineTest, ReportsWorkerBusySeconds) {
  MemEnv env;
  std::string text = testing::RepetitiveText(Alphabet::Dna(), 20000, 74);
  auto info = MaterializeText(&env, "/text", Alphabet::Dna(), text);
  ASSERT_TRUE(info.ok());
  ParallelBuilder builder(DetOptions(&env, "/busy", 4 << 20), 3);
  auto result = builder.Build(*info);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->worker_busy_seconds.size(), 3u);
  double total_busy = 0;
  for (double b : result->worker_busy_seconds) {
    EXPECT_GE(b, 0.0);
    total_busy += b;
  }
  EXPECT_GT(total_busy, 0.0);
  // Busy time is a subset of each worker's wall time.
  for (std::size_t w = 0; w < 3; ++w) {
    EXPECT_LE(result->worker_busy_seconds[w],
              result->worker_seconds[w] + 1e-6);
  }
}

TEST(PipelineTest, StreamingPrepareEmitsEveryPrefixExactlyOnce) {
  // Covers the GroupPreparer emit callback directly: every prefix arrives
  // exactly once, with its k slot, and results() stays empty.
  MemEnv env;
  std::string text = testing::RandomText(Alphabet::Dna(), 4000, 75);
  ASSERT_TRUE(env.WriteFile("/s", text).ok());
  IoStats io;
  auto reader = OpenStringReader(&env, "/s", {}, &io);
  ASSERT_TRUE(reader.ok());

  const VirtualTree group =
      testing::CountedGroup(text, {"AA", "AC", "AG", "AT"});

  GroupPreparer preparer(group, RangePolicy::Elastic(1 << 16, 4, 256),
                         reader->get(), text.size(), Alphabet::Dna());
  std::vector<int> seen(group.prefixes.size(), 0);
  preparer.SetEmitCallback(
      [&](std::size_t k, PreparedSubTree&& prepared) -> Status {
        EXPECT_LT(k, seen.size());
        ++seen[k];
        EXPECT_EQ(prepared.prefix, group.prefixes[k].prefix);
        EXPECT_EQ(prepared.leaves.size(), group.prefixes[k].frequency);
        return Status::OK();
      });
  ASSERT_TRUE(preparer.Run().ok());
  for (std::size_t k = 0; k < seen.size(); ++k) {
    EXPECT_EQ(seen[k], 1) << "prefix " << k;
  }
  EXPECT_TRUE(preparer.results().empty());
}

}  // namespace
}  // namespace era
