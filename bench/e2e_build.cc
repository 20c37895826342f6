// End-to-end pipelined horizontal phase benchmark.
//
// Builds a generated DNA corpus with ParallelBuilder at 1/2/4/8 workers and
// emits BENCH_era.json (wall seconds, MB/s, I/O amplification, tile-cache
// hit rate, worker busy fraction) in the current directory.
//
// Methodology notes:
//  * The corpus lives in real files (PosixEnv) wrapped in LatencyEnv: at
//    laptop/CI scale the page cache hides device time entirely, so without a
//    modeled device every run degenerates to pure CPU — on a single-core CI
//    box that would make overlap unmeasurable. With per-request latency
//    charged as real sleeps, the tile cache and multi-worker scheduling show
//    up as genuine wall-clock speedup, which is exactly the paper's CPU/I-O
//    overlap claim (Section 4.4). The model is NVMe-like: concurrent
//    requests do not serialize against each other.
//  * The memory budget scales with the worker count, so every run plans the
//    identical partition (same FM, same groups) and the speedup isolates
//    scheduling/overlap rather than plan differences; this is also what
//    makes the output index byte-identical across rows (asserted in
//    tests/pipeline_test.cc on small inputs). The tile-cache carve comes
//    out of the retrieved-data slack (R and the trie area above their
//    floors; see era/memory_layout.h), so cached and uncached rows share
//    the plan too.
//  * Row 0 is the 1-worker run with the tile cache disabled — the
//    unpipelined reference every speedup is relative to, and the uncached
//    reference for io_amplification: the bench FAILS (exit 1) if the cached
//    1-worker run does not come in strictly below it, which is the CI
//    regression guard for this record.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/options.h"
#include "era/parallel_builder.h"
#include "io/latency_env.h"
#include "io/posix_env.h"
#include "text/corpus.h"
#include "text/text_generator.h"

namespace era {
namespace {

using bench::ArgOr;
using bench::ScopedRemoveAll;

struct RunResult {
  unsigned workers = 0;
  bool tile_cache = false;
  double wall_seconds = 0;
  double horizontal_seconds = 0;
  double vertical_seconds = 0;
  double mb_per_second = 0;
  double speedup = 0;
  double io_amplification = 0;
  double device_read_mb = 0;
  double tile_hit_rate = 0;
  uint64_t tile_hits = 0;
  uint64_t tile_misses = 0;
  double worker_busy_fraction = 0;
  uint64_t num_groups = 0;
  uint64_t num_subtrees = 0;
};

int Main(int argc, char** argv) {
  const double text_mb = ArgOr(argc, argv, "mb", 4.0);
  const double bandwidth_mb = ArgOr(argc, argv, "bandwidth-mb", 96.0);
  const double per_core_budget_mb = ArgOr(argc, argv, "budget-mb", 8.0);
  const double buffer_kb = ArgOr(argc, argv, "buffer-kb", 256.0);
  // Pure sequential scans: at this corpus/window scale a 64 KiB+ gap skip
  // re-reads a full window per seek, which amplifies device traffic past
  // plain read-through. The paper's seek optimization pays off when skips
  // dwarf the window; that regime is the figure benches' territory.
  const bool seek_opt = ArgOr(argc, argv, "seek-opt", 0.0) != 0.0;
  const uint64_t body_len = static_cast<uint64_t>(text_mb * 1024 * 1024);

  LatencyModel model;
  model.read_bytes_per_second = bandwidth_mb * 1024 * 1024;
  model.write_bytes_per_second = bandwidth_mb * 1024 * 1024;

  Env* posix = GetDefaultEnv();
  LatencyEnv env(posix, model);

  const std::string root =
      "/tmp/era_e2e_" + std::to_string(::getpid());
  std::fprintf(stderr, "corpus: %.1f MB DNA, device %.0f MB/s, work dir %s\n",
               text_mb, bandwidth_mb, root.c_str());
  Status dir_status = posix->CreateDir(root);
  if (!dir_status.ok()) {
    std::fprintf(stderr, "%s\n", dir_status.ToString().c_str());
    return 1;
  }
  ScopedRemoveAll cleanup{root};  // corpus + 5 index builds, even on failure
  // Materialize through the raw env: corpus generation is setup, not the
  // measured build.
  std::string text = GenerateDna(body_len, /*seed=*/42);
  auto info = MaterializeText(posix, root + "/text", Alphabet::Dna(), text);
  if (!info.ok()) {
    std::fprintf(stderr, "%s\n", info.status().ToString().c_str());
    return 1;
  }
  text.clear();
  text.shrink_to_fit();

  struct Config {
    unsigned workers;
    bool tile_cache;
  };
  // The uncached 1-worker row is the pipeline baseline; every cached row
  // then shows what the shared tile cache (and the affinity-ordered
  // scheduling feeding it) removes from the device.
  // Uncached rows keep the seek optimization off (see the note above: at
  // this window scale a skip re-reads a full window, amplifying device
  // traffic past read-through). Cached rows turn it ON: with resident
  // tiles a skip costs nothing, and sparse late rounds then fetch only the
  // windows they actually probe (the cache's span-granular bypass reads
  // exactly those bytes on a miss).
  const std::vector<Config> configs = {
      {1, false}, {1, true}, {2, true}, {4, true}, {8, true}};

  std::vector<RunResult> rows;
  double baseline_wall = 0;
  for (const Config& config : configs) {
    BuildOptions options;
    options.env = &env;
    options.work_dir = root + "/w" + std::to_string(config.workers) +
                       (config.tile_cache ? "c" : "u");
    // Budget scales with workers: identical per-core share => identical
    // partition plan and output index across ALL rows — the tile-cache
    // carve comes out of the retrieved-data slack and never moves FM (see
    // era/memory_layout.cc).
    options.memory_budget = static_cast<uint64_t>(
        per_core_budget_mb * 1024 * 1024 * config.workers);
    options.input_buffer_bytes = static_cast<uint64_t>(buffer_kb * 1024);
    options.r_buffer_bytes = static_cast<uint64_t>(
        ArgOr(argc, argv, "r-buffer-mb", 4.0) * 1024 * 1024);
    options.seek_optimization = config.tile_cache ? true : seek_opt;
    options.tile_cache = config.tile_cache;

    ParallelBuilder builder(options, config.workers);
    auto result = builder.Build(*info);
    if (!result.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const BuildStats& stats = result->stats;

    RunResult row;
    row.workers = config.workers;
    row.tile_cache = config.tile_cache;
    row.wall_seconds = stats.total_seconds;
    row.horizontal_seconds = stats.horizontal_seconds;
    row.vertical_seconds = stats.vertical_seconds;
    row.mb_per_second = text_mb / stats.total_seconds;
    if (baseline_wall == 0) baseline_wall = stats.total_seconds;
    row.speedup = baseline_wall / stats.total_seconds;
    row.io_amplification = stats.io_amplification();
    row.device_read_mb =
        static_cast<double>(stats.io.bytes_read) / (1024 * 1024);
    row.tile_hit_rate = stats.tile_hit_rate();
    row.tile_hits = stats.io.tile_hits;
    row.tile_misses = stats.io.tile_misses;
    double busy = 0;
    for (double b : result->worker_busy_seconds) busy += b;
    row.worker_busy_fraction =
        busy / (static_cast<double>(config.workers) *
                std::max(stats.horizontal_seconds, 1e-9));
    row.num_groups = stats.num_groups;
    row.num_subtrees = stats.num_subtrees;
    rows.push_back(row);

    std::fprintf(stderr,
                 "workers=%u cache=%d wall=%.2fs horiz=%.2fs speedup=%.2fx "
                 "tile_hit_rate=%.2f io_amp=%.1fx busy=%.2f groups=%llu "
                 "rounds=%llu read=%lluMB written=%lluMB\n",
                 row.workers, row.tile_cache ? 1 : 0, row.wall_seconds,
                 row.horizontal_seconds, row.speedup, row.tile_hit_rate,
                 row.io_amplification, row.worker_busy_fraction,
                 static_cast<unsigned long long>(row.num_groups),
                 static_cast<unsigned long long>(stats.prepare_rounds),
                 static_cast<unsigned long long>(stats.io.bytes_read >> 20),
                 static_cast<unsigned long long>(stats.io.bytes_written >> 20));
  }

  // Regression guard (run by CI as a smoke): the cached 1-worker run (row 1)
  // must move strictly fewer device bytes than the uncached 1-worker run
  // (row 0, the --no-tile-cache equivalent), or the whole point of the
  // cache is gone.
  if (rows[1].io_amplification >= rows[0].io_amplification) {
    std::fprintf(stderr,
                 "FAIL: cached io_amplification (%.2f) is not below the "
                 "uncached run's (%.2f)\n",
                 rows[1].io_amplification, rows[0].io_amplification);
    return 1;
  }

  FILE* out = std::fopen("BENCH_era.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_era.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"e2e_build\",\n");
  std::fprintf(out, "  \"corpus\": \"generated DNA (seed 42)\",\n");
  std::fprintf(out, "  \"text_mb\": %.2f,\n", text_mb);
  std::fprintf(out, "  \"per_core_budget_mb\": %.2f,\n", per_core_budget_mb);
  std::fprintf(out,
               "  \"device\": {\"kind\": \"LatencyEnv\", "
               "\"bandwidth_mb_per_s\": %.1f, \"request_latency_us\": %.0f, "
               "\"concurrent_requests\": \"independent\"},\n",
               bandwidth_mb, model.read_latency_seconds * 1e6);
  std::fprintf(out, "  \"host_cores\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RunResult& r = rows[i];
    std::fprintf(
        out,
        "    {\"workers\": %u, \"tile_cache\": %s, "
        "\"wall_seconds\": %.3f, "
        "\"horizontal_seconds\": %.3f, \"vertical_seconds\": %.3f, "
        "\"mb_per_second\": %.3f, \"speedup_vs_serial\": %.3f, "
        "\"io_amplification\": %.2f, \"device_read_mb\": %.1f, "
        "\"tile_hit_rate\": %.3f, \"tile_hits\": %llu, "
        "\"tile_misses\": %llu, \"worker_busy_fraction\": %.3f, "
        "\"groups\": %llu, \"subtrees\": %llu}%s\n",
        r.workers, r.tile_cache ? "true" : "false", r.wall_seconds,
        r.horizontal_seconds, r.vertical_seconds, r.mb_per_second, r.speedup,
        r.io_amplification, r.device_read_mb, r.tile_hit_rate,
        static_cast<unsigned long long>(r.tile_hits),
        static_cast<unsigned long long>(r.tile_misses),
        r.worker_busy_fraction,
        static_cast<unsigned long long>(r.num_groups),
        static_cast<unsigned long long>(r.num_subtrees),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::fprintf(stderr, "wrote BENCH_era.json\n");
  return 0;
}

}  // namespace
}  // namespace era

int main(int argc, char** argv) { return era::Main(argc, argv); }
