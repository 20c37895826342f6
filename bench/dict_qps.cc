// Dictionary-matching benchmark: shared-descent MatchDictionary vs the
// per-pattern Count loop vs Aho-Corasick text streaming.
//
// Builds a generated DNA index, samples one shared-prefix-heavy dictionary
// (SampleDictionaryWorkload: anchor groups, duplicates, mutants,
// stragglers), then answers the whole dictionary three ways and emits
// BENCH_dict.json:
//
//   * per_pattern — the oracle loop: one engine->Count per item. Every item
//     pays its own root-to-locus descent, so shared prefixes are re-walked
//     once per pattern.
//   * dict — one engine->MatchDictionary call: duplicates fold, the sorted
//     range cursor walks each distinct shared prefix once, each touched
//     sub-tree opens once.
//   * aho_corasick — the index-free baseline: build the automaton over the
//     dictionary and stream the TEXT through it once. Wins when the text is
//     small and the dictionary huge; the index wins the other way around.
//
// Methodology follows bench/query_qps.cc: real files (PosixEnv) wrapped in
// LatencyEnv so device time is modeled (without it the page cache turns
// every arm into pure CPU), fresh engine per arm (cold cache, comparable
// hit rates), and every arm must produce the identical occurrence checksum
// (sum of per-item counts, duplicates counted individually) — the bench
// fails rather than publish rows that disagree. The headline self-guard:
// dict must beat per_pattern by >= 1.5x.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/options.h"
#include "common/timer.h"
#include "era/parallel_builder.h"
#include "io/latency_env.h"
#include "io/posix_env.h"
#include "io/string_reader.h"
#include "query/query_engine.h"
#include "query/query_workload.h"
#include "text/aho_corasick.h"
#include "text/corpus.h"
#include "text/text_generator.h"

namespace era {
namespace {

using bench::ArgOr;
using bench::ScopedRemoveAll;

struct Row {
  std::string arm;  // "per_pattern" / "dict" / "aho_corasick"
  double wall_seconds = 0;
  double patterns_per_second = 0;
  uint64_t checksum = 0;  // sum of per-item counts, duplicates individually
  double cache_hit_rate = 0;
  QueryStats stats;
};

int Main(int argc, char** argv) {
  const double text_mb = ArgOr(argc, argv, "mb", 4.0);
  const double bandwidth_mb = ArgOr(argc, argv, "bandwidth-mb", 96.0);
  const double budget_mb = ArgOr(argc, argv, "budget-mb", 8.0);
  const double cache_mb = ArgOr(argc, argv, "cache-mb", 64.0);
  const std::size_t num_patterns =
      static_cast<std::size_t>(ArgOr(argc, argv, "patterns", 10000.0));
  const uint64_t body_len = static_cast<uint64_t>(text_mb * 1024 * 1024);

  LatencyModel model;
  model.read_bytes_per_second = bandwidth_mb * 1024 * 1024;
  model.write_bytes_per_second = bandwidth_mb * 1024 * 1024;

  Env* posix = GetDefaultEnv();
  LatencyEnv env(posix, model);

  const std::string root = "/tmp/era_dict_" + std::to_string(::getpid());
  std::fprintf(stderr,
               "corpus: %.1f MB DNA, device %.0f MB/s, %zu patterns, "
               "work dir %s\n",
               text_mb, bandwidth_mb, num_patterns, root.c_str());
  if (Status s = posix->CreateDir(root); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  ScopedRemoveAll cleanup{root};

  // Corpus + index builds are setup, not the measured path: raw env.
  std::string text = GenerateDna(body_len, /*seed=*/42);
  auto info = MaterializeText(posix, root + "/text", Alphabet::Dna(), text);
  if (!info.ok()) {
    std::fprintf(stderr, "%s\n", info.status().ToString().c_str());
    return 1;
  }

  const std::string index_dir = root + "/idx";
  {
    BuildOptions options;
    options.env = posix;
    options.work_dir = index_dir;
    options.memory_budget = static_cast<uint64_t>(budget_mb * 1024 * 1024);
    ParallelBuilder builder(options, 1);
    auto result = builder.Build(*info);
    if (!result.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
  }

  // One shared-prefix-heavy dictionary for every arm (the defaults: 32
  // anchor groups, 20% duplicates, 10% mutants, 5% stragglers).
  DictWorkloadOptions workload;
  workload.num_patterns = num_patterns;
  const std::vector<std::string> patterns =
      SampleDictionaryWorkload(text, workload);

  QueryEngineOptions engine_options;
  engine_options.cache.budget_bytes =
      static_cast<uint64_t>(cache_mb * 1024 * 1024);

  std::vector<Row> rows;
  auto run_arm = [&](const std::string& arm, Row* row) -> bool {
    // Fresh engine per arm: cold cache, comparable hit rates.
    auto engine = QueryEngine::Open(&env, index_dir, engine_options);
    if (!engine.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   engine.status().ToString().c_str());
      return false;
    }
    uint64_t checksum = 0;
    WallTimer timer;
    if (arm == "per_pattern") {
      for (const std::string& pattern : patterns) {
        auto count = (*engine)->Count(pattern);
        if (!count.ok()) {
          std::fprintf(stderr, "count failed: %s\n",
                       count.status().ToString().c_str());
          return false;
        }
        checksum += *count;
      }
    } else {
      auto outcomes = (*engine)->MatchDictionary(patterns);
      if (!outcomes.ok()) {
        std::fprintf(stderr, "dict failed: %s\n",
                     outcomes.status().ToString().c_str());
        return false;
      }
      for (const DictOutcome& outcome : *outcomes) {
        if (!outcome.status.ok()) {
          std::fprintf(stderr, "dict item failed: %s\n",
                       outcome.status.ToString().c_str());
          return false;
        }
        checksum += outcome.count;
      }
    }
    row->arm = arm;
    row->wall_seconds = timer.Seconds();
    row->patterns_per_second =
        row->wall_seconds > 0
            ? static_cast<double>(patterns.size()) / row->wall_seconds
            : 0;
    row->checksum = checksum;
    const TreeIndex::CacheSnapshot cache = (*engine)->cache();
    const uint64_t lookups = cache.hits + cache.misses;
    row->cache_hit_rate =
        lookups == 0 ? 0 : static_cast<double>(cache.hits) / lookups;
    row->stats = (*engine)->stats();
    std::fprintf(
        stderr,
        "arm=%-11s wall=%.3fs patterns/s=%.0f checksum=%llu "
        "hit_rate=%.3f groups=%llu shared=%llu saved=%llu folded=%llu\n",
        row->arm.c_str(), row->wall_seconds, row->patterns_per_second,
        static_cast<unsigned long long>(row->checksum), row->cache_hit_rate,
        static_cast<unsigned long long>(row->stats.dict_groups_formed),
        static_cast<unsigned long long>(row->stats.dict_descents_shared),
        static_cast<unsigned long long>(row->stats.dict_descents_saved),
        static_cast<unsigned long long>(row->stats.batch_duplicates_folded));
    return true;
  };

  for (const char* arm : {"per_pattern", "dict"}) {
    Row row;
    if (!run_arm(arm, &row)) return 1;
    rows.push_back(std::move(row));
  }

  // Aho-Corasick baseline: automaton over the dictionary, one streaming
  // pass over the text through the same modeled device.
  double ac_build_seconds = 0;
  {
    WallTimer build_timer;
    auto matcher = AhoCorasick::Build(patterns);
    if (!matcher.ok()) {
      std::fprintf(stderr, "aho-corasick build failed: %s\n",
                   matcher.status().ToString().c_str());
      return 1;
    }
    ac_build_seconds = build_timer.Seconds();
    IoStats io;
    auto reader = OpenStringReader(&env, root + "/text", {}, &io);
    if (!reader.ok()) {
      std::fprintf(stderr, "reader failed: %s\n",
                   reader.status().ToString().c_str());
      return 1;
    }
    std::vector<uint64_t> per_id(patterns.size(), 0);
    WallTimer scan_timer;
    Status scan = matcher->ScanAll(reader->get(),
                                   [&](int32_t id, uint64_t) {
                                     ++per_id[static_cast<std::size_t>(id)];
                                   });
    if (!scan.ok()) {
      std::fprintf(stderr, "scan failed: %s\n", scan.ToString().c_str());
      return 1;
    }
    Row row;
    row.arm = "aho_corasick";
    row.wall_seconds = scan_timer.Seconds();
    row.patterns_per_second =
        row.wall_seconds > 0
            ? static_cast<double>(patterns.size()) / row.wall_seconds
            : 0;
    for (uint64_t c : per_id) row.checksum += c;
    std::fprintf(stderr,
                 "arm=aho_corasick build=%.3fs scan=%.3fs "
                 "patterns/s=%.0f checksum=%llu\n",
                 ac_build_seconds, row.wall_seconds, row.patterns_per_second,
                 static_cast<unsigned long long>(row.checksum));
    rows.push_back(std::move(row));
  }

  // ---- Self-guards: fail rather than publish a regression. ----
  for (const Row& row : rows) {
    if (row.checksum != rows[0].checksum) {
      std::fprintf(stderr,
                   "FATAL: occurrence checksum diverges (%s: %llu vs "
                   "%llu) — every arm must answer byte-identically\n",
                   row.arm.c_str(),
                   static_cast<unsigned long long>(row.checksum),
                   static_cast<unsigned long long>(rows[0].checksum));
      return 1;
    }
  }
  const Row& per_pattern = rows[0];
  const Row& dict = rows[1];
  const double speedup = per_pattern.wall_seconds > 0 && dict.wall_seconds > 0
                             ? per_pattern.wall_seconds / dict.wall_seconds
                             : 0;
  std::fprintf(stderr, "dict speedup over per_pattern: %.2fx\n", speedup);
  if (speedup < 1.5) {
    std::fprintf(stderr,
                 "FATAL: dict %.2fx over per_pattern is below the 1.5x "
                 "floor\n",
                 speedup);
    return 1;
  }

  FILE* out = std::fopen("BENCH_dict.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_dict.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"dict_qps\",\n");
  std::fprintf(out, "  \"corpus\": \"generated DNA (seed 42)\",\n");
  std::fprintf(out, "  \"text_mb\": %.2f,\n", text_mb);
  std::fprintf(out, "  \"patterns\": %zu,\n", patterns.size());
  std::fprintf(out,
               "  \"workload\": {\"prefix_groups\": %zu, \"prefix_len\": %zu, "
               "\"min_len\": %zu, \"max_len\": %zu, "
               "\"duplicate_fraction\": %.2f, \"mutant_fraction\": %.2f, "
               "\"straggler_fraction\": %.2f},\n",
               workload.num_prefix_groups, workload.prefix_len,
               workload.min_len, workload.max_len, workload.duplicate_fraction,
               workload.mutant_fraction, workload.straggler_fraction);
  std::fprintf(out,
               "  \"device\": {\"kind\": \"LatencyEnv\", "
               "\"bandwidth_mb_per_s\": %.1f, \"request_latency_us\": %.0f},\n",
               bandwidth_mb, model.read_latency_seconds * 1e6);
  std::fprintf(out, "  \"cache_budget_mb\": %.1f,\n", cache_mb);
  std::fprintf(out, "  \"host_cores\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"aho_corasick_build_seconds\": %.3f,\n",
               ac_build_seconds);
  std::fprintf(out, "  \"runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        out,
        "    {\"arm\": \"%s\", \"wall_seconds\": %.3f, "
        "\"patterns_per_second\": %.1f, \"occurrence_checksum\": %llu, "
        "\"cache_hit_rate\": %.3f, \"queries\": %llu, "
        "\"nodes_visited\": %llu, \"leaves_enumerated\": %llu, "
        "\"trie_resolved_counts\": %llu, \"dict_groups_formed\": %llu, "
        "\"dict_descents_shared\": %llu, \"dict_descents_saved\": %llu, "
        "\"batch_duplicates_folded\": %llu}%s\n",
        r.arm.c_str(), r.wall_seconds, r.patterns_per_second,
        static_cast<unsigned long long>(r.checksum),
        r.cache_hit_rate, static_cast<unsigned long long>(r.stats.queries),
        static_cast<unsigned long long>(r.stats.nodes_visited),
        static_cast<unsigned long long>(r.stats.leaves_enumerated),
        static_cast<unsigned long long>(r.stats.trie_resolved_counts),
        static_cast<unsigned long long>(r.stats.dict_groups_formed),
        static_cast<unsigned long long>(r.stats.dict_descents_shared),
        static_cast<unsigned long long>(r.stats.dict_descents_saved),
        static_cast<unsigned long long>(r.stats.batch_duplicates_folded),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::fprintf(stderr, "wrote BENCH_dict.json\n");
  return 0;
}

}  // namespace
}  // namespace era

int main(int argc, char** argv) { return era::Main(argc, argv); }
