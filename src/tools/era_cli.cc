// era_cli — command-line front end for the library.
//
//   era_cli build  <text-file> <index-dir> [--budget-mb N] [--alphabet dna|
//                  protein|english] [--threads N] [--algorithm era|wavefront]
//                  [--resume] [--no-checkpoint] [--faults SPEC]
//
// --faults injects deterministic failures through io/faulty_env.h. SPEC is
// comma-separated key=value pairs, e.g.
//   --faults=read_transient=0.01,enospc_after=64MB,seed=7
// keys: read_transient / write_transient / short_write (probabilities),
// fail_read_at / fail_write_at / crash_after_writes / torn_write_at / seed
// (1-based call counts), read_permanent / write_permanent (0/1),
// enospc_after (bytes, K/M/G suffixes), path (substring filter).
//
// Exit codes: 0 success, 1 failure, 2 usage error, 3 I/O error, 4 deadline
// exceeded, 5 shed/overloaded — so drills and CI can tell a bad invocation
// from a bad device from an overloaded server.
//   era_cli query  <index-dir> <pattern> [--limit N] [--deadline-ms N]
//   era_cli stats  <index-dir>
//   era_cli inspect <index-dir>           (per-sub-tree sizes and ratio)
//   era_cli verify <index-dir>            (loads text + validates everything)
//   era_cli generate <out-file> <dna|protein|english> <bytes> [seed]
//   era_cli bench-query <index-dir> [--threads N] [--patterns N]
//                  [--cache-mb N] [--seed S]   (replays a sampled workload)
//   era_cli build-collection <index-dir> [--alphabet ...] [--budget-mb N]
//                  [--threads N] [--fasta] [--synthetic N] [--doc-bytes M]
//                  [--seed S] [doc-file ...]   (generalized index + DOCMAP)
//   era_cli doc-query <index-dir> <pattern> [--top K] [--doc NAME]
//   era_cli dict-query <index-dir> --patterns FILE [--top K] [--doc]
//                  [--deadline-ms N]   (batched dictionary matching; --doc
//                  counts distinct documents per pattern)
//
// The text file must be raw symbols; a trailing terminal byte ('~') is
// appended if missing.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "collection/collection_builder.h"
#include "collection/doc_engine.h"
#include "common/metrics.h"
#include "era/era_builder.h"
#include "era/parallel_builder.h"
#include "io/env.h"
#include "io/faulty_env.h"
#include "query/query_engine.h"
#include "query/query_workload.h"
#include "suffixtree/serializer.h"
#include "suffixtree/validator.h"
#include "text/corpus.h"
#include "text/text_generator.h"

namespace era {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  era_cli build  <text-file> <index-dir> [--budget-mb N]\n"
      "                 [--alphabet dna|protein|english] [--threads N]\n"
      "                 [--algorithm era|wavefront] [--cache-budget MB]\n"
      "                 [--no-tile-cache] [--resume] [--no-checkpoint]\n"
      "                 [--faults SPEC]\n"
      "       (--resume skips groups an earlier killed build completed;\n"
      "        --faults injects deterministic failures, e.g.\n"
      "        read_transient=0.01,enospc_after=64MB,seed=7)\n"
      "  era_cli query  <index-dir> <pattern> [--limit N] [--deadline-ms N]\n"
      "                 [--metrics-out FILE] [--trace-out FILE]\n"
      "  era_cli stats  <index-dir>\n"
      "  era_cli inspect <index-dir>\n"
      "  era_cli verify <index-dir>\n"
      "  era_cli generate <out-file> <dna|protein|english> <bytes> [seed]\n"
      "  era_cli bench-query <index-dir> [--threads N] [--patterns N]\n"
      "                 [--cache-mb N] [--seed S] [--metrics-out FILE]\n"
      "                 [--trace-out FILE]\n"
      "       (--metrics-out writes the registry snapshot: Prometheus text,\n"
      "        or JSON when FILE ends in .json; --trace-out writes the last\n"
      "        traces as chrome://tracing JSON)\n"
      "  era_cli build-collection <index-dir> [--alphabet dna|protein|\n"
      "                 english] [--budget-mb N] [--threads N] [--fasta]\n"
      "                 [--synthetic N] [--doc-bytes M] [--seed S]\n"
      "                 [doc-file ...]\n"
      "       (each doc-file is one document; with --fasta every record of\n"
      "        every file becomes a document; --synthetic N generates N\n"
      "        documents of ~M bytes)\n"
      "  era_cli doc-query <index-dir> <pattern> [--top K] [--doc NAME]\n"
      "                 [--deadline-ms N] [--metrics-out FILE]\n"
      "                 [--trace-out FILE]\n"
      "  era_cli dict-query <index-dir> --patterns FILE [--top K] [--doc]\n"
      "                 [--deadline-ms N] [--metrics-out FILE]\n"
      "                 [--trace-out FILE]\n"
      "       (FILE holds one pattern per line; the whole set is answered\n"
      "        in one shared-descent pass. --doc reports distinct matching\n"
      "        documents per pattern instead of occurrence counts)\n");
  return 2;
}

/// A bad invocation: prints the error, then the usage, and exits 2.
int BadUsage(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return Usage();
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  // Distinct exit codes so scripts can separate "device/file problem"
  // (exit 3, retryable, maybe --resume), "deadline exceeded" (exit 4, the
  // query was too slow, not wrong) and "shed/overloaded" (exit 5, retry
  // elsewhere or later) from logic failures (exit 1).
  if (status.IsDeadlineExceeded()) return 4;
  if (status.IsResourceExhausted()) return 5;
  return status.IsIOError() ? 3 : 1;
}

StatusOr<Alphabet> ParseAlphabet(const std::string& name) {
  if (name == "dna") return Alphabet::Dna();
  if (name == "protein") return Alphabet::Protein();
  if (name == "english") return Alphabet::English();
  return Status::InvalidArgument("unknown alphabet: " + name);
}

/// Returns the value of --flag from args (either "--flag value" or
/// "--flag=value"), or `fallback` when the flag is absent. A flag that ends
/// the argument list has the empty value.
std::string FlagValue(const std::vector<std::string>& args,
                      const std::string& flag, const std::string& fallback) {
  const std::string prefix = flag + "=";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == flag) return i + 1 < args.size() ? args[i + 1] : "";
    if (args[i].compare(0, prefix.size(), prefix) == 0) {
      return args[i].substr(prefix.size());
    }
  }
  return fallback;
}

/// Parses `token`, the value of `what`, as a whole unsigned decimal of at
/// least `min`, scaled by 2^shift (kMiB: megabytes to bytes). The rule is
/// the MANIFEST parser's: one std::from_chars over the entire token. An
/// empty, signed, non-numeric or trailing-junk value, one below `min`, and
/// one that overflows T (also after the shift) are InvalidArgument.
template <typename T>
Status ParseNumber(const std::string& what, const std::string& token, T* out,
                   std::type_identity_t<T> min = 0, unsigned shift = 0) {
  T value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end || value < min ||
      value > (std::numeric_limits<T>::max() >> shift)) {
    return Status::InvalidArgument(
        what + " expects an integer in [" + std::to_string(min) + ", " +
        std::to_string(std::numeric_limits<T>::max() >> shift) + "], got '" +
        token + "'");
  }
  *out = value << shift;
  return Status::OK();
}

constexpr unsigned kMiB = 20;

/// Reads a subcommand's numeric flags through ParseNumber, keeping the first
/// error: chain Get() calls, then check status().
class NumberFlags {
 public:
  explicit NumberFlags(const std::vector<std::string>& args) : args_(args) {}

  /// Parses --flag (or `fallback` when it is absent) into `*out`.
  template <typename T>
  NumberFlags& Get(const std::string& flag, const std::string& fallback,
                   T* out, std::type_identity_t<T> min = 0,
                   unsigned shift = 0) {
    if (status_.ok()) {
      status_ = ParseNumber(flag, FlagValue(args_, flag, fallback), out, min,
                            shift);
    }
    return *this;
  }

  const Status& status() const { return status_; }

 private:
  const std::vector<std::string>& args_;
  Status status_;
};

bool HasFlag(const std::vector<std::string>& args, const std::string& flag) {
  for (const std::string& arg : args) {
    if (arg == flag) return true;
  }
  return false;
}

/// The caller's --deadline-ms as a QueryContext (no deadline when zero).
/// The clock starts here — callers build it after opening the index, so the
/// deadline covers the query itself, matching a server that admits after
/// startup.
QueryContext ContextWithDeadline(uint64_t deadline_ms) {
  if (deadline_ms == 0) return QueryContext::Background();
  return QueryContext::WithTimeout(static_cast<double>(deadline_ms) / 1000.0);
}

/// Registry-backed degradation printer — the single place the CLI's failure
/// paths (query, doc-query, bench-query) report serving state from. Snapshots
/// the global registry; if any degradation counter is nonzero, prints every
/// nonzero serving/doc-serving sample, so shed and quarantine and deadline
/// counters all surface through one code path. Prints nothing on a healthy
/// run, keeping the happy path clean.
void PrintDegradation() {
  static const char* const kTriggers[] = {
      "era_serving_shed_total",
      "era_serving_deadline_exceeded_total",
      "era_serving_cancelled_total",
      "era_serving_deadline_evicted_total",
      "era_query_unavailable_queries_total",
      "era_query_quarantined_subtrees",
      "era_doc_unavailable_queries_total",
      "era_doc_deadline_exceeded_total",
      "era_doc_shed_total",
  };
  const std::vector<MetricSample> samples =
      MetricsRegistry::Global()->Snapshot();
  bool degraded = false;
  for (const MetricSample& sample : samples) {
    for (const char* name : kTriggers) {
      if (sample.name == name && sample.value != 0) {
        degraded = true;
        break;
      }
    }
    if (degraded) break;
  }
  if (!degraded) return;
  std::printf("serving degradation (registry snapshot):\n");
  for (const MetricSample& sample : samples) {
    const bool relevant =
        sample.name.rfind("era_serving_", 0) == 0 ||
        sample.name.rfind("era_doc_", 0) == 0 ||
        sample.name == "era_query_unavailable_queries_total" ||
        sample.name == "era_query_quarantined_subtrees" ||
        sample.name == "era_query_subtree_load_failures_total";
    if (!relevant || sample.kind == MetricKind::kHistogram ||
        sample.value == 0) {
      continue;
    }
    const std::string labels = RenderLabels(sample.labels);
    if (labels.empty()) {
      std::printf("  %s %.0f\n", sample.name.c_str(), sample.value);
    } else {
      std::printf("  %s{%s} %.0f\n", sample.name.c_str(), labels.c_str(),
                  sample.value);
    }
  }
}

/// Writes the global registry snapshot to `path`: JSON when the filename
/// ends in .json, Prometheus text exposition otherwise. Empty path no-ops.
Status WriteMetricsOut(const std::string& path) {
  if (path.empty()) return Status::OK();
  MetricsRegistry* registry = MetricsRegistry::Global();
  const bool json = path.size() >= 5 &&
                    path.compare(path.size() - 5, 5, ".json") == 0;
  return GetDefaultEnv()->WriteFile(
      path, json ? registry->ExportJson() : registry->ExportPrometheus());
}

/// Writes the engine's recent traces as chrome://tracing JSON. Empty path
/// no-ops; a null tracer (tracing was not enabled) is an error because the
/// caller explicitly asked for traces.
Status WriteTraceOut(const std::string& path, TraceRecorder* tracer) {
  if (path.empty()) return Status::OK();
  if (tracer == nullptr) {
    return Status::InvalidArgument("--trace-out requires tracing (internal)");
  }
  return GetDefaultEnv()->WriteFile(path, tracer->ExportChromeTracing());
}

int CmdBuild(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  Env* env = GetDefaultEnv();
  const std::string text_path = args[0];
  const std::string index_dir = args[1];

  auto alphabet_or = ParseAlphabet(FlagValue(args, "--alphabet", "dna"));
  if (!alphabet_or.ok()) return Fail(alphabet_or.status());
  Alphabet alphabet = *alphabet_or;
  uint64_t budget = 0;
  unsigned threads = 0;
  uint64_t cache_budget = 0;
  const Status flags = NumberFlags(args)
                           .Get("--budget-mb", "64", &budget, 0, kMiB)
                           .Get("--threads", "1", &threads, 1)
                           .Get("--cache-budget", "0", &cache_budget, 0, kMiB)
                           .status();
  if (!flags.ok()) return BadUsage(flags);
  const std::string algorithm = FlagValue(args, "--algorithm", "era");
  if (algorithm != "era" && algorithm != "wavefront") {
    return BadUsage(Status::InvalidArgument(
        "unknown --algorithm " + algorithm + " (expected era or wavefront)"));
  }
  const bool tile_cache = !HasFlag(args, "--no-tile-cache");

  // Fault injection: wrap the whole build's filesystem in a FaultyEnv so
  // the drill exercises the same code paths production failures would.
  std::unique_ptr<FaultyEnv> faulty;
  const std::string fault_spec = FlagValue(args, "--faults", "");
  if (!fault_spec.empty()) {
    auto spec = ParseFaultSpec(fault_spec);
    if (!spec.ok()) return Fail(spec.status());
    faulty = std::make_unique<FaultyEnv>(env, *spec);
    env = faulty.get();
  }

  // Ensure the text ends with the terminal.
  std::string text;
  if (Status s = env->ReadFileToString(text_path, &text); !s.ok()) {
    return Fail(s);
  }
  std::string effective_path = text_path;
  if (text.empty() || text.back() != kTerminal) {
    text.push_back(kTerminal);
    effective_path = text_path + ".era";
    if (Status s = env->WriteFile(effective_path, text); !s.ok()) {
      return Fail(s);
    }
    std::printf("appended terminal; indexing %s\n", effective_path.c_str());
  }
  if (Status s = alphabet.ValidateText(text); !s.ok()) return Fail(s);

  TextInfo info;
  info.path = effective_path;
  info.length = text.size();
  info.alphabet = alphabet;

  BuildOptions options;
  options.work_dir = index_dir;
  options.memory_budget = budget;
  options.tile_cache = tile_cache;
  options.tile_cache_budget_bytes = cache_budget;
  options.env = env;
  options.resume = HasFlag(args, "--resume");
  options.checkpoint = !HasFlag(args, "--no-checkpoint");

  ParallelBuilder builder(options, threads,
                          algorithm == "wavefront"
                              ? ParallelAlgorithm::kWaveFront
                              : ParallelAlgorithm::kEra);
  auto result = builder.Build(info);
  if (faulty != nullptr) {
    std::printf("faults: %s\n", faulty->stats().ToString().c_str());
  }
  if (!result.ok()) return Fail(result.status());
  const BuildStats& stats = result->stats;
  std::printf("%s\n", stats.ToString().c_str());
  const std::string phase_table = FormatPhaseTable(stats.phases);
  if (!phase_table.empty()) std::printf("%s", phase_table.c_str());
  std::printf(
      "io: amplification=%.2fx (%llu MB device reads / %llu MB text)\n"
      "tile cache: hit_rate=%.3f (%llu hits, %llu misses, %llu MB from "
      "device, %llu MB evicted)\n",
      stats.io_amplification(),
      static_cast<unsigned long long>(stats.io.bytes_read >> 20),
      static_cast<unsigned long long>(stats.text_bytes >> 20),
      stats.tile_hit_rate(),
      static_cast<unsigned long long>(stats.io.tile_hits),
      static_cast<unsigned long long>(stats.io.tile_misses),
      static_cast<unsigned long long>(stats.io.tile_device_bytes >> 20),
      static_cast<unsigned long long>(stats.io.tile_evicted_bytes >> 20));
  return 0;
}

int CmdQuery(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  std::size_t limit = 0;
  uint64_t deadline_ms = 0;
  const Status flags = NumberFlags(args)
                           .Get("--limit", "10", &limit)
                           .Get("--deadline-ms", "0", &deadline_ms)
                           .status();
  if (!flags.ok()) return BadUsage(flags);
  const std::string metrics_out = FlagValue(args, "--metrics-out", "");
  const std::string trace_out = FlagValue(args, "--trace-out", "");
  QueryEngineOptions options;
  options.trace.enabled = !trace_out.empty();
  auto engine = QueryEngine::Open(GetDefaultEnv(), args[0], options);
  if (!engine.ok()) return Fail(engine.status());
  const QueryContext ctx = ContextWithDeadline(deadline_ms);

  // Exports run on success AND failure: a shed or timed-out query is
  // exactly when the operator wants the metrics file.
  auto finish = [&](int code) {
    if (Status s = WriteMetricsOut(metrics_out); !s.ok()) return Fail(s);
    if (Status s = WriteTraceOut(trace_out, (*engine)->tracer()); !s.ok()) {
      return Fail(s);
    }
    return code;
  };

  auto count = (*engine)->Count(ctx, args[1]);
  if (!count.ok()) {
    PrintDegradation();
    return finish(Fail(count.status()));
  }
  auto hits = (*engine)->Locate(ctx, args[1], limit);
  if (!hits.ok()) {
    PrintDegradation();
    return finish(Fail(hits.status()));
  }
  std::printf("%llu occurrence(s)", static_cast<unsigned long long>(*count));
  if (!hits->empty()) {
    std::printf("; first %zu:", hits->size());
    for (uint64_t h : *hits) {
      std::printf(" %llu", static_cast<unsigned long long>(h));
    }
  }
  std::printf("\n");
  return finish(0);
}

int CmdStats(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  auto index = TreeIndex::Load(GetDefaultEnv(), args[0]);
  if (!index.ok()) return Fail(index.status());
  std::printf("text: %s (%llu symbols incl. terminal)\n",
              index->text().path.c_str(),
              static_cast<unsigned long long>(index->text().length));
  std::printf("alphabet: %s (+terminal)\n",
              index->text().alphabet.symbols().c_str());
  std::printf("sub-trees: %zu\n", index->subtrees().size());
  std::printf("indexed suffixes: %llu\n",
              static_cast<unsigned long long>(index->TotalSuffixes()));
  std::printf("trie nodes: %u (%llu bytes)\n", index->trie().size(),
              static_cast<unsigned long long>(index->trie().MemoryBytes()));
  uint64_t max_freq = 0;
  for (const auto& entry : index->subtrees()) {
    max_freq = std::max(max_freq, entry.frequency);
  }
  std::printf("largest sub-tree: %llu leaves\n",
              static_cast<unsigned long long>(max_freq));
  return 0;
}

int CmdInspect(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  Env* env = GetDefaultEnv();
  auto index = TreeIndex::Load(env, args[0]);
  if (!index.ok()) return Fail(index.status());

  std::printf("%-6s %-9s %10s %12s %12s %12s %12s %14s %6s\n", "id",
              "prefix", "nodes", "int_rec", "leaf_rec", "disk_bytes",
              "serve_bytes", "inflated_bytes", "ratio");
  uint64_t total_disk = 0;
  uint64_t total_serving = 0;
  uint64_t total_inflated = 0;
  uint64_t total_nodes = 0;
  uint64_t total_internal_records = 0;
  uint64_t total_leaf_records = 0;
  for (uint32_t id = 0; id < index->subtrees().size(); ++id) {
    const SubTreeEntry& entry = index->subtrees()[id];
    auto info = InspectSubTreeFile(env, index->dir() + "/" + entry.filename);
    if (!info.ok()) return Fail(info.status());
    const double ratio =
        info->serving_bytes == 0
            ? 0.0
            : static_cast<double>(info->inflated_bytes) / info->serving_bytes;
    std::printf("%-6u %-9s %10llu %12llu %12llu %12llu %12llu %14llu %5.2fx\n",
                id, entry.prefix.c_str(),
                static_cast<unsigned long long>(info->node_count),
                static_cast<unsigned long long>(info->internal_record_bytes),
                static_cast<unsigned long long>(info->leaf_record_bytes),
                static_cast<unsigned long long>(info->file_bytes),
                static_cast<unsigned long long>(info->serving_bytes),
                static_cast<unsigned long long>(info->inflated_bytes), ratio);
    total_disk += info->file_bytes;
    total_serving += info->serving_bytes;
    total_inflated += info->inflated_bytes;
    total_nodes += info->node_count;
    total_internal_records += info->internal_record_bytes;
    total_leaf_records += info->leaf_record_bytes;
  }
  const double total_ratio =
      total_serving == 0
          ? 0.0
          : static_cast<double>(total_inflated) / total_serving;
  std::printf(
      "total: %zu sub-trees, %llu nodes, %llu disk bytes (%llu internal + "
      "%llu leaf record bytes), %llu serving bytes (%.2fx vs %llu "
      "inflated), %.2f bytes/node resident\n",
      index->subtrees().size(), static_cast<unsigned long long>(total_nodes),
      static_cast<unsigned long long>(total_disk),
      static_cast<unsigned long long>(total_internal_records),
      static_cast<unsigned long long>(total_leaf_records),
      static_cast<unsigned long long>(total_serving), total_ratio,
      static_cast<unsigned long long>(total_inflated),
      total_nodes == 0 ? 0.0
                       : static_cast<double>(total_serving) / total_nodes);
  return 0;
}

int CmdVerify(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  Env* env = GetDefaultEnv();
  auto index = TreeIndex::Load(env, args[0]);
  if (!index.ok()) return Fail(index.status());
  std::string text;
  if (Status s = env->ReadFileToString(index->text().path, &text); !s.ok()) {
    return Fail(s);
  }
  if (Status s = ValidateIndex(env, *index, text); !s.ok()) {
    std::printf("INVALID: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("OK: %zu sub-trees, %llu suffixes, all invariants hold\n",
              index->subtrees().size(),
              static_cast<unsigned long long>(index->TotalSuffixes()));
  return 0;
}

int CmdBenchQuery(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  Env* env = GetDefaultEnv();

  unsigned threads = 0;
  QueryWorkloadOptions workload_options;
  QueryEngineOptions engine_options;
  const Status flags =
      NumberFlags(args)
          .Get("--threads", "4", &threads, 1)
          .Get("--patterns", "2000", &workload_options.num_patterns)
          .Get("--seed", "42", &workload_options.seed)
          .Get("--cache-mb", "64", &engine_options.cache.budget_bytes, 0, kMiB)
          .status();
  if (!flags.ok()) return BadUsage(flags);

  const std::string metrics_out = FlagValue(args, "--metrics-out", "");
  const std::string trace_out = FlagValue(args, "--trace-out", "");
  engine_options.trace.enabled = !trace_out.empty();

  auto engine = QueryEngine::Open(env, args[0], engine_options);
  if (!engine.ok()) return Fail(engine.status());

  std::string text;
  if (Status s = env->ReadFileToString((*engine)->index().text().path, &text);
      !s.ok()) {
    return Fail(s);
  }
  std::vector<std::string> patterns =
      SamplePatternWorkload(text, workload_options);
  text.clear();

  auto replay = ReplayWorkload(engine->get(), patterns, threads,
                               workload_options);
  if (!replay.ok()) {
    PrintDegradation();
    return Fail(replay.status());
  }

  TreeIndex::CacheSnapshot cache = (*engine)->cache();
  const uint64_t lookups = cache.hits + cache.misses;
  QueryStats stats = (*engine)->stats();
  std::printf(
      "threads=%u queries=%llu (count=%llu locate=%llu) wall=%.3fs "
      "qps=%.0f\n",
      threads, static_cast<unsigned long long>(replay->queries),
      static_cast<unsigned long long>(replay->count_queries),
      static_cast<unsigned long long>(replay->locate_queries),
      replay->wall_seconds, replay->qps);
  std::printf(
      "cache: hit_rate=%.3f hits=%llu misses=%llu evictions=%llu "
      "evicted=%lluB resident=%lluB/%llu trees\n",
      lookups == 0 ? 0.0 : static_cast<double>(cache.hits) / lookups,
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses),
      static_cast<unsigned long long>(cache.evictions),
      static_cast<unsigned long long>(cache.evicted_bytes),
      static_cast<unsigned long long>(cache.resident_bytes),
      static_cast<unsigned long long>(cache.resident_trees));
  std::printf(
      "work: nodes_visited=%llu label_fetches=%llu leaves_enumerated=%llu "
      "trie_resolved_counts=%llu checksum=%llu\n",
      static_cast<unsigned long long>(stats.nodes_visited),
      static_cast<unsigned long long>(stats.label_fetches),
      static_cast<unsigned long long>(stats.leaves_enumerated),
      static_cast<unsigned long long>(stats.trie_resolved_counts),
      static_cast<unsigned long long>(replay->occurrence_checksum));
  std::printf("latency: p50=%.3fms p90=%.3fms p99=%.3fms\n", replay->p50_ms,
              replay->p90_ms, replay->p99_ms);
  PrintDegradation();
  if (Status s = WriteMetricsOut(metrics_out); !s.ok()) return Fail(s);
  if (Status s = WriteTraceOut(trace_out, (*engine)->tracer()); !s.ok()) {
    return Fail(s);
  }
  return 0;
}

int CmdBuildCollection(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  Env* env = GetDefaultEnv();
  const std::string index_dir = args[0];

  auto alphabet_or = ParseAlphabet(FlagValue(args, "--alphabet", "dna"));
  if (!alphabet_or.ok()) return Fail(alphabet_or.status());

  CollectionBuildOptions options;
  options.build.work_dir = index_dir;
  std::size_t synthetic = 0;
  std::size_t doc_bytes = 0;
  uint64_t seed = 0;
  const Status flags =
      NumberFlags(args)
          .Get("--budget-mb", "64", &options.build.memory_budget, 0, kMiB)
          .Get("--threads", "1", &options.num_workers, 1)
          .Get("--synthetic", "0", &synthetic)
          .Get("--doc-bytes", "65536", &doc_bytes)
          .Get("--seed", "42", &seed)
          .status();
  if (!flags.ok()) return BadUsage(flags);
  bool fasta = false;
  for (const std::string& arg : args) {
    if (arg == "--fasta") fasta = true;
  }

  // Positional document files: everything after the index dir that is not a
  // flag or a flag's value, in either form FlagValue reads ("--flag value"
  // or "--flag=value").
  std::vector<std::string> doc_files;
  const std::vector<std::string> value_flags = {
      "--alphabet", "--budget-mb", "--threads",
      "--synthetic", "--doc-bytes", "--seed"};
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--fasta") continue;
    const auto flag = std::find_if(
        value_flags.begin(), value_flags.end(), [&](const std::string& f) {
          return args[i] == f || args[i].starts_with(f + "=");
        });
    if (flag == value_flags.end()) {
      doc_files.push_back(args[i]);
    } else if (args[i] == *flag) {
      ++i;  // skip the flag's value
    }
  }

  CollectionBuilder builder(*alphabet_or, options);
  if (synthetic > 0) {
    if (Status s = builder.AddSyntheticDocuments(synthetic, doc_bytes, seed);
        !s.ok()) {
      return Fail(s);
    }
  }
  for (const std::string& file : doc_files) {
    Status s = fasta
                   ? builder.AddFastaFile(env, file, FastaCleanPolicy::kSkip)
                   : builder.AddTextFile(env, file);
    if (!s.ok()) return Fail(s);
  }
  if (builder.num_documents() == 0) {
    std::fprintf(stderr, "no documents (give doc files or --synthetic N)\n");
    return Usage();
  }

  auto result = builder.Build();
  if (!result.ok()) return Fail(result.status());
  std::printf("collection: %u documents, %llu document bytes\n",
              result->documents.num_documents(),
              static_cast<unsigned long long>(
                  result->documents.TotalDocumentBytes()));
  std::printf("%s\n", result->stats.ToString().c_str());
  return 0;
}

/// doc-query's failure path: the unified registry-snapshot printer (doc and
/// engine degradation counters flow through the same registry), then the
/// status-mapped exit code.
int FailDocQuery(const Status& status) {
  PrintDegradation();
  return Fail(status);
}

int CmdDocQuery(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  std::size_t top = 0;
  uint64_t deadline_ms = 0;
  const Status flags = NumberFlags(args)
                           .Get("--top", "5", &top)
                           .Get("--deadline-ms", "0", &deadline_ms)
                           .status();
  if (!flags.ok()) return BadUsage(flags);
  const std::string metrics_out = FlagValue(args, "--metrics-out", "");
  const std::string trace_out = FlagValue(args, "--trace-out", "");
  QueryEngineOptions options;
  options.trace.enabled = !trace_out.empty();
  auto engine = DocEngine::Open(GetDefaultEnv(), args[0], options);
  if (!engine.ok()) return Fail(engine.status());
  const std::string& pattern = args[1];
  const QueryContext ctx = ContextWithDeadline(deadline_ms);

  auto finish = [&](int code) {
    if (Status s = WriteMetricsOut(metrics_out); !s.ok()) return Fail(s);
    if (Status s = WriteTraceOut(trace_out, (*engine)->engine().tracer());
        !s.ok()) {
      return Fail(s);
    }
    return code;
  };

  auto histogram = (*engine)->DocumentHistogram(ctx, pattern);
  if (!histogram.ok()) return finish(FailDocQuery(histogram.status()));
  uint64_t occurrences = 0;
  for (const DocHit& hit : *histogram) occurrences += hit.occurrences;
  std::printf("%zu of %u documents match (%llu occurrences)\n",
              histogram->size(), (*engine)->documents().num_documents(),
              static_cast<unsigned long long>(occurrences));
  for (const DocHit& hit : TopKFromHistogram(*histogram, top)) {
    std::printf("  %-40s %llu\n",
                (*engine)->documents().document(hit.doc_id).name.c_str(),
                static_cast<unsigned long long>(hit.occurrences));
  }

  const std::string doc_name = FlagValue(args, "--doc", "");
  if (!doc_name.empty()) {
    auto doc_id = (*engine)->documents().FindDocument(doc_name);
    if (!doc_id.ok()) return Fail(doc_id.status());
    auto local = (*engine)->LocateInDoc(ctx, pattern, *doc_id);
    if (!local.ok()) return finish(FailDocQuery(local.status()));
    std::printf("%s: %zu occurrence(s)", doc_name.c_str(), local->size());
    const std::size_t shown = std::min<std::size_t>(local->size(), 20);
    if (shown > 0) {
      std::printf("; first %zu:", shown);
      for (std::size_t i = 0; i < shown; ++i) {
        std::printf(" %llu", static_cast<unsigned long long>((*local)[i]));
      }
    }
    std::printf("\n");
  }
  return finish(0);
}

int CmdDictQuery(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  Env* env = GetDefaultEnv();
  const std::string patterns_file = FlagValue(args, "--patterns", "");
  if (patterns_file.empty()) {
    std::fprintf(stderr, "dict-query needs --patterns FILE\n");
    return Usage();
  }
  std::size_t top = 0;
  uint64_t deadline_ms = 0;
  const Status flags = NumberFlags(args)
                           .Get("--top", "5", &top)
                           .Get("--deadline-ms", "0", &deadline_ms)
                           .status();
  if (!flags.ok()) return BadUsage(flags);
  const std::string metrics_out = FlagValue(args, "--metrics-out", "");
  const std::string trace_out = FlagValue(args, "--trace-out", "");
  const bool doc_mode = HasFlag(args, "--doc");

  // One pattern per line; blank lines (and trailing \r) are skipped so both
  // Unix and DOS files work.
  std::string blob;
  if (Status s = env->ReadFileToString(patterns_file, &blob); !s.ok()) {
    return Fail(s);
  }
  std::vector<std::string> patterns;
  for (std::size_t start = 0; start < blob.size();) {
    std::size_t end = blob.find('\n', start);
    if (end == std::string::npos) end = blob.size();
    std::string line = blob.substr(start, end - start);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) patterns.push_back(std::move(line));
    start = end + 1;
  }
  blob.clear();
  if (patterns.empty()) {
    std::fprintf(stderr, "no patterns in %s\n", patterns_file.c_str());
    return 2;
  }

  QueryEngineOptions options;
  options.trace.enabled = !trace_out.empty();
  std::unique_ptr<DocEngine> doc_engine;
  std::unique_ptr<QueryEngine> plain_engine;
  QueryEngine* engine = nullptr;
  if (doc_mode) {
    auto opened = DocEngine::Open(env, args[0], options);
    if (!opened.ok()) return Fail(opened.status());
    doc_engine = std::move(*opened);
    engine = &doc_engine->engine();
  } else {
    auto opened = QueryEngine::Open(env, args[0], options);
    if (!opened.ok()) return Fail(opened.status());
    plain_engine = std::move(*opened);
    engine = plain_engine.get();
  }
  const QueryContext ctx = ContextWithDeadline(deadline_ms);

  auto finish = [&](int code) {
    if (Status s = WriteMetricsOut(metrics_out); !s.ok()) return Fail(s);
    if (Status s = WriteTraceOut(trace_out, engine->tracer()); !s.ok()) {
      return Fail(s);
    }
    return code;
  };

  // Per-item statuses and counts, unified across the two modes.
  std::vector<Status> statuses(patterns.size(), Status::OK());
  std::vector<uint64_t> counts(patterns.size(), 0);
  if (doc_mode) {
    auto outcomes = doc_engine->CountDocsDictionary(ctx, patterns);
    if (!outcomes.ok()) {
      PrintDegradation();
      return finish(Fail(outcomes.status()));
    }
    for (std::size_t i = 0; i < outcomes->size(); ++i) {
      statuses[i] = (*outcomes)[i].status;
      counts[i] = (*outcomes)[i].count;
    }
  } else {
    auto outcomes = engine->MatchDictionary(ctx, patterns);
    if (!outcomes.ok()) {
      PrintDegradation();
      return finish(Fail(outcomes.status()));
    }
    for (std::size_t i = 0; i < outcomes->size(); ++i) {
      statuses[i] = (*outcomes)[i].status;
      counts[i] = (*outcomes)[i].count;
    }
  }

  std::size_t answered = 0, matched = 0, failed = 0;
  uint64_t total = 0;
  const Status* terminal = nullptr;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    if (statuses[i].ok()) {
      ++answered;
      if (counts[i] > 0) ++matched;
      total += counts[i];
    } else {
      ++failed;
      if (terminal == nullptr && (statuses[i].IsDeadlineExceeded() ||
                                  statuses[i].IsCancelled())) {
        terminal = &statuses[i];
      }
    }
  }
  std::printf("%zu pattern(s): %zu answered, %zu matched, %zu failed; "
              "total %s=%llu\n",
              patterns.size(), answered, matched, failed,
              doc_mode ? "matching_docs" : "occurrences",
              static_cast<unsigned long long>(total));
  if (top > 0 && matched > 0) {
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      if (statuses[i].ok() && counts[i] > 0) order.push_back(i);
    }
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                if (counts[a] != counts[b]) return counts[a] > counts[b];
                return patterns[a] < patterns[b];
              });
    if (order.size() > top) order.resize(top);
    std::printf("top %zu:\n", order.size());
    for (std::size_t i : order) {
      std::printf("  %-40s %llu\n", patterns[i].c_str(),
                  static_cast<unsigned long long>(counts[i]));
    }
  }
  const QueryStats stats = engine->stats();
  std::printf("dict: groups=%llu shared_descents=%llu descents_saved=%llu "
              "duplicates_folded=%llu\n",
              static_cast<unsigned long long>(stats.dict_groups_formed),
              static_cast<unsigned long long>(stats.dict_descents_shared),
              static_cast<unsigned long long>(stats.dict_descents_saved),
              static_cast<unsigned long long>(stats.batch_duplicates_folded));
  PrintDegradation();
  // A mid-dictionary deadline/cancellation is reported with the same exit
  // codes as a single query that hit it (4/5), after the partial results.
  if (terminal != nullptr) return finish(Fail(*terminal));
  return finish(0);
}

int CmdGenerate(const std::vector<std::string>& args) {
  if (args.size() < 3) return Usage();
  uint64_t bytes = 0;
  uint64_t seed = 42;
  Status parsed = ParseNumber("generate <bytes>", args[2], &bytes);
  if (parsed.ok() && args.size() > 3) {
    parsed = ParseNumber("generate [seed]", args[3], &seed);
  }
  if (!parsed.ok()) return BadUsage(parsed);
  std::string text;
  if (args[1] == "dna") {
    text = GenerateDna(bytes, seed);
  } else if (args[1] == "protein") {
    text = GenerateProtein(bytes, seed);
  } else if (args[1] == "english") {
    text = GenerateEnglish(bytes, seed);
  } else {
    return Usage();
  }
  if (Status s = GetDefaultEnv()->WriteFile(args[0], text); !s.ok()) {
    return Fail(s);
  }
  std::printf("wrote %zu bytes (terminal included) to %s\n", text.size(),
              args[0].c_str());
  return 0;
}

}  // namespace
}  // namespace era

int main(int argc, char** argv) {
  if (argc < 2) return era::Usage();
  std::vector<std::string> args(argv + 2, argv + argc);
  std::string command = argv[1];
  if (command == "build") return era::CmdBuild(args);
  if (command == "query") return era::CmdQuery(args);
  if (command == "stats") return era::CmdStats(args);
  if (command == "inspect") return era::CmdInspect(args);
  if (command == "verify") return era::CmdVerify(args);
  if (command == "generate") return era::CmdGenerate(args);
  if (command == "bench-query") return era::CmdBenchQuery(args);
  if (command == "build-collection") return era::CmdBuildCollection(args);
  if (command == "doc-query") return era::CmdDocQuery(args);
  if (command == "dict-query") return era::CmdDictQuery(args);
  return era::Usage();
}
