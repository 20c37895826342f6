// era_bench: runs one benchmark workload per process.
//
//   era_bench --workload=NAME [--seed=S] [--seconds=T] [--work=DIR]
//             [--trace=DIR]
//   era_bench --list
//
// One process per workload, so ru_maxrss belongs to that workload. The
// corpus and the query streams derive from --seed; the library only sees
// the generated inputs, and every workload runs BuildOptions /
// QueryEngineOptions defaults except the values in kWorkloads. All device
// traffic goes through LatencyEnv (96 MiB/s, 200 us per request, unbounded
// queue) over real files in a private directory under --work.
//
// Output: one `workload metric value unit` line per metric, then, as the
// last line, a JSON object with the keys correct, attempted, failed and
// metrics. An untraced run reports the end-to-end metrics. A --trace run
// spends half its timed phase untraced and half through TracingEnv with
// engine tracing on, reports the per-layer ledger instead, and writes
// DIR/<workload>.json for chrome://tracing. Every answer is checked against
// the SA-IS oracle after the timed phase; a wrong one sets "correct": false
// and exits 1.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "benchmark/oracle.h"
#include "benchmark/tracing_env.h"
#include "common/timer.h"
#include "era/parallel_builder.h"
#include "io/latency_env.h"
#include "query/query_engine.h"
#include "query/query_workload.h"
#include "text/corpus.h"
#include "text/text_generator.h"

namespace era {
namespace benchmark {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kKiB = 1 << 10;
constexpr uint64_t kMiB = 1 << 20;
/// Setups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// ERA workers of every build; each gets budget / workers.
constexpr unsigned kBuildWorkers = 2;
/// Closed-loop clients of the serving workloads (the host has 4 cores).
constexpr unsigned kClients = 4;
/// Patterns sampled for the query workloads; a longer run wraps around.
constexpr std::size_t kQueryPatterns = 1 << 15;
constexpr std::size_t kDictBatchPatterns = 256;

enum class Kind { kBuild, kQuery, kDict };

struct Workload {
  const char* name;
  Kind kind;
  uint64_t text_bytes;    // generated DNA symbols, terminal excluded
  uint64_t budget_bytes;  // BuildOptions::memory_budget of every build
  uint64_t cache_bytes;   // sub-tree cache of the serving engine
  bool warm;              // open every sub-tree before timing
  double tail_quantile;   // tail_ms: the highest percentile the run's
                          // sample count supports (1.0 = slowest build)
};

// README.md gives the reason for each workload. Sizes keep one run near
// --seconds on a 4-core host.
constexpr Workload kWorkloads[] = {
    {"build_incore", Kind::kBuild, 2 * kMiB, 32 * kMiB, 0, false, 1.0},
    {"build_external", Kind::kBuild, 256 * kKiB, 512 * kKiB, 0, false, 1.0},
    {"query_cold", Kind::kQuery, 1 * kMiB, 16 * kMiB, 6 * kMiB, false, 0.99},
    {"query_hot", Kind::kQuery, 1 * kMiB, 16 * kMiB, 512 * kMiB, true, 0.99},
    {"dict_batch", Kind::kDict, 1 * kMiB, 16 * kMiB, 512 * kMiB, true, 0.9},
};

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"p50_ms", "ms"},
    {"tail_ms", "ms"},
    {"peak_rss_mb", "MiB"},
    {"index_bytes_per_text_byte", "ratio"},
};

// Per-layer ledger of a traced run. "Per op" means per build on build_*,
// per query on query_*, per batch on dict_batch. On the serving workloads
// era.*, io.tile.*, io.prefetch.*, io.write.* and io.sync.* describe the
// setup's index build. A layer a workload does not exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    {"era.prepare.busy_s", "s"},
    {"era.build_subtree.busy_s", "s"},
    {"era.vertical.busy_s", "s"},
    {"era.write.busy_s", "s"},
    {"era.prepare.rounds", "count"},
    {"era.worker_busy_frac", "frac"},
    {"era.unattributed_frac", "frac"},
    {"era.peak_tree_mb", "MiB"},
    {"io.tile.hit_rate", "frac"},
    {"io.prefetch.hit_rate", "frac"},
    {"io.write.mb", "MiB"},
    {"io.write.ops", "count"},
    {"io.write.wait_s", "s"},
    {"io.sync.ops", "count"},
    {"io.read.mb", "MiB"},
    {"io.read.ops", "count"},
    {"io.read.wait_s", "s"},
    {"io.read_amplification", "ratio"},
    {"proc.rss_over_budget", "ratio"},
    {"suffixtree.cache.hit_rate", "frac"},
    {"suffixtree.cache.evicted_mb", "MiB"},
    {"suffixtree.load.ops", "count"},
    {"suffixtree.load.wait_ms_p50", "ms"},
    {"suffixtree.load.self_ms_p50", "ms"},
    {"query.text_reads_per_op", "count"},
    {"query.text_read.wait_frac", "frac"},
    {"query.self_frac", "frac"},
    {"query.nodes_visited_per_op", "count"},
    {"query.leaves_enumerated_per_op", "count"},
    {"query.trie_resolved_frac", "frac"},
    {"query.dict.groups_per_batch", "count"},
    {"query.dict.descents_saved_frac", "frac"},
    {"query.dict.duplicates_folded_frac", "frac"},
    {"trace.overhead_frac", "frac"},
};

using Ledger = std::map<std::string, double>;

struct Config {
  const Workload* workload = nullptr;
  uint64_t seed = 42;
  double seconds = 10;
  std::string root;       // this run's private directory
  std::string trace_dir;  // empty = untraced
  bool traced() const { return !trace_dir.empty(); }
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Ledger values;

  void Wrong(const std::string& what) {
    if (wrong_answers++ < 5) std::fprintf(stderr, "WRONG: %s\n", what.c_str());
    correct = false;
  }

 private:
  int wrong_answers = 0;
};

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Exact order statistic: the smallest sample with at least a `q` share of
/// the samples at or below it. 0 for no samples.
double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(samples.size())));
  return samples[index - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

double PeakRssMiB() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

LatencyModel DeviceModel() {
  LatencyModel model;  // 200 us per request, unbounded queue
  model.read_bytes_per_second = 96.0 * kMiB;
  model.write_bytes_per_second = 96.0 * kMiB;
  return model;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    bytes += entry.file_size();
  }
  return bytes;
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::vector<std::string> SortedFileNames(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename());
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// Empty when both directories hold the same file names with the same bytes,
/// else the first difference.
std::string DiffDirs(const std::string& a, const std::string& b) {
  const std::vector<std::string> names_a = SortedFileNames(a);
  if (names_a != SortedFileNames(b)) return "its file set";
  for (const std::string& name : names_a) {
    if (ReadFile(fs::path(a) / name) != ReadFile(fs::path(b) / name)) {
      return name;
    }
  }
  return "";
}

/// Genome-like DNA whose suffix-tree depth profile is the same for every
/// seed. GenerateDna draws repeat lengths from a geometric distribution, and
/// the longest copy sets how many prepare rounds its group needs, so build
/// time differed by up to 20% between seeds. Here GenerateDna's Markov text
/// gets the same ~23% repeat content as a fixed number of fixed-length
/// copies.
std::string MakeDna(uint64_t length, uint64_t seed) {
  constexpr uint64_t kRepeatLength = 300;  // GenerateDna's mean
  GeneratorOptions options;
  options.repeat_rate = 0;
  options.markov_strength = 0.35;  // GenerateDna's
  std::string text = GenerateText(Alphabet::Dna(), length, seed, options);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<uint64_t> position(0, length - kRepeatLength);
  for (uint64_t i = 0; i < length * 23 / 100 / kRepeatLength; ++i) {
    const uint64_t from = position(rng);
    text.replace(position(rng), kRepeatLength,
                 text.substr(from, kRepeatLength));
  }
  return text;
}

struct Corpus {
  std::string text;
  TextInfo info;
};

StatusOr<Corpus> MakeCorpus(const Config& cfg) {
  Corpus corpus;
  corpus.text = MakeDna(cfg.workload->text_bytes, cfg.seed);
  ERA_ASSIGN_OR_RETURN(corpus.info,
                       MaterializeText(GetDefaultEnv(), cfg.root + "/text",
                                       Alphabet::Dna(), corpus.text));
  return corpus;
}

// ---------------------------------------------------------------------------
// Tracing: spans of era_bench's own calls, and the chrome://tracing file
// ---------------------------------------------------------------------------

struct Interval {
  uint32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct TraceEvent {
  std::string name;
  std::string cat;
  uint32_t thread = 0;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  uint64_t op = 0;
  uint64_t bytes = 0;
};

void AddIoEvents(const std::vector<IoSpan>& spans,
                 std::vector<TraceEvent>* events) {
  for (const IoSpan& s : spans) {
    events->push_back({IoKindName(s.kind), FileClassName(s.cls), s.thread,
                       s.start_ns, s.dur_ns, s.op, s.bytes});
  }
}

Status WriteChromeTrace(const std::string& path,
                        std::vector<TraceEvent> events) {
  // Keeps the file loadable: beyond this many events the viewer stalls.
  constexpr std::size_t kMaxEvents = 400000;
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_ns < b.start_ns;
            });
  if (events.size() > kMaxEvents) events.resize(kMaxEvents);
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::IOError("cannot write " + path);
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    std::fprintf(out,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"op\": %llu, \"bytes\": %llu}}%s\n",
                 e.name.c_str(), e.cat.c_str(), e.thread, e.start_ns / 1e3,
                 e.dur_ns / 1e3, static_cast<unsigned long long>(e.op),
                 static_cast<unsigned long long>(e.bytes),
                 i + 1 < events.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  if (std::fclose(out) != 0) return Status::IOError("cannot write " + path);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Per-layer ledger
// ---------------------------------------------------------------------------

struct BuildRun {
  double seconds = 0;
  int64_t start_ns = 0;
  BuildStats stats;
  std::vector<double> worker_busy;
};

/// era.* and the build-side io.* of `runs`, averaged per build. `spans` are
/// the device calls made while they ran.
void AddBuildLayers(const std::vector<BuildRun>& runs,
                    const std::vector<IoSpan>& spans, Ledger* ledger) {
  if (runs.empty()) return;
  const double n = static_cast<double>(runs.size());
  Ledger& l = *ledger;
  for (const BuildRun& run : runs) {
    std::map<std::string, double> phase;
    double attributed = 0;  // build workers' horizontal-phase time
    for (const PhaseProfiler::Entry& e : run.stats.phases) {
      phase[e.phase] += e.seconds;
      if (e.worker < kBuildWorkers && e.phase != "vertical_partition" &&
          e.phase != "assemble_index") {
        attributed += e.seconds;
      }
    }
    double busy = 0;
    for (double b : run.worker_busy) busy += b;
    const double capacity = kBuildWorkers * run.stats.horizontal_seconds;
    const IoStats& io = run.stats.io;
    l["era.prepare.busy_s"] += phase["prepare"] / n;
    l["era.build_subtree.busy_s"] += phase["build_subtree"] / n;
    l["era.vertical.busy_s"] += phase["vertical_partition"] / n;
    l["era.write.busy_s"] += phase["subtree_write"] / n;
    l["era.prepare.rounds"] +=
        static_cast<double>(run.stats.prepare_rounds) / n;
    // Worker time splits three ways: named phases, task time no phase
    // claims (e.g. a worker blocked handing a tree to a full writer queue),
    // and idle time. Idle time is already 1 - worker_busy_frac, so the
    // unattributed share is taken of task time only.
    l["era.worker_busy_frac"] += Ratio(busy, capacity) / n;
    l["era.unattributed_frac"] += (1 - Ratio(attributed, busy)) / n;
    l["era.peak_tree_mb"] +=
        static_cast<double>(run.stats.peak_tree_bytes) / kMiB / n;
    l["io.tile.hit_rate"] += run.stats.tile_hit_rate() / n;
    l["io.prefetch.hit_rate"] +=
        Ratio(static_cast<double>(io.prefetch_hits),
              static_cast<double>(io.prefetch_hits + io.prefetch_misses)) /
        n;
  }
  for (const IoSpan& s : spans) {
    const double wait_s = s.dur_ns / 1e9 / n;
    switch (s.kind) {
      case IoKind::kAppend:
        l["io.write.mb"] += static_cast<double>(s.bytes) / kMiB / n;
        l["io.write.ops"] += 1 / n;
        l["io.write.wait_s"] += wait_s;
        break;
      case IoKind::kSync:
        l["io.sync.ops"] += 1 / n;
        l["io.write.wait_s"] += wait_s;
        break;
      case IoKind::kClose:
      case IoKind::kRename:
        l["io.write.wait_s"] += wait_s;
        break;
      case IoKind::kRead:
      case IoKind::kReadAt:
        break;
    }
  }
}

/// io.read.* of `spans` per op.
void AddReadLayers(const std::vector<IoSpan>& spans, double ops,
                   uint64_t text_length, Ledger* ledger) {
  double bytes = 0;
  double count = 0;
  double wait_s = 0;
  double text_bytes = 0;
  for (const IoSpan& s : spans) {
    if (!IsRead(s.kind)) continue;
    bytes += static_cast<double>(s.bytes);
    count += 1;
    wait_s += s.dur_ns / 1e9;
    if (s.cls == FileClass::kText) text_bytes += static_cast<double>(s.bytes);
  }
  Ledger& l = *ledger;
  l["io.read.mb"] = Ratio(bytes / kMiB, ops);
  l["io.read.ops"] = Ratio(count, ops);
  l["io.read.wait_s"] = Ratio(wait_s, ops);
  l["io.read_amplification"] =
      Ratio(text_bytes, static_cast<double>(text_length) * ops);
}

/// suffixtree.load.*_p50: per sub-tree load, the device time of the
/// sub-tree reads its thread issued inside it, and the rest (decode, CRC,
/// cache insert).
void AddLoadLayers(const std::vector<Interval>& loads,
                   const std::vector<IoSpan>& spans, Ledger* ledger) {
  std::unordered_map<uint32_t, std::vector<const IoSpan*>> reads;
  for (const IoSpan& s : spans) {
    if (IsRead(s.kind) && s.cls == FileClass::kSubTree) {
      reads[s.thread].push_back(&s);
    }
  }
  for (auto& [thread, list] : reads) {
    std::sort(list.begin(), list.end(), [](const IoSpan* a, const IoSpan* b) {
      return a->start_ns < b->start_ns;
    });
  }
  std::vector<double> wait_ms;
  std::vector<double> self_ms;
  for (const Interval& load : loads) {
    double wait_ns = 0;
    auto it = reads.find(load.thread);
    if (it != reads.end()) {
      auto first = std::lower_bound(
          it->second.begin(), it->second.end(), load.start_ns,
          [](const IoSpan* s, int64_t t) { return s->start_ns < t; });
      for (; first != it->second.end() && (*first)->start_ns <= load.end_ns;
           ++first) {
        wait_ns += static_cast<double>((*first)->dur_ns);
      }
    }
    const double dur_ns = static_cast<double>(load.end_ns - load.start_ns);
    wait_ms.push_back(wait_ns / 1e6);
    self_ms.push_back(std::max(0.0, dur_ns - wait_ns) / 1e6);
  }
  (*ledger)["suffixtree.load.wait_ms_p50"] = Median(wait_ms);
  (*ledger)["suffixtree.load.self_ms_p50"] = Median(self_ms);
}

// ---------------------------------------------------------------------------
// Build workloads
// ---------------------------------------------------------------------------

StatusOr<BuildRun> BuildOnce(const Workload& workload, const TextInfo& text,
                             Env* env, const std::string& dir) {
  BuildOptions options;
  options.env = env;
  options.work_dir = dir;
  options.memory_budget = workload.budget_bytes;
  ParallelBuilder builder(options, kBuildWorkers);
  BuildRun run;
  run.start_ns = NowNs();
  WallTimer timer;
  ERA_ASSIGN_OR_RETURN(ParallelBuildResult result, builder.Build(text));
  run.seconds = timer.Seconds();
  run.stats = std::move(result.stats);
  run.worker_busy = std::move(result.worker_busy_seconds);
  return run;
}

/// Opens sub-trees of `index` through `env`, recording each load when
/// `loads` is given.
SubTreeOpener MakeOpener(const TreeIndex& index, Env* env,
                         std::vector<Interval>* loads) {
  return [&index, env, loads](uint32_t id) {
    const int64_t start = NowNs();
    auto tree = index.OpenSubTree(env, id, nullptr);
    if (loads != nullptr) loads->push_back({ThreadIndex(), start, NowNs()});
    return tree;
  };
}

Status RunBuildWorkload(const Config& cfg, Report* report) {
  const Workload& workload = *cfg.workload;
  Corpus corpus;
  std::vector<double> setup_s;
  for (int i = 0; i < (cfg.traced() ? 1 : kSetupRepeats); ++i) {
    WallTimer timer;
    ERA_ASSIGN_OR_RETURN(corpus, MakeCorpus(cfg));
    setup_s.push_back(timer.Seconds());
  }

  LatencyEnv device(GetDefaultEnv(), DeviceModel());
  TracingEnv traced(&device);
  // The reference build is not timed: it warms the host CPU, whose clock
  // ramps up after idle (a run's first build took up to 60% longer), and
  // every timed build must match it byte for byte.
  const std::string reference = cfg.root + "/reference";
  ERA_RETURN_NOT_OK(
      BuildOnce(workload, corpus.info, &device, reference).status());
  int next_build = 0;
  // Starts builds while the next one is expected to end less than half a
  // build past `seconds`, so the build count is stable across seeds.
  auto run_builds = [&](Env* env, double seconds,
                        std::vector<BuildRun>* runs) {
    double elapsed = 0;
    int attempts = 0;
    while (attempts == 0 || elapsed * (attempts + 0.5) / attempts < seconds) {
      const std::string dir =
          cfg.root + "/build" + std::to_string(next_build++);
      ++attempts;
      ++report->attempted;
      WallTimer timer;
      auto run = BuildOnce(workload, corpus.info, env, dir);
      elapsed += timer.Seconds();
      if (!run.ok()) {
        ++report->failed;
        std::fprintf(stderr, "build failed: %s\n",
                     run.status().ToString().c_str());
      } else {
        const std::string diff = DiffDirs(reference, dir);
        if (!diff.empty()) report->Wrong(dir + " differs in " + diff);
        runs->push_back(std::move(*run));
      }
      fs::remove_all(dir);
    }
  };
  std::vector<BuildRun> plain;
  std::vector<BuildRun> traced_runs;
  run_builds(&device, cfg.traced() ? cfg.seconds / 2 : cfg.seconds, &plain);
  if (cfg.traced()) run_builds(&traced, cfg.seconds / 2, &traced_runs);
  const double peak_rss_mb = PeakRssMiB();
  const std::vector<IoSpan> build_spans = traced.Spans();

  if (plain.empty()) return Status::Internal("no timed build succeeded");
  ERA_ASSIGN_OR_RETURN(TreeIndex index,
                       TreeIndex::Load(GetDefaultEnv(), reference));
  std::vector<Interval> loads;
  const TextOracle oracle(corpus.text);
  Status check = CheckIndexAgainstOracle(
      index, corpus.text, oracle,
      cfg.traced() ? MakeOpener(index, &traced, &loads)
                   : MakeOpener(index, GetDefaultEnv(), nullptr));
  if (!check.ok()) report->Wrong(reference + ": " + check.ToString());

  Ledger& l = report->values;
  auto seconds_of = [](const std::vector<BuildRun>& runs) {
    std::vector<double> s;
    for (const BuildRun& run : runs) s.push_back(run.seconds);
    return s;
  };
  auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return Ratio(sum, static_cast<double>(v.size()));
  };
  if (!cfg.traced()) {
    const std::vector<double> s = seconds_of(plain);
    l["setup_s"] = Median(setup_s);
    l["ops_per_s"] = Ratio(1, mean(s));
    l["p50_ms"] = Median(s) * 1e3;
    l["tail_ms"] = Percentile(s, workload.tail_quantile) * 1e3;
    l["peak_rss_mb"] = peak_rss_mb;
    l["index_bytes_per_text_byte"] =
        Ratio(static_cast<double>(DirBytes(reference)),
              static_cast<double>(corpus.info.length));
    return Status::OK();
  }

  AddBuildLayers(traced_runs, build_spans, &l);
  AddReadLayers(build_spans, static_cast<double>(traced_runs.size()),
                corpus.info.length, &l);
  AddLoadLayers(loads, traced.Spans(), &l);
  l["proc.rss_over_budget"] =
      Ratio(peak_rss_mb, static_cast<double>(workload.budget_bytes) / kMiB);
  l["trace.overhead_frac"] =
      Ratio(Median(seconds_of(traced_runs)), Median(seconds_of(plain))) - 1;

  std::vector<TraceEvent> events;
  for (const BuildRun& run : traced_runs) {
    events.push_back({"build", "op", ThreadIndex(), run.start_ns,
                      static_cast<int64_t>(run.seconds * 1e9), 0, 0});
  }
  AddIoEvents(build_spans, &events);
  return WriteChromeTrace(cfg.trace_dir + "/" + workload.name + ".json",
                          std::move(events));
}

// ---------------------------------------------------------------------------
// Serving workloads
// ---------------------------------------------------------------------------

bool WriteLedger(const std::string& path, const Ledger& ledger) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const auto& [name, value] : ledger) {
    std::fprintf(out, "%s %.17g\n", name.c_str(), value);
  }
  return std::fclose(out) == 0;
}

void ReadLedger(const std::string& path, Ledger* ledger) {
  std::ifstream in(path);
  std::string name;
  double value = 0;
  while (in >> name >> value) (*ledger)[name] = value;
}

/// Builds the serving index in a forked child, so the serving process's
/// peak RSS excludes the build. A traced child leaves its build ledger in
/// `ledger_path`.
Status BuildInChild(const Config& cfg, const TextInfo& text,
                    const std::string& dir, const std::string& ledger_path) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return Status::Internal(std::string("fork: ") + strerror(errno));
  if (pid == 0) {
    int code = 1;
    {
      LatencyEnv device(GetDefaultEnv(), DeviceModel());
      TracingEnv traced(&device);
      auto run = BuildOnce(*cfg.workload, text,
                           cfg.traced() ? static_cast<Env*>(&traced) : &device,
                           dir);
      if (!run.ok()) {
        std::fprintf(stderr, "index build failed: %s\n",
                     run.status().ToString().c_str());
      } else if (!cfg.traced()) {
        code = 0;
      } else {
        Ledger ledger;
        AddBuildLayers({*run}, traced.Spans(), &ledger);
        code = WriteLedger(ledger_path, ledger) ? 0 : 1;
      }
    }
    std::fflush(stderr);
    ::_exit(code);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      return Status::Internal(std::string("waitpid: ") + strerror(errno));
    }
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("index build child failed");
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<QueryEngine>> OpenEngine(const Workload& workload,
                                                  Env* env,
                                                  const std::string& dir,
                                                  bool trace) {
  QueryEngineOptions options;
  options.cache.budget_bytes = workload.cache_bytes;
  if (trace) {
    options.trace.enabled = true;
    // Keep every request's trace: the ledger folds all of them.
    options.trace.recorder.ring_capacity = 1 << 20;
  }
  return QueryEngine::Open(env, dir, options);
}

Status Warm(const QueryEngine& engine, Env* env, std::vector<Interval>* loads) {
  const TreeIndex& index = engine.index();
  const SubTreeOpener open = MakeOpener(index, env, loads);
  for (uint32_t id = 0; id < index.subtrees().size(); ++id) {
    ERA_RETURN_NOT_OK(open(id).status());
  }
  return Status::OK();
}

struct OpRecord {
  uint64_t id = 0;  // dense from 1 in issue order; 0 is "no op"
  uint32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool ok = false;
  uint64_t count = 0;            // Count answer
  std::vector<uint64_t> values;  // Locate offsets, or per-pattern dict counts
};

struct LoopResult {
  std::vector<OpRecord> ops;
  double wall_s = 0;
  std::size_t ok_ops() const {
    return std::count_if(ops.begin(), ops.end(),
                         [](const OpRecord& op) { return op.ok; });
  }
};

/// Closed loop: kClients threads issue `op` back to back until `seconds`
/// have passed. `op` may move record->start_ns forward to leave input
/// generation out of its latency.
template <typename Op>
LoopResult RunClosedLoop(double seconds, const Op& op) {
  std::atomic<uint64_t> next{1};
  std::atomic<int> errors_logged{0};
  std::vector<std::vector<OpRecord>> per_client(kClients);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      while (NowNs() < deadline) {
        OpRecord rec;
        rec.id = next.fetch_add(1);
        rec.thread = ThreadIndex();
        rec.start_ns = NowNs();
        Status s;
        {
          ScopedOp scope(rec.id);
          s = op(rec.id, &rec);
        }
        rec.end_ns = NowNs();
        rec.ok = s.ok();
        if (!s.ok() && errors_logged.fetch_add(1) < 5) {
          std::fprintf(stderr, "op %llu failed: %s\n",
                       static_cast<unsigned long long>(rec.id),
                       s.ToString().c_str());
        }
        per_client[c].push_back(std::move(rec));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  LoopResult result;
  result.wall_s = (NowNs() - start) / 1e9;
  for (auto& ops : per_client) {
    for (OpRecord& rec : ops) result.ops.push_back(std::move(rec));
  }
  std::sort(result.ops.begin(), result.ops.end(),
            [](const OpRecord& a, const OpRecord& b) { return a.id < b.id; });
  return result;
}

std::vector<std::string> DictBatch(const std::string& text, uint64_t seed,
                                   uint64_t batch) {
  DictWorkloadOptions options;
  options.num_patterns = kDictBatchPatterns;
  options.seed = (seed << 32) + batch;
  return SampleDictionaryWorkload(text, options);
}

/// One timed serving phase; CheckServingPhase later compares its answers
/// with the oracle.
struct ServingPhase {
  LoopResult loop;
  QueryStats stats;                // delta over the phase
  TreeIndex::CacheSnapshot cache;  // delta over the phase
};

StatusOr<ServingPhase> RunServingPhase(const Config& cfg, QueryEngine* engine,
                                       const std::string& text,
                                       const std::vector<std::string>& patterns,
                                       const QueryWorkloadOptions& shape,
                                       double seconds) {
  ServingPhase phase;
  const QueryStats stats_before = engine->stats();
  const TreeIndex::CacheSnapshot cache_before = engine->cache();
  if (cfg.workload->kind == Kind::kDict) {
    phase.loop = RunClosedLoop(seconds, [&](uint64_t id, OpRecord* rec) {
      const std::vector<std::string> batch = DictBatch(text, cfg.seed, id);
      rec->start_ns = NowNs();
      QueryContext ctx;
      ctx.client_id = id;
      ERA_ASSIGN_OR_RETURN(std::vector<DictOutcome> outcomes,
                           engine->MatchDictionary(ctx, batch));
      for (const DictOutcome& outcome : outcomes) {
        ERA_RETURN_NOT_OK(outcome.status);
        rec->values.push_back(outcome.count);
      }
      return Status::OK();
    });
  } else {
    phase.loop = RunClosedLoop(seconds, [&](uint64_t id, OpRecord* rec) {
      const std::string& pattern = patterns[id % patterns.size()];
      QueryContext ctx;
      ctx.client_id = id;
      if (id % shape.locate_every == 0) {
        ERA_ASSIGN_OR_RETURN(rec->values,
                             engine->Locate(ctx, pattern, shape.locate_limit));
      } else {
        ERA_ASSIGN_OR_RETURN(rec->count, engine->Count(ctx, pattern));
      }
      return Status::OK();
    });
  }
  const QueryStats stats_after = engine->stats();
  for (const QueryStatsField& f : QueryStatsFields()) {
    phase.stats.*(f.member) =
        stats_after.*(f.member) - stats_before.*(f.member);
  }
  const TreeIndex::CacheSnapshot cache_after = engine->cache();
  phase.cache.hits = cache_after.hits - cache_before.hits;
  phase.cache.misses = cache_after.misses - cache_before.misses;
  phase.cache.evicted_bytes =
      cache_after.evicted_bytes - cache_before.evicted_bytes;
  return phase;
}

void CheckServingPhase(const Config& cfg, const ServingPhase& phase,
                       const std::string& text,
                       const std::vector<std::string>& patterns,
                       const QueryWorkloadOptions& shape,
                       const TextOracle& oracle, Report* report) {
  for (const OpRecord& op : phase.loop.ops) {
    ++report->attempted;
    if (!op.ok) {
      ++report->failed;
      continue;
    }
    if (cfg.workload->kind == Kind::kDict) {
      const std::vector<std::string> batch = DictBatch(text, cfg.seed, op.id);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (op.values[i] != oracle.Count(batch[i])) {
          report->Wrong("batch " + std::to_string(op.id) + " item " +
                        std::to_string(i) + " count");
        }
      }
      continue;
    }
    const std::string& pattern = patterns[op.id % patterns.size()];
    if (op.id % shape.locate_every == 0) {
      if (op.values != oracle.SmallestOffsets(pattern, shape.locate_limit)) {
        report->Wrong("locate " + pattern);
      }
    } else if (op.count != oracle.Count(pattern)) {
      report->Wrong("count " + pattern);
    }
  }
}

Status RunServingWorkload(const Config& cfg, Report* report) {
  const Workload& workload = *cfg.workload;
  LatencyEnv device(GetDefaultEnv(), DeviceModel());
  const std::string ledger_path = cfg.root + "/build_ledger";

  // Setup: corpus, index build (forked), engine open, warm-up.
  Corpus corpus;
  std::string dir;
  std::unique_ptr<QueryEngine> engine;
  std::vector<double> setup_s;
  for (int i = 0; i < (cfg.traced() ? 1 : kSetupRepeats); ++i) {
    engine.reset();
    if (!dir.empty()) fs::remove_all(dir);
    dir = cfg.root + "/index" + std::to_string(i);
    WallTimer timer;
    ERA_ASSIGN_OR_RETURN(corpus, MakeCorpus(cfg));
    ERA_RETURN_NOT_OK(BuildInChild(cfg, corpus.info, dir, ledger_path));
    ERA_ASSIGN_OR_RETURN(engine, OpenEngine(workload, &device, dir, false));
    if (workload.warm) ERA_RETURN_NOT_OK(Warm(*engine, &device, nullptr));
    setup_s.push_back(timer.Seconds());
  }

  QueryWorkloadOptions shape;  // 3:1 Count:Locate(limit 100)
  shape.num_patterns = kQueryPatterns;
  shape.seed = cfg.seed;
  const std::vector<std::string> patterns =
      SamplePatternWorkload(corpus.text, shape);

  // Timed phase (the traced half runs on a second engine over TracingEnv).
  const double plain_seconds = cfg.traced() ? cfg.seconds / 2 : cfg.seconds;
  ERA_ASSIGN_OR_RETURN(ServingPhase plain,
                       RunServingPhase(cfg, engine.get(), corpus.text, patterns,
                                       shape, plain_seconds));
  TracingEnv traced(&device);
  std::unique_ptr<QueryEngine> traced_engine;
  std::vector<Interval> loads;
  ServingPhase traced_phase;
  if (cfg.traced()) {
    ERA_ASSIGN_OR_RETURN(traced_engine,
                         OpenEngine(workload, &traced, dir, true));
    if (workload.warm) ERA_RETURN_NOT_OK(Warm(*traced_engine, &traced, &loads));
    ERA_ASSIGN_OR_RETURN(traced_phase,
                         RunServingPhase(cfg, traced_engine.get(), corpus.text,
                                         patterns, shape, cfg.seconds / 2));
  }
  const double peak_rss_mb = PeakRssMiB();

  const TextOracle oracle(corpus.text);
  CheckServingPhase(cfg, plain, corpus.text, patterns, shape, oracle, report);
  if (cfg.traced()) {
    CheckServingPhase(cfg, traced_phase, corpus.text, patterns, shape, oracle,
                      report);
  }

  Ledger& l = report->values;
  auto ops_per_s = [](const LoopResult& loop) {
    return Ratio(static_cast<double>(loop.ok_ops()), loop.wall_s);
  };
  if (!cfg.traced()) {
    std::vector<double> latency_ms;
    for (const OpRecord& op : plain.loop.ops) {
      latency_ms.push_back((op.end_ns - op.start_ns) / 1e6);
    }
    l["setup_s"] = Median(setup_s);
    l["ops_per_s"] = ops_per_s(plain.loop);
    l["p50_ms"] = Percentile(latency_ms, 0.5);
    l["tail_ms"] = Percentile(latency_ms, workload.tail_quantile);
    l["peak_rss_mb"] = peak_rss_mb;
    l["index_bytes_per_text_byte"] =
        Ratio(static_cast<double>(DirBytes(dir)),
              static_cast<double>(corpus.info.length));
    return Status::OK();
  }

  // Per-layer ledger of the traced half.
  const LoopResult& loop = traced_phase.loop;
  const double ops = static_cast<double>(loop.ops.size());
  const int64_t timed_start = loop.ops.empty() ? 0 : loop.ops.front().start_ns;
  const std::vector<IoSpan> all_spans = traced.Spans();
  std::vector<IoSpan> timed_spans;
  for (const IoSpan& s : all_spans) {
    if (s.op != 0 && s.start_ns >= timed_start) timed_spans.push_back(s);
  }
  ReadLedger(ledger_path, &l);  // era.* and io.write.*: the setup build
  AddReadLayers(timed_spans, ops, corpus.info.length, &l);

  std::unordered_map<uint64_t, uint32_t> op_thread;
  double op_ns = 0;
  std::vector<TraceEvent> events;
  for (const OpRecord& op : loop.ops) {
    op_thread[op.id] = op.thread;
    op_ns += static_cast<double>(op.end_ns - op.start_ns);
    const char* kind = workload.kind == Kind::kDict ? "match_dictionary"
                       : op.id % shape.locate_every == 0 ? "locate"
                                                         : "count";
    events.push_back({kind, "op", op.thread, op.start_ns,
                      op.end_ns - op.start_ns, op.id, 0});
  }
  for (const auto& trace : traced_engine->tracer()->Recent()) {
    const uint32_t thread = op_thread[trace->client_id];
    const int64_t base = ToNs(trace->start_time);
    for (const TraceSpanRecord& span : trace->spans) {
      const int64_t start = base + static_cast<int64_t>(span.start_us * 1e3);
      const int64_t dur = static_cast<int64_t>(span.dur_us * 1e3);
      if (std::strcmp(span.name, "subtree_open") == 0 &&
          span.note != nullptr && std::strcmp(span.note, "cache_miss") == 0) {
        loads.push_back({thread, start, start + dur});
      }
      events.push_back({span.note == nullptr
                            ? std::string(span.name)
                            : std::string(span.name) + ":" + span.note,
                        "engine", thread, start, dur, trace->client_id, 0});
    }
  }
  AddLoadLayers(loads, all_spans, &l);
  AddIoEvents(timed_spans, &events);

  double text_reads = 0;
  double text_wait_ns = 0;
  double read_wait_ns = 0;
  for (const IoSpan& s : timed_spans) {
    if (!IsRead(s.kind)) continue;
    read_wait_ns += static_cast<double>(s.dur_ns);
    if (s.cls == FileClass::kText) {
      text_reads += 1;
      text_wait_ns += static_cast<double>(s.dur_ns);
    }
  }
  const QueryStats& q = traced_phase.stats;
  const TreeIndex::CacheSnapshot& cache = traced_phase.cache;
  l["proc.rss_over_budget"] =
      Ratio(peak_rss_mb, static_cast<double>(workload.cache_bytes) / kMiB);
  l["suffixtree.cache.hit_rate"] =
      Ratio(static_cast<double>(cache.hits),
            static_cast<double>(cache.hits + cache.misses));
  l["suffixtree.cache.evicted_mb"] =
      static_cast<double>(cache.evicted_bytes) / kMiB;
  l["suffixtree.load.ops"] = static_cast<double>(cache.misses);
  l["query.text_reads_per_op"] = Ratio(text_reads, ops);
  l["query.text_read.wait_frac"] = Ratio(text_wait_ns, op_ns);
  l["query.self_frac"] = 1 - Ratio(read_wait_ns, op_ns);
  l["query.nodes_visited_per_op"] =
      Ratio(static_cast<double>(q.nodes_visited), ops);
  l["query.leaves_enumerated_per_op"] =
      Ratio(static_cast<double>(q.leaves_enumerated), ops);
  l["query.trie_resolved_frac"] =
      Ratio(static_cast<double>(q.trie_resolved_counts),
            static_cast<double>(q.queries));
  if (workload.kind == Kind::kDict) {
    l["query.dict.groups_per_batch"] =
        Ratio(static_cast<double>(q.dict_groups_formed), ops);
    l["query.dict.descents_saved_frac"] =
        Ratio(static_cast<double>(q.dict_descents_saved),
              static_cast<double>(q.dict_descents_saved +
                                  q.dict_descents_shared));
    l["query.dict.duplicates_folded_frac"] =
        Ratio(static_cast<double>(q.batch_duplicates_folded),
              ops * kDictBatchPatterns);
  }
  l["trace.overhead_frac"] =
      Ratio(ops_per_s(plain.loop), ops_per_s(loop)) - 1;
  return WriteChromeTrace(cfg.trace_dir + "/" + workload.name + ".json",
                          std::move(events));
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

/// Prints the metric lines and the result JSON (last line of stdout).
/// Returns false if an expected metric is missing.
template <std::size_t N>
bool Emit(const Workload& workload, const Report& report,
          const MetricDef (&defs)[N], bool zero_if_missing) {
  std::string json = std::string("{\"correct\": ") +
                     (report.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  bool complete = true;
  for (std::size_t i = 0; i < N; ++i) {
    auto it = report.values.find(defs[i].name);
    if (it == report.values.end() && !zero_if_missing) {
      std::fprintf(stderr, "missing metric %s\n", defs[i].name);
      complete = false;
    }
    double value = it == report.values.end() ? 0 : it->second;
    if (!std::isfinite(value)) value = 0;
    std::printf("%s %s %.6g %s\n", workload.name, defs[i].name, value,
                defs[i].unit);
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    json += std::string(i == 0 ? "" : ", ") + "\"" + defs[i].name +
            "\": {\"value\": " + number + ", \"unit\": \"" + defs[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return complete;
}

/// Value of `--name=value` in argv, or `fallback`.
std::string Flag(int argc, char** argv, const std::string& name,
                 const std::string& fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

int Main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list") == 0) {
      for (const Workload& w : kWorkloads) std::printf("%s\n", w.name);
      return 0;
    }
  }
  Config cfg;
  const std::string name = Flag(argc, argv, "workload", "");
  for (const Workload& w : kWorkloads) {
    if (name == w.name) cfg.workload = &w;
  }
  cfg.seed = std::strtoull(Flag(argc, argv, "seed", "42").c_str(), nullptr, 10);
  cfg.seconds = std::strtod(Flag(argc, argv, "seconds", "10").c_str(), nullptr);
  cfg.trace_dir = Flag(argc, argv, "trace", "");
  if (cfg.workload == nullptr || !(cfg.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: era_bench --workload=NAME [--seed=S] [--seconds=T] "
                 "[--work=DIR] [--trace=DIR]\n       era_bench --list\n");
    return 2;
  }
  cfg.root = Flag(argc, argv, "work", ".") + "/" + cfg.workload->name + "-" +
             std::to_string(::getpid());
  std::error_code ec;
  fs::create_directories(cfg.root, ec);
  if (!ec && cfg.traced()) fs::create_directories(cfg.trace_dir, ec);
  if (ec) {
    std::fprintf(stderr, "era_bench: %s\n", ec.message().c_str());
    return 1;
  }
  struct RemoveOnExit {
    std::string path;
    ~RemoveOnExit() {
      std::error_code ignored;
      fs::remove_all(path, ignored);
    }
  } cleanup{cfg.root};

  Report report;
  const Status s = cfg.workload->kind == Kind::kBuild
                       ? RunBuildWorkload(cfg, &report)
                       : RunServingWorkload(cfg, &report);
  if (!s.ok()) {
    std::fprintf(stderr, "era_bench %s: %s\n", cfg.workload->name,
                 s.ToString().c_str());
    return 1;
  }
  const bool complete = cfg.traced()
                            ? Emit(*cfg.workload, report, kPerLayer, true)
                            : Emit(*cfg.workload, report, kEndToEnd, false);
  return report.correct && complete ? 0 : 1;
}

}  // namespace
}  // namespace benchmark
}  // namespace era

int main(int argc, char** argv) { return era::benchmark::Main(argc, argv); }
