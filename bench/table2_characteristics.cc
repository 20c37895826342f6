// Table 2: qualitative comparison of construction algorithms, with the
// string-access column backed by measurement: each builder runs on a small
// corpus and its recorded I/O pattern (sequential refills vs random seeks)
// is printed next to the paper's classification.

#include <cstdio>

#include "b2st/b2st.h"
#include "bench/bench_common.h"
#include "era/parallel_builder.h"
#include "trellis/trellis.h"
#include "ukkonen/ukkonen.h"

namespace era {
namespace bench {
namespace {

std::string AccessPattern(const IoStats& io) {
  // Classify by the share of random repositionings among window moves.
  // Each scan legitimately repositions once (back to the scan start), so
  // one seek per started scan is discounted.
  uint64_t seeks = io.seeks > io.scans_started
                       ? io.seeks - io.scans_started
                       : 0;
  uint64_t moves = io.sequential_refills + seeks;
  if (moves == 0) return "in-memory";
  double random_share =
      static_cast<double>(seeks) / static_cast<double>(moves);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s (%.0f%% random)",
                random_share < 0.3 ? "Sequential" : "Random",
                random_share * 100.0);
  return buf;
}

void Run() {
  const uint64_t n = Scaled(512 << 10);
  const uint64_t budget = Scaled(1 << 20);
  TextInfo text = MakeCorpus(CorpusKind::kDna, n);
  std::printf("Table 2: algorithm characteristics (DNA %s, budget %s); "
              "string-access measured from IoStats\n\n",
              Mib(n).c_str(), Mib(budget).c_str());

  Table table({"Algorithm", "Category", "Complexity", "Parallel",
               "String access (paper)", "String access (measured)",
               "scans", "seeks"});

  {
    // Ukkonen: in-memory; measured I/O is just the initial load.
    std::string content;
    IoStats io;
    Env* env = GetDefaultEnv();
    Status s = env->ReadFileToString(text.path, &content);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      std::exit(1);
    }
    io.bytes_read = content.size();
    auto tree = BuildUkkonenTree(content);
    if (!tree.ok()) std::exit(1);
    table.AddRow({"Ukkonen", "In-memory", "O(n)", "No", "Random (in RAM)",
                  "in-memory", "1", "0"});
  }
  {
    TrellisBuilder trellis(BenchOptions(budget, "t2_trellis"));
    auto result = trellis.Build(text);
    if (result.ok()) {
      table.AddRow({"TRELLIS", "Semi-disk-based", "O(n^2)", "No",
                    "Random (merge phase)", AccessPattern(result->stats.io),
                    Num(result->stats.io.scans_started),
                    Num(result->stats.io.seeks)});
    } else {
      table.AddRow({"TRELLIS", "Semi-disk-based", "O(n^2)", "No",
                    "Random (merge phase)", "S exceeds memory", "-", "-"});
    }
  }
  {
    ParallelBuilder wf(BenchOptions(budget, "t2_wf"), 1,
                       ParallelAlgorithm::kWaveFront);
    auto result = wf.Build(text);
    if (!result.ok()) std::exit(1);
    table.AddRow({"WaveFront", "Out-of-core", "O(n^2)", "Yes", "Sequential",
                  AccessPattern(result->stats.io),
                  Num(result->stats.io.scans_started),
                  Num(result->stats.io.seeks)});
  }
  {
    B2stBuilder b2st(BenchOptions(budget, "t2_b2st"));
    auto result = b2st.Build(text);
    if (!result.ok()) std::exit(1);
    table.AddRow({"B2ST", "Out-of-core", "O(cn)", "No", "Sequential",
                  AccessPattern(result->stats.io),
                  Num(result->stats.io.scans_started),
                  Num(result->stats.io.seeks)});
  }
  {
    BuildOptions options = BenchOptions(budget, "t2_era");
    options.seek_optimization = false;  // pure sequential mode
    ParallelBuilder era_builder(options, 1);
    auto result = era_builder.Build(text);
    if (!result.ok()) std::exit(1);
    table.AddRow({"ERA", "Out-of-core", "O(n^2)", "Yes", "Sequential",
                  AccessPattern(result->stats.io),
                  Num(result->stats.io.scans_started),
                  Num(result->stats.io.seeks)});
  }
  table.Print();
}

}  // namespace
}  // namespace bench
}  // namespace era

int main() {
  era::bench::Run();
  return 0;
}
