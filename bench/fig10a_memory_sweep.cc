// Figure 10(a): ERA vs WaveFront vs B2ST vs TRELLIS, memory sweep on the
// genome-like corpus (paper: human genome, 0.5-16 GB RAM; scaled 1:256).
// Expected shapes:
//   * ERA ~2x faster than the best competitor in the out-of-core regime;
//   * WaveFront beats B2ST with ample memory but collapses when memory is
//     tight; * TRELLIS only runs once S fits in RAM and then loses to both
//     out-of-core methods on account of its random-I/O merge phase.

#include <cstdio>

#include "b2st/b2st.h"
#include "bench/bench_common.h"
#include "era/parallel_builder.h"
#include "trellis/trellis.h"

namespace era {
namespace bench {
namespace {

void Run() {
  const uint64_t n = Scaled(1280 << 10);  // paper: 2.6 GBps genome
  TextInfo text = MakeCorpus(CorpusKind::kDna, n);
  std::printf("Figure 10(a): serial comparison, genome-like DNA %s, memory "
              "sweep (paper: 0.5-16 GB)\n\n",
              Mib(n).c_str());
  Table table({"Memory(MiB)", "WF", "B2ST", "TRELLIS", "ERA",
               "ERA gain vs best"});
  for (uint64_t kb : {1024, 2048, 4096, 8192}) {
    uint64_t budget = Scaled(static_cast<uint64_t>(kb) << 10);
    std::vector<std::string> row{Mib(budget)};

    ParallelBuilder wf(BenchOptions(budget, "f10a_wf"), 1,
                       ParallelAlgorithm::kWaveFront);
    auto wf_result = wf.Build(text);
    double wf_time = -1;
    if (wf_result.ok()) {
      wf_time = TimingOf(wf_result->stats).modeled;
      row.push_back(Secs(wf_time));
    } else {
      row.push_back("-");
    }

    B2stBuilder b2st(BenchOptions(budget, "f10a_b2st"));
    auto b2st_result = b2st.Build(text);
    double b2st_time = -1;
    if (b2st_result.ok()) {
      b2st_time = TimingOf(b2st_result->stats).modeled;
      row.push_back(Secs(b2st_time));
    } else {
      row.push_back("-");
    }

    TrellisBuilder trellis(BenchOptions(budget, "f10a_tr"));
    auto trellis_result = trellis.Build(text);
    double trellis_time = -1;
    if (trellis_result.ok()) {
      trellis_time = TimingOf(trellis_result->stats).modeled;
      row.push_back(Secs(trellis_time));
    } else {
      row.push_back("-");  // S does not fit in memory (paper: plot gap)
    }

    ParallelBuilder era_builder(BenchOptions(budget, "f10a_era"), 1);
    auto era_result = era_builder.Build(text);
    if (!era_result.ok()) {
      std::fprintf(stderr, "ERA failed: %s\n",
                   era_result.status().ToString().c_str());
      std::exit(1);
    }
    double era_time = TimingOf(era_result->stats).modeled;
    row.push_back(Secs(era_time));

    double best = -1;
    for (double t : {wf_time, b2st_time, trellis_time}) {
      if (t > 0 && (best < 0 || t < best)) best = t;
    }
    row.push_back(best > 0 ? Ratio(best / era_time) : "-");
    table.AddRow(row);
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
