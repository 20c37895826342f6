// Figure 10(b): ERA vs WaveFront vs B2ST, string-size sweep at a fixed
// (small) memory budget (paper: 2.5-4 GBps DNA at 1 GB; scaled 1:256).
// Expected shape: ERA at least 2x faster; the WaveFront gap widens with
// string length.

#include <cstdio>

#include "b2st/b2st.h"
#include "bench/bench_common.h"
#include "era/parallel_builder.h"

namespace era {
namespace bench {
namespace {

void Run() {
  const uint64_t budget = Scaled(2 << 20);  // paper: 1 GB
  std::printf("Figure 10(b): serial comparison, DNA size sweep, budget = %s "
              "(paper: 1 GB)\n\n",
              Mib(budget).c_str());
  Table table({"DNA(MiB)", "WF", "B2ST", "ERA", "WF/ERA", "B2ST/ERA"});
  for (uint64_t kb : {1280, 1536, 1792}) {  // 2.5-3.5 "GBps" scaled
    uint64_t n = Scaled(static_cast<uint64_t>(kb) << 10);
    TextInfo text = MakeCorpus(CorpusKind::kDna, n);

    ParallelBuilder wf(BenchOptions(budget, "f10b_wf"), 1,
                       ParallelAlgorithm::kWaveFront);
    auto wf_result = wf.Build(text);
    B2stBuilder b2st(BenchOptions(budget, "f10b_b2st"));
    auto b2st_result = b2st.Build(text);
    ParallelBuilder era_builder(BenchOptions(budget, "f10b_era"), 1);
    auto era_result = era_builder.Build(text);
    if (!wf_result.ok() || !b2st_result.ok() || !era_result.ok()) {
      std::fprintf(stderr, "build failed\n");
      std::exit(1);
    }
    double wf_time = TimingOf(wf_result->stats).modeled;
    double b2st_time = TimingOf(b2st_result->stats).modeled;
    double era_time = TimingOf(era_result->stats).modeled;
    table.AddRow({Mib(n), Secs(wf_time), Secs(b2st_time), Secs(era_time),
                  Ratio(wf_time / era_time), Ratio(b2st_time / era_time)});
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
