// Figure 11: ERA and WaveFront across alphabet sizes (DNA |Σ|=4,
// Protein |Σ|=20, English |Σ|=26).
// Expected shapes: ERA degrades only mildly with |Σ| (it sorts leaves
// lexicographically up front), while WaveFront's per-insertion tree
// navigation suffers from the larger branching factor.

#include <cstdio>

#include "bench/bench_common.h"
#include "era/parallel_builder.h"

namespace era {
namespace bench {
namespace {

void Run() {
  const uint64_t budget = Scaled(2 << 20);  // paper: 1 GB
  std::printf("Figure 11: alphabets, budget = %s (paper: 1 GB)\n\n",
              Mib(budget).c_str());
  Table table({"Size(MiB)", "corpus", "ERA", "WF", "WF/ERA"});
  for (uint64_t kb : {1280, 1536}) {
    uint64_t n = Scaled(static_cast<uint64_t>(kb) << 10);
    for (CorpusKind kind :
         {CorpusKind::kDna, CorpusKind::kProtein, CorpusKind::kEnglish}) {
      TextInfo text = MakeCorpus(kind, n);
      ParallelBuilder era_builder(BenchOptions(budget, "f11_era"), 1);
      auto era_result = era_builder.Build(text);
      ParallelBuilder wf(BenchOptions(budget, "f11_wf"), 1,
                       ParallelAlgorithm::kWaveFront);
      auto wf_result = wf.Build(text);
      if (!era_result.ok() || !wf_result.ok()) {
        std::fprintf(stderr, "build failed\n");
        std::exit(1);
      }
      double era_time = TimingOf(era_result->stats).modeled;
      double wf_time = TimingOf(wf_result->stats).modeled;
      table.AddRow({Mib(n), CorpusName(kind), Secs(era_time), Secs(wf_time),
                    Ratio(wf_time / era_time)});
    }
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
