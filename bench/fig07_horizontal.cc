// Figure 7: ERA-str (ComputeSuffixSubTree/BranchEdge) vs ERA-str+mem
// (SubTreePrepare/BuildSubTree).
//   (a) DNA size sweep at a fixed memory budget (paper: 256-2048 MBps at
//       512 MB; here scaled 1:256).
//   (b) memory sweep at a fixed string size (paper: 0.5-4 GB at 2 GBps).
// Expected shape: str+mem consistently faster, gap widening with string
// size (the paper's Figure 7).

#include <cstdio>

#include "bench/bench_common.h"
#include "era/parallel_builder.h"

namespace era {
namespace bench {
namespace {

Timing RunOnce(const TextInfo& text, uint64_t budget, HorizontalMethod method,
               const std::string& tag) {
  BuildOptions options = BenchOptions(budget, tag);
  options.horizontal = method;
  ParallelBuilder builder(options, 1);
  auto result = builder.Build(text);
  if (!result.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return TimingOf(result->stats);
}

void SizeSweep() {
  std::printf("Figure 7(a): horizontal methods, DNA size sweep, budget = "
              "%s (paper: 512 MB)\n\n",
              Mib(Scaled(1 << 20)).c_str());
  Table table({"DNA(MiB)", "ERA-str wall", "ERA-str modeled",
               "ERA-str+mem wall", "ERA-str+mem modeled", "speedup(modeled)"});
  const uint64_t budget = Scaled(1 << 20);
  for (uint64_t kb : {512, 768, 1024}) {
    uint64_t n = Scaled(static_cast<uint64_t>(kb) << 10);
    TextInfo text = MakeCorpus(CorpusKind::kDna, n);
    Timing str = RunOnce(text, budget, HorizontalMethod::kBranchEdge,
                         "fig7a_str");
    Timing mem = RunOnce(text, budget, HorizontalMethod::kPrepareBuild,
                         "fig7a_mem");
    table.AddRow({Mib(n), Secs(str.wall), Secs(str.modeled), Secs(mem.wall),
                  Secs(mem.modeled), Ratio(str.modeled / mem.modeled)});
  }
  table.Print();
}

void MemorySweep() {
  std::printf("\nFigure 7(b): horizontal methods, memory sweep, |S| = %s "
              "(paper: 2 GBps)\n\n",
              Mib(Scaled(2 << 20)).c_str());
  Table table({"Memory(MiB)", "ERA-str wall", "ERA-str modeled",
               "ERA-str+mem wall", "ERA-str+mem modeled", "speedup(modeled)"});
  TextInfo text = MakeCorpus(CorpusKind::kDna, Scaled(1 << 20));
  for (uint64_t kb : {512, 1024, 2048, 4096}) {
    uint64_t budget = Scaled(static_cast<uint64_t>(kb) << 10);
    Timing str = RunOnce(text, budget, HorizontalMethod::kBranchEdge,
                         "fig7b_str");
    Timing mem = RunOnce(text, budget, HorizontalMethod::kPrepareBuild,
                         "fig7b_mem");
    table.AddRow({Mib(budget), Secs(str.wall), Secs(str.modeled),
                  Secs(mem.wall), Secs(mem.modeled),
                  Ratio(str.modeled / mem.modeled)});
  }
  table.Print();
}

}  // namespace
}  // namespace bench
}  // namespace era

int main() {
  era::bench::SizeSweep();
  era::bench::MemorySweep();
  return 0;
}
