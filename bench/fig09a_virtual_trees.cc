// Figure 9(a): effect of grouping sub-trees into virtual trees.
// Expected shape: grouping wins consistently (paper: >= 23% faster) because
// one scan of S feeds the whole group instead of one sub-tree.

#include <cstdio>

#include "bench/bench_common.h"
#include "era/parallel_builder.h"

namespace era {
namespace bench {
namespace {

void Run() {
  const uint64_t budget = Scaled(2 << 20);  // paper: 1 GB
  std::printf("Figure 9(a): virtual trees, DNA, budget = %s (paper: 1 GB)\n\n",
              Mib(budget).c_str());
  Table table({"DNA(MiB)", "no-group wall", "no-group modeled",
               "grouped wall", "grouped modeled", "gain(modeled)",
               "scans no-group", "scans grouped"});
  for (uint64_t kb : {1024, 1536, 2048}) {
    uint64_t n = Scaled(static_cast<uint64_t>(kb) << 10);
    TextInfo text = MakeCorpus(CorpusKind::kDna, n);
    BuildStats stats[2];
    for (int grouped = 0; grouped <= 1; ++grouped) {
      BuildOptions options = BenchOptions(budget, "fig9a");
      options.group_virtual_trees = grouped == 1;
      ParallelBuilder builder(options, 1);
      auto result = builder.Build(text);
      if (!result.ok()) {
        std::fprintf(stderr, "build failed: %s\n",
                     result.status().ToString().c_str());
        std::exit(1);
      }
      stats[grouped] = result->stats;
    }
    Timing off = TimingOf(stats[0]);
    Timing on = TimingOf(stats[1]);
    table.AddRow({Mib(n), Secs(off.wall), Secs(off.modeled), Secs(on.wall),
                  Secs(on.modeled), Ratio(off.modeled / on.modeled),
                  Num(stats[0].io.scans_started),
                  Num(stats[1].io.scans_started)});
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
