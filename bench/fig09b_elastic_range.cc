// Figure 9(b): elastic range vs static 16/32-symbol ranges.
// Expected shape: elastic wins and its advantage grows with string length
// (paper: 46%-240%); a larger static range is NOT a substitute — 32 symbols
// beats 16 on long strings but loses on short ones.

#include <cstdio>

#include "bench/bench_common.h"
#include "era/parallel_builder.h"

namespace era {
namespace bench {
namespace {

BuildStats RunOnce(const TextInfo& text, uint64_t budget,
                   RangePolicyKind policy, uint32_t fixed_range) {
  BuildOptions options = BenchOptions(budget, "fig9b");
  options.range_policy = policy;
  options.fixed_range = fixed_range;
  ParallelBuilder builder(options, 1);
  auto result = builder.Build(text);
  if (!result.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return result->stats;
}

void Run() {
  const uint64_t budget = Scaled(2 << 20);  // paper: 1 GB
  std::printf("Figure 9(b): elastic range, DNA, budget = %s (paper: 1 GB)\n\n",
              Mib(budget).c_str());
  Table table({"DNA(MiB)", "elastic", "static-16", "static-32",
               "elastic rounds", "static-16 rounds", "gain vs s16"});
  for (uint64_t kb : {512, 1024, 1536}) {
    uint64_t n = Scaled(static_cast<uint64_t>(kb) << 10);
    TextInfo text = MakeCorpus(CorpusKind::kDna, n);
    BuildStats elastic =
        RunOnce(text, budget, RangePolicyKind::kElastic, 0);
    BuildStats s16 = RunOnce(text, budget, RangePolicyKind::kFixed, 16);
    BuildStats s32 = RunOnce(text, budget, RangePolicyKind::kFixed, 32);
    table.AddRow({Mib(n), Secs(TimingOf(elastic).modeled),
                  Secs(TimingOf(s16).modeled), Secs(TimingOf(s32).modeled),
                  Num(elastic.prepare_rounds), Num(s16.prepare_rounds),
                  Ratio(TimingOf(s16).modeled / TimingOf(elastic).modeled)});
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
