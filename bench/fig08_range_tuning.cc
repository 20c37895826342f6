// Figure 8: tuning the size of the read-ahead buffer R.
//   (a) DNA (|Σ| = 4): a small R suffices (paper: 32 MB best).
//   (b) Protein (|Σ| = 20): the larger branching factor needs a larger R
//       (paper: 256 MB best).
// Sizes scaled 1:256 from the paper's 2.5-4 GBps at 1 GB RAM.

#include <cstdio>

#include "bench/bench_common.h"
#include "era/parallel_builder.h"

namespace era {
namespace bench {
namespace {

void Sweep(CorpusKind kind, const std::vector<uint64_t>& r_sizes_kib) {
  const uint64_t budget = Scaled(2 << 20);  // paper: 1 GB
  std::printf("\nFigure 8(%s): R tuning, %s, budget = %s (paper: 1 GB)\n\n",
              kind == CorpusKind::kDna ? "a" : "b", CorpusName(kind),
              Mib(budget).c_str());
  std::vector<std::string> headers{"Size(MiB)"};
  for (uint64_t r : r_sizes_kib) headers.push_back("R=" + Num(r) + "KiB");
  Table table(headers);
  for (uint64_t kb : {1280, 1536}) {
    uint64_t n = Scaled(static_cast<uint64_t>(kb) << 10);
    TextInfo text = MakeCorpus(kind, n);
    std::vector<std::string> row{Mib(n)};
    for (uint64_t r_kib : r_sizes_kib) {
      BuildOptions options = BenchOptions(budget, "fig8");
      options.r_buffer_bytes = Scaled(r_kib << 10);
      ParallelBuilder builder(options, 1);
      auto result = builder.Build(text);
      if (!result.ok()) {
        std::fprintf(stderr, "build failed: %s\n",
                     result.status().ToString().c_str());
        std::exit(1);
      }
      row.push_back(Secs(TimingOf(result->stats).modeled));
    }
    table.AddRow(row);
  }
  table.Print();
}

}  // namespace
}  // namespace bench
}  // namespace era

int main() {
  // Paper values divided by 256: 16/32/64/128 MB -> 64..512 KiB etc.
  era::bench::Sweep(era::CorpusKind::kDna, {64, 128, 256});
  era::bench::Sweep(era::CorpusKind::kProtein, {128, 256, 512});
  return 0;
}
