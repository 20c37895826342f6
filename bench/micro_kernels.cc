// Micro-benchmarks (google-benchmark) for the computational kernels under
// the paper's algorithms: SA-IS, Kasai LCP, Aho-Corasick scanning,
// SubTreePrepare, BuildSubTree, Ukkonen, sub-tree encode + write, CRC32 and
// symbol packing.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <initializer_list>
#include <optional>
#include <type_traits>

#include "alphabet/encoded_string.h"
#include "common/crc32.h"
#include "era/build_subtree.h"
#include "suffixtree/canonical.h"
#include "era/range_policy.h"
#include "era/subtree_prepare.h"
#include "era/subtree_prepare_baseline.h"
#include "io/mem_env.h"
#include "io/string_reader.h"
#include "sa/lcp.h"
#include "sa/sais.h"
#include "suffixtree/serializer.h"
#include "text/aho_corasick.h"
#include "text/text_generator.h"
#include "ukkonen/ukkonen.h"

namespace era {
namespace {

std::string DnaText(uint64_t n) { return GenerateDna(n, 12345); }

void BM_SaIs(benchmark::State& state) {
  std::string text = DnaText(static_cast<uint64_t>(state.range(0)));
  for (auto _ : state) {
    auto sa = BuildSuffixArray(text);
    benchmark::DoNotOptimize(sa.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_SaIs)->Arg(64 << 10)->Arg(512 << 10);

void BM_KasaiLcp(benchmark::State& state) {
  std::string text = DnaText(static_cast<uint64_t>(state.range(0)));
  auto sa = BuildSuffixArray(text);
  for (auto _ : state) {
    auto lcp = BuildLcpArray(text, sa);
    benchmark::DoNotOptimize(lcp.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_KasaiLcp)->Arg(64 << 10)->Arg(512 << 10);

/// A virtual tree's prefix set: `n` prefix-free DNA strings of length 3-6
/// drawn from the text, as the occurrence scan of one group sees them.
std::vector<std::string> GroupPrefixes(const std::string& text, std::size_t n) {
  std::vector<std::string> prefixes;
  for (uint64_t i = 0; prefixes.size() < n; ++i) {
    const std::string p =
        text.substr((i * 7919) % (text.size() - 8), 3 + i % 4);
    const bool clashes = std::any_of(
        prefixes.begin(), prefixes.end(), [&](const std::string& q) {
          return q.compare(0, p.size(), p) == 0 ||
                 p.compare(0, q.size(), q) == 0;
        });
    if (!clashes) prefixes.push_back(p);
  }
  return prefixes;
}

/// Streams 1 MiB of DNA through the automaton: Arg(0) scans for 5 fixed
/// patterns, Arg(n > 0) for a group-like set of n prefixes.
void BM_AhoCorasickScan(benchmark::State& state) {
  std::string text = DnaText(1 << 20);
  MemEnv env;
  (void)env.WriteFile("/s", text);
  std::vector<std::string> patterns =
      state.range(0) == 0
          ? std::vector<std::string>{"ACGT", "TTA", "GGAC", "CACA", "TGTGT"}
          : GroupPrefixes(text, static_cast<std::size_t>(state.range(0)));
  auto ac = AhoCorasick::Build(patterns);
  IoStats stats;
  auto reader = OpenStringReader(&env, "/s", {}, &stats);
  uint64_t matches = 0;
  for (auto _ : state) {
    Status s = ac->ScanAll(reader->get(),
                           [&](int32_t, uint64_t) { ++matches; });
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    benchmark::DoNotOptimize(matches);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_AhoCorasickScan)->Arg(0)->Arg(40);

// SubTreePrepare old-vs-new: BM_SubTreePrepare runs the allocation-free
// radix/arena/batched-fetch kernel over packed windows,
// BM_SubTreePrepareBaseline the checked-in pre-refactor path over byte
// windows (era/subtree_prepare_baseline.h). 512 KiB DNA, elastic range of
// 1 Mi symbols, so both kernels run the same rounds — the acceptance
// configuration for the rewrite's speedup. BM_SubTreePrepareProtein runs
// the kernel's 5-bit codes over 512 KiB of protein. The prefixes carry
// their exact frequencies, counted once before timing, as vertical
// partitioning hands them to the horizontal phase.
template <typename Preparer>
void RunSubTreePrepare(benchmark::State& state, const Alphabet& alphabet,
                       const std::string& text,
                       std::initializer_list<const char*> prefixes) {
  MemEnv env;
  (void)env.WriteFile("/s", text);
  VirtualTree group;
  for (const char* prefix : prefixes) {
    uint64_t frequency = 0;
    for (std::size_t pos = text.find(prefix); pos != std::string::npos;
         pos = text.find(prefix, pos + 1)) {
      ++frequency;
    }
    group.prefixes.push_back({prefix, frequency});
    group.total_frequency += frequency;
  }
  const RangePolicy policy = RangePolicy::Elastic(1 << 20, 4, 4096);
  IoStats stats;
  for (auto _ : state) {
    auto reader = OpenStringReader(&env, "/s", {}, &stats);
    std::optional<Preparer> preparer;
    if constexpr (std::is_same_v<Preparer, GroupPreparer>) {
      preparer.emplace(group, policy, reader->get(), text.size(), alphabet);
    } else {
      preparer.emplace(group, policy, reader->get(), text.size());
    }
    Status s = preparer->Run();
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(preparer->results().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}

void BM_SubTreePrepare(benchmark::State& state) {
  RunSubTreePrepare<GroupPreparer>(state, Alphabet::Dna(), DnaText(512 << 10),
                                   {"AC", "CA", "GG", "GT", "TG", "TT"});
}
BENCHMARK(BM_SubTreePrepare);

void BM_SubTreePrepareBaseline(benchmark::State& state) {
  RunSubTreePrepare<BaselineGroupPreparer>(
      state, Alphabet::Dna(), DnaText(512 << 10),
      {"AC", "CA", "GG", "GT", "TG", "TT"});
}
BENCHMARK(BM_SubTreePrepareBaseline);

void BM_SubTreePrepareProtein(benchmark::State& state) {
  RunSubTreePrepare<GroupPreparer>(state, Alphabet::Protein(),
                                   GenerateProtein(512 << 10, 12345),
                                   {"A", "E", "G", "L", "S", "V"});
}
BENCHMARK(BM_SubTreePrepareProtein);

void BM_BuildSubTree(benchmark::State& state) {
  std::string text = DnaText(1 << 20);
  SaLcp canon;
  canon.sa = BuildSuffixArray(text);
  auto lcp = BuildLcpArray(text, canon.sa);
  PreparedSubTree prepared;
  prepared.prefix = "";
  prepared.leaves = canon.sa;
  prepared.branches.resize(canon.sa.size());
  // The prefix is empty, so B[0].c2 carries L[0]'s first symbol.
  prepared.branches[0].c2 = text[canon.sa[0]];
  prepared.branches[0].defined = true;
  for (std::size_t i = 1; i < canon.sa.size(); ++i) {
    prepared.branches[i].offset = lcp[i];
    prepared.branches[i].c1 = text[canon.sa[i - 1] + lcp[i]];
    prepared.branches[i].c2 = text[canon.sa[i] + lcp[i]];
    prepared.branches[i].defined = true;
  }
  for (auto _ : state) {
    auto tree = BuildSubTree(prepared, text.size());
    benchmark::DoNotOptimize(&tree);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(canon.sa.size()));
}
BENCHMARK(BM_BuildSubTree);

void BM_Ukkonen(benchmark::State& state) {
  std::string text = DnaText(static_cast<uint64_t>(state.range(0)));
  for (auto _ : state) {
    auto tree = BuildUkkonenTree(text);
    benchmark::DoNotOptimize(&tree);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_Ukkonen)->Arg(64 << 10)->Arg(256 << 10);

/// The writer's encode layer: slot placement, bit-packing, CRC and the
/// file write of one Ukkonen tree of 256 KiB of DNA into a MemEnv. Items
/// are tree nodes, so the time per item is ns per node.
void BM_WriteSubTree(benchmark::State& state) {
  auto tree = BuildUkkonenTree(DnaText(256 << 10));
  MemEnv env;
  for (auto _ : state) {
    Status s = WriteSubTree(&env, "/st", "", *tree, nullptr);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tree->size()));
}
BENCHMARK(BM_WriteSubTree);

void BM_Crc32c(benchmark::State& state) {
  std::string data = DnaText(1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_Crc32c);

void BM_EncodedStringExtract(benchmark::State& state) {
  std::string text = DnaText(1 << 20);
  auto encoded = EncodedString::Encode(Alphabet::Dna(), text);
  char buf[64];
  uint64_t pos = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoded->Extract(pos % (1 << 20), 64, buf));
    pos += 4097;
  }
  state.SetBytesProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EncodedStringExtract);

}  // namespace
}  // namespace era

BENCHMARK_MAIN();
