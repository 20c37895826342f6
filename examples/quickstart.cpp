// Quickstart: build a disk-based suffix-tree index with ERA and query it.
//
//   ./quickstart [body_length]
//
// Generates a synthetic DNA string, indexes it with a deliberately small
// memory budget (out-of-core regime), and runs a few exact-match queries.

#include <cstdio>
#include <cstdlib>

#include "era/parallel_builder.h"
#include "io/env.h"
#include "query/query_engine.h"
#include "text/corpus.h"

int main(int argc, char** argv) {
  using namespace era;

  const uint64_t body_length =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : (2ull << 20);
  Env* env = GetDefaultEnv();
  const std::string dir = "/tmp/era_quickstart";
  if (Status s = env->CreateDir(dir); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  // 1. Materialize a corpus (any text over a declared alphabet works; FASTA
  //    import is available through text/fasta.h).
  std::printf("generating %llu symbols of DNA...\n",
              static_cast<unsigned long long>(body_length));
  auto text = MaterializeCorpus(env, dir + "/genome.txt", CorpusKind::kDna,
                                body_length, /*seed=*/42);
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
    return 1;
  }

  // 2. Build the index. The budget is ~1/4 of the string: ERA runs in its
  //    out-of-core regime, partitioning the tree into virtual trees.
  BuildOptions options;
  options.work_dir = dir + "/index";
  options.memory_budget = std::max<uint64_t>(1 << 20, body_length / 2);
  ParallelBuilder builder(options, 1);
  auto result = builder.Build(*text);
  if (!result.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("built index: %s\n", result->stats.ToString().c_str());
  std::printf("  %llu sub-trees in %llu virtual trees (FM = %llu leaves)\n",
              static_cast<unsigned long long>(result->stats.num_subtrees),
              static_cast<unsigned long long>(result->stats.num_groups),
              static_cast<unsigned long long>(result->stats.fm));

  // 3. Query: open the index from disk and search.
  auto engine = QueryEngine::Open(env, dir + "/index");
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }
  for (const char* pattern : {"ACGT", "TTTTTTTT", "GATTACA", "CCGG"}) {
    auto count = (*engine)->Count(pattern);
    if (!count.ok()) {
      std::fprintf(stderr, "%s\n", count.status().ToString().c_str());
      return 1;
    }
    std::printf("  '%s' occurs %llu times", pattern,
                static_cast<unsigned long long>(*count));
    auto hits = (*engine)->Locate(pattern, 3);
    if (hits.ok() && !hits->empty()) {
      std::printf(" (first at");
      for (uint64_t h : *hits) {
        std::printf(" %llu", static_cast<unsigned long long>(h));
      }
      std::printf(")");
    }
    std::printf("\n");
  }
  std::printf("done; index directory: %s\n", (dir + "/index").c_str());
  return 0;
}
