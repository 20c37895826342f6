// Time-series motif discovery (Section 1's time-series analysis motivation,
// in the style of the paper's reference [15]).
//
//   ./timeseries_motif
//
// Generates a synthetic stream with an embedded recurring pattern,
// discretizes it SAX-style into a small symbolic alphabet, indexes the
// symbol string with ERA, and mines (a) the most frequent fixed-length
// motif and (b) the longest repeated pattern.

#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "era/parallel_builder.h"
#include "io/env.h"
#include "query/applications.h"
#include "query/query_engine.h"
#include "text/corpus.h"

namespace {

/// Piecewise discretization of a real-valued series into symbols a..h
/// (SAX-style equal-width bins after z-normalization).
std::string Discretize(const std::vector<double>& series, int bins) {
  double mean = 0;
  for (double v : series) mean += v;
  mean /= static_cast<double>(series.size());
  double var = 0;
  for (double v : series) var += (v - mean) * (v - mean);
  double stddev = std::sqrt(var / static_cast<double>(series.size()));
  if (stddev == 0) stddev = 1;

  std::string out;
  out.reserve(series.size() + 1);
  for (double v : series) {
    double z = (v - mean) / stddev;               // roughly in [-3, 3]
    int bin = static_cast<int>((z + 3.0) / 6.0 * bins);
    bin = std::max(0, std::min(bins - 1, bin));
    out.push_back(static_cast<char>('a' + bin));
  }
  out.push_back(era::kTerminal);
  return out;
}

}  // namespace

int main() {
  using namespace era;

  // ---- Synthetic stream: noise + a recurring "heartbeat" motif.
  const std::size_t length = 1 << 20;
  std::mt19937_64 rng(99);
  std::normal_distribution<double> noise(0.0, 0.4);
  std::vector<double> series(length);
  double level = 0;
  for (std::size_t i = 0; i < length; ++i) {
    level = 0.95 * level + noise(rng);
    series[i] = level;
  }
  // Plant the motif (two bumps) at pseudo-random offsets.
  std::vector<double> motif;
  for (int i = 0; i < 64; ++i) {
    motif.push_back(3.0 * std::sin(i / 64.0 * 2 * M_PI) +
                    1.5 * std::sin(i / 8.0 * 2 * M_PI));
  }
  const int plant_count = 24;
  for (int p = 0; p < plant_count; ++p) {
    std::size_t offset = (rng() % (length - motif.size()));
    for (std::size_t i = 0; i < motif.size(); ++i) {
      series[offset + i] = motif[i];
    }
  }

  // ---- Discretize and index.
  Env* env = GetDefaultEnv();
  const std::string dir = "/tmp/era_timeseries";
  if (Status s = env->CreateDir(dir); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::string symbols = Discretize(series, 8);
  auto alphabet = Alphabet::Create("abcdefgh");
  auto text = MaterializeText(env, dir + "/series.txt", *alphabet, symbols);
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
    return 1;
  }
  std::printf("discretized %zu samples into %d-symbol SAX string\n", length,
              8);

  BuildOptions options;
  options.work_dir = dir + "/index";
  options.memory_budget = 2 << 20;  // out-of-core regime on purpose
  ParallelBuilder builder(options, 1);
  auto result = builder.Build(*text);
  if (!result.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("indexed in %.2fs (%llu sub-trees, budget %s)\n",
              result->stats.total_seconds,
              static_cast<unsigned long long>(result->stats.num_subtrees),
              "2 MiB");

  // ---- Mine motifs.
  for (uint64_t k : {16ull, 32ull, 48ull}) {
    auto motif_hit = MostFrequentKmer(env, result->index, symbols, k);
    if (!motif_hit.ok()) {
      std::fprintf(stderr, "%s\n", motif_hit.status().ToString().c_str());
      return 1;
    }
    std::printf("most frequent length-%llu motif: %llu occurrences at "
                "offset %llu\n",
                static_cast<unsigned long long>(k),
                static_cast<unsigned long long>(motif_hit->count),
                static_cast<unsigned long long>(motif_hit->offset));
  }

  auto lrs = LongestRepeatedSubstring(env, result->index, symbols);
  if (!lrs.ok()) {
    std::fprintf(stderr, "%s\n", lrs.status().ToString().c_str());
    return 1;
  }
  std::printf("longest repeated pattern: %llu samples (planted motif is %zu "
              "samples, recurring %dx)\n",
              static_cast<unsigned long long>(lrs->length), motif.size(),
              plant_count);
  return 0;
}
