#include "bench/bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "io/env.h"

namespace era {
namespace bench {

double ScaleFactor() {
  static const double scale = [] {
    const char* raw = std::getenv("ERA_BENCH_SCALE");
    if (raw == nullptr) return 1.0;
    double v = std::atof(raw);
    return v > 0 ? v : 1.0;
  }();
  return scale;
}

uint64_t Scaled(uint64_t base) {
  uint64_t v = static_cast<uint64_t>(static_cast<double>(base) *
                                     ScaleFactor());
  return std::max<uint64_t>(4096, v & ~uint64_t{4095});
}

std::string BenchDataDir() {
  static const std::string dir = [] {
    const char* raw = std::getenv("ERA_BENCH_DIR");
    std::string d = raw != nullptr ? raw : "/tmp/era_bench";
    Status s = GetDefaultEnv()->CreateDir(d);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot create bench dir %s: %s\n", d.c_str(),
                   s.ToString().c_str());
      std::exit(1);
    }
    return d;
  }();
  return dir;
}

TextInfo MakeCorpus(CorpusKind kind, uint64_t body_length, uint64_t seed) {
  std::ostringstream path;
  path << BenchDataDir() << "/" << CorpusName(kind) << "_" << body_length
       << "_" << seed << ".txt";
  auto info = MaterializeCorpus(GetDefaultEnv(), path.str(), kind,
                                body_length, seed);
  if (!info.ok()) {
    std::fprintf(stderr, "corpus generation failed: %s\n",
                 info.status().ToString().c_str());
    std::exit(1);
  }
  return *info;
}

std::string WorkDir(const std::string& tag) {
  std::string dir = BenchDataDir() + "/work_" + tag;
  Status s = GetDefaultEnv()->CreateDir(dir);
  if (!s.ok()) {
    std::fprintf(stderr, "cannot create work dir: %s\n",
                 s.ToString().c_str());
    std::exit(1);
  }
  return dir;
}

BuildOptions BenchOptions(uint64_t memory_budget, const std::string& tag) {
  BuildOptions options;
  options.memory_budget = memory_budget;
  options.work_dir = WorkDir(tag);
  // The figure/table harnesses price IoStats with DiskModel to reproduce
  // the paper's algorithmic I/O, so they measure the uncached streaming
  // cost model; the shared tile cache's win is recorded by bench_e2e_build
  // (io_amplification columns in BENCH_era.json).
  options.tile_cache = false;
  return options;
}

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void Table::AddRow(const std::vector<std::string>& cells) {
  rows_.push_back({cells});
}

void Table::Print() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const Row& row : rows_) {
    for (std::size_t c = 0; c < row.cells.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row.cells[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(widths[c]), cells[c].c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  std::printf("%s\n", std::string(total, '-').c_str());
  for (const Row& row : rows_) print_row(row.cells);
}

std::string Secs(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", s);
  return buf;
}

std::string Mib(uint64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fMiB",
                static_cast<double>(bytes) / (1024.0 * 1024.0));
  return buf;
}

std::string Num(uint64_t v) { return std::to_string(v); }

std::string Ratio(double r) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", r);
  return buf;
}

const DiskModel& BenchDiskModel() {
  static const DiskModel model;
  return model;
}

Timing TimingOf(const BuildStats& stats) {
  Timing t;
  t.wall = stats.total_seconds;
  t.modeled = stats.ModeledSeconds(BenchDiskModel());
  return t;
}

double ArgOr(int argc, char** argv, const char* name, double def) {
  const std::string key = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], key.c_str(), key.size()) == 0) {
      return std::atof(argv[i] + key.size());
    }
  }
  return def;
}

ScopedRemoveAll::~ScopedRemoveAll() {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace bench
}  // namespace era
