#include "common/options.h"

#include <algorithm>

#include "io/env.h"

namespace era {

Env* BuildOptions::GetEnv() const {
  return env != nullptr ? env : GetDefaultEnv();
}

Status ValidateBuildOptions(const BuildOptions& options) {
  if (options.work_dir.empty()) {
    return Status::InvalidArgument("work_dir must be set");
  }
  if (options.memory_budget < (1 << 16)) {
    return Status::InvalidArgument("memory_budget must be at least 64 KB");
  }
  if (options.range_policy == RangePolicyKind::kFixed &&
      options.fixed_range == 0) {
    return Status::InvalidArgument("fixed_range must be positive");
  }
  if (options.input_buffer_bytes < 4096) {
    return Status::InvalidArgument("input_buffer_bytes must be >= 4 KB");
  }
  return Status::OK();
}

uint64_t ResolveRBufferBytes(const BuildOptions& options, int alphabet_size) {
  if (options.r_buffer_bytes != 0) return options.r_buffer_bytes;
  // Scaled version of the paper's tuning (Figure 8): small alphabets need a
  // smaller R; larger alphabets (bigger branching factor, more concurrent
  // active areas) benefit from a larger one.
  uint64_t lo = alphabet_size <= 4 ? (64ull << 10) : (256ull << 10);
  uint64_t hi = alphabet_size <= 4 ? (32ull << 20) : (256ull << 20);
  uint64_t auto_size = options.memory_budget / 16;
  return std::clamp(auto_size, lo, hi);
}

}  // namespace era
