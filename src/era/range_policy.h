// GetRangeOfSymbols (Section 4.4): elastic vs static prefetch ranges.

#ifndef ERA_ERA_RANGE_POLICY_H_
#define ERA_ERA_RANGE_POLICY_H_

#include <algorithm>
#include <cstdint>

#include "common/options.h"

namespace era {

/// Clamps of the elastic range: at least 4 symbols per active leaf and
/// round, at most 64 Ki.
inline constexpr uint32_t kMinElasticRange = 4;
inline constexpr uint32_t kMaxElasticRange = 64 << 10;

/// Decides how many symbols to prefetch per unresolved leaf in one
/// SubTreePrepare iteration.
class RangePolicy {
 public:
  /// Elastic range: |R| / active leaves, clamped to [min_range, max_range].
  /// As leaves resolve, the constant-size R is redistributed over the
  /// survivors and the range grows, cutting the number of scans of S.
  static RangePolicy Elastic(uint64_t r_buffer_bytes, uint32_t min_range,
                             uint32_t max_range) {
    RangePolicy p;
    p.elastic_ = true;
    p.r_buffer_bytes_ = r_buffer_bytes;
    p.min_range_ = min_range;
    p.max_range_ = max_range;
    return p;
  }

  /// Static range (the 16/32-symbol baselines of Figure 9(b)).
  static RangePolicy Fixed(uint32_t range) {
    RangePolicy p;
    p.elastic_ = false;
    p.min_range_ = p.max_range_ = range;
    return p;
  }

  /// Builds the policy selected by `options` with the resolved R size.
  static RangePolicy FromOptions(const BuildOptions& options,
                                 uint64_t r_buffer_bytes) {
    if (options.range_policy == RangePolicyKind::kFixed) {
      return Fixed(options.fixed_range);
    }
    return Elastic(r_buffer_bytes, kMinElasticRange, kMaxElasticRange);
  }

  /// Range for the next iteration given the surviving active leaf count.
  uint32_t NextRange(uint64_t active_leaves) const {
    if (!elastic_) return min_range_;
    if (active_leaves == 0) return min_range_;
    uint64_t range = r_buffer_bytes_ / active_leaves;
    return static_cast<uint32_t>(
        std::clamp<uint64_t>(range, min_range_, max_range_));
  }

  bool elastic() const { return elastic_; }

 private:
  bool elastic_ = true;
  uint64_t r_buffer_bytes_ = 0;
  uint32_t min_range_ = kMinElasticRange;
  uint32_t max_range_ = kMaxElasticRange;
};

}  // namespace era

#endif  // ERA_ERA_RANGE_POLICY_H_
