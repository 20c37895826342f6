// GetRangeOfSymbols (Section 4.4): elastic vs static prefetch ranges.

#ifndef ERA_ERA_RANGE_POLICY_H_
#define ERA_ERA_RANGE_POLICY_H_

#include <algorithm>
#include <cstdint>

#include "common/options.h"
#include "era/memory_layout.h"

namespace era {

/// Clamps of the elastic range: at least 4 symbols per active leaf and
/// round, at most 64 Ki.
inline constexpr uint32_t kMinElasticRange = 4;
inline constexpr uint32_t kMaxElasticRange = 64 << 10;

/// Decides how many symbols to prefetch per unresolved leaf in one
/// SubTreePrepare iteration.
class RangePolicy {
 public:
  /// Elastic range: R's capacity in symbols / active leaves, clamped to
  /// [min_range, max_range]. As leaves resolve, the constant-size R is
  /// redistributed over the survivors and the range grows, cutting the
  /// number of scans of S.
  static RangePolicy Elastic(uint64_t r_symbols, uint32_t min_range,
                             uint32_t max_range) {
    RangePolicy p;
    p.elastic_ = true;
    p.r_symbols_ = r_symbols;
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

  /// Builds the policy selected by `options` for the planned `layout`. R's
  /// windows store `symbol_bits` bits per symbol, so R holds
  /// floor(8 * R / symbol_bits) symbols: WindowCode::bits() for
  /// GroupPreparer's packed windows, 8 for BranchEdge's byte windows. An
  /// elastic window never outgrows the input buffer B_S: a longer one spans
  /// refills, and every overlapping request after it would make the sorted
  /// fetch pass seek back and read it again.
  static RangePolicy FromOptions(const BuildOptions& options,
                                 const MemoryLayout& layout,
                                 uint32_t symbol_bits) {
    if (options.range_policy == RangePolicyKind::kFixed) {
      return Fixed(options.fixed_range);
    }
    return Elastic(8 * layout.r_buffer_bytes / symbol_bits, kMinElasticRange,
                   static_cast<uint32_t>(std::min<uint64_t>(
                       kMaxElasticRange, layout.input_buffer_bytes)));
  }

  /// Range for the next iteration given the surviving active leaf count.
  uint32_t NextRange(uint64_t active_leaves) const {
    if (!elastic_) return min_range_;
    if (active_leaves == 0) return min_range_;
    uint64_t range = r_symbols_ / active_leaves;
    return static_cast<uint32_t>(
        std::clamp<uint64_t>(range, min_range_, max_range_));
  }

  bool elastic() const { return elastic_; }

 private:
  bool elastic_ = true;
  uint64_t r_symbols_ = 0;
  uint32_t min_range_ = kMinElasticRange;
  uint32_t max_range_ = kMaxElasticRange;
};

}  // namespace era

#endif  // ERA_ERA_RANGE_POLICY_H_
