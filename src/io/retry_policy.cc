#include "io/retry_policy.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace era {

namespace {

/// SplitMix64: cheap, stateless, well-mixed — the jitter only needs to
/// decorrelate concurrent retriers, not pass randomness tests.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

double RetryPolicy::BackoffSeconds(uint32_t attempt) const {
  double nominal = initial_backoff_seconds;
  for (uint32_t i = 1; i < attempt; ++i) nominal *= backoff_multiplier;
  nominal = std::min(nominal, max_backoff_seconds);
  double unit = static_cast<double>(Mix(jitter_seed ^ attempt) >> 11) /
                static_cast<double>(1ull << 53);
  return nominal * (0.5 + 0.5 * unit);
}

Status RunWithRetry(const RetryPolicy& policy, const QueryContext* ctx,
                    const std::function<Status()>& op, uint64_t* retries) {
  Status s = op();
  for (uint32_t attempt = 1;
       !s.ok() && s.IsIOError() && attempt < policy.max_attempts; ++attempt) {
    double backoff = policy.BackoffSeconds(attempt);
    if (ctx != nullptr) {
      // Return the IOError promptly rather than burn budget the caller no
      // longer has: a sleep that outlives the deadline helps no one, and a
      // cancelled caller has stopped listening.
      if (ctx->cancelled() || ctx->RemainingSeconds() <= backoff) return s;
    }
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    }
    if (retries != nullptr) ++*retries;
    s = op();
  }
  return s;
}

}  // namespace era
