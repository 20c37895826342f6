// Bounded retry with exponential backoff for transient device-read faults.
//
// The horizontal phase of an ERA build streams hundreds of gigabytes on a
// genome-scale run; at that volume a single transient pread failure should
// cost one re-issue, not the whole build. RetryPolicy is the one shared
// knob: readers (StringReader, TileCache, TreeIndex) wrap their device reads
// in RunWithRetry and bill re-attempts to IoStats::read_retries so absorbed
// faults stay observable.

#ifndef ERA_IO_RETRY_POLICY_H_
#define ERA_IO_RETRY_POLICY_H_

#include <cstdint>
#include <functional>

#include "common/query_context.h"
#include "common/status.h"

namespace era {

/// How to retry an IOError'd device read. Only IOError is retried:
/// Corruption means the bytes arrived but are wrong — re-reading cannot fix
/// a bad checksum, and the caller must surface it (quarantine, rebuild).
struct RetryPolicy {
  /// Total attempts including the first (1 disables retry).
  uint32_t max_attempts = 4;
  /// Backoff before the first re-attempt, in seconds.
  double initial_backoff_seconds = 0.0002;
  /// Backoff growth per re-attempt.
  double backoff_multiplier = 4.0;
  /// Ceiling on a single backoff sleep, in seconds.
  double max_backoff_seconds = 0.05;
  /// Seed for the deterministic jitter applied to each backoff (scales the
  /// sleep into [0.5, 1.0) of nominal). Same seed, same sleeps — fault
  /// schedules in tests stay reproducible.
  uint64_t jitter_seed = 1;

  bool enabled() const { return max_attempts > 1; }

  /// Deterministic jittered backoff before re-attempt number `attempt`
  /// (1-based), in seconds. Exposed for tests.
  double BackoffSeconds(uint32_t attempt) const;
};

/// Runs `op` up to `policy.max_attempts` times, sleeping the jittered
/// backoff between IOError failures. Non-IOError statuses return
/// immediately. `*retries` (may be null) accumulates the number of
/// re-attempts actually performed, successful or not. Before each backoff
/// sleep the caller's context (may be null, meaning no deadline) is
/// consulted — if the token is cancelled or the remaining budget would be
/// consumed by the sleep, the last IOError is returned promptly instead.
/// The retry loop never sleeps past the caller's deadline: a retryable fault
/// with 1ms of budget left costs ~1ms, not a full backoff schedule.
Status RunWithRetry(const RetryPolicy& policy, const QueryContext* ctx,
                    const std::function<Status()>& op, uint64_t* retries);

}  // namespace era

#endif  // ERA_IO_RETRY_POLICY_H_
