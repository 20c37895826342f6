// Bounded background serialization of finished sub-trees (the write-overlap
// stage of the pipelined horizontal phase).
//
// Workers hand a built TreeBuffer off and immediately return to preparing or
// building the next prefix; a small ThreadPool drains the queue through
// WriteSubTree. Admission is bounded by queued bytes so a slow device cannot
// buffer an entire build in memory. Output determinism is unaffected: each
// file's bytes depend only on (prefix, tree), and the st_<group>_<k> naming
// plus slot-indexed GroupOutput recording fix the assembly order before any
// write races can occur.

#ifndef ERA_ERA_SUBTREE_WRITER_H_
#define ERA_ERA_SUBTREE_WRITER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "common/status.h"
#include "common/thread_pool.h"
#include "io/env.h"
#include "io/io_stats.h"
#include "suffixtree/tree_buffer.h"

namespace era {

class BackgroundSubTreeWriter {
 public:
  /// `max_queued_bytes` bounds the in-memory backlog (tree bytes accepted
  /// but not yet written); Enqueue blocks while it is exceeded. A tree
  /// larger than the whole bound is still admitted once the queue is empty,
  /// so progress is always possible.
  BackgroundSubTreeWriter(Env* env, std::size_t num_threads,
                          uint64_t max_queued_bytes);
  /// Drains outstanding writes (errors are reported via Drain; call it).
  ~BackgroundSubTreeWriter();

  BackgroundSubTreeWriter(const BackgroundSubTreeWriter&) = delete;
  BackgroundSubTreeWriter& operator=(const BackgroundSubTreeWriter&) = delete;

  /// Invoked once per job with the write outcome and, on success, the
  /// CRC-32C of the published file (checkpointing hook). Runs on a writer
  /// thread with no writer lock held; must be cheap and thread-safe.
  using WriteDone = std::function<void(const Status&, uint32_t file_crc)>;

  /// Queues `tree` for serialization to `path`. Blocks on backpressure.
  /// After the first write error every later Enqueue is dropped (its `done`
  /// fires with that error); Drain() returns the original error, which
  /// names the failing path.
  void Enqueue(std::string path, std::string prefix, TreeBuffer tree,
               WriteDone done = nullptr);

  /// True once a write has failed (or a submission was rejected). Lock-cheap
  /// fast path that producers poll between tasks to stop building doomed
  /// work early; Drain() has the authoritative Status.
  bool Failed() const;

  /// Waits for every queued write and returns the first error.
  Status Drain();

  /// Aggregate serialization traffic. Only stable after Drain().
  const IoStats& io() const { return io_; }
  /// High-water mark of the backlog, for tuning the bound.
  uint64_t peak_queued_bytes() const { return peak_queued_bytes_; }
  /// Summed wall time the writer threads spent inside WriteSubTree and the
  /// number of jobs written — the "subtree_write" phase of a build's profile.
  /// Only stable after Drain().
  double write_seconds() const { return write_seconds_; }
  uint64_t jobs_written() const { return jobs_written_; }

 private:
  Env* env_;
  uint64_t max_queued_bytes_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t queued_bytes_ = 0;
  uint64_t peak_queued_bytes_ = 0;
  Status first_error_;
  std::atomic<bool> failed_{false};  // mirrors !first_error_.ok()

  IoStats io_;
  double write_seconds_ = 0;
  uint64_t jobs_written_ = 0;
  ThreadPool pool_;  // last: its workers use the members above
};

}  // namespace era

#endif  // ERA_ERA_SUBTREE_WRITER_H_
