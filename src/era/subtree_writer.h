// Bounded background construction and serialization of sub-trees: the
// build-and-write stage of every ERA build, and the only way a sub-tree
// leaves its preparing worker. ParallelBuilder runs one writer thread per
// worker (a serial build is one preparing thread plus one writer thread);
// each ClusterBuilder node runs its own one-thread writer.
//
// A worker hands each resolved prefix's (L, B) off and immediately returns
// to preparing; a ThreadPool runs BuildSubTree on it, frees L and B, and
// writes the tree through WriteSubTree, so workers only prepare.
// BranchEdge groups, whose fused pass yields built trees, hand a TreeBuffer
// off instead. Admission is bounded by queued bytes (a prepared prefix's L
// and B, a built tree's nodes) so a slow device cannot buffer an entire
// build in memory; beyond the bound, each writer thread holds the one tree
// it is building and encoding. Output determinism is unaffected: each
// file's bytes depend only on (prefix, tree), and the st_<group>_<k> naming
// plus slot-indexed GroupOutput recording fix the assembly order before any
// write races can occur.

#ifndef ERA_ERA_SUBTREE_WRITER_H_
#define ERA_ERA_SUBTREE_WRITER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "common/thread_pool.h"
#include "era/subtree_prepare.h"
#include "io/env.h"
#include "io/io_stats.h"
#include "suffixtree/tree_buffer.h"

namespace era {

class BackgroundSubTreeWriter {
 public:
  /// `max_queued_bytes` bounds the in-memory backlog (bytes of jobs
  /// accepted but not yet written); Enqueue blocks while it is exceeded. A
  /// job larger than the whole bound is still admitted once the queue is
  /// empty, so progress is always possible.
  BackgroundSubTreeWriter(Env* env, std::size_t num_threads,
                          uint64_t max_queued_bytes);
  /// Drains outstanding writes (errors are reported via Drain; call it).
  ~BackgroundSubTreeWriter();

  BackgroundSubTreeWriter(const BackgroundSubTreeWriter&) = delete;
  BackgroundSubTreeWriter& operator=(const BackgroundSubTreeWriter&) = delete;

  /// Invoked once per job with its outcome and, on success, the CRC-32C of
  /// the published file (checkpointing hook) and the in-memory bytes of the
  /// tree written. Runs on a writer thread with no writer lock held; must
  /// be cheap and thread-safe.
  using WriteDone =
      std::function<void(const Status&, uint32_t file_crc,
                         uint64_t tree_bytes)>;

  /// Queues the built `tree` for serialization to `path`; it counts its
  /// node bytes against the bound. Blocks on backpressure. After the first
  /// error every later job is dropped (its `done` fires with that error);
  /// Drain() returns the original error (a write error names its path).
  void Enqueue(std::string path, std::string prefix, TreeBuffer tree,
               WriteDone done = nullptr);

  /// Queues a prepared prefix: a writer thread runs BuildSubTree on it (the
  /// text is `text_length` bytes, terminal included), frees L and B, then
  /// writes the tree to `path` as Enqueue does. It counts its L and B bytes
  /// against the bound. A failed build fails the writer as a failed write
  /// does, and no file is written for it.
  void EnqueuePrepared(std::string path, PreparedSubTree prepared,
                       uint64_t text_length, WriteDone done = nullptr);

  /// True once a job has failed (or a submission was rejected). Lock-cheap
  /// fast path that producers poll between tasks to stop building doomed
  /// work early; Drain() has the authoritative Status.
  bool Failed() const;

  /// Waits for every queued job and returns the first error.
  Status Drain();

  /// Aggregate serialization traffic. Only stable after Drain().
  const IoStats& io() const { return io_; }
  /// High-water mark of the backlog, for tuning the bound.
  uint64_t peak_queued_bytes() const { return peak_queued_bytes_; }
  /// Summed wall time the writer threads spent inside BuildSubTree and the
  /// number of trees built — the "build_subtree" phase of a build's
  /// profile. Only stable after Drain().
  double build_seconds() const { return build_seconds_; }
  uint64_t jobs_built() const { return jobs_built_; }
  /// Summed wall time the writer threads spent inside WriteSubTree and the
  /// number of jobs written — the "subtree_write" phase of a build's profile.
  /// Only stable after Drain().
  double write_seconds() const { return write_seconds_; }
  uint64_t jobs_written() const { return jobs_written_; }

 private:
  struct Job;

  /// Admits `job` against the bound, blocking while the backlog is full,
  /// and submits it to the pool (or drops it after the first error).
  void Submit(std::shared_ptr<Job> job);
  /// Builds (for a prepared job) and writes one admitted job.
  void Run(Job& job);

  Env* env_;
  uint64_t max_queued_bytes_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t queued_bytes_ = 0;
  uint64_t peak_queued_bytes_ = 0;
  Status first_error_;
  std::atomic<bool> failed_{false};  // mirrors !first_error_.ok()

  IoStats io_;
  double build_seconds_ = 0;
  uint64_t jobs_built_ = 0;
  double write_seconds_ = 0;
  uint64_t jobs_written_ = 0;
  ThreadPool pool_;  // last: its workers use the members above
};

}  // namespace era

#endif  // ERA_ERA_SUBTREE_WRITER_H_
