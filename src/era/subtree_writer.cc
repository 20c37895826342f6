#include "era/subtree_writer.h"

#include <algorithm>
#include <utility>

#include "common/timer.h"
#include "era/build_subtree.h"
#include "suffixtree/serializer.h"

namespace era {

/// One queued job. Heap-allocated and shared because ThreadPool tasks are
/// std::function (copyable) while TreeBuffer is move-only in spirit.
struct BackgroundSubTreeWriter::Job {
  std::string path;
  std::string prefix;
  /// True for EnqueuePrepared: a writer thread builds `tree` from
  /// `prepared` first. Enqueue's job arrives with `tree` built.
  bool build = false;
  PreparedSubTree prepared;
  uint64_t text_length = 0;
  TreeBuffer tree;
  uint64_t bytes = 0;  // counted against the backlog bound
  WriteDone done;
};

BackgroundSubTreeWriter::BackgroundSubTreeWriter(Env* env,
                                                 std::size_t num_threads,
                                                 uint64_t max_queued_bytes)
    : env_(env),
      max_queued_bytes_(std::max<uint64_t>(max_queued_bytes, 1)),
      pool_(num_threads) {}

BackgroundSubTreeWriter::~BackgroundSubTreeWriter() { (void)Drain(); }

void BackgroundSubTreeWriter::Enqueue(std::string path, std::string prefix,
                                      TreeBuffer tree, WriteDone done) {
  auto job = std::make_shared<Job>();
  job->path = std::move(path);
  job->prefix = std::move(prefix);
  job->bytes = tree.MemoryBytes();
  job->tree = std::move(tree);
  job->done = std::move(done);
  Submit(std::move(job));
}

void BackgroundSubTreeWriter::EnqueuePrepared(std::string path,
                                              PreparedSubTree prepared,
                                              uint64_t text_length,
                                              WriteDone done) {
  auto job = std::make_shared<Job>();
  job->path = std::move(path);
  job->prefix = prepared.prefix;
  job->build = true;
  job->bytes = prepared.leaves.capacity() * sizeof(uint64_t) +
               prepared.branches.capacity() * sizeof(BranchInfo);
  job->prepared = std::move(prepared);
  job->text_length = text_length;
  job->done = std::move(done);
  Submit(std::move(job));
}

void BackgroundSubTreeWriter::Submit(std::shared_ptr<Job> job) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    // A failed build must not keep blocking producers on backpressure —
    // fail fast instead of draining a doomed backlog through the device.
    cv_.wait(lock, [this, &job] {
      return !first_error_.ok() || queued_bytes_ == 0 ||
             queued_bytes_ + job->bytes <= max_queued_bytes_;
    });
    if (!first_error_.ok()) {
      // Build is failing; drop the work (outside the lock for the callback).
      Status err = first_error_;
      lock.unlock();
      if (job->done) job->done(err, 0, 0);
      return;
    }
    queued_bytes_ += job->bytes;
    peak_queued_bytes_ = std::max(peak_queued_bytes_, queued_bytes_);
  }
  pool_.Submit([this, job] { Run(*job); });
}

void BackgroundSubTreeWriter::Run(Job& job) {
  Status s;
  {
    // Work queued before the first failure skips the build and the device.
    std::lock_guard<std::mutex> lock(mu_);
    s = first_error_;
  }
  const bool build = s.ok() && job.build;
  double build_seconds = 0;
  if (build) {
    WallTimer build_timer;
    StatusOr<TreeBuffer> tree = BuildSubTree(job.prepared, job.text_length);
    build_seconds = build_timer.Seconds();
    // L and B (24 bytes per leaf) are dead once the tree exists; free them
    // before encoding.
    job.prepared = PreparedSubTree();
    if (tree.ok()) {
      job.tree = std::move(*tree);
    } else {
      s = tree.status();
    }
  }
  const bool write = s.ok();
  IoStats local;
  uint32_t file_crc = 0;
  double write_seconds = 0;
  if (write) {
    WallTimer write_timer;
    s = WriteSubTree(env_, job.path, job.prefix, job.tree, &local, &file_crc);
    write_seconds = write_timer.Seconds();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    io_.Add(local);
    if (build) {
      build_seconds_ += build_seconds;
      ++jobs_built_;
    }
    if (write) {
      write_seconds_ += write_seconds;
      ++jobs_written_;
    }
    if (!s.ok() && first_error_.ok()) {
      first_error_ = s;
      failed_.store(true, std::memory_order_release);
    }
    queued_bytes_ -= job.bytes;
    cv_.notify_all();
  }
  if (job.done) job.done(s, file_crc, s.ok() ? job.tree.MemoryBytes() : 0);
}

bool BackgroundSubTreeWriter::Failed() const {
  return failed_.load(std::memory_order_acquire);
}

Status BackgroundSubTreeWriter::Drain() {
  pool_.WaitIdle();
  std::lock_guard<std::mutex> lock(mu_);
  return first_error_;
}

}  // namespace era
