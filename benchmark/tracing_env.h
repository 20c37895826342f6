// Bench-side Env decorator that records one span per device call.
//
// TracingEnv wraps the modeled device (LatencyEnv) and records every Read,
// ReadAt, Append, Sync, Close and RenameFile with its file class, byte count,
// calling thread, and the operation id era_bench set on that thread
// (ScopedOp). The spans stay in memory; era_bench folds them into the
// per-layer ledger and writes them out as chrome://tracing JSON when the run
// ends. Untraced runs use the LatencyEnv directly, so the decorator costs
// nothing there.

#ifndef ERA_BENCHMARK_TRACING_ENV_H_
#define ERA_BENCHMARK_TRACING_ENV_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/env.h"

namespace era {
namespace benchmark {

/// What a file is, derived from its name (a trailing ".tmp" of an atomic
/// write is ignored: the temp file is the artifact being written).
enum class FileClass : uint8_t {
  kText,
  kSubTree,
  kManifest,
  kCheckpoint,
  kOther,
};
const char* FileClassName(FileClass cls);
FileClass ClassifyPath(const std::string& path);

enum class IoKind : uint8_t { kRead, kReadAt, kAppend, kSync, kClose, kRename };
const char* IoKindName(IoKind kind);
inline bool IsRead(IoKind kind) {
  return kind == IoKind::kRead || kind == IoKind::kReadAt;
}

/// Nanoseconds on the steady clock since a process-wide epoch.
int64_t ToNs(std::chrono::steady_clock::time_point t);
inline int64_t NowNs() { return ToNs(std::chrono::steady_clock::now()); }

/// Small dense id of the calling thread (0, 1, 2, ... in first-use order).
uint32_t ThreadIndex();

/// Sets the calling thread's operation id for the scope; spans recorded on
/// this thread carry it. 0 means "no operation" (background threads).
class ScopedOp {
 public:
  explicit ScopedOp(uint64_t op);
  ~ScopedOp();
  ScopedOp(const ScopedOp&) = delete;
  ScopedOp& operator=(const ScopedOp&) = delete;

 private:
  uint64_t saved_;
};

struct IoSpan {
  IoKind kind = IoKind::kRead;
  FileClass cls = FileClass::kOther;
  uint32_t thread = 0;
  uint64_t op = 0;
  uint64_t bytes = 0;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
};

/// Wraps `base` (not owned). Thread-safe, like every Env.
class TracingEnv : public Env {
 public:
  explicit TracingEnv(Env* base) : base_(base) {}

  StatusOr<std::unique_ptr<RandomAccessFile>> OpenRandomAccess(
      const std::string& path) override;
  StatusOr<std::unique_ptr<WritableFile>> NewWritable(
      const std::string& path) override;
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  StatusOr<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override;

  void Record(const IoSpan& span);
  /// Every span recorded so far, in completion order.
  std::vector<IoSpan> Spans() const;

 private:
  Env* base_;
  mutable std::mutex mu_;
  std::vector<IoSpan> spans_;
};

}  // namespace benchmark
}  // namespace era

#endif  // ERA_BENCHMARK_TRACING_ENV_H_
