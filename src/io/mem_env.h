// In-memory Env for tests and for fully in-memory pipelines.

#ifndef ERA_IO_MEM_ENV_H_
#define ERA_IO_MEM_ENV_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "io/env.h"

namespace era {

struct MemFile;  // one file's bytes and their lock (mem_env.cc)

/// Env whose files live in a process-local map. Thread-safe, also while a
/// file is being written: its appends, FileSize and the reads of readers
/// opened on its path share one lock per file. Directories are implicit
/// (CreateDir is a no-op bookkeeping call).
class MemEnv : public Env {
 public:
  StatusOr<std::unique_ptr<RandomAccessFile>> OpenRandomAccess(
      const std::string& path) override;
  StatusOr<std::unique_ptr<WritableFile>> NewWritable(
      const std::string& path) override;
  bool FileExists(const std::string& path) override;
  StatusOr<uint64_t> FileSize(const std::string& path) override;
  Status DeleteFile(const std::string& path) override;
  Status CreateDir(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;

  /// Number of files currently stored (test helper).
  std::size_t FileCount();

 private:
  std::mutex mutex_;
  // shared_ptr so open readers survive deletion/replacement of the path.
  std::map<std::string, std::shared_ptr<MemFile>> files_;
};

}  // namespace era

#endif  // ERA_IO_MEM_ENV_H_
