// Storage abstraction (RocksDB-style Env).
//
// All file access in the library goes through Env so that tests can run
// against an in-memory filesystem and so that every byte read by a builder is
// observable by the instrumentation layer (IoStats).

#ifndef ERA_IO_ENV_H_
#define ERA_IO_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace era {

/// Read-only file with positional reads (pread semantics).
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  /// Reads up to `n` bytes at `offset` into `scratch`. `*out_n` receives the
  /// number of bytes actually read (0 at EOF). Short reads at end-of-file are
  /// not errors.
  virtual Status Read(uint64_t offset, std::size_t n, char* scratch,
                      std::size_t* out_n) const = 0;

  /// Positional read used by the shared TileCache, which every worker
  /// reads through at once. Same semantics as Read(), with one extra
  /// requirement: implementations must allow ReadAt to run concurrently
  /// with Read/ReadAt calls on the same file from other threads (pread
  /// semantics — no shared cursor). The default forwards to Read(), which is
  /// sufficient whenever Read is already stateless; an Env whose Read
  /// mutates per-file state must override this with a thread-safe path.
  virtual Status ReadAt(uint64_t offset, std::size_t n, char* scratch,
                        std::size_t* out_n) const {
    return Read(offset, n, scratch, out_n);
  }

  /// Total file size in bytes.
  virtual uint64_t Size() const = 0;
};

/// Append-only output file.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual Status Append(const char* data, std::size_t n) = 0;
  /// Makes every byte appended so far durable: after Sync returns OK, the
  /// data survives a crash (Env::SimulateCrash in a FaultyEnv, power loss on
  /// a real device). Un-synced appends may be lost. Default is a no-op,
  /// which is correct for Envs with no crash notion (MemEnv).
  virtual Status Sync() { return Status::OK(); }
  virtual Status Close() = 0;

  Status Append(const std::string& data) {
    return Append(data.data(), data.size());
  }
};

/// Filesystem abstraction. Thread-safe; files returned by it are independently
/// usable from different threads (each with its own read position state).
class Env {
 public:
  virtual ~Env() = default;

  virtual StatusOr<std::unique_ptr<RandomAccessFile>> OpenRandomAccess(
      const std::string& path) = 0;
  virtual StatusOr<std::unique_ptr<WritableFile>> NewWritable(
      const std::string& path) = 0;

  virtual bool FileExists(const std::string& path) = 0;
  virtual StatusOr<uint64_t> FileSize(const std::string& path) = 0;
  virtual Status DeleteFile(const std::string& path) = 0;
  /// Creates a directory (and parents). No-op if it already exists.
  virtual Status CreateDir(const std::string& path) = 0;
  /// Atomically replaces `to` with `from` (POSIX rename semantics): readers
  /// observe either the old content of `to` or all of `from`, never a mix.
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;

  /// Convenience: writes `data` to `path`, replacing existing content.
  /// Not atomic and not durable — use AtomicallyWriteFile for artifacts that
  /// must never be observed half-written.
  Status WriteFile(const std::string& path, const std::string& data);
  /// Convenience: reads the whole file into `*out`.
  Status ReadFileToString(const std::string& path, std::string* out);
};

/// Streams an artifact into `<path>.tmp` and publishes it with
/// Sync + Close + rename on Commit. A crash at any point leaves either the
/// previous content of `path` or the complete new content — never a torn
/// file (at worst a stray `.tmp` that the next writer overwrites).
/// Abandons (deletes the temp file) on destruction unless committed.
class AtomicFileWriter {
 public:
  static StatusOr<AtomicFileWriter> Open(Env* env, const std::string& path);

  AtomicFileWriter(AtomicFileWriter&&) = default;
  AtomicFileWriter& operator=(AtomicFileWriter&&) = default;
  ~AtomicFileWriter();

  Status Append(const char* data, std::size_t n);
  Status Append(const std::string& data) {
    return Append(data.data(), data.size());
  }

  /// CRC-32C of every byte appended so far — after Commit, the checksum of
  /// the published file. Lets callers record artifact checksums without
  /// re-reading what they just wrote.
  uint32_t crc32c() const { return crc_; }
  uint64_t bytes_appended() const { return bytes_; }

  /// Sync + Close + rename onto the final path. The writer is spent after
  /// Commit (successful or not).
  Status Commit();
  /// Drops the temp file (best effort). Called implicitly by the destructor
  /// when Commit was never reached.
  void Abandon();

 private:
  AtomicFileWriter(Env* env, std::string path, std::string tmp_path,
                   std::unique_ptr<WritableFile> file)
      : env_(env),
        path_(std::move(path)),
        tmp_path_(std::move(tmp_path)),
        file_(std::move(file)) {}

  Env* env_ = nullptr;
  std::string path_;
  std::string tmp_path_;
  std::unique_ptr<WritableFile> file_;  // null once committed/abandoned
  uint32_t crc_ = 0;
  uint64_t bytes_ = 0;
};

/// Convenience: atomically + durably replaces `path` with `data` (temp file,
/// Sync, rename). `file_crc` (optional) receives the CRC-32C of `data`.
Status AtomicallyWriteFile(Env* env, const std::string& path,
                           const std::string& data,
                           uint32_t* file_crc = nullptr);

/// Process-wide POSIX Env singleton.
Env* GetDefaultEnv();

}  // namespace era

#endif  // ERA_IO_ENV_H_
