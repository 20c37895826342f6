#include "io/mem_env.h"

#include <algorithm>
#include <cstring>

namespace era {

/// One file's bytes. Its writer appends while readers of the same path and
/// MemEnv::FileSize read them, so every access holds `mu`.
struct MemFile {
  mutable std::mutex mu;
  std::string data;
};

namespace {

class MemRandomAccessFile : public RandomAccessFile {
 public:
  explicit MemRandomAccessFile(std::shared_ptr<MemFile> file)
      : file_(std::move(file)) {}

  // Holds the file's lock, so the inherited ReadAt default (forward to
  // Read) is safe to call concurrently, also while the file is written.
  Status Read(uint64_t offset, std::size_t n, char* scratch,
              std::size_t* out_n) const override {
    std::lock_guard<std::mutex> lock(file_->mu);
    const std::string& data = file_->data;
    if (offset >= data.size()) {
      *out_n = 0;
      return Status::OK();
    }
    std::size_t avail = data.size() - offset;
    std::size_t take = std::min(n, avail);
    std::memcpy(scratch, data.data() + offset, take);
    *out_n = take;
    return Status::OK();
  }

  uint64_t Size() const override {
    std::lock_guard<std::mutex> lock(file_->mu);
    return file_->data.size();
  }

 private:
  std::shared_ptr<MemFile> file_;
};

class MemWritableFile : public WritableFile {
 public:
  explicit MemWritableFile(std::shared_ptr<MemFile> file)
      : file_(std::move(file)) {}

  Status Append(const char* data, std::size_t n) override {
    std::lock_guard<std::mutex> lock(file_->mu);
    file_->data.append(data, n);
    return Status::OK();
  }

  Status Close() override { return Status::OK(); }

 private:
  std::shared_ptr<MemFile> file_;
};

}  // namespace

StatusOr<std::unique_ptr<RandomAccessFile>> MemEnv::OpenRandomAccess(
    const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::IOError("mem file not found: " + path);
  }
  return std::unique_ptr<RandomAccessFile>(
      new MemRandomAccessFile(it->second));
}

StatusOr<std::unique_ptr<WritableFile>> MemEnv::NewWritable(
    const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto file = std::make_shared<MemFile>();
  files_[path] = file;
  return std::unique_ptr<WritableFile>(new MemWritableFile(std::move(file)));
}

bool MemEnv::FileExists(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  return files_.count(path) > 0;
}

StatusOr<uint64_t> MemEnv::FileSize(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::IOError("mem file not found: " + path);
  }
  std::lock_guard<std::mutex> file_lock(it->second->mu);
  return static_cast<uint64_t>(it->second->data.size());
}

Status MemEnv::DeleteFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (files_.erase(path) == 0) {
    return Status::IOError("mem file not found: " + path);
  }
  return Status::OK();
}

Status MemEnv::CreateDir(const std::string&) { return Status::OK(); }

Status MemEnv::RenameFile(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(from);
  if (it == files_.end()) {
    return Status::IOError("mem file not found: " + from);
  }
  // Swap the whole entry in, POSIX-style: readers holding the old `to`
  // shared_ptr keep their snapshot.
  files_[to] = std::move(it->second);
  files_.erase(it);
  return Status::OK();
}

std::size_t MemEnv::FileCount() {
  std::lock_guard<std::mutex> lock(mutex_);
  return files_.size();
}

}  // namespace era
