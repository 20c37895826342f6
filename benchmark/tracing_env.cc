#include "benchmark/tracing_env.h"

#include <atomic>

namespace era {
namespace benchmark {

namespace {

thread_local uint64_t current_op = 0;

/// Times one base call and records it on destruction.
class SpanTimer {
 public:
  SpanTimer(TracingEnv* env, IoKind kind, FileClass cls)
      : env_(env), start_ns_(NowNs()) {
    span_.kind = kind;
    span_.cls = cls;
  }
  ~SpanTimer() {
    span_.thread = ThreadIndex();
    span_.op = current_op;
    span_.start_ns = start_ns_;
    span_.dur_ns = NowNs() - start_ns_;
    env_->Record(span_);
  }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  void set_bytes(uint64_t bytes) { span_.bytes = bytes; }

 private:
  TracingEnv* env_;
  int64_t start_ns_;
  IoSpan span_;
};

class TracingRandomAccessFile : public RandomAccessFile {
 public:
  TracingRandomAccessFile(std::unique_ptr<RandomAccessFile> base,
                          TracingEnv* env, FileClass cls)
      : base_(std::move(base)), env_(env), cls_(cls) {}

  Status Read(uint64_t offset, std::size_t n, char* buffer,
              std::size_t* out_n) const override {
    SpanTimer timer(env_, IoKind::kRead, cls_);
    Status s = base_->Read(offset, n, buffer, out_n);
    if (s.ok()) timer.set_bytes(*out_n);
    return s;
  }

  Status ReadAt(uint64_t offset, std::size_t n, char* buffer,
                std::size_t* out_n) const override {
    SpanTimer timer(env_, IoKind::kReadAt, cls_);
    Status s = base_->ReadAt(offset, n, buffer, out_n);
    if (s.ok()) timer.set_bytes(*out_n);
    return s;
  }

  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  TracingEnv* env_;
  FileClass cls_;
};

class TracingWritableFile : public WritableFile {
 public:
  TracingWritableFile(std::unique_ptr<WritableFile> base, TracingEnv* env,
                      FileClass cls)
      : base_(std::move(base)), env_(env), cls_(cls) {}

  Status Append(const char* data, std::size_t n) override {
    SpanTimer timer(env_, IoKind::kAppend, cls_);
    timer.set_bytes(n);
    return base_->Append(data, n);
  }

  Status Sync() override {
    SpanTimer timer(env_, IoKind::kSync, cls_);
    return base_->Sync();
  }

  Status Close() override {
    SpanTimer timer(env_, IoKind::kClose, cls_);
    return base_->Close();
  }

 private:
  std::unique_ptr<WritableFile> base_;
  TracingEnv* env_;
  FileClass cls_;
};

}  // namespace

const char* FileClassName(FileClass cls) {
  switch (cls) {
    case FileClass::kText:
      return "text";
    case FileClass::kSubTree:
      return "subtree";
    case FileClass::kManifest:
      return "manifest";
    case FileClass::kCheckpoint:
      return "checkpoint";
    case FileClass::kOther:
      break;
  }
  return "other";
}

FileClass ClassifyPath(const std::string& path) {
  std::string name = path.substr(path.find_last_of('/') + 1);
  const std::string tmp = ".tmp";
  if (name.size() > tmp.size() &&
      name.compare(name.size() - tmp.size(), tmp.size(), tmp) == 0) {
    name.resize(name.size() - tmp.size());
  }
  if (name == "text") return FileClass::kText;
  if (name.rfind("st_", 0) == 0) return FileClass::kSubTree;
  if (name == "MANIFEST") return FileClass::kManifest;
  if (name == "CHECKPOINT") return FileClass::kCheckpoint;
  return FileClass::kOther;
}

const char* IoKindName(IoKind kind) {
  switch (kind) {
    case IoKind::kRead:
      return "read";
    case IoKind::kReadAt:
      return "read_at";
    case IoKind::kAppend:
      return "append";
    case IoKind::kSync:
      return "sync";
    case IoKind::kClose:
      return "close";
    case IoKind::kRename:
      break;
  }
  return "rename";
}

int64_t ToNs(std::chrono::steady_clock::time_point t) {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
      .count();
}

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

ScopedOp::ScopedOp(uint64_t op) : saved_(current_op) { current_op = op; }
ScopedOp::~ScopedOp() { current_op = saved_; }

StatusOr<std::unique_ptr<RandomAccessFile>> TracingEnv::OpenRandomAccess(
    const std::string& path) {
  ERA_ASSIGN_OR_RETURN(auto file, base_->OpenRandomAccess(path));
  return std::unique_ptr<RandomAccessFile>(
      new TracingRandomAccessFile(std::move(file), this, ClassifyPath(path)));
}

StatusOr<std::unique_ptr<WritableFile>> TracingEnv::NewWritable(
    const std::string& path) {
  ERA_ASSIGN_OR_RETURN(auto file, base_->NewWritable(path));
  return std::unique_ptr<WritableFile>(
      new TracingWritableFile(std::move(file), this, ClassifyPath(path)));
}

Status TracingEnv::RenameFile(const std::string& from, const std::string& to) {
  SpanTimer timer(this, IoKind::kRename, ClassifyPath(to));
  return base_->RenameFile(from, to);
}

void TracingEnv::Record(const IoSpan& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<IoSpan> TracingEnv::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

}  // namespace benchmark
}  // namespace era
