#include "io/faulty_env.h"

#include <cstdlib>
#include <sstream>
#include <vector>

namespace era {

namespace {

/// "64MB" / "64M" / "1024" → bytes. Returns false on garbage.
bool ParseSize(const std::string& value, uint64_t* out) {
  char* end = nullptr;
  unsigned long long n = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str()) return false;
  uint64_t mult = 1;
  std::string suffix(end);
  if (suffix == "K" || suffix == "KB") {
    mult = 1ull << 10;
  } else if (suffix == "M" || suffix == "MB") {
    mult = 1ull << 20;
  } else if (suffix == "G" || suffix == "GB") {
    mult = 1ull << 30;
  } else if (!suffix.empty()) {
    return false;
  }
  *out = static_cast<uint64_t>(n) * mult;
  return true;
}

bool ParseProbability(const std::string& value, double* out) {
  char* end = nullptr;
  double p = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || p < 0 || p > 1) return false;
  *out = p;
  return true;
}

}  // namespace

StatusOr<FaultSpec> ParseFaultSpec(const std::string& spec) {
  FaultSpec out;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("fault spec item has no '=': " + item);
    }
    std::string key = item.substr(0, eq);
    std::string value = item.substr(eq + 1);
    bool ok = true;
    if (key == "read_transient") {
      ok = ParseProbability(value, &out.read_transient_p);
    } else if (key == "write_transient") {
      ok = ParseProbability(value, &out.write_transient_p);
    } else if (key == "short_write") {
      ok = ParseProbability(value, &out.short_write_p);
    } else if (key == "fail_read_at") {
      ok = ParseSize(value, &out.fail_read_at);
    } else if (key == "read_permanent") {
      out.read_fail_permanent = value != "0";
    } else if (key == "fail_write_at") {
      ok = ParseSize(value, &out.fail_write_at);
    } else if (key == "write_permanent") {
      out.write_fail_permanent = value != "0";
    } else if (key == "enospc_after") {
      ok = ParseSize(value, &out.enospc_after_bytes);
    } else if (key == "crash_after_writes") {
      ok = ParseSize(value, &out.crash_after_writes);
    } else if (key == "torn_write_at") {
      ok = ParseSize(value, &out.torn_write_at);
    } else if (key == "seed") {
      ok = ParseSize(value, &out.seed);
    } else if (key == "path") {
      out.path_filter = value;
    } else {
      return Status::InvalidArgument("unknown fault spec key: " + key);
    }
    if (!ok) {
      return Status::InvalidArgument("bad fault spec value: " + item);
    }
  }
  return out;
}

std::string FaultyEnv::Stats::ToString() const {
  std::ostringstream os;
  os << "reads=" << reads << " writes=" << writes
     << " read_faults=" << read_faults << " write_faults=" << write_faults
     << " short_writes=" << short_writes << " enospc=" << enospc_faults
     << " crashes=" << crashes << " files_damaged=" << files_damaged;
  return os.str();
}

FaultyEnv::FaultyEnv(Env* base, const FaultSpec& spec)
    : base_(base), spec_(spec), rng_(spec.seed) {}

bool FaultyEnv::Matches(const std::string& path) const {
  return spec_.path_filter.empty() ||
         path.find(spec_.path_filter) != std::string::npos;
}

Status FaultyEnv::CrashedStatus(const std::string& op) const {
  return Status::IOError("simulated crash: env is down (" + op + ")");
}

Status FaultyEnv::BeforeRead(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return CrashedStatus("read " + path);
  if (!Matches(path)) return Status::OK();
  ++read_calls_;
  ++stats_.reads;
  bool inject = false;
  if (spec_.fail_read_at != 0 && read_calls_ == spec_.fail_read_at) {
    inject = true;
    if (spec_.read_fail_permanent) read_latched_ = true;
  } else if (read_latched_) {
    inject = true;
  } else if (spec_.read_transient_p > 0) {
    double roll = static_cast<double>(rng_() >> 11) /
                  static_cast<double>(1ull << 53);
    inject = roll < spec_.read_transient_p;
  }
  if (inject) {
    ++stats_.read_faults;
    return Status::IOError("injected read fault on " + path);
  }
  return Status::OK();
}

Status FaultyEnv::BeforeAppend(const std::string& path, std::size_t n,
                               std::size_t* persist_n, bool* crash_after,
                               bool* durable) {
  std::lock_guard<std::mutex> lock(mu_);
  *persist_n = n;
  *crash_after = false;
  *durable = false;
  if (crashed_) return CrashedStatus("write " + path);
  if (!Matches(path)) return Status::OK();
  ++write_calls_;
  ++stats_.writes;
  if (spec_.torn_write_at != 0 && write_calls_ == spec_.torn_write_at) {
    // Half the append reaches the platter, then the process dies. The torn
    // prefix counts as durable: that is exactly the state a reader finds
    // after reboot, and what atomic rename must make invisible.
    *persist_n = n / 2;
    *durable = true;
    *crash_after = true;
    ++stats_.write_faults;
    return Status::OK();
  }
  if (spec_.enospc_after_bytes != 0 &&
      persisted_total_ + n > spec_.enospc_after_bytes) {
    ++stats_.write_faults;
    ++stats_.enospc_faults;
    return Status::IOError("no space left on device (injected) writing " +
                           path);
  }
  bool inject = false;
  if (spec_.fail_write_at != 0 && write_calls_ == spec_.fail_write_at) {
    inject = true;
    if (spec_.write_fail_permanent) write_latched_ = true;
  } else if (write_latched_) {
    inject = true;
  } else if (spec_.write_transient_p > 0) {
    double roll = static_cast<double>(rng_() >> 11) /
                  static_cast<double>(1ull << 53);
    inject = roll < spec_.write_transient_p;
  }
  if (inject) {
    ++stats_.write_faults;
    return Status::IOError("injected write fault on " + path);
  }
  if (spec_.short_write_p > 0) {
    double roll = static_cast<double>(rng_() >> 11) /
                  static_cast<double>(1ull << 53);
    if (roll < spec_.short_write_p) {
      *persist_n = n / 2;  // silent: the caller sees OK
      ++stats_.short_writes;
    }
  }
  if (spec_.crash_after_writes != 0 &&
      write_calls_ == spec_.crash_after_writes) {
    *crash_after = true;
  }
  return Status::OK();
}

Status FaultyEnv::Persist(WritableFile* base, const std::string& path,
                          const char* data, std::size_t n, bool durable) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return CrashedStatus("write " + path);
  ERA_RETURN_NOT_OK(base->Append(data, n));
  FileState& state = files_[path];
  state.persisted_bytes += n;
  if (durable) state.durable_bytes = state.persisted_bytes;
  persisted_total_ += n;
  return Status::OK();
}

Status FaultyEnv::NoteSync(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return CrashedStatus("sync " + path);
  FileState& state = files_[path];
  state.durable_bytes = state.persisted_bytes;
  return Status::OK();
}

void FaultyEnv::SimulateCrash() {
  std::lock_guard<std::mutex> lock(mu_);
  SimulateCrashLocked();
}

void FaultyEnv::SimulateCrashLocked() {
  if (crashed_) return;
  crashed_ = true;
  ++stats_.crashes;
  // Roll every tracked file back to its durable prefix. Files that predate
  // this Env were never tracked and keep their content.
  for (const auto& [path, state] : files_) {
    auto size = base_->FileSize(path);
    if (!size.ok()) continue;  // already deleted/renamed away
    if (state.durable_bytes >= *size) continue;
    if (state.durable_bytes == 0) {
      base_->DeleteFile(path);
      ++stats_.files_damaged;
      continue;
    }
    auto file = base_->OpenRandomAccess(path);
    if (!file.ok()) continue;
    std::string prefix(state.durable_bytes, '\0');
    std::size_t got = 0;
    if (!(*file)->Read(0, prefix.size(), prefix.data(), &got).ok() ||
        got != prefix.size()) {
      continue;
    }
    base_->WriteFile(path, prefix);
    ++stats_.files_damaged;
  }
}

bool FaultyEnv::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

FaultyEnv::Stats FaultyEnv::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

namespace {

class FaultyRandomAccessFileImpl : public RandomAccessFile {
 public:
  FaultyRandomAccessFileImpl(FaultyEnv* env, std::string path,
                             std::unique_ptr<RandomAccessFile> base)
      : env_(env), path_(std::move(path)), base_(std::move(base)) {}

  Status Read(uint64_t offset, std::size_t n, char* scratch,
              std::size_t* out_n) const override {
    ERA_RETURN_NOT_OK(env_->BeforeRead(path_));
    return base_->Read(offset, n, scratch, out_n);
  }

  Status ReadAt(uint64_t offset, std::size_t n, char* scratch,
                std::size_t* out_n) const override {
    ERA_RETURN_NOT_OK(env_->BeforeRead(path_));
    return base_->ReadAt(offset, n, scratch, out_n);
  }

  uint64_t Size() const override { return base_->Size(); }

 private:
  FaultyEnv* env_;
  std::string path_;
  std::unique_ptr<RandomAccessFile> base_;
};

class FaultyWritableFileImpl : public WritableFile {
 public:
  FaultyWritableFileImpl(FaultyEnv* env, std::string path,
                         std::unique_ptr<WritableFile> base)
      : env_(env), path_(std::move(path)), base_(std::move(base)) {}

  Status Append(const char* data, std::size_t n) override {
    std::size_t persist_n = n;
    bool crash_after = false;
    bool durable = false;
    ERA_RETURN_NOT_OK(
        env_->BeforeAppend(path_, n, &persist_n, &crash_after, &durable));
    if (persist_n > 0) {
      ERA_RETURN_NOT_OK(
          env_->Persist(base_.get(), path_, data, persist_n, durable));
    }
    if (crash_after) {
      env_->SimulateCrash();
      return Status::IOError("injected crash during append to " + path_);
    }
    return Status::OK();
  }

  Status Sync() override {
    ERA_RETURN_NOT_OK(base_->Sync());
    return env_->NoteSync(path_);
  }

  Status Close() override { return base_->Close(); }

 private:
  FaultyEnv* env_;
  std::string path_;
  std::unique_ptr<WritableFile> base_;
};

}  // namespace

StatusOr<std::unique_ptr<RandomAccessFile>> FaultyEnv::OpenRandomAccess(
    const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_) return CrashedStatus("open " + path);
  }
  ERA_ASSIGN_OR_RETURN(auto file, base_->OpenRandomAccess(path));
  return std::unique_ptr<RandomAccessFile>(
      new FaultyRandomAccessFileImpl(this, path, std::move(file)));
}

StatusOr<std::unique_ptr<WritableFile>> FaultyEnv::NewWritable(
    const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_) return CrashedStatus("create " + path);
  }
  ERA_ASSIGN_OR_RETURN(auto file, base_->NewWritable(path));
  {
    std::lock_guard<std::mutex> lock(mu_);
    files_[path] = FileState{};
  }
  return std::unique_ptr<WritableFile>(
      new FaultyWritableFileImpl(this, path, std::move(file)));
}

bool FaultyEnv::FileExists(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_) return false;
  }
  return base_->FileExists(path);
}

StatusOr<uint64_t> FaultyEnv::FileSize(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_) return CrashedStatus("stat " + path);
  }
  return base_->FileSize(path);
}

Status FaultyEnv::DeleteFile(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_) return CrashedStatus("unlink " + path);
    files_.erase(path);
  }
  return base_->DeleteFile(path);
}

Status FaultyEnv::CreateDir(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_) return CrashedStatus("mkdir " + path);
  }
  return base_->CreateDir(path);
}

Status FaultyEnv::RenameFile(const std::string& from, const std::string& to) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_) return CrashedStatus("rename " + from);
  }
  ERA_RETURN_NOT_OK(base_->RenameFile(from, to));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(from);
  if (it != files_.end()) {
    files_[to] = it->second;
    files_.erase(it);
  } else {
    // Renaming an untracked (pre-existing, fully durable) file over a
    // tracked one: the target inherits the source's durability.
    files_.erase(to);
  }
  return Status::OK();
}

}  // namespace era
