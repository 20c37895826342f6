// Fault-injecting Env decorator for robustness tests and reproducible
// failure drills.
//
// FaultyEnv wraps any Env and injects deterministic, seedable faults into
// its data plane: transient or permanent read/write errors (by probability
// or by call-count trigger), silent short writes, ENOSPC after a byte
// budget, torn-write-then-crash, and a whole-process SimulateCrash() that
// drops every byte not made durable by WritableFile::Sync. The same spec +
// seed always injects the same schedule, so a failing fault scenario is a
// one-line reproduction (`era_cli build --faults=<spec>`).
//
// Durability model: the wrapper tracks, per file it created, how many
// persisted bytes a Sync has covered. SimulateCrash truncates each tracked
// file to that durable prefix (deleting never-synced files), then latches
// the Env so every later operation fails — exactly what a killed process
// leaves on a real filesystem. Files that predate the wrapper are preserved.

#ifndef ERA_IO_FAULTY_ENV_H_
#define ERA_IO_FAULTY_ENV_H_

#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>

#include "io/env.h"

namespace era {

/// What to inject. Probabilities are per matching call; triggers are
/// 1-based call counts over the whole Env. Zero disables a fault.
struct FaultSpec {
  /// Each matching read call fails with this probability. A retry re-rolls.
  double read_transient_p = 0;
  /// Each matching append fails with this probability (nothing persisted).
  double write_transient_p = 0;
  /// With this probability an append silently persists only half its bytes
  /// and still reports success — the tear only checksums can catch.
  double short_write_p = 0;
  /// Fail the Nth matching read call.
  uint64_t fail_read_at = 0;
  /// With fail_read_at: every read from the Nth on fails (a dead region),
  /// not just the Nth (a transient blip).
  bool read_fail_permanent = false;
  /// Fail the Nth matching append.
  uint64_t fail_write_at = 0;
  bool write_fail_permanent = false;
  /// Appends fail once this many bytes have been persisted (device full).
  uint64_t enospc_after_bytes = 0;
  /// Crash (as if SimulateCrash) right after the Nth matching append
  /// persists — the kill-point knob for the resume sweep.
  uint64_t crash_after_writes = 0;
  /// The Nth matching append persists half its bytes durably, then the
  /// process crashes — a torn in-place write.
  uint64_t torn_write_at = 0;
  /// Only paths containing this substring are faulted (all files are still
  /// tracked for crash durability). Empty matches everything.
  std::string path_filter;
  /// Seed for the probability rolls.
  uint64_t seed = 42;
};

/// Parses the CLI spec string, e.g.
/// "read_transient=0.01,enospc_after=64MB,seed=7". Keys: read_transient,
/// write_transient, short_write (probabilities); fail_read_at,
/// fail_write_at, crash_after_writes, torn_write_at, seed (counts);
/// read_permanent, write_permanent (0/1); enospc_after (bytes, K/M/G
/// suffixes); path (substring filter).
StatusOr<FaultSpec> ParseFaultSpec(const std::string& spec);

/// Env decorator injecting the faults described by a FaultSpec. Thread-safe.
/// Does not own `base`.
class FaultyEnv : public Env {
 public:
  struct Stats {
    uint64_t reads = 0;            // matching read calls observed
    uint64_t writes = 0;           // matching append calls observed
    uint64_t read_faults = 0;      // injected read failures
    uint64_t write_faults = 0;     // injected append failures (incl. ENOSPC)
    uint64_t short_writes = 0;     // silent partial appends
    uint64_t enospc_faults = 0;
    uint64_t crashes = 0;          // 0 or 1
    uint64_t files_damaged = 0;    // files truncated or deleted by the crash
    std::string ToString() const;
  };

  FaultyEnv(Env* base, const FaultSpec& spec);

  StatusOr<std::unique_ptr<RandomAccessFile>> OpenRandomAccess(
      const std::string& path) override;
  StatusOr<std::unique_ptr<WritableFile>> NewWritable(
      const std::string& path) override;
  bool FileExists(const std::string& path) override;
  StatusOr<uint64_t> FileSize(const std::string& path) override;
  Status DeleteFile(const std::string& path) override;
  Status CreateDir(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;

  /// Drops the un-synced suffix of every file written through this Env and
  /// latches the crashed state: all subsequent operations fail with
  /// IOError. Idempotent.
  void SimulateCrash();

  bool crashed() const;
  Stats stats() const;
  const FaultSpec& spec() const { return spec_; }

  // Hooks for the wrapped file objects (implementation detail, not API).

  /// Gate for one read call: counts it and decides whether to fail it.
  Status BeforeRead(const std::string& path);
  /// Gate for one append of `n` bytes: counts it, decides failure / short
  /// write / crash. On OK, `*persist_n` is how many bytes to forward to the
  /// base file (may be < n for a short or torn write) and `*crash_after` is
  /// set when the env must crash once those bytes are persisted.
  Status BeforeAppend(const std::string& path, std::size_t n,
                      std::size_t* persist_n, bool* crash_after,
                      bool* durable);
  /// Forwards `n` bytes of an admitted append to `base` and records them.
  /// Holds the env's lock, so a crash another thread simulates never
  /// overlaps a base append, and an append after that crash fails.
  Status Persist(WritableFile* base, const std::string& path,
                 const char* data, std::size_t n, bool durable);
  Status NoteSync(const std::string& path);

 private:
  struct FileState {
    uint64_t persisted_bytes = 0;  // bytes that reached the base env
    uint64_t durable_bytes = 0;    // prefix covered by a successful Sync
  };

  bool Matches(const std::string& path) const;
  void SimulateCrashLocked();
  Status CrashedStatus(const std::string& op) const;

  Env* base_;
  const FaultSpec spec_;
  mutable std::mutex mu_;
  std::mt19937_64 rng_;
  bool crashed_ = false;
  bool read_latched_ = false;
  bool write_latched_ = false;
  uint64_t read_calls_ = 0;
  uint64_t write_calls_ = 0;
  uint64_t persisted_total_ = 0;
  std::map<std::string, FileState> files_;
  Stats stats_;
};

}  // namespace era

#endif  // ERA_IO_FAULTY_ENV_H_
