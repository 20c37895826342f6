// Env decorator that injects modeled device latency into file traffic.
//
// On a laptop-scale testbed the OS page cache serves nearly every read, so
// the CPU/I-O overlap machinery (background sub-tree writes, multi-worker
// scheduling) is invisible in wall time even though it
// is exactly what the paper's disk-bound evaluation measures. DESIGN.md's
// answer for the figure benches is the *modeled seconds* of io_stats.h;
// LatencyEnv is the complement for end-to-end benches: it makes each request
// cost real wall time by sleeping in the calling thread, so overlap shows up
// as a genuine speedup. Latency is charged per request —
// `latency + bytes / bandwidth` — and concurrent requests sleep
// independently (a queue-depth > 1 device, NVMe-like), which is what lets a
// background writer or a second worker hide its transfer behind another
// thread's compute.

#ifndef ERA_IO_LATENCY_ENV_H_
#define ERA_IO_LATENCY_ENV_H_

#include <memory>
#include <string>

#include "io/env.h"

namespace era {

/// Per-request cost of the simulated device.
struct LatencyModel {
  /// Fixed setup cost of one read request (seconds).
  double read_latency_seconds = 0.0002;
  /// Fixed setup cost of one write request (seconds).
  double write_latency_seconds = 0.0002;
  /// Transfer bandwidth for reads (bytes/second).
  double read_bytes_per_second = 128.0 * 1024 * 1024;
  /// Transfer bandwidth for writes (bytes/second).
  double write_bytes_per_second = 128.0 * 1024 * 1024;
  /// Requests the device services concurrently (0 = unbounded, the
  /// default — every prior bench keeps its behavior). A real device has a
  /// finite queue depth: requests beyond it wait in FIFO order at the
  /// device and their wait is real wall time. Bounding it is what makes
  /// saturation — and therefore overload collapse — observable:
  /// with unbounded concurrency, offering more load always adds throughput
  /// and no arrival rate is "above capacity".
  uint32_t queue_depth = 0;

  double ReadSeconds(uint64_t bytes) const {
    return read_latency_seconds +
           static_cast<double>(bytes) / read_bytes_per_second;
  }
  double WriteSeconds(uint64_t bytes) const {
    return write_latency_seconds +
           static_cast<double>(bytes) / write_bytes_per_second;
  }
};

/// The device's service channel: a FIFO counting semaphore shared by every
/// file the env opens, enforcing LatencyModel::queue_depth. Internal.
class DeviceChannel;

/// Wraps another Env; all data-plane traffic (RandomAccessFile reads,
/// WritableFile appends) sleeps for the modeled duration — and, with a
/// bounded queue_depth, first waits for one of the device's service slots
/// (all files opened by one env share the device). Metadata operations pass
/// through untouched. Does not own `base`.
class LatencyEnv : public Env {
 public:
  LatencyEnv(Env* base, const LatencyModel& model);

  StatusOr<std::unique_ptr<RandomAccessFile>> OpenRandomAccess(
      const std::string& path) override;
  StatusOr<std::unique_ptr<WritableFile>> NewWritable(
      const std::string& path) override;
  bool FileExists(const std::string& path) override;
  StatusOr<uint64_t> FileSize(const std::string& path) override;
  Status DeleteFile(const std::string& path) override;
  Status CreateDir(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;

  const LatencyModel& model() const { return model_; }

 private:
  Env* base_;
  LatencyModel model_;
  std::shared_ptr<DeviceChannel> channel_;
};

}  // namespace era

#endif  // ERA_IO_LATENCY_ENV_H_
