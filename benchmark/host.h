#ifndef MVCCBENCH_HOST_H_
#define MVCCBENCH_HOST_H_

#include <cstddef>
#include <string>

namespace mvccbench {

// Where a result was measured. The fsync probe makes a disk that changed
// speed between runs on a shared host visible next to the numbers.
struct HostInfo {
  long nproc = 0;
  std::string compiler;
  std::string build_type;
  std::string git_sha;  // "unknown" outside a git checkout
  bool git_dirty = false;
  std::string kernel;
  std::string data_fs;  // file system type of the data directory
  size_t fsync_samples = 0;
  double fsync_p50_us = 0;
  double fsync_p99_us = 0;
};

// Collects the host facts and runs the fsync probe (append + fsync of a
// small record, `fsyncs` times) in `data_dir`. Runs child processes
// (git), so call it before starting any thread.
HostInfo ProbeHost(const std::string& data_dir, size_t fsyncs);

std::string HostJson(const HostInfo& h);

}  // namespace mvccbench

#endif  // MVCCBENCH_HOST_H_
