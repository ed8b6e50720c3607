#include "host.h"

#include <fcntl.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "common/clock.h"
#include "stats.h"

namespace mvccbench {
namespace {

std::string RunCommand(const char* cmd) {
  std::string out;
  std::FILE* p = ::popen(cmd, "r");
  if (p == nullptr) return out;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), p) != nullptr) out += buf;
  ::pclose(p);
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

std::string FsName(long type) {
  switch (static_cast<uint64_t>(type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0xF2F52010: return "f2fs";
    case 0x6969: return "nfs";
    case 0x2FC12FC1: return "zfs";
    case 0x65735546: return "fuse";
    case 0x01021997: return "9p";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx", type);
  return buf;
}

}  // namespace

HostInfo ProbeHost(const std::string& data_dir, size_t fsyncs) {
  HostInfo h;
  h.nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
#ifdef __clang__
  h.compiler = "clang " __VERSION__;
#else
  h.compiler = "gcc " __VERSION__;
#endif
  h.build_type = MVCCBENCH_BUILD_TYPE;
  // Only this directory's own repository: a checkout without .git may sit
  // inside an unrelated one.
  if (std::filesystem::exists(".git")) {
    h.git_sha = RunCommand("git rev-parse HEAD 2>/dev/null");
  }
  if (h.git_sha.empty()) {
    h.git_sha = "unknown";
  } else {
    h.git_dirty =
        !RunCommand("git status --porcelain --untracked-files=no 2>/dev/null")
             .empty();
  }
  struct utsname u;
  if (::uname(&u) == 0) h.kernel = std::string(u.sysname) + " " + u.release;
  struct statfs fs;
  h.data_fs = ::statfs(data_dir.c_str(), &fs) == 0 ? FsName(fs.f_type) : "?";

  const std::string path = data_dir + "/fsync-probe";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND |
                                          O_CLOEXEC, 0644);
  if (fd >= 0) {
    std::vector<int64_t> ns;
    const char record[64] = {};
    for (size_t i = 0; i < fsyncs; ++i) {
      if (::write(fd, record, sizeof(record)) != sizeof(record)) break;
      const int64_t t0 = mvcc::NowNanos();
      if (::fsync(fd) != 0) break;
      ns.push_back(mvcc::NowNanos() - t0);
    }
    ::close(fd);
    ::unlink(path.c_str());
    const Summary s = Summarize(ns);
    h.fsync_samples = s.n;
    h.fsync_p50_us = static_cast<double>(s.p50) / 1e3;
    h.fsync_p99_us = static_cast<double>(s.p99) / 1e3;
  }
  return h;
}

std::string HostJson(const HostInfo& h) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\": %ld, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"git_sha\": \"%s\", \"git_dirty\": %s, \"kernel\": \"%s\", "
      "\"data_fs\": \"%s\", \"fsync_probe\": {\"samples\": %zu, "
      "\"p50_us\": %.1f, \"p99_us\": %.1f}}",
      h.nproc, h.compiler.c_str(), h.build_type.c_str(), h.git_sha.c_str(),
      h.git_dirty ? "true" : "false", h.kernel.c_str(), h.data_fs.c_str(),
      h.fsync_samples, h.fsync_p50_us, h.fsync_p99_us);
  return buf;
}

}  // namespace mvccbench
