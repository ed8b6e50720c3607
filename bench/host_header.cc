#include "host_header.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>

namespace mvcc {

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

}  // namespace

std::string HostJson() {
#ifdef __clang__
  const std::string compiler = "clang " __VERSION__;
#else
  const std::string compiler = "gcc " __VERSION__;
#endif
  std::string sha = RunCommand("git rev-parse HEAD 2>/dev/null");
  const bool dirty =
      !sha.empty() &&
      !RunCommand("git status --porcelain --untracked-files=no 2>/dev/null")
           .empty();
  if (sha.empty()) sha = "unknown";
  return "{\"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"compiler\": \"" + compiler + "\", \"build_type\": \"" +
         MVCC_BUILD_TYPE + "\", \"git_sha\": \"" + sha +
         "\", \"git_dirty\": " + (dirty ? "true" : "false") + "}";
}

bool WriteBenchJson(const std::string& path, const Table& table) {
  std::ofstream out(path);
  out << "{\"host\": " << HostJson() << ",\n\"rows\": ";
  table.PrintJson(out);
  out << "}\n";
  return static_cast<bool>(out);
}

}  // namespace mvcc
