#ifndef MVCC_BENCH_HOST_HEADER_H_
#define MVCC_BENCH_HOST_HEADER_H_

#include <string>

#include "workload/report.h"

namespace mvcc {

// The host a BENCH_*.json's figures came from, as a JSON object: core
// count, compiler, build type and the source revision (git_dirty:
// tracked files differ from it). Runs git, so call it from inside the
// checkout for git_sha to resolve.
std::string HostJson();

// Writes {"host": HostJson(), "rows": <table as JSON rows>} to `path`;
// false on I/O failure.
bool WriteBenchJson(const std::string& path, const Table& table);

}  // namespace mvcc

#endif  // MVCC_BENCH_HOST_HEADER_H_
