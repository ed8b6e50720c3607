#ifndef MVCCBENCH_SERVER_CHILD_H_
#define MVCCBENCH_SERVER_CHILD_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "server/server.h"

namespace mvccbench {

// mvccd's server defaults: an ephemeral loopback port, 4 epoll workers,
// 4 commit executors.
mvcc::server::ServerOptions ServedServerOptions();

using Counters = std::vector<std::pair<std::string, uint64_t>>;
uint64_t CounterValue(const Counters& counters, const std::string& name);

// The database and service counters a run reads at its window edges:
// EventCounters, commit pipeline, store and ServerStats.
Counters ReadCounters(mvcc::Database* db, mvcc::server::Server* server);

// On-CPU seconds of the threads of process `pid` (the first field of each
// thread's schedstat: exact, where /proc/<pid>/stat counts clock ticks),
// leaving out the threads in `skip`. 0 when /proc cannot be read.
double ThreadsCpuSeconds(pid_t pid, const std::vector<uint32_t>& skip);

// A durable server in a forked child process: the child opens `dir`
// through OpenDatabaseDurable with the POSIX Env, preloads, and serves
// on an ephemeral loopback port until its parent closes the control
// pipe or kills it. Spawn before the parent starts any thread.
class ServerChild {
 public:
  // Forks and waits until the child serves (or fails, or `timeout_s`
  // passes). setup_s() is the time from fork to ready.
  static std::unique_ptr<ServerChild> Spawn(const std::string& dir,
                                            double timeout_s,
                                            std::string* error);
  // Kills the child if it still runs.
  ~ServerChild();
  ServerChild(const ServerChild&) = delete;
  ServerChild& operator=(const ServerChild&) = delete;

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  double setup_s() const { return setup_s_; }

  // Asks the child for its counters (ReadCounters, in the child).
  bool Counters(mvccbench::Counters* out, std::string* error);

  // The child's on-CPU time (all threads) and resident set.
  struct Usage {
    double cpu_s = 0;
    uint64_t rss_bytes = 0;
  };
  bool Sample(Usage* out) const;

  // SIGKILL, then wait for the child to end. Idempotent.
  void Kill();

 private:
  ServerChild() = default;
  // Reads one line from the child within `timeout_s`.
  bool ReadLine(double timeout_s, std::string* line, std::string* error);

  pid_t pid_ = -1;
  int from_child_ = -1;
  int to_child_ = -1;
  uint16_t port_ = 0;
  double setup_s_ = 0;
  std::string pending_;  // bytes read past the last line
};

}  // namespace mvccbench

#endif  // MVCCBENCH_SERVER_CHILD_H_
