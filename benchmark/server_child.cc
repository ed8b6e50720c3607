#include "server_child.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/clock.h"
#include "durability.h"
#include "recovery/recovery.h"

namespace mvccbench {

mvcc::server::ServerOptions ServedServerOptions() {
  mvcc::server::ServerOptions opts;
  opts.port = 0;
  opts.num_workers = 4;
  return opts;
}

uint64_t CounterValue(const Counters& counters, const std::string& name) {
  for (const auto& [k, v] : counters) {
    if (k == name) return v;
  }
  return 0;
}

Counters ReadCounters(mvcc::Database* db, mvcc::server::Server* server) {
  const mvcc::EventCounters::Snapshot c = db->counters().Snap();
  Counters out = {
      {"ro_commits", c.ro_commits},
      {"rw_commits", c.rw_commits},
      {"ro_aborts", c.ro_aborts},
      {"rw_aborts", c.rw_aborts},
      {"ro_blocks", c.ro_blocks},
      {"rw_blocks", c.rw_blocks},
      {"deadlock_aborts", c.deadlock_aborts},
      {"durability_failures", c.durability_failures},
      {"batches_logged", db->commit_pipeline().batches_logged()},
      {"groups_flushed", db->commit_pipeline().groups_flushed()},
      {"total_versions", db->store().TotalVersions()},
      {"visibility_lag", db->VisibilityLag()},
  };
  for (const auto& kv : server->stats().Snapshot()) out.push_back(kv);
  return out;
}

namespace {

bool WriteAll(int fd, const std::string& s) {
  size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

[[noreturn]] void ChildMain(const std::string& dir, int to_parent,
                            int from_parent) {
  auto db = mvcc::OpenDatabaseDurable(ServedDatabaseOptions(),
                                      mvcc::GetPosixEnv(), dir,
                                      mvcc::WalDurableOptions{}, nullptr);
  if (!db.ok()) {
    WriteAll(to_parent, "error durable open: " + db.status().ToString() + "\n");
    ::_exit(1);
  }
  mvcc::server::Server server(db->get(), nullptr, ServedServerOptions());
  mvcc::Status s = server.Start();
  if (!s.ok()) {
    WriteAll(to_parent, "error server start: " + s.ToString() + "\n");
    ::_exit(1);
  }
  WriteAll(to_parent, "ready " + std::to_string(server.port()) + "\n");
  for (;;) {
    char c = 0;
    const ssize_t n = ::read(from_parent, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) ::_exit(0);  // the parent closed the pipe
    std::string line;
    for (const auto& [k, v] : ReadCounters(db->get(), &server)) {
      line += k + "=" + std::to_string(v) + " ";
    }
    WriteAll(to_parent, line + "\n");
  }
}

}  // namespace

std::unique_ptr<ServerChild> ServerChild::Spawn(const std::string& dir,
                                                double timeout_s,
                                                std::string* error) {
  int up[2], down[2];
  if (::pipe2(up, O_CLOEXEC) != 0) {
    *error = "pipe failed";
    return nullptr;
  }
  if (::pipe2(down, O_CLOEXEC) != 0) {
    ::close(up[0]);
    ::close(up[1]);
    *error = "pipe failed";
    return nullptr;
  }
  std::fflush(nullptr);
  const pid_t parent = ::getpid();
  const int64_t start = mvcc::NowNanos();
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (int fd : {up[0], up[1], down[0], down[1]}) ::close(fd);
    *error = "fork failed";
    return nullptr;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);  // stdout is the report
    ::close(up[0]);
    ::close(down[1]);
    ChildMain(dir, up[1], down[0]);
  }
  ::close(up[1]);
  ::close(down[0]);
  std::unique_ptr<ServerChild> child(new ServerChild());
  child->pid_ = pid;
  child->from_child_ = up[0];
  child->to_child_ = down[1];
  std::string line;
  if (!child->ReadLine(timeout_s, &line, error)) return nullptr;
  child->setup_s_ = static_cast<double>(mvcc::NowNanos() - start) / 1e9;
  if (line.rfind("ready ", 0) != 0) {
    *error = "server child: " + line;
    return nullptr;
  }
  child->port_ = static_cast<uint16_t>(std::stoul(line.substr(6)));
  return child;
}

ServerChild::~ServerChild() {
  Kill();
  if (from_child_ >= 0) ::close(from_child_);
  if (to_child_ >= 0) ::close(to_child_);
}

void ServerChild::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

bool ServerChild::ReadLine(double timeout_s, std::string* line,
                           std::string* error) {
  const int64_t deadline =
      mvcc::NowNanos() + static_cast<int64_t>(timeout_s * 1e9);
  for (;;) {
    const size_t nl = pending_.find('\n');
    if (nl != std::string::npos) {
      *line = pending_.substr(0, nl);
      pending_.erase(0, nl + 1);
      return true;
    }
    const int64_t left_ms = (deadline - mvcc::NowNanos()) / 1'000'000;
    if (left_ms <= 0) {
      *error = "server child did not answer within " +
               std::to_string(timeout_s) + " s";
      return false;
    }
    struct pollfd p = {from_child_, POLLIN, 0};
    const int r = ::poll(&p, 1, static_cast<int>(left_ms));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) continue;
    char buf[4096];
    const ssize_t n = ::read(from_child_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *error = "server child exited";
      return false;
    }
    pending_.append(buf, static_cast<size_t>(n));
  }
}

bool ServerChild::Counters(mvccbench::Counters* out, std::string* error) {
  if (pid_ <= 0 || !WriteAll(to_child_, "S")) {
    *error = "server child is gone";
    return false;
  }
  std::string line;
  if (!ReadLine(10.0, &line, error)) return false;
  out->clear();
  std::istringstream in(line);
  std::string kv;
  while (in >> kv) {
    const size_t eq = kv.find('=');
    if (eq == std::string::npos) continue;
    out->emplace_back(kv.substr(0, eq), std::stoull(kv.substr(eq + 1)));
  }
  return true;
}

double ThreadsCpuSeconds(pid_t pid, const std::vector<uint32_t>& skip) {
  std::error_code ec;
  uint64_t cpu_ns = 0;
  const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
  for (const auto& task : std::filesystem::directory_iterator(tasks, ec)) {
    const std::string tid = task.path().filename().string();
    bool skipped = false;
    for (uint32_t s : skip) skipped = skipped || tid == std::to_string(s);
    std::ifstream schedstat(task.path() / "schedstat");
    uint64_t ns = 0;
    if (!skipped && (schedstat >> ns)) cpu_ns += ns;
  }
  return ec ? 0.0 : static_cast<double>(cpu_ns) / 1e9;
}

bool ServerChild::Sample(Usage* out) const {
  if (pid_ <= 0) return false;
  // The server's threads all live as long as the process, so the sum
  // over its threads covers the window.
  out->cpu_s = ThreadsCpuSeconds(pid_, {});
  if (out->cpu_s == 0) return false;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      out->rss_bytes = std::stoull(line.substr(6)) * 1024;
      return true;
    }
  }
  return false;
}

}  // namespace mvccbench
