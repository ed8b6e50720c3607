// mvccbench: the repository's end-to-end benchmark (see README.md here).
//
//   mvccbench --workload rw_flight --seed 7 --seconds 15 --trace 0
//   mvccbench --all --seed 1                    # every workload, untraced
//   mvccbench --trace trace.json --workload hot_batch
//
// An untraced run forks a durable server child (the library configured
// as mvccd serves it, with a real on-disk WAL), drives it over loopback
// TCP from this process, kill -9s it and checks every acknowledged write
// after reopening its directory. A traced run serves in process and
// repeats the workload's flights through three entry points — TCP,
// ServiceCore, Database — to split a flight's time into layers.
//
// Every metric is printed by name with its unit. The last line of stdout
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. The
// exit code is nonzero when any check failed.

#include <signal.h>
#include <stdlib.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "durability.h"
#include "host.h"
#include "loadgen.h"
#include "recovery/recovery.h"
#include "server_child.h"
#include "stats.h"
#include "timing_env.h"
#include "tracer.h"
#include "workload.h"

namespace mvccbench {
namespace {

using mvcc::NowNanos;

// Durable open + preload + listen is repeated this many times per run;
// setup_s is their median and the last one serves.
constexpr int kSetups = 3;
constexpr double kWarmupS = 2.0;
// rw_open's ladder (flights/s), each step kStepS long with its first
// kStepDiscardS discarded. The SLO is on latency timed from due time.
constexpr double kLadder[] = {1000, 1500, 2000,  3000, 4000,
                              6000, 8000, 11000, 16000};
constexpr double kStepS = 3.0;
constexpr double kStepDiscardS = 0.5;
constexpr int64_t kSloP99Ns = 2'000'000;
constexpr int64_t kSloLatenessP99Ns = 500'000;
constexpr size_t kFsyncProbes = 200;
// A traced run has four phases of this share of --seconds each, after
// kTracedWarmupS of unmeasured load.
constexpr double kTracedPhaseShare = 0.5;
constexpr double kTracedWarmupS = 1.0;
constexpr size_t kMaxTraceEvents = 200'000;
// Slack on top of a run's planned length before the watchdog kills it.
constexpr double kDeadlineSlackS = 60.0;

int64_t Ns(double s) { return static_cast<int64_t>(s * 1e9); }

double Div(double a, double b) { return b == 0 ? 0.0 : a / b; }

struct Options {
  std::vector<Workload> workloads;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string trace_path;  // empty: <data_root>/trace-<workload>.json
  std::string data_root = "build/mvccbench-data";
};

// ---------------------------------------------------------------------
// results and printing
// ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  std::string workload;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;     // the result line's metrics
  std::vector<std::string> table;  // the human-readable report

  void Error(const std::string& e) { errors.push_back(e); }
};

// Shortest text that reads back as exactly `v`.
std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string Fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

void Row(RunResult* r, const std::string& name, double value,
         const std::string& unit, const std::string& note = "") {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  %-36s %16s %-6s %s", name.c_str(),
                Fixed(value, 4).c_str(), unit.c_str(), note.c_str());
  r->table.push_back(buf);
}

void AddMetric(RunResult* r, const std::string& name, double value,
               const std::string& unit, const std::string& note = "") {
  r->metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  Row(r, name, value, unit, note);
}

std::string SampleNote(const Summary& s) {
  return "n=" + std::to_string(s.n) +
         ", highest percentile with >=10 samples beyond: p" +
         Fixed(s.supported * 100, 4);
}

// p50 and p99 rows of a latency distribution (ns samples, us shown).
void LatencyRows(RunResult* r, const std::string& prefix,
                 const std::vector<int64_t>& ns) {
  const Summary s = Summarize(ns);
  const std::string note = SampleNote(s);
  Row(r, prefix + "_p50_us", static_cast<double>(s.p50) / 1e3, "us", note);
  Row(r, prefix + "_p99_us", static_cast<double>(s.p99) / 1e3, "us", note);
}

std::string ResultJson(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.errors.empty() ? "true" : "false";
  out += ", \"attempted\": " +
         std::to_string(std::max<uint64_t>(r.attempted, 1));
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
           Num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}}";
}

void PrintResult(const RunResult& r, const std::string& header) {
  std::printf("== %s ==\n", header.c_str());
  for (const std::string& line : r.table) std::printf("%s\n", line.c_str());
  for (const std::string& e : r.errors) {
    std::printf("  FAILED: %s\n", e.c_str());
  }
  std::printf("%s\n", ResultJson(r).c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------
// watchdog
// ---------------------------------------------------------------------

// Bounds a run. When the deadline passes it SIGKILLs the server child
// (the load threads then fail fast on dead connections) and, if the run
// still does not finish, reports it failed and leaves the process.
class Watchdog {
 public:
  Watchdog(std::string workload, double budget_s, pid_t child)
      : workload_(std::move(workload)),
        deadline_(std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(
                      static_cast<int64_t>(budget_s * 1000))),
        child_(child),
        thread_([this] { Loop(); }) {}

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> guard(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void Phase(const char* name) { phase_.store(name); }
  bool fired() const { return fired_.load(); }
  std::string Failure() const {
    return "deadline passed in workload " + workload_ + ", phase " +
           phase_.load();
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    if (cv_.wait_until(lock, deadline_, [this] { return stop_; })) return;
    fired_.store(true);
    std::fprintf(stderr, "mvccbench: %s\n", Failure().c_str());
    if (child_ > 0) ::kill(child_, SIGKILL);
    if (cv_.wait_for(lock, std::chrono::seconds(20),
                     [this] { return stop_; })) {
      return;
    }
    // The run is wedged in this process: report it and leave.
    std::printf("FAILED: %s\n{\"correct\": false, \"attempted\": 1, "
                "\"failed\": 1, \"metrics\": {}}\n",
                Failure().c_str());
    std::fflush(stdout);
    ::_exit(1);
  }

  const std::string workload_;
  const std::chrono::steady_clock::time_point deadline_;
  const pid_t child_;
  std::atomic<const char*> phase_{"setup"};
  std::atomic<bool> fired_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread thread_;
};

// ---------------------------------------------------------------------
// shared helpers
// ---------------------------------------------------------------------

std::string MakeRunDir(const std::string& root, std::string* error) {
  std::string tmpl = root + "/run-XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    *error = "mkdtemp in " + root + " failed: " + std::strerror(errno);
    return "";
  }
  return tmpl;
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// Removes a run's data directory when the run leaves scope. Declared
// before whatever writes into the directory, so it goes last.
class DirGuard {
 public:
  DirGuard() = default;
  ~DirGuard() {
    if (!dir.empty()) RemoveDir(dir);
  }
  DirGuard(const DirGuard&) = delete;
  DirGuard& operator=(const DirGuard&) = delete;

  std::string dir;
};

std::vector<std::unique_ptr<WireConn>> DialAll(uint16_t port,
                                               RunResult* r) {
  std::string error;
  auto conns = DialSpread(port, kConnections, &error);
  if (conns.empty()) r->Error("dial: " + error);
  return conns;
}

std::vector<FlightSource> Sources(Workload w, uint64_t seed, uint32_t conn0) {
  std::vector<FlightSource> sources;
  for (int i = 0; i < kConnections; ++i) {
    sources.emplace_back(w, seed, i, conn0 + static_cast<uint32_t>(i));
  }
  return sources;
}

// Splits per-stream tallies into the workload's primary streams and the
// rest (ro_snapshot's writer), and adds everything to *run.
void Split(const std::vector<StreamRole>& roles,
           const std::vector<StreamTally>& tallies, StreamTally* primary,
           StreamTally* other, StreamTally* run) {
  for (size_t i = 0; i < tallies.size(); ++i) {
    (roles[i].primary ? primary : other)->Merge(tallies[i]);
    run->Merge(tallies[i]);
  }
}

// Folds a run's tallies into the result's attempted/failed and errors.
void Account(const StreamTally& run, RunResult* r) {
  r->attempted += run.attempted;
  r->failed += run.failed;
  const Problems& p = run.problems;
  if (p.total() == 0) return;
  r->Error(std::to_string(p.total()) + " problems (wire " +
           std::to_string(p.wire_errors) + ", stalled " +
           std::to_string(p.stalls) + ", status " +
           std::to_string(p.bad_status) + ", values " +
           std::to_string(p.bad_values) + ", scans " +
           std::to_string(p.bad_scans) + ", read-only " +
           std::to_string(p.ro_failures) + "); first: " + p.first);
}

void CheckReadOnly(const Counters& c, RunResult* r) {
  for (const char* name : {"ro_aborts", "ro_blocks", "durability_failures"}) {
    if (CounterValue(c, name) != 0) {
      r->Error(std::string(name) + " = " +
               std::to_string(CounterValue(c, name)) + " (must be 0)");
    }
  }
}

void DurabilityRows(const DurabilityResult& d, RunResult* r) {
  if (!d.opened) {
    r->Error("durability reopen failed: " + d.error);
    return;
  }
  Row(r, "acked_lost", static_cast<double>(d.acked_lost), "count",
      "of " + std::to_string(d.keys_checked) + " acknowledged keys");
  Row(r, "reopen_s", d.reopen_s, "s",
      std::to_string(d.replayed_batches) + " batches replayed");
  if (d.acked_lost != 0) {
    r->Error(std::to_string(d.acked_lost) +
             " acknowledged writes lost after kill -9 and reopen");
  }
}

// ---------------------------------------------------------------------
// untraced run: forked durable server, end-to-end metrics
// ---------------------------------------------------------------------

// The window's end-to-end metrics. Each is computed per slice of the
// window and the median over slices is reported: a second disturbed by
// another tenant of a shared host moves one slice, not the result. The
// whole-window exact percentiles are printed beside them.
struct SliceMedians {
  double txn_per_s = 0;  // headline streams' commits
  double p50_ns = 0;
  double p99_ns = 0;
  double mean_ns = 0;
  double cpu_us_per_txn = 0;  // server CPU over every stream's commits
};

SliceMedians MediansOverSlices(const std::vector<FlightSample>& primary,
                               const std::vector<FlightSample>& other,
                               const std::vector<ServerChild::Usage>& usage,
                               int64_t begin_ns, int64_t slice_ns) {
  const size_t n = usage.size() - 1;
  std::vector<std::vector<int64_t>> latency(n);
  std::vector<double> committed(n, 0), committed_all(n, 0);
  auto slice_of = [&](const FlightSample& f) {
    return f.t_ref_ns < begin_ns ? n : static_cast<size_t>(
                                           (f.t_ref_ns - begin_ns) / slice_ns);
  };
  for (const FlightSample& f : primary) {
    const size_t k = slice_of(f);
    if (k >= n) continue;
    latency[k].push_back(f.latency_ns);
    committed[k] += f.committed;
    committed_all[k] += f.committed;
  }
  for (const FlightSample& f : other) {
    const size_t k = slice_of(f);
    if (k < n) committed_all[k] += f.committed;
  }
  std::vector<double> tps, p50, p99, mean, cpu;
  const double slice_s = static_cast<double>(slice_ns) / 1e9;
  for (size_t k = 0; k < n; ++k) {
    const Summary s = Summarize(latency[k]);
    tps.push_back(committed[k] / slice_s);
    p50.push_back(static_cast<double>(s.p50));
    p99.push_back(static_cast<double>(s.p99));
    mean.push_back(Mean(latency[k]));
    cpu.push_back(Div((usage[k + 1].cpu_s - usage[k].cpu_s) * 1e6,
                      committed_all[k]));
  }
  return {Median(tps), Median(p50), Median(p99), Median(mean), Median(cpu)};
}

// rw_open's rate ladder; returns the highest rate meeting the SLO and
// appends one report row per step to *rows.
double RunLadder(std::vector<std::unique_ptr<WireConn>>& conns,
                 std::vector<FlightSource>& sources, StreamTally* run,
                 std::vector<std::string>* rows) {
  double slo_rate = 0;
  for (double rate : kLadder) {
    const std::vector<StreamRole> roles = Streams(Workload::kRwOpen, rate);
    const int64_t start = NowNanos() + Ns(0.01);
    Segment seg;
    seg.start_ns = start;
    seg.end_ns = start + Ns(kStepS);
    seg.window_begin_ns = start + Ns(kStepDiscardS);
    seg.window_end_ns = seg.end_ns;
    seg.shed_ok = true;
    std::vector<StreamTally> tallies(kConnections);
    RunThreads(kConnections, [&](int i) {
      RunTcpStream(conns[i].get(), &sources[i], roles[i], seg, &tallies[i]);
    });
    StreamTally step, unused;
    Split(roles, tallies, &step, &unused, run);
    const Summary lat = Summarize(Latencies(step.samples));
    const Summary late = Summarize(step.lateness_ns);
    const bool pass = step.flights > 0 && step.flights_failed == 0 &&
                      lat.p99 <= kSloP99Ns && late.p99 <= kSloLatenessP99Ns;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  ladder %6.0f/s: p50 %8.1f us  p99 %8.1f us  lateness "
                  "p99 %7.1f us  failed %llu/%llu  n=%zu  %s",
                  rate, static_cast<double>(lat.p50) / 1e3,
                  static_cast<double>(lat.p99) / 1e3,
                  static_cast<double>(late.p99) / 1e3,
                  static_cast<unsigned long long>(step.flights_failed),
                  static_cast<unsigned long long>(step.flights), lat.n,
                  pass ? "meets SLO" : "misses SLO");
    rows->push_back(buf);
    if (!pass) break;
    slo_rate = rate;
  }
  return slo_rate;
}

RunResult RunUntraced(Workload w, const Options& o) {
  RunResult r;
  r.workload = WorkloadName(w);
  std::string error;

  // Setup: kSetups durable opens; the last child serves the run.
  std::vector<double> setups;
  DirGuard dir;
  std::unique_ptr<ServerChild> child;
  for (int i = 0; i < kSetups; ++i) {
    const std::string d = MakeRunDir(o.data_root, &error);
    if (d.empty()) {
      r.Error(error);
      return r;
    }
    auto c = ServerChild::Spawn(d, 120.0, &error);
    if (c == nullptr) {
      RemoveDir(d);
      r.Error("setup: " + error);
      return r;
    }
    setups.push_back(c->setup_s());
    if (i + 1 < kSetups) {
      c->Kill();
      RemoveDir(d);
    } else {
      child = std::move(c);
      dir.dir = d;
    }
  }
  std::string setup_note = "median of";
  for (double s : setups) setup_note += " " + Fixed(s, 3);
  AddMetric(&r, "setup_s", Median(setups), "s", setup_note);

  const double ladder_s = w == Workload::kRwOpen
                              ? std::size(kLadder) * (kStepS + 2.5)
                              : 0.0;
  Watchdog dog(r.workload, kWarmupS + o.seconds + ladder_s + kDeadlineSlackS,
               child->pid());
  auto conns = DialAll(child->port(), &r);
  if (conns.empty()) return r;
  const std::vector<StreamRole> roles = Streams(w, kReferenceRate);
  std::vector<FlightSource> sources = Sources(w, o.seed, 0);

  // The measured window, after a warmup on the same connections. The
  // child's CPU time and memory are sampled at every slice edge, its
  // counters at the window's edges.
  dog.Phase("window");
  const int slices = std::max(1, static_cast<int>(std::lround(o.seconds)));
  const int64_t slice_ns = Ns(o.seconds) / slices;
  const int64_t start = NowNanos() + Ns(0.02);
  Segment seg;
  seg.start_ns = start;
  seg.window_begin_ns = start + Ns(kWarmupS);
  seg.window_end_ns = seg.window_begin_ns + slice_ns * slices;
  seg.end_ns = seg.window_end_ns;
  std::vector<ServerChild::Usage> usage(slices + 1);
  Counters c0, c1;
  std::string edge_error;
  std::thread sampler([&] {
    for (int k = 0; k <= slices; ++k) {
      SleepUntil(seg.window_begin_ns + k * slice_ns);
      if (!child->Sample(&usage[k])) edge_error = "cannot sample the server";
      if ((k == 0 || k == slices) &&
          !child->Counters(k == 0 ? &c0 : &c1, &edge_error)) {
        break;
      }
    }
  });
  std::vector<StreamTally> tallies(kConnections);
  RunThreads(kConnections, [&](int i) {
    RunTcpStream(conns[i].get(), &sources[i], roles[i], seg, &tallies[i]);
  });
  sampler.join();
  if (!edge_error.empty()) r.Error("window sampling: " + edge_error);
  StreamTally primary, other, run;
  Split(roles, tallies, &primary, &other, &run);

  double slo_rate = 0;
  std::vector<std::string> ladder_rows;
  if (w == Workload::kRwOpen) {
    dog.Phase("ladder");
    slo_rate = RunLadder(conns, sources, &run, &ladder_rows);
  }

  // Quiesced: every stream has drained. Kill -9 and check durability.
  dog.Phase("durability");
  Counters final_counters;
  if (!child->Counters(&final_counters, &error)) r.Error(error);
  child->Kill();
  conns.clear();
  const DurabilityResult durable = CheckDurability(dir.dir, run.acked);

  // End-to-end metrics: medians over the window's slices.
  const SliceMedians m =
      MediansOverSlices(primary.samples, other.samples, usage,
                        seg.window_begin_ns, slice_ns);
  const std::string over = "median of " + std::to_string(slices) + " slices";
  AddMetric(&r, "txn_per_s", m.txn_per_s, "txn/s", over);
  AddMetric(&r, "flight_mean_us", m.mean_ns / 1e3, "us", over);
  // Too noisy across runs on a shared host to gate (README
  // "Repeatability"); traced runs report them as per-layer metrics.
  Row(&r, "flight_p50_us", m.p50_ns / 1e3, "us", over);
  Row(&r, "flight_p99_us", m.p99_ns / 1e3, "us", over);
  Row(&r, "server_cpu_us_per_txn", m.cpu_us_per_txn, "us", over);
  const uint64_t committed_rw = primary.committed_rw + other.committed_rw;
  AddMetric(&r, "mem_bytes_per_commit",
            Div(static_cast<double>(usage.back().rss_bytes) -
                    static_cast<double>(usage.front().rss_bytes),
                committed_rw),
            "B",
            "VmRSS " + Fixed(usage.front().rss_bytes / 1048576.0, 1) +
                " -> " + Fixed(usage.back().rss_bytes / 1048576.0, 1) +
                " MiB over the window");
  Row(&r, "window_txn_per_s", Div(primary.committed, o.seconds), "txn/s",
      std::to_string(primary.committed) + " committed in the whole window");
  LatencyRows(&r, "window_flight", Latencies(primary.samples));

  // The rest of the report.
  if (w == Workload::kRoSnapshot) {
    LatencyRows(&r, "writer", Latencies(other.samples));
  }
  std::vector<int64_t> lateness = primary.lateness_ns;
  lateness.insert(lateness.end(), other.lateness_ns.begin(),
                  other.lateness_ns.end());
  if (!lateness.empty()) {
    const Summary late = Summarize(lateness);
    Row(&r, "generator_lateness_p99_us", static_cast<double>(late.p99) / 1e3,
        "us", SampleNote(late));
  }
  if (w == Workload::kRwOpen) {
    r.table.insert(r.table.end(), ladder_rows.begin(), ladder_rows.end());
    Row(&r, "slo_rate", slo_rate, "txn/s",
        "p99 <= 2 ms from due time, lateness p99 <= 0.5 ms, no failures");
  }
  const uint64_t rw_txns = committed_rw + primary.aborted + other.aborted;
  Row(&r, "abort_frac",
      Div(primary.aborted + other.aborted, static_cast<double>(rw_txns)),
      "ratio", std::to_string(primary.aborted + other.aborted) +
                   " concurrency-control aborts");
  auto delta = [&](const char* name) {
    return static_cast<double>(CounterValue(c1, name)) -
           static_cast<double>(CounterValue(c0, name));
  };
  Row(&r, "batches_per_group",
      Div(delta("batches_logged"), delta("groups_flushed")), "ratio");
  Row(&r, "rw_blocks_per_txn",
      Div(delta("rw_blocks"), delta("rw_commits") + delta("rw_aborts")),
      "ratio");
  Row(&r, "commit_bursts_per_s", delta("commit_bursts") / o.seconds, "1/s");
  Account(run, &r);
  Row(&r, "failed_frac", Div(r.failed, static_cast<double>(r.attempted)),
      "ratio", std::to_string(r.failed) + " of " +
                   std::to_string(r.attempted) + " flights");
  CheckReadOnly(final_counters, &r);
  DurabilityRows(durable, &r);
  if (dog.fired()) r.Error(dog.Failure());
  return r;
}

// ---------------------------------------------------------------------
// traced run: in process, three entry points, per-layer metrics
// ---------------------------------------------------------------------

enum Phase : uint8_t { kTcpUntraced, kTcp, kService, kTxn, kPhases };
const std::vector<std::string> kPhaseNames = {"tcp_untraced", "tcp",
                                              "service", "txn"};

struct PhaseResult {
  StreamTally primary, other, all;
  TimingEnv::Counts env0, env1;
  Counters c0, c1;
  double cpu0 = 0, cpu1 = 0;  // on-CPU seconds of every non-load thread
  int64_t window_ns = 0;

  double delta(const char* name) const {
    return static_cast<double>(CounterValue(c1, name)) -
           static_cast<double>(CounterValue(c0, name));
  }
};

enum class ClassFilter { kAny, kReadWrite, kReadOnly };

std::vector<int64_t> Durations(const std::vector<Span>& spans, uint8_t phase,
                               SpanName name,
                               ClassFilter filter = ClassFilter::kAny) {
  std::vector<int64_t> out;
  for (const Span& s : spans) {
    if (s.phase != phase || s.name != name) continue;
    if (filter == ClassFilter::kReadWrite && s.read_only) continue;
    if (filter == ClassFilter::kReadOnly && !s.read_only) continue;
    out.push_back(s.dur_ns);
  }
  return out;
}

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

// p50 over the phase's flights of each span name's self time summed per
// flight (0 for a flight without that span). Flights are those of the
// given class whose root span was recorded.
struct SelfTimes {
  std::array<int64_t, static_cast<size_t>(SpanName::kCount)> p50{};
  std::array<bool, static_cast<size_t>(SpanName::kCount)> present{};
};

SelfTimes PerFlightSelf(const std::vector<Span>& spans, uint8_t phase,
                        SpanName root, bool read_only) {
  constexpr size_t kNames = static_cast<size_t>(SpanName::kCount);
  std::unordered_map<uint64_t, std::array<int64_t, kNames>> sums;
  for (const Span& s : spans) {
    if (s.phase == phase && s.name == root && s.flight != 0 &&
        (s.read_only != 0) == read_only) {
      sums[s.flight].fill(0);
    }
  }
  SelfTimes out;
  for (const Span& s : spans) {
    if (s.phase != phase) continue;
    auto it = sums.find(s.flight);
    if (it == sums.end()) continue;
    it->second[static_cast<size_t>(s.name)] += s.self_ns;
    out.present[static_cast<size_t>(s.name)] = true;
  }
  for (size_t n = 0; n < kNames; ++n) {
    if (!out.present[n]) continue;
    std::vector<int64_t> v;
    for (const auto& [flight, arr] : sums) v.push_back(arr[n]);
    out.p50[n] = Summarize(v).p50;
  }
  return out;
}

void SelfTimeTable(const std::vector<Span>& spans, RunResult* r) {
  r->table.push_back("  self time per span (us): phase name n p50_dur "
                     "p50_self mean_self");
  for (uint8_t p = kTcp; p < kPhases; ++p) {
    for (size_t n = 0; n < static_cast<size_t>(SpanName::kCount); ++n) {
      std::vector<int64_t> dur, self;
      for (const Span& s : spans) {
        if (s.phase == p && static_cast<size_t>(s.name) == n) {
          dur.push_back(s.dur_ns);
          self.push_back(s.self_ns);
        }
      }
      if (dur.empty()) continue;
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "    %-8s %-16s %9zu %10.2f %10.2f %10.2f",
                    kPhaseNames[p].c_str(),
                    SpanNameString(static_cast<SpanName>(n)), dur.size(),
                    Us(Summarize(dur).p50), Us(Summarize(self).p50),
                    Mean(self) / 1e3);
      r->table.push_back(buf);
    }
  }
}

std::string TracePath(const Options& o, Workload w) {
  const std::string name = WorkloadName(w);
  if (o.trace_path.empty()) return o.data_root + "/trace-" + name + ".json";
  if (o.workloads.size() == 1) return o.trace_path;
  std::filesystem::path p(o.trace_path);  // several workloads: one each
  p.replace_filename(p.stem().string() + "-" + name + p.extension().string());
  return p.string();
}

RunResult RunTraced(Workload w, const Options& o) {
  RunResult r;
  r.workload = WorkloadName(w);
  std::string error;
  DirGuard dir;
  dir.dir = MakeRunDir(o.data_root, &error);
  if (dir.dir.empty()) {
    r.Error(error);
    return r;
  }
  const double phase_s = std::max(1.0, o.seconds * kTracedPhaseShare);
  Watchdog dog(r.workload,
               static_cast<int>(kPhases) * (phase_s + kTracedWarmupS) +
                   kDeadlineSlackS,
               -1);

  TimingEnv env(mvcc::GetPosixEnv());
  const int64_t setup_start = NowNanos();
  auto opened = mvcc::OpenDatabaseDurable(ServedDatabaseOptions(), &env,
                                          dir.dir, mvcc::WalDurableOptions{},
                                          nullptr);
  if (!opened.ok()) {
    r.Error("durable open: " + opened.status().ToString());
    return r;
  }
  std::unique_ptr<mvcc::Database> db = std::move(opened).value();
  auto server = std::make_unique<mvcc::server::Server>(db.get(), nullptr,
                                                       ServedServerOptions());
  mvcc::Status started = server->Start();
  if (!started.ok()) {
    r.Error("server start: " + started.ToString());
    return r;
  }
  Row(&r, "setup_s", Us(NowNanos() - setup_start) / 1e6, "s",
      "in process, once");
  auto conns = DialAll(server->port(), &r);
  if (conns.empty()) return r;

  const std::vector<StreamRole> roles = Streams(w, kReferenceRate);
  std::array<PhaseResult, kPhases> ph;
  std::vector<CounterSample> samples;
  StreamTally run;
  for (uint8_t p = 0; p < kPhases; ++p) {
    dog.Phase(kPhaseNames[p].c_str());
    std::vector<FlightSource> sources =
        Sources(w, o.seed, static_cast<uint32_t>(p * kConnections));
    const int64_t start = NowNanos() + Ns(0.01);
    Segment seg;
    seg.start_ns = start;
    seg.window_begin_ns = start + Ns(kTracedWarmupS);
    seg.window_end_ns = seg.window_begin_ns + Ns(phase_s);
    seg.end_ns = seg.window_end_ns;
    PhaseResult& res = ph[p];
    res.window_ns = seg.window_end_ns - seg.window_begin_ns;
    auto edge = [&](Counters* c, TimingEnv::Counts* e, double* cpu) {
      std::vector<uint32_t> load_threads;
      for (const auto& [tid, name] : Tracer::ThreadNames()) {
        if (name.rfind("load-", 0) == 0) load_threads.push_back(tid);
      }
      *cpu = ThreadsCpuSeconds(::getpid(), load_threads);
      *c = ReadCounters(db.get(), server.get());
      *e = env.Snapshot();
      CounterSample cs;
      cs.ts_ns = NowNanos();
      cs.name = "counters";
      for (const char* name : {"rw_commits", "batches_logged",
                               "groups_flushed", "rw_blocks",
                               "deadlock_aborts", "total_versions"}) {
        cs.values.emplace_back(name,
                               static_cast<double>(CounterValue(*c, name)));
      }
      cs.values.emplace_back("fsyncs", static_cast<double>(e->syncs));
      samples.push_back(std::move(cs));
    };
    std::thread sampler([&] {
      SleepUntil(seg.window_begin_ns);
      edge(&res.c0, &res.env0, &res.cpu0);
      if (p != kTcpUntraced) Tracer::Enable(p);
      SleepUntil(seg.window_end_ns);
      Tracer::Disable();
      edge(&res.c1, &res.env1, &res.cpu1);
    });
    std::vector<StreamTally> tallies(kConnections);
    RunThreads(kConnections, [&](int i) {
      Tracer::NameThread("load-" + std::to_string(i));
      switch (p) {
        case kTcpUntraced:
        case kTcp:
          RunTcpStream(conns[i].get(), &sources[i], roles[i], seg,
                       &tallies[i]);
          break;
        case kService:
          RunServiceStream(&server->core(), &sources[i], roles[i], seg,
                           &tallies[i]);
          break;
        case kTxn:
          RunTxnStream(db.get(), &sources[i], roles[i], seg, &tallies[i]);
          break;
      }
    });
    sampler.join();
    Split(roles, tallies, &res.primary, &res.other, &run);
    res.all.Merge(res.primary);
    res.all.Merge(res.other);
  }
  conns.clear();
  server->Stop();

  std::vector<Span> spans = Tracer::Collect();
  ComputeSelfTimes(&spans);
  const bool ro = w == Workload::kRoSnapshot;
  const ClassFilter headline =
      ro ? ClassFilter::kReadOnly : ClassFilter::kReadWrite;

  // ---- end-to-end numbers too noisy to gate on a shared host (README
  // "Repeatability"), from the untraced tcp phase ----
  const PhaseResult& base = ph[kTcpUntraced];
  const Summary base_flight = Summarize(Latencies(base.primary.samples));
  AddMetric(&r, "flight_p50_us", Us(base_flight.p50), "us",
            SampleNote(base_flight));
  AddMetric(&r, "flight_p99_us", Us(base_flight.p99), "us",
            SampleNote(base_flight));
  AddMetric(&r, "server_cpu_us_per_txn",
            Div((base.cpu1 - base.cpu0) * 1e6, base.all.committed), "us",
            "server threads in process");

  // ---- server ----
  const Summary flight =
      Summarize(Durations(spans, kTcp, SpanName::kClientFlight, headline));
  const Summary exec =
      Summarize(Durations(spans, kService, SpanName::kServiceExecute,
                          headline));
  const PhaseResult& tcp = ph[kTcp];
  const double server_txns = tcp.delta("commits") + tcp.delta("aborts");
  const double rw_commits = tcp.delta("rw_commits");
  const double rw_txns = rw_commits + tcp.delta("rw_aborts");
  const double window_s = static_cast<double>(tcp.window_ns) / 1e9;
  const int64_t transport_ns = flight.p50 - exec.p50;
  AddMetric(&r, "server.transport_us", Us(transport_ns), "us",
            "p50 client.flight " + Fixed(Us(flight.p50), 1) +
                " - p50 service.execute " + Fixed(Us(exec.p50), 1));
  AddMetric(&r, "server.execute_us_p50", Us(exec.p50), "us", SampleNote(exec));
  AddMetric(&r, "server.execute_us_p99", Us(exec.p99), "us", SampleNote(exec));
  AddMetric(&r, "server.frames_per_txn",
            Div(tcp.delta("frames_in") + tcp.delta("frames_out"), server_txns),
            "count");
  AddMetric(&r, "server.bytes_per_txn",
            Div(tcp.delta("bytes_in") + tcp.delta("bytes_out"), server_txns),
            "B");
  Row(&r, "server.commit_bursts_per_s", tcp.delta("commit_bursts") / window_s,
      "1/s", "multi-commit flush-gated bursts");
  const WireCost& wire = tcp.all.wire;
  AddMetric(&r, "wire.encode_ns_per_req",
            Div(static_cast<double>(wire.encode_ns), wire.requests), "ns");
  AddMetric(&r, "wire.decode_ns_per_req",
            Div(static_cast<double>(wire.decode_ns), wire.responses), "ns");

  // ---- txn / cc / vc / storage ----
  // Sub-microsecond operations are reported as means: per-operation cost
  // in the accounting sense, and not pinned to the clock's nanosecond.
  AddMetric(&r, "txn.begin_rw_ns",
            Mean(Durations(spans, kTxn, SpanName::kTxnBegin,
                           ClassFilter::kReadWrite)),
            "ns", "mean");
  AddMetric(&r, "txn.read_ns",
            Mean(Durations(spans, kTxn, SpanName::kTxnRead)), "ns", "mean");
  AddMetric(&r, "txn.write_ns",
            Mean(Durations(spans, kTxn, SpanName::kTxnWrite)), "ns", "mean");
  const Summary commit = Summarize(
      Durations(spans, kTxn, SpanName::kTxnCommit, ClassFilter::kReadWrite));
  AddMetric(&r, "txn.commit_us_p50", Us(commit.p50), "us", SampleNote(commit));
  AddMetric(&r, "txn.commit_us_p99", Us(commit.p99), "us", SampleNote(commit));
  AddMetric(&r, "txn.batches_per_group",
            Div(tcp.delta("batches_logged"), tcp.delta("groups_flushed")),
            "ratio");
  AddMetric(&r, "cc.rw_blocks_per_txn", Div(tcp.delta("rw_blocks"), rw_txns),
            "ratio");
  AddMetric(&r, "cc.wait_die_aborts_per_txn",
            Div(tcp.delta("deadlock_aborts"), rw_txns), "ratio");
  AddMetric(&r, "vc.lag_p99",
            static_cast<double>(Summarize(ph[kTxn].all.lag).p99), "count",
            "VisibilityLag after each read-write commit, txn phase");
  if (ro) {
    Row(&r, "vc.begin_ro_ns",
        Mean(Durations(spans, kTxn, SpanName::kTxnBegin,
                       ClassFilter::kReadOnly)),
        "ns", "mean");
    Row(&r, "storage.ro_read_ns",
        Mean(Durations(spans, kTxn, SpanName::kTxnRead,
                       ClassFilter::kReadOnly)),
        "ns", "mean");
    Row(&r, "storage.scan_row_ns",
        Mean(Durations(spans, kTxn, SpanName::kTxnScan)) / kScanRows, "ns",
        "mean");
    Row(&r, "storage.versions_per_hot_key",
        Div(static_cast<double>(CounterValue(ph[kTcp].c1, "total_versions")) -
                static_cast<double>(kPreloadKeys),
            kHotKeys),
        "count", "every version ever written stays (no GC)");
  }

  // ---- recovery ----
  const Summary fsync = Summarize(Durations(spans, kTcp, SpanName::kEnvSync));
  AddMetric(&r, "recovery.fsyncs_per_commit",
            Div(static_cast<double>(tcp.env1.syncs - tcp.env0.syncs),
                rw_commits),
            "ratio");
  AddMetric(&r, "recovery.fsync_us_p50", Us(fsync.p50), "us",
            SampleNote(fsync));
  AddMetric(&r, "recovery.fsync_us_p99", Us(fsync.p99), "us",
            SampleNote(fsync));
  AddMetric(&r, "recovery.fsync_busy_frac",
            Div(static_cast<double>(tcp.env1.sync_ns - tcp.env0.sync_ns),
                static_cast<double>(tcp.window_ns)),
            "ratio");
  AddMetric(&r, "recovery.wal_bytes_per_commit",
            Div(static_cast<double>(tcp.env1.append_bytes -
                                    tcp.env0.append_bytes),
                rw_commits),
            "B");
  AddMetric(&r, "recovery.segments_per_s",
            static_cast<double>(tcp.env1.new_files - tcp.env0.new_files) /
                window_s,
            "1/s");

  // ---- layer sum against the tcp flight ----
  const SelfTimes self = PerFlightSelf(spans, kTxn, SpanName::kTxnFlight, ro);
  int64_t layer_sum = transport_ns;
  std::string parts = "server.transport " + Fixed(Us(transport_ns), 1);
  for (size_t n = 0; n < self.p50.size(); ++n) {
    if (!self.present[n]) continue;
    layer_sum += self.p50[n];
    parts += " + " + std::string(SpanNameString(static_cast<SpanName>(n))) +
             " " + Fixed(Us(self.p50[n]), 1);
  }
  r.table.push_back("  layer sum (p50 self us): " + parts + " = " +
                    Fixed(Us(layer_sum), 1) + " vs tcp flight p50 " +
                    Fixed(Us(flight.p50), 1));
  AddMetric(&r, "layer_sum_ratio",
            Div(static_cast<double>(layer_sum),
                static_cast<double>(flight.p50)),
            "ratio", "ROADMAP wants ~1 (within 10%); reported, not gated");
  // Open-loop txn/s is fixed by the schedule, so the overhead is read
  // from the headline flight latency, which every workload has.
  const double p50_untraced = static_cast<double>(
      Summarize(Latencies(ph[kTcpUntraced].primary.samples)).p50);
  const double p50_traced =
      static_cast<double>(Summarize(Latencies(tcp.primary.samples)).p50);
  AddMetric(&r, "trace_overhead_frac", Div(p50_traced, p50_untraced) - 1.0,
            "ratio",
            "tcp flight p50 traced " + Fixed(p50_traced / 1e3, 1) +
                " us vs untraced " + Fixed(p50_untraced / 1e3, 1) + " us");
  SelfTimeTable(spans, &r);
  if (Tracer::SamplingStride() > 1) {
    Row(&r, "trace.sampling_stride",
        static_cast<double>(Tracer::SamplingStride()), "count",
        "full span buffers kept 1 flight in this many");
  }

  const std::string path = TracePath(o, w);
  if (WriteChromeTrace(path, spans, samples, r.workload, kPhaseNames,
                       kMaxTraceEvents, &error)) {
    r.table.push_back("  trace written to " + path);
  } else {
    r.Error("trace: " + error);
  }
  Tracer::Clear();

  // Correctness: every check of the untraced run that needs no kill -9.
  dog.Phase("durability");
  const Counters final_counters = ReadCounters(db.get(), server.get());
  server.reset();
  db.reset();
  const DurabilityResult durable = CheckDurability(dir.dir, run.acked);
  AddMetric(&r, "recovery.reopen_s_per_100k_commits",
            Div(durable.reopen_s * 1e5,
                static_cast<double>(durable.replayed_batches)),
            "s");
  Account(run, &r);
  CheckReadOnly(final_counters, &r);
  DurabilityRows(durable, &r);
  if (dog.fired()) r.Error(dog.Failure());
  return r;
}

// ---------------------------------------------------------------------
// command line
// ---------------------------------------------------------------------

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "mvccbench: %s\n"
               "usage: mvccbench (--workload NAME | --all) [--seed N] "
               "[--seconds S]\n"
               "                 [--trace 0|1|FILE] [--data-root DIR]\n"
               "workloads: rw_flight rw_open ro_snapshot hot_batch\n",
               problem.c_str());
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        Workload w;
        const std::string name = value();
        if (!ParseWorkload(name, &w)) Usage("unknown workload " + name);
        o.workloads.push_back(w);
      } else if (arg == "--all") {
        o.workloads.assign(std::begin(kAllWorkloads), std::end(kAllWorkloads));
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        o.trace = v != "0";
        if (v != "0" && v != "1") o.trace_path = v;
      } else if (arg == "--data-root") {
        o.data_root = value();
      } else {
        Usage("unknown flag " + arg);
      }
    } catch (const std::exception&) {
      Usage("bad value for " + arg);
    }
  }
  if (o.workloads.empty()) Usage("name a --workload or pass --all");
  if (!(o.seconds >= 1 && o.seconds <= 600)) {
    Usage("--seconds must be in [1, 600]");
  }
  return o;
}

int Main(int argc, char** argv) {
  const Options o = ParseArgs(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(o.data_root, ec);
  if (ec) Usage("cannot create " + o.data_root + ": " + ec.message());
  const HostInfo host = ProbeHost(o.data_root, kFsyncProbes);
  std::printf("{\"host\": %s}\n", HostJson(host).c_str());
  bool ok = true;
  for (Workload w : o.workloads) {
    RunResult r = o.trace ? RunTraced(w, o) : RunUntraced(w, o);
    PrintResult(r, r.workload + (o.trace ? " (traced" : " (untraced") +
                       ", seed " + std::to_string(o.seed) + ", " +
                       Fixed(o.seconds, 0) + " s)");
    ok = ok && r.errors.empty();
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace mvccbench

int main(int argc, char** argv) { return mvccbench::Main(argc, argv); }
