#include "tracer.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

namespace mvccbench {
namespace {

// Per-thread span capacity. Reserved, not touched: only written pages
// become resident.
constexpr size_t kSpansPerThread = size_t{1} << 19;
// Flight ids carry a per-stream sequence number in their low bits.
constexpr uint64_t kFlightSeqMask = (uint64_t{1} << 40) - 1;

struct ThreadBuffer {
  // A full buffer is thinned, not truncated: every other flight's spans
  // (and every other unattributed span) are dropped and the stride
  // doubles, so what is kept stays an even sample of the whole phase.
  void Compact() {
    const uint64_t next = stride.load(std::memory_order_relaxed) * 2;
    const size_t n = size.load(std::memory_order_relaxed);
    size_t kept = 0;
    uint64_t unattributed_seen = 0;
    for (size_t i = 0; i < n; ++i) {
      const Span& s = spans[i];
      const bool keep = s.flight != 0 ? (s.flight & kFlightSeqMask) % next == 0
                                      : unattributed_seen++ % 2 == 0;
      if (keep) spans[kept++] = s;
    }
    stride.store(next, std::memory_order_relaxed);
    size.store(kept, std::memory_order_release);
  }

  std::unique_ptr<Span[]> spans =
      std::make_unique_for_overwrite<Span[]>(kSpansPerThread);
  // Published with release after the span is written; Collect reads it
  // with acquire.
  std::atomic<size_t> size{0};
  std::atomic<uint64_t> stride{1};  // 1 in `stride` flights is recorded
  uint64_t unattributed = 0;        // spans recorded with no open flight
  uint32_t tid = static_cast<uint32_t>(::syscall(SYS_gettid));
  std::string name;  // guarded by Registry::mu
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;  // guarded by mu
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();  // outlives every thread
  return *registry;
}

std::atomic<bool> g_enabled{false};
std::atomic<uint8_t> g_phase{0};
thread_local ThreadBuffer* t_buffer = nullptr;
thread_local uint64_t t_flight = 0;

ThreadBuffer* Buffer() {
  if (t_buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    t_buffer = owned.get();
    Registry& r = GetRegistry();
    std::lock_guard<std::mutex> guard(r.mu);
    r.buffers.push_back(std::move(owned));
  }
  return t_buffer;
}

}  // namespace

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kClientFlight: return "client.flight";
    case SpanName::kClientSend: return "client.send";
    case SpanName::kClientAwait: return "client.await";
    case SpanName::kServiceExecute: return "service.execute";
    case SpanName::kTxnFlight: return "txn.flight";
    case SpanName::kTxnBegin: return "txn.begin";
    case SpanName::kTxnRead: return "txn.read";
    case SpanName::kTxnScan: return "txn.scan";
    case SpanName::kTxnWrite: return "txn.write";
    case SpanName::kTxnCommit: return "txn.commit";
    case SpanName::kEnvAppend: return "env.append";
    case SpanName::kEnvSync: return "env.sync";
    case SpanName::kEnvSyncDir: return "env.sync_dir";
    case SpanName::kEnvNewFile: return "env.new_file";
    case SpanName::kCount: break;
  }
  return "?";
}

void Tracer::Enable(uint8_t phase) {
  g_phase.store(phase, std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_release);
}

void Tracer::Disable() { g_enabled.store(false, std::memory_order_release); }

void Tracer::SetFlight(uint64_t flight) { t_flight = flight; }

void Tracer::NameThread(const std::string& name) {
  ThreadBuffer* b = Buffer();
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> guard(r.mu);  // ThreadNames reads it
  b->name = name;
}

void Tracer::Record(SpanName name, int64_t start_ns, int64_t end_ns,
                    bool read_only) {
  // Acquire pairs with Enable's release, so the phase read below is the
  // one Enable stored.
  if (!g_enabled.load(std::memory_order_acquire)) return;
  ThreadBuffer* b = Buffer();
  const uint64_t key =
      t_flight != 0 ? (t_flight & kFlightSeqMask) : b->unattributed++;
  if (key % b->stride.load(std::memory_order_relaxed) != 0) return;
  if (b->size.load(std::memory_order_relaxed) == kSpansPerThread) {
    b->Compact();
    if (key % b->stride.load(std::memory_order_relaxed) != 0) return;
  }
  const size_t i = b->size.load(std::memory_order_relaxed);
  Span& s = b->spans[i];
  s.start_ns = start_ns;
  s.dur_ns = end_ns - start_ns;
  s.self_ns = s.dur_ns;
  s.flight = t_flight;
  s.tid = b->tid;
  s.name = name;
  s.phase = g_phase.load(std::memory_order_relaxed);
  s.read_only = read_only ? 1 : 0;
  b->size.store(i + 1, std::memory_order_release);
}

std::vector<Span> Tracer::Collect() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> guard(r.mu);
  std::vector<Span> out;
  for (const auto& b : r.buffers) {
    const size_t n = b->size.load(std::memory_order_acquire);
    out.insert(out.end(), b->spans.get(), b->spans.get() + n);
  }
  return out;
}

std::vector<std::pair<uint32_t, std::string>> Tracer::ThreadNames() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> guard(r.mu);
  std::vector<std::pair<uint32_t, std::string>> out;
  for (const auto& b : r.buffers) {
    if (!b->name.empty()) out.emplace_back(b->tid, b->name);
  }
  return out;
}

void Tracer::Clear() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> guard(r.mu);
  for (const auto& b : r.buffers) {
    b->size.store(0, std::memory_order_release);
    b->stride.store(1, std::memory_order_relaxed);
  }
}

uint64_t Tracer::SamplingStride() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> guard(r.mu);
  uint64_t stride = 1;
  for (const auto& b : r.buffers) {
    stride = std::max(stride, b->stride.load(std::memory_order_relaxed));
  }
  return stride;
}

void ComputeSelfTimes(std::vector<Span>* spans) {
  std::sort(spans->begin(), spans->end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.dur_ns > b.dur_ns;  // an enclosing span sorts first
  });
  std::vector<Span*> open;  // spans on the current thread still open
  uint32_t tid = 0;
  for (Span& s : *spans) {
    if (open.empty() || s.tid != tid) {
      open.clear();
      tid = s.tid;
    }
    s.self_ns = s.dur_ns;
    while (!open.empty() && open.back()->end_ns() <= s.start_ns) {
      open.pop_back();
    }
    if (!open.empty() && open.back()->flight == s.flight) {
      Span* parent = open.back();
      const int64_t covered =
          std::min(s.end_ns(), parent->end_ns()) - s.start_ns;
      parent->self_ns -= covered;
    }
    open.push_back(&s);
  }
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::vector<CounterSample>& counters,
                      const std::string& workload,
                      const std::vector<std::string>& phase_names,
                      size_t max_events, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  int64_t base = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) base = std::min(base, s.start_ns);
  for (const CounterSample& c : counters) base = std::min(base, c.ts_ns);
  const uint64_t stride =
      spans.size() <= max_events || max_events == 0
          ? 1
          : (spans.size() + max_events - 1) / max_events;
  auto us = [base](int64_t ns) {
    return static_cast<double>(ns - base) / 1e3;
  };

  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":"
                  "\"%s\",\"span_stride\":%llu},\"traceEvents\":[\n",
               workload.c_str(), static_cast<unsigned long long>(stride));
  bool first = true;
  auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  sep();
  std::fprintf(f, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"args\":{\"name\":\"mvccbench %s\"}}",
               workload.c_str());
  for (const auto& [tid, name] : Tracer::ThreadNames()) {
    sep();
    std::fprintf(f, "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                    "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                 tid, name.c_str());
  }
  uint64_t unattributed = 0;
  for (const Span& s : spans) {
    if (stride > 1) {
      const uint64_t key = s.flight != 0 ? s.flight : unattributed++;
      if (key % stride != 0) continue;
    }
    const char* phase =
        s.phase < phase_names.size() ? phase_names[s.phase].c_str() : "?";
    sep();
    std::fprintf(f, "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                    "\"args\":{\"flight\":%llu,\"self_us\":%.3f",
                 SpanNameString(s.name), phase, us(s.start_ns),
                 static_cast<double>(s.dur_ns) / 1e3, s.tid,
                 static_cast<unsigned long long>(s.flight),
                 static_cast<double>(s.self_ns) / 1e3);
    if (s.name == SpanName::kClientFlight || s.name == SpanName::kTxnFlight ||
        s.name == SpanName::kServiceExecute) {
      std::fprintf(f, ",\"workload\":\"%s\",\"class\":\"%s\"",
                   workload.c_str(), s.read_only ? "read-only" : "read-write");
    }
    std::fputs("}}", f);
  }
  for (const CounterSample& c : counters) {
    sep();
    std::fprintf(f, "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,"
                    "\"args\":{",
                 c.name.c_str(), us(c.ts_ns));
    for (size_t i = 0; i < c.values.size(); ++i) {
      std::fprintf(f, "%s\"%s\":%.17g", i == 0 ? "" : ",",
                   c.values[i].first.c_str(), c.values[i].second);
    }
    std::fputs("}}", f);
  }
  std::fputs("\n]}\n", f);
  const bool ok = std::fflush(f) == 0 && !std::ferror(f);
  if (std::fclose(f) != 0 || !ok) {
    *error = "write failed: " + path;
    return false;
  }
  return true;
}

}  // namespace mvccbench
