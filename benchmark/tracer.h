#ifndef MVCCBENCH_TRACER_H_
#define MVCCBENCH_TRACER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"

namespace mvccbench {

// The trace's span vocabulary, one name per layer boundary the benchmark
// can see from outside the library (see README "Reading the trace").
enum class SpanName : uint8_t {
  kClientFlight,    // tcp phase root: first byte sent -> last response
  kClientSend,      // the write of one whole flight
  kClientAwait,     // waiting for the flight's responses
  kServiceExecute,  // service phase: one ServiceCore::ExecutePayloads call
  kTxnFlight,       // txn phase root: the flight's transactions, in process
  kTxnBegin,
  kTxnRead,
  kTxnScan,
  kTxnWrite,
  kTxnCommit,
  kEnvAppend,  // TimingEnv: WritableFile::Append
  kEnvSync,    // TimingEnv: WritableFile::Sync (fsync)
  kEnvSyncDir,
  kEnvNewFile,
  kCount,
};

const char* SpanNameString(SpanName name);

// One recorded span. Trivially constructible so span buffers can be
// reserved without touching their pages.
struct Span {
  int64_t start_ns;
  int64_t dur_ns;
  int64_t self_ns;   // dur_ns minus child coverage (ComputeSelfTimes)
  uint64_t flight;   // 0: recorded on a thread with no open flight
  uint32_t tid;
  SpanName name;
  uint8_t phase;
  uint8_t read_only;  // 1: recorded for a read-only flight or txn

  int64_t end_ns() const { return start_ns + dur_ns; }
};

// Process-wide span recorder. Every thread appends to its own
// preallocated buffer (registered on first use), so recording takes no
// lock. A full buffer is thinned to every other flight, and from then on
// that thread records one flight in 2, 4, ...: the spans kept are an even
// sample of the phase, and every kept flight is whole.
class Tracer {
 public:
  // Starts recording, stamping spans with `phase`.
  static void Enable(uint8_t phase);
  static void Disable();

  // The flight the calling thread works on (0: none). Spans recorded on
  // this thread carry it — including TimingEnv spans when this thread
  // leads a group commit.
  static void SetFlight(uint64_t flight);
  static void NameThread(const std::string& name);

  static void Record(SpanName name, int64_t start_ns, int64_t end_ns,
                     bool read_only = false);

  // Every span recorded so far. Call only while no thread records.
  static std::vector<Span> Collect();
  // Thread id -> name, for threads that called NameThread.
  static std::vector<std::pair<uint32_t, std::string>> ThreadNames();
  // Forgets all spans (between workloads, with no thread recording).
  static void Clear();
  // The largest thinning stride any thread reached (1: nothing thinned).
  static uint64_t SamplingStride();
};

// Records [construction, destruction) as one span.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name, bool read_only = false)
      : name_(name), read_only_(read_only), start_(mvcc::NowNanos()) {}
  ~ScopedSpan() {
    Tracer::Record(name_, start_, mvcc::NowNanos(), read_only_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanName name_;
  bool read_only_;
  int64_t start_;
};

// Fills self_ns: a span's duration minus the part of it covered by its
// children. A child is a span on the same thread and flight that starts
// inside its parent; spans of different flights never nest, so
// overlapping open-loop flights on one thread stay separate roots.
void ComputeSelfTimes(std::vector<Span>* spans);

// A counter snapshot taken at a phase edge.
struct CounterSample {
  int64_t ts_ns = 0;
  std::string name;
  std::vector<std::pair<std::string, double>> values;
};

// Writes Chrome trace-event JSON (loadable by Perfetto and
// chrome://tracing). When there are more than `max_events` spans, every
// k-th flight (and every k-th unattributed span) is written, so the
// file stays loadable; all spans still feed the computed metrics.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::vector<CounterSample>& counters,
                      const std::string& workload,
                      const std::vector<std::string>& phase_names,
                      size_t max_events, std::string* error);

}  // namespace mvccbench

#endif  // MVCCBENCH_TRACER_H_
