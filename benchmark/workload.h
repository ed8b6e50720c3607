#ifndef MVCCBENCH_WORKLOAD_H_
#define MVCCBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/random.h"
#include "common/zipf.h"
#include "server/wire.h"

namespace mvccbench {

// ---- fixed workload sizes (README "Workloads") ----
inline constexpr uint64_t kPreloadKeys = 1'000'000;
inline constexpr uint64_t kHotKeys = 1'000;     // ro_snapshot's key range
inline constexpr uint64_t kZipfKeys = 10'000;   // hot_batch's key range
inline constexpr double kZipfTheta = 0.99;
inline constexpr size_t kValueBytes = 64;
inline constexpr uint64_t kScanRows = 64;
inline constexpr int kConnections = 4;
// rw_open's fixed-rate window and ro_snapshot's writer, in flights/s.
inline constexpr double kReferenceRate = 2'000;

enum class Workload { kRwFlight, kRwOpen, kRoSnapshot, kHotBatch };
inline constexpr Workload kAllWorkloads[] = {
    Workload::kRwFlight, Workload::kRwOpen, Workload::kRoSnapshot,
    Workload::kHotBatch};

const char* WorkloadName(Workload w);
bool ParseWorkload(const std::string& name, Workload* out);

// What one connection of a workload does. Each connection is driven by
// its own load thread.
struct StreamRole {
  bool open_loop = false;  // sends on a schedule instead of after a reply
  double rate = 0;         // open loop: flights/s on this connection
  int64_t offset_ns = 0;   // open loop: first due time after the start
  bool primary = true;     // feeds the workload's headline metrics
};

// The kConnections streams of `w`. `open_rate` is the workload-wide
// rate of rw_open's open-loop streams (split evenly).
std::vector<StreamRole> Streams(Workload w, double open_rate);

struct Op {
  enum Kind : uint8_t { kRead, kWrite, kScan };
  Kind kind = kRead;
  mvcc::ObjectKey key = 0;
  mvcc::ObjectKey hi = 0;  // kScan: inclusive upper bound
  uint64_t seq = 0;        // kWrite: the value is TagValue(conn, seq)
};

struct TxnSpec {
  bool read_only = false;
  bool one_shot = false;  // a kBatch request instead of begin..commit
  std::vector<Op> ops;
};

struct Flight {
  uint64_t id = 0;  // unique across the run's streams and phases, nonzero
  uint32_t conn = 0;
  bool read_only = false;
  std::vector<TxnSpec> txns;
};

// Deterministic flight generator for one stream: the same (workload,
// seed, stream) always yields the same keys. `conn` tags the values
// written and the flight ids, so streams of different phases of one run
// never write the same value.
class FlightSource {
 public:
  FlightSource(Workload w, uint64_t seed, int stream, uint32_t conn);
  Flight Next();

 private:
  mvcc::ObjectKey Uniform(uint64_t n) { return rng_.Uniform(n); }
  Op Write(mvcc::ObjectKey key);

  Workload workload_;
  int stream_;
  uint32_t conn_;
  mvcc::Random rng_;
  mvcc::ZipfGenerator zipf_;
  uint64_t flights_ = 0;
  uint64_t writes_ = 0;
};

// ---- values ----
// The preload value of every key.
const mvcc::Value& PreloadValue();
// The 64-byte value a benchmark write stores: a (connection, sequence)
// tag, filler derived from it, and a checksum.
mvcc::Value TagValue(uint32_t conn, uint64_t seq);
// True for the preload value and for every value TagValue can produce.
bool WellFormedValue(const mvcc::Value& v);

// ---- acknowledged writes, for the durability check ----
struct Ack {
  mvcc::TxnNumber tn = 0;
  uint32_t conn = 0;
  uint64_t seq = 0;
};
// Key -> the acknowledged write with the highest tn (and, within that
// transaction, the last one).
using AckedMap = std::unordered_map<mvcc::ObjectKey, Ack>;
void RecordAck(AckedMap* acked, mvcc::ObjectKey key, const Ack& ack);
void MergeAcks(AckedMap* into, const AckedMap& from);

// The flight's requests in send order. Tokens come from *next_token;
// request ids are left for the sender to assign.
std::vector<mvcc::server::Request> FlightRequests(const Flight& f,
                                                  uint64_t* next_token);

// Everything that makes a run incorrect. Any nonzero field fails it.
struct Problems {
  uint64_t wire_errors = 0;   // dead connection or undecodable stream
  uint64_t stalls = 0;        // flights outstanding past the stall limit
  uint64_t bad_status = 0;    // a status the workload cannot produce
  uint64_t bad_values = 0;    // neither the preload value nor a tag
  uint64_t bad_scans = 0;     // rows out of order, out of range, missing
  uint64_t ro_failures = 0;   // a read-only txn aborted or was refused
  std::string first;          // the first problem, for the report

  uint64_t total() const {
    return wire_errors + stalls + bad_status + bad_values + bad_scans +
           ro_failures;
  }
  void Note(uint64_t* counter, const std::string& what);
  void Merge(const Problems& other);
};

struct FlightOutcome {
  int committed = 0;     // transactions committed
  int committed_rw = 0;  // ... of them read-write
  int aborted = 0;       // concurrency-control aborts (expected)
  bool shed = false;     // admission control refused work
  bool failed = false;   // a Problem was noted
};

// Checks one flight's responses, given in request order, and records
// the writes of every committed read-write transaction in *acked.
// Overload sheds count as failures unless `shed_ok` (the top of
// rw_open's ladder, where refusing work is the measured behaviour).
FlightOutcome CheckFlight(const Flight& f,
                          const std::vector<mvcc::server::Response>& resp,
                          bool shed_ok, Problems* problems, AckedMap* acked);

}  // namespace mvccbench

#endif  // MVCCBENCH_WORKLOAD_H_
