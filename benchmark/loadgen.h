#ifndef MVCCBENCH_LOADGEN_H_
#define MVCCBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "server/service_core.h"
#include "server/wire.h"
#include "txn/database.h"
#include "workload.h"

namespace mvccbench {

// A flight outstanding this long is stalled: it fails the run.
inline constexpr int64_t kStallNs = 2'000'000'000;

// Client-side cost of the wire format over the run's own flights.
struct WireCost {
  int64_t encode_ns = 0;  // EncodeRequest + EncodeFrame
  uint64_t requests = 0;
  int64_t decode_ns = 0;  // FrameDecoder::Next + DecodeResponse
  uint64_t responses = 0;
};

// When a stream sends, and which of its flights are measured. A flight
// is measured when its reference time — due time on an open-loop
// stream, first byte sent on a closed-loop one — falls in the window.
struct Segment {
  int64_t start_ns = 0;  // first flight due / may be sent
  int64_t end_ns = 0;    // no flight is sent at or after this
  int64_t window_begin_ns = 0;
  int64_t window_end_ns = 0;
  bool shed_ok = false;  // see CheckFlight
};

// One measured flight.
struct FlightSample {
  int64_t t_ref_ns = 0;    // due time (open loop) or first byte sent
  int64_t latency_ns = 0;  // from t_ref_ns to the last response
  uint32_t committed = 0;  // transactions the flight committed
};

std::vector<int64_t> Latencies(const std::vector<FlightSample>& samples);

// One stream's results over a segment.
struct StreamTally {
  // Every flight of the segment.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Problems problems;
  AckedMap acked;
  // Measured flights only.
  uint64_t flights = 0;
  uint64_t flights_failed = 0;  // failed or shed: they miss any SLO
  uint64_t committed = 0;
  uint64_t committed_rw = 0;
  uint64_t aborted = 0;
  std::vector<FlightSample> samples;  // one per measured flight
  std::vector<int64_t> lateness_ns;  // open loop: sent - due
  std::vector<int64_t> lag;          // txn phase: VisibilityLag per commit
  WireCost wire;

  void Merge(const StreamTally& o);
};

// One TCP connection driven by one load thread. Sends each flight with
// one write and matches responses by request id. Non-blocking
// underneath: while the socket will not take a flight, responses are
// read, so the load generator can never wedge the server's output.
class WireConn {
 public:
  static std::unique_ptr<WireConn> Dial(uint16_t port, std::string* error);
  ~WireConn();
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  // Assigns request ids (the first goes to *first_id) and writes all of
  // `reqs`. False when the connection is dead.
  bool SendFlight(std::vector<mvcc::server::Request>* reqs,
                  uint64_t* first_id, WireCost* cost);
  // Waits up to `timeout_ns` for responses and appends every whole one
  // to *out. False when the connection is dead or the stream corrupt.
  bool Poll(int64_t timeout_ns, std::vector<mvcc::server::Response>* out,
            WireCost* cost);

  uint64_t* next_token() { return &next_token_; }

 private:
  explicit WireConn(int fd) : fd_(fd) {}
  bool ReadAvailable();
  bool DecodeBuffered(std::vector<mvcc::server::Response>* out,
                      WireCost* cost);

  int fd_;
  uint64_t next_id_ = 1;
  uint64_t next_token_ = 1;
  mvcc::server::FrameDecoder decoder_;
};

// Dials `n` connections to the server on `port`, spread over its epoll
// workers (see the definition for how). Empty on failure, with *error set.
std::vector<std::unique_ptr<WireConn>> DialSpread(uint16_t port, int n,
                                                  std::string* error);

// The three ways a stream's flights reach the database. All three check
// every response with CheckFlight and record spans when the Tracer is on.

// tcp: over the wire (client.flight / client.send / client.await).
void RunTcpStream(WireConn* conn, FlightSource* src, const StreamRole& role,
                  const Segment& seg, StreamTally* out);

// service: the same encoded requests straight into
// ServiceCore::ExecutePayloads, one Session per stream (service.execute).
void RunServiceStream(mvcc::server::ServiceCore* core, FlightSource* src,
                      const StreamRole& role, const Segment& seg,
                      StreamTally* out);

// txn: the same transactions through Database / Transaction (txn.*).
void RunTxnStream(mvcc::Database* db, FlightSource* src,
                  const StreamRole& role, const Segment& seg,
                  StreamTally* out);

// Runs fn(i) for i in [0, n) on n threads and joins them.
void RunThreads(int n, const std::function<void(int)>& fn);

// Sleeps until mvcc::NowNanos() reaches `ns`.
void SleepUntil(int64_t ns);

}  // namespace mvccbench

#endif  // MVCCBENCH_LOADGEN_H_
