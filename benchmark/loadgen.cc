#include "loadgen.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <thread>

#include "common/clock.h"
#include "server/client.h"
#include "tracer.h"

namespace mvccbench {

using mvcc::NowNanos;
using mvcc::server::FrameDecoder;
using mvcc::server::OpCode;
using mvcc::server::Request;
using mvcc::server::Response;
using mvcc::server::WireStatus;

std::vector<int64_t> Latencies(const std::vector<FlightSample>& samples) {
  std::vector<int64_t> out;
  out.reserve(samples.size());
  for (const FlightSample& s : samples) out.push_back(s.latency_ns);
  return out;
}

void StreamTally::Merge(const StreamTally& o) {
  attempted += o.attempted;
  failed += o.failed;
  problems.Merge(o.problems);
  MergeAcks(&acked, o.acked);
  flights += o.flights;
  flights_failed += o.flights_failed;
  committed += o.committed;
  committed_rw += o.committed_rw;
  aborted += o.aborted;
  samples.insert(samples.end(), o.samples.begin(), o.samples.end());
  lateness_ns.insert(lateness_ns.end(), o.lateness_ns.begin(),
                     o.lateness_ns.end());
  lag.insert(lag.end(), o.lag.begin(), o.lag.end());
  wire.encode_ns += o.wire.encode_ns;
  wire.requests += o.wire.requests;
  wire.decode_ns += o.wire.decode_ns;
  wire.responses += o.wire.responses;
}

namespace {

timespec ToTimespec(int64_t ns) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(ns % 1'000'000'000);
  return ts;
}

int64_t Interval(const StreamRole& role) {
  return role.open_loop ? static_cast<int64_t>(1e9 / role.rate) : 0;
}

void PrepareThread(const StreamRole& role) {
  // Open-loop pacing sleeps to sub-millisecond due times; the default
  // 50 us timer slack would show up as generator lateness.
  if (role.open_loop) ::prctl(PR_SET_TIMERSLACK, 1000UL);
}

// Accounts one finished flight timed from `t_ref`.
void Finish(const Flight& f, const std::vector<Response>& resp, int64_t t_ref,
            int64_t done, const Segment& seg, StreamTally* out) {
  const FlightOutcome o =
      CheckFlight(f, resp, seg.shed_ok, &out->problems, &out->acked);
  if (o.failed) ++out->failed;
  if (t_ref < seg.window_begin_ns || t_ref >= seg.window_end_ns) return;
  ++out->flights;
  if (o.failed || o.shed) ++out->flights_failed;
  out->committed += static_cast<uint64_t>(o.committed);
  out->committed_rw += static_cast<uint64_t>(o.committed_rw);
  out->aborted += static_cast<uint64_t>(o.aborted);
  out->samples.push_back(
      {t_ref, done - t_ref, static_cast<uint32_t>(o.committed)});
}

// A flight that never finished: it fails, and counts against the SLO.
void Abandon(int64_t t_ref, const Segment& seg, uint64_t* counter,
             const std::string& why, StreamTally* out) {
  ++out->failed;
  out->problems.Note(counter, why);
  if (t_ref >= seg.window_begin_ns && t_ref < seg.window_end_ns) {
    ++out->flights;
    ++out->flights_failed;
  }
}

}  // namespace

// ---------------------------------------------------------------------
// WireConn
// ---------------------------------------------------------------------

std::unique_ptr<WireConn> WireConn::Dial(uint16_t port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = "socket() failed";
    return nullptr;
  }
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = "connect to port " + std::to_string(port) + ": errno " +
             std::to_string(errno);
    ::close(fd);
    return nullptr;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return std::unique_ptr<WireConn>(new WireConn(fd));
}

WireConn::~WireConn() { ::close(fd_); }

bool WireConn::ReadAvailable() {
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      decoder_.Append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
}

bool WireConn::DecodeBuffered(std::vector<Response>* out, WireCost* cost) {
  const int64_t start = NowNanos();
  bool ok = true;
  for (;;) {
    std::string payload;
    const FrameDecoder::NextResult r = decoder_.Next(&payload);
    if (r == FrameDecoder::NextResult::kNeedMore) break;
    Response resp;
    if (r == FrameDecoder::NextResult::kCorrupt ||
        !mvcc::server::DecodeResponse(payload, &resp)) {
      ok = false;
      break;
    }
    out->push_back(std::move(resp));
    ++cost->responses;
  }
  cost->decode_ns += NowNanos() - start;
  return ok;
}

bool WireConn::SendFlight(std::vector<Request>* reqs, uint64_t* first_id,
                          WireCost* cost) {
  const int64_t start = NowNanos();
  *first_id = next_id_;
  std::string bytes;
  for (Request& req : *reqs) {
    req.request_id = next_id_++;
    bytes += mvcc::server::EncodeFrame(mvcc::server::EncodeRequest(req));
  }
  cost->encode_ns += NowNanos() - start;
  cost->requests += reqs->size();

  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p = {fd_, POLLIN | POLLOUT, 0};
      if (::poll(&p, 1, 100) < 0 && errno != EINTR) return false;
      if ((p.revents & POLLIN) != 0 && !ReadAvailable()) return false;
      if ((p.revents & (POLLERR | POLLHUP)) != 0) return false;
      continue;
    }
    return false;
  }
  return true;
}

bool WireConn::Poll(int64_t timeout_ns, std::vector<Response>* out,
                    WireCost* cost) {
  const size_t before = out->size();
  if (!DecodeBuffered(out, cost)) return false;
  if (out->size() != before) return true;
  pollfd p = {fd_, POLLIN, 0};
  const timespec ts = ToTimespec(std::max<int64_t>(timeout_ns, 0));
  const int r = ::ppoll(&p, 1, &ts, nullptr);
  if (r < 0) return errno == EINTR;
  if (r == 0) return true;
  if (!ReadAvailable()) return false;
  return DecodeBuffered(out, cost);
}

namespace {

// Waits for the responses to requests [first_id, first_id + n).
bool AwaitAll(WireConn* conn, uint64_t first_id, size_t n) {
  const int64_t deadline = NowNanos() + kStallNs;
  WireCost cost;
  std::vector<Response> got;
  size_t seen = 0;
  while (seen < n) {
    const int64_t now = NowNanos();
    if (now >= deadline) return false;
    got.clear();
    if (!conn->Poll(deadline - now, &got, &cost)) return false;
    for (const Response& r : got) {
      if (r.request_id - first_id < n) ++seen;
    }
  }
  return true;
}

}  // namespace

// The server's workers share one listen socket (EPOLLEXCLUSIVE): a dial
// wakes the first worker idle in epoll_wait, and that worker accepts
// every connection pending at that moment. Dialed back to back, the
// connections land by timing luck, often several on one worker, and a
// closed loop's throughput then swings 2-3x from run to run. So each
// dial happens while the workers that own the earlier connections are
// busy with a ballast flight (one read-only transaction of many reads):
// the new connection goes to an idle worker, and with as many
// connections as workers every worker serves one, on every run.
std::vector<std::unique_ptr<WireConn>> DialSpread(uint16_t port, int n,
                                                  std::string* error) {
  constexpr int kBallastReads = 2000;
  std::vector<std::unique_ptr<WireConn>> conns;
  WireCost cost;
  for (int i = 0; i < n; ++i) {
    std::vector<uint64_t> ballast_ids;
    size_t ballast_size = 0;
    for (auto& c : conns) {
      std::vector<Request> reqs;
      const uint64_t token = (*c->next_token())++;
      reqs.push_back(mvcc::server::MakeBegin(token, mvcc::TxnClass::kReadOnly));
      for (int k = 0; k < kBallastReads; ++k) {
        reqs.push_back(mvcc::server::MakeRead(token, static_cast<uint64_t>(k)));
      }
      reqs.push_back(mvcc::server::MakeCommit(token));
      ballast_size = reqs.size();
      uint64_t first = 0;
      if (!c->SendFlight(&reqs, &first, &cost)) {
        *error = "connection lost while placing connections";
        return {};
      }
      ballast_ids.push_back(first);
    }
    auto conn = WireConn::Dial(port, error);
    if (conn == nullptr) return {};
    std::vector<Request> ping = {mvcc::server::MakeHealth()};
    uint64_t first = 0;
    if (!conn->SendFlight(&ping, &first, &cost) ||
        !AwaitAll(conn.get(), first, 1)) {
      *error = "new connection got no health response";
      return {};
    }
    for (size_t j = 0; j < conns.size(); ++j) {
      if (!AwaitAll(conns[j].get(), ballast_ids[j], ballast_size)) {
        *error = "ballast flight got no response";
        return {};
      }
    }
    conns.push_back(std::move(conn));
  }
  return conns;
}

// ---------------------------------------------------------------------
// tcp
// ---------------------------------------------------------------------

void RunTcpStream(WireConn* conn, FlightSource* src, const StreamRole& role,
                  const Segment& seg, StreamTally* out) {
  PrepareThread(role);
  struct Pending {
    Flight flight;
    uint64_t first_id = 0;
    std::vector<Response> resp;
    size_t got = 0;
    int64_t t_ref = 0;
    int64_t sent = 0;
    int64_t send_end = 0;
    bool done = false;
  };
  std::deque<Pending> pending;
  const int64_t interval = Interval(role);
  int64_t next_due = seg.start_ns + role.offset_ns;
  std::vector<Response> inbox;

  auto abandon_all = [&](uint64_t* counter, const std::string& why) {
    for (const Pending& p : pending) {
      if (!p.done) Abandon(p.t_ref, seg, counter, why, out);
    }
  };
  auto send = [&](int64_t t_ref) {
    Pending p;
    p.flight = src->Next();
    p.t_ref = t_ref;
    std::vector<Request> reqs = FlightRequests(p.flight, conn->next_token());
    p.resp.resize(reqs.size());
    p.sent = NowNanos();
    const bool ok = conn->SendFlight(&reqs, &p.first_id, &out->wire);
    p.send_end = NowNanos();
    ++out->attempted;
    if (role.open_loop && t_ref >= seg.window_begin_ns &&
        t_ref < seg.window_end_ns) {
      out->lateness_ns.push_back(p.sent - t_ref);
    }
    pending.push_back(std::move(p));
    return ok;
  };
  auto finish = [&](Pending* p) {
    const int64_t done = NowNanos();
    p->done = true;
    Tracer::SetFlight(p->flight.id);
    Tracer::Record(SpanName::kClientFlight, p->sent, done, p->flight.read_only);
    Tracer::Record(SpanName::kClientSend, p->sent, p->send_end);
    Tracer::Record(SpanName::kClientAwait, p->send_end, done);
    Tracer::SetFlight(0);
    Finish(p->flight, p->resp, p->t_ref, done, seg, out);
  };

  for (;;) {
    int64_t now = NowNanos();
    bool send_ok = true;
    if (role.open_loop) {
      while (send_ok && next_due <= now && next_due < seg.end_ns) {
        send_ok = send(next_due);
        next_due += interval;
      }
    } else if (pending.empty() && now < seg.end_ns) {
      send_ok = send(now);
    }
    if (!send_ok) {
      abandon_all(&out->problems.wire_errors, "connection lost while sending");
      return;
    }
    now = NowNanos();
    if (pending.empty()) {
      const bool more = role.open_loop ? next_due < seg.end_ns
                                       : now < seg.end_ns;
      if (!more) return;
      if (!role.open_loop) continue;
    }
    if (!pending.empty() && now - pending.front().sent > kStallNs) {
      abandon_all(&out->problems.stalls,
                  "a flight was outstanding for more than 2 s");
      return;
    }
    int64_t wake = std::numeric_limits<int64_t>::max();
    if (!pending.empty()) wake = pending.front().sent + kStallNs;
    if (role.open_loop && next_due < seg.end_ns) {
      wake = std::min(wake, next_due);
    }
    inbox.clear();
    if (!conn->Poll(wake - now, &inbox, &out->wire)) {
      abandon_all(&out->problems.wire_errors, "connection lost or corrupt");
      return;
    }
    for (Response& r : inbox) {
      auto it = std::upper_bound(
          pending.begin(), pending.end(), r.request_id,
          [](uint64_t id, const Pending& p) { return id < p.first_id; });
      if (it == pending.begin()) continue;
      --it;
      const uint64_t idx = r.request_id - it->first_id;
      if (it->done || idx >= it->resp.size()) continue;
      it->resp[idx] = std::move(r);
      if (++it->got == it->resp.size()) finish(&*it);
    }
    while (!pending.empty() && pending.front().done) pending.pop_front();
  }
}

// ---------------------------------------------------------------------
// service and txn: synchronous execution, paced like the tcp streams
// ---------------------------------------------------------------------

namespace {

template <typename Exec>
void RunSyncStream(FlightSource* src, const StreamRole& role,
                   const Segment& seg, StreamTally* out, Exec exec) {
  PrepareThread(role);
  const int64_t interval = Interval(role);
  int64_t next_due = seg.start_ns + role.offset_ns;
  for (;;) {
    int64_t now = NowNanos();
    int64_t t_ref = now;
    if (role.open_loop) {
      if (next_due >= seg.end_ns) return;
      if (now < next_due) SleepUntil(next_due);
      t_ref = next_due;
      next_due += interval;
      if (t_ref >= seg.window_begin_ns && t_ref < seg.window_end_ns) {
        out->lateness_ns.push_back(NowNanos() - t_ref);
      }
    } else if (now >= seg.end_ns) {
      return;
    }
    const Flight f = src->Next();
    ++out->attempted;
    Tracer::SetFlight(f.id);
    const std::vector<Response> resp = exec(f);
    Tracer::SetFlight(0);
    Finish(f, resp, t_ref, NowNanos(), seg, out);
  }
}

// Runs one transaction of a flight in process, answering each request
// exactly as ServiceCore would.
void RunTxnInProcess(mvcc::Database* db, const Flight& f, const TxnSpec& t,
                     std::vector<Response>* resp, std::vector<int64_t>* lag) {
  auto answer = [&](OpCode op, const mvcc::Status& s) -> Response& {
    Response r;
    r.op = op;
    r.status = mvcc::server::WireStatusFor(s);
    resp->push_back(std::move(r));
    return resp->back();
  };
  const mvcc::TxnClass cls = t.read_only ? mvcc::TxnClass::kReadOnly
                                         : mvcc::TxnClass::kReadWrite;
  std::unique_ptr<mvcc::Transaction> txn;
  {
    ScopedSpan span(SpanName::kTxnBegin, t.read_only);
    txn = db->Begin(cls);
  }
  if (!t.one_shot) answer(OpCode::kBegin, mvcc::Status::OK());

  mvcc::Status failed;  // first failing op (one-shot) / abort (token)
  std::vector<mvcc::server::BatchRead> batch_reads;
  for (const Op& op : t.ops) {
    if (!failed.ok()) {
      if (!t.one_shot) {
        answer(op.kind == Op::kWrite ? OpCode::kWrite : OpCode::kRead,
               mvcc::Status::OK())
            .status = WireStatus::kUnknownTxn;
      }
      continue;
    }
    switch (op.kind) {
      case Op::kRead: {
        mvcc::Result<mvcc::Value> v = [&] {
          ScopedSpan span(SpanName::kTxnRead, t.read_only);
          return txn->Read(op.key);
        }();
        if (!v.ok() && !v.status().IsNotFound()) failed = v.status();
        if (t.one_shot) {
          batch_reads.push_back({op.key, v.ok(), v.ok() ? *v : mvcc::Value()});
        } else {
          Response& r = answer(OpCode::kRead, v.status());
          r.found = v.ok();
          if (v.ok()) r.value = std::move(*v);
        }
        break;
      }
      case Op::kWrite: {
        mvcc::Status s;
        {
          ScopedSpan span(SpanName::kTxnWrite, t.read_only);
          s = txn->Write(op.key, TagValue(f.conn, op.seq));
        }
        if (!s.ok()) failed = s;
        if (!t.one_shot) answer(OpCode::kWrite, s);
        break;
      }
      case Op::kScan: {
        mvcc::ScanOptions opts;
        opts.limit = kScanRows;
        auto rows = [&] {
          ScopedSpan span(SpanName::kTxnScan, t.read_only);
          return txn->ScanRange(op.key, op.hi, opts);
        }();
        if (!rows.ok()) failed = rows.status();
        Response& r = answer(OpCode::kScan, rows.status());
        if (rows.ok()) {
          for (auto& [key, value] : *rows) {
            r.reads.push_back({key, true, std::move(value)});
          }
        }
        break;
      }
    }
  }

  if (!failed.ok()) {
    if (txn->active()) txn->Abort();
    Response& r = answer(t.one_shot ? OpCode::kBatch : OpCode::kCommit,
                         t.one_shot ? failed : mvcc::Status::OK());
    if (!t.one_shot) r.status = WireStatus::kUnknownTxn;
    return;
  }
  mvcc::Status s;
  {
    ScopedSpan span(SpanName::kTxnCommit, t.read_only);
    s = txn->Commit();
  }
  if (!t.read_only) lag->push_back(static_cast<int64_t>(db->VisibilityLag()));
  Response& r = answer(t.one_shot ? OpCode::kBatch : OpCode::kCommit, s);
  r.tn = s.ok() ? txn->txn_number() : 0;
  if (t.one_shot && s.ok()) r.reads = std::move(batch_reads);
}

}  // namespace

void RunServiceStream(mvcc::server::ServiceCore* core, FlightSource* src,
                      const StreamRole& role, const Segment& seg,
                      StreamTally* out) {
  mvcc::server::ServiceCore::Session session;
  uint64_t next_token = 1;
  uint64_t next_id = 1;
  RunSyncStream(src, role, seg, out, [&](const Flight& f) {
    std::vector<Request> reqs = FlightRequests(f, &next_token);
    const uint64_t first_id = next_id;
    std::vector<std::string> payloads;
    for (Request& req : reqs) {
      req.request_id = next_id++;
      payloads.push_back(mvcc::server::EncodeRequest(req));
    }
    std::string frames;
    const int64_t start = NowNanos();
    core->ExecutePayloads(&session, payloads, &frames);
    Tracer::Record(SpanName::kServiceExecute, start, NowNanos(), f.read_only);

    std::vector<Response> resp(reqs.size());
    size_t got = 0;
    FrameDecoder decoder;
    decoder.Append(frames.data(), frames.size());
    std::string payload;
    while (decoder.Next(&payload) == FrameDecoder::NextResult::kFrame) {
      Response r;
      if (!mvcc::server::DecodeResponse(payload, &r)) break;
      const uint64_t idx = r.request_id - first_id;
      if (idx < resp.size()) {
        resp[idx] = std::move(r);
        ++got;
      }
    }
    if (got != resp.size()) {
      out->problems.Note(&out->problems.wire_errors,
                         "ExecutePayloads left requests unanswered");
    }
    return resp;
  });
  core->AbortSession(&session);
}

void RunTxnStream(mvcc::Database* db, FlightSource* src,
                  const StreamRole& role, const Segment& seg,
                  StreamTally* out) {
  RunSyncStream(src, role, seg, out, [&](const Flight& f) {
    std::vector<Response> resp;
    const int64_t start = NowNanos();
    for (const TxnSpec& t : f.txns) {
      RunTxnInProcess(db, f, t, &resp, &out->lag);
    }
    Tracer::Record(SpanName::kTxnFlight, start, NowNanos(), f.read_only);
    return resp;
  });
}

void SleepUntil(int64_t ns) {
  // steady_clock (NowNanos) is CLOCK_MONOTONIC on Linux.
  const timespec ts = ToTimespec(ns);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

void RunThreads(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) threads.emplace_back(fn, i);
  for (std::thread& t : threads) t.join();
}

}  // namespace mvccbench
