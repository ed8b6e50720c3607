#include "workload.h"

#include <cstdio>

#include "server/client.h"

namespace mvccbench {

using mvcc::server::BatchOp;
using mvcc::server::OpCode;
using mvcc::server::Request;
using mvcc::server::Response;
using mvcc::server::WireStatus;

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kRwFlight: return "rw_flight";
    case Workload::kRwOpen: return "rw_open";
    case Workload::kRoSnapshot: return "ro_snapshot";
    case Workload::kHotBatch: return "hot_batch";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : kAllWorkloads) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

std::vector<StreamRole> Streams(Workload w, double open_rate) {
  std::vector<StreamRole> roles(kConnections);
  switch (w) {
    case Workload::kRwFlight:
    case Workload::kHotBatch:
      break;  // closed loop on every connection
    case Workload::kRwOpen:
      // Interleaved schedules: together the streams send one flight
      // every 1/open_rate seconds.
      for (int i = 0; i < kConnections; ++i) {
        roles[i].open_loop = true;
        roles[i].rate = open_rate / kConnections;
        roles[i].offset_ns = static_cast<int64_t>(i * 1e9 / open_rate);
      }
      break;
    case Workload::kRoSnapshot:
      // Three closed-loop readers; the last connection is the writer.
      roles.back() = StreamRole{true, kReferenceRate, 0, false};
      break;
  }
  return roles;
}

FlightSource::FlightSource(Workload w, uint64_t seed, int stream,
                           uint32_t conn)
    : workload_(w),
      stream_(stream),
      conn_(conn),
      rng_(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(w) * 131 +
           static_cast<uint64_t>(stream) + 1),
      zipf_(kZipfKeys, kZipfTheta) {}

Op FlightSource::Write(mvcc::ObjectKey key) {
  Op op;
  op.kind = Op::kWrite;
  op.key = key;
  op.seq = ++writes_;
  return op;
}

Flight FlightSource::Next() {
  Flight f;
  f.id = (static_cast<uint64_t>(conn_) << 40) | ++flights_;
  f.conn = conn_;
  auto read = [](mvcc::ObjectKey key) {
    Op op;
    op.key = key;
    return op;
  };
  switch (workload_) {
    case Workload::kRwFlight:
    case Workload::kRwOpen: {
      TxnSpec t;
      t.ops = {read(Uniform(kPreloadKeys)), read(Uniform(kPreloadKeys)),
               Write(Uniform(kPreloadKeys)), Write(Uniform(kPreloadKeys))};
      f.txns.push_back(std::move(t));
      break;
    }
    case Workload::kRoSnapshot: {
      TxnSpec t;
      if (stream_ == kConnections - 1) {
        t.one_shot = true;
        t.ops = {Write(Uniform(kHotKeys)), Write(Uniform(kHotKeys))};
      } else {
        t.read_only = true;
        f.read_only = true;
        for (int i = 0; i < 8; ++i) t.ops.push_back(read(Uniform(kHotKeys)));
        Op scan;
        scan.kind = Op::kScan;
        scan.key = Uniform(kHotKeys - kScanRows + 1);
        scan.hi = scan.key + kScanRows - 1;
        t.ops.push_back(scan);
      }
      f.txns.push_back(std::move(t));
      break;
    }
    case Workload::kHotBatch:
      for (int i = 0; i < 4; ++i) {
        TxnSpec t;
        t.one_shot = true;
        t.ops = {read(zipf_.Next(&rng_)), read(zipf_.Next(&rng_)),
                 Write(zipf_.Next(&rng_)), Write(zipf_.Next(&rng_))};
        f.txns.push_back(std::move(t));
      }
      break;
  }
  return f;
}

// ---- values ----

namespace {

constexpr char kHex[] = "0123456789abcdef";
constexpr size_t kTagPrefix = 56;  // bytes covered by the checksum

uint32_t Fnv1a(const char* p, size_t n) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(p[i]);
    h *= 16777619u;
  }
  return h;
}

void PutHex(char* out, uint64_t v, int digits) {
  for (int i = digits - 1; i >= 0; --i) {
    out[i] = kHex[v & 0xF];
    v >>= 4;
  }
}

bool GetHex(const char* in, int digits, uint64_t* v) {
  uint64_t x = 0;
  for (int i = 0; i < digits; ++i) {
    const char c = in[i];
    uint64_t d;
    if (c >= '0' && c <= '9') {
      d = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      d = static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
    x = (x << 4) | d;
  }
  *v = x;
  return true;
}

}  // namespace

const mvcc::Value& PreloadValue() {
  static const mvcc::Value* value = [] {
    auto* v = new mvcc::Value("mvb-preload-");
    v->resize(kValueBytes, '0');
    return v;
  }();
  return *value;
}

// Layout: "mvb" conn(2 hex) seq(12 hex) '-' filler(38) fnv1a(8 hex).
mvcc::Value TagValue(uint32_t conn, uint64_t seq) {
  mvcc::Value v(kValueBytes, '-');
  v[0] = 'm';
  v[1] = 'v';
  v[2] = 'b';
  PutHex(&v[3], conn, 2);
  PutHex(&v[5], seq, 12);
  uint64_t mix = (static_cast<uint64_t>(conn) << 48) ^ seq;
  for (size_t i = 18; i < kTagPrefix; ++i) {
    mix = mix * 6364136223846793005ULL + 1442695040888963407ULL;
    v[i] = static_cast<char>('a' + (mix >> 60));  // 'a'..'p'
  }
  PutHex(&v[kTagPrefix], Fnv1a(v.data(), kTagPrefix), 8);
  return v;
}

bool WellFormedValue(const mvcc::Value& v) {
  if (v.size() != kValueBytes) return false;
  if (v == PreloadValue()) return true;
  uint64_t conn = 0, seq = 0;
  if (v.compare(0, 3, "mvb") != 0 || !GetHex(&v[3], 2, &conn) ||
      !GetHex(&v[5], 12, &seq)) {
    return false;
  }
  return v == TagValue(static_cast<uint32_t>(conn), seq);
}

// ---- acks ----

void RecordAck(AckedMap* acked, mvcc::ObjectKey key, const Ack& ack) {
  // Within one transaction (same tn) the later write of a key wins.
  auto [it, inserted] = acked->try_emplace(key, ack);
  if (!inserted && (it->second.tn < ack.tn ||
                    (it->second.tn == ack.tn && it->second.seq < ack.seq))) {
    it->second = ack;
  }
}

void MergeAcks(AckedMap* into, const AckedMap& from) {
  for (const auto& [key, ack] : from) RecordAck(into, key, ack);
}

// ---- requests ----

std::vector<Request> FlightRequests(const Flight& f, uint64_t* next_token) {
  std::vector<Request> reqs;
  for (const TxnSpec& t : f.txns) {
    const mvcc::TxnClass cls = t.read_only ? mvcc::TxnClass::kReadOnly
                                           : mvcc::TxnClass::kReadWrite;
    if (t.one_shot) {
      std::vector<BatchOp> ops;
      for (const Op& op : t.ops) {
        BatchOp b;
        b.op = op.kind == Op::kWrite ? OpCode::kWrite : OpCode::kRead;
        b.key = op.key;
        if (op.kind == Op::kWrite) b.value = TagValue(f.conn, op.seq);
        ops.push_back(std::move(b));
      }
      reqs.push_back(mvcc::server::MakeBatch(cls, std::move(ops)));
      continue;
    }
    const uint64_t token = (*next_token)++;
    reqs.push_back(mvcc::server::MakeBegin(token, cls));
    for (const Op& op : t.ops) {
      switch (op.kind) {
        case Op::kRead:
          reqs.push_back(mvcc::server::MakeRead(token, op.key));
          break;
        case Op::kWrite:
          reqs.push_back(mvcc::server::MakeWrite(token, op.key,
                                                 TagValue(f.conn, op.seq)));
          break;
        case Op::kScan:
          reqs.push_back(mvcc::server::MakeScan(
              token, op.key, op.hi, static_cast<uint32_t>(kScanRows)));
          break;
      }
    }
    reqs.push_back(mvcc::server::MakeCommit(token));
  }
  return reqs;
}

// ---- checking ----

void Problems::Note(uint64_t* counter, const std::string& what) {
  ++*counter;
  if (first.empty()) first = what;
}

void Problems::Merge(const Problems& o) {
  wire_errors += o.wire_errors;
  stalls += o.stalls;
  bad_status += o.bad_status;
  bad_values += o.bad_values;
  bad_scans += o.bad_scans;
  ro_failures += o.ro_failures;
  if (first.empty()) first = o.first;
}

namespace {

std::string Describe(const Flight& f, const Response& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "flight %llx: op %d answered %s",
                static_cast<unsigned long long>(f.id), static_cast<int>(r.op),
                std::string(mvcc::server::WireStatusName(r.status)).c_str());
  return buf;
}

bool ScanOk(const Op& op, const Response& r) {
  // Every key of the hot range is preloaded and none is ever deleted, so
  // a snapshot scan must return the whole range in ascending order.
  if (r.more || r.reads.size() != op.hi - op.key + 1) return false;
  mvcc::ObjectKey expect = op.key;
  for (const auto& row : r.reads) {
    if (row.key != expect++ || !WellFormedValue(row.value)) return false;
  }
  return true;
}

}  // namespace

FlightOutcome CheckFlight(const Flight& f, const std::vector<Response>& resp,
                          bool shed_ok, Problems* problems, AckedMap* acked) {
  FlightOutcome out;
  size_t next = 0;
  const size_t before = problems->total();
  auto unexpected = [&](const TxnSpec& t, const Response& r) {
    problems->Note(t.read_only ? &problems->ro_failures : &problems->bad_status,
                   Describe(f, r));
  };
  auto refused = [&](const TxnSpec& t, const Response& r) {
    if (r.status == WireStatus::kShedOverload && !t.read_only) {
      out.shed = true;
      if (!shed_ok) problems->Note(&problems->bad_status, Describe(f, r));
      return;
    }
    unexpected(t, r);
  };
  auto committed = [&](const TxnSpec& t, const Response& r) {
    ++out.committed;
    if (t.read_only) return;
    ++out.committed_rw;
    for (const Op& op : t.ops) {
      if (op.kind == Op::kWrite) {
        RecordAck(acked, op.key, Ack{r.tn, f.conn, op.seq});
      }
    }
  };

  for (const TxnSpec& t : f.txns) {
    if (t.one_shot) {
      const Response& r = resp[next++];
      if (r.status == WireStatus::kOk) {
        for (const auto& row : r.reads) {
          if (!row.found || !WellFormedValue(row.value)) {
            problems->Note(&problems->bad_values, Describe(f, r));
          }
        }
        committed(t, r);
      } else if (r.status == WireStatus::kAborted && !t.read_only) {
        ++out.aborted;
      } else {
        refused(t, r);
      }
      continue;
    }
    const Response& begin = resp[next++];
    bool alive = begin.status == WireStatus::kOk;
    if (!alive) refused(t, begin);
    for (const Op& op : t.ops) {
      const Response& r = resp[next++];
      if (!alive) {
        // A refused or aborted transaction's token is retired.
        if (r.status != WireStatus::kUnknownTxn) unexpected(t, r);
        continue;
      }
      if (r.status == WireStatus::kAborted && !t.read_only) {
        alive = false;
        ++out.aborted;
        continue;
      }
      if (r.status != WireStatus::kOk) {
        unexpected(t, r);
        alive = false;
        continue;
      }
      if (op.kind == Op::kRead &&
          (!r.found || !WellFormedValue(r.value))) {
        problems->Note(&problems->bad_values, Describe(f, r));
      } else if (op.kind == Op::kScan && !ScanOk(op, r)) {
        problems->Note(&problems->bad_scans, Describe(f, r));
      }
    }
    const Response& commit = resp[next++];
    if (!alive) {
      if (commit.status != WireStatus::kUnknownTxn) unexpected(t, commit);
    } else if (commit.status == WireStatus::kOk &&
               (t.read_only || commit.tn != 0)) {
      committed(t, commit);
    } else if (commit.status == WireStatus::kAborted && !t.read_only) {
      ++out.aborted;
    } else {
      unexpected(t, commit);
    }
  }
  out.failed = problems->total() != before;
  return out;
}

}  // namespace mvccbench
