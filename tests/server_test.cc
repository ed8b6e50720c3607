#include "server/server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "dist/network.h"
#include "repl/read_router.h"
#include "repl/replica.h"
#include "repl/replication_stream.h"
#include "server/client.h"
#include "server/harness.h"
#include "server/service_core.h"
#include "server/wire.h"
#include "txn/database.h"

namespace mvcc {
namespace server {
namespace {

DatabaseOptions BaseOptions() {
  DatabaseOptions opts;
  opts.protocol = ProtocolKind::kVc2pl;
  opts.preload_keys = 64;
  opts.enable_wal = true;
  return opts;
}

const Response* FindById(const std::vector<Response>& responses, uint64_t id) {
  for (const Response& r : responses) {
    if (r.request_id == id) return &r;
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------

TEST(WireTest, RequestRoundTripAllOpcodes) {
  Request begin = MakeBegin(7, TxnClass::kReadWrite);
  begin.request_id = 11;
  Request read = MakeRead(7, 42);
  read.request_id = 12;
  Request write = MakeWrite(7, 42, "hello");
  write.request_id = 13;
  Request commit = MakeCommit(7);
  commit.request_id = 14;
  Request abort = MakeAbort(7);
  abort.request_id = 15;
  Request batch = MakeBatch(
      TxnClass::kReadWrite,
      {BatchOp{OpCode::kWrite, 1, "a"}, BatchOp{OpCode::kRead, 2, ""}});
  batch.request_id = 16;
  Request health = MakeHealth();
  health.request_id = 17;
  Request stats = MakeStats();
  stats.request_id = 18;
  Request scan = MakeScan(7, 100, 200, /*limit=*/32);
  scan.request_id = 19;

  for (const Request& req :
       {begin, read, write, commit, abort, batch, health, stats, scan}) {
    Request out;
    ASSERT_TRUE(DecodeRequest(EncodeRequest(req), &out))
        << "opcode " << static_cast<int>(req.op);
    EXPECT_EQ(out.op, req.op);
    EXPECT_EQ(out.request_id, req.request_id);
    EXPECT_EQ(out.token, req.token);
    EXPECT_EQ(out.key, req.key);
    EXPECT_EQ(out.value, req.value);
    EXPECT_EQ(out.txn_class, req.txn_class);
    EXPECT_EQ(out.key_hi, req.key_hi);
    EXPECT_EQ(out.scan_limit, req.scan_limit);
    ASSERT_EQ(out.batch.size(), req.batch.size());
    for (size_t i = 0; i < req.batch.size(); ++i) {
      EXPECT_EQ(out.batch[i].op, req.batch[i].op);
      EXPECT_EQ(out.batch[i].key, req.batch[i].key);
      EXPECT_EQ(out.batch[i].value, req.batch[i].value);
    }
  }
}

TEST(WireTest, ResponseRoundTripWithErrorMessage) {
  Response resp;
  resp.op = OpCode::kCommit;
  resp.status = WireStatus::kAborted;
  resp.request_id = 99;
  resp.tn = 1234;
  resp.message = "validation failed";
  Response out;
  ASSERT_TRUE(DecodeResponse(EncodeResponse(resp), &out));
  EXPECT_EQ(out.status, WireStatus::kAborted);
  EXPECT_EQ(out.tn, 1234u);
  EXPECT_EQ(out.message, "validation failed");

  Response stats;
  stats.op = OpCode::kStats;
  stats.request_id = 3;
  stats.stats = {{"commits", 17}, {"reads", 4}};
  ASSERT_TRUE(DecodeResponse(EncodeResponse(stats), &out));
  ASSERT_EQ(out.stats.size(), 2u);
  EXPECT_EQ(out.stats[0].first, "commits");
  EXPECT_EQ(out.stats[0].second, 17u);
}

TEST(WireTest, ScanResponseRoundTrip) {
  Response resp;
  resp.op = OpCode::kScan;
  resp.request_id = 44;
  resp.reads = {BatchRead{10, true, "a"}, BatchRead{20, true, "bb"},
                BatchRead{30, true, ""}};
  resp.more = true;
  Response out;
  ASSERT_TRUE(DecodeResponse(EncodeResponse(resp), &out));
  EXPECT_EQ(out.op, OpCode::kScan);
  ASSERT_EQ(out.reads.size(), 3u);
  EXPECT_EQ(out.reads[0].key, 10u);
  EXPECT_EQ(out.reads[1].value, "bb");
  EXPECT_TRUE(out.reads[2].found);
  EXPECT_TRUE(out.more);

  resp.more = false;
  resp.reads.clear();
  ASSERT_TRUE(DecodeResponse(EncodeResponse(resp), &out));
  EXPECT_TRUE(out.reads.empty());
  EXPECT_FALSE(out.more);
}

TEST(WireTest, DecodeRejectsTruncationAndTrailingGarbage) {
  Request req = MakeWrite(7, 42, "hello");
  req.request_id = 5;
  std::string payload = EncodeRequest(req);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    Request out;
    EXPECT_FALSE(DecodeRequest(std::string_view(payload).substr(0, cut), &out))
        << "truncation at " << cut << " decoded";
  }
  Request out;
  EXPECT_FALSE(DecodeRequest(payload + "x", &out));
}

TEST(WireTest, FrameDecoderReassemblesByteByByte) {
  Request req = MakeHealth();
  req.request_id = 21;
  const std::string frame = EncodeFrame(EncodeRequest(req)) +
                            EncodeFrame(EncodeRequest(req));
  FrameDecoder decoder;
  int frames = 0;
  for (char c : frame) {
    decoder.Append(&c, 1);
    std::string payload;
    while (decoder.Next(&payload) == FrameDecoder::NextResult::kFrame) {
      ++frames;
      Request out;
      EXPECT_TRUE(DecodeRequest(payload, &out));
      EXPECT_EQ(out.request_id, 21u);
    }
    EXPECT_FALSE(decoder.corrupt());
  }
  EXPECT_EQ(frames, 2);
}

TEST(WireTest, FrameDecoderCorruptionIsSticky) {
  Request req = MakeHealth();
  std::string frame = EncodeFrame(EncodeRequest(req));
  frame[kFrameHeaderBytes] ^= 0x40;  // payload bit flip: CRC mismatch
  FrameDecoder decoder;
  decoder.Append(frame.data(), frame.size());
  std::string payload;
  EXPECT_EQ(decoder.Next(&payload), FrameDecoder::NextResult::kCorrupt);
  EXPECT_TRUE(decoder.corrupt());
  // Even a pristine follow-up frame is unreachable: sticky verdict.
  const std::string good = EncodeFrame(EncodeRequest(req));
  decoder.Append(good.data(), good.size());
  EXPECT_EQ(decoder.Next(&payload), FrameDecoder::NextResult::kCorrupt);
}

TEST(WireTest, FrameDecoderRejectsOversizedLength) {
  std::string frame;
  const std::string payload(32, 'p');
  frame.push_back(char(0xFF));  // length = 0x7FFFFFFF >> caps
  frame.push_back(char(0xFF));
  frame.push_back(char(0xFF));
  frame.push_back(char(0x7F));
  frame.append(4, '\0');
  frame += payload;
  FrameDecoder decoder(1024);
  decoder.Append(frame.data(), frame.size());
  std::string out;
  EXPECT_EQ(decoder.Next(&out), FrameDecoder::NextResult::kCorrupt);
  EXPECT_NE(decoder.corrupt_detail().find("exceeds"), std::string::npos);
}

// ---------------------------------------------------------------------
// Harness-driven protocol behavior (deterministic loopback)
// ---------------------------------------------------------------------

TEST(ServerHarnessTest, BeginWriteCommitReadBack) {
  Database db(BaseOptions());
  ServerHarness h(&db, nullptr, ServiceOptions());

  Request begin = MakeBegin(1, TxnClass::kReadWrite);
  begin.request_id = 1;
  Request write = MakeWrite(1, 5, "served");
  write.request_id = 2;
  Request commit = MakeCommit(1);
  commit.request_id = 3;
  h.SendRequest(begin);
  h.SendRequest(write);
  h.SendRequest(commit);
  ASSERT_TRUE(h.Pump());
  std::vector<Response> got = h.TakeResponses();
  ASSERT_EQ(got.size(), 3u);
  for (uint64_t id : {1, 2, 3}) {
    const Response* r = FindById(got, id);
    ASSERT_NE(r, nullptr) << "missing response " << id;
    EXPECT_EQ(r->status, WireStatus::kOk) << "request " << id << ": "
                                          << r->message;
  }
  EXPECT_GT(FindById(got, 3)->tn, 0u);

  // Snapshot read-back through a fresh read-only transaction.
  Request ro = MakeBegin(2, TxnClass::kReadOnly);
  ro.request_id = 4;
  Request read = MakeRead(2, 5);
  read.request_id = 5;
  Request ro_commit = MakeCommit(2);
  ro_commit.request_id = 6;
  h.SendRequest(ro);
  h.SendRequest(read);
  h.SendRequest(ro_commit);
  ASSERT_TRUE(h.Pump());
  got = h.TakeResponses();
  const Response* r = FindById(got, 5);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->found);
  EXPECT_EQ(r->value, "served");
  EXPECT_EQ(h.stats().commits.load(), 2u);
}

TEST(ServerHarnessTest, ScanInsideReadOnlyTransaction) {
  Database db(BaseOptions());  // preloads keys 0..63
  ServerHarness h(&db, nullptr, ServiceOptions());

  Request begin = MakeBegin(1, TxnClass::kReadOnly);
  begin.request_id = 1;
  Request scan = MakeScan(1, 10, 19);
  scan.request_id = 2;
  Request limited = MakeScan(1, 10, 19, /*limit=*/4);
  limited.request_id = 3;
  Request commit = MakeCommit(1);
  commit.request_id = 4;
  h.SendRequest(begin);
  h.SendRequest(scan);
  h.SendRequest(limited);
  h.SendRequest(commit);
  ASSERT_TRUE(h.Pump());
  std::vector<Response> got = h.TakeResponses();

  const Response* full = FindById(got, 2);
  ASSERT_NE(full, nullptr);
  ASSERT_EQ(full->status, WireStatus::kOk) << full->message;
  ASSERT_EQ(full->reads.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(full->reads[i].key, 10 + i);
    EXPECT_TRUE(full->reads[i].found);
  }
  EXPECT_FALSE(full->more);

  const Response* cut = FindById(got, 3);
  ASSERT_NE(cut, nullptr);
  ASSERT_EQ(cut->reads.size(), 4u);
  EXPECT_EQ(cut->reads.back().key, 13u);
  // The CLIENT's limit cut the rows, not the server cap: more stays off.
  EXPECT_FALSE(cut->more);
  EXPECT_EQ(h.stats().scans.load(), 2u);
}

TEST(ServerHarnessTest, ScanServerCapSetsMoreAndPagesOnward) {
  Database db(BaseOptions());
  ServiceOptions opts;
  opts.max_scan_rows = 5;
  ServerHarness h(&db, nullptr, opts);

  Request begin = MakeBegin(1, TxnClass::kReadOnly);
  begin.request_id = 1;
  Request scan = MakeScan(1, 0, 63);
  scan.request_id = 2;
  h.SendRequest(begin);
  h.SendRequest(scan);
  ASSERT_TRUE(h.Pump());
  std::vector<Response> got = h.TakeResponses();
  const Response* first = FindById(got, 2);
  ASSERT_NE(first, nullptr);
  ASSERT_EQ(first->status, WireStatus::kOk) << first->message;
  ASSERT_EQ(first->reads.size(), 5u);
  EXPECT_TRUE(first->more);

  // Page onward inside the SAME transaction: lo = last key + 1.
  std::vector<ObjectKey> keys;
  for (const BatchRead& r : first->reads) keys.push_back(r.key);
  uint64_t next_id = 3;
  while (true) {
    Request page = MakeScan(1, keys.back() + 1, 63);
    page.request_id = next_id++;
    h.SendRequest(page);
    ASSERT_TRUE(h.Pump());
    got = h.TakeResponses();
    const Response* r = FindById(got, next_id - 1);
    ASSERT_NE(r, nullptr);
    ASSERT_EQ(r->status, WireStatus::kOk) << r->message;
    ASSERT_LE(r->reads.size(), 5u);
    for (const BatchRead& row : r->reads) keys.push_back(row.key);
    if (!r->more) break;
    ASSERT_LT(next_id, 40u) << "paging did not terminate";
  }
  ASSERT_EQ(keys.size(), 64u);
  for (size_t i = 0; i < keys.size(); ++i) EXPECT_EQ(keys[i], i);
}

TEST(ServerHarnessTest, ScanErrorsAreTyped) {
  Database db(BaseOptions());
  ServerHarness h(&db, nullptr, ServiceOptions());

  // Unknown token.
  Request orphan = MakeScan(9, 0, 10);
  orphan.request_id = 1;
  // Inverted range on a live transaction.
  Request begin = MakeBegin(1, TxnClass::kReadOnly);
  begin.request_id = 2;
  Request inverted = MakeScan(1, 10, 0);
  inverted.request_id = 3;
  h.SendRequest(orphan);
  h.SendRequest(begin);
  h.SendRequest(inverted);
  ASSERT_TRUE(h.Pump());
  std::vector<Response> got = h.TakeResponses();
  ASSERT_NE(FindById(got, 1), nullptr);
  EXPECT_EQ(FindById(got, 1)->status, WireStatus::kUnknownTxn);
  ASSERT_NE(FindById(got, 3), nullptr);
  EXPECT_EQ(FindById(got, 3)->status, WireStatus::kInvalidArgument);
}

TEST(ServerHarnessTest, PipelinedCommitsAnswerOutOfOrder) {
  Database db(BaseOptions());
  ServerHarness h(&db, nullptr, ServiceOptions());

  // One flight: txn 1's whole life, then a health probe. The commit is
  // deferred past the health op, so the response ORDER is health first,
  // commit last — matching by request_id is mandatory.
  Request begin = MakeBegin(1, TxnClass::kReadWrite);
  begin.request_id = 1;
  Request write = MakeWrite(1, 9, "x");
  write.request_id = 2;
  Request commit = MakeCommit(1);
  commit.request_id = 3;
  Request health = MakeHealth();
  health.request_id = 4;
  h.SendRequest(begin);
  h.SendRequest(write);
  h.SendRequest(commit);
  h.SendRequest(health);
  ASSERT_TRUE(h.Pump());
  std::vector<Response> got = h.TakeResponses();
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got.back().request_id, 3u);  // deferred commit answered last
  for (const Response& resp : got) {
    EXPECT_EQ(resp.status, WireStatus::kOk) << resp.message;
  }
}

TEST(ServerHarnessTest, TornHeaderAcrossPumps) {
  Database db(BaseOptions());
  ServerHarness h(&db, nullptr, ServiceOptions());

  Request health = MakeHealth();
  health.request_id = 8;
  const std::string frame = EncodeFrame(EncodeRequest(health));
  // Tear inside the 8-byte frame header.
  h.SendBytes(std::string_view(frame).substr(0, 3));
  ASSERT_TRUE(h.Pump());
  EXPECT_TRUE(h.TakeResponses().empty());
  h.SendBytes(std::string_view(frame).substr(3, 7));
  ASSERT_TRUE(h.Pump());
  EXPECT_TRUE(h.TakeResponses().empty());
  h.SendBytes(std::string_view(frame).substr(10));
  ASSERT_TRUE(h.Pump());
  std::vector<Response> got = h.TakeResponses();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].request_id, 8u);
  EXPECT_EQ(got[0].health, WireStatus::kOk);
}

TEST(ServerHarnessTest, CorruptFrameClosesConnectionWithDiagnostic) {
  Database db(BaseOptions());
  ServerHarness h(&db, nullptr, ServiceOptions());

  Request health = MakeHealth();
  health.request_id = 30;
  std::string frame = EncodeFrame(EncodeRequest(health));
  frame[frame.size() - 1] ^= 0x01;  // CRC now wrong
  h.SendBytes(frame);
  EXPECT_FALSE(h.Pump());
  EXPECT_TRUE(h.closed());
  EXPECT_EQ(h.close_reason(), Connection::CloseReason::kCorruptStream);
  EXPECT_EQ(h.stats().corrupt_frames.load(), 1u);
  // Best-effort diagnostic made it out before the close.
  std::vector<Response> got = h.TakeResponses();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].status, WireStatus::kMalformed);
  // No connection-slot leak.
  EXPECT_EQ(h.stats().connections_active.load(), 0u);
}

TEST(ServerHarnessTest, MalformedPayloadAnswersAndKeepsConnection) {
  Database db(BaseOptions());
  ServerHarness h(&db, nullptr, ServiceOptions());

  // A VALID frame around an undecodable body: connection survives, the
  // request_id is echoed in the error.
  std::string payload;
  payload.push_back(static_cast<char>(kWireVersion));
  payload.push_back(static_cast<char>(OpCode::kWrite));
  payload.append(2, '\0');
  for (int i = 0; i < 8; ++i) payload.push_back(char(i == 0 ? 77 : 0));
  payload.append("garbage-body");
  h.SendBytes(EncodeFrame(payload));
  ASSERT_TRUE(h.Pump());
  std::vector<Response> got = h.TakeResponses();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].status, WireStatus::kMalformed);
  EXPECT_EQ(got[0].request_id, 77u);
  EXPECT_FALSE(h.closed());
  EXPECT_EQ(h.stats().malformed_requests.load(), 1u);

  // Unsupported version gets its own code.
  payload[0] = char(kWireVersion + 9);
  h.SendBytes(EncodeFrame(payload));
  ASSERT_TRUE(h.Pump());
  got = h.TakeResponses();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].status, WireStatus::kUnsupportedVersion);
}

TEST(ServerHarnessTest, OversizedValueRejected) {
  Database db(BaseOptions());
  ServiceOptions opts;
  opts.max_value_bytes = 16;
  ServerHarness h(&db, nullptr, opts);

  Request begin = MakeBegin(1, TxnClass::kReadWrite);
  begin.request_id = 1;
  Request write = MakeWrite(1, 3, std::string(64, 'v'));
  write.request_id = 2;
  h.SendRequest(begin);
  h.SendRequest(write);
  ASSERT_TRUE(h.Pump());
  std::vector<Response> got = h.TakeResponses();
  const Response* r = FindById(got, 2);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->status, WireStatus::kTooLarge);
  EXPECT_FALSE(h.closed());
}

TEST(ServerHarnessTest, UnknownTokenAndDoubleCommit) {
  Database db(BaseOptions());
  ServerHarness h(&db, nullptr, ServiceOptions());

  Request read = MakeRead(99, 1);
  read.request_id = 1;
  h.SendRequest(read);
  ASSERT_TRUE(h.Pump());
  std::vector<Response> got = h.TakeResponses();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].status, WireStatus::kUnknownTxn);

  Request begin = MakeBegin(5, TxnClass::kReadWrite);
  begin.request_id = 2;
  Request write = MakeWrite(5, 1, "v");
  write.request_id = 3;
  Request commit = MakeCommit(5);
  commit.request_id = 4;
  h.SendRequest(begin);
  h.SendRequest(write);
  h.SendRequest(commit);
  ASSERT_TRUE(h.Pump());
  h.TakeResponses();
  // The token retired at commit; a second commit is kUnknownTxn.
  Request again = MakeCommit(5);
  again.request_id = 5;
  h.SendRequest(again);
  ASSERT_TRUE(h.Pump());
  got = h.TakeResponses();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].status, WireStatus::kUnknownTxn);
}

TEST(ServerHarnessTest, MidTxnDisconnectAbortsAndReleasesLocks) {
  Database db(BaseOptions());
  auto h = std::make_unique<ServerHarness>(&db, nullptr, ServiceOptions());

  ASSERT_TRUE(db.Put(7, "before").ok());
  Request begin = MakeBegin(1, TxnClass::kReadWrite);
  begin.request_id = 1;
  Request write = MakeWrite(1, 7, "never-visible");
  write.request_id = 2;
  h->SendRequest(begin);
  h->SendRequest(write);
  ASSERT_TRUE(h->Pump());
  ASSERT_EQ(h->TakeResponses().size(), 2u);

  // Abrupt disconnect mid-transaction. The server must abort: the
  // buffered write disappears and the 2PL write lock on key 7 releases.
  h->DisconnectClient();
  EXPECT_FALSE(h->Pump());
  EXPECT_EQ(h->stats().disconnect_aborts.load(), 1u);
  h.reset();

  // Lock released: an independent writer proceeds without deadlock.
  ASSERT_TRUE(db.Put(7, "after").ok());
  auto value = db.Get(7);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "after");
}

TEST(ServerHarnessTest, BatchOneShotTransactions) {
  Database db(BaseOptions());
  ServerHarness h(&db, nullptr, ServiceOptions());

  Request rw = MakeBatch(TxnClass::kReadWrite,
                         {BatchOp{OpCode::kWrite, 11, "batched"},
                          BatchOp{OpCode::kRead, 11, ""}});
  rw.request_id = 1;
  h.SendRequest(rw);
  ASSERT_TRUE(h.Pump());
  std::vector<Response> got = h.TakeResponses();
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].status, WireStatus::kOk) << got[0].message;
  ASSERT_EQ(got[0].reads.size(), 1u);
  EXPECT_EQ(got[0].reads[0].value, "batched");  // reads own write
  EXPECT_GT(got[0].tn, 0u);

  Request ro = MakeBatch(TxnClass::kReadOnly, {BatchOp{OpCode::kRead, 11, ""},
                                               BatchOp{OpCode::kRead, 12, ""}});
  ro.request_id = 2;
  h.SendRequest(ro);
  ASSERT_TRUE(h.Pump());
  got = h.TakeResponses();
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].reads.size(), 2u);
  EXPECT_TRUE(got[0].reads[0].found);
  EXPECT_EQ(got[0].reads[0].value, "batched");

  // Write inside a read-only batch: rejected whole.
  Request bad = MakeBatch(TxnClass::kReadOnly,
                          {BatchOp{OpCode::kWrite, 1, "no"}});
  bad.request_id = 3;
  h.SendRequest(bad);
  ASSERT_TRUE(h.Pump());
  got = h.TakeResponses();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].status, WireStatus::kInvalidArgument);
}

TEST(ServerHarnessTest, InflightCapShedsFast) {
  Database db(BaseOptions());
  ServiceOptions opts;
  opts.max_inflight_txns_per_conn = 2;
  ServerHarness h(&db, nullptr, opts);

  for (uint64_t t = 1; t <= 3; ++t) {
    Request begin = MakeBegin(t, TxnClass::kReadWrite);
    begin.request_id = t;
    h.SendRequest(begin);
  }
  ASSERT_TRUE(h.Pump());
  std::vector<Response> got = h.TakeResponses();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(FindById(got, 1)->status, WireStatus::kOk);
  EXPECT_EQ(FindById(got, 2)->status, WireStatus::kOk);
  EXPECT_EQ(FindById(got, 3)->status, WireStatus::kShedOverload);
  EXPECT_EQ(h.stats().sheds_overload.load(), 1u);
}

// The satellite regression: a shed is a fast REJECT, never a hang, and
// the three degraded shapes stay distinguishable on the wire while
// in-flight reads keep completing.
TEST(ServerHarnessTest, HealthShedsAreFastAndDistinguishable) {
  Database db(BaseOptions());
  ASSERT_TRUE(db.Put(3, "steady").ok());

  std::atomic<int> health_mode{0};  // 0 ok, 1 overload, 2 disk-full, 3 fatal
  ServiceOptions opts;
  opts.health_override = [&health_mode]() -> Status {
    switch (health_mode.load()) {
      case 1:
        return Status::Unavailable("overloaded");
      case 2:
        return Status::ResourceExhausted("disk full");
      case 3:
        return Status::DataLoss("fail-stop");
      default:
        return Status::OK();
    }
  };
  ServerHarness h(&db, nullptr, opts);

  // A reader placed while healthy...
  Request ro = MakeBegin(1, TxnClass::kReadOnly);
  ro.request_id = 1;
  h.SendRequest(ro);
  ASSERT_TRUE(h.Pump());
  ASSERT_EQ(h.TakeResponses()[0].status, WireStatus::kOk);

  const struct {
    int mode;
    WireStatus want;
  } kCases[] = {{1, WireStatus::kShedOverload},
                {2, WireStatus::kDegradedReadOnly},
                {3, WireStatus::kFatalDataLoss}};
  uint64_t rid = 10;
  for (const auto& c : kCases) {
    health_mode.store(c.mode);
    Request rw = MakeBegin(100 + rid, TxnClass::kReadWrite);
    rw.request_id = ++rid;
    const int64_t t0 = NowNanos();
    h.SendRequest(rw);
    ASSERT_TRUE(h.Pump());
    const int64_t elapsed_ms = (NowNanos() - t0) / 1'000'000;
    std::vector<Response> got = h.TakeResponses();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].status, c.want) << "mode " << c.mode;
    // Fast reject: the response arrived in this very pump, and not via
    // some timeout path. Generous bound only to catch real hangs.
    EXPECT_LT(elapsed_ms, 1000) << "shed blocked";

    // In-flight reads keep completing under every degraded mode.
    Request read = MakeRead(1, 3);
    read.request_id = ++rid;
    h.SendRequest(read);
    ASSERT_TRUE(h.Pump());
    got = h.TakeResponses();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].status, WireStatus::kOk);
    EXPECT_EQ(got[0].value, "steady");

    // And NEW readers are still admitted (readers never block).
    health_mode.store(c.mode);
    Request ro2 = MakeBegin(200 + rid, TxnClass::kReadOnly);
    ro2.request_id = ++rid;
    h.SendRequest(ro2);
    ASSERT_TRUE(h.Pump());
    got = h.TakeResponses();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].status, WireStatus::kOk) << "mode " << c.mode;
    health_mode.store(0);
  }

  EXPECT_EQ(h.stats().sheds_overload.load(), 1u);
  EXPECT_EQ(h.stats().sheds_degraded.load(), 1u);
  EXPECT_EQ(h.stats().sheds_fatal.load(), 1u);
}

// An in-flight read-write commit against a failed store is shed at the
// commit boundary (degraded/fatal) — fast, with the transaction aborted.
TEST(ServerHarnessTest, CommitShedOnStorageFailure) {
  Database db(BaseOptions());
  std::atomic<bool> fail{false};
  ServiceOptions opts;
  opts.health_override = [&fail]() -> Status {
    return fail.load() ? Status::ResourceExhausted("disk full")
                       : Status::OK();
  };
  ServerHarness h(&db, nullptr, opts);

  Request begin = MakeBegin(1, TxnClass::kReadWrite);
  begin.request_id = 1;
  Request write = MakeWrite(1, 200, "doomed");  // beyond the preload range
  write.request_id = 2;
  h.SendRequest(begin);
  h.SendRequest(write);
  ASSERT_TRUE(h.Pump());
  h.TakeResponses();

  fail.store(true);
  Request commit = MakeCommit(1);
  commit.request_id = 3;
  h.SendRequest(commit);
  ASSERT_TRUE(h.Pump());
  std::vector<Response> got = h.TakeResponses();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].status, WireStatus::kDegradedReadOnly);
  // The write never became visible.
  fail.store(false);
  EXPECT_TRUE(db.Get(200).status().IsNotFound());
}

TEST(ServerHarnessTest, AtLeastBeyondHorizonRejectedNotBlocked) {
  Database db(BaseOptions());
  ServerHarness h(&db, nullptr, ServiceOptions());

  Request begin = MakeBegin(1, TxnClass::kReadOnly, /*at_least=*/1u << 30);
  begin.request_id = 1;
  h.SendRequest(begin);
  ASSERT_TRUE(h.Pump());  // a blocking wait here would hang the test
  std::vector<Response> got = h.TakeResponses();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].status, WireStatus::kInvalidArgument);
}

TEST(ServerHarnessTest, StatsOpExportsCounters) {
  Database db(BaseOptions());
  ServerHarness h(&db, nullptr, ServiceOptions());

  Request rw = MakeBatch(TxnClass::kReadWrite,
                         {BatchOp{OpCode::kWrite, 1, "s"}});
  rw.request_id = 1;
  Request stats = MakeStats();
  stats.request_id = 2;
  h.SendRequest(rw);
  h.SendRequest(stats);
  ASSERT_TRUE(h.Pump());
  std::vector<Response> got = h.TakeResponses();
  const Response* r = FindById(got, 2);
  ASSERT_NE(r, nullptr);
  bool saw_commits = false, saw_lag = false;
  for (const auto& [key, value] : r->stats) {
    if (key == "commits") saw_commits = true;
    if (key == "visibility_lag") saw_lag = true;
  }
  EXPECT_TRUE(saw_commits);
  EXPECT_TRUE(saw_lag);
}

TEST(ServerHarnessTest, StatsOpExportsVersionMemory) {
  Database db(BaseOptions());
  ServerHarness h(&db, nullptr, ServiceOptions());

  // Overwrites release old versions (inline collection is on by
  // default), so every byte class below has had traffic.
  uint64_t id = 0;
  for (int i = 0; i < 50; ++i) {
    Request rw = MakeBatch(
        TxnClass::kReadWrite,
        {BatchOp{OpCode::kWrite, static_cast<ObjectKey>(i % 8),
                 std::string(64, 'm')}});
    rw.request_id = ++id;
    // One pump per batch: batches in one burst on the same keys would
    // conflict, and a burst's commits run at its end, after any stats.
    h.SendRequest(rw);
    ASSERT_TRUE(h.Pump());
    for (const Response& resp : h.TakeResponses()) {
      ASSERT_EQ(resp.status, WireStatus::kOk) << resp.message;
    }
  }
  Request stats = MakeStats();
  stats.request_id = ++id;
  h.SendRequest(stats);
  ASSERT_TRUE(h.Pump());
  std::vector<Response> got = h.TakeResponses();
  const Response* r = FindById(got, id);
  ASSERT_NE(r, nullptr);
  std::map<std::string, uint64_t> values;
  for (const auto& [key, value] : r->stats) values[key] = value;
  for (const char* key : {"arena_resident_bytes", "arena_live_bytes",
                          "arena_pending_bytes", "arena_free_bytes"}) {
    EXPECT_EQ(values.count(key), 1u) << key;
  }
  const uint64_t resident = values["arena_resident_bytes"];
  EXPECT_GT(values["arena_live_bytes"], 0u);  // the preload, at least
  EXPECT_LE(values["arena_live_bytes"], resident);
  EXPECT_LE(values["arena_live_bytes"] + values["arena_pending_bytes"] +
                values["arena_free_bytes"],
            resident);
  // 50 overwrites of 8 keys released at least 42 old 64-byte payloads.
  EXPECT_GE(values["arena_pending_bytes"] + values["arena_free_bytes"],
            42u * 64);
}

// ---------------------------------------------------------------------
// Group-commit burst batching (ServiceCore with the executor pool)
// ---------------------------------------------------------------------

TEST(ServiceCoreTest, PipelinedCommitsDrainAsOneGroupWave) {
  Database db(BaseOptions());
  ServiceOptions opts;
  opts.synchronous_commits = false;  // real executor pool + flush gate
  opts.commit_executor_threads = 4;
  ServiceCore core(&db, nullptr, opts);
  ServiceCore::Session session;

  constexpr int kTxns = 8;
  std::vector<std::string> payloads;
  for (uint64_t t = 1; t <= kTxns; ++t) {
    Request begin = MakeBegin(t, TxnClass::kReadWrite);
    begin.request_id = t * 10;
    Request write = MakeWrite(t, t, "burst");
    write.request_id = t * 10 + 1;
    Request commit = MakeCommit(t);
    commit.request_id = t * 10 + 2;
    payloads.push_back(EncodeRequest(begin));
    payloads.push_back(EncodeRequest(write));
    payloads.push_back(EncodeRequest(commit));
  }

  const uint64_t groups_before = db.commit_pipeline().groups_flushed();
  std::string out;
  core.ExecutePayloads(&session, payloads, &out);
  const uint64_t group_delta =
      db.commit_pipeline().groups_flushed() - groups_before;

  // All commits landed...
  EXPECT_EQ(core.stats().commits.load(), uint64_t(kTxns));
  FrameDecoder decoder;
  decoder.Append(out.data(), out.size());
  std::string payload;
  int ok_commits = 0;
  while (decoder.Next(&payload) == FrameDecoder::NextResult::kFrame) {
    Response resp;
    ASSERT_TRUE(DecodeResponse(payload, &resp));
    EXPECT_EQ(resp.status, WireStatus::kOk) << resp.message;
    if (resp.op == OpCode::kCommit) ++ok_commits;
  }
  EXPECT_EQ(ok_commits, kTxns);
  // ...in FEWER group flushes than transactions: the flush gate held
  // leader election until the whole burst was enqueued. Without the
  // gate this would typically be kTxns separate appends.
  EXPECT_GE(group_delta, 1u);
  EXPECT_LT(group_delta, uint64_t(kTxns));
  EXPECT_EQ(core.stats().commit_bursts.load(), 1u);
}

// ---------------------------------------------------------------------
// Real TCP: Server + Client
// ---------------------------------------------------------------------

TEST(TcpServerTest, ClientRoundTripAndPipelining) {
  Database db(BaseOptions());
  ServerOptions opts;
  opts.num_workers = 2;
  Server server(&db, nullptr, opts);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions copts;
  copts.port = server.port();
  auto client = Client::Connect(copts);
  ASSERT_TRUE(client.ok()) << client.status();
  Client& c = **client;

  // Sync path.
  Result<Response> health = c.Call(MakeHealth());
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->health, WireStatus::kOk);

  // Pipelined path: a whole transaction in one flight.
  const uint64_t token = c.NewToken();
  std::vector<uint64_t> ids;
  ids.push_back(*c.Send(MakeBegin(token, TxnClass::kReadWrite)));
  ids.push_back(*c.Send(MakeWrite(token, 21, "over-tcp")));
  ids.push_back(*c.Send(MakeCommit(token)));
  for (uint64_t id : ids) {
    Result<Response> resp = c.Await(id);
    ASSERT_TRUE(resp.ok()) << resp.status();
    EXPECT_EQ(resp->status, WireStatus::kOk) << resp->message;
  }

  Result<Response> ro = c.Call(MakeBatch(TxnClass::kReadOnly,
                                         {BatchOp{OpCode::kRead, 21, ""}}));
  ASSERT_TRUE(ro.ok());
  ASSERT_EQ(ro->reads.size(), 1u);
  EXPECT_EQ(ro->reads[0].value, "over-tcp");

  server.Stop();
  EXPECT_EQ(server.stats().connections_active.load(), 0u);
}

TEST(TcpServerTest, ReplicaRoutedReads) {
  DatabaseOptions db_opts = BaseOptions();
  Database db(db_opts);
  SimulatedNetwork network;
  repl::Replica replica(0, &network, db.history());
  std::vector<repl::Replica*> replicas{&replica};
  repl::ReplicationStream stream(&db, &network, replicas);
  repl::ReadRouter router(&db, replicas, /*staleness_budget=*/1024);

  std::atomic<bool> stop{false};
  std::thread shipper([&] {
    while (!stop.load()) {
      if (stream.PumpOnce() == 0) std::this_thread::yield();
    }
  });
  std::thread applier([&] {
    while (!stop.load()) {
      if (replica.ApplyOnce() == 0) std::this_thread::yield();
    }
  });

  ServerOptions opts;
  opts.num_workers = 2;
  Server server(&db, &router, opts);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions copts;
  copts.port = server.port();
  auto client = Client::Connect(copts);
  ASSERT_TRUE(client.ok());
  Client& c = **client;

  // Write through the server so we learn the commit's tn, then read it
  // back with the at_least currency floor: the router may serve from
  // the replica only once its horizon covers the write, so the value is
  // guaranteed regardless of shipping lag.
  const uint64_t wtoken = c.NewToken();
  ASSERT_TRUE(c.Call(MakeBegin(wtoken, TxnClass::kReadWrite)).ok());
  ASSERT_TRUE(c.Call(MakeWrite(wtoken, 4, "routed")).ok());
  Result<Response> committed = c.Call(MakeCommit(wtoken));
  ASSERT_TRUE(committed.ok());
  ASSERT_EQ(committed->status, WireStatus::kOk);
  const TxnNumber write_tn = committed->tn;
  ASSERT_GT(write_tn, 0u);

  // Early reads fall back to the primary (replica horizon below the
  // floor); once the in-process applier catches up the router moves
  // them onto the replica. Bounded retry keeps this deterministic-ish
  // without trusting shipping latency.
  for (int i = 0; i < 500; ++i) {
    const uint64_t token = c.NewToken();
    Result<Response> begun =
        c.Call(MakeBegin(token, TxnClass::kReadOnly, write_tn));
    ASSERT_TRUE(begun.ok());
    ASSERT_EQ(begun->status, WireStatus::kOk) << begun->message;
    Result<Response> r = c.Call(MakeRead(token, 4));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->value, "routed");  // the currency floor guarantees it
    // The routed path serves kScan too: same snapshot, same guarantee.
    Result<Response> s = c.Call(MakeScan(token, 0, 7, /*limit=*/8));
    ASSERT_TRUE(s.ok());
    ASSERT_EQ(s->status, WireStatus::kOk) << s->message;
    ASSERT_EQ(s->reads.size(), 8u);
    EXPECT_EQ(s->reads[4].key, 4u);
    EXPECT_EQ(s->reads[4].value, "routed");
    ASSERT_TRUE(c.Call(MakeCommit(token)).ok());
    if (server.stats().reads_routed_replica.load() > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(server.stats().reads_routed_replica.load(), 0u);

  server.Stop();
  stop.store(true);
  shipper.join();
  applier.join();
}

// Multi-threaded stress: many clients pipelining read-write traffic at
// one server — the TSan target for the service tier (CI runs this suite
// under MVCC_SANITIZE=thread).
TEST(TcpServerTest, ConcurrentClientsStress) {
  DatabaseOptions db_opts = BaseOptions();
  db_opts.preload_keys = 32;
  Database db(db_opts);
  ServerOptions opts;
  opts.num_workers = 3;
  Server server(&db, nullptr, opts);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 4;
  constexpr int kTxnsPerClient = 40;
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> aborted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      ClientOptions copts;
      copts.port = server.port();
      auto client = Client::Connect(copts);
      ASSERT_TRUE(client.ok());
      Client& c = **client;
      Random rng(1000 + t);
      for (int i = 0; i < kTxnsPerClient; ++i) {
        const uint64_t token = c.NewToken();
        std::vector<uint64_t> ids;
        ids.push_back(*c.Send(MakeBegin(token, TxnClass::kReadWrite)));
        const ObjectKey key = rng.Uniform(32);
        ids.push_back(*c.Send(MakeWrite(token, key, "stress")));
        ids.push_back(*c.Send(MakeCommit(token)));
        bool ok = true;
        for (uint64_t id : ids) {
          Result<Response> resp = c.Await(id);
          ASSERT_TRUE(resp.ok()) << resp.status();
          if (resp->status != WireStatus::kOk) ok = false;
        }
        (ok ? committed : aborted).fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  // Conflicting writers may abort (wait-die), but the sum adds up and
  // nothing deadlocked or leaked.
  EXPECT_EQ(committed.load() + aborted.load(),
            uint64_t(kClients) * kTxnsPerClient);
  EXPECT_GT(committed.load(), 0u);
  server.Stop();
  EXPECT_EQ(server.stats().connections_active.load(), 0u);
  EXPECT_EQ(db.VisibilityLag(), 0u);
}

TEST(TcpServerTest, ClientReconnectBacksOffDeterministically) {
  // Nothing listens on the dialed port: Reconnect must fail after its
  // bounded, seeded backoff schedule — never hang.
  ClientOptions copts;
  copts.port = 1;  // reserved port, nothing there
  copts.reconnect.max_attempts = 3;
  copts.reconnect.backoff_base_us = 100;
  copts.reconnect.backoff_max_us = 1000;
  auto direct = Client::Connect(copts);
  EXPECT_FALSE(direct.ok());

  // FromFd clients cannot redial at all.
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  auto adopted = Client::FromFd(fds[0]);
  close(fds[1]);
  EXPECT_TRUE(adopted->Reconnect().IsInvalidArgument());
}

// ---------------------------------------------------------------------
// Failover-aware service and client behavior
// ---------------------------------------------------------------------

TEST(TcpServerTest, AwaitTimeoutKeepsConnectionUsable) {
  Database db(BaseOptions());
  ServerOptions opts;
  Server server(&db, nullptr, opts);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions copts;
  copts.port = server.port();
  copts.io_timeout_ms = 50;
  auto client = Client::Connect(copts);
  ASSERT_TRUE(client.ok());
  Client& c = **client;

  // Await a response that will never arrive: the read deadline expires
  // as kTimedOut — distinct from stream corruption and peer death, and
  // the fd stays OPEN (nothing on the stream was consumed or lost).
  Result<Response> none = c.Await(0xDEAD);
  ASSERT_FALSE(none.ok());
  EXPECT_TRUE(none.status().IsTimedOut()) << none.status();

  // The same connection keeps working afterwards.
  Result<Response> health = c.Call(MakeHealth());
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->health, WireStatus::kOk);
  server.Stop();
}

TEST(TcpServerTest, DisconnectMidWaveDrainsCommitAndReleasesLocks) {
  // A session dies between submitting a commit into the group-commit
  // pipeline and hearing the answer, with a SECOND transaction still
  // holding a write lock. The wave must drain (the commit is durable
  // and visible to everyone else) and the dead session's open token
  // must release its locks, or the key would be wedged forever.
  Database db(BaseOptions());
  ServerOptions opts;
  Server server(&db, nullptr, opts);  // deferred commits: real pipeline
  ASSERT_TRUE(server.Start().ok());

  ClientOptions copts;
  copts.port = server.port();
  {
    auto doomed = Client::Connect(copts);
    ASSERT_TRUE(doomed.ok());
    Client& a = **doomed;
    const uint64_t t1 = a.NewToken();
    const uint64_t t2 = a.NewToken();
    ASSERT_TRUE(a.Send(MakeBegin(t1, TxnClass::kReadWrite)).ok());
    ASSERT_TRUE(a.Send(MakeWrite(t1, 7, "wave-survivor")).ok());
    ASSERT_TRUE(a.Send(MakeCommit(t1)).ok());
    ASSERT_TRUE(a.Send(MakeBegin(t2, TxnClass::kReadWrite)).ok());
    const uint64_t lock_id = *a.Send(MakeWrite(t2, 8, "never-committed"));
    // Awaiting the LAST pipelined op proves the server consumed the
    // whole flight — commit t1 is in the pipeline, t2 holds key 8.
    Result<Response> locked = a.Await(lock_id);
    ASSERT_TRUE(locked.ok());
    ASSERT_EQ(locked->status, WireStatus::kOk) << locked->message;
    // Client destructor closes the fd without awaiting the commit.
  }

  auto client = Client::Connect(copts);
  ASSERT_TRUE(client.ok());
  Client& b = **client;

  // Key 8: locked by the dead session's open transaction until the
  // server processes the disconnect and aborts it. Bounded retry.
  bool acquired = false;
  for (int i = 0; i < 500 && !acquired; ++i) {
    Result<Response> w = b.Call(MakeBatch(
        TxnClass::kReadWrite, {BatchOp{OpCode::kWrite, 8, "after-abort"}}));
    ASSERT_TRUE(w.ok());
    acquired = w->status == WireStatus::kOk;
    if (!acquired) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(acquired) << "dead session's lock on key 8 never released";

  // Key 7: the wave the dead session never heard back about drained.
  std::string value;
  for (int i = 0; i < 500 && value.empty(); ++i) {
    Result<Response> r = b.Call(MakeBatch(
        TxnClass::kReadOnly, {BatchOp{OpCode::kRead, 7, ""}}));
    ASSERT_TRUE(r.ok());
    if (r->status == WireStatus::kOk && r->reads.size() == 1 &&
        r->reads[0].value == "wave-survivor") {
      value = r->reads[0].value;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(value, "wave-survivor")
      << "commit submitted before the disconnect never became visible";
  server.Stop();
}

TEST(TcpServerTest, NotPrimaryRejectAndFailoverClientRedirect) {
  // Two live servers; node 0 has been deposed (fence 2, leader hint 1),
  // node 1 is the fence-2 primary. A FailoverClient pointed at node 0
  // must bounce off kNotPrimary and land the write on node 1.
  Database db0(BaseOptions());
  Database db1(BaseOptions());

  ServerOptions o0;
  o0.service.is_primary = [] { return false; };
  o0.service.fence_epoch = [] { return uint64_t{2}; };
  o0.service.leader_hint = [] { return int32_t{1}; };
  Server s0(&db0, nullptr, o0);
  ASSERT_TRUE(s0.Start().ok());

  ServerOptions o1;
  o1.service.is_primary = [] { return true; };
  o1.service.fence_epoch = [] { return uint64_t{2}; };
  o1.service.leader_hint = [] { return int32_t{1}; };
  Server s1(&db1, nullptr, o1);
  ASSERT_TRUE(s1.Start().ok());

  FailoverClientOptions fopts;
  fopts.endpoints = {Endpoint{"127.0.0.1", s0.port()},
                     Endpoint{"127.0.0.1", s1.port()}};
  fopts.request_deadline_ms = 5'000;
  FailoverClient fc(fopts);

  Result<Response> w = fc.Batch(
      TxnClass::kReadWrite, {BatchOp{OpCode::kWrite, 3, "redirected"}});
  ASSERT_TRUE(w.ok()) << w.status();
  EXPECT_EQ(w->status, WireStatus::kOk) << w->message;
  EXPECT_EQ(fc.current_endpoint(), 1);
  EXPECT_GE(fc.stats().redirects_honored, 1u);
  EXPECT_EQ(fc.fence_seen(), 2u);
  EXPECT_GE(s0.stats().not_primary_rejects.load(), 1u);

  // The write landed on node 1, not node 0.
  EXPECT_EQ(*db1.Get(3), "redirected");
  EXPECT_FALSE(db0.Get(3).ok() && *db0.Get(3) == "redirected");

  s0.Stop();
  s1.Stop();
}

TEST(TcpServerTest, FailoverClientRotatesOffDeadEndpoint) {
  Database db(BaseOptions());
  ServerOptions opts;
  Server live(&db, nullptr, opts);
  ASSERT_TRUE(live.Start().ok());

  FailoverClientOptions fopts;
  // Endpoint 0 is a reserved port with nothing listening: the dial
  // fails, the client rotates, and the request completes on endpoint 1.
  fopts.endpoints = {Endpoint{"127.0.0.1", 1},
                     Endpoint{"127.0.0.1", live.port()}};
  fopts.request_deadline_ms = 10'000;
  fopts.backoff.backoff_base_us = 100;
  fopts.backoff.backoff_max_us = 1'000;
  FailoverClient fc(fopts);

  Result<Response> health = fc.Call(MakeHealth());
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->health, WireStatus::kOk);
  EXPECT_EQ(fc.current_endpoint(), 1);
  EXPECT_GE(fc.stats().rotations, 1u);
  live.Stop();
}

TEST(ServerHarnessTest, CommitGateFailureSurfacesOnTheCommit) {
  // Semi-synchronous replication: the commit is locally durable but the
  // ack gate (quorum of replicas at or past the tn) fails — the client
  // must hear the gate's status, not kOk, or "acked" would be a lie.
  Database db(BaseOptions());
  ServiceOptions options;
  options.commit_gate = [](TxnNumber) {
    return Status::Unavailable("ack quorum lost");
  };
  ServerHarness h(&db, nullptr, options);

  Request begin = MakeBegin(1, TxnClass::kReadWrite);
  begin.request_id = 1;
  Request write = MakeWrite(1, 4, "gated");
  write.request_id = 2;
  Request commit = MakeCommit(1);
  commit.request_id = 3;
  h.SendRequest(begin);
  h.SendRequest(write);
  h.SendRequest(commit);
  ASSERT_TRUE(h.Pump());
  const std::vector<Response> got = h.TakeResponses();
  const Response* committed = FindById(got, 3);
  ASSERT_NE(committed, nullptr);
  EXPECT_EQ(committed->status, WireStatus::kUnavailable);
  EXPECT_EQ(h.stats().commit_gate_failures.load(), 1u);

  // Read-only traffic is never gated.
  Request ro = MakeBegin(2, TxnClass::kReadOnly);
  ro.request_id = 4;
  Request ro_commit = MakeCommit(2);
  ro_commit.request_id = 5;
  h.SendRequest(ro);
  h.SendRequest(ro_commit);
  ASSERT_TRUE(h.Pump());
  const std::vector<Response> ro_got = h.TakeResponses();
  ASSERT_NE(FindById(ro_got, 5), nullptr);
  EXPECT_EQ(FindById(ro_got, 5)->status, WireStatus::kOk);
  EXPECT_EQ(h.stats().commit_gate_failures.load(), 1u);
}

TEST(ServerHarnessTest, NotPrimaryStampsFenceAndHint) {
  Database db(BaseOptions());
  ServiceOptions options;
  options.is_primary = [] { return false; };
  options.fence_epoch = [] { return uint64_t{7}; };
  options.leader_hint = [] { return int32_t{2}; };
  ServerHarness h(&db, nullptr, options);

  Request begin = MakeBegin(1, TxnClass::kReadWrite);
  begin.request_id = 1;
  h.SendRequest(begin);
  ASSERT_TRUE(h.Pump());
  const std::vector<Response> got = h.TakeResponses();
  const Response* r = FindById(got, 1);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->status, WireStatus::kNotPrimary);
  EXPECT_EQ(r->fence, 7u);
  EXPECT_EQ(r->leader_hint, 2);
  EXPECT_EQ(h.stats().not_primary_rejects.load(), 1u);

  // Health stays served — a deposed node is still observable.
  Request health = MakeHealth();
  health.request_id = 2;
  h.SendRequest(health);
  ASSERT_TRUE(h.Pump());
  const std::vector<Response> health_got = h.TakeResponses();
  ASSERT_EQ(health_got.size(), 1u);
  EXPECT_EQ(health_got[0].health, WireStatus::kOk);
}

}  // namespace
}  // namespace server
}  // namespace mvcc
