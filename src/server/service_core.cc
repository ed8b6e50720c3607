#include "server/service_core.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace mvcc {
namespace server {

std::vector<std::pair<std::string, uint64_t>> ServerStats::Snapshot() const {
  auto get = [](const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  return {
      {"connections_accepted", get(connections_accepted)},
      {"connections_closed", get(connections_closed)},
      {"connections_active", get(connections_active)},
      {"bytes_in", get(bytes_in)},
      {"bytes_out", get(bytes_out)},
      {"frames_in", get(frames_in)},
      {"frames_out", get(frames_out)},
      {"corrupt_frames", get(corrupt_frames)},
      {"malformed_requests", get(malformed_requests)},
      {"protocol_errors", get(protocol_errors)},
      {"sheds_overload", get(sheds_overload)},
      {"sheds_degraded", get(sheds_degraded)},
      {"sheds_fatal", get(sheds_fatal)},
      {"slow_consumer_closes", get(slow_consumer_closes)},
      {"idle_timeout_closes", get(idle_timeout_closes)},
      {"txns_begun", get(txns_begun)},
      {"commits", get(commits)},
      {"commit_bursts", get(commit_bursts)},
      {"aborts", get(aborts)},
      {"disconnect_aborts", get(disconnect_aborts)},
      {"reads", get(reads)},
      {"writes", get(writes)},
      {"scans", get(scans)},
      {"scan_rows", get(scan_rows)},
      {"batch_txns", get(batch_txns)},
      {"reads_routed_replica", get(reads_routed_replica)},
      {"reads_routed_primary", get(reads_routed_primary)},
      {"not_primary_rejects", get(not_primary_rejects)},
      {"commit_gate_failures", get(commit_gate_failures)},
  };
}

namespace {

// Best-effort header peek for payloads DecodeRequest rejected, so the
// error response can still echo the request_id and opcode.
void PeekHeader(std::string_view payload, uint8_t* version, uint8_t* op,
                uint64_t* request_id) {
  *version = kWireVersion;
  *op = 0;
  *request_id = 0;
  if (payload.size() < kMessageHeaderBytes) return;
  *version = static_cast<uint8_t>(payload[0]);
  *op = static_cast<uint8_t>(payload[1]);
  uint64_t id = 0;
  for (int i = 0; i < 8; ++i) {
    id |= static_cast<uint64_t>(static_cast<unsigned char>(payload[4 + i]))
          << (8 * i);
  }
  *request_id = id;
}

Response ErrorResponse(OpCode op, uint64_t request_id, WireStatus status,
                       std::string message) {
  Response resp;
  resp.op = op;
  resp.request_id = request_id;
  resp.status = status;
  resp.message = std::move(message);
  return resp;
}

// Completion latch for one commit burst: the submitting worker waits
// for exactly its own tasks, not the whole shared pool.
struct BurstLatch {
  std::mutex mu;
  std::condition_variable cv;
  size_t remaining = 0;

  void Done() {
    std::lock_guard<std::mutex> guard(mu);
    if (--remaining == 0) cv.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return remaining == 0; });
  }
};

}  // namespace

ServiceCore::ServiceCore(Database* db, repl::ReadRouter* router,
                         ServiceOptions options)
    : ServiceCore([db] { return db; }, router, std::move(options)) {}

ServiceCore::ServiceCore(DbProvider db, repl::ReadRouter* router,
                         ServiceOptions options)
    : db_provider_(std::move(db)),
      router_(router),
      options_(std::move(options)) {
  if (!options_.synchronous_commits) {
    commit_pool_ = std::make_unique<ThreadPool>(
        options_.commit_executor_threads > 0
            ? options_.commit_executor_threads
            : 1);
  }
}

ServiceCore::~ServiceCore() = default;

Status ServiceCore::CurrentHealth() const {
  if (options_.health_override) return options_.health_override();
  return db()->Health();
}

bool ServiceCore::RejectNotPrimary(Response* resp) {
  if (!options_.is_primary || options_.is_primary()) return false;
  stats_.not_primary_rejects.fetch_add(1, std::memory_order_relaxed);
  resp->status = WireStatus::kNotPrimary;
  resp->message = "this node is not the primary";
  return true;
}

void ServiceCore::StampFailover(Response* resp) {
  if (resp->op != OpCode::kBegin && resp->op != OpCode::kCommit &&
      resp->op != OpCode::kBatch) {
    return;
  }
  if (options_.fence_epoch) resp->fence = options_.fence_epoch();
  if (options_.leader_hint) resp->leader_hint = options_.leader_hint();
}

void ServiceCore::ExecutePayloads(Session* session,
                                  const std::vector<std::string>& payloads,
                                  std::string* out) {
  struct Decoded {
    bool ok = false;
    Request req;
  };
  std::vector<Decoded> batch(payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    stats_.frames_in.fetch_add(1, std::memory_order_relaxed);
    batch[i].ok = DecodeRequest(payloads[i], &batch[i].req);
  }

  // Deferral pass: a kCommit whose token is never referenced again in
  // this drained batch — and any read-write one-shot kBatch — can move
  // to the end, where the whole run commits as one flush-gated burst.
  // Responses are matched by request_id, so reordering is legal.
  std::vector<bool> deferred(batch.size(), false);
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!batch[i].ok) continue;
    const Request& req = batch[i].req;
    if (req.op == OpCode::kBatch && req.txn_class == TxnClass::kReadWrite) {
      deferred[i] = true;
      continue;
    }
    if (req.op != OpCode::kCommit) continue;
    bool referenced_later = false;
    for (size_t j = i + 1; j < batch.size() && !referenced_later; ++j) {
      if (batch[j].ok && batch[j].req.token == req.token &&
          batch[j].req.op != OpCode::kBatch &&
          batch[j].req.op != OpCode::kHealth &&
          batch[j].req.op != OpCode::kStats) {
        referenced_later = true;
      }
    }
    deferred[i] = !referenced_later;
  }

  std::vector<PendingCommit> burst;
  auto emit = [this, out](Response resp) {
    StampFailover(&resp);
    out->append(EncodeFrame(EncodeResponse(resp)));
    stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
  };

  const Status health = CurrentHealth();

  for (size_t i = 0; i < batch.size(); ++i) {
    if (!batch[i].ok) {
      uint8_t version = 0, op_byte = 0;
      uint64_t request_id = 0;
      PeekHeader(payloads[i], &version, &op_byte, &request_id);
      const OpCode echo_op =
          ValidOpCode(op_byte) ? static_cast<OpCode>(op_byte) : OpCode::kAbort;
      const WireStatus status = version != kWireVersion
                                    ? WireStatus::kUnsupportedVersion
                                    : WireStatus::kMalformed;
      stats_.malformed_requests.fetch_add(1, std::memory_order_relaxed);
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      emit(ErrorResponse(echo_op, request_id, status,
                         "undecodable request payload"));
      continue;
    }
    const Request& req = batch[i].req;
    if (!deferred[i]) {
      emit(ExecuteOne(session, req));
      continue;
    }
    // Deferred work. Extract everything the burst task needs NOW, on
    // the session-owning thread; tasks never touch the session map.
    if (req.op == OpCode::kCommit) {
      auto it = session->txns.find(req.token);
      if (it == session->txns.end()) {
        emit(ErrorResponse(OpCode::kCommit, req.request_id,
                           WireStatus::kUnknownTxn, "unknown txn token"));
        continue;
      }
      PendingCommit pc;
      pc.response.op = OpCode::kCommit;
      pc.response.request_id = req.request_id;
      pc.entry = std::move(it->second);
      session->txns.erase(it);
      if (pc.entry.routed.has_value()) {
        // Replica-routed read-only commit: trivial, run it inline.
        pc.entry.routed->Commit();
        pc.response.tn = pc.entry.routed->snapshot();
        stats_.commits.fetch_add(1, std::memory_order_relaxed);
        emit(pc.response);
        continue;
      }
      // A deposed node must never ack a write: abort the transaction
      // and send the client to the new primary (fence + hint ride on
      // the stamped response).
      if (pc.entry.primary->txn_class() == TxnClass::kReadWrite &&
          RejectNotPrimary(&pc.response)) {
        pc.entry.primary->Abort();
        stats_.aborts.fetch_add(1, std::memory_order_relaxed);
        emit(pc.response);
        continue;
      }
      // Fast shed: a degraded or fail-stopped store must answer
      // immediately, not enter the pipeline and hang or grind. The
      // transaction is aborted; in-flight reads elsewhere continue.
      if (pc.entry.primary->txn_class() == TxnClass::kReadWrite &&
          (health.IsResourceExhausted() || health.IsDataLoss())) {
        pc.entry.primary->Abort();
        const bool fatal = health.IsDataLoss();
        (fatal ? stats_.sheds_fatal : stats_.sheds_degraded)
            .fetch_add(1, std::memory_order_relaxed);
        pc.response.status = fatal ? WireStatus::kFatalDataLoss
                                   : WireStatus::kDegradedReadOnly;
        pc.response.message = health.message();
        emit(pc.response);
        continue;
      }
      pc.run = true;
      burst.push_back(std::move(pc));
    } else {
      // Read-write one-shot kBatch: admission first, then run the body
      // (begin + ops) inline — lock waits belong on the worker thread,
      // executor tasks must only ever block on the group flush — and
      // defer just the commit into the burst.
      Response resp;
      resp.op = OpCode::kBatch;
      resp.request_id = req.request_id;
      if (ShedNewWrite(req, &resp)) {
        emit(resp);
        continue;
      }
      PendingCommit pc;
      pc.response = std::move(resp);
      if (!RunBatchBody(req, &pc.response, &pc.entry)) {
        emit(pc.response);  // aborted or rejected during the body
        continue;
      }
      pc.run = true;
      burst.push_back(std::move(pc));
    }
  }

  // Execute the burst: every commit in it enqueues behind the pipeline
  // flush gate, and the leader elected at release drains them as one
  // AppendGroup wave.
  std::vector<PendingCommit*> to_run;
  for (PendingCommit& pc : burst) {
    if (pc.run) to_run.push_back(&pc);
  }
  if (!to_run.empty()) {
    if (commit_pool_ != nullptr && to_run.size() > 1) {
      BurstLatch latch;
      latch.remaining = to_run.size();
      std::atomic<size_t> finished{0};
      CommitPipeline* pipeline = &db()->commit_pipeline();
      pipeline->HoldFlushes();
      for (PendingCommit* pc : to_run) {
        commit_pool_->Submit([this, pc, &latch, &finished] {
          RunCommit(pc);
          finished.fetch_add(1, std::memory_order_release);
          latch.Done();
        });
      }
      // Hold the gate until the burst has ARRIVED at the pipeline:
      // every running task is either enqueued (PendingBatches) or
      // finished without enqueueing (validation abort, empty write
      // set). Arrival is gate-independent, so this wait cannot
      // deadlock; COMPLETION of a gated commit is what a holder must
      // never wait for. The target is capped at the pool width: only
      // that many tasks can be in flight at once, and an enqueued task
      // BLOCKS its pool thread until the flush — waiting for more
      // arrivals than threads would deadlock. Overflow tasks run as
      // threads free up and pile into the next group while the leader
      // is mid-flush, so they still batch, just in a later wave.
      const size_t arrival_target = std::min(
          to_run.size(),
          static_cast<size_t>(std::max(1, options_.commit_executor_threads)));
      while (pipeline->PendingBatches() +
                 finished.load(std::memory_order_acquire) <
             arrival_target) {
        std::this_thread::yield();
      }
      pipeline->ReleaseFlushes();
      latch.Wait();
      stats_.commit_bursts.fetch_add(1, std::memory_order_relaxed);
    } else {
      for (PendingCommit* pc : to_run) RunCommit(pc);
    }
  }
  for (PendingCommit& pc : burst) {
    emit(pc.response);
  }
}

void ServiceCore::RunCommit(PendingCommit* pc) {
  Transaction* txn = pc->entry.primary.get();
  Status s = txn->Commit();
  pc->response.status = WireStatusFor(s);
  pc->response.tn = s.ok() ? txn->txn_number() : 0;
  if (!s.ok()) pc->response.message = s.message();
  (s.ok() ? stats_.commits : stats_.aborts)
      .fetch_add(1, std::memory_order_relaxed);
  // Semi-synchronous replication: the commit is locally durable (WAL
  // flushed) but the client's ack is withheld until a quorum of
  // replicas has applied it — that is exactly what makes the
  // no-acked-commit-lost guarantee hold across promote-max-horizon
  // failovers. A gate failure does NOT undo the commit; it downgrades
  // the response so the client knows the write may not survive.
  if (s.ok() && options_.commit_gate &&
      txn->txn_class() == TxnClass::kReadWrite) {
    Status gate = options_.commit_gate(txn->txn_number());
    if (!gate.ok()) {
      stats_.commit_gate_failures.fetch_add(1, std::memory_order_relaxed);
      pc->response.status = WireStatusFor(gate);
      pc->response.message = gate.message();
    }
  }
}

bool ServiceCore::ShedNewWrite(const Request& req, Response* resp) {
  if (RejectNotPrimary(resp)) return true;
  const Status health = CurrentHealth();
  if (health.ok()) return false;
  if (health.IsUnavailable()) {
    stats_.sheds_overload.fetch_add(1, std::memory_order_relaxed);
    resp->status = WireStatus::kShedOverload;
  } else if (health.IsResourceExhausted()) {
    stats_.sheds_degraded.fetch_add(1, std::memory_order_relaxed);
    resp->status = WireStatus::kDegradedReadOnly;
  } else if (health.IsDataLoss()) {
    stats_.sheds_fatal.fetch_add(1, std::memory_order_relaxed);
    resp->status = WireStatus::kFatalDataLoss;
  } else {
    resp->status = WireStatus::kInternal;
  }
  resp->message = health.message();
  (void)req;
  return true;
}

Response ServiceCore::ExecuteOne(Session* session, const Request& req) {
  switch (req.op) {
    case OpCode::kBegin:
      return DoBegin(session, req);
    case OpCode::kRead:
      return DoRead(session, req);
    case OpCode::kScan:
      return DoScan(session, req);
    case OpCode::kWrite:
      return DoWrite(session, req);
    case OpCode::kCommit: {
      // Non-deferred commit (a later request references the token —
      // almost certainly a client bug, but order must hold). Same
      // extraction + run, just inline.
      auto it = session->txns.find(req.token);
      if (it == session->txns.end()) {
        return ErrorResponse(OpCode::kCommit, req.request_id,
                             WireStatus::kUnknownTxn, "unknown txn token");
      }
      PendingCommit pc;
      pc.response.op = OpCode::kCommit;
      pc.response.request_id = req.request_id;
      pc.entry = std::move(it->second);
      session->txns.erase(it);
      if (pc.entry.routed.has_value()) {
        pc.entry.routed->Commit();
        pc.response.tn = pc.entry.routed->snapshot();
        stats_.commits.fetch_add(1, std::memory_order_relaxed);
        return pc.response;
      }
      if (pc.entry.primary->txn_class() == TxnClass::kReadWrite &&
          RejectNotPrimary(&pc.response)) {
        pc.entry.primary->Abort();
        stats_.aborts.fetch_add(1, std::memory_order_relaxed);
        return pc.response;
      }
      const Status health = CurrentHealth();
      if (pc.entry.primary->txn_class() == TxnClass::kReadWrite &&
          (health.IsResourceExhausted() || health.IsDataLoss())) {
        pc.entry.primary->Abort();
        const bool fatal = health.IsDataLoss();
        (fatal ? stats_.sheds_fatal : stats_.sheds_degraded)
            .fetch_add(1, std::memory_order_relaxed);
        pc.response.status = fatal ? WireStatus::kFatalDataLoss
                                   : WireStatus::kDegradedReadOnly;
        pc.response.message = health.message();
        return pc.response;
      }
      RunCommit(&pc);
      return pc.response;
    }
    case OpCode::kAbort:
      return DoAbort(session, req);
    case OpCode::kBatch: {
      // Read-only one-shot (read-write ones are deferred): run inline.
      Response resp;
      resp.op = OpCode::kBatch;
      resp.request_id = req.request_id;
      TxnEntry scratch;
      if (RunBatchBody(req, &resp, &scratch)) {
        // Read-only bodies commit inside RunBatchBody; nothing pending.
      }
      return resp;
    }
    case OpCode::kHealth:
      return DoHealth(req);
    case OpCode::kStats:
      return DoStats(req);
  }
  return ErrorResponse(OpCode::kAbort, req.request_id, WireStatus::kInternal,
                       "unhandled opcode");
}

Response ServiceCore::DoBegin(Session* session, const Request& req) {
  Response resp;
  resp.op = OpCode::kBegin;
  resp.request_id = req.request_id;
  resp.token = req.token;
  if (req.token == 0) {
    resp.status = WireStatus::kInvalidArgument;
    resp.message = "txn token must be nonzero";
    return resp;
  }
  if (session->txns.count(req.token) != 0) {
    resp.status = WireStatus::kInvalidArgument;
    resp.message = "txn token already in use";
    return resp;
  }
  // Admission: the in-flight cap sheds read-only and read-write alike
  // (it bounds per-connection server memory); health sheds only new
  // WRITERS — readers never block, and never get blocked, on a
  // degraded or overloaded store.
  if (session->txns.size() >= options_.max_inflight_txns_per_conn) {
    stats_.sheds_overload.fetch_add(1, std::memory_order_relaxed);
    resp.status = WireStatus::kShedOverload;
    resp.message = "per-connection in-flight transaction cap reached";
    return resp;
  }
  Database* const db = this->db();
  TxnEntry entry;
  if (req.txn_class == TxnClass::kReadWrite) {
    if (req.at_least != 0) {
      resp.status = WireStatus::kInvalidArgument;
      resp.message = "at_least applies to read-only begins";
      return resp;
    }
    if (ShedNewWrite(req, &resp)) return resp;
    entry.primary = db->Begin(TxnClass::kReadWrite);
    resp.snapshot = entry.primary->start_number();
  } else {
    if (req.at_least != 0) {
      if (!ProtocolUsesCommitPipeline(db->options().protocol)) {
        resp.status = WireStatus::kInvalidArgument;
        resp.message = "at_least requires a VC protocol";
        return resp;
      }
      // A floor no registered transaction can ever satisfy would park
      // this worker forever; reject instead of blocking the event loop.
      if (req.at_least >= db->version_control().NextNumber()) {
        resp.status = WireStatus::kInvalidArgument;
        resp.message = "at_least beyond the last registered transaction";
        return resp;
      }
    }
    if (router_ != nullptr) {
      if (req.at_least != 0 && options_.at_least_budget_ms > 0) {
        // Bounded primary fallback: a currency read must not park this
        // worker on a primary that may be mid-failover.
        Result<repl::RoutedReadTxn> routed = router_->TryBeginAtLeast(
            req.at_least,
            std::chrono::milliseconds(options_.at_least_budget_ms));
        if (!routed.ok()) {
          resp.status = WireStatusFor(routed.status());
          resp.message = routed.status().message();
          return resp;
        }
        (routed->on_replica() ? stats_.reads_routed_replica
                              : stats_.reads_routed_primary)
            .fetch_add(1, std::memory_order_relaxed);
        resp.snapshot = routed->snapshot();
        resp.found = routed->on_replica();
        entry.routed.emplace(std::move(*routed));
      } else {
        repl::RoutedReadTxn routed = req.at_least != 0
                                         ? router_->BeginAtLeast(req.at_least)
                                         : router_->Begin();
        (routed.on_replica() ? stats_.reads_routed_replica
                             : stats_.reads_routed_primary)
            .fetch_add(1, std::memory_order_relaxed);
        resp.snapshot = routed.snapshot();
        resp.found = routed.on_replica();  // routing visible to the client
        entry.routed.emplace(std::move(routed));
      }
    } else {
      entry.primary = req.at_least != 0
                          ? db->BeginReadOnlyAtLeast(req.at_least)
                          : db->Begin(TxnClass::kReadOnly);
      resp.snapshot = entry.primary->start_number();
    }
  }
  session->txns.emplace(req.token, std::move(entry));
  stats_.txns_begun.fetch_add(1, std::memory_order_relaxed);
  return resp;
}

Response ServiceCore::DoRead(Session* session, const Request& req) {
  Response resp;
  resp.op = OpCode::kRead;
  resp.request_id = req.request_id;
  auto it = session->txns.find(req.token);
  if (it == session->txns.end()) {
    resp.status = WireStatus::kUnknownTxn;
    resp.message = "unknown txn token";
    return resp;
  }
  stats_.reads.fetch_add(1, std::memory_order_relaxed);
  Result<Value> value = it->second.routed.has_value()
                            ? it->second.routed->Read(req.key)
                            : it->second.primary->Read(req.key);
  if (value.ok()) {
    resp.found = true;
    resp.value = std::move(*value);
    return resp;
  }
  resp.status = WireStatusFor(value.status());
  resp.message = value.status().message();
  if (value.status().IsAborted()) {
    // The protocol aborted the transaction on this read; the token is
    // dead. (The transaction layer already ran the abort path.)
    session->txns.erase(it);
    stats_.aborts.fetch_add(1, std::memory_order_relaxed);
  }
  return resp;
}

Response ServiceCore::DoScan(Session* session, const Request& req) {
  Response resp;
  resp.op = OpCode::kScan;
  resp.request_id = req.request_id;
  if (req.key_hi < req.key) {
    resp.status = WireStatus::kInvalidArgument;
    resp.message = "scan high bound below low bound";
    return resp;
  }
  auto it = session->txns.find(req.token);
  if (it == session->txns.end()) {
    resp.status = WireStatus::kUnknownTxn;
    resp.message = "unknown txn token";
    return resp;
  }
  stats_.scans.fetch_add(1, std::memory_order_relaxed);
  const size_t cap = options_.max_scan_rows;
  const uint64_t client_limit = req.scan_limit;
  Result<std::vector<std::pair<ObjectKey, Value>>> rows = [&] {
    if (it->second.routed.has_value()) {
      return it->second.routed->Scan(req.key, req.key_hi);
    }
    // Ask for one row beyond the server cap when the client's own limit
    // does not bind first: an overflow row is how we distinguish "range
    // exhausted" from "cap cut the range" (Response.more).
    ScanOptions opts;
    opts.limit = (client_limit == 0 || client_limit > cap)
                     ? static_cast<uint64_t>(cap) + 1
                     : client_limit;
    return it->second.primary->ScanRange(req.key, req.key_hi, opts);
  }();
  if (!rows.ok()) {
    resp.status = WireStatusFor(rows.status());
    resp.message = rows.status().message();
    if (rows.status().IsAborted()) {
      session->txns.erase(it);
      stats_.aborts.fetch_add(1, std::memory_order_relaxed);
    }
    return resp;
  }
  // Replica-routed scans have no limit pushdown; enforce the client's
  // limit here so both paths answer identically.
  if (client_limit != 0 && rows->size() > client_limit) {
    rows->resize(client_limit);
  }
  if (rows->size() > cap) {
    rows->resize(cap);
    resp.more = true;
  }
  stats_.scan_rows.fetch_add(rows->size(), std::memory_order_relaxed);
  resp.reads.reserve(rows->size());
  for (auto& [key, value] : *rows) {
    resp.reads.push_back(BatchRead{key, /*found=*/true, std::move(value)});
  }
  return resp;
}

Response ServiceCore::DoWrite(Session* session, const Request& req) {
  Response resp;
  resp.op = OpCode::kWrite;
  resp.request_id = req.request_id;
  if (req.value.size() > options_.max_value_bytes) {
    resp.status = WireStatus::kTooLarge;
    resp.message = "value exceeds max_value_bytes";
    return resp;
  }
  auto it = session->txns.find(req.token);
  if (it == session->txns.end()) {
    resp.status = WireStatus::kUnknownTxn;
    resp.message = "unknown txn token";
    return resp;
  }
  if (it->second.routed.has_value()) {
    resp.status = WireStatus::kInvalidArgument;
    resp.message = "write on a read-only (routed) transaction";
    return resp;
  }
  stats_.writes.fetch_add(1, std::memory_order_relaxed);
  Status s = it->second.primary->Write(req.key, req.value);
  if (!s.ok()) {
    resp.status = WireStatusFor(s);
    resp.message = s.message();
    if (s.IsAborted()) {
      session->txns.erase(it);
      stats_.aborts.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return resp;
}

Response ServiceCore::DoAbort(Session* session, const Request& req) {
  Response resp;
  resp.op = OpCode::kAbort;
  resp.request_id = req.request_id;
  auto it = session->txns.find(req.token);
  if (it == session->txns.end()) {
    resp.status = WireStatus::kUnknownTxn;
    resp.message = "unknown txn token";
    return resp;
  }
  if (it->second.routed.has_value()) {
    it->second.routed->Abort();
  } else {
    it->second.primary->Abort();
  }
  session->txns.erase(it);
  stats_.aborts.fetch_add(1, std::memory_order_relaxed);
  return resp;
}

bool ServiceCore::RunBatchBody(const Request& req, Response* resp,
                               TxnEntry* entry) {
  if (req.batch.size() > options_.max_batch_ops) {
    resp->status = WireStatus::kTooLarge;
    resp->message = "batch exceeds max_batch_ops";
    return false;
  }
  for (const BatchOp& op : req.batch) {
    if (op.op == OpCode::kWrite &&
        op.value.size() > options_.max_value_bytes) {
      resp->status = WireStatus::kTooLarge;
      resp->message = "batch value exceeds max_value_bytes";
      return false;
    }
    if (op.op == OpCode::kWrite && req.txn_class == TxnClass::kReadOnly) {
      resp->status = WireStatus::kInvalidArgument;
      resp->message = "write op in a read-only batch";
      return false;
    }
  }
  stats_.batch_txns.fetch_add(1, std::memory_order_relaxed);

  Database* const db = this->db();
  if (req.txn_class == TxnClass::kReadOnly) {
    // Read-only one-shot: route like any read-only begin, run, commit.
    if (router_ != nullptr) {
      repl::RoutedReadTxn txn = router_->Begin();
      (txn.on_replica() ? stats_.reads_routed_replica
                        : stats_.reads_routed_primary)
          .fetch_add(1, std::memory_order_relaxed);
      for (const BatchOp& op : req.batch) {
        stats_.reads.fetch_add(1, std::memory_order_relaxed);
        Result<Value> value = txn.Read(op.key);
        BatchRead r;
        r.key = op.key;
        r.found = value.ok();
        if (value.ok()) r.value = std::move(*value);
        resp->reads.push_back(std::move(r));
      }
      txn.Commit();
      resp->tn = txn.snapshot();
    } else {
      auto txn = db->Begin(TxnClass::kReadOnly);
      for (const BatchOp& op : req.batch) {
        stats_.reads.fetch_add(1, std::memory_order_relaxed);
        Result<Value> value = txn->Read(op.key);
        BatchRead r;
        r.key = op.key;
        r.found = value.ok();
        if (value.ok()) r.value = std::move(*value);
        resp->reads.push_back(std::move(r));
      }
      Status s = txn->Commit();
      resp->status = WireStatusFor(s);
      resp->tn = txn->txn_number();
    }
    stats_.commits.fetch_add(1, std::memory_order_relaxed);
    return false;  // nothing left pending
  }

  // Read-write body: begin + ops here (lock waits stay on this thread),
  // commit deferred into the caller's burst.
  entry->primary = db->Begin(TxnClass::kReadWrite);
  for (const BatchOp& op : req.batch) {
    Status s;
    if (op.op == OpCode::kRead) {
      stats_.reads.fetch_add(1, std::memory_order_relaxed);
      Result<Value> value = entry->primary->Read(op.key);
      BatchRead r;
      r.key = op.key;
      r.found = value.ok();
      if (value.ok()) r.value = std::move(*value);
      resp->reads.push_back(std::move(r));
      s = value.ok() || value.status().IsNotFound() ? Status::OK()
                                                    : value.status();
    } else {
      stats_.writes.fetch_add(1, std::memory_order_relaxed);
      s = entry->primary->Write(op.key, op.value);
    }
    if (!s.ok()) {
      resp->status = WireStatusFor(s);
      resp->message = s.message();
      resp->reads.clear();
      if (entry->primary->active()) entry->primary->Abort();
      entry->primary.reset();
      stats_.aborts.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  return true;
}

Response ServiceCore::DoHealth(const Request& req) {
  Response resp;
  resp.op = OpCode::kHealth;
  resp.request_id = req.request_id;
  const Status health = CurrentHealth();
  resp.health = WireStatusForHealth(health);
  resp.message = health.message();
  return resp;
}

Response ServiceCore::DoStats(const Request& req) {
  Response resp;
  resp.op = OpCode::kStats;
  resp.request_id = req.request_id;
  resp.stats = stats_.Snapshot();
  Database* const db = this->db();
  resp.stats.emplace_back("visibility_lag", db->VisibilityLag());
  // Decentralized-visibility introspection: the admission path reads the
  // CACHED floor (one load); Stats is the cold path, so refresh here —
  // every Stats round-trip doubles as a floor publish.
  VisibilitySource& vc = db->version_control();
  resp.stats.emplace_back("visibility_floor", vc.RefreshFloor());
  resp.stats.emplace_back("visibility_shards", vc.ShardCount());
  if (vc.ShardCount() > 1) {
    const TxnNumber floor = vc.CachedFloor();
    for (size_t s = 0; s < vc.ShardCount(); ++s) {
      const TxnNumber mark = vc.ShardWatermark(s);
      resp.stats.emplace_back("shard_" + std::to_string(s) + "_watermark",
                              mark);
      // Per-shard visibility lag: how far this shard's watermark runs
      // ahead of the folded floor (the straggler shard shows 0).
      resp.stats.emplace_back("shard_" + std::to_string(s) + "_lag",
                              mark - floor);
    }
  }
  // Where the version memory sits: slab bytes held, blocks in use, in
  // their reclamation grace period, and free for reuse. Resident that
  // keeps climbing under a steady workload is a leak in the making.
  const VersionArena::Stats arena = db->store().ArenaStats();
  resp.stats.emplace_back("arena_resident_bytes", arena.resident_bytes);
  resp.stats.emplace_back("arena_live_bytes", arena.live_bytes);
  resp.stats.emplace_back("arena_pending_bytes", arena.pending_bytes);
  resp.stats.emplace_back("arena_free_bytes", arena.free_bytes);
  resp.stats.emplace_back("pipeline_batches_logged",
                          db->commit_pipeline().batches_logged());
  resp.stats.emplace_back("pipeline_groups_flushed",
                          db->commit_pipeline().groups_flushed());
  if (router_ != nullptr) {
    resp.stats.emplace_back("router_reads_to_replica",
                            router_->reads_to_replica());
    resp.stats.emplace_back("router_reads_to_primary",
                            router_->reads_to_primary());
    resp.stats.emplace_back("router_max_served_lag",
                            router_->max_served_lag());
  }
  return resp;
}

void ServiceCore::AbortSession(Session* session) {
  for (auto& [token, entry] : session->txns) {
    (void)token;
    if (entry.routed.has_value()) {
      entry.routed->Abort();
    } else if (entry.primary != nullptr && entry.primary->active()) {
      entry.primary->Abort();
    }
    stats_.disconnect_aborts.fetch_add(1, std::memory_order_relaxed);
  }
  session->txns.clear();
}

}  // namespace server
}  // namespace mvcc
