// Decentralized visibility in action: per-shard commit watermarks and
// the lag a straggler transaction creates.
//
// Starts an in-process server on a Database whose sharded visibility
// core runs 8 shards, then:
//
//   1. commits a burst of transactions so every residue class has
//      traffic;
//   2. begins one transaction and deliberately leaves it open — its
//      residue class's watermark stops while the other seven keep
//      advancing;
//   3. pulls Stats over the wire and prints each shard's watermark and
//      lag (watermark - folded floor). The straggler's class shows lag
//      0 (it IS the floor); every other class shows how far it has run
//      ahead;
//   4. commits the straggler and shows the lag collapse.
//
// The point of the sharded core is exactly this picture: one slow
// transaction parks one residue class, not every registration, and
// read-only snapshots (a vector of the eight watermarks) keep seeing
// everything the other classes completed.

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "server/client.h"
#include "server/server.h"
#include "txn/database.h"

using namespace mvcc;
using namespace mvcc::server;

namespace {

void PrintShardStats(Client& client, const char* banner) {
  Result<Response> stats = client.Call(MakeStats());
  if (!stats.ok()) {
    std::cerr << "stats failed: " << stats.status() << "\n";
    return;
  }
  uint64_t floor = 0;
  uint64_t shards = 0;
  for (const auto& [key, value] : stats->stats) {
    if (key == "visibility_floor") floor = value;
    if (key == "visibility_shards") shards = value;
  }
  std::cout << banner << "\n  floor=" << floor << " shards=" << shards
            << "\n";
  for (uint64_t s = 0; s < shards; ++s) {
    uint64_t mark = 0;
    uint64_t lag = 0;
    for (const auto& [key, value] : stats->stats) {
      if (key == "shard_" + std::to_string(s) + "_watermark") mark = value;
      if (key == "shard_" + std::to_string(s) + "_lag") lag = value;
    }
    std::cout << "  shard " << s << ": watermark=" << mark << " lag=" << lag
              << (lag == 0 ? "  <- floor holder" : "") << "\n";
  }
}

}  // namespace

int main() {
  DatabaseOptions db_opts;
  db_opts.protocol = ProtocolKind::kVc2pl;
  db_opts.preload_keys = 16;
  db_opts.vc_shards = 8;
  Database db(db_opts);

  Server server(&db, nullptr, ServerOptions{});
  if (!server.Start().ok()) {
    std::cerr << "server start failed\n";
    return 1;
  }
  ClientOptions copts;
  copts.port = server.port();
  auto dialed = Client::Connect(copts);
  if (!dialed.ok()) {
    std::cerr << "dial failed: " << dialed.status() << "\n";
    return 1;
  }
  std::unique_ptr<Client> client = std::move(*dialed);
  std::cout << "connected; core=" << db.version_control().core_name()
            << " shards=" << db.version_control().ShardCount() << "\n";

  // 1. Seed traffic across all residue classes.
  for (int i = 0; i < 32; ++i) {
    const uint64_t token = client->NewToken();
    client->Call(MakeBegin(token, TxnClass::kReadWrite));
    client->Call(MakeWrite(token, static_cast<ObjectKey>(i % 16),
                           "v" + std::to_string(i)));
    client->Call(MakeCommit(token));
  }

  // 2. The straggler: begin, write, and stop — its residue class's
  //    watermark parks right below its transaction number.
  const uint64_t straggler = client->NewToken();
  client->Call(MakeBegin(straggler, TxnClass::kReadWrite));
  client->Call(MakeWrite(straggler, 0, "straggler"));

  // More commits AFTER the straggler: seven classes keep draining, the
  // straggler's class buffers behind it.
  for (int i = 0; i < 24; ++i) {
    const uint64_t token = client->NewToken();
    client->Call(MakeBegin(token, TxnClass::kReadWrite));
    client->Call(MakeWrite(token, static_cast<ObjectKey>(i % 16),
                           "w" + std::to_string(i)));
    client->Call(MakeCommit(token));
  }

  PrintShardStats(*client, "with one straggler still open:");

  // 3. Resolve the straggler: its class drains and the floor jumps.
  client->Call(MakeCommit(straggler));
  PrintShardStats(*client, "after the straggler commits:");

  server.Stop();
  return 0;
}
