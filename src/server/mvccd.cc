// mvccd: the multiversion database behind a TCP front door.
//
//   mvccd --port 7440 --protocol vc2pl --preload 100000
//         --replicas 2 --staleness 256 --overload-lag 4096
//
// Serves the wire protocol of server/wire.h (see README quickstart and
// examples/server_client.cpp). With --replicas N, N in-process replicas
// tail the primary's WAL over the simulated shipping network and the
// ReadRouter spreads read-only transactions across them.
//
// Failover deployment:
//
//   mvccd --failover 3 --port 7440            # nodes on 7440,7441,7442
//   mvccd --failover 3 --peers 7440,8440,9440 # explicit per-node ports
//
// --failover N runs an N-node FailoverCluster in one process: node 0
// starts as primary, every node gets its own TCP listener, and a
// coordinator thread (heartbeat failure detector) promotes the
// max-horizon replica behind a fencing-epoch CAS when the primary
// dies. Non-primary nodes answer writes with kNotPrimary plus the
// current fence and a leader hint; FailoverClient (server/client.h)
// follows them. Commits are held semi-synchronously until --ack-quorum
// replicas have applied them.

#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/network.h"
#include "repl/failover.h"
#include "repl/read_router.h"
#include "repl/replica.h"
#include "repl/replication_stream.h"
#include "server/server.h"
#include "txn/database.h"

namespace {

std::atomic<bool> g_stop{false};

void OnSignal(int) { g_stop.store(true); }

mvcc::ProtocolKind ParseProtocol(const std::string& name) {
  if (name == "vc2pl") return mvcc::ProtocolKind::kVc2pl;
  if (name == "vcto") return mvcc::ProtocolKind::kVcTo;
  if (name == "vcocc") return mvcc::ProtocolKind::kVcOcc;
  if (name == "vcadaptive") return mvcc::ProtocolKind::kVcAdaptive;
  std::cerr << "unknown --protocol " << name
            << " (want vc2pl|vcto|vcocc|vcadaptive)\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 7440;
  int workers = 4;
  mvcc::DatabaseOptions db_opts;
  db_opts.protocol = mvcc::ProtocolKind::kVc2pl;
  db_opts.preload_keys = 0;
  db_opts.enable_wal = true;  // replication and group commit both want it
  int replicas = 0;
  mvcc::TxnNumber staleness = 256;
  int failover_nodes = 0;
  size_t ack_quorum = 1;
  std::vector<uint16_t> peer_ports;
  mvcc::server::ServerOptions srv_opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      host = next();
    } else if (arg == "--port") {
      port = static_cast<uint16_t>(std::stoul(next()));
    } else if (arg == "--workers") {
      workers = std::stoi(next());
    } else if (arg == "--protocol") {
      db_opts.protocol = ParseProtocol(next());
    } else if (arg == "--preload") {
      db_opts.preload_keys = std::stoull(next());
    } else if (arg == "--vc-shards") {
      db_opts.vc_shards = std::stoull(next());
    } else if (arg == "--replicas") {
      replicas = std::stoi(next());
    } else if (arg == "--staleness") {
      staleness = std::stoull(next());
    } else if (arg == "--failover") {
      failover_nodes = std::stoi(next());
    } else if (arg == "--ack-quorum") {
      ack_quorum = std::stoull(next());
    } else if (arg == "--peers") {
      // Comma-separated listen ports, one per failover node.
      std::string list = next();
      size_t pos = 0;
      while (pos <= list.size()) {
        const size_t comma = list.find(',', pos);
        const std::string tok = list.substr(
            pos, comma == std::string::npos ? std::string::npos : comma - pos);
        if (!tok.empty()) {
          peer_ports.push_back(static_cast<uint16_t>(std::stoul(tok)));
        }
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (arg == "--overload-lag") {
      db_opts.overload_lag_threshold = std::stoull(next());
    } else if (arg == "--max-inflight") {
      srv_opts.service.max_inflight_txns_per_conn = std::stoull(next());
    } else if (arg == "--idle-timeout-ms") {
      srv_opts.service.idle_timeout_ms = std::stoll(next());
    } else if (arg == "--help" || arg == "-h") {
      std::cout
          << "mvccd [--host H] [--port P] [--workers N] [--protocol "
             "vc2pl|vcto|vcocc|vcadaptive]\n"
             "      [--preload KEYS] [--vc-shards K]\n"
             "      [--replicas N] [--staleness BUDGET]\n"
             "      [--failover NODES] [--peers P0,P1,...] [--ack-quorum Q]\n"
             "      [--overload-lag LAG] [--max-inflight N] "
             "[--idle-timeout-ms MS]\n";
      return 0;
    } else {
      std::cerr << "unknown flag " << arg << " (try --help)\n";
      return 2;
    }
  }

  // ---- failover deployment: an N-node FailoverCluster, one TCP
  // listener per node, semi-synchronous commits ----
  if (failover_nodes > 0) {
    if (peer_ports.empty()) {
      for (int n = 0; n < failover_nodes; ++n) {
        peer_ports.push_back(static_cast<uint16_t>(port + n));
      }
    }
    if (static_cast<int>(peer_ports.size()) != failover_nodes) {
      std::cerr << "mvccd: --peers lists " << peer_ports.size()
                << " ports but --failover asked for " << failover_nodes
                << " nodes\n";
      return 2;
    }

    mvcc::SimulatedNetwork network;
    mvcc::repl::FailoverClusterOptions copts;
    copts.db = db_opts;
    copts.nodes = failover_nodes;
    copts.ack_quorum = ack_quorum;
    copts.staleness_budget = staleness;
    mvcc::repl::FailoverCluster cluster(std::move(copts), &network, nullptr);

    std::vector<std::unique_ptr<mvcc::server::Server>> servers;
    for (int n = 0; n < failover_nodes; ++n) {
      mvcc::server::ServerOptions node_opts = srv_opts;
      node_opts.host = host;
      node_opts.port = peer_ports[n];
      node_opts.num_workers = workers;
      node_opts.service.is_primary = [&cluster, n] {
        return cluster.leader() == n && cluster.NodeAlive(n);
      };
      node_opts.service.fence_epoch = [&cluster] { return cluster.fence(); };
      node_opts.service.leader_hint = [&cluster] {
        return static_cast<int32_t>(cluster.leader());
      };
      node_opts.service.commit_gate = [&cluster](mvcc::TxnNumber tn) {
        // Semi-synchronous ack: bounded wait for the replica quorum.
        // On timeout the commit is durable locally but the client sees
        // kUnavailable — durable-maybe, not acknowledged.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(2);
        while (!cluster.CommitAcked(tn)) {
          if (std::chrono::steady_clock::now() > deadline) {
            return mvcc::Status::Unavailable(
                "commit " + std::to_string(tn) +
                " durable locally but not acknowledged by the quorum");
          }
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        return mvcc::Status::OK();
      };
      // Per-request database resolution: after a promotion the same
      // listener serves the new primary incarnation.
      servers.push_back(std::make_unique<mvcc::server::Server>(
          [&cluster] { return cluster.primary(); }, cluster.router(),
          node_opts));
      mvcc::Status ss = servers.back()->Start();
      if (!ss.ok()) {
        std::cerr << "mvccd: cannot start node " << n << ": " << ss << "\n";
        return 1;
      }
    }

    signal(SIGINT, OnSignal);
    signal(SIGTERM, OnSignal);

    std::vector<std::thread> cluster_pumps;
    // Shipper: pumps whatever stream is current while its leader lives.
    cluster_pumps.emplace_back([&] {
      while (!g_stop.load(std::memory_order_relaxed)) {
        if (cluster.NodeAlive(cluster.leader())) {
          if (cluster.stream()->PumpOnce() == 0) std::this_thread::yield();
        } else {
          std::this_thread::yield();
        }
      }
    });
    for (int n = 0; n < failover_nodes; ++n) {
      cluster_pumps.emplace_back([&, n] {
        while (!g_stop.load(std::memory_order_relaxed)) {
          if (cluster.replica(n)->ApplyOnce() == 0) {
            std::this_thread::yield();
          }
        }
      });
    }
    // Coordinator: heartbeat while the leader lives, tick while it does
    // not, promote when the detector fires.
    cluster_pumps.emplace_back([&] {
      while (!g_stop.load(std::memory_order_relaxed)) {
        if (cluster.NodeAlive(cluster.leader())) {
          cluster.detector()->Heartbeat();
        } else {
          cluster.detector()->Tick();
        }
        (void)cluster.MaybeFailover();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });

    for (int n = 0; n < failover_nodes; ++n) {
      std::cout << "mvccd node " << n << " listening on " << host << ":"
                << servers[n]->port()
                << (n == cluster.leader() ? " (primary)" : " (replica)")
                << "\n";
    }
    std::cout << "mvccd failover cluster up: nodes=" << failover_nodes
              << " ack_quorum=" << ack_quorum
              << " protocol=" << mvcc::ProtocolKindName(db_opts.protocol)
              << "\n"
              << std::flush;

    while (!g_stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    for (auto& sv : servers) sv->Stop();
    for (auto& t : cluster_pumps) t.join();
    std::cout << "mvccd: clean shutdown\n";
    return 0;
  }

  mvcc::Database db(db_opts);

  // Optional in-process replica tier: shipper + one applier per replica,
  // the bench_replication wiring.
  mvcc::SimulatedNetwork network;
  std::vector<std::unique_ptr<mvcc::repl::Replica>> replica_owner;
  std::vector<mvcc::repl::Replica*> replica_ptrs;
  std::unique_ptr<mvcc::repl::ReplicationStream> stream;
  std::unique_ptr<mvcc::repl::ReadRouter> router;
  std::vector<std::thread> pumps;
  if (replicas > 0) {
    for (int i = 0; i < replicas; ++i) {
      replica_owner.push_back(
          std::make_unique<mvcc::repl::Replica>(i, &network, db.history()));
      replica_ptrs.push_back(replica_owner.back().get());
    }
    stream = std::make_unique<mvcc::repl::ReplicationStream>(&db, &network,
                                                             replica_ptrs);
    router =
        std::make_unique<mvcc::repl::ReadRouter>(&db, replica_ptrs, staleness);
    pumps.emplace_back([&] {
      while (!g_stop.load(std::memory_order_relaxed)) {
        if (stream->PumpOnce() == 0) std::this_thread::yield();
      }
    });
    for (mvcc::repl::Replica* r : replica_ptrs) {
      pumps.emplace_back([r] {
        while (!g_stop.load(std::memory_order_relaxed)) {
          if (r->ApplyOnce() == 0) std::this_thread::yield();
        }
      });
    }
  }

  srv_opts.host = host;
  srv_opts.port = port;
  srv_opts.num_workers = workers;
  mvcc::server::Server server(&db, router.get(), srv_opts);
  mvcc::Status s = server.Start();
  if (!s.ok()) {
    std::cerr << "mvccd: " << s << "\n";
    return 1;
  }

  signal(SIGINT, OnSignal);
  signal(SIGTERM, OnSignal);
  std::cout << "mvccd listening on " << host << ":" << server.port()
            << " protocol=" << mvcc::ProtocolKindName(db_opts.protocol)
            << " vc=" << db.version_control().core_name()
            << " workers=" << workers << " replicas=" << replicas << "\n"
            << std::flush;

  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  server.Stop();
  for (auto& t : pumps) t.join();
  std::cout << "mvccd: clean shutdown\n";
  return 0;
}
