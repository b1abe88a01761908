// Sharded cluster node: a Server wrapped with the binary cluster
// transport and WAL-shipping replication.
//
// Topology (`seqrtg route` + N × `seqrtg serve --cluster-port`):
//
//   router ──kRecord──► shard node 0 ──kWalGroup──► standby 0
//          ──kRecord──► shard node 1 ──kWalGroup──► standby 1
//                           ...
//
// Each node owns the consistent-hash range the router assigns it and runs
// the ordinary serve pipeline underneath; decoded kRecord frames enter
// through Server::ingest_record, so binary and JSON ingest share one
// accounting path. Replication is WAL shipping: the node installs a
// PatternStore commit sink and forwards every commit group — AFTER the
// local append+fsync, in exact WAL order — to its hot standby, which
// applies the group under the primary's sequence number
// (PatternStore::apply_replicated_group). A group the standby holds is by
// construction durable on the primary, so the standby only ever trails,
// and a SIGKILLed primary loses nothing that was committed: takeover is
// "point the router at the standby".
//
// Shipping has no resync protocol in v1: a failed send (or a scripted
// ship fault) wedges replication permanently and every subsequent group is
// counted lost — the same latched-failure accounting the WAL's torn-tail
// faults use, so tests can assert exact loss numbers.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "serve/cluster_proto.hpp"
#include "serve/net.hpp"
#include "serve/server.hpp"

namespace seqrtg::serve {

/// Blocking client side of one cluster connection (router -> node, or
/// node -> standby). Single-threaded use; callers serialise sends.
class ClusterClient {
 public:
  ClusterClient() = default;
  ~ClusterClient() { close(); }
  ClusterClient(const ClusterClient&) = delete;
  ClusterClient& operator=(const ClusterClient&) = delete;

  /// Connects to 127.0.0.1:`port` and sends the stream header plus a
  /// kHello identifying this peer. False on any failure (fd closed).
  bool connect(int port, std::uint8_t role, const std::string& node_id);

  /// Writes the whole buffer (MSG_NOSIGNAL, partial-write loop). False on
  /// error; the connection is closed and stays closed.
  bool send(std::string_view bytes);

  bool connected() const { return fd_ >= 0; }

  /// True when the peer hung up or reset. Cluster peers never write back
  /// on these connections, so a readable socket can only mean EOF or an
  /// error — a cheap liveness probe the router runs before each send.
  bool peer_dead();

  void close();

 private:
  int fd_ = -1;
};

struct ClusterNodeOptions {
  ServeOptions serve;
  /// Cluster transport listener on 127.0.0.1: 0 = kernel-assigned,
  /// >0 = fixed (always on — a cluster node exists to speak it).
  int cluster_port = 0;
  /// Standby's cluster port to ship committed WAL groups to; -1 = no
  /// replication.
  int ship_to = -1;
  std::string node_id = "node";
  /// Scripted replication fault (testkit): consulted once per commit
  /// group with a 0-based group index; returning true wedges shipping
  /// from that group on (it and everything after it is counted lost).
  std::function<bool(std::uint64_t)> ship_fault;
};

/// Point-in-time counters (all monotonic; read via stats()).
struct ClusterNodeStats {
  /// kRecord frames decoded and handed to the serve pipeline.
  std::uint64_t records = 0;
  /// kWalGroup frames applied to the local store (standby role).
  std::uint64_t groups_applied = 0;
  /// Highest replicated sequence applied so far.
  std::uint64_t last_applied_seq = 0;
  /// Connections dropped for a framing violation (counted once each).
  std::uint64_t malformed_streams = 0;
  /// Commit groups shipped to the standby / lost to a wedged link.
  std::uint64_t groups_shipped = 0;
  std::uint64_t groups_lost = 0;
  bool ship_wedged = false;
};

class ClusterNode {
 public:
  /// `store` must outlive the node (same contract as Server).
  ClusterNode(store::PatternStore* store, ClusterNodeOptions opts);
  ~ClusterNode();
  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  bool start(std::string* error = nullptr);

  /// Drains: cluster listener first, then the inner server (its final
  /// flushes still ship through the sink), then the shipper link.
  ServeReport stop();

  int cluster_port() const { return listener_.port(); }
  Server& server() { return server_; }

  ClusterNodeStats stats() const;

  /// Blocks until `pred()` holds or `timeout` elapses; woken after every
  /// stats change AND every server progress change, so tests can wait on
  /// predicates spanning both ("standby applied group N and processed M").
  bool wait_until(const std::function<bool()>& pred,
                  std::chrono::milliseconds timeout =
                      std::chrono::milliseconds(10000)) const;

 private:
  void connection_loop(int fd);
  void ship_group(std::uint64_t seq, std::string_view ops);
  void count_malformed(int fd, const std::string& error);
  void notify() const;

  store::PatternStore* store_;
  ClusterNodeOptions opts_;
  Server server_;

  ClusterClient shipper_;
  std::mutex ship_mutex_;

  std::atomic<bool> started_{false};
  bool stopped_ = false;
  ServeReport final_report_;
  std::atomic<std::uint64_t> records_{0};
  std::atomic<std::uint64_t> groups_applied_{0};
  std::atomic<std::uint64_t> last_applied_seq_{0};
  std::atomic<std::uint64_t> malformed_streams_{0};
  std::atomic<std::uint64_t> groups_shipped_{0};
  std::atomic<std::uint64_t> groups_lost_{0};
  std::atomic<std::uint64_t> ship_index_{0};
  std::atomic<bool> ship_wedged_{false};
  mutable std::mutex progress_mutex_;
  mutable std::condition_variable progress_cv_;
  /// Declared last: its connection threads use the members above.
  Listener listener_;
};

}  // namespace seqrtg::serve
