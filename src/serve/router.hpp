// Client-side cluster router (`seqrtg route`).
//
// Accepts the same JSON-lines ingest the single-node server does (TCP
// listener and/or stdin feed), places each record's service on the
// consistent-hash ring, and forwards the record as a binary kRecord frame
// to the owning shard node. Routing is stateless and deterministic — any
// number of routers can front the same shard set and agree, because the
// ring hash is a pure function of the service name (serve/ring.hpp).
//
// Failover: shard connections are write-only, so a readable socket means
// the peer hung up (see ClusterClient::peer_dead). Before every send the
// router probes the link; on a dead or failed link it promotes the
// shard's hot standby — once, permanently — and resends there. With no
// standby (or the standby also dead) the record is counted undeliverable
// rather than silently dropped.
//
// The router also aggregates cluster-wide observability: /healthz embeds
// every shard's health document, and /metrics sums the counters of all
// reachable shards' expositions with the router's own.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <istream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/ingest.hpp"
#include "serve/cluster.hpp"
#include "serve/http.hpp"
#include "serve/net.hpp"
#include "serve/ring.hpp"

namespace seqrtg::serve {

struct RouterOptions {
  /// Cluster ports of the shard nodes, in ring order (shard i = entry i).
  std::vector<int> shards;
  /// Cluster ports of each shard's hot standby; -1 (or a missing entry)
  /// = that shard has no standby. Parallel to `shards`.
  std::vector<int> standbys;
  /// HTTP ports of the shard nodes for /healthz + /metrics aggregation;
  /// -1/missing = not scraped. Parallel to `shards`.
  std::vector<int> shard_http;
  /// JSON-lines ingest listener: -1 = off, 0 = kernel-assigned, >0 fixed.
  int port = -1;
  /// Aggregated /metrics + /healthz responder: same convention.
  int http_port = -1;
  std::size_t vnodes = 64;
  std::string node_id = "router";
  /// Scripted misroute fault (testkit): consulted once per routed record
  /// with a 0-based arrival index; returning true sends that record to
  /// the ring successor of its correct shard. This is the mutation the
  /// cluster differential oracle must catch.
  std::function<bool(std::uint64_t)> route_fault;
};

struct RouterReport {
  /// Records forwarded to a shard (including failover resends).
  std::uint64_t forwarded = 0;
  /// Ingest lines the JSON parser rejected.
  std::uint64_t malformed = 0;
  /// Shards permanently switched to their standby.
  std::uint64_t failovers = 0;
  /// Records with no live shard or standby to take them.
  std::uint64_t undeliverable = 0;
  /// Forwards per shard index (post-failover identity: a record sent to
  /// shard 2's standby still counts under shard 2).
  std::vector<std::uint64_t> per_shard;
};

class Router {
 public:
  explicit Router(RouterOptions opts);
  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Connects to every shard and binds the configured listeners. False
  /// (with `error`) when a shard is unreachable even via its standby or a
  /// socket cannot be bound.
  bool start(std::string* error = nullptr);

  int ingest_port() const { return ingest_.port(); }
  int http_port() const { return http_.port(); }

  /// Blocking stdin-pipe reader on the caller's thread (same contract as
  /// Server::feed).
  void feed(std::istream& in);

  /// Routes one parsed record. Thread-safe (per-shard send locks).
  void route_record(const core::LogRecord& record);

  /// Closes the listeners and every shard link (the FIN tells each shard
  /// this producer is done) and returns the final report.
  RouterReport stop();

  /// Live counters for tests.
  std::uint64_t forwarded() const {
    return forwarded_.load(std::memory_order_relaxed);
  }
  std::uint64_t failovers() const {
    return failovers_.load(std::memory_order_relaxed);
  }
  std::uint64_t undeliverable() const {
    return undeliverable_.load(std::memory_order_relaxed);
  }

  /// The aggregated /healthz document (also used by tests directly).
  std::string health_json() const;
  /// The aggregated /metrics exposition.
  std::string metrics_text() const;

 private:
  struct ShardLink {
    ClusterClient client;
    std::mutex mutex;
    /// True once the link was switched to the standby (latched).
    bool failed_over = false;
    /// True when neither primary nor standby is reachable.
    bool dead = false;
    std::atomic<std::uint64_t> forwarded{0};
  };

  bool ingest_line(std::string_view line, core::IngestStats& stats);
  void note_malformed();
  /// Switches `link` to its standby (once, latched). Caller holds
  /// link.mutex. False marks the shard dead.
  bool promote(ShardLink& link, std::size_t shard);

  RouterOptions opts_;
  HashRing ring_;
  std::vector<std::unique_ptr<ShardLink>> links_;
  HttpResponder http_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;
  RouterReport final_report_;
  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<std::uint64_t> malformed_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> undeliverable_{0};
  std::atomic<std::uint64_t> route_index_{0};
  /// Declared last: its connection threads use the members above.
  Listener ingest_;
};

/// Sums Prometheus text expositions: counters/gauges with the same
/// name+labels add up, # HELP/# TYPE headers are kept from their first
/// occurrence, sample order follows first appearance. Exposed for tests.
std::string aggregate_expositions(const std::vector<std::string>& bodies);

}  // namespace seqrtg::serve
