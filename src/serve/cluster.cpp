#include "serve/cluster.hpp"

#include <poll.h>
#include <unistd.h>

#include "obs/eventlog.hpp"
#include "obs/metrics.hpp"

namespace seqrtg::serve {

namespace {

struct ClusterMetrics {
  obs::Counter& records;
  obs::Counter& groups_shipped;
  obs::Counter& groups_applied;
  obs::Counter& malformed;
};

ClusterMetrics& cluster_metrics() {
  auto& reg = obs::default_registry();
  static ClusterMetrics m{
      reg.counter("seqrtg_cluster_records_total",
                  "Binary kRecord frames decoded and ingested"),
      reg.counter("seqrtg_cluster_groups_shipped_total",
                  "WAL commit groups shipped to the hot standby"),
      reg.counter("seqrtg_cluster_groups_applied_total",
                  "Replicated WAL commit groups applied (standby role)"),
      reg.counter("seqrtg_cluster_malformed_total",
                  "Cluster connections dropped for a framing violation")};
  return m;
}

}  // namespace

bool ClusterClient::connect(int port, std::uint8_t role,
                            const std::string& node_id) {
  close();
  fd_ = connect_loopback(port, 0);
  return send(cluster_stream_header() + encode_hello(role, node_id));
}

bool ClusterClient::send(std::string_view bytes) {
  if (fd_ < 0) return false;
  if (send_all(fd_, bytes)) return true;
  close();
  return false;
}

bool ClusterClient::peer_dead() {
  if (fd_ < 0) return true;
  pollfd pfd = {fd_, POLLIN, 0};
  const int rc = ::poll(&pfd, 1, 0);
  if (rc <= 0) return false;  // nothing readable: still healthy
  return pfd.revents != 0;
}

void ClusterClient::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

ClusterNode::ClusterNode(store::PatternStore* store, ClusterNodeOptions opts)
    : store_(store), opts_(std::move(opts)),
      server_(store, opts_.serve) {}

ClusterNode::~ClusterNode() {
  if (started_.load(std::memory_order_relaxed)) stop();
}

bool ClusterNode::start(std::string* error) {
  if (!server_.start(error)) return false;

  if (!listener_.bind(opts_.cluster_port, error)) {
    server_.stop();
    return false;
  }

  if (opts_.ship_to >= 0) {
    if (!shipper_.connect(opts_.ship_to, kPeerShipper, opts_.node_id)) {
      if (error != nullptr) {
        *error = "standby connect to port " + std::to_string(opts_.ship_to) +
                 " failed";
      }
      listener_.stop();
      server_.stop();
      return false;
    }
    // The sink runs inside the store's commit path (under its mutex), so
    // groups ship in exact WAL order and a group handed to us is already
    // locally durable.
    store_->set_commit_sink([this](std::uint64_t seq, std::string_view ops) {
      ship_group(seq, ops);
    });
  }

  listener_.start([this](int fd) { connection_loop(fd); });
  started_.store(true, std::memory_order_relaxed);
  obs::logev(obs::LogLevel::kInfo, "cluster", "node_start",
             {{"node", opts_.node_id},
              {"cluster_port", static_cast<std::int64_t>(cluster_port())},
              {"ship_to", static_cast<std::int64_t>(opts_.ship_to)}});
  return true;
}

void ClusterNode::count_malformed(int fd, const std::string& error) {
  malformed_streams_.fetch_add(1, std::memory_order_relaxed);
  if (obs::telemetry_enabled()) cluster_metrics().malformed.inc();
  obs::logev(obs::LogLevel::kWarn, "cluster", "malformed_stream",
             {{"node", opts_.node_id}, {"error", error},
              {"fd", static_cast<std::int64_t>(fd)}});
  notify();
}

void ClusterNode::connection_loop(int fd) {
  ClusterFrameDecoder decoder;
  std::vector<ClusterFrame> frames;
  const bool clean_eof = read_chunks(fd, [&](std::string_view bytes) {
    frames.clear();
    // Poisoned: apply the frames decoded before the violation, then drop
    // the connection — exactly one malformed count per stream.
    bool open = decoder.feed(bytes, &frames);
    for (const ClusterFrame& frame : frames) {
      switch (frame.type) {
        case ClusterFrameType::kRecord:
          records_.fetch_add(1, std::memory_order_relaxed);
          if (obs::telemetry_enabled()) cluster_metrics().records.inc();
          if (!server_.ingest_record(frame.record)) open = false;
          break;
        case ClusterFrameType::kWalGroup:
          if (store_->apply_replicated_group(frame.seq, frame.ops)) {
            groups_applied_.fetch_add(1, std::memory_order_relaxed);
            if (obs::telemetry_enabled()) {
              cluster_metrics().groups_applied.inc();
            }
            std::uint64_t prev =
                last_applied_seq_.load(std::memory_order_relaxed);
            while (prev < frame.seq &&
                   !last_applied_seq_.compare_exchange_weak(
                       prev, frame.seq, std::memory_order_relaxed)) {
            }
          }
          break;
        case ClusterFrameType::kHello:
        case ClusterFrameType::kAck:
          break;  // identification / reserved: nothing to apply
      }
      notify();
    }
    if (decoder.poisoned()) count_malformed(fd, decoder.error());
    return open;
  });
  // A clean close mid-frame is a truncation the CRC never saw.
  if (clean_eof && !decoder.poisoned() && decoder.pending_bytes() > 0) {
    count_malformed(fd, "EOF inside a frame (" +
                            std::to_string(decoder.pending_bytes()) +
                            " pending bytes)");
  }
}

void ClusterNode::ship_group(std::uint64_t seq, std::string_view ops) {
  std::lock_guard lock(ship_mutex_);
  const std::uint64_t index =
      ship_index_.fetch_add(1, std::memory_order_relaxed);
  if (!ship_wedged_.load(std::memory_order_relaxed) && opts_.ship_fault &&
      opts_.ship_fault(index)) {
    ship_wedged_.store(true, std::memory_order_relaxed);
    obs::logev(obs::LogLevel::kWarn, "cluster", "ship_wedged",
               {{"node", opts_.node_id}, {"group", index}});
  }
  if (ship_wedged_.load(std::memory_order_relaxed)) {
    groups_lost_.fetch_add(1, std::memory_order_relaxed);
    notify();
    return;
  }
  if (!shipper_.send(encode_wal_group(seq, ops))) {
    // Broken link and no resync protocol: latch, account, keep serving.
    ship_wedged_.store(true, std::memory_order_relaxed);
    groups_lost_.fetch_add(1, std::memory_order_relaxed);
    obs::logev(obs::LogLevel::kError, "cluster", "ship_failed",
               {{"node", opts_.node_id}, {"seq", seq}});
    notify();
    return;
  }
  groups_shipped_.fetch_add(1, std::memory_order_relaxed);
  if (obs::telemetry_enabled()) cluster_metrics().groups_shipped.inc();
  notify();
}

ServeReport ClusterNode::stop() {
  if (stopped_) return final_report_;

  // 1. Cluster listener and connections first — no new frames.
  listener_.stop();

  // 2. Drain the server; its final flushes still commit, and every commit
  //    still ships through the sink.
  final_report_ = server_.stop();

  // 3. Only now detach the sink and drop the standby link.
  store_->set_commit_sink(nullptr);
  shipper_.close();

  stopped_ = true;
  obs::logev(obs::LogLevel::kInfo, "cluster", "node_stop",
             {{"node", opts_.node_id},
              {"records", records_.load(std::memory_order_relaxed)},
              {"shipped", groups_shipped_.load(std::memory_order_relaxed)},
              {"lost", groups_lost_.load(std::memory_order_relaxed)}});
  return final_report_;
}

ClusterNodeStats ClusterNode::stats() const {
  ClusterNodeStats s;
  s.records = records_.load(std::memory_order_relaxed);
  s.groups_applied = groups_applied_.load(std::memory_order_relaxed);
  s.last_applied_seq = last_applied_seq_.load(std::memory_order_relaxed);
  s.malformed_streams = malformed_streams_.load(std::memory_order_relaxed);
  s.groups_shipped = groups_shipped_.load(std::memory_order_relaxed);
  s.groups_lost = groups_lost_.load(std::memory_order_relaxed);
  s.ship_wedged = ship_wedged_.load(std::memory_order_relaxed);
  return s;
}

void ClusterNode::notify() const {
  { std::lock_guard lock(progress_mutex_); }
  progress_cv_.notify_all();
}

bool ClusterNode::wait_until(const std::function<bool()>& pred,
                             std::chrono::milliseconds timeout) const {
  // Poll on a short tick as well as on notify(): predicates often span
  // this node's stats AND the inner server's counters, and the server has
  // its own condition variable we cannot wait on simultaneously.
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock lock(progress_mutex_);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return pred();
    progress_cv_.wait_for(lock, std::chrono::milliseconds(20));
  }
  return true;
}

}  // namespace seqrtg::serve
