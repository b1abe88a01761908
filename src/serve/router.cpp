#include "serve/router.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

#include "obs/eventlog.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace seqrtg::serve {

namespace {

struct RouterMetrics {
  obs::Counter& forwarded;
  obs::Counter& malformed;
  obs::Counter& failovers;
  obs::Counter& undeliverable;
};

RouterMetrics& router_metrics() {
  auto& reg = obs::default_registry();
  static RouterMetrics m{
      reg.counter("seqrtg_router_forwarded_total",
                  "Records forwarded to a shard node"),
      reg.counter("seqrtg_router_malformed_total",
                  "Ingest lines rejected by the JSON-lines parser"),
      reg.counter("seqrtg_router_failovers_total",
                  "Shards permanently switched to their hot standby"),
      reg.counter("seqrtg_router_undeliverable_total",
                  "Records with no live shard or standby to take them")};
  return m;
}

/// Prometheus-style number rendering, matching obs::to_prometheus so
/// aggregated counters stay integral.
std::string format_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) &&
      std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<std::int64_t>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// Splits one exposition sample line into (series key, value). False for
/// comments, blanks and anything unparseable.
bool parse_sample(std::string_view line, std::string* key, double* value) {
  if (line.empty() || line.front() == '#') return false;
  const std::size_t space = line.rfind(' ');
  if (space == std::string_view::npos || space == 0) return false;
  const std::string number(line.substr(space + 1));
  char* end = nullptr;
  const double v = std::strtod(number.c_str(), &end);
  if (end == number.c_str() || *end != '\0') return false;
  *key = std::string(line.substr(0, space));
  *value = v;
  return true;
}

}  // namespace

std::string aggregate_expositions(const std::vector<std::string>& bodies) {
  if (bodies.empty()) return "";
  // Every shard runs the same binary, so the first body is a structural
  // template: comments and sample ORDER come from it, sample VALUES are
  // summed across all bodies. Series only later bodies expose are
  // appended at the end (HELP/TYPE are optional in the text format).
  std::map<std::string, double> totals;
  std::vector<std::string> extra_order;
  std::set<std::string> seen;
  for (const std::string& body : bodies) {
    for (std::string_view line : util::split(body, '\n')) {
      std::string key;
      double value = 0;
      if (!parse_sample(line, &key, &value)) continue;
      if (seen.insert(key).second && &body != &bodies.front()) {
        extra_order.push_back(key);
      }
      totals[key] += value;
    }
  }
  std::set<std::string> template_keys;
  std::string out;
  for (std::string_view line : util::split(bodies.front(), '\n')) {
    std::string key;
    double value = 0;
    if (!parse_sample(line, &key, &value)) {
      if (!line.empty()) {
        out += line;
        out += '\n';
      }
      continue;
    }
    template_keys.insert(key);
    out += key + " " + format_number(totals[key]) + "\n";
  }
  for (const std::string& key : extra_order) {
    if (template_keys.count(key) != 0) continue;
    out += key + " " + format_number(totals[key]) + "\n";
  }
  return out;
}

Router::Router(RouterOptions opts)
    : opts_(std::move(opts)),
      ring_(opts_.shards.size(), opts_.vnodes),
      http_([this](const std::string& target) {
        HttpResponse response;
        // The query string (if any) is irrelevant to both endpoints.
        const std::string path = target.substr(0, target.find('?'));
        if (path == "/healthz") {
          response.content_type = "application/json";
          response.body = health_json();
        } else if (path == "/metrics") {
          response.content_type = "text/plain; version=0.0.4; charset=utf-8";
          response.body = metrics_text();
        } else {
          response.status = 404;
          response.body = "not found\n";
        }
        return response;
      }) {
  opts_.standbys.resize(opts_.shards.size(), -1);
  opts_.shard_http.resize(opts_.shards.size(), -1);
}

Router::~Router() {
  if (started_.load(std::memory_order_relaxed)) stop();
}

bool Router::promote(ShardLink& link, std::size_t shard) {
  if (link.failed_over) {
    link.dead = true;
    return false;
  }
  const int standby = opts_.standbys[shard];
  if (standby < 0 ||
      !link.client.connect(standby, kPeerRouter, opts_.node_id)) {
    link.dead = true;
    obs::logev(obs::LogLevel::kError, "router", "shard_dead",
               {{"shard", shard}});
    return false;
  }
  link.failed_over = true;
  failovers_.fetch_add(1, std::memory_order_relaxed);
  if (obs::telemetry_enabled()) router_metrics().failovers.inc();
  obs::logev(obs::LogLevel::kWarn, "router", "failover",
             {{"shard", shard},
              {"standby_port", static_cast<std::int64_t>(standby)}});
  return true;
}

bool Router::start(std::string* error) {
  if (opts_.shards.empty()) {
    if (error != nullptr) *error = "route: no shards configured";
    return false;
  }
  for (std::size_t i = 0; i < opts_.shards.size(); ++i) {
    links_.push_back(std::make_unique<ShardLink>());
    ShardLink& link = *links_.back();
    if (!link.client.connect(opts_.shards[i], kPeerRouter, opts_.node_id) &&
        !promote(link, i)) {
      if (error != nullptr) {
        *error = "route: shard " + std::to_string(i) + " (port " +
                 std::to_string(opts_.shards[i]) + ") unreachable";
      }
      links_.clear();
      return false;
    }
  }

  if ((opts_.port >= 0 && !ingest_.bind(opts_.port, error)) ||
      (opts_.http_port >= 0 && !http_.start(opts_.http_port, error))) {
    ingest_.stop();
    links_.clear();
    return false;
  }
  if (opts_.port >= 0) {
    ingest_.start([this](int fd) {
      core::IngestStats stats;
      read_lines(
          fd, [&](std::string_view line) { return ingest_line(line, stats); },
          [this] { note_malformed(); });
    });
  }

  started_.store(true, std::memory_order_relaxed);
  obs::logev(obs::LogLevel::kInfo, "router", "start",
             {{"shards", opts_.shards.size()},
              {"ingest_port", static_cast<std::int64_t>(ingest_port())},
              {"http_port", static_cast<std::int64_t>(http_.port())}});
  return true;
}

void Router::route_record(const core::LogRecord& record) {
  const std::uint64_t index =
      route_index_.fetch_add(1, std::memory_order_relaxed);
  std::size_t shard = ring_.shard_for(record.service);
  if (opts_.route_fault && opts_.route_fault(index)) {
    shard = (shard + 1) % links_.size();
  }
  const std::string frame = encode_record(record);
  ShardLink& link = *links_[shard];
  std::lock_guard lock(link.mutex);
  // Shard peers never write back, so a readable socket is a hangup — the
  // probe turns "first send after a crash silently fills the kernel
  // buffer" into an immediate failover.
  if (!link.dead && link.client.connected() && link.client.peer_dead()) {
    link.client.close();
  }
  bool sent = false;
  if (!link.dead) {
    if (link.client.connected() && link.client.send(frame)) {
      sent = true;
    } else if (promote(link, shard) && link.client.send(frame)) {
      sent = true;
    }
  }
  if (!sent) {
    link.dead = true;
    undeliverable_.fetch_add(1, std::memory_order_relaxed);
    if (obs::telemetry_enabled()) router_metrics().undeliverable.inc();
    return;
  }
  forwarded_.fetch_add(1, std::memory_order_relaxed);
  link.forwarded.fetch_add(1, std::memory_order_relaxed);
  if (obs::telemetry_enabled()) router_metrics().forwarded.inc();
}

bool Router::ingest_line(std::string_view line, core::IngestStats& stats) {
  if (stopping_.load(std::memory_order_relaxed)) return false;
  auto record = core::JsonStreamIngester::parse_and_count_line(line, stats);
  if (!record.has_value()) {
    if (!util::trim(line).empty()) note_malformed();
    return true;
  }
  route_record(*record);
  return true;
}

void Router::note_malformed() {
  malformed_.fetch_add(1, std::memory_order_relaxed);
  if (obs::telemetry_enabled()) router_metrics().malformed.inc();
}

void Router::feed(std::istream& in) {
  core::IngestStats stats;
  std::string line;
  while (!stopping_.load(std::memory_order_relaxed) &&
         std::getline(in, line)) {
    if (!ingest_line(line, stats)) break;
  }
}

RouterReport Router::stop() {
  if (stopped_) return final_report_;
  stopping_.store(true, std::memory_order_relaxed);
  ingest_.stop();

  RouterReport report;
  report.forwarded = forwarded_.load(std::memory_order_relaxed);
  report.malformed = malformed_.load(std::memory_order_relaxed);
  report.failovers = failovers_.load(std::memory_order_relaxed);
  report.undeliverable = undeliverable_.load(std::memory_order_relaxed);
  for (const auto& link : links_) {
    report.per_shard.push_back(
        link->forwarded.load(std::memory_order_relaxed));
    std::lock_guard lock(link->mutex);
    link->client.close();  // FIN: tells the shard this producer is done
  }

  http_.stop();
  final_report_ = report;
  stopped_ = true;
  obs::logev(obs::LogLevel::kInfo, "router", "stop",
             {{"forwarded", report.forwarded},
              {"failovers", report.failovers},
              {"undeliverable", report.undeliverable}});
  return report;
}

std::string Router::health_json() const {
  bool degraded = false;
  util::JsonArray shards;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    ShardLink& link = *links_[i];
    util::JsonObject entry;
    entry["shard"] = static_cast<std::uint64_t>(i);
    entry["cluster_port"] = static_cast<std::int64_t>(opts_.shards[i]);
    entry["forwarded"] = link.forwarded.load(std::memory_order_relaxed);
    {
      std::lock_guard lock(link.mutex);
      entry["failed_over"] = link.failed_over;
      entry["dead"] = link.dead;
      if (link.failed_over || link.dead) degraded = true;
    }
    const int http_port = opts_.shard_http[i];
    if (http_port >= 0) {
      if (auto body = http_get(http_port, "/healthz")) {
        if (auto parsed = util::json_parse(*body); parsed.ok()) {
          entry["health"] = parsed.value;
        } else {
          entry["health"] = nullptr;
        }
      } else {
        entry["health"] = nullptr;
        degraded = true;
      }
    }
    shards.emplace_back(std::move(entry));
  }
  util::JsonObject doc;
  doc["status"] = degraded ? "degraded" : "ok";
  doc["node"] = opts_.node_id;
  doc["forwarded"] = forwarded_.load(std::memory_order_relaxed);
  doc["malformed"] = malformed_.load(std::memory_order_relaxed);
  doc["failovers"] = failovers_.load(std::memory_order_relaxed);
  doc["undeliverable"] = undeliverable_.load(std::memory_order_relaxed);
  doc["shards"] = std::move(shards);
  return util::Json(std::move(doc)).dump();
}

std::string Router::metrics_text() const {
  std::vector<std::string> bodies;
  bodies.push_back(obs::to_prometheus(obs::default_registry()));
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const int http_port = opts_.shard_http[i];
    if (http_port < 0) continue;
    if (auto body = http_get(http_port, "/metrics")) {
      bodies.push_back(std::move(*body));
    }
  }
  return aggregate_expositions(bodies);
}

}  // namespace seqrtg::serve
