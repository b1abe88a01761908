#include "serve_run.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "proc.hpp"
#include "serve/http.hpp"
#include "store/pattern_store.hpp"
#include "testkit/canonical.hpp"
#include "util/json.hpp"

namespace servebench {

namespace sq = seqrtg;

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (rank - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

namespace {

/// Stop waiting for commits after this long without any lane advancing.
constexpr double kStallSeconds = 10.0;
/// /debug/lanes poll period per phase: coarse while saturated (it only
/// detects the end and costs server CPU), fine while latency is measured.
constexpr double kSatPollSeconds = 0.010;
constexpr double kOpenPollSeconds = 0.004;
/// Records in flight (sent, not yet committed) in the saturated phase.
constexpr std::uint64_t kSatWindow = 2 * kLanes * kBatch;
/// Saturated rounds per run (each on a fresh deployment).
constexpr int kSatRounds = 5;
/// Blocks of set-up-only launches: one before each saturated round and one
/// after the final stop.
constexpr int kSetupBlocks = kSatRounds + 1;
/// Longest the open loop goes on sending, unsampled, after its samples.
constexpr double kOpenTailSeconds = 5.0;

struct Server {
  Child proc;
  int ingest_port = -1;
  int http_port = -1;
  int cluster_port = -1;
  std::string err_path;
};

int port_after(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return -1;
  return std::atoi(line.c_str() + at + key.size());
}

std::string tail_of(const std::string& path) {
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  if (all.size() > 2000) all = all.substr(all.size() - 2000);
  return all;
}

/// Spawns `seqrtg serve` on `store_dir` and waits for its "serving" line.
bool launch(const ServeRunConfig& cfg, const std::string& store_dir,
            bool standby, int ship_to, const std::string& err_path,
            Server* s, std::string* error) {
  std::vector<std::string> argv = {
      cfg.seqrtg, "serve", "--store-dir", store_dir, "--http-port", "0",
      "--lanes", std::to_string(kLanes), "--batch", std::to_string(kBatch),
      "--overflow", "block", "--log-level", "warn"};
  if (standby) {
    argv.insert(argv.end(), {"--port", "-1", "--cluster-port", "0"});
  } else {
    argv.insert(argv.end(), {"--port", "0"});
    if (cfg.spec->mem_ceiling > 0) {
      argv.insert(argv.end(),
                  {"--mem-ceiling", std::to_string(cfg.spec->mem_ceiling)});
    }
    if (ship_to >= 0) {
      argv.insert(argv.end(), {"--ship-to", std::to_string(ship_to)});
    }
  }
  s->err_path = err_path;
  if (!s->proc.spawn(argv, err_path)) {
    *error = "cannot spawn " + cfg.seqrtg;
    return false;
  }
  for (;;) {
    const std::optional<std::string> line = s->proc.read_line(120.0);
    if (!line.has_value()) {
      *error = "server exited before serving: " + tail_of(err_path);
      return false;
    }
    if (line->rfind("serving", 0) == 0) {
      s->ingest_port = port_after(*line, "ingest on 127.0.0.1:");
      s->cluster_port = port_after(*line, "cluster on 127.0.0.1:");
      s->http_port = port_after(*line, "metrics on 127.0.0.1:");
      return true;
    }
  }
}

/// A running primary (plus standby), its ingest connection and the time
/// from the first spawn until the ingest port accepted.
struct Deployment {
  Server standby;
  Server primary;
  int fd = -1;
  double setup_s = 0.0;

  ~Deployment() {
    if (fd >= 0) ::close(fd);
  }
};

bool deploy(const ServeRunConfig& cfg, const std::string& dir,
            Deployment* d, std::string* error) {
  const std::string primary_dir = dir + "/primary";
  if (!make_dirs(dir)) {
    *error = "cannot create " + dir;
    return false;
  }
  if (cfg.spec->warm_records > 0 &&
      !copy_tree(cfg.work_dir + "/template", primary_dir)) {
    *error = "cannot copy the premined store";
    return false;
  }
  const double t0 = now_s();
  int ship_to = -1;
  if (cfg.spec->standby) {
    if (!launch(cfg, dir + "/standby", true, -1, dir + "/standby.err",
                &d->standby, error)) {
      return false;
    }
    ship_to = d->standby.cluster_port;
  }
  if (!launch(cfg, primary_dir, false, ship_to, dir + "/primary.err",
              &d->primary, error)) {
    return false;
  }
  d->fd = connect_loopback(d->primary.ingest_port);
  d->setup_s = now_s() - t0;
  if (d->fd < 0) {
    *error = "cannot connect to the ingest port";
    return false;
  }
  return true;
}

struct DrainReport {
  std::uint64_t accepted = 0, processed = 0, malformed = 0, dropped = 0;
  std::uint64_t shipped = 0;
  bool seen = false;
};

std::uint64_t number_before(const std::string& line, const std::string& what) {
  const std::size_t at = line.find(what);
  if (at == std::string::npos) return 0;
  std::size_t begin = at;
  while (begin > 0 && line[begin - 1] == ' ') --begin;
  std::size_t start = begin;
  while (start > 0 &&
         std::isdigit(static_cast<unsigned char>(line[start - 1]))) {
    --start;
  }
  return std::strtoull(line.substr(start, begin - start).c_str(), nullptr, 10);
}

/// SIGTERM, then reads the drain report off stdout and reaps the process.
DrainReport stop_server(Server& s) {
  DrainReport r;
  s.proc.terminate();
  while (const std::optional<std::string> line = s.proc.read_line(120.0)) {
    if (line->rfind("drained:", 0) == 0) {
      r.seen = true;
      r.accepted = number_before(*line, " accepted");
      r.processed = number_before(*line, " processed");
      r.malformed = number_before(*line, " malformed");
      r.dropped = number_before(*line, " dropped");
    } else if (line->rfind("cluster:", 0) == 0) {
      r.shipped = number_before(*line, " shipped");
    }
  }
  s.proc.wait(60.0);
  return r;
}

struct LaneSample {
  double t = 0.0;
  std::uint64_t pushed[kLanes] = {};
  std::uint64_t flushed[kLanes] = {};
  std::uint64_t flushes[kLanes] = {};
};

std::optional<LaneSample> fetch_lanes(int http_port) {
  const std::optional<std::string> body =
      sq::serve::http_get(http_port, "/debug/lanes", 5000);
  const double t = now_s();
  if (!body.has_value()) return std::nullopt;
  const sq::util::JsonParseResult doc = sq::util::json_parse(*body);
  if (!doc.ok()) return std::nullopt;
  const sq::util::Json* lanes = doc.value.find("lanes");
  if (lanes == nullptr || !lanes->is_array() ||
      lanes->as_array().size() != kLanes) {
    return std::nullopt;
  }
  LaneSample s;
  s.t = t;
  for (std::size_t l = 0; l < kLanes; ++l) {
    const sq::util::Json& lane = lanes->as_array()[l];
    auto field = [&](const char* key) -> std::uint64_t {
      const sq::util::Json* v = lane.find(key);
      return v != nullptr && v->is_number()
                 ? static_cast<std::uint64_t>(v->as_number())
                 : 0;
    };
    s.pushed[l] = field("pushed");
    s.flushed[l] = field("flushed_records");
    s.flushes[l] = field("flushes");
  }
  return s;
}

/// Polls /debug/lanes on its own thread; the phases wait on its samples.
class Poller {
 public:
  Poller(int http_port, double interval_s)
      : port_(http_port), interval_(interval_s),
        thread_([this] { loop(); }) {}
  ~Poller() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Blocks until every lane has flushed at least `target`; returns that
  /// sample, or nullopt when no lane advanced for kStallSeconds.
  std::optional<LaneSample> wait_flushed(const std::uint64_t* target) {
    std::unique_lock lock(mutex_);
    std::uint64_t last_total = 0;
    double last_progress = now_s();
    std::size_t seen = 0;
    for (;;) {
      for (; seen < samples_.size(); ++seen) {
        const LaneSample& s = samples_[seen];
        bool done = true;
        std::uint64_t total = 0;
        for (std::size_t l = 0; l < kLanes; ++l) {
          done = done && s.flushed[l] >= target[l];
          total += s.flushed[l];
        }
        if (done) return s;
        if (total != last_total) {
          last_total = total;
          last_progress = s.t;
        }
      }
      if (now_s() - last_progress > kStallSeconds) return std::nullopt;
      cv_.wait_for(lock, std::chrono::milliseconds(50));
    }
  }

  /// Whether the latest poll shows every lane at `target` or beyond.
  bool covers(const std::uint64_t* target) {
    std::lock_guard lock(mutex_);
    if (samples_.empty()) return false;
    for (std::size_t l = 0; l < kLanes; ++l) {
      if (samples_.back().flushed[l] < target[l]) return false;
    }
    return true;
  }

  std::vector<LaneSample> samples() {
    std::lock_guard lock(mutex_);
    return samples_;
  }

  /// Records flushed across all lanes at the latest poll.
  std::uint64_t committed() const {
    return committed_.load(std::memory_order_acquire);
  }

 private:
  void loop() {
    std::unique_lock lock(mutex_);
    while (!stop_) {
      lock.unlock();
      std::optional<LaneSample> s = fetch_lanes(port_);
      lock.lock();
      if (s.has_value()) {
        std::uint64_t total = 0;
        for (std::size_t l = 0; l < kLanes; ++l) total += s->flushed[l];
        committed_.store(total, std::memory_order_release);
        samples_.push_back(*s);
        cv_.notify_all();
      }
      cv_.wait_for(lock, std::chrono::duration<double>(interval_),
                   [this] { return stop_; });
    }
  }

  int port_;
  double interval_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<LaneSample> samples_;
  std::atomic<std::uint64_t> committed_{0};
  std::thread thread_;
};

double server_cpu(Deployment& d) {
  double cpu = d.primary.proc.cpu_s();
  if (d.standby.proc.running()) cpu += d.standby.proc.cpu_s();
  return cpu;
}

/// Records each lane receives in one saturated round: its share of
/// sat_rate * sat_seconds / kSatRounds records, rounded up to whole
/// batches, so that each lane's last flush is a full one. The shares are
/// counted on a fixed sample of the workload's stream (seed 0) and stored
/// in r->lane_share: counted on each seed's own records, a lane's batch
/// count flipped between seeds, and so did the work of a round.
std::vector<std::uint64_t> lane_targets(const ServeRunConfig& cfg,
                                        ServeRunResult* r) {
  constexpr std::size_t kSample = 100000;
  RecordSource sample(*cfg.spec, 0);
  std::vector<std::uint64_t> count(kLanes, 0);
  for (std::size_t i = 0; i < kSample; ++i) {
    ++count[lane_of(sample.next().service)];
  }
  const double round = cfg.spec->sat_rate * cfg.sat_seconds / kSatRounds;
  std::vector<std::uint64_t> target(kLanes);
  r->lane_share.assign(kLanes, 0.0);
  for (std::size_t l = 0; l < kLanes; ++l) {
    r->lane_share[l] = static_cast<double>(count[l]) / kSample;
    const double batches = std::ceil(round * r->lane_share[l] / kBatch);
    target[l] = kBatch * std::max<std::uint64_t>(
                             1, static_cast<std::uint64_t>(batches));
  }
  return target;
}

/// One saturated round on a fresh deployment: sends each lane its target
/// number of records, taken in stream order (a record whose lane is full
/// is skipped) and encoded before the clock starts, as fast as the socket
/// accepts, with at most kSatWindow records sent but not yet committed;
/// then waits for the last commit. Every round of a run therefore does the
/// same work from the same starting store, and the medians over rounds are
/// medians of repeated trials. (The per-record cost grows with the store,
/// so rounds that continued one store, or a time-bounded phase, would
/// compare different work.) The window keeps every lane busy (one batch in
/// analysis, one queued) without piling megabytes into socket buffers that
/// the round would then have to drain.
bool saturated_round(const ServeRunConfig& cfg,
                     const std::vector<std::uint64_t>& target, Deployment& d,
                     RecordSource& source, ServeRunResult* r,
                     std::uint64_t* lane_counts, std::string* error) {
  Poller poller(d.primary.http_port, kSatPollSeconds);
  std::uint64_t sent = 0;
  std::vector<std::string>& chunks = r->sat_input;
  chunks.clear();
  r->sat_lanes.clear();
  auto full = [&] {
    for (std::size_t l = 0; l < kLanes; ++l) {
      if (lane_counts[l] < target[l]) return false;
    }
    return true;
  };
  std::vector<std::uint64_t> chunk_end;  // `sent` after each chunk
  while (!full()) {
    const sq::core::LogRecord& rec = source.next();
    const std::size_t lane = lane_of(rec.service);
    if (lane_counts[lane] == target[lane]) continue;
    if (chunks.empty() || chunks.back().size() >= 64 * 1024) {
      chunks.emplace_back();
      chunk_end.push_back(sent);
    }
    if (static_cast<std::int64_t>(sent) != cfg.plant_skip) {
      chunks.back() += sq::core::record_to_json(rec);
      chunks.back() += '\n';
      r->sat_lanes.push_back(static_cast<std::uint8_t>(lane));
    }
    ++lane_counts[lane];
    chunk_end.back() = ++sent;
  }
  const double cpu0 = server_cpu(d);
  const double t_first = now_s();
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    while (chunk_end[c] > poller.committed() + kSatWindow) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (!send_all(d.fd, chunks[c])) {
      *error = "ingest connection closed during the saturated phase";
      return false;
    }
  }
  const std::optional<LaneSample> last = poller.wait_flushed(lane_counts);
  const double cpu1 = server_cpu(d);
  r->sat_records = sent;
  r->sent = sent;
  if (!last.has_value()) {
    r->failures.push_back("saturated phase: commits stalled below the " +
                          std::to_string(sent) + " records sent");
    return true;
  }
  const auto records = static_cast<double>(sent);
  r->sat_rates.push_back(records / (last->t - t_first));
  r->sat_cpu_us.push_back((cpu1 - cpu0) * 1e6 / records);
  r->sat_cpu_s.push_back(cpu1 - cpu0);
  return true;
}

/// Open loop at spec.open_rate: open_seconds of latency samples, then more
/// records at the same rate, not sampled, until every sampled record is
/// committed. Without that tail, each lane's last partial batch would wait
/// for the flush-interval timer with no load behind it: a phase-end delay
/// the steady state never shows.
bool open_phase(const ServeRunConfig& cfg, Deployment& d, RecordSource& source,
                ServeRunResult* r, std::uint64_t* lane_counts,
                std::string* error) {
  const double rate = cfg.spec->open_rate;
  const auto n =
      static_cast<std::size_t>(std::llround(rate * cfg.open_seconds));
  const std::size_t total =
      n + static_cast<std::size_t>(std::llround(rate * kOpenTailSeconds));
  std::string bytes;
  std::vector<std::size_t> end(total);
  std::vector<std::uint8_t> lane(total);
  for (std::size_t i = 0; i < total; ++i) {
    const sq::core::LogRecord& rec = source.next();
    lane[i] = static_cast<std::uint8_t>(lane_of(rec.service));
    bytes += sq::core::record_to_json(rec);
    bytes += '\n';
    end[i] = bytes.size();
  }
  std::uint64_t base[kLanes];
  std::uint64_t sampled[kLanes];
  std::copy(lane_counts, lane_counts + kLanes, base);
  std::copy(lane_counts, lane_counts + kLanes, sampled);
  for (std::size_t i = 0; i < n; ++i) ++sampled[lane[i]];

  Poller poller(d.primary.http_port, kOpenPollSeconds);
  const double t0 = now_s() + 0.05;
  auto scheduled = [&](std::size_t i) {
    return t0 + static_cast<double>(i) / rate;
  };
  std::size_t next = 0;
  double lateness = 0.0;
  double t_sent = 0.0;  // when the last sampled record went out
  while (next < total && (next < n || !poller.covers(sampled))) {
    const double now = now_s();
    if (now < scheduled(next)) {
      const double wait = std::min(scheduled(next) - now, 0.0005);
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      continue;
    }
    std::size_t due = static_cast<std::size_t>((now - t0) * rate) + 1;
    due = std::min(std::max(due, next + 1), total);
    lateness = std::max(lateness, now - scheduled(next));
    const std::size_t from = next == 0 ? 0 : end[next - 1];
    if (!send_all(d.fd, bytes.substr(from, end[due - 1] - from))) {
      *error = "ingest connection closed during the open-loop phase";
      return false;
    }
    for (std::size_t i = next; i < due; ++i) ++lane_counts[lane[i]];
    if (next < n && due >= n) t_sent = now_s();
    next = due;
  }
  r->sent += next;
  r->open_records = n;
  r->open_tail_records = next - n;
  r->open_rate = rate;
  r->lateness_max_ms = lateness * 1e3;
  // The tail's own commits are left to the drain at stop.
  if (!poller.wait_flushed(sampled).has_value()) {
    r->failures.push_back("open-loop phase: commits stalled");
  }
  const std::vector<LaneSample> samples = poller.samples();
  r->polls = samples.size();

  // Latency: sweep each lane's records against the monotone flushed
  // counter of the polls, in time order.
  r->latency_ms.clear();
  r->latency_ms.reserve(n);
  for (std::size_t l = 0; l < kLanes; ++l) {
    std::size_t s = 0;
    std::uint64_t k = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (lane[i] != l) continue;
      ++k;
      while (s < samples.size() && samples[s].flushed[l] < base[l] + k) ++s;
      if (s == samples.size()) break;  // never committed: counted as failed
      r->latency_ms.push_back((samples[s].t - scheduled(i)) * 1e3);
    }
  }
  std::sort(r->latency_ms.begin(), r->latency_ms.end());

  // Backlog (accepted but not yet flushed) across the send window.
  const double span = t_sent - t0;
  double first_sum = 0, last_sum = 0;
  std::size_t first_n = 0, last_n = 0;
  const LaneSample* first_sample = nullptr;
  for (const LaneSample& s : samples) {
    if (s.t < t0) continue;
    if (first_sample == nullptr) first_sample = &s;
    if (s.t > t_sent) continue;
    std::uint64_t backlog = 0;
    for (std::size_t l = 0; l < kLanes; ++l) {
      // pushed is read before flushed_records, so a flush in between can
      // make the pair momentarily inconsistent.
      backlog += s.pushed[l] > s.flushed[l] ? s.pushed[l] - s.flushed[l] : 0;
    }
    r->backlog_max = std::max(r->backlog_max, backlog);
    if (s.t < t0 + span / 3) {
      first_sum += static_cast<double>(backlog);
      ++first_n;
    } else if (s.t > t_sent - span / 3) {
      last_sum += static_cast<double>(backlog);
      ++last_n;
    }
  }
  auto mean = [](double sum, std::size_t count) {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  };
  r->backlog_first_third = mean(first_sum, first_n);
  r->backlog_last_third = mean(last_sum, last_n);
  // Sustainable: the backlog stayed flat and the samples were committed
  // before the tail ran out.
  r->sustainable = r->backlog_last_third - r->backlog_first_third <=
                       static_cast<double>(kLanes * kBatch) &&
                   next < total;
  if (first_sample != nullptr && !samples.empty()) {
    std::uint64_t records = 0, flushes = 0;
    for (std::size_t l = 0; l < kLanes; ++l) {
      records += samples.back().flushed[l] - first_sample->flushed[l];
      flushes += samples.back().flushes[l] - first_sample->flushes[l];
    }
    r->records_per_flush = flushes > 0 ? static_cast<double>(records) /
                                             static_cast<double>(flushes)
                                       : 0.0;
  }
  return true;
}

/// Σ match_count over every partition of a cold-opened store.
bool count_matches(const std::string& dir, std::uint64_t* total,
                   std::string* canonical) {
  sq::store::PatternStore store;
  if (!store.open(dir)) return false;
  *total = 0;
  for (const std::string& service : store.services()) {
    for (const sq::core::Pattern& p : store.load_service(service)) {
      *total += p.stats.match_count;
    }
  }
  if (canonical != nullptr) *canonical = sq::testkit::canonical_patterns(store);
  return true;
}

std::optional<std::uint64_t> standby_applied(int http_port) {
  const std::optional<std::string> body =
      sq::serve::http_get(http_port, "/metrics", 5000);
  if (!body.has_value()) return std::nullopt;
  const std::string key = "\nseqrtg_cluster_groups_applied_total ";
  const std::size_t at = body->find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(body->c_str() + at + key.size(), nullptr, 10);
}

}  // namespace

bool run_serve(const ServeRunConfig& cfg, ServeRunResult* r,
               std::string* error) {
  const WorkloadSpec& spec = *cfg.spec;
  if (spec.warm_records > 0) {
    r->template_dir = cfg.work_dir + "/template";
    if (!premine(spec, cfg.seed, r->template_dir, spec.warm_records)) {
      *error = "premining the warm store failed";
      return false;
    }
  }

  // Launches that only time the set-up, in kSetupBlocks blocks spread over
  // the run: before the saturated rounds, between them and after the final
  // stop. An empty-store set-up is a process start of a few ms whose time
  // drifts with the host's state over seconds, so each block repeats for
  // its share of the time budget and setup_s is the median of them all.
  int launches = 0;
  auto setup_block = [&]() -> bool {
    const double end = now_s() + cfg.setup_budget_s / kSetupBlocks;
    const int min = (cfg.setup_min_launches + kSetupBlocks - 1) / kSetupBlocks;
    for (int i = 0; i < min || now_s() < end; ++i) {
      const std::string dir =
          cfg.work_dir + "/setup-" + std::to_string(launches++);
      {
        Deployment d;
        if (!deploy(cfg, dir, &d, error)) return false;
        r->setup_s.push_back(d.setup_s);
        ::close(d.fd);
        d.fd = -1;
        stop_server(d.primary);
        if (spec.standby) stop_server(d.standby);
      }
      remove_tree(dir);
    }
    return true;
  };

  // Saturated rounds, each on a fresh deployment of the starting store; the
  // last deployment goes on to the open-loop phase and the checks.
  const std::string dir = cfg.work_dir + "/run";
  const std::vector<std::uint64_t> target = lane_targets(cfg, r);
  Deployment d;
  std::uint64_t lane_counts[kLanes] = {0, 0};
  std::optional<RecordSource> source;
  for (int round = 0; round < kSatRounds; ++round) {
    if (round > 0) {
      ::close(d.fd);
      d.fd = -1;
      stop_server(d.primary);
      if (spec.standby) stop_server(d.standby);
      remove_tree(dir);
    }
    if (!setup_block()) return false;
    if (!deploy(cfg, dir, &d, error)) return false;
    r->setup_s.push_back(d.setup_s);
    source.emplace(spec, cfg.seed);
    for (std::size_t i = 0; i < spec.warm_records; ++i) source->next();
    std::fill(lane_counts, lane_counts + kLanes, 0);
    if (!saturated_round(cfg, target, d, *source, r, lane_counts, error)) {
      return false;
    }
  }
  if (!open_phase(cfg, d, *source, r, lane_counts, error)) return false;

  r->peak_rss_mib = d.primary.proc.hwm_mib();
  if (spec.standby) r->peak_rss_mib += d.standby.proc.hwm_mib();
  ::close(d.fd);
  d.fd = -1;
  const DrainReport primary = stop_server(d.primary);
  if (!primary.seen) {
    *error = "primary printed no drain report: " + tail_of(d.primary.err_path);
    return false;
  }
  r->accepted = primary.accepted;
  r->processed = primary.processed;
  r->malformed = primary.malformed;
  r->dropped = primary.dropped;
  r->groups_shipped = primary.shipped;
  r->shed = primary.accepted - std::min(primary.accepted,
                                        primary.processed + primary.dropped);
  if (spec.standby) {
    // The primary detaches its shipper only after its last commit; wait
    // until the standby applied every shipped group, then drain it.
    const double deadline = now_s() + 60.0;
    while (now_s() < deadline) {
      const std::optional<std::uint64_t> applied =
          standby_applied(d.standby.http_port);
      if (applied.has_value() && *applied >= primary.shipped) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    stop_server(d.standby);
  }
  if (!setup_block()) return false;

  // Output checks on cold-opened stores.
  if (r->malformed != 0) {
    r->failures.push_back(std::to_string(r->malformed) + " malformed records");
  }
  std::uint64_t total = 0;
  std::string primary_canon;
  if (!count_matches(dir + "/primary", &total,
                     spec.standby ? &primary_canon : nullptr)) {
    *error = "cannot reopen the primary store";
    return false;
  }
  r->conserved = total >= spec.warm_records ? total - spec.warm_records : 0;
  if (total != spec.warm_records + r->sent) {
    r->failures.push_back(
        "conservation: the store counts " + std::to_string(total) +
        " matches, expected " + std::to_string(spec.warm_records) +
        " warm + " + std::to_string(r->sent) + " sent");
  }
  if (spec.standby) {
    std::uint64_t standby_total = 0;
    std::string standby_canon;
    if (!count_matches(dir + "/standby", &standby_total, &standby_canon)) {
      *error = "cannot reopen the standby store";
      return false;
    }
    if (standby_canon != primary_canon) {
      r->failures.push_back(
          "standby diverges from primary: " +
          sq::testkit::first_diff(primary_canon, standby_canon));
    }
  }
  return true;
}

}  // namespace servebench
