#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <sstream>
#include <string_view>

#include "obs/build_info.hpp"
#include "obs/eventlog.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cpuid.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace seqrtg::serve {

namespace {

struct ServeMetrics {
  obs::Counter& accepted;
  obs::Counter& dropped;
  obs::Counter& processed;
  obs::Counter& flushes;
  obs::Counter& connections;
  obs::Histogram& flush_seconds;
};

ServeMetrics& serve_metrics() {
  auto& reg = obs::default_registry();
  static ServeMetrics m{
      reg.counter("seqrtg_serve_accepted_total",
                  "Records parsed and enqueued onto a worker lane"),
      reg.counter("seqrtg_serve_dropped_total",
                  "Records rejected by a full lane queue (drop policy)"),
      reg.counter("seqrtg_serve_processed_total",
                  "Records analyzed by the lane workers"),
      reg.counter("seqrtg_serve_flushes_total",
                  "Lane mini-batch analysis flushes"),
      reg.counter("seqrtg_serve_connections_total",
                  "Ingest socket connections accepted"),
      reg.histogram("seqrtg_serve_flush_seconds",
                    "Latency of one lane flush (analysis + repo save)")};
  return m;
}

obs::Gauge& lane_depth_gauge(std::size_t lane) {
  return obs::default_registry().gauge(
      "seqrtg_serve_queue_depth", "Records waiting in a lane queue",
      {{"lane", std::to_string(lane)}});
}

/// Strict non-negative integer parse for query parameters. Rejects empty
/// strings, signs, trailing junk ("10abc") and out-of-range values — the
/// old strtoull-with-nullptr-endptr parse silently treated all of those as
/// valid numbers (e.g. ?top=abc became top=0, hiding every pattern).
bool parse_u64_param(const std::string& value, std::uint64_t* out) {
  if (value.empty() || value[0] == '-' || value[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (errno == ERANGE || end == value.c_str() || *end != '\0') return false;
  *out = static_cast<std::uint64_t>(parsed);
  return true;
}

HttpResponse bad_request(const std::string& detail) {
  HttpResponse response;
  response.status = 400;
  response.content_type = "text/plain";
  response.body = "bad request: " + detail + "\n";
  return response;
}

/// First value of `key` in an "a=1&b=2" query string; empty when absent.
std::string query_param(std::string_view query, std::string_view key) {
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    const std::string_view pair =
        query.substr(0, amp == std::string_view::npos ? query.size() : amp);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return std::string(pair.substr(eq + 1));
    }
    if (amp == std::string_view::npos) break;
    query.remove_prefix(amp + 1);
  }
  return "";
}

}  // namespace

Server::Server(store::PatternStore* store, ServeOptions opts)
    : store_(store), opts_(std::move(opts)),
      clock_(opts_.clock != nullptr ? opts_.clock : &util::Clock::system()),
      http_([this](const std::string& path) { return handle_http(path); }) {
  if (opts_.lanes == 0) opts_.lanes = 1;
  if (opts_.batch_size == 0) opts_.batch_size = 1;
  if (opts_.flush_interval_s <= 0.0) opts_.flush_interval_s = 1.0;
  // Coldness runs on the serve clock unless the policy injects its own —
  // one ManualClock then drives flush deadlines AND spill eligibility.
  if (opts_.governor.clock == nullptr) opts_.governor.clock = clock_;
  governor_ = std::make_unique<core::Governor>(opts_.governor, &accountant_);
}

Server::~Server() {
  if (started_.load(std::memory_order_relaxed)) stop();
}

bool Server::start(std::string* error) {
  // Writers hit closed sockets during shutdown races; never die on SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);

  // Arm the process tracer so /debug/trace always has a window of recent
  // spans to dump (rings are fixed-size; this is cheap and unconditional).
  // When the CLI armed it already (--trace-out), leave that capture alone.
  if (!obs::tracer().enabled()) {
    obs::TracerConfig trace_config;
    trace_config.clock = opts_.clock;
    obs::tracer().start(trace_config);
    armed_tracer_ = true;
  }

  for (std::size_t i = 0; i < opts_.lanes; ++i) {
    lanes_.push_back(
        std::make_unique<Lane>(opts_.queue_capacity, opts_.overflow));
    if (opts_.queue_fault) {
      // Per-queue attempt indexes would depend on the service->lane hash,
      // so the scripted fault is driven by one global arrival-order index
      // instead: drop@N always means the N-th parsed record, regardless
      // of which lane it sharded to.
      lanes_.back()->queue.set_fault([this](std::uint64_t) {
        return opts_.queue_fault(
            fault_index_.fetch_add(1, std::memory_order_relaxed));
      });
    }
  }

  if ((opts_.port >= 0 && !ingest_.bind(opts_.port, error)) ||
      (opts_.http_port >= 0 && !http_.start(opts_.http_port, error))) {
    ingest_.stop();
    lanes_.clear();
    return false;
  }

  // Restore the evolution value sketches BEFORE any lane can observe a
  // match, so restored and fresh observations never race.
  load_sketches();

  // Governance: the store reports every partition's bytes through our
  // accountant from here on (and seeds the ledger with what it already
  // holds); lanes enforce the ceiling at their per-service safe points.
  store_->attach_governor(governor_.get());

  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    lanes_[i]->worker = std::thread([this, i] { lane_loop(i); });
  }
  if (opts_.port >= 0) {
    ingest_.start([this](int fd) { connection_loop(fd); });
  }
  if (opts_.checkpoint_interval_s > 0.0 && store_->durable()) {
    checkpoint_thread_ = std::thread([this] { checkpoint_loop(); });
  }
  if (opts_.evolution_interval_s > 0.0) {
    evolution_thread_ = std::thread([this] { evolution_loop(); });
  }
  started_.store(true, std::memory_order_relaxed);
  obs::logev(obs::LogLevel::kInfo, "serve", "start",
             {{"build", obs::build_info_string()},
              {"lanes", lanes_.size()},
              {"ingest_port", static_cast<std::int64_t>(ingest_port())},
              {"http_port", static_cast<std::int64_t>(http_.port())},
              {"durable", store_->durable()}});
  return true;
}

bool Server::ingest_line(std::string_view line, core::IngestStats& stats) {
  if (stopping_.load(std::memory_order_relaxed)) return false;
  auto record = core::JsonStreamIngester::parse_and_count_line(line, stats);
  if (!record.has_value()) {
    if (!util::trim(line).empty()) note_malformed();
    return true;
  }
  return ingest_record(std::move(*record));
}

void Server::note_malformed() {
  malformed_.fetch_add(1, std::memory_order_relaxed);
  notify_progress();
}

bool Server::ingest_record(core::LogRecord record) {
  if (stopping_.load(std::memory_order_relaxed)) return false;
  // Admission control: while the governor is overloaded (over ceiling and
  // nothing left to spill) new records are acknowledged but shed, with
  // exact accounting — accepted == processed + shed holds after the drain.
  if (governor_->overloaded()) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    governor_->note_shed();
    obs::logev(obs::LogLevel::kWarn, "serve", "shed",
               {{"service", record.service}});
    notify_progress();
    return true;
  }
  const std::size_t lane =
      std::hash<std::string>{}(record.service) % lanes_.size();
  switch (lanes_[lane]->queue.push(std::move(record))) {
    case util::PushStatus::kOk:
      if (obs::telemetry_enabled()) serve_metrics().accepted.inc();
      notify_progress();
      return true;
    case util::PushStatus::kDropped:
      // Rejected by the kDrop policy — the daemon keeps serving. The event
      // log's per-key rate limit keeps a drop storm to a few lines/second.
      if (obs::telemetry_enabled()) serve_metrics().dropped.inc();
      obs::logev(obs::LogLevel::kWarn, "serve", "lane_drop",
                 {{"lane", lane},
                  {"depth", lanes_[lane]->queue.size()}});
      notify_progress();
      return true;
    case util::PushStatus::kClosed:
      break;
  }
  // push failed because the queue closed: the drain has started.
  return false;
}

void Server::notify_progress() const {
  // Take (and release) the lock so a waiter between its predicate check
  // and the wait cannot miss this wakeup.
  { std::lock_guard lock(progress_mutex_); }
  progress_cv_.notify_all();
}

bool Server::wait_until(const std::function<bool()>& pred,
                        std::chrono::milliseconds timeout) const {
  std::unique_lock lock(progress_mutex_);
  return progress_cv_.wait_for(lock, timeout, [&] { return pred(); });
}

void Server::feed(std::istream& in) {
  core::IngestStats stats;
  std::string line;
  while (!stopping_.load(std::memory_order_relaxed) &&
         std::getline(in, line)) {
    if (!ingest_line(line, stats)) break;
  }
}

void Server::connection_loop(int fd) {
  connections_.fetch_add(1, std::memory_order_relaxed);
  if (obs::telemetry_enabled()) serve_metrics().connections.inc();
  core::IngestStats stats;
  read_lines(
      fd, [&](std::string_view line) { return ingest_line(line, stats); },
      [this] { note_malformed(); });
}

void Server::lane_loop(std::size_t index) {
  const std::string thread_name = "lane-" + std::to_string(index);
  obs::tracer().set_thread_name(thread_name.c_str());
  // One engine per lane: services are sharded, so lanes never contend on
  // per-service pattern state; the shared PatternStore serialises row
  // access internally and keeps one WAL commit group per flush thanks to
  // its per-thread batch scopes.
  core::EngineOptions engine_opts = opts_.engine;
  engine_opts.threads = 1;  // parallelism comes from the lanes themselves
  // Every lane feeds the shared sketch registry so the background evolution
  // pass sees match-time value evidence from all services.
  engine_opts.sketches = &sketches_;
  // The engine pins each service in flight and runs ceiling enforcement at
  // its per-service safe points (no-ops when the policy has no ceiling).
  engine_opts.governor = governor_.get();
  core::Engine engine(store_, engine_opts);

  auto& queue = lanes_[index]->queue;
  // Deadlines run on the injected clock. Under a ManualClock the pop_wait
  // below still times out in real time (the 200ms tick), but the virtual
  // deadline only expires when the test advances the clock — flushes
  // become a deterministic function of the advance schedule.
  const auto interval_ms =
      static_cast<std::int64_t>(opts_.flush_interval_s * 1000.0);
  std::vector<core::LogRecord> batch;
  batch.reserve(opts_.batch_size);
  std::int64_t deadline_ms = 0;

  for (;;) {
    core::LogRecord record;
    std::chrono::milliseconds timeout = std::chrono::milliseconds(200);
    if (!batch.empty()) {
      const auto left =
          std::chrono::milliseconds(deadline_ms - clock_->now_ms());
      timeout = std::max(std::chrono::milliseconds(1),
                         std::min(timeout, left));
    }
    const util::PopStatus status = queue.pop_wait(record, timeout);
    if (status == util::PopStatus::kItem) {
      if (batch.empty()) deadline_ms = clock_->now_ms() + interval_ms;
      batch.push_back(std::move(record));
      if (batch.size() >= opts_.batch_size) flush_lane(engine, batch, index);
      continue;
    }
    if (status == util::PopStatus::kClosed) {
      flush_lane(engine, batch, index);
      return;
    }
    if (!batch.empty() && clock_->now_ms() >= deadline_ms) {
      flush_lane(engine, batch, index);
    }
  }
}

void Server::flush_lane(core::Engine& engine,
                        std::vector<core::LogRecord>& batch,
                        std::size_t index) {
  if (batch.empty()) return;
  // Root span of this lane's dequeue->analyze->commit cycle; the engine's
  // batch/phase spans and the store's wal_append nest under it.
  obs::Stage stage(serve_metrics().flush_seconds, obs::TraceCat::kServe,
                   "lane_flush");
  stage.set_args(static_cast<std::int64_t>(index),
                 static_cast<std::int64_t>(batch.size()));
  engine.set_now_unix(clock_->now_unix());
  const core::BatchReport report = engine.analyze_by_service(batch);
  processed_.fetch_add(batch.size(), std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  new_patterns_.fetch_add(report.new_patterns, std::memory_order_relaxed);
  matched_existing_.fetch_add(report.matched_existing,
                              std::memory_order_relaxed);
  Lane& lane = *lanes_[index];
  lane.flushes.fetch_add(1, std::memory_order_relaxed);
  lane.flushed_records.fetch_add(batch.size(), std::memory_order_relaxed);
  lane.last_flush_unix.store(clock_->now_unix(), std::memory_order_relaxed);
  if (obs::telemetry_enabled()) {
    serve_metrics().processed.inc(batch.size());
    serve_metrics().flushes.inc();
    lane_depth_gauge(index).set(static_cast<double>(lane.queue.size()));
  }
  obs::logev(obs::LogLevel::kDebug, "serve", "flush",
             {{"lane", index},
              {"records", batch.size()},
              {"new_patterns", report.new_patterns},
              {"matched_existing", report.matched_existing}});
  batch.clear();
  notify_progress();
}

void Server::checkpoint_loop() {
  // The interval is measured on the injected clock; the wait below only
  // bounds how often the deadline is re-checked. 200ms keeps the thread
  // cheap in production and responsive to ManualClock advances in tests.
  const auto interval_ms =
      static_cast<std::int64_t>(opts_.checkpoint_interval_s * 1000.0);
  std::int64_t next_ms = clock_->now_ms() + interval_ms;
  std::unique_lock lock(checkpoint_mutex_);
  while (!stopping_.load(std::memory_order_relaxed)) {
    checkpoint_cv_.wait_for(lock, std::chrono::milliseconds(200), [this] {
      return stopping_.load(std::memory_order_relaxed);
    });
    if (stopping_.load(std::memory_order_relaxed)) return;
    if (clock_->now_ms() < next_ms) continue;
    next_ms = clock_->now_ms() + interval_ms;
    lock.unlock();
    const bool ok = store_->checkpoint();
    save_sketches();
    checkpoints_.fetch_add(1, std::memory_order_relaxed);
    obs::logev(ok ? obs::LogLevel::kInfo : obs::LogLevel::kError, "store",
               "checkpoint", {{"ok", ok}});
    notify_progress();
    lock.lock();
  }
}

void Server::load_sketches() {
  if (!store_->durable()) return;
  const std::string path = store_->directory() + "/sketches.json";
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return;  // first boot: nothing persisted yet
  std::ostringstream buf;
  buf << in.rdbuf();
  auto restored = core::sketches_from_json(buf.str());
  if (!restored.has_value()) {
    // Malformed file: start from empty sketches rather than guess. The
    // next save overwrites it.
    obs::logev(obs::LogLevel::kWarn, "serve", "sketches_load_failed",
               {{"path", path}});
    return;
  }
  const std::size_t patterns = restored->size();
  sketches_.restore(std::move(*restored));
  obs::logev(obs::LogLevel::kInfo, "serve", "sketches_loaded",
             {{"patterns", patterns}});
}

void Server::save_sketches() {
  if (!store_->durable()) return;
  const std::string path = store_->directory() + "/sketches.json";
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return;
    out << core::sketches_to_json(sketches_.snapshot());
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return;
    }
  }
  // Atomic swap; sketches are an optimisation hint, not pattern data, so
  // no fsync discipline — a crash at worst loses recent observations.
  std::rename(tmp.c_str(), path.c_str());
}

void Server::evolution_loop() {
  obs::tracer().set_thread_name("evolution");
  // Same timing scheme as checkpoint_loop: the interval is measured on the
  // injected clock, the 200ms wait only bounds deadline re-checks, so
  // ManualClock tests drive passes deterministically.
  const auto interval_ms =
      static_cast<std::int64_t>(opts_.evolution_interval_s * 1000.0);
  std::int64_t next_ms = clock_->now_ms() + interval_ms;
  std::unique_lock lock(evolution_mutex_);
  while (!stopping_.load(std::memory_order_relaxed)) {
    evolution_cv_.wait_for(lock, std::chrono::milliseconds(200), [this] {
      return stopping_.load(std::memory_order_relaxed);
    });
    if (stopping_.load(std::memory_order_relaxed)) return;
    if (clock_->now_ms() < next_ms) continue;
    next_ms = clock_->now_ms() + interval_ms;
    lock.unlock();
    run_evolution_pass();
    lock.lock();
  }
}

void Server::run_evolution_pass() {
  core::EvolutionOptions eopts = opts_.evolution;
  // The pass must agree with the lane engines on scanning and example
  // policy, or evolved patterns would be validated under different rules
  // than they are matched under.
  eopts.scanner = opts_.engine.scanner;
  eopts.special = opts_.engine.special;
  eopts.example_cap = opts_.engine.analyzer.example_cap;
  eopts.now_unix = clock_->now_unix();
  // Pin every partition for the pass: evolution rewrites delete by pattern
  // id, and a partition spilled between its load and its rewrite would
  // silently miss those deletes. The pins make the whole pass a safe
  // region; enforce() afterwards brings memory back under the ceiling.
  std::vector<std::string> pinned;
  if (governor_->enabled()) {
    pinned = store_->services();
    for (const std::string& s : pinned) governor_->pin(s);
  }
  const core::EvolutionReport report =
      core::evolve_repository(*store_, &sketches_, eopts);
  for (const std::string& s : pinned) governor_->unpin(s);
  if (!pinned.empty()) governor_->enforce();
  {
    std::lock_guard lock(evolution_report_mutex_);
    last_evolution_ = report;
  }
  evolution_passes_.fetch_add(1, std::memory_order_relaxed);
  obs::logev(obs::LogLevel::kInfo, "serve", "evolution_pass",
             {{"services_changed", report.services_changed},
              {"services_rejected", report.services_rejected},
              {"specialised", report.specialised},
              {"merged", report.merged},
              {"evicted", report.evicted},
              {"conflict_discards", report.conflict_discards}});
  notify_progress();
}

std::string Server::evolution_json() const {
  core::EvolutionReport report;
  {
    std::lock_guard lock(evolution_report_mutex_);
    report = last_evolution_;
  }
  std::string out = "{\"passes\":" + std::to_string(evolution_passes());
  out += ",\"interval_s\":" + std::to_string(opts_.evolution_interval_s);
  out += ",\"sketched_patterns\":" + std::to_string(sketches_.pattern_count());
  out += ",\"last\":{";
  out += "\"services_seen\":" + std::to_string(report.services_seen);
  out += ",\"services_changed\":" + std::to_string(report.services_changed);
  out += ",\"services_rejected\":" + std::to_string(report.services_rejected);
  out += ",\"specialised\":" + std::to_string(report.specialised);
  out += ",\"merged\":" + std::to_string(report.merged);
  out += ",\"evicted\":" + std::to_string(report.evicted);
  out += ",\"conflict_discards\":" + std::to_string(report.conflict_discards);
  out += ",\"patterns_before\":" + std::to_string(report.patterns_before);
  out += ",\"patterns_after\":" + std::to_string(report.patterns_after);
  out += ",\"actions\":[";
  // Cap the action list: a big maintenance pass can touch thousands of
  // patterns and this endpoint is for eyeballing, not export.
  const std::size_t limit = std::min<std::size_t>(report.actions.size(), 50);
  for (std::size_t i = 0; i < limit; ++i) {
    const core::EvolutionAction& a = report.actions[i];
    if (i != 0) out += ',';
    const char* kind = "?";
    switch (a.kind) {
      case core::EvolutionAction::Kind::kSpecialise: kind = "specialise"; break;
      case core::EvolutionAction::Kind::kMerge: kind = "merge"; break;
      case core::EvolutionAction::Kind::kEvict: kind = "evict"; break;
      case core::EvolutionAction::Kind::kConflictDiscard:
        kind = "conflict_discard";
        break;
    }
    out += "{\"kind\":\"";
    out += kind;
    out += "\",\"service\":\"" + util::json_escape(a.service);
    out += "\",\"detail\":\"" + util::json_escape(a.detail);
    out += "\"}";
  }
  out += "],\"actions_total\":" + std::to_string(report.actions.size());
  out += "}}";
  return out;
}

void Server::request_stop() {
  stopping_.store(true, std::memory_order_relaxed);
  checkpoint_cv_.notify_all();
  evolution_cv_.notify_all();
}

ServeReport Server::stop() {
  if (stopped_) return final_report_;
  obs::logev(obs::LogLevel::kInfo, "serve", "drain_start");
  request_stop();

  // 1. No new connections. 2. Wake connection readers blocked in read()
  //    and join them. Readers may still be parked in a blocking push — the
  //    lanes keep consuming below us until the queues close, so those
  //    pushes complete first.
  ingest_.stop();

  // 3. Close the queues; each worker drains its backlog, flushes the
  //    final partial batch and exits.
  for (auto& lane : lanes_) lane->queue.close();
  for (auto& lane : lanes_) {
    if (lane->worker.joinable()) lane->worker.join();
  }

  if (checkpoint_thread_.joinable()) checkpoint_thread_.join();
  if (evolution_thread_.joinable()) evolution_thread_.join();

  ServeReport report;
  for (const auto& lane : lanes_) {
    report.accepted += lane->queue.pushed();
    report.dropped += lane->queue.dropped();
  }
  report.shed = shed_.load(std::memory_order_relaxed);
  report.accepted += report.shed;
  report.malformed = malformed_.load(std::memory_order_relaxed);
  report.processed = processed_.load(std::memory_order_relaxed);
  report.batches = batches_.load(std::memory_order_relaxed);
  report.connections = connections_.load(std::memory_order_relaxed);
  report.new_patterns = new_patterns_.load(std::memory_order_relaxed);
  report.matched_existing =
      matched_existing_.load(std::memory_order_relaxed);

  // 4. Final durability point: everything analyzed is in the WAL already
  //    (one commit group per flush); the checkpoint folds it into a
  //    snapshot so restart skips the replay.
  if (opts_.checkpoint_on_stop && store_->durable()) {
    report.checkpointed = store_->checkpoint();
  }
  // Sketch persistence rides the drain unconditionally (it is independent
  // of the snapshot-rotation choice above): workers are joined, so the
  // snapshot is final.
  save_sketches();

  // The governor dies with this server; the store may outlive it.
  store_->attach_governor(nullptr);

  // 5. The /metrics responder stays up until the very end so operators
  //    can watch the drain.
  http_.stop();

  // Disarm a tracer this server armed: it holds opts_.clock, which may not
  // outlive the server (tests inject stack-owned ManualClocks). Captured
  // spans stay readable; a CLI-armed capture (--trace-out) is left running.
  if (armed_tracer_) {
    obs::tracer().stop();
    armed_tracer_ = false;
  }
  final_report_ = report;
  stopped_ = true;
  obs::logev(obs::LogLevel::kInfo, "serve", "drain_done",
             {{"accepted", report.accepted},
              {"processed", report.processed},
              {"dropped", report.dropped},
              {"shed", report.shed},
              {"malformed", report.malformed},
              {"new_patterns", report.new_patterns},
              {"checkpointed", report.checkpointed}});
  return report;
}

std::uint64_t Server::accepted() const {
  std::uint64_t total = shed_.load(std::memory_order_relaxed);
  for (const auto& lane : lanes_) total += lane->queue.pushed();
  return total;
}

std::uint64_t Server::dropped() const {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane->queue.dropped();
  return total;
}

std::string Server::health_json() const {
  std::size_t depth = 0;
  for (const auto& lane : lanes_) depth += lane->queue.size();
  std::string out = "{\"status\":\"";
  out += stopping_.load(std::memory_order_relaxed) ? "draining" : "ok";
  out += "\",\"lanes\":" + std::to_string(lanes_.size());
  out += ",\"queue_depth\":" + std::to_string(depth);
  out += ",\"accepted\":" + std::to_string(accepted());
  out += ",\"processed\":" + std::to_string(processed());
  out += ",\"dropped\":" + std::to_string(dropped());
  out += ",\"shed\":" + std::to_string(shed());
  out += ",\"malformed\":" + std::to_string(malformed());
  // The tokeniser kernel the lane parsers run on: what the CPU probe (or
  // SEQRTG_DISABLE_AVX2) selected.
  out += ",\"simd\":\"";
  out += util::simd_level_name(util::simd_level());
  out += "\",\"lane_stats\":[";
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const Lane& lane = *lanes_[i];
    if (i != 0) out += ',';
    out += "{\"lane\":" + std::to_string(i);
    out += ",\"depth\":" + std::to_string(lane.queue.size());
    out += ",\"dropped\":" + std::to_string(lane.queue.dropped());
    out += '}';
  }
  out += ']';
  // Durability status: how stale is the snapshot, how much WAL tail would a
  // crash right now have to replay.
  const auto ds = store_->durability_stats();
  out += ",\"durable\":";
  out += ds.durable ? "true" : "false";
  if (ds.durable) {
    const std::int64_t now = clock_->now_unix();
    out += ",\"wal_records\":" + std::to_string(ds.wal_records);
    out += ",\"wal_bytes\":" + std::to_string(ds.wal_bytes);
    out += ",\"wal_age_s\":" +
           std::to_string(ds.wal_unix > 0 ? now - ds.wal_unix : -1);
    out += ",\"last_checkpoint_unix\":" + std::to_string(ds.snapshot_unix);
  }
  out += ",\"checkpoints\":" + std::to_string(checkpoints());
  // Governance summary (full detail on /debug/governor).
  {
    const core::Governor::Stats gs = governor_->stats();
    out += ",\"governor\":{\"ceiling_bytes\":" +
           std::to_string(gs.ceiling_bytes);
    out += ",\"resident_bytes\":" + std::to_string(gs.resident_bytes);
    out += ",\"resident_partitions\":" +
           std::to_string(gs.resident_partitions);
    out += ",\"spilled_partitions\":" + std::to_string(gs.spilled_partitions);
    out += ",\"overloaded\":";
    out += governor_->overloaded() ? "true" : "false";
    out += '}';
  }
  out += "}";
  return out;
}

std::string Server::lanes_json() const {
  std::string out = "{\"lanes\":[";
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const Lane& lane = *lanes_[i];
    if (i != 0) out += ',';
    out += "{\"lane\":" + std::to_string(i);
    out += ",\"depth\":" + std::to_string(lane.queue.size());
    out += ",\"pushed\":" + std::to_string(lane.queue.pushed());
    out += ",\"dropped\":" + std::to_string(lane.queue.dropped());
    out += ",\"flushes\":" +
           std::to_string(lane.flushes.load(std::memory_order_relaxed));
    out += ",\"flushed_records\":" +
           std::to_string(
               lane.flushed_records.load(std::memory_order_relaxed));
    out += ",\"last_flush_unix\":" +
           std::to_string(
               lane.last_flush_unix.load(std::memory_order_relaxed));
    out += '}';
  }
  out += "]}";
  return out;
}

HttpResponse Server::debug_patterns(std::size_t top) {
  HttpResponse response;
  response.content_type = "application/json";
  // export_patterns already orders by match count descending — the paper's
  // "strongest patterns first" review ordering.
  std::vector<core::Pattern> patterns =
      store_->export_patterns(store::PatternStore::ExportFilter{});
  if (patterns.size() > top) patterns.resize(top);
  std::string out = "{\"patterns\":[";
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const core::Pattern& p = patterns[i];
    if (i != 0) out += ',';
    out += "{\"id\":\"" + p.id();
    out += "\",\"service\":\"" + util::json_escape(p.service);
    out += "\",\"text\":\"" + util::json_escape(p.text());
    out += "\",\"match_count\":" + std::to_string(p.stats.match_count);
    out += ",\"last_matched\":" + std::to_string(p.stats.last_matched);
    out += '}';
  }
  out += "]}";
  response.body = std::move(out);
  return response;
}

HttpResponse Server::debug_trace(std::int64_t window_ms) const {
  HttpResponse response;
  response.content_type = "application/json";
  // Reads whatever the process tracer has captured (the server arms it at
  // start()); ms=N narrows to spans that ended in the last N ms.
  obs::Tracer& t = obs::tracer();
  std::int64_t since_us = INT64_MIN;
  if (window_ms > 0) since_us = t.now_us() - window_ms * 1000;
  response.body = t.to_chrome_json(t.collect(since_us));
  return response;
}

HttpResponse Server::handle_http(const std::string& target) {
  std::string path = target;
  std::string_view query;
  if (const std::size_t q = target.find('?'); q != std::string::npos) {
    path.resize(q);
    query = std::string_view(target).substr(q + 1);
  }
  HttpResponse response;
  if (path == "/healthz") {
    response.content_type = "application/json";
    response.body = health_json();
    return response;
  }
  if (path == "/metrics") {
    obs::register_build_metrics();  // refreshes the uptime gauge
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = obs::to_prometheus(obs::default_registry());
    return response;
  }
  if (path == "/debug/lanes") {
    response.content_type = "application/json";
    response.body = lanes_json();
    return response;
  }
  if (path == "/debug/patterns") {
    std::uint64_t top = 20;
    if (const std::string v = query_param(query, "top"); !v.empty()) {
      if (!parse_u64_param(v, &top)) {
        return bad_request("top must be a non-negative integer, got '" +
                           std::string(util::json_escape(v)) + "'");
      }
    }
    return debug_patterns(static_cast<std::size_t>(top));
  }
  if (path == "/debug/trace") {
    std::uint64_t ms = 0;
    if (const std::string v = query_param(query, "ms"); !v.empty()) {
      if (!parse_u64_param(v, &ms) ||
          ms > static_cast<std::uint64_t>(INT64_MAX / 1000)) {
        return bad_request("ms must be a non-negative integer, got '" +
                           std::string(util::json_escape(v)) + "'");
      }
    }
    return debug_trace(static_cast<std::int64_t>(ms));
  }
  if (path == "/debug/evolution") {
    response.content_type = "application/json";
    response.body = evolution_json();
    return response;
  }
  if (path == "/debug/governor") {
    response.content_type = "application/json";
    response.body = governor_->debug_json();
    return response;
  }
  response.status = 404;
  response.body = "not found\n";
  return response;
}

}  // namespace seqrtg::serve
