#include "replay.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>
#include <unordered_map>

#include "core/analyze_by_service.hpp"
#include "core/evolution.hpp"
#include "core/governor.hpp"
#include "core/parser.hpp"
#include "core/trie.hpp"
#include "proc.hpp"
#include "store/pattern_store.hpp"
#include "util/bounded_queue.hpp"
#include "util/clock.hpp"

namespace servebench {

namespace sq = seqrtg;

namespace {

/// Records the layer replay times (a prefix of the replayed records).
constexpr std::size_t kLayerRecords = 100000;

/// Calls `fn(line, lane)` for each line of the replay input in order, until
/// `fn` returns false.
template <typename Fn>
void for_each_line(const ReplayConfig& cfg, Fn&& fn) {
  std::size_t k = 0;
  for (const std::string& chunk : *cfg.input) {
    const std::string_view bytes(chunk);
    for (std::size_t at = 0; at < bytes.size();) {
      const std::size_t eol = bytes.find('\n', at);
      if (!fn(bytes.substr(at, eol - at), (*cfg.lanes)[k++])) return;
      at = eol + 1;
    }
  }
}

/// The records of the first lines of the replay input for which `keep`
/// (given the line's lane) holds, up to `limit`.
template <typename Keep>
std::vector<sq::core::LogRecord> parse_input(const ReplayConfig& cfg,
                                             std::size_t limit, Keep keep) {
  std::vector<sq::core::LogRecord> records;
  for_each_line(cfg, [&](std::string_view line, std::uint8_t lane) {
    if (keep(lane)) {
      if (std::optional<sq::core::LogRecord> rec =
              sq::core::JsonStreamIngester::parse_line(line)) {
        records.push_back(std::move(*rec));
      }
    }
    return records.size() < limit;
  });
  return records;
}

enum SpanName : std::uint8_t {
  kIngestDecode,
  kEngineBatch,
  kLoadService,
  kUpsert,
  kRecordMatch,
  kCommit,
  kSpill,
  kReplApply,
  kOpen,
  kCheckpoint,
  kSpanNames
};

constexpr const char* kSpanLabel[kSpanNames] = {
    "ingest.decode",      "engine.batch", "store.load_service",
    "store.upsert",       "store.record_match", "store.commit",
    "governor.spill",     "repl.apply",   "store.open",
    "store.checkpoint"};

struct Span {
  std::uint8_t name = 0;
  std::int32_t parent = -1;
  double wall = 0.0;
  double cpu = 0.0;
};

/// One thread's spans. Installed in t_trace for the traced pass only; the
/// untraced pass runs the same code with t_trace == nullptr.
struct ThreadTrace {
  std::vector<Span> spans;
  std::vector<std::int32_t> stack;
  double wall = 0.0;
};

thread_local ThreadTrace* t_trace = nullptr;

class Scope {
 public:
  explicit Scope(SpanName name) : trace_(t_trace) {
    if (trace_ == nullptr) return;
    index_ = static_cast<std::int32_t>(trace_->spans.size());
    trace_->spans.push_back(
        {name, trace_->stack.empty() ? -1 : trace_->stack.back(), 0.0, 0.0});
    trace_->stack.push_back(index_);
    wall0_ = now_s();
    cpu0_ = thread_cpu_s();
  }
  ~Scope() {
    if (trace_ == nullptr) return;
    const double cpu = thread_cpu_s();
    const double wall = now_s();
    Span& s = trace_->spans[static_cast<std::size_t>(index_)];
    s.wall = wall - wall0_;
    s.cpu = cpu - cpu0_;
    trace_->stack.pop_back();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  ThreadTrace* trace_;
  std::int32_t index_ = -1;
  double wall0_ = 0.0;
  double cpu0_ = 0.0;
};

/// The store as the engine sees it, with a span around each call.
class TimedRepository final : public sq::core::PatternRepository {
 public:
  explicit TimedRepository(sq::store::PatternStore* store) : store_(store) {}

  std::vector<sq::core::Pattern> load_service(
      std::string_view service) override {
    Scope s(kLoadService);
    std::vector<sq::core::Pattern> rows = store_->load_service(service);
    rows_.fetch_add(rows.size(), std::memory_order_relaxed);
    return rows;
  }
  std::vector<std::string> services() override { return store_->services(); }
  void upsert_pattern(const sq::core::Pattern& p) override {
    Scope s(kUpsert);
    store_->upsert_pattern(p);
  }
  void record_match(const std::string& id, std::uint64_t count,
                    std::int64_t when) override {
    Scope s(kRecordMatch);
    store_->record_match(id, count, when);
  }
  bool delete_pattern(const std::string& id) override {
    return store_->delete_pattern(id);
  }
  std::optional<sq::core::Pattern> find(const std::string& id) override {
    return store_->find(id);
  }
  std::size_t pattern_count() override { return store_->pattern_count(); }
  void begin_batch() override { store_->begin_batch(); }
  void commit_batch() override {
    Scope s(kCommit);
    store_->commit_batch();
  }
  void abort_batch() override { store_->abort_batch(); }

  std::uint64_t rows() const { return rows_.load(std::memory_order_relaxed); }

 private:
  sq::store::PatternStore* store_;
  std::atomic<std::uint64_t> rows_{0};
};

class TimedSpillTarget final : public sq::core::SpillTarget {
 public:
  explicit TimedSpillTarget(sq::store::PatternStore* store) : store_(store) {}
  bool spill_partition(const std::string& service) override {
    Scope s(kSpill);
    calls_.fetch_add(1, std::memory_order_relaxed);
    const bool ok = store_->spill_partition(service);
    if (!ok) refused_.fetch_add(1, std::memory_order_relaxed);
    return ok;
  }
  std::uint64_t calls() const { return calls_.load(); }
  std::uint64_t refused() const { return refused_.load(); }

 private:
  sq::store::PatternStore* store_;
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> refused_{0};
};

struct PassResult {
  std::vector<std::unique_ptr<ThreadTrace>> traces;
  double wall_s = 0.0;
  /// CPU of the lane threads.
  double cpu_s = 0.0;
  sq::core::BatchReport report;
  std::uint64_t records = 0;
  std::uint64_t malformed = 0;
  std::uint64_t conserved = 0;
  std::uint64_t rows = 0;
  std::uint64_t wal_bytes = 0;
  sq::core::Governor::Stats governor;
  std::uint64_t spill_calls = 0;
  std::uint64_t spill_refused = 0;
  std::uint64_t repl_groups = 0;
  std::uint64_t repl_bytes = 0;
  bool standby_equal = true;
};

using Chunk = std::vector<std::string>;

/// One replay pass over the input records on a fresh copy of the store,
/// wired like a serve lane set: one engine per lane thread, a shared
/// governor (with a spill target when `ceiling` > 0) and sketch registry,
/// whole-batch flushes. `after` runs on the live store once the lanes have
/// joined (the layer replay).
bool replay_pass(const ReplayConfig& cfg, bool traced, std::size_t ceiling,
                 const std::string& dir, PassResult* out,
                 const std::function<void(sq::store::PatternStore&)>& after,
                 std::string* error) {
  const WorkloadSpec& spec = *cfg.spec;
  if (!make_dirs(dir) ||
      (!cfg.template_dir.empty() &&
       !copy_tree(cfg.template_dir, dir + "/primary"))) {
    *error = "cannot prepare " + dir;
    return false;
  }
  out->traces.push_back(std::make_unique<ThreadTrace>());
  ThreadTrace* main_trace = traced ? out->traces.back().get() : nullptr;
  t_trace = main_trace;

  sq::store::PatternStore store;
  bool opened = false;
  {
    Scope s(kOpen);
    opened = store.open(dir + "/primary");
  }
  std::unique_ptr<sq::store::PatternStore> standby;
  if (spec.standby) {
    standby = std::make_unique<sq::store::PatternStore>();
    opened = opened && standby->open(dir + "/standby");
  }
  if (!opened) {
    t_trace = nullptr;
    *error = "cannot open the replay stores in " + dir;
    return false;
  }

  sq::core::MemoryAccountant accountant;
  sq::core::GovernorPolicy policy;
  policy.ceiling_bytes = ceiling;
  policy.clock = &sq::util::Clock::system();
  sq::core::Governor governor(policy, &accountant);
  store.attach_governor(&governor);
  TimedSpillTarget spill(&store);
  if (ceiling > 0) governor.attach_target(&spill);
  std::atomic<std::uint64_t> repl_groups{0};
  std::atomic<std::uint64_t> repl_bytes{0};
  std::atomic<bool> repl_ok{true};
  if (standby != nullptr) {
    store.set_commit_sink([&](std::uint64_t seq, std::string_view ops) {
      Scope s(kReplApply);
      if (!standby->apply_replicated_group(seq, ops)) repl_ok = false;
      repl_groups.fetch_add(1, std::memory_order_relaxed);
      repl_bytes.fetch_add(ops.size(), std::memory_order_relaxed);
    });
  }
  TimedRepository repo(&store);
  sq::core::SketchRegistry sketches;
  const std::uint64_t wal0 = store.durability_stats().wal_bytes;

  std::vector<std::unique_ptr<sq::util::BoundedQueue<Chunk>>> queues;
  for (std::size_t l = 0; l < kLanes; ++l) {
    queues.push_back(std::make_unique<sq::util::BoundedQueue<Chunk>>(
        4, sq::util::OverflowPolicy::kBlock));
  }
  struct LaneOut {
    sq::core::BatchReport report;
    std::uint64_t malformed = 0;
    double cpu = 0.0;
  };
  std::vector<LaneOut> lane_out(kLanes);
  std::vector<ThreadTrace*> lane_traces(kLanes, nullptr);
  for (std::size_t l = 0; l < kLanes; ++l) {
    out->traces.push_back(std::make_unique<ThreadTrace>());
    if (traced) lane_traces[l] = out->traces.back().get();
  }

  const double t0 = now_s();
  std::vector<std::thread> lanes;
  for (std::size_t l = 0; l < kLanes; ++l) {
    lanes.emplace_back([&, l] {
      t_trace = lane_traces[l];
      const double wall0 = now_s();
      const double cpu0 = thread_cpu_s();
      sq::core::EngineOptions opts;
      opts.threads = 1;
      opts.sketches = &sketches;
      opts.governor = &governor;
      sq::core::Engine engine(&repo, opts);
      store.set_example_cap(opts.analyzer.example_cap);
      std::vector<sq::core::LogRecord> batch;
      batch.reserve(kBatch);
      Chunk chunk;
      while (queues[l]->pop(chunk)) {
        for (const std::string& line : chunk) {
          std::optional<sq::core::LogRecord> rec;
          {
            Scope s(kIngestDecode);
            rec = sq::core::JsonStreamIngester::parse_line(line);
          }
          if (rec.has_value()) {
            batch.push_back(std::move(*rec));
          } else {
            ++lane_out[l].malformed;
          }
        }
        engine.set_now_unix(sq::util::Clock::system().now_unix());
        {
          Scope s(kEngineBatch);
          lane_out[l].report += engine.analyze_by_service(batch);
        }
        batch.clear();
      }
      lane_out[l].cpu = thread_cpu_s() - cpu0;
      if (t_trace != nullptr) t_trace->wall = now_s() - wall0;
      t_trace = nullptr;
    });
  }

  // Feeder: hand each lane whole batches of the lines the server received.
  std::vector<Chunk> chunks(kLanes);
  std::uint64_t fed = 0;
  for_each_line(cfg, [&](std::string_view line, std::uint8_t l) {
    chunks[l].emplace_back(line);
    ++fed;
    if (chunks[l].size() == kBatch) {
      queues[l]->push(std::move(chunks[l]));
      chunks[l] = Chunk();
    }
    return true;
  });
  for (std::size_t l = 0; l < kLanes; ++l) {
    if (!chunks[l].empty()) queues[l]->push(std::move(chunks[l]));
    queues[l]->close();
  }
  for (std::thread& t : lanes) t.join();
  out->wall_s = now_s() - t0;
  out->records = fed;
  for (const LaneOut& lo : lane_out) {
    out->report += lo.report;
    out->malformed += lo.malformed;
    out->cpu_s += lo.cpu;
  }
  out->rows = repo.rows();
  out->wal_bytes = store.durability_stats().wal_bytes - wal0;
  out->governor = governor.stats();
  out->spill_calls = spill.calls();
  out->spill_refused = spill.refused();
  out->repl_groups = repl_groups.load();
  out->repl_bytes = repl_bytes.load();

  if (after) after(store);
  {
    Scope s(kCheckpoint);
    store.checkpoint();
  }
  store.set_commit_sink(nullptr);
  store.attach_governor(nullptr);
  t_trace = nullptr;

  // The replay conserves records exactly as the served store must.
  for (const std::string& service : store.services()) {
    for (const sq::core::Pattern& p : store.load_service(service)) {
      out->conserved += p.stats.match_count;
    }
  }
  out->conserved -= std::min<std::uint64_t>(out->conserved, spec.warm_records);
  if (standby != nullptr) out->standby_equal = repl_ok.load();
  return true;
}

struct LayerOut {
  double build_us_per_row = 0.0;
  double scan_ns = 0.0;
  double tokens_per_record = 0.0;
  double match_ns = 0.0;
  double hit_ratio = 0.0;
  std::uint64_t records = 0;
};

/// Scanner, matcher and parser rebuild timed alone, single-threaded, over
/// a prefix of the replayed records against the final patterns.
LayerOut layer_replay(const ReplayConfig& cfg,
                      sq::store::PatternStore& store) {
  LayerOut out;
  const std::vector<sq::core::LogRecord> records =
      parse_input(cfg, kLayerRecords, [](std::uint8_t) { return true; });
  out.records = records.size();
  if (records.empty()) return out;

  // Parser rebuild per service: add_pattern of every row, then the first
  // match (which compiles the service's match program).
  std::unordered_map<std::string, std::unique_ptr<sq::core::Parser>> parsers;
  double build_s = 0.0;
  std::uint64_t rows = 0;
  sq::core::TokenBuffer scratch;
  for (const sq::core::LogRecord& r : records) {
    if (parsers.count(r.service) != 0) continue;
    const std::vector<sq::core::Pattern> loaded = store.load_service(r.service);
    const double t0 = now_s();
    auto parser = std::make_unique<sq::core::Parser>();
    for (const sq::core::Pattern& p : loaded) parser->add_pattern(p);
    parser->scan_into(r.message, scratch);
    (void)parser->match_tokens(r.service, scratch.tokens());
    build_s += now_s() - t0;
    rows += loaded.size();
    parsers.emplace(r.service, std::move(parser));
  }
  out.build_us_per_row =
      rows > 0 ? build_s * 1e6 / static_cast<double>(rows) : 0.0;

  std::vector<const sq::core::Parser*> by_record;
  by_record.reserve(records.size());
  for (const sq::core::LogRecord& r : records) {
    by_record.push_back(parsers.at(r.service).get());
  }
  // Two rounds of scan-only and scan+match; the fastest of each is kept,
  // and matching costs the difference.
  double scan_s = 1e300;
  double both_s = 1e300;
  std::uint64_t tokens = 0;
  std::uint64_t hits = 0;
  for (int round = 0; round < 2; ++round) {
    tokens = 0;
    double t0 = now_s();
    for (std::size_t i = 0; i < records.size(); ++i) {
      by_record[i]->scan_into(records[i].message, scratch);
      tokens += scratch.size();
    }
    scan_s = std::min(scan_s, now_s() - t0);
    hits = 0;
    t0 = now_s();
    for (std::size_t i = 0; i < records.size(); ++i) {
      by_record[i]->scan_into(records[i].message, scratch);
      if (by_record[i]->match_tokens(records[i].service, scratch.tokens())) {
        ++hits;
      }
    }
    both_s = std::min(both_s, now_s() - t0);
  }
  const auto n = static_cast<double>(records.size());
  out.scan_ns = scan_s * 1e9 / n;
  out.match_ns = std::max(0.0, both_s - scan_s) * 1e9 / n;
  out.tokens_per_record = static_cast<double>(tokens) / n;
  out.hit_ratio = static_cast<double>(hits) / n;
  return out;
}

/// Trie insert+analyze of the first lane-0 flush's records that the
/// starting store's patterns do not match. Returns µs per inserted record.
double trie_replay(const ReplayConfig& cfg, std::uint64_t* inserted) {
  std::unique_ptr<sq::store::PatternStore> initial;
  if (!cfg.template_dir.empty()) {
    const std::string copy = cfg.work_dir + "/trie-initial";
    initial = std::make_unique<sq::store::PatternStore>();
    if (!copy_tree(cfg.template_dir, copy) || !initial->open(copy)) {
      initial.reset();
    }
  }
  const std::vector<sq::core::LogRecord> flush =
      parse_input(cfg, kBatch, [](std::uint8_t lane) { return lane == 0; });
  std::unordered_map<std::string, std::unique_ptr<sq::core::Parser>> parsers;
  std::map<std::pair<std::string, std::size_t>, sq::core::AnalyzerTrie> tries;
  sq::core::TokenBuffer scratch;
  double spent = 0.0;
  *inserted = 0;
  for (const sq::core::LogRecord& r : flush) {
    auto it = parsers.find(r.service);
    if (it == parsers.end()) {
      auto parser = std::make_unique<sq::core::Parser>();
      if (initial != nullptr) {
        for (const sq::core::Pattern& p : initial->load_service(r.service)) {
          parser->add_pattern(p);
        }
      }
      it = parsers.emplace(r.service, std::move(parser)).first;
    }
    it->second->scan_into(r.message, scratch);
    if (scratch.empty() ||
        it->second->match_tokens(r.service, scratch.tokens()).has_value()) {
      continue;
    }
    const double t0 = now_s();
    auto [trie, fresh] = tries.try_emplace({r.service, scratch.size()});
    trie->second.insert(scratch.tokens(), r.message);
    spent += now_s() - t0;
    ++*inserted;
  }
  const double t0 = now_s();
  for (auto& [key, trie] : tries) (void)trie.analyze(key.first);
  spent += now_s() - t0;
  return *inserted > 0 ? spent * 1e6 / static_cast<double>(*inserted) : 0.0;
}

}  // namespace

bool run_replay(const ReplayConfig& cfg, ReplayResult* r, std::string* error) {
  const std::uint64_t expected = cfg.lanes->size();
  const WorkloadSpec& spec = *cfg.spec;

  PassResult untraced;
  if (!replay_pass(cfg, false, spec.mem_ceiling,
                   cfg.work_dir + "/replay-untraced", &untraced, nullptr,
                   error)) {
    return false;
  }
  remove_tree(cfg.work_dir + "/replay-untraced");
  r->untraced_wall_s = untraced.wall_s;
  r->untraced_cpu_s = untraced.cpu_s;

  PassResult traced;
  LayerOut layer;
  if (!replay_pass(cfg, true, spec.mem_ceiling,
                   cfg.work_dir + "/replay-traced", &traced,
                   [&](sq::store::PatternStore& store) {
                     layer = layer_replay(cfg, store);
                   },
                   error)) {
    return false;
  }
  remove_tree(cfg.work_dir + "/replay-traced");

  PassResult governed;
  if (spec.replay_ceiling > 0) {
    if (!replay_pass(cfg, true, spec.replay_ceiling,
                     cfg.work_dir + "/replay-governed", &governed, nullptr,
                     error)) {
      return false;
    }
    remove_tree(cfg.work_dir + "/replay-governed");
  }

  const std::vector<std::pair<const PassResult*, const char*>> passes = {
      {&untraced, "untraced"},
      {&traced, "traced"},
      {&governed, "governed"}};
  for (const auto& [pass, label] : passes) {
    if (pass == &governed && spec.replay_ceiling == 0) continue;
    if (pass->records != expected || pass->malformed != 0 ||
        pass->conserved != expected) {
      r->failures.push_back(
          std::string(label) + " replay: " + std::to_string(pass->records) +
          " records fed, " + std::to_string(pass->malformed) +
          " malformed, " + std::to_string(pass->conserved) +
          " conserved, expected " + std::to_string(expected));
    }
    if (!pass->standby_equal) {
      r->failures.push_back(std::string(label) +
                            " replay: a replicated group was refused");
    }
  }

  // Aggregate the traced spans.
  double root_wall = 0.0;
  double lane_wall = 0.0;
  for (const auto& trace : traced.traces) {
    lane_wall += trace->wall;
    for (const Span& s : trace->spans) {
      SpanStats& agg = r->spans[kSpanLabel[s.name]];
      ++agg.calls;
      agg.wall_s += s.wall;
      agg.cpu_s += s.cpu;
      if (s.parent < 0) {
        if (s.name == kIngestDecode || s.name == kEngineBatch) {
          root_wall += s.wall;
        }
      } else if (trace->spans[static_cast<std::size_t>(s.parent)].name ==
                 kEngineBatch) {
        r->engine_self_cpu_s -= s.cpu;
      }
    }
  }
  for (const char* label : kSpanLabel) r->spans.try_emplace(label);
  r->engine_self_cpu_s += r->spans["engine.batch"].cpu_s;
  r->coverage = lane_wall > 0 ? root_wall / lane_wall : 0.0;
  r->traced_wall_s = traced.wall_s;
  r->records = traced.records;
  r->matched = traced.report.matched_existing;
  r->analyzed = traced.report.analyzed;
  r->rows_loaded = traced.rows;
  r->wal_bytes = traced.wal_bytes;
  // The governor figures come from the governed pass where there is one.
  r->governed = spec.replay_ceiling > 0;
  const PassResult& gov = r->governed ? governed : traced;
  r->spills = gov.governor.spills;
  r->reloads = gov.governor.reloads;
  r->spill_calls = gov.spill_calls;
  r->spill_refused = gov.spill_refused;
  r->peak_resident_mib =
      static_cast<double>(gov.governor.peak_resident_bytes) / 1048576.0;
  r->ungoverned_peak_resident_mib =
      static_cast<double>(traced.governor.peak_resident_bytes) / 1048576.0;
  if (r->governed) {
    r->governed_wall_s = governed.wall_s;
    SpanStats& spill = r->spans["governor.spill"];
    spill = SpanStats();
    for (const auto& trace : governed.traces) {
      for (const Span& s : trace->spans) {
        if (s.name != kSpill) continue;
        ++spill.calls;
        spill.wall_s += s.wall;
        spill.cpu_s += s.cpu;
      }
    }
  }
  r->repl_groups = traced.repl_groups;
  r->repl_bytes = traced.repl_bytes;

  r->build_us_per_row = layer.build_us_per_row;
  r->scan_ns_per_record = layer.scan_ns;
  r->tokens_per_record = layer.tokens_per_record;
  r->match_ns_per_record = layer.match_ns;
  r->hit_ratio = layer.hit_ratio;
  r->layer_records = layer.records;
  r->trie_us_per_record = trie_replay(cfg, &r->trie_records);
  return true;
}

}  // namespace servebench
