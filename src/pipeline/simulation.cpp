#include "pipeline/simulation.hpp"

#include <algorithm>
#include <unordered_set>

#include "core/validation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace seqrtg::pipeline {

namespace {

/// The Fig. 7 series as live metrics: scrape seqrtg_sim_unmatched_pct (or
/// plot the counters' per-day deltas) to reproduce the matched/unmatched
/// ratio curve.
struct SimMetrics {
  obs::Counter& days;
  obs::Counter& messages;
  obs::Counter& matched;
  obs::Counter& unmatched;
  obs::Counter& analyses;
  obs::Counter& promotions;
  obs::Gauge& unmatched_pct;
  obs::Gauge& promoted_patterns;
  obs::Gauge& candidate_patterns;
  obs::Histogram& analysis_seconds;
};

SimMetrics& sim_metrics() {
  auto& reg = obs::default_registry();
  static SimMetrics m{
      reg.counter("seqrtg_sim_days_total", "Simulated days processed"),
      reg.counter("seqrtg_sim_messages_total",
                  "Messages fed through the simulated syslog-ng front line"),
      reg.counter("seqrtg_sim_matched_total",
                  "Messages matched by the promoted patterndb"),
      reg.counter("seqrtg_sim_unmatched_total",
                  "Messages forwarded to Sequence-RTG batching"),
      reg.counter("seqrtg_sim_analyses_total",
                  "Sequence-RTG batch analyses triggered"),
      reg.counter("seqrtg_sim_promotions_total",
                  "Candidate patterns promoted by the daily review"),
      reg.gauge("seqrtg_sim_unmatched_pct",
                "Unmatched share of the last simulated day (Fig. 7 series)"),
      reg.gauge("seqrtg_sim_promoted_patterns",
                "Patterns in the promoted patterndb"),
      reg.gauge("seqrtg_sim_candidate_patterns",
                "Candidate patterns awaiting review"),
      reg.histogram("seqrtg_sim_analysis_seconds",
                    "Latency of one Sequence-RTG batch analysis")};
  return m;
}

}  // namespace

std::unique_ptr<core::PatternRepository> ProductionSimulation::make_candidates(
    const SimulationOptions& opts, store::PatternStore** durable) {
  *durable = nullptr;
  if (opts.store_dir.empty()) {
    return std::make_unique<core::InMemoryRepository>();
  }
  auto store = std::make_unique<store::PatternStore>();
  if (store->open(opts.store_dir)) *durable = store.get();
  // On open failure the store degrades to in-memory (still functional);
  // durable_store_ stays null so no checkpoints are attempted.
  return store;
}

ProductionSimulation::ProductionSimulation(SimulationOptions opts)
    : opts_(opts),
      fleet_(opts.fleet),
      candidates_(make_candidates(opts_, &durable_store_)),
      engine_(candidates_.get(), opts.engine),
      patterndb_(opts.engine.scanner, opts.engine.special) {
  warmup_initial_patterndb();
}

void ProductionSimulation::warmup_initial_patterndb() {
  // Stand-in for the hand-maintained patterndb: mine a warm-up sample with
  // Sequence-RTG, then promote a subset of the discovered patterns whose
  // cumulative traffic share reaches `initial_coverage`. Patterns are
  // considered in shuffled order — a hand-built database covers a quirky
  // subset, not the global top-by-volume.
  const std::size_t warmup_n =
      std::max<std::size_t>(5000, opts_.messages_per_day / 10);
  // Same seed: the warm-up generator carries the same per-service event
  // templates as the live fleet (a hand-built patterndb describes the SAME
  // services); only the sampled stream differs from the simulated days.
  loggen::FleetGenerator warm_fleet(opts_.fleet);

  core::InMemoryRepository warm_repo;
  core::Engine warm_engine(&warm_repo, opts_.engine);
  warm_engine.analyze_by_service(warm_fleet.take(warmup_n));

  std::vector<core::Pattern> discovered;
  for (const std::string& svc : warm_repo.services()) {
    for (core::Pattern& p : warm_repo.load_service(svc)) {
      discovered.push_back(std::move(p));
    }
  }
  // Deterministic shuffle.
  util::Rng rng(opts_.fleet.seed ^ 0xA5A5A5A5ULL);
  for (std::size_t i = discovered.size(); i > 1; --i) {
    std::swap(discovered[i - 1],
              discovered[static_cast<std::size_t>(rng.next_below(i))]);
  }
  std::uint64_t total = 0;
  for (const core::Pattern& p : discovered) total += p.stats.match_count;
  std::uint64_t covered = 0;
  for (const core::Pattern& p : discovered) {
    if (total == 0 ||
        static_cast<double>(covered) / static_cast<double>(total) >=
            opts_.initial_coverage) {
      break;
    }
    // Skip one-off patterns; a hand-built database holds recurring events.
    if (p.stats.match_count < 2) continue;
    patterndb_.add_pattern(p);
    promoted_ids_.push_back(p.id());
    covered += p.stats.match_count;
  }
}

std::size_t ProductionSimulation::review_and_promote() {
  std::unordered_set<std::string> already(promoted_ids_.begin(),
                                          promoted_ids_.end());
  std::vector<core::Pattern> candidates;
  for (const std::string& svc : candidates_->services()) {
    for (core::Pattern& p : candidates_->load_service(svc)) {
      if (p.stats.match_count < opts_.promote_min_count) continue;
      if (p.complexity() >= opts_.promote_max_complexity) continue;
      if (already.count(p.id()) > 0) continue;
      candidates.push_back(std::move(p));
    }
  }
  // Review the strongest candidates first (match_count is the paper's
  // priority signal), within the daily review capacity.
  std::sort(candidates.begin(), candidates.end(),
            [](const core::Pattern& a, const core::Pattern& b) {
              if (a.stats.match_count != b.stats.match_count) {
                return a.stats.match_count > b.stats.match_count;
              }
              return a.id() < b.id();
            });
  std::size_t n = std::min(opts_.reviews_per_day, candidates.size());
  candidates.resize(n);
  if (opts_.validate_promotions && !candidates.empty()) {
    // The review step's test-case check: conflicting candidates lose their
    // less correct member before promotion.
    candidates = core::resolve_conflicts(candidates, opts_.engine.scanner,
                                         opts_.engine.special);
    n = candidates.size();
  }
  for (const core::Pattern& p : candidates) {
    patterndb_.add_pattern(p);
    promoted_ids_.push_back(p.id());
  }
  return n;
}

DayStats ProductionSimulation::run_day() {
  DayStats stats;
  stats.day = ++day_;
  stats.messages = opts_.messages_per_day;

  double analysis_seconds = 0.0;
  for (std::size_t i = 0; i < opts_.messages_per_day; ++i) {
    loggen::FleetRecord rec = fleet_.next();
    // syslog-ng front line: parse against the promoted patterndb.
    if (patterndb_.parse(rec.record.service, rec.record.message, scratch_)) {
      ++stats.matched;
      continue;
    }
    ++stats.unmatched;
    pending_.push_back(std::move(rec.record));
    if (pending_.size() >= opts_.batch_size) {
      util::Stopwatch timer;
      obs::Stage stage(sim_metrics().analysis_seconds,
                       obs::TraceCat::kPipeline, "analysis_flush");
      engine_.analyze_by_service(pending_);
      analysis_seconds += timer.seconds();
      stage.end();
      ++stats.analyses;
      pending_.clear();
    }
  }

  const std::size_t promoted_today = review_and_promote();
  // The paper's daily promote/save cycle: rotate a snapshot of the durable
  // candidate store so the next start recovers without a long WAL replay.
  if (durable_store_ != nullptr) durable_store_->checkpoint();
  stats.promoted_total = promoted_ids_.size();
  stats.candidates = candidates_->pattern_count();
  stats.unmatched_pct = stats.messages == 0
                            ? 0.0
                            : 100.0 * static_cast<double>(stats.unmatched) /
                                  static_cast<double>(stats.messages);
  stats.avg_analysis_seconds =
      stats.analyses == 0 ? 0.0
                          : analysis_seconds /
                                static_cast<double>(stats.analyses);

  if (obs::telemetry_enabled()) {
    SimMetrics& m = sim_metrics();
    m.days.inc();
    m.messages.inc(stats.messages);
    m.matched.inc(stats.matched);
    m.unmatched.inc(stats.unmatched);
    m.analyses.inc(stats.analyses);
    m.promotions.inc(promoted_today);
    m.unmatched_pct.set(stats.unmatched_pct);
    m.promoted_patterns.set(static_cast<double>(stats.promoted_total));
    m.candidate_patterns.set(static_cast<double>(stats.candidates));
  }
  return stats;
}

std::vector<DayStats> ProductionSimulation::run() {
  std::vector<DayStats> out;
  out.reserve(opts_.days);
  for (std::size_t d = 0; d < opts_.days; ++d) {
    out.push_back(run_day());
  }
  return out;
}

}  // namespace seqrtg::pipeline
