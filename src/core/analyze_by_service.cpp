#include "core/analyze_by_service.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "core/evolution.hpp"
#include "core/governor.hpp"
#include "core/parser.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace seqrtg::core {

namespace {

/// Engine telemetry. The per-phase histograms mirror the paper's Fig. 2
/// workflow: first partitioning, the load of each service's known patterns
/// into its parser (the read plus the parser build), parse-first matching
/// (which includes the scan, the lazy match-program compile and the
/// per-length trie inserts of unmatched records), analysis of the
/// per-length tries, and the repository save. load, parse_first and
/// trie_analysis are observed once per service — possibly from pool
/// workers, which is safe because histogram updates are atomic and carry no
/// ordering, preserving the merge-in-service-order determinism.
struct EngineMetrics {
  obs::Histogram& phase_partition;
  obs::Histogram& phase_load;
  obs::Histogram& phase_parse_first;
  obs::Histogram& phase_trie_analysis;
  obs::Histogram& phase_repo_save;
  obs::Histogram& batch_seconds;
  obs::Counter& batches;
  obs::Counter& records;
  obs::Counter& matched_existing;
  obs::Counter& analyzed;
  obs::Counter& new_patterns;
  obs::Counter& below_threshold;
};

EngineMetrics& engine_metrics() {
  auto& reg = obs::default_registry();
  const char* phase_help =
      "Per-phase latency of Engine::analyze_by_service";
  static EngineMetrics m{
      reg.histogram("seqrtg_engine_phase_seconds", phase_help,
                    {{"phase", "partition"}}),
      reg.histogram("seqrtg_engine_phase_seconds", phase_help,
                    {{"phase", "load"}}),
      reg.histogram("seqrtg_engine_phase_seconds", phase_help,
                    {{"phase", "parse_first"}}),
      reg.histogram("seqrtg_engine_phase_seconds", phase_help,
                    {{"phase", "trie_analysis"}}),
      reg.histogram("seqrtg_engine_phase_seconds", phase_help,
                    {{"phase", "repo_save"}}),
      reg.histogram("seqrtg_engine_batch_seconds",
                    "Whole-batch latency of Engine::analyze_by_service"),
      reg.counter("seqrtg_engine_batches_total", "Batches analyzed"),
      reg.counter("seqrtg_engine_records_total",
                  "Records fed into analyze_by_service"),
      reg.counter("seqrtg_engine_matched_existing_total",
                  "Records matched by an already known pattern"),
      reg.counter("seqrtg_engine_analyzed_total",
                  "Records that went through pattern discovery"),
      reg.counter("seqrtg_engine_new_patterns_total",
                  "Newly discovered patterns saved to the repository"),
      reg.counter("seqrtg_engine_below_threshold_total",
                  "Patterns discarded by the save threshold")};
  return m;
}

}  // namespace

Engine::Engine(PatternRepository* repo, EngineOptions opts)
    : repo_(repo), opts_(opts) {
  // One example cap end to end: the analyzer trie, merge_pattern_into and
  // the repository's upsert merge must agree or the memory and durable
  // backends diverge (differential oracle).
  repo_->set_example_cap(opts_.analyzer.example_cap);
}

Engine::ServiceOutcome Engine::process_service(
    const std::string& service,
    const std::vector<const LogRecord*>& records) const {
  ServiceOutcome outcome;
  outcome.service = service;
  outcome.report.records = records.size();
  outcome.report.services = 1;

  // Pin before load: from here until the apply loop unpins, a concurrent
  // enforce() must not spill this partition — the stats updates collected
  // below are applied against the loaded rows, and a spill in between
  // would silently drop them.
  if (opts_.governor != nullptr) opts_.governor->pin(service);

  // Load this service's known patterns into a local parser (read snapshot;
  // stats updates are collected and applied once at the end of the batch).
  // The matcher's read copies only what matching needs, and each pattern
  // moves into the parser without a second copy.
  Parser parser(opts_.scanner, opts_.special);
  {
    obs::Stage stage(engine_metrics().phase_load, obs::TraceCat::kEngine,
                     "load_partition");
    std::vector<Pattern> patterns = repo_->match_patterns(service);
    stage.set_args(static_cast<std::int64_t>(patterns.size()));
    for (Pattern& p : patterns) parser.add_pattern(std::move(p));
  }

  // Second partitioning: per-token-count analysis tries for the unmatched.
  std::map<std::size_t, AnalyzerTrie> tries;

  {
    obs::Stage stage(engine_metrics().phase_parse_first,
                     obs::TraceCat::kEngine, "parse_first");
    stage.set_args(static_cast<std::int64_t>(records.size()));
    // One scratch buffer and one match result per service pass: each pool
    // worker runs process_service to completion, so the whole loop
    // tokenises and matches with zero steady-state allocations. Tokens
    // view record->message, which outlives both the match and the insert
    // (the trie copies what it keeps).
    TokenBuffer scratch;
    ParseResult match;
    // One entry per distinct matched pattern, keyed by the parser-owned
    // Pattern: a matched record costs a pointer-hash probe and, with
    // sketches on, a fold of its field values into the entry's per-pass
    // buffer. Pattern ids (text render + SHA-1) are computed once per
    // entry when the pass ends.
    struct MatchEntry {
      const Pattern* pattern = nullptr;
      std::uint64_t count = 0;
      std::vector<ValueSketch> sketches;
    };
    std::vector<MatchEntry> matches;
    std::unordered_map<const Pattern*, std::size_t> match_index;
    for (const LogRecord* record : records) {
      parser.scan_into(record->message, scratch);
      if (scratch.empty()) continue;
      if (parser.match_tokens(service, scratch.tokens(), match)) {
        const auto [it, inserted] =
            match_index.try_emplace(match.pattern, matches.size());
        if (inserted) {
          matches.push_back(
              {match.pattern, 0,
               std::vector<ValueSketch>(
                   opts_.sketches != nullptr ? match.fields.size() : 0)});
        }
        MatchEntry& entry = matches[it->second];
        ++entry.count;
        ++outcome.report.matched_existing;
        if (opts_.sketches != nullptr &&
            entry.sketches.size() == match.fields.size()) {
          // Evolution evidence: record the extracted field values so the
          // maintenance pass can spot wildcards whose observed cardinality
          // collapsed (core/evolution.hpp).
          for (std::size_t i = 0; i < match.fields.size(); ++i) {
            entry.sketches[i].observe(match.fields[i].second);
          }
        }
        continue;
      }
      ++outcome.report.analyzed;
      const std::size_t partition =
          opts_.partition_by_length ? scratch.size() : 0;
      auto [it, inserted] = tries.try_emplace(partition, opts_.analyzer);
      it->second.insert(scratch.tokens(), record->message);
    }

    // Updates in id order — the order a string-keyed count map gave — so
    // the record_match calls, and the WAL group they form, are unchanged.
    // Ids are unique within a loaded service (repositories key patterns by
    // id); entries that still render one id are summed.
    std::vector<std::pair<std::string, const MatchEntry*>> by_id;
    by_id.reserve(matches.size());
    for (const MatchEntry& entry : matches) {
      by_id.emplace_back(entry.pattern->id(), &entry);
    }
    std::stable_sort(by_id.begin(), by_id.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (auto& [id, entry] : by_id) {
      if (opts_.sketches != nullptr) opts_.sketches->merge(id, entry->sketches);
      if (!outcome.match_updates.empty() &&
          outcome.match_updates.back().first == id) {
        outcome.match_updates.back().second += entry->count;
      } else {
        outcome.match_updates.emplace_back(std::move(id), entry->count);
      }
    }
  }

  obs::Stage analysis(engine_metrics().phase_trie_analysis,
                      obs::TraceCat::kEngine, "trie_analysis");
  analysis.set_args(static_cast<std::int64_t>(tries.size()));
  for (auto& [length, trie] : tries) {
    std::vector<Pattern> patterns = trie.analyze(service);
    for (Pattern& p : patterns) {
      p.stats.first_seen = opts_.now_unix;
      p.stats.last_matched = opts_.now_unix;
      if (p.stats.match_count < opts_.save_threshold) {
        ++outcome.report.below_threshold;
        continue;
      }
      ++outcome.report.new_patterns;
      outcome.new_patterns.push_back(std::move(p));
    }
  }
  analysis.end();
  for (const auto& [length, trie] : tries) {
    outcome.trie_arena_bytes += trie.arena_resident_bytes();
    outcome.interner_bytes += trie.interner().bytes_resident();
  }
  return outcome;
}

BatchReport Engine::analyze_by_service(const std::vector<LogRecord>& batch) {
  EngineMetrics& metrics = engine_metrics();
  obs::Stage batch_stage(metrics.batch_seconds, obs::TraceCat::kEngine,
                         "batch");
  batch_stage.set_args(static_cast<std::int64_t>(batch.size()));

  // First partitioning: group records by service, preserving stream order
  // inside each group.
  std::map<std::string, std::vector<const LogRecord*>> by_service;
  {
    obs::Stage stage(metrics.phase_partition, obs::TraceCat::kEngine,
                     "partition");
    for (const LogRecord& r : batch) {
      by_service[r.service].push_back(&r);
    }
    stage.set_args(static_cast<std::int64_t>(by_service.size()));
  }

  // Snapshot const pointers to the partitions up front: pool workers must
  // never touch the map itself (operator[] is non-const and a concurrent
  // lookup of a shared node-based map is a data race even without
  // insertion).
  std::vector<const std::string*> service_names;
  std::vector<const std::vector<const LogRecord*>*> service_records;
  service_names.reserve(by_service.size());
  service_records.reserve(by_service.size());
  for (const auto& [svc, recs] : by_service) {
    service_names.push_back(&svc);
    service_records.push_back(&recs);
  }

  std::vector<ServiceOutcome> outcomes(service_names.size());
  if (opts_.threads > 1 && service_names.size() > 1) {
    // Pool workers carry no thread-local span context; parent their phase
    // spans to this batch span explicitly.
    const std::uint64_t batch_span_id = batch_stage.id();
    util::ThreadPool pool(std::min(opts_.threads, service_names.size()));
    pool.parallel_for(service_names.size(), [&](std::size_t i) {
      obs::ScopedParent parent(batch_span_id);
      outcomes[i] = process_service(*service_names[i], *service_records[i]);
    });
  } else {
    for (std::size_t i = 0; i < service_names.size(); ++i) {
      outcomes[i] = process_service(*service_names[i], *service_records[i]);
    }
  }

  // Apply results in service order (outcomes are already sorted because
  // by_service is an ordered map) so runs are deterministic. The batch
  // scope makes the repo-save phase all-or-nothing on durable
  // repositories: if anything throws mid-apply, the guard aborts and the
  // durable store keeps none of this batch.
  obs::Stage save(metrics.phase_repo_save, obs::TraceCat::kEngine,
                  "repo_save");
  BatchReport total;
  std::size_t trie_bytes = 0;
  std::size_t interner_bytes = 0;
  RepositoryBatch repo_batch(repo_);
  for (ServiceOutcome& outcome : outcomes) {
    for (const auto& [id, count] : outcome.match_updates) {
      repo_->record_match(id, count, opts_.now_unix);
    }
    for (const Pattern& p : outcome.new_patterns) {
      repo_->upsert_pattern(p);
    }
    total += outcome.report;
    trie_bytes += outcome.trie_arena_bytes;
    interner_bytes += outcome.interner_bytes;
    if (opts_.governor != nullptr) {
      // Per-service safe point: this partition's stats are applied, so it
      // may spill again; then enforce the ceiling while at most the NEXT
      // partition is pinned — that is the one-partition overshoot bound.
      opts_.governor->unpin(outcome.service);
      opts_.governor->enforce();
    }
  }
  repo_batch.commit();
  if (opts_.governor != nullptr) {
    // Post-commit safe point: with the batch closed nothing is buffered,
    // so even partitions touched by THIS flush are spillable again. The
    // per-service enforces above cannot drain a flush whose batch covers
    // every resident service (spill refuses batch-buffered partitions);
    // without this pass such a workload would pin residency above the
    // ceiling forever.
    opts_.governor->enforce();
  }
  if (opts_.governor != nullptr &&
      opts_.governor->accountant() != nullptr) {
    MemoryAccountant* acct = opts_.governor->accountant();
    acct->set_category_bytes(MemCategory::kTrieArena, trie_bytes);
    acct->set_category_bytes(MemCategory::kInterner, interner_bytes);
    if (opts_.sketches != nullptr) {
      acct->set_category_bytes(MemCategory::kSketches,
                               opts_.sketches->approx_bytes());
    }
  }
  // operator+= deliberately does not accumulate `services` (it would
  // double-count a service seen in several batches); within one batch each
  // service contributes exactly one outcome.
  total.services = outcomes.size();
  save.set_args(static_cast<std::int64_t>(total.new_patterns));
  save.end();

  if (obs::telemetry_enabled()) {
    metrics.batches.inc();
    metrics.records.inc(total.records);
    metrics.matched_existing.inc(total.matched_existing);
    metrics.analyzed.inc(total.analyzed);
    metrics.new_patterns.inc(total.new_patterns);
    metrics.below_threshold.inc(total.below_threshold);
  }
  return total;
}

BatchReport Engine::analyze_single_trie(const std::vector<LogRecord>& batch) {
  BatchReport report;
  report.records = batch.size();
  report.services = 1;

  Scanner scanner(opts_.scanner);
  AnalyzerTrie trie(opts_.analyzer);
  TokenBuffer scratch;
  for (const LogRecord& r : batch) {
    scanner.scan_into(r.message, scratch);
    promote_special_tokens(scratch.storage(), opts_.special);
    if (scratch.empty()) continue;
    ++report.analyzed;
    trie.insert(scratch.tokens(), r.message);
  }
  std::vector<Pattern> patterns = trie.analyze("*");
  for (Pattern& p : patterns) {
    p.stats.first_seen = opts_.now_unix;
    p.stats.last_matched = opts_.now_unix;
    if (p.stats.match_count < opts_.save_threshold) {
      ++report.below_threshold;
      continue;
    }
    ++report.new_patterns;
    repo_->upsert_pattern(p);
  }
  return report;
}

}  // namespace seqrtg::core
