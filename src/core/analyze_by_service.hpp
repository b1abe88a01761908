// AnalyzeByService — the central Sequence-RTG method (paper §III, Fig. 2).
//
// Workflow per batch:
//   1. First partitioning: group log records by service ("to avoid comparing
//      messages from different services and minimise the risk of exceeding
//      the memory").
//   2. Scan each message into tokens.
//   3. Send scanned messages to the parser: records matching an already
//      known pattern only update statistics (last-matched date, counts) and
//      skip analysis.
//   4. Second partitioning of the unmatched messages by token count: "Only
//      token sets of the same length are compared in the same analysis trie
//      for pattern discovery."
//   5. Newly found patterns are saved to the repository for comparison
//      against subsequent batches and for exporting.
//
// The seminal Analyze method (used as the Fig. 5 baseline) is also provided:
// one shared trie across all services and lengths, no parse-first step.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/ingest.hpp"
#include "core/repository.hpp"
#include "core/scanner.hpp"
#include "core/special_tokens.hpp"
#include "core/trie.hpp"

namespace seqrtg::core {

class Governor;
class SketchRegistry;

struct EngineOptions {
  ScannerOptions scanner;
  SpecialTokenOptions special;
  AnalyzerOptions analyzer;
  /// Worker threads for the per-service fan-out; 1 = serial. Results are
  /// merged in service-name order, so parallel and serial runs produce the
  /// same repository contents.
  std::size_t threads = 1;
  /// Second partitioning stage (by token count). Disabled only by the
  /// ablation bench — the paper's AnalyzeByService always partitions:
  /// "Only token sets of the same length are compared in the same analysis
  /// trie".
  bool partition_by_length = true;
  /// "Any pattern whose count of matches is less than the threshold is
  /// considered useless and thus not saved" (paper §IV, Limitations).
  std::uint64_t save_threshold = 1;
  /// Timestamp recorded on stats updates (unix seconds); benches inject
  /// synthetic clocks.
  std::int64_t now_unix = 0;
  /// Optional per-position value sketches recorded on every parse-first
  /// match (core/evolution.hpp). Each service pass buffers them per matched
  /// pattern and merges each buffer once, when the pass ends. The registry
  /// is thread-safe; nullptr disables the sampling entirely. Must outlive
  /// the engine.
  SketchRegistry* sketches = nullptr;
  /// Optional resource governor (core/governor.hpp). When set, the engine
  /// pins each service partition while it is in flight (so a concurrent
  /// enforce() never spills a partition between its load and its stats
  /// update) and runs ceiling enforcement at the per-service safe point of
  /// the apply loop — which is what bounds overshoot to ~one partition.
  /// The governor is shared by every lane's engine; nullptr disables
  /// governance entirely. Must outlive the engine.
  Governor* governor = nullptr;
};

struct BatchReport {
  std::size_t records = 0;
  /// Distinct services in THIS batch. Per-batch only: operator+= leaves it
  /// untouched, because summing would double-count a service that appears
  /// in several batches (distinct services cannot be recovered from
  /// per-batch counts alone).
  std::size_t services = 0;
  /// Records matched by an already known pattern (skipped analysis).
  std::size_t matched_existing = 0;
  /// Records that went through pattern discovery.
  std::size_t analyzed = 0;
  std::size_t new_patterns = 0;
  /// Patterns discarded by the save threshold.
  std::size_t below_threshold = 0;

  BatchReport& operator+=(const BatchReport& other) {
    records += other.records;
    // `services` intentionally not summed (see field comment).
    matched_existing += other.matched_existing;
    analyzed += other.analyzed;
    new_patterns += other.new_patterns;
    below_threshold += other.below_threshold;
    return *this;
  }
};

class Engine {
 public:
  Engine(PatternRepository* repo, EngineOptions opts);

  /// Sequence-RTG AnalyzeByService: two-stage partitioning, parse-first,
  /// persistent patterns.
  BatchReport analyze_by_service(const std::vector<LogRecord>& batch);

  /// Seminal Sequence Analyze: a single shared trie over the whole batch,
  /// no service/length partitioning and no parse-first step. Patterns are
  /// stored under the pseudo-service "*" (the seminal tool had a single
  /// input file). Used as the Fig. 5 baseline.
  BatchReport analyze_single_trie(const std::vector<LogRecord>& batch);

  const EngineOptions& options() const { return opts_; }

  /// Updates the timestamp recorded on pattern stats. Long-running callers
  /// (the serve lanes) stamp each flush with the wall clock; batch runs
  /// keep the construction-time value. Not thread-safe against a
  /// concurrent analyze call on the same Engine — each serve lane owns its
  /// engine exclusively.
  void set_now_unix(std::int64_t now) { opts_.now_unix = now; }

 private:
  struct ServiceOutcome {
    std::string service;
    std::vector<Pattern> new_patterns;
    // id -> additional match count for existing patterns, in id order.
    std::vector<std::pair<std::string, std::uint64_t>> match_updates;
    BatchReport report;
    // Resident bytes of this service's transient analysis state (summed
    // over the per-length tries), reported to the memory accountant.
    std::size_t trie_arena_bytes = 0;
    std::size_t interner_bytes = 0;
  };

  ServiceOutcome process_service(
      const std::string& service,
      const std::vector<const LogRecord*>& records) const;

  PatternRepository* repo_;
  EngineOptions opts_;
};

}  // namespace seqrtg::core
