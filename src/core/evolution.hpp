// Online pattern evolution (ROADMAP: "Self-correcting online pattern
// evolution").
//
// The analyser only ever grows patterns; production streams drift. This
// module is the maintenance pass that keeps a long-lived pattern set
// honest, grounded in USTEP's evolving search tree and SCOPE's
// self-correcting online parsing (PAPERS.md):
//
//   * re-specialise over-general patterns: a wildcard position whose
//     observed value cardinality collapsed to one (per-position value
//     sketches recorded at match time) becomes a literal again;
//   * merge under-general near-duplicates: patterns whose token sequences
//     differ in exactly one position fold into a single typed variable via
//     the same widening rules the analyser trie uses;
//   * TTL/evict patterns unmatched for N days.
//
// Every action must pass two gates before it is applied: the candidate
// pattern must re-match the examples its sources matched (the parser's
// literal edges only accept literally-scanned tokens, so a syntactically
// plausible specialisation can still be dead), and the evolved service set
// must come out of the fixpoint-iterated resolve_conflicts() conflict-free
// without losing example coverage the original set had. A service whose
// evolution fails the coverage gate is left untouched.
//
// evolve_repository() applies the pass to every service and rewrites
// changed services through one RepositoryBatch each — on a durable
// PatternStore that is one WAL commit group per service, so evolution is
// crash-safe: recovery either replays the whole rewrite or none of it.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/matchprog.hpp"
#include "core/pattern.hpp"
#include "core/repository.hpp"
#include "core/scanner.hpp"
#include "core/special_tokens.hpp"

namespace seqrtg::core {

/// Bounded distinct-value sketch for one variable position of one pattern.
struct ValueSketch {
  /// Distinct observed values in first-seen order, at most kMaxValues.
  std::vector<std::string> values;
  /// Set once a (kMaxValues+1)-th distinct value arrived; the position is
  /// then known to be genuinely variable and never specialised.
  bool overflow = false;
  std::uint64_t observations = 0;

  static constexpr std::size_t kMaxValues = 8;

  void observe(std::string_view value);
  /// Folds in `later`, a sketch of the observations that followed this
  /// one's, built from empty: the result equals observing them here one
  /// by one (see SketchRegistry::merge).
  void merge(const ValueSketch& later);
  /// True when every observation carried one single value.
  bool singleton() const {
    return !overflow && values.size() == 1 && observations > 0;
  }

  bool operator==(const ValueSketch& other) const = default;

 private:
  /// observe() without the count: the distinct-value and overflow rule.
  void add_value(std::string_view value);
};

/// Thread-safe pattern-id -> per-variable-position sketches, fed by the
/// engine at match time (EngineOptions::sketches) and consumed by the
/// evolution pass as a point-in-time snapshot.
class SketchRegistry {
 public:
  /// Records the parsed field values of one match of `pattern_id`. The
  /// i-th field corresponds to the i-th variable token of the pattern.
  void observe(const std::string& pattern_id, const ParsedFields& fields);

  /// Folds `local` — one position per field, each observed in record
  /// order from an empty ValueSketch — into `pattern_id`'s sketches under
  /// one lock acquisition. The result equals calling observe() once per
  /// record `local` saw: first-seen value order, the kMaxValues cap and
  /// overflow flag, observation counts, and the arity rule (an entry of
  /// another, non-zero arity ignores the whole buffer).
  void merge(const std::string& pattern_id,
             const std::vector<ValueSketch>& local);

  std::map<std::string, std::vector<ValueSketch>> snapshot() const;

  /// Drops the sketches of a pattern that was rewritten or deleted.
  void forget(const std::string& pattern_id);
  void clear();
  std::size_t pattern_count() const;

  /// Approximate resident bytes of the registry (map nodes, sketch
  /// vectors, sampled value strings) for the governance accountant. A
  /// running total kept by every mutation, so reading it is O(1).
  std::size_t approx_bytes() const;

  /// The same figure by walking every sketched pattern: the reference
  /// the running total is tested against.
  std::size_t recount_bytes() const;

  /// Replaces the registry contents with a previously snapshotted state
  /// (server restart: sketches_from_json -> restore).
  void restore(std::map<std::string, std::vector<ValueSketch>> sketches);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<ValueSketch>> sketches_;
  std::size_t bytes_ = 0;  // approx_bytes(); guarded by mutex_
};

struct EvolutionOptions {
  ScannerOptions scanner;
  SpecialTokenOptions special;

  /// Re-specialise a wildcard only when its sketch saw exactly one distinct
  /// value across at least this many observations.
  bool specialise = true;
  std::uint64_t specialise_min_observations = 3;
  /// Offline fallback (compact without a replay corpus): derive sketches
  /// from the stored examples. Off by default — examples are a tiny sample
  /// of live traffic, so example-driven specialisation can lose coverage
  /// the sketch-driven path would have kept.
  bool specialise_from_examples = false;

  /// Merge near-duplicate patterns differing in exactly one position.
  bool merge = true;
  /// Literal groups merge when every differing literal looks variable-like
  /// (digits, paths — literal_looks_variable), or unconditionally at this
  /// group size (mirrors AnalyzerOptions::min_word_cardinality).
  std::size_t merge_min_group = 4;

  /// Evict patterns unmatched for this many days (0 disables). Ages run
  /// against `now_unix`; patterns with no timestamps at all are kept.
  std::uint32_t ttl_days = 0;
  std::int64_t now_unix = 0;

  /// Example cap for merged patterns (AnalyzerOptions::example_cap).
  std::size_t example_cap = 3;
};

struct EvolutionAction {
  enum class Kind { kSpecialise, kMerge, kEvict, kConflictDiscard };
  Kind kind;
  std::string service;
  /// Human-readable description ("'a %string%' pos 1 -> 'b'").
  std::string detail;
};

struct EvolutionReport {
  std::vector<EvolutionAction> actions;
  std::size_t services_seen = 0;
  std::size_t services_changed = 0;
  /// Services whose evolution failed the coverage gate and were reverted.
  std::size_t services_rejected = 0;
  std::size_t specialised = 0;
  std::size_t merged = 0;
  std::size_t evicted = 0;
  std::size_t conflict_discards = 0;
  std::size_t patterns_before = 0;
  std::size_t patterns_after = 0;

  bool changed() const { return !actions.empty(); }
  EvolutionReport& operator+=(const EvolutionReport& other);
};

/// Serialises a sketch snapshot to versioned single-line JSON
/// (`{"version":1,"patterns":[{"id":...,"positions":[{"values":[...],
/// "overflow":...,"observations":...}]}]}`) so a restarted server resumes
/// evolution with the observation history it had, instead of relearning
/// every position from zero (a specialise_min_observations-sized blind
/// spot after every restart).
std::string sketches_to_json(
    const std::map<std::string, std::vector<ValueSketch>>& sketches);

/// Parses sketches_to_json output. std::nullopt on malformed input or an
/// unknown version — callers start empty rather than half-restored.
std::optional<std::map<std::string, std::vector<ValueSketch>>>
sketches_from_json(std::string_view json);

/// Pure evolution pass over one service's patterns (all entries must share
/// one service). `sketches` maps pattern id -> per-variable-position value
/// sketches; patterns without an entry fall back to example-derived
/// sketches when opts.specialise_from_examples is set. Returns the evolved
/// set — identical to the input when nothing changed or the coverage gate
/// rejected the evolution (report.services_rejected). Accepted actions are
/// appended to `report`.
std::vector<Pattern> evolve_service(
    const std::vector<Pattern>& patterns,
    const std::map<std::string, std::vector<ValueSketch>>& sketches,
    const EvolutionOptions& opts, EvolutionReport* report);

/// Applies evolve_service to every service of `repo` and rewrites each
/// changed service through one repository batch (one WAL commit group on a
/// durable store): deletions first, then fresh upserts, then stat deltas
/// for patterns whose id survived. Sketches of rewritten patterns are
/// forgotten. `sketches` may be nullptr (offline compact).
EvolutionReport evolve_repository(PatternRepository& repo,
                                  SketchRegistry* sketches,
                                  const EvolutionOptions& opts);

}  // namespace seqrtg::core
