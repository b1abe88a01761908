#include "core/evolution.hpp"

#include <algorithm>
#include <set>

#include "core/parser.hpp"
#include "core/trie.hpp"
#include "core/validation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace seqrtg::core {

namespace {

obs::Counter& action_counter(const char* kind) {
  return obs::default_registry().counter(
      "seqrtg_evolution_actions_total",
      "Evolution actions applied (specialise/merge/evict/conflict_discard)",
      {{"action", kind}});
}

struct EvolutionMetrics {
  obs::Counter& specialised;
  obs::Counter& merged;
  obs::Counter& evicted;
  obs::Counter& conflict_discards;
  obs::Counter& services_changed;
  obs::Counter& services_rejected;
  obs::Counter& passes;
  obs::Histogram& pass_seconds;
};

EvolutionMetrics& evolution_metrics() {
  auto& reg = obs::default_registry();
  static EvolutionMetrics m{
      action_counter("specialise"),
      action_counter("merge"),
      action_counter("evict"),
      action_counter("conflict_discard"),
      reg.counter("seqrtg_evolution_services_total",
                  "Services touched by an evolution pass",
                  {{"result", "changed"}}),
      reg.counter("seqrtg_evolution_services_total",
                  "Services touched by an evolution pass",
                  {{"result", "rejected"}}),
      reg.counter("seqrtg_evolution_passes_total",
                  "Whole-repository evolution passes"),
      reg.histogram("seqrtg_evolution_pass_seconds",
                    "Latency of one whole-repository evolution pass")};
  return m;
}

/// Token indexes of the variable positions, in order (the i-th entry is the
/// token the i-th parsed field / value sketch belongs to).
std::vector<std::size_t> variable_positions(const Pattern& p) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < p.tokens.size(); ++i) {
    if (p.tokens[i].is_variable) out.push_back(i);
  }
  return out;
}

/// Examples of `p` that `p` itself still matches — the evidence an evolved
/// replacement must keep matching. (A pattern can carry dead examples, e.g.
/// after a degraded store load; those prove nothing.)
std::vector<std::string> live_examples(const Pattern& p,
                                       const EvolutionOptions& opts) {
  std::vector<std::string> out;
  if (p.examples.empty()) return out;
  Parser parser(opts.scanner, opts.special);
  parser.add_pattern(p);
  for (const std::string& e : p.examples) {
    if (parser.parse(p.service, e)) out.push_back(e);
  }
  return out;
}

/// True when `candidate` (alone) matches every message in `evidence`. This
/// is the per-action liveness gate: parser literal edges only accept
/// literally-scanned tokens, so e.g. re-specialising %integer% to the
/// literal "42" produces a pattern that matches nothing — the gate catches
/// every such type subtlety empirically instead of encoding scanner rules.
bool matches_all(const Pattern& candidate,
                 const std::vector<std::string>& evidence,
                 const EvolutionOptions& opts) {
  Parser parser(opts.scanner, opts.special);
  parser.add_pattern(candidate);
  for (const std::string& e : evidence) {
    if (!parser.parse(candidate.service, e)) return false;
  }
  return true;
}

/// Offline fallback: when no match-time sketches exist, replay the stored
/// examples through the pattern and sketch the extracted fields.
std::vector<ValueSketch> sketches_from_examples(const Pattern& p,
                                                const EvolutionOptions& opts) {
  std::vector<ValueSketch> out;
  Parser parser(opts.scanner, opts.special);
  parser.add_pattern(p);
  for (const std::string& e : p.examples) {
    const auto result = parser.parse(p.service, e);
    if (!result) continue;
    if (out.empty()) out.resize(result->fields.size());
    if (result->fields.size() != out.size()) continue;
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].observe(result->fields[i].second);
    }
  }
  return out;
}

/// Re-specialises every wildcard of `p` whose sketch collapsed to one
/// value, greedily and one position at a time so a dead rewrite of one
/// position cannot veto a live rewrite of another. Returns the number of
/// positions specialised; `p` is updated in place.
std::size_t specialise_pattern(Pattern& p,
                               const std::vector<ValueSketch>& sketches,
                               const EvolutionOptions& opts,
                               std::vector<EvolutionAction>* actions) {
  const std::vector<std::size_t> positions = variable_positions(p);
  if (positions.empty() || sketches.empty()) return 0;
  const std::vector<std::string> evidence = live_examples(p, opts);
  if (evidence.empty()) return 0;  // no proof the rewrite would stay live

  std::size_t changed = 0;
  const std::size_t n = std::min(positions.size(), sketches.size());
  for (std::size_t j = 0; j < n; ++j) {
    const ValueSketch& sketch = sketches[j];
    const std::size_t pos = positions[j];
    if (p.tokens[pos].var_type == TokenType::Rest) continue;
    if (!p.tokens[pos].is_variable) continue;  // defensive
    if (!sketch.singleton() ||
        sketch.observations < opts.specialise_min_observations) {
      continue;
    }
    const std::string& value = sketch.values.front();
    if (value.empty() || value.find(' ') != std::string::npos ||
        value.find('%') != std::string::npos) {
      continue;
    }
    Pattern trial = p;
    PatternToken& t = trial.tokens[pos];
    const std::string before = pattern_token_text(t);
    t.is_variable = false;
    t.text = value;
    t.name.clear();
    if (!matches_all(trial, evidence, opts)) continue;
    actions->push_back({EvolutionAction::Kind::kSpecialise, p.service,
                        "'" + p.text() + "' " + before + " -> '" + value +
                            "'"});
    p = std::move(trial);
    ++changed;
  }
  return changed;
}

/// Group key for the near-duplicate merge: patterns land in the same group
/// when their token sequences are identical everywhere except `pos`
/// (variable types and names included — the display text alone cannot
/// distinguish them). Fields are length-prefixed so token text containing
/// the separator cannot alias.
std::string merge_group_key(const Pattern& p, std::size_t pos) {
  std::string key = std::to_string(p.tokens.size());
  key += ':';
  key += std::to_string(pos);
  key += p.tokens[pos].is_space_before ? '+' : '-';
  for (std::size_t i = 0; i < p.tokens.size(); ++i) {
    if (i == pos) continue;
    const PatternToken& t = p.tokens[i];
    key += '|';
    if (t.is_variable) {
      key += 'v';
      key += token_type_tag(t.var_type);
      key += ':';
      key += t.name;
    } else {
      key += 'c';
      key += std::to_string(t.text.size());
      key += ':';
      key += t.text;
    }
    key += t.is_space_before ? '+' : '-';
  }
  return key;
}

/// One merge pass: fold groups of near-duplicates (token sequences equal
/// except one position) into a single pattern with a typed variable at the
/// differing position. Each pattern joins at most one merge per pass.
void merge_near_duplicates(std::vector<Pattern>& work,
                           const EvolutionOptions& opts,
                           std::vector<EvolutionAction>* actions) {
  struct MergeGroup {
    std::size_t pos = 0;
    std::vector<std::size_t> members;
  };
  std::map<std::string, MergeGroup> groups;
  for (std::size_t i = 0; i < work.size(); ++i) {
    for (std::size_t pos = 0; pos < work[i].tokens.size(); ++pos) {
      MergeGroup& g = groups[merge_group_key(work[i], pos)];
      g.pos = pos;
      g.members.push_back(i);
    }
  }

  std::vector<bool> consumed(work.size(), false);
  std::vector<Pattern> merged_out;
  for (auto& [key, group] : groups) {
    std::vector<std::size_t> alive;
    for (const std::size_t idx : group.members) {
      if (!consumed[idx]) alive.push_back(idx);
    }
    if (alive.size() < 2) continue;
    const std::size_t pos = group.pos;

    // Eligibility mirrors the analyser trie's fold rules: merge when a
    // variable is already present at the position, when every differing
    // literal looks variable-like, or when the group is large enough that
    // the position is a word-valued variable (min_word_cardinality).
    bool any_variable = false;
    bool any_rest = false;
    bool literals_variable_like = true;
    for (const std::size_t idx : alive) {
      const PatternToken& t = work[idx].tokens[pos];
      if (t.is_variable) {
        any_variable = true;
        if (t.var_type == TokenType::Rest) any_rest = true;
      } else if (!literal_looks_variable(t.text)) {
        literals_variable_like = false;
      }
    }
    if (any_rest) continue;  // %rest% changes arity semantics; never merge
    if (!any_variable && !literals_variable_like &&
        alive.size() < opts.merge_min_group) {
      continue;
    }

    // Merged variable type: the common member type when all members agree
    // (pure widening), String as soon as types disagree or a literal
    // member must be covered.
    TokenType merged_type = TokenType::String;
    bool first_var = true;
    bool any_literal = false;
    std::string name;
    for (const std::size_t idx : alive) {
      const PatternToken& t = work[idx].tokens[pos];
      if (!t.is_variable) {
        any_literal = true;
        continue;
      }
      if (name.empty()) name = t.name;
      if (first_var) {
        merged_type = t.var_type;
        first_var = false;
      } else if (merged_type != t.var_type) {
        merged_type = TokenType::String;
      }
    }
    if (any_literal) merged_type = TokenType::String;

    Pattern merged = work[alive.front()];
    {
      PatternToken& t = merged.tokens[pos];
      t.is_variable = true;
      t.var_type = merged_type;
      t.text.clear();
      t.name = name;
    }
    assign_variable_names(merged.tokens);
    std::vector<std::string> evidence = live_examples(work[alive.front()], opts);
    for (std::size_t k = 1; k < alive.size(); ++k) {
      const Pattern& member = work[alive[k]];
      merged.stats.match_count += member.stats.match_count;
      merged.stats.last_matched =
          std::max(merged.stats.last_matched, member.stats.last_matched);
      if (merged.stats.first_seen == 0 ||
          (member.stats.first_seen != 0 &&
           member.stats.first_seen < merged.stats.first_seen)) {
        merged.stats.first_seen = member.stats.first_seen;
      }
      for (const std::string& e : member.examples) {
        merged.add_example(e, opts.example_cap);
      }
      const std::vector<std::string> member_evidence =
          live_examples(member, opts);
      evidence.insert(evidence.end(), member_evidence.begin(),
                      member_evidence.end());
    }
    if (evidence.empty()) continue;  // nothing proves the merge is live
    if (!matches_all(merged, evidence, opts)) continue;

    for (const std::size_t idx : alive) consumed[idx] = true;
    actions->push_back({EvolutionAction::Kind::kMerge, merged.service,
                        std::to_string(alive.size()) + " patterns -> '" +
                            merged.text() + "'"});
    merged_out.push_back(std::move(merged));
  }
  if (merged_out.empty()) return;

  // Survivors + merged results, folding id collisions (a merged pattern's
  // text can equal an existing pattern's — e.g. widening %integer% into an
  // existing %string% position) through the shared upsert merge logic.
  std::vector<Pattern> result;
  std::map<std::string, std::size_t> index_by_id;
  const auto fold = [&](Pattern&& p) {
    const std::string id = p.id();
    const auto it = index_by_id.find(id);
    if (it == index_by_id.end()) {
      index_by_id.emplace(id, result.size());
      result.push_back(std::move(p));
    } else {
      merge_pattern_into(result[it->second], p, opts.example_cap);
    }
  };
  for (std::size_t i = 0; i < work.size(); ++i) {
    if (!consumed[i]) fold(std::move(work[i]));
  }
  for (Pattern& p : merged_out) fold(std::move(p));
  work = std::move(result);
}

}  // namespace

void ValueSketch::observe(std::string_view value) {
  ++observations;
  add_value(value);
}

void ValueSketch::add_value(std::string_view value) {
  if (overflow) return;
  for (const std::string& v : values) {
    if (v == value) return;
  }
  if (values.size() >= kMaxValues) {
    overflow = true;
    return;
  }
  values.emplace_back(value);
}

void ValueSketch::merge(const ValueSketch& later) {
  // `later.values` are its first distinct values in first-seen order, so
  // inserting them in order adds exactly what observing the whole run
  // would have added before this sketch filled up. If `later` overflowed
  // it saw more than kMaxValues distinct values, so the run would have
  // overflowed this sketch too.
  observations += later.observations;
  for (const std::string& v : later.values) add_value(v);
  if (later.overflow) overflow = true;
}

namespace {

/// One registry entry's share of approx_bytes(): map node overhead (key +
/// tree pointers), vector storage per sketch, and the sampled value bytes.
std::size_t entry_bytes(const std::string& id,
                        const std::vector<ValueSketch>& sketches) {
  std::size_t bytes = id.size() + 4 * sizeof(void*);
  bytes += sketches.capacity() * sizeof(ValueSketch);
  for (const ValueSketch& s : sketches) {
    bytes += s.values.capacity() * sizeof(std::string);
    for (const std::string& v : s.values) bytes += v.size();
  }
  return bytes;
}

}  // namespace

void SketchRegistry::observe(const std::string& pattern_id,
                             const ParsedFields& fields) {
  std::lock_guard lock(mutex_);
  const auto [it, inserted] = sketches_.try_emplace(pattern_id);
  std::vector<ValueSketch>& sketches = it->second;
  bytes_ -= inserted ? 0 : entry_bytes(it->first, sketches);
  if (sketches.empty()) sketches.resize(fields.size());
  if (sketches.size() == fields.size()) {  // else arity drifted: ignore
    for (std::size_t i = 0; i < fields.size(); ++i) {
      sketches[i].observe(fields[i].second);
    }
  }
  bytes_ += entry_bytes(it->first, sketches);
}

void SketchRegistry::merge(const std::string& pattern_id,
                           const std::vector<ValueSketch>& local) {
  std::lock_guard lock(mutex_);
  const auto [it, inserted] = sketches_.try_emplace(pattern_id);
  std::vector<ValueSketch>& sketches = it->second;
  bytes_ -= inserted ? 0 : entry_bytes(it->first, sketches);
  // observe()'s arity rule applied once: every record of the buffer has
  // local.size() fields, so the first would adopt that arity on an empty
  // entry and all of them would be ignored by an entry of another.
  if (sketches.empty()) sketches.resize(local.size());
  if (sketches.size() == local.size()) {
    for (std::size_t i = 0; i < local.size(); ++i) {
      sketches[i].merge(local[i]);
    }
  }
  bytes_ += entry_bytes(it->first, sketches);
}

std::map<std::string, std::vector<ValueSketch>> SketchRegistry::snapshot()
    const {
  std::lock_guard lock(mutex_);
  return sketches_;
}

void SketchRegistry::forget(const std::string& pattern_id) {
  std::lock_guard lock(mutex_);
  const auto it = sketches_.find(pattern_id);
  if (it == sketches_.end()) return;
  bytes_ -= entry_bytes(it->first, it->second);
  sketches_.erase(it);
}

void SketchRegistry::clear() {
  std::lock_guard lock(mutex_);
  sketches_.clear();
  bytes_ = 0;
}

std::size_t SketchRegistry::pattern_count() const {
  std::lock_guard lock(mutex_);
  return sketches_.size();
}

std::size_t SketchRegistry::approx_bytes() const {
  std::lock_guard lock(mutex_);
  return bytes_;
}

std::size_t SketchRegistry::recount_bytes() const {
  std::lock_guard lock(mutex_);
  std::size_t bytes = 0;
  for (const auto& [id, sketches] : sketches_) {
    bytes += entry_bytes(id, sketches);
  }
  return bytes;
}

void SketchRegistry::restore(
    std::map<std::string, std::vector<ValueSketch>> sketches) {
  std::lock_guard lock(mutex_);
  sketches_ = std::move(sketches);
  bytes_ = 0;
  for (const auto& [id, positions] : sketches_) {
    bytes_ += entry_bytes(id, positions);
  }
}

std::string sketches_to_json(
    const std::map<std::string, std::vector<ValueSketch>>& sketches) {
  util::JsonArray patterns;
  for (const auto& [id, positions] : sketches) {
    util::JsonArray pos_json;
    for (const ValueSketch& s : positions) {
      util::JsonArray values;
      for (const std::string& v : s.values) values.emplace_back(v);
      pos_json.emplace_back(util::JsonObject{
          {"values", std::move(values)},
          {"overflow", s.overflow},
          {"observations", s.observations},
      });
    }
    patterns.emplace_back(util::JsonObject{
        {"id", id},
        {"positions", std::move(pos_json)},
    });
  }
  return util::Json(util::JsonObject{
                        {"version", std::int64_t{1}},
                        {"patterns", std::move(patterns)},
                    })
      .dump();
}

std::optional<std::map<std::string, std::vector<ValueSketch>>>
sketches_from_json(std::string_view json) {
  const util::JsonParseResult parsed = util::json_parse(json);
  if (!parsed.ok() || !parsed.value.is_object()) return std::nullopt;
  const util::Json* version = parsed.value.find("version");
  if (version == nullptr || !version->is_number() || version->as_int() != 1) {
    return std::nullopt;
  }
  const util::Json* patterns = parsed.value.find("patterns");
  if (patterns == nullptr || !patterns->is_array()) return std::nullopt;

  std::map<std::string, std::vector<ValueSketch>> out;
  for (const util::Json& entry : patterns->as_array()) {
    const util::Json* id = entry.find("id");
    const util::Json* positions = entry.find("positions");
    if (id == nullptr || !id->is_string() || positions == nullptr ||
        !positions->is_array()) {
      return std::nullopt;
    }
    std::vector<ValueSketch> sketches;
    for (const util::Json& pos : positions->as_array()) {
      const util::Json* values = pos.find("values");
      const util::Json* overflow = pos.find("overflow");
      const util::Json* observations = pos.find("observations");
      if (values == nullptr || !values->is_array() || overflow == nullptr ||
          !overflow->is_bool() || observations == nullptr ||
          !observations->is_number()) {
        return std::nullopt;
      }
      ValueSketch s;
      for (const util::Json& v : values->as_array()) {
        if (!v.is_string()) return std::nullopt;
        s.values.push_back(v.as_string());
      }
      // Enforce the sketch invariant on untrusted input: more stored
      // values than the cap means the file was hand-edited or from a
      // build with a larger cap — treat the position as overflowed.
      if (s.values.size() > ValueSketch::kMaxValues) {
        s.values.resize(ValueSketch::kMaxValues);
        s.overflow = true;
      } else {
        s.overflow = overflow->as_bool();
      }
      s.observations =
          static_cast<std::uint64_t>(std::max<double>(0, observations->as_number()));
      sketches.push_back(std::move(s));
    }
    out.emplace(id->as_string(), std::move(sketches));
  }
  return out;
}

EvolutionReport& EvolutionReport::operator+=(const EvolutionReport& other) {
  actions.insert(actions.end(), other.actions.begin(), other.actions.end());
  services_seen += other.services_seen;
  services_changed += other.services_changed;
  services_rejected += other.services_rejected;
  specialised += other.specialised;
  merged += other.merged;
  evicted += other.evicted;
  conflict_discards += other.conflict_discards;
  patterns_before += other.patterns_before;
  patterns_after += other.patterns_after;
  return *this;
}

std::vector<Pattern> evolve_service(
    const std::vector<Pattern>& patterns,
    const std::map<std::string, std::vector<ValueSketch>>& sketches,
    const EvolutionOptions& opts, EvolutionReport* report) {
  if (patterns.empty()) return patterns;
  const std::string& service = patterns.front().service;
  std::vector<EvolutionAction> actions;
  std::vector<Pattern> work = patterns;
  std::set<std::string> evicted_ids;

  // 1. TTL eviction: drop patterns whose newest timestamp aged out.
  //    Patterns with no timestamps at all cannot be aged and are kept.
  if (opts.ttl_days > 0 && opts.now_unix > 0) {
    const std::int64_t ttl_s =
        static_cast<std::int64_t>(opts.ttl_days) * 86400;
    std::vector<Pattern> kept;
    kept.reserve(work.size());
    for (Pattern& p : work) {
      const std::int64_t last =
          std::max(p.stats.last_matched, p.stats.first_seen);
      if (last > 0 && opts.now_unix - last > ttl_s) {
        evicted_ids.insert(p.id());
        actions.push_back(
            {EvolutionAction::Kind::kEvict, service,
             "'" + p.text() + "' unmatched for " +
                 std::to_string((opts.now_unix - last) / 86400) + " days"});
      } else {
        kept.push_back(std::move(p));
      }
    }
    work = std::move(kept);
  }

  // 2. Re-specialise over-general wildcards from the match-time sketches
  //    (or, offline and opt-in, from the stored examples).
  if (opts.specialise) {
    for (Pattern& p : work) {
      const auto it = sketches.find(p.id());
      std::vector<ValueSketch> derived;
      const std::vector<ValueSketch>* sk = nullptr;
      if (it != sketches.end()) {
        sk = &it->second;
      } else if (opts.specialise_from_examples) {
        derived = sketches_from_examples(p, opts);
        sk = &derived;
      }
      if (sk == nullptr || sk->empty()) continue;
      specialise_pattern(p, *sk, opts, &actions);
    }
  }

  // 3. Merge near-duplicates.
  if (opts.merge && work.size() >= 2) {
    merge_near_duplicates(work, opts, &actions);
  }

  if (actions.empty()) return patterns;

  // 4. Gatekeeper: the evolved set must come out of resolve_conflicts
  //    clean. Discards it performs are themselves evolution actions.
  std::vector<Pattern> resolved =
      resolve_conflicts(work, opts.scanner, opts.special);
  if (resolved.size() != work.size()) {
    std::set<std::string> surviving;
    for (const Pattern& p : resolved) surviving.insert(p.id());
    for (const Pattern& p : work) {
      if (surviving.count(p.id()) == 0) {
        actions.push_back({EvolutionAction::Kind::kConflictDiscard, service,
                           '\'' + p.text() + '\''});
      }
    }
  }

  // 5. Coverage gate (the metamorphic invariant, checked locally): every
  //    example the ORIGINAL set parsed must still parse under the evolved
  //    set — except examples of evicted patterns, whose loss is the point
  //    of eviction. A violation rejects the whole service's evolution.
  Parser before(opts.scanner, opts.special);
  for (const Pattern& p : patterns) before.add_pattern(p);
  Parser after(opts.scanner, opts.special);
  for (const Pattern& p : resolved) after.add_pattern(p);
  for (const Pattern& p : patterns) {
    if (evicted_ids.count(p.id()) > 0) continue;
    for (const std::string& e : p.examples) {
      if (before.parse(service, e) && !after.parse(service, e)) {
        ++report->services_rejected;
        if (obs::telemetry_enabled()) {
          evolution_metrics().services_rejected.inc();
        }
        return patterns;
      }
    }
  }

  for (const EvolutionAction& a : actions) {
    switch (a.kind) {
      case EvolutionAction::Kind::kSpecialise:
        ++report->specialised;
        break;
      case EvolutionAction::Kind::kMerge:
        ++report->merged;
        break;
      case EvolutionAction::Kind::kEvict:
        ++report->evicted;
        break;
      case EvolutionAction::Kind::kConflictDiscard:
        ++report->conflict_discards;
        break;
    }
    report->actions.push_back(a);
  }
  return resolved;
}

EvolutionReport evolve_repository(PatternRepository& repo,
                                  SketchRegistry* sketches,
                                  const EvolutionOptions& opts) {
  EvolutionMetrics& metrics = evolution_metrics();
  obs::Stage stage(metrics.pass_seconds, obs::TraceCat::kEngine,
                   "evolution_pass");

  EvolutionReport total;
  const std::map<std::string, std::vector<ValueSketch>> sketch_snapshot =
      sketches != nullptr ? sketches->snapshot()
                          : std::map<std::string, std::vector<ValueSketch>>{};

  for (const std::string& service : repo.services()) {
    const std::vector<Pattern> original = repo.load_service(service);
    ++total.services_seen;
    total.patterns_before += original.size();

    EvolutionReport svc;
    std::vector<Pattern> evolved =
        evolve_service(original, sketch_snapshot, opts, &svc);
    total += svc;
    total.patterns_after += evolved.size();
    if (!svc.changed()) continue;

    std::map<std::string, const Pattern*> old_by_id;
    for (const Pattern& p : original) old_by_id[p.id()] = &p;
    std::map<std::string, const Pattern*> new_by_id;
    for (const Pattern& p : evolved) new_by_id[p.id()] = &p;

    // One batch per service = one WAL commit group on a durable store: the
    // rewrite (deletes + inserts + stat deltas) lands atomically or not at
    // all, so a crash mid-evolution can never half-rewrite a service.
    RepositoryBatch batch(&repo);
    for (const auto& [id, p] : old_by_id) {
      if (new_by_id.count(id) == 0) repo.delete_pattern(id);
    }
    for (const Pattern& p : evolved) {
      const auto old_it = old_by_id.find(p.id());
      if (old_it == old_by_id.end()) {
        repo.upsert_pattern(p);
        continue;
      }
      // Same id survived but a merge may have folded counts/examples into
      // it. upsert merges additively, so write the delta only.
      const Pattern& was = *old_it->second;
      if (p.stats.match_count != was.stats.match_count ||
          p.stats.last_matched != was.stats.last_matched ||
          p.examples != was.examples || p.tokens != was.tokens) {
        Pattern delta = p;
        delta.stats.match_count =
            p.stats.match_count >= was.stats.match_count
                ? p.stats.match_count - was.stats.match_count
                : 0;
        repo.upsert_pattern(delta);
      }
    }
    batch.commit();
    ++total.services_changed;
    if (obs::telemetry_enabled()) metrics.services_changed.inc();

    if (sketches != nullptr) {
      for (const auto& [id, p] : old_by_id) {
        if (new_by_id.count(id) == 0) sketches->forget(id);
      }
    }
  }

  if (obs::telemetry_enabled()) {
    metrics.passes.inc();
    metrics.specialised.inc(total.specialised);
    metrics.merged.inc(total.merged);
    metrics.evicted.inc(total.evicted);
    metrics.conflict_discards.inc(total.conflict_discards);
  }
  return total;
}

}  // namespace seqrtg::core
