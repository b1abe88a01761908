#include "testkit/scenario.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <ostream>
#include <sstream>

#include "loggen/corpus.hpp"
#include "util/strings.hpp"

namespace seqrtg::testkit {

namespace {

namespace fs = std::filesystem;

/// Portable seed mixing (std::hash would tie repro seeds to one standard
/// library): FNV-1a over the label folded into the scenario seed through
/// one splitmix64 step.
std::uint64_t mix_seed(std::uint64_t seed, std::string_view label) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : label) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  std::uint64_t state = seed ^ h;
  return util::splitmix64(state);
}

std::vector<std::string> resolved_datasets(const ScenarioOptions& opts) {
  if (!opts.datasets.empty()) return opts.datasets;
  std::vector<std::string> names;
  for (const loggen::DatasetSpec& spec : loggen::loghub_datasets()) {
    names.push_back(spec.name);
  }
  return names;
}

std::string join_datasets(const ScenarioOptions& opts) {
  if (opts.datasets.empty()) return "all";
  std::string out;
  for (const std::string& name : opts.datasets) {
    if (!out.empty()) out += ',';
    out += name;
  }
  return out;
}

std::uint64_t total_match_count(store::PatternStore& store) {
  std::uint64_t sum = 0;
  for (const std::string& service : store.services()) {
    for (const core::Pattern& p : store.load_service(service)) {
      sum += p.stats.match_count;
    }
  }
  return sum;
}

/// Seeded byte damage that keeps the message printable and non-empty so
/// the JSON round-trip and the scanner both stay in realistic territory.
void mutate_message(util::Rng& rng, std::string& message) {
  if (message.empty()) return;
  const std::size_t edits = 1 + rng.next_below(3);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t pos = rng.next_below(message.size());
    message[pos] = static_cast<char>(' ' + rng.next_below(95));
  }
}

ScenarioResult fail_result(const ScenarioOptions& opts, std::string oracle,
                           std::string detail, std::size_t corpus_size) {
  ScenarioResult result;
  result.ok = false;
  result.oracle = std::move(oracle);
  result.detail = std::move(detail);
  result.corpus_size = corpus_size;
  result.repro = repro_command(opts);
  return result;
}

/// RAII scratch directory for the recovery drill.
struct TempDir {
  fs::path path;
  explicit TempDir(std::uint64_t seed)
      : path(fs::temp_directory_path() /
             ("seqrtg_testkit_" + std::to_string(::getpid()) + "_" +
              std::to_string(seed))) {
    std::error_code ec;
    fs::remove_all(path, ec);
    fs::create_directories(path, ec);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// tear-wal / crash drill: stream into a durable store under the fault,
/// reopen cold, check the WAL-replay invariants.
ScenarioResult run_recovery(const ScenarioOptions& opts,
                            const std::vector<core::LogRecord>& corpus,
                            std::ostream* log) {
  TempDir dir(opts.seed);
  std::vector<core::LogRecord> fed = corpus;
  if (opts.fault.crash_after != 0 && opts.fault.crash_after < fed.size()) {
    fed.resize(opts.fault.crash_after);
  }

  std::uint64_t processed = 0;
  bool wedged = false;
  {
    store::PatternStore store;
    if (!store.open(dir.path.string())) {
      return fail_result(opts, "recovery",
                         "cannot open scratch store directory " +
                             dir.path.string(),
                         corpus.size());
    }
    if (auto hook = opts.fault.wal_hook()) {
      store.set_wal_fault_hook(std::move(hook));
    }
    ServeConfig config;
    config.lanes = opts.lanes;
    config.store = &store;
    config.queue_fault = opts.fault.queue_hook();
    const MiningResult served = mine_serve(fed, opts.engine, config);
    if (!served.started) {
      return fail_result(opts, "recovery", served.canonical, corpus.size());
    }
    if (served.accepted + served.dropped != fed.size() ||
        served.processed != served.accepted) {
      std::ostringstream detail;
      detail << "serve accounting diverged under fault: fed=" << fed.size()
             << " accepted=" << served.accepted
             << " processed=" << served.processed
             << " dropped=" << served.dropped;
      return fail_result(opts, "recovery:accounting", detail.str(),
                         corpus.size());
    }
    processed = served.processed;
    wedged = store.wal_wedged();
  }

  store::PatternStore reopened;
  if (!reopened.open(dir.path.string())) {
    return fail_result(opts, "recovery",
                       "cold reopen after the fault failed",
                       corpus.size());
  }
  const std::uint64_t recovered = total_match_count(reopened);
  if (log != nullptr) {
    *log << "  recovery: processed=" << processed
         << " recovered=" << recovered << " wal_wedged=" << wedged << "\n";
  }
  if (recovered > processed) {
    return fail_result(opts, "recovery:inflated",
                       "recovered match count " +
                           std::to_string(recovered) +
                           " exceeds records processed " +
                           std::to_string(processed),
                       corpus.size());
  }
  if (!wedged && recovered != processed) {
    return fail_result(
        opts, "recovery:lost",
        "no WAL fault fired yet recovery lost acknowledged records: "
        "recovered=" +
            std::to_string(recovered) +
            " processed=" + std::to_string(processed),
        corpus.size());
  }
  if (wedged && processed > 0 && recovered >= processed) {
    return fail_result(
        opts, "recovery:tear-not-observed",
        "the WAL wedged (a commit group was torn) but recovery still "
        "reports every processed record — the torn tail was not "
        "truncated: recovered=" +
            std::to_string(recovered) +
            " processed=" + std::to_string(processed),
        corpus.size());
  }
  ScenarioResult result;
  result.corpus_size = corpus.size();
  result.repro = repro_command(opts);
  return result;
}

}  // namespace

std::vector<core::LogRecord> compose_corpus(const ScenarioOptions& opts) {
  const std::vector<std::string> names = resolved_datasets(opts);
  std::vector<std::vector<core::LogRecord>> streams;
  for (std::size_t d = 0; d < names.size(); ++d) {
    const loggen::DatasetSpec* spec = loggen::find_dataset(names[d]);
    if (spec == nullptr) continue;  // validated by run_scenario
    const std::size_t share = opts.records / names.size() +
                              (d < opts.records % names.size() ? 1 : 0);
    const eval::LabeledCorpus corpus = loggen::generate_corpus(
        *spec, share, mix_seed(opts.seed, spec->name));
    std::vector<core::LogRecord> stream;
    stream.reserve(corpus.messages.size());
    for (const std::string& message : corpus.messages) {
      stream.push_back({spec->name, message});
    }
    streams.push_back(std::move(stream));
  }

  // Seeded cross-service interleave (each service's own order preserved —
  // the shape a shared ingest pipe actually delivers).
  util::Rng rng(mix_seed(opts.seed, "interleave"));
  std::vector<std::size_t> next(streams.size(), 0);
  std::size_t remaining = 0;
  for (const auto& stream : streams) remaining += stream.size();
  std::vector<core::LogRecord> corpus;
  corpus.reserve(remaining);
  while (remaining > 0) {
    std::uint64_t pick = rng.next_below(remaining);
    for (std::size_t s = 0; s < streams.size(); ++s) {
      const std::size_t left = streams[s].size() - next[s];
      if (pick < left) {
        corpus.push_back(std::move(streams[s][next[s]++]));
        break;
      }
      pick -= left;
    }
    --remaining;
  }

  if (opts.mutation_rate > 0.0) {
    util::Rng mutator(mix_seed(opts.seed, "mutate"));
    for (core::LogRecord& record : corpus) {
      if (mutator.chance(opts.mutation_rate)) {
        mutate_message(mutator, record.message);
      }
    }
  }
  return corpus;
}

std::string repro_command(const ScenarioOptions& opts) {
  std::ostringstream out;
  out << "seqrtg testkit --seed " << opts.seed << " --datasets "
      << join_datasets(opts) << " --records " << opts.records
      << " --lanes " << opts.lanes << " --threads " << opts.threads;
  if (opts.mutation_rate > 0.0) {
    out << " --mutation-rate " << opts.mutation_rate;
  }
  if (!opts.fault.empty()) {
    out << " --fault '" << opts.fault.to_string() << "'";
  }
  if (!opts.run_soundness && !opts.run_idempotence && !opts.run_interleave &&
      !opts.run_evolution) {
    out << " --quick";
  }
  if (!opts.shrink) out << " --no-shrink";
  return out.str();
}

std::vector<core::LogRecord> shrink_failing(
    std::vector<core::LogRecord> records,
    const std::function<bool(const std::vector<core::LogRecord>&)>&
        still_fails,
    std::size_t max_probes) {
  if (records.empty() || max_probes == 0) return records;
  std::size_t probes = 0;
  std::size_t chunk = (records.size() + 1) / 2;
  while (chunk >= 1) {
    bool removed_any = false;
    for (std::size_t start = 0;
         start < records.size() && probes < max_probes;) {
      const std::size_t stop = std::min(records.size(), start + chunk);
      if (stop - start == records.size()) {  // never probe the empty set
        start = stop;
        continue;
      }
      std::vector<core::LogRecord> candidate;
      candidate.reserve(records.size() - (stop - start));
      candidate.insert(candidate.end(), records.begin(),
                       records.begin() + static_cast<std::ptrdiff_t>(start));
      candidate.insert(candidate.end(),
                       records.begin() + static_cast<std::ptrdiff_t>(stop),
                       records.end());
      ++probes;
      if (still_fails(candidate)) {
        records = std::move(candidate);
        removed_any = true;
        // The next chunk now occupies this slot; keep `start`.
      } else {
        start = stop;
      }
    }
    if (probes >= max_probes) break;
    if (chunk == 1) {
      if (!removed_any) break;
      continue;  // 1-granularity passes repeat until a fixpoint
    }
    chunk = std::max<std::size_t>(1, chunk / 2);
  }
  return records;
}

ScenarioResult run_scenario(const ScenarioOptions& opts,
                            std::ostream* log) {
  for (const std::string& name : opts.datasets) {
    if (loggen::find_dataset(name) == nullptr) {
      return fail_result(opts, "config", "unknown dataset: " + name, 0);
    }
  }
  const std::vector<core::LogRecord> corpus = compose_corpus(opts);
  if (log != nullptr) {
    *log << "  corpus: " << corpus.size() << " record(s) from "
         << join_datasets(opts) << " (seed " << opts.seed << ")\n";
  }

  if (opts.fault.has_recovery_fault()) {
    return run_recovery(opts, corpus, log);
  }

  DifferentialOptions dopts;
  dopts.threads = opts.threads;
  dopts.lanes = opts.lanes;
  dopts.serve_queue_fault = opts.fault.queue_hook();
  // cluster@N turns the cluster leg on explicitly; a misroute fault with
  // no explicit size implies it (the fault targets the router).
  dopts.cluster_nodes = opts.fault.cluster_nodes != 0
                            ? static_cast<std::size_t>(
                                  opts.fault.cluster_nodes)
                            : (opts.fault.has_misroute() ? 3 : 0);
  dopts.cluster_route_fault = opts.fault.route_hook();
  // memlimit@B turns the governed leg on explicitly; a misaccount fault
  // with no explicit ceiling implies it (the fault targets the ledger,
  // and check_differential falls back to kDefaultGovernedCeiling).
  dopts.memlimit_bytes = opts.fault.memlimit_bytes;
  dopts.governed_misaccount = opts.fault.misaccount_hook();

  OracleVerdict verdict = check_differential(corpus, opts.engine, dopts);
  // Metamorphic oracles only make sense on an unfaulted pipeline.
  if (!verdict.has_value() && !opts.fault.has_drop() &&
      !opts.fault.has_misroute() && !opts.fault.has_misaccount()) {
    if (opts.run_soundness) {
      verdict = check_soundness(corpus, opts.engine);
    }
    if (!verdict.has_value() && opts.run_idempotence) {
      verdict = check_idempotence(corpus, opts.engine);
    }
    if (!verdict.has_value() && opts.run_interleave) {
      verdict = check_interleave_invariance(
          corpus, opts.engine, mix_seed(opts.seed, "interleave-oracle"));
    }
    if (!verdict.has_value() && opts.run_evolution) {
      verdict = check_evolution(corpus, opts.engine);
    }
  }
  if (!verdict.has_value()) {
    ScenarioResult result;
    result.corpus_size = corpus.size();
    result.repro = repro_command(opts);
    return result;
  }

  ScenarioResult result = fail_result(opts, verdict->oracle,
                                      verdict->detail, corpus.size());
  if (opts.shrink) {
    const std::string oracle = verdict->oracle;
    const auto still_fails =
        [&](const std::vector<core::LogRecord>& subset) {
          OracleVerdict v;
          if (util::starts_with(oracle, "differential") ||
              util::starts_with(oracle, "governance")) {
            v = check_differential(subset, opts.engine, dopts);
          } else if (util::starts_with(oracle, "soundness")) {
            v = check_soundness(subset, opts.engine);
          } else if (oracle == "idempotence") {
            v = check_idempotence(subset, opts.engine);
          } else if (oracle == "interleave-invariance") {
            v = check_interleave_invariance(
                subset, opts.engine,
                mix_seed(opts.seed, "interleave-oracle"));
          } else if (util::starts_with(oracle, "evolution")) {
            v = check_evolution(subset, opts.engine);
          } else {
            return false;
          }
          return v.has_value() && v->oracle == oracle;
        };
    result.shrunk =
        shrink_failing(corpus, still_fails, opts.max_shrink_probes);
    if (log != nullptr) {
      *log << "  shrunk: " << corpus.size() << " -> "
           << result.shrunk.size() << " record(s)\n";
    }
  }
  return result;
}

}  // namespace seqrtg::testkit
