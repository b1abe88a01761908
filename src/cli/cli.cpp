#include "cli/cli.hpp"

#include <poll.h>

#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/analyze_by_service.hpp"
#include "core/evolution.hpp"
#include "core/ingest.hpp"
#include "core/parser.hpp"
#include "core/token.hpp"
#include "core/validation.hpp"
#include "exporters/exporter.hpp"
#include "exporters/patterndb_import.hpp"
#include "loggen/corpus.hpp"
#include "loggen/fleet.hpp"
#include "obs/build_info.hpp"
#include "obs/eventlog.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/simulation.hpp"
#include "serve/cluster.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "store/pattern_store.hpp"
#include "testkit/canonical.hpp"
#include "testkit/scenario.hpp"
#include "util/argparse.hpp"
#include "util/rng.hpp"
#include "util/signal.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace seqrtg::cli {

namespace {

/// Shared scanner/engine flags.
void add_engine_options(util::ArgParser& args) {
  args.add_option("db", "pattern database file", "patterns.db");
  args.add_option("store-dir",
                  "durable store directory (WAL + atomic snapshots); "
                  "overrides --db",
                  "");
  args.add_flag("lenient-time",
                "accept single-digit time parts (future-work datetime FSM)");
  args.add_flag("no-path-fsm", "disable the path detector");
  args.add_flag("merge-mixed-alnum",
                "merge alphanumeric/integer alternating fields");
  args.add_flag("semi-constant-split",
                "one pattern per value for low-cardinality fields");
}

core::EngineOptions engine_options_from(const util::ArgParser& args) {
  core::EngineOptions opts;
  opts.scanner.datetime.lenient_time = args.get_flag("lenient-time");
  opts.special.detect_path = !args.get_flag("no-path-fsm");
  opts.analyzer.merge_mixed_alnum = args.get_flag("merge-mixed-alnum");
  opts.analyzer.semi_constant_split = args.get_flag("semi-constant-split");
  return opts;
}

/// Resource-governance flags shared by analyze and serve.
void add_governor_options(util::ArgParser& args) {
  args.add_option("mem-ceiling",
                  "resident partition-memory ceiling in bytes (K/M/G "
                  "suffixes accepted); cold partitions spill to the durable "
                  "store when exceeded (0 = unlimited)",
                  "0");
  args.add_option("spill-watermark",
                  "fraction of the ceiling a spill pass drains down to",
                  "0.9");
}

/// Parses "67108864", "512K", "64M" or "1G" into bytes; false on junk.
bool parse_byte_size(const std::string& text, std::size_t* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || end == text.c_str()) return false;
  std::size_t mult = 1;
  if (*end == 'k' || *end == 'K') {
    mult = 1024;
    ++end;
  } else if (*end == 'm' || *end == 'M') {
    mult = 1024ull * 1024;
    ++end;
  } else if (*end == 'g' || *end == 'G') {
    mult = 1024ull * 1024 * 1024;
    ++end;
  }
  if (*end != '\0') return false;
  if (v > std::numeric_limits<std::size_t>::max() / mult) {
    return false;  // the suffix multiply would wrap to a tiny ceiling
  }
  *out = static_cast<std::size_t>(v) * mult;
  return true;
}

/// Reads the governance flags into a policy. False (after a message) on a
/// malformed value or a ceiling without a durable store to spill into.
bool governor_policy_from(const util::ArgParser& args,
                          const store::PatternStore& store,
                          core::GovernorPolicy* policy, std::ostream& err) {
  std::size_t ceiling = 0;
  if (!parse_byte_size(args.get("mem-ceiling"), &ceiling)) {
    err << "--mem-ceiling must be a byte size like 67108864, 64M or 1G\n";
    return false;
  }
  if (ceiling > 0 && !store.durable()) {
    err << "--mem-ceiling spills cold partitions to the durable store and "
           "needs --store-dir\n";
    return false;
  }
  const double watermark = args.get_double("spill-watermark", 0.9);
  if (watermark <= 0.0 || watermark > 1.0) {
    err << "--spill-watermark must be in (0, 1]\n";
    return false;
  }
  policy->ceiling_bytes = ceiling;
  policy->spill_watermark = watermark;
  return true;
}

/// Telemetry snapshot flags shared by the run-style verbs.
void add_metrics_options(util::ArgParser& args) {
  args.add_option("metrics-out",
                  "write a telemetry snapshot to this file after the run",
                  "");
  args.add_option("metrics-format",
                  "prometheus | json (default: by file extension)", "");
}

/// Writes the process-wide registry when --metrics-out was given.
/// Returns 0 on success (or nothing to do), 1 on failure.
int finish_metrics(const util::ArgParser& args, std::ostream& err) {
  const std::string path = args.get("metrics-out");
  if (path.empty()) return 0;
  obs::register_build_metrics();
  if (!obs::write_metrics_file(obs::default_registry(), path,
                               args.get("metrics-format"))) {
    err << "failed to write metrics to " << path << "\n";
    return 1;
  }
  return 0;
}

/// Span-trace capture flags shared by the run-style verbs.
void add_trace_options(util::ArgParser& args) {
  args.add_option("trace-out",
                  "write a Chrome trace-event JSON of the run to this file "
                  "(open in chrome://tracing or Perfetto)",
                  "");
  args.add_option("trace-sample",
                  "record 1 in N per-record scan/parse spans (power of 2)",
                  "64");
}

/// Arms the process tracer when --trace-out was given. False (after a
/// message) on a bad --trace-sample value.
bool start_trace(const util::ArgParser& args, std::ostream& err) {
  if (args.get("trace-out").empty()) return true;
  const auto n = args.get_int("trace-sample", 64);
  if (n < 1 || (n & (n - 1)) != 0) {
    err << "--trace-sample must be a power of two >= 1\n";
    return false;
  }
  obs::TracerConfig config;
  config.sample_mask = static_cast<std::uint64_t>(n) - 1;
  obs::tracer().start(config);
  obs::tracer().set_thread_name("main");
  return true;
}

/// Stops the tracer and writes the capture when --trace-out was given.
/// Returns 0 on success (or nothing to do), 1 on failure.
int finish_trace(const util::ArgParser& args, std::ostream& err) {
  const std::string path = args.get("trace-out");
  if (path.empty()) return 0;
  obs::tracer().stop();
  if (!obs::tracer().write_chrome_json(path)) {
    err << "failed to write trace to " << path << "\n";
    return 1;
  }
  return 0;
}

/// finish_trace + finish_metrics; the first failure wins.
int finish_observability(const util::ArgParser& args, std::ostream& err) {
  if (const int rc = finish_trace(args, err); rc != 0) return rc;
  return finish_metrics(args, err);
}

/// Attaches `store` per the persistence flags: --store-dir opens the
/// durable directory (recovery: newest valid snapshot + WAL tail), --db
/// loads the legacy single-file snapshot. Returns false (with a message)
/// when the requested source cannot be opened; `must_exist` relaxes a
/// missing --db file into an empty store (mining verbs start fresh).
bool attach_store(const util::ArgParser& args, store::PatternStore& store,
                  std::ostream& err, bool must_exist) {
  const std::string dir = args.get("store-dir");
  if (!dir.empty()) {
    if (!store.open(dir)) {
      err << "cannot open store directory " << dir << "\n";
      return false;
    }
    return true;
  }
  if (!store.load(args.get("db")) && must_exist) {
    err << "cannot load pattern database " << args.get("db") << "\n";
    return false;
  }
  return true;
}

/// Persists `store`: snapshot rotation when durable, --db overwrite
/// otherwise.
bool persist_store(const util::ArgParser& args, store::PatternStore& store,
                   std::ostream& err) {
  if (store.durable()) {
    if (!store.checkpoint()) {
      err << "failed to checkpoint " << args.get("store-dir") << "\n";
      return false;
    }
    return true;
  }
  if (!store.save(args.get("db"))) {
    err << "failed to save " << args.get("db") << "\n";
    return false;
  }
  return true;
}

/// Opens the positional input (file path or "-"/absent = the stream `in`).
std::istream* open_input(const util::ArgParser& args, std::istream& in,
                         std::ifstream& file, std::ostream& err) {
  if (args.positional().empty() || args.positional()[0] == "-") return &in;
  file.open(args.positional()[0]);
  if (!file) {
    err << "cannot open " << args.positional()[0] << "\n";
    return nullptr;
  }
  return &file;
}

int cmd_analyze(const std::vector<std::string>& argv, std::istream& in,
                std::ostream& out, std::ostream& err) {
  util::ArgParser args;
  add_engine_options(args);
  args.add_option("batch", "batch size (records)", "100000");
  args.add_option("threads", "worker threads for the service fan-out", "1");
  args.add_option("save-threshold",
                  "minimum matches for a pattern to be saved", "1");
  add_governor_options(args);
  add_metrics_options(args);
  add_trace_options(args);
  if (!args.parse(argv)) {
    err << args.error() << "\n" << args.usage();
    return 2;
  }
  if (!start_trace(args, err)) return 2;

  // Declared before the store so destruction runs store first: the store
  // calls back into its attached governor while tearing down, so the
  // governor (and its accountant) must outlive it on every return path.
  core::MemoryAccountant accountant;
  std::unique_ptr<core::Governor> governor;
  store::PatternStore store;
  const std::string db = args.get("db");
  if (!attach_store(args, store, err, /*must_exist=*/false)) return 1;
  if (store.durable()) {
    out << "recovered " << store.pattern_count() << " patterns from "
        << args.get("store-dir") << "\n";
  } else if (store.pattern_count() > 0) {
    out << "loaded " << store.pattern_count() << " patterns from " << db
        << "\n";
  }
  core::EngineOptions opts = engine_options_from(args);
  opts.threads = static_cast<std::size_t>(args.get_int("threads", 1));
  opts.save_threshold =
      static_cast<std::uint64_t>(args.get_int("save-threshold", 1));
  // Date the mined patterns like the serve lanes do, so `compact
  // --ttl-days` can age offline-built databases instead of treating every
  // pattern as undated (undated = exempt from TTL eviction).
  opts.now_unix = static_cast<std::int64_t>(std::time(nullptr));
  core::GovernorPolicy policy;
  if (!governor_policy_from(args, store, &policy, err)) return 2;
  if (policy.ceiling_bytes > 0) {
    governor = std::make_unique<core::Governor>(policy, &accountant);
    store.attach_governor(governor.get());
    opts.governor = governor.get();
  }
  core::Engine engine(&store, opts);
  core::JsonStreamIngester ingester(
      static_cast<std::size_t>(args.get_int("batch", 100000)));

  std::ifstream file;
  std::istream* input = open_input(args, in, file, err);
  if (input == nullptr) return 1;

  util::Stopwatch total;
  core::BatchReport sum;
  std::size_t batches = 0;
  while (true) {
    const auto batch = ingester.read_batch(*input);
    if (batch.empty()) break;
    sum += engine.analyze_by_service(batch);
    ++batches;
  }
  out << "analyzed " << sum.records << " records in " << batches
      << " batch(es), " << total.seconds() << "s: "
      << sum.matched_existing << " matched existing, " << sum.analyzed
      << " mined, " << sum.new_patterns << " new patterns ("
      << sum.below_threshold << " below threshold)\n";
  if (ingester.stats().malformed > 0) {
    out << ingester.stats().malformed << " malformed line(s) skipped\n";
  }
  if (!persist_store(args, store, err)) return 1;
  out << store.pattern_count() << " patterns in "
      << (store.durable() ? args.get("store-dir") : db) << "\n";
  return finish_observability(args, err);
}

int cmd_parse(const std::vector<std::string>& argv, std::istream& in,
              std::ostream& out, std::ostream& err) {
  util::ArgParser args;
  add_engine_options(args);
  args.add_option("service",
                  "treat input as raw lines from this service "
                  "(default: JSON-lines stream)",
                  "");
  args.add_flag("quiet", "print only the summary");
  add_metrics_options(args);
  add_trace_options(args);
  if (!args.parse(argv)) {
    err << args.error() << "\n" << args.usage();
    return 2;
  }
  if (!start_trace(args, err)) return 2;

  store::PatternStore store;
  if (!attach_store(args, store, err, /*must_exist=*/true)) return 1;
  const core::EngineOptions opts = engine_options_from(args);
  core::Parser parser(opts.scanner, opts.special);
  for (const std::string& svc : store.services()) {
    for (const core::Pattern& p : store.load_service(svc)) {
      parser.add_pattern(p);
    }
  }

  std::ifstream file;
  std::istream* input = open_input(args, in, file, err);
  if (input == nullptr) return 1;

  const std::string fixed_service = args.get("service");
  const bool quiet = args.get_flag("quiet");
  std::string line;
  std::size_t matched = 0;
  std::size_t unmatched = 0;
  while (std::getline(*input, line)) {
    core::LogRecord rec;
    if (!fixed_service.empty()) {
      rec.service = fixed_service;
      rec.message = line;
    } else if (auto parsed = core::JsonStreamIngester::parse_line(line)) {
      rec = std::move(*parsed);
    } else {
      continue;
    }
    if (const auto result = parser.parse(rec.service, rec.message)) {
      ++matched;
      if (!quiet) {
        out << "MATCH " << result->pattern->id() << " "
            << result->pattern->text();
        for (const auto& [name, value] : result->fields) {
          out << " " << name << "=" << value;
        }
        out << "\n";
      }
    } else {
      ++unmatched;
      if (!quiet) out << "UNMATCHED " << rec.message << "\n";
    }
  }
  out << matched << " matched, " << unmatched << " unmatched\n";
  return finish_observability(args, err);
}

int cmd_export(const std::vector<std::string>& argv, std::istream&,
               std::ostream& out, std::ostream& err) {
  util::ArgParser args;
  args.add_option("db", "pattern database file", "patterns.db");
  args.add_option("store-dir",
                  "durable store directory (overrides --db)", "");
  args.add_option("format", "patterndb | yaml | grok | canonical",
                  "patterndb");
  args.add_option("min-count", "minimum match count", "0");
  args.add_option("max-complexity",
                  "exclude patterns at or above this complexity", "1.01");
  args.add_option("service", "restrict to one service", "");
  args.add_option("output", "output file (default: stdout)", "");
  if (!args.parse(argv)) {
    err << args.error() << "\n" << args.usage();
    return 2;
  }
  store::PatternStore store;
  if (!attach_store(args, store, err, /*must_exist=*/true)) return 1;
  std::string doc;
  std::size_t exported = 0;
  if (args.get("format") == "canonical") {
    // The testkit's oracle rendering — what the cluster smoke diff
    // compares across deployments (filters don't apply).
    doc = testkit::canonical_patterns(store);
    exported = store.pattern_count();
  } else {
    store::PatternStore::ExportFilter filter;
    filter.min_match_count =
        static_cast<std::uint64_t>(args.get_int("min-count", 0));
    filter.max_complexity = args.get_double("max-complexity", 1.01);
    filter.service = args.get("service");
    const auto patterns = store.export_patterns(filter);
    exported = patterns.size();
    doc = exporters::export_patterns(
        patterns, exporters::format_from_name(args.get("format")));
  }
  if (args.get("output").empty()) {
    out << doc;
  } else {
    std::ofstream f(args.get("output"));
    if (!f) {
      err << "cannot write " << args.get("output") << "\n";
      return 1;
    }
    f << doc;
    out << "exported " << exported << " pattern(s) to "
        << args.get("output") << "\n";
  }
  return 0;
}

int cmd_stats(const std::vector<std::string>& argv, std::istream&,
              std::ostream& out, std::ostream& err) {
  util::ArgParser args;
  args.add_option("db", "pattern database file", "patterns.db");
  args.add_option("store-dir",
                  "durable store directory (WAL + atomic snapshots); "
                  "overrides --db",
                  "");
  args.add_flag("telemetry",
                "dump the process telemetry snapshot (Prometheus text "
                "exposition) instead of the per-service table");
  add_metrics_options(args);
  if (!args.parse(argv)) {
    err << args.error() << "\n" << args.usage();
    return 2;
  }
  store::PatternStore store;
  if (!attach_store(args, store, err, /*must_exist=*/true)) return 1;
  if (args.get_flag("telemetry")) {
    core::TokenBuffer::register_metrics();
    out << obs::to_prometheus(obs::default_registry());
    return finish_metrics(args, err);
  }
  if (store.durable()) {
    const auto d = store.durability_stats();
    const std::int64_t now =
        static_cast<std::int64_t>(std::time(nullptr));
    const auto age = [now](std::int64_t unix) {
      return unix == 0 ? std::string("never")
                       : std::to_string(now - unix) + "s ago";
    };
    out << "store: " << d.dir << "\n"
        << "snapshot: seq " << d.snapshot_seq << ", written "
        << age(d.snapshot_unix) << "\n"
        << "wal: " << d.wal_records << " record(s), " << d.wal_bytes
        << " bytes, last seq " << d.last_seq << ", written "
        << age(d.wal_unix) << "\n";
  }
  std::uint64_t total_matches = 0;
  out << "service                        patterns   matches\n";
  for (const std::string& svc : store.services()) {
    const auto patterns = store.load_service(svc);
    std::uint64_t matches = 0;
    for (const core::Pattern& p : patterns) {
      matches += p.stats.match_count;
    }
    total_matches += matches;
    out << svc;
    for (std::size_t i = svc.size(); i < 30; ++i) out << ' ';
    out << " " << patterns.size() << "   " << matches << "\n";
  }
  out << "total: " << store.pattern_count() << " patterns, "
      << total_matches << " recorded matches\n";
  return finish_metrics(args, err);
}

int cmd_validate(const std::vector<std::string>& argv, std::istream&,
                 std::ostream& out, std::ostream& err) {
  util::ArgParser args;
  add_engine_options(args);
  add_metrics_options(args);
  if (!args.parse(argv)) {
    err << args.error() << "\n" << args.usage();
    return 2;
  }
  store::PatternStore store;
  if (!attach_store(args, store, err, /*must_exist=*/true)) return 1;
  const core::EngineOptions opts = engine_options_from(args);
  std::size_t conflicts = 0;
  for (const std::string& svc : store.services()) {
    const core::ValidationReport report = core::validate_patterns(
        store.load_service(svc), opts.scanner, opts.special);
    for (const core::PatternConflict& c : report.conflicts) {
      ++conflicts;
      out << "CONFLICT service=" << svc << " pattern=" << c.pattern_id
          << " example matched "
          << (c.matched_id.empty() ? "<nothing>" : c.matched_id) << ": "
          << c.example << "\n";
    }
  }
  out << (conflicts == 0 ? "database is clean\n"
                         : std::to_string(conflicts) + " conflict(s)\n");
  if (const int rc = finish_metrics(args, err); rc != 0) return rc;
  return conflicts == 0 ? 0 : 1;
}

int cmd_purge(const std::vector<std::string>& argv, std::istream&,
              std::ostream& out, std::ostream& err) {
  util::ArgParser args;
  args.add_option("db", "pattern database file", "patterns.db");
  args.add_option("below", "delete patterns with fewer matches", "2");
  if (!args.parse(argv)) {
    err << args.error() << "\n" << args.usage();
    return 2;
  }
  store::PatternStore store;
  if (!store.load(args.get("db"))) {
    err << "cannot load pattern database " << args.get("db") << "\n";
    return 1;
  }
  const std::int64_t below = args.get_int("below", 2);
  // Collect the doomed patterns first, then delete each through the store,
  // which removes its examples too and keeps the partition ledger in step.
  std::size_t purged = 0;
  for (const core::Pattern& p : store.export_patterns({})) {
    if (static_cast<std::int64_t>(p.stats.match_count) < below &&
        store.delete_pattern(p.id())) {
      ++purged;
    }
  }
  if (!store.save(args.get("db"))) {
    err << "failed to save " << args.get("db") << "\n";
    return 1;
  }
  out << "purged " << purged << " pattern(s) below " << below
      << " matches; " << store.pattern_count() << " remain\n";
  return 0;
}

const char* evolution_kind_name(core::EvolutionAction::Kind kind) {
  switch (kind) {
    case core::EvolutionAction::Kind::kSpecialise: return "SPECIALISE";
    case core::EvolutionAction::Kind::kMerge: return "MERGE";
    case core::EvolutionAction::Kind::kEvict: return "EVICT";
    case core::EvolutionAction::Kind::kConflictDiscard: return "DISCARD";
  }
  return "?";
}

int cmd_compact(const std::vector<std::string>& argv, std::istream& in,
                std::ostream& out, std::ostream& err) {
  util::ArgParser args;
  add_engine_options(args);
  args.add_option("ttl-days",
                  "evict patterns unmatched for this many days (0 = never)",
                  "0");
  args.add_option("now",
                  "unix timestamp TTL ages run against (default: wall "
                  "clock)",
                  "");
  args.add_option("min-observations",
                  "singleton observations required before a wildcard is "
                  "re-specialised",
                  "3");
  args.add_option("merge-min-group",
                  "literal near-duplicate group size that merges "
                  "unconditionally",
                  "4");
  args.add_flag("no-specialise", "skip wildcard re-specialisation");
  args.add_flag("no-merge", "skip near-duplicate merging");
  args.add_flag("specialise-from-examples",
                "without a replay corpus, derive value sketches from the "
                "stored examples (a small traffic sample — may specialise "
                "away coverage; off by default)");
  args.add_flag("dry-run",
                "report what would change without rewriting the store");
  args.add_flag("quiet", "print only the summary");
  add_metrics_options(args);
  add_trace_options(args);
  if (!args.parse(argv)) {
    err << args.error() << "\n" << args.usage();
    return 2;
  }
  if (!start_trace(args, err)) return 2;

  store::PatternStore store;
  if (!attach_store(args, store, err, /*must_exist=*/true)) return 1;

  const core::EngineOptions engine_opts = engine_options_from(args);
  core::EvolutionOptions eopts;
  eopts.scanner = engine_opts.scanner;
  eopts.special = engine_opts.special;
  eopts.specialise = !args.get_flag("no-specialise");
  eopts.merge = !args.get_flag("no-merge");
  eopts.specialise_from_examples = args.get_flag("specialise-from-examples");
  eopts.specialise_min_observations =
      static_cast<std::uint64_t>(args.get_int("min-observations", 3));
  eopts.merge_min_group =
      static_cast<std::size_t>(args.get_int("merge-min-group", 4));
  eopts.ttl_days = static_cast<std::uint32_t>(args.get_int("ttl-days", 0));
  eopts.example_cap = engine_opts.analyzer.example_cap;
  eopts.now_unix = args.has("now")
                       ? args.get_int("now", 0)
                       : static_cast<std::int64_t>(std::time(nullptr));

  // Optional replay corpus (positional JSON-lines path, "-" = stdin):
  // matched records feed the per-position value sketches exactly as the
  // serve lanes would at match time. Without one, re-specialisation only
  // runs if --specialise-from-examples opts into the example fallback.
  core::SketchRegistry sketches;
  if (!args.positional().empty()) {
    std::ifstream file;
    std::istream* input = open_input(args, in, file, err);
    if (input == nullptr) return 1;
    core::Parser parser(eopts.scanner, eopts.special);
    for (const std::string& svc : store.services()) {
      for (const core::Pattern& p : store.load_service(svc)) {
        parser.add_pattern(p);
      }
    }
    std::size_t replayed = 0;
    std::size_t matched = 0;
    std::string line;
    while (std::getline(*input, line)) {
      const auto record = core::JsonStreamIngester::parse_line(line);
      if (!record.has_value()) continue;
      ++replayed;
      if (const auto result =
              parser.parse(record->service, record->message)) {
        ++matched;
        sketches.observe(result->pattern->id(), result->fields);
      }
    }
    out << "replayed " << replayed << " record(s), " << matched
        << " matched, " << sketches.pattern_count()
        << " pattern(s) sketched\n";
  }

  core::EvolutionReport report;
  if (args.get_flag("dry-run")) {
    // Evolve a scratch copy so the store (and its WAL) stays untouched.
    core::InMemoryRepository scratch;
    scratch.set_example_cap(eopts.example_cap);
    for (const std::string& svc : store.services()) {
      for (const core::Pattern& p : store.load_service(svc)) {
        scratch.upsert_pattern(p);
      }
    }
    report = core::evolve_repository(scratch, &sketches, eopts);
  } else {
    report = core::evolve_repository(store, &sketches, eopts);
  }

  if (!args.get_flag("quiet")) {
    for (const core::EvolutionAction& a : report.actions) {
      out << evolution_kind_name(a.kind) << " service=" << a.service << " "
          << a.detail << "\n";
    }
  }
  out << "compact: " << report.patterns_before << " -> "
      << report.patterns_after << " patterns across "
      << report.services_seen << " service(s): " << report.specialised
      << " specialised, " << report.merged << " merged, " << report.evicted
      << " evicted, " << report.conflict_discards
      << " conflict discard(s); " << report.services_changed
      << " service(s) rewritten, " << report.services_rejected
      << " rejected by the coverage gate\n";
  if (args.get_flag("dry-run")) {
    out << "dry run: store not modified\n";
  } else {
    if (!persist_store(args, store, err)) return 1;
    out << store.pattern_count() << " patterns in "
        << (store.durable() ? args.get("store-dir") : args.get("db"))
        << "\n";
  }
  return finish_observability(args, err);
}

int cmd_import(const std::vector<std::string>& argv, std::istream& in,
               std::ostream& out, std::ostream& err) {
  util::ArgParser args;
  args.add_option("db", "pattern database file", "patterns.db");
  if (!args.parse(argv)) {
    err << args.error() << "\n" << args.usage();
    return 2;
  }
  std::ifstream file;
  std::istream* input = open_input(args, in, file, err);
  if (input == nullptr) return 1;
  std::stringstream buffer;
  buffer << input->rdbuf();

  const exporters::ImportResult imported =
      exporters::import_patterndb_xml(buffer.str());
  if (!imported.ok()) {
    err << "import failed: " << imported.error << "\n";
    return 1;
  }
  for (const std::string& w : imported.warnings) {
    err << "warning: " << w << "\n";
  }

  store::PatternStore store;
  const std::string db = args.get("db");
  store.load(db);  // merging into a fresh DB is fine too
  for (const core::Pattern& p : imported.patterns) {
    store.upsert_pattern(p);
  }
  if (!store.save(db)) {
    err << "failed to save " << db << "\n";
    return 1;
  }
  out << "imported " << imported.patterns.size() << " pattern(s); " << db
      << " now holds " << store.pattern_count() << "\n";
  return 0;
}

int cmd_simulate(const std::vector<std::string>& argv, std::istream&,
                 std::ostream& out, std::ostream& err) {
  util::ArgParser args;
  args.add_option("days", "simulated days", "15");
  args.add_option("messages-per-day", "messages per simulated day", "20000");
  args.add_option("batch", "Sequence-RTG batch size (records)", "4000");
  args.add_option("services", "fleet: number of services", "80");
  args.add_option("noise", "fleet: one-off noise fraction", "0.13");
  args.add_option("seed", "fleet seed", "");
  args.add_option("reviews-per-day",
                  "candidate patterns promoted per day", "50");
  args.add_option("initial-coverage",
                  "day-one patterndb traffic coverage", "0.22");
  args.add_option("threads", "engine worker threads", "1");
  args.add_option("store-dir",
                  "durable candidate store directory; the daily cycle ends "
                  "with a snapshot checkpoint",
                  "");
  args.add_flag("quiet", "print only the final summary");
  add_metrics_options(args);
  add_trace_options(args);
  if (!args.parse(argv)) {
    err << args.error() << "\n" << args.usage();
    return 2;
  }
  if (!start_trace(args, err)) return 2;

  pipeline::SimulationOptions opts;
  opts.days = static_cast<std::size_t>(args.get_int("days", 15));
  opts.messages_per_day =
      static_cast<std::size_t>(args.get_int("messages-per-day", 20000));
  opts.batch_size = static_cast<std::size_t>(args.get_int("batch", 4000));
  opts.reviews_per_day =
      static_cast<std::size_t>(args.get_int("reviews-per-day", 50));
  opts.initial_coverage = args.get_double("initial-coverage", 0.22);
  opts.fleet.services =
      static_cast<std::size_t>(args.get_int("services", 80));
  opts.fleet.noise_fraction = args.get_double("noise", 0.13);
  if (args.has("seed")) {
    opts.fleet.seed = static_cast<std::uint64_t>(args.get_int("seed", 0));
  }
  opts.engine.threads =
      static_cast<std::size_t>(args.get_int("threads", 1));
  opts.store_dir = args.get("store-dir");

  const bool quiet = args.get_flag("quiet");
  if (!quiet) {
    out << "day  unmatched%  promoted  candidates  analyses\n";
  }
  pipeline::ProductionSimulation sim(opts);
  pipeline::DayStats last;
  for (std::size_t d = 0; d < opts.days; ++d) {
    last = sim.run_day();
    if (!quiet) {
      char line[96];
      std::snprintf(line, sizeof(line), "%3zu  %9.1f%%  %8zu  %10zu  %8zu\n",
                    last.day, last.unmatched_pct, last.promoted_total,
                    last.candidates, last.analyses);
      out << line;
    }
  }
  out << "simulated " << opts.days << " day(s): " << last.unmatched_pct
      << "% unmatched on the last day, " << last.promoted_total
      << " promoted pattern(s), " << last.candidates
      << " candidate(s) pending review\n";
  return finish_observability(args, err);
}

int cmd_serve(const std::vector<std::string>& argv, std::istream& in,
              std::ostream& out, std::ostream& err) {
  util::ArgParser args;
  add_engine_options(args);
  args.add_option("port",
                  "ingest listener port on 127.0.0.1 (0 = kernel-assigned, "
                  "-1 = no socket)",
                  "7614");
  args.add_option("http-port",
                  "/metrics + /healthz + /debug/* port on 127.0.0.1 (0 = "
                  "kernel-assigned, -1 = off)",
                  "9614");
  args.add_flag("stdin", "also consume a JSON-lines stream from stdin");
  args.add_option("lanes", "worker lanes (sharded by service hash)", "4");
  args.add_option("queue-capacity", "records per lane queue", "8192");
  args.add_option("overflow",
                  "full-queue policy: block (lossless backpressure) | drop "
                  "(bounded latency, counted losses)",
                  "block");
  args.add_option("batch", "records per analysis flush", "4096");
  args.add_option("flush-interval",
                  "max seconds a record waits in a partial batch", "1.0");
  args.add_option("checkpoint-interval",
                  "seconds between snapshot checkpoints (0 = only on "
                  "shutdown)",
                  "300");
  args.add_option("save-threshold",
                  "minimum matches for a pattern to be saved", "1");
  args.add_option("evolution-interval",
                  "seconds between background pattern-evolution passes "
                  "(re-specialise/merge/evict + conflict gate; 0 = off)",
                  "0");
  args.add_option("ttl-days",
                  "evolution passes evict patterns unmatched for this many "
                  "days (0 = never)",
                  "0");
  args.add_option("log-level",
                  "structured self-log threshold: debug | info | warn | "
                  "error",
                  "info");
  add_governor_options(args);
  args.add_option("cluster-port",
                  "binary cluster transport listener on 127.0.0.1 "
                  "(records from `seqrtg route`, WAL groups from a "
                  "primary; 0 = kernel-assigned, -1 = off)",
                  "-1");
  args.add_option("ship-to",
                  "hot standby's cluster port: every committed WAL group "
                  "is shipped there synchronously (-1 = no replication)",
                  "-1");
  args.add_option("node-id", "this node's name in cluster hellos/logs",
                  "node");
  add_metrics_options(args);
  add_trace_options(args);
  if (!args.parse(argv)) {
    err << args.error() << "\n" << args.usage();
    return 2;
  }
  if (!start_trace(args, err)) return 2;
  const std::string overflow = args.get("overflow");
  if (overflow != "block" && overflow != "drop") {
    err << "--overflow must be 'block' or 'drop'\n";
    return 2;
  }
  obs::LogLevel log_level = obs::LogLevel::kInfo;
  if (!obs::parse_log_level(args.get("log-level"), &log_level)) {
    err << "--log-level must be debug, info, warn or error\n";
    return 2;
  }
  obs::event_log().set_min_level(log_level);

  store::PatternStore store;
  if (!attach_store(args, store, err, /*must_exist=*/false)) return 1;
  out << "recovered " << store.pattern_count() << " patterns from "
      << (store.durable() ? args.get("store-dir") : args.get("db")) << "\n";

  serve::ServeOptions opts;
  opts.engine = engine_options_from(args);
  opts.engine.save_threshold =
      static_cast<std::uint64_t>(args.get_int("save-threshold", 1));
  opts.port = static_cast<int>(args.get_int("port", 7614));
  opts.http_port = static_cast<int>(args.get_int("http-port", 9614));
  opts.lanes = static_cast<std::size_t>(args.get_int("lanes", 4));
  opts.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue-capacity", 8192));
  opts.overflow = overflow == "drop" ? util::OverflowPolicy::kDrop
                                     : util::OverflowPolicy::kBlock;
  opts.batch_size = static_cast<std::size_t>(args.get_int("batch", 4096));
  opts.flush_interval_s = args.get_double("flush-interval", 1.0);
  opts.checkpoint_interval_s = args.get_double("checkpoint-interval", 300);
  opts.evolution_interval_s = args.get_double("evolution-interval", 0);
  if (!governor_policy_from(args, store, &opts.governor, err)) return 2;
  opts.evolution.ttl_days =
      static_cast<std::uint32_t>(args.get_int("ttl-days", 0));
  const bool use_stdin = args.get_flag("stdin");
  const int cluster_port =
      static_cast<int>(args.get_int("cluster-port", -1));
  const int ship_to = static_cast<int>(args.get_int("ship-to", -1));
  const bool clustered = cluster_port >= 0 || ship_to >= 0;
  if (opts.port < 0 && !use_stdin && !clustered) {
    err << "nothing to serve: pass --port >= 0, --cluster-port >= 0 "
           "and/or --stdin\n";
    return 2;
  }
  if (ship_to >= 0 && !store.durable()) {
    err << "--ship-to replicates WAL commit groups and needs a durable "
           "store: pass --store-dir\n";
    return 2;
  }

  if (!util::install_shutdown_handlers()) {
    err << "cannot install signal handlers\n";
    return 1;
  }
  // A clustered node wraps the plain server with the binary transport
  // (and, with --ship-to, WAL-group replication to the hot standby).
  std::unique_ptr<serve::ClusterNode> node;
  std::unique_ptr<serve::Server> plain;
  serve::Server* server = nullptr;
  std::string error;
  if (clustered) {
    serve::ClusterNodeOptions node_opts;
    node_opts.serve = opts;
    node_opts.cluster_port = cluster_port >= 0 ? cluster_port : 0;
    node_opts.ship_to = ship_to;
    node_opts.node_id = args.get("node-id");
    node = std::make_unique<serve::ClusterNode>(&store,
                                                std::move(node_opts));
    if (!node->start(&error)) {
      err << "cannot start cluster node: " << error << "\n";
      return 1;
    }
    server = &node->server();
  } else {
    plain = std::make_unique<serve::Server>(&store, opts);
    if (!plain->start(&error)) {
      err << "cannot start server: " << error << "\n";
      return 1;
    }
    server = plain.get();
  }
  out << "serving";
  if (server->ingest_port() > 0) {
    out << " ingest on 127.0.0.1:" << server->ingest_port();
  }
  if (use_stdin) out << (server->ingest_port() > 0 ? " + stdin" : " stdin");
  if (node != nullptr) {
    out << ", cluster on 127.0.0.1:" << node->cluster_port();
    if (ship_to >= 0) out << ", shipping to 127.0.0.1:" << ship_to;
  }
  if (server->http_port() > 0) {
    out << ", metrics on 127.0.0.1:" << server->http_port();
  }
  out << " (" << opts.lanes << " lane(s), " << overflow << " overflow)\n"
      << std::flush;

  if (use_stdin) {
    // Blocks on this thread until EOF or a shutdown signal (reads are
    // interrupted — the handlers install without SA_RESTART). When stdin
    // is the only source, EOF ends the daemon.
    server->feed(in);
    if (opts.port < 0 && !clustered) util::request_shutdown();
  }
  while (!util::shutdown_requested()) {
    pollfd pfd = {util::shutdown_fd(), POLLIN, 0};
    ::poll(&pfd, 1, 500);
  }

  out << "draining...\n" << std::flush;
  const serve::ServeReport report =
      node != nullptr ? node->stop() : plain->stop();
  out << "drained: " << report.accepted << " accepted, " << report.processed
      << " processed in " << report.batches << " flush(es), "
      << report.malformed << " malformed, " << report.dropped
      << " dropped, " << report.connections << " connection(s), "
      << report.new_patterns << " new pattern(s), "
      << report.matched_existing << " matched existing\n";
  if (node != nullptr) {
    const serve::ClusterNodeStats cstats = node->stats();
    out << "cluster: " << cstats.records << " record(s) over the binary "
        << "transport, " << cstats.groups_applied
        << " replicated group(s) applied, " << cstats.groups_shipped
        << " shipped, " << cstats.groups_lost << " lost"
        << (cstats.ship_wedged ? " (replication wedged)" : "") << ", "
        << cstats.malformed_streams << " malformed stream(s)\n";
  }
  if (report.checkpointed) {
    out << "final checkpoint written; " << store.pattern_count()
        << " patterns in " << args.get("store-dir") << "\n";
  } else if (!store.durable()) {
    if (!persist_store(args, store, err)) return 1;
    out << store.pattern_count() << " patterns in " << args.get("db")
        << "\n";
  }
  return finish_observability(args, err);
}

/// Comma-separated port list ("-1" entries allowed for "none").
bool parse_port_list(const std::string& csv, std::vector<int>* out,
                     std::string* error) {
  out->clear();
  for (const std::string_view raw : util::split(csv, ',')) {
    const std::string_view item = util::trim(raw);
    if (item.empty()) continue;
    try {
      std::size_t pos = 0;
      const int port = std::stoi(std::string(item), &pos);
      if (pos != item.size() || port > 65535) throw std::invalid_argument("");
      out->push_back(port);
    } catch (const std::exception&) {
      *error = "bad port '" + std::string(item) + "' in list '" + csv + "'";
      return false;
    }
  }
  return true;
}

int cmd_route(const std::vector<std::string>& argv, std::istream& in,
              std::ostream& out, std::ostream& err) {
  util::ArgParser args;
  args.add_option("shards",
                  "comma-separated cluster ports of the shard nodes, in "
                  "ring order (required)",
                  "");
  args.add_option("standbys",
                  "comma-separated standby cluster ports parallel to "
                  "--shards (-1 = that shard has no standby)",
                  "");
  args.add_option("shard-http",
                  "comma-separated shard HTTP ports for /metrics + "
                  "/healthz aggregation (-1 = not scraped)",
                  "");
  args.add_option("port",
                  "JSON-lines ingest listener on 127.0.0.1 (0 = "
                  "kernel-assigned, -1 = no socket)",
                  "7615");
  args.add_option("http-port",
                  "aggregated /metrics + /healthz port on 127.0.0.1 (0 = "
                  "kernel-assigned, -1 = off)",
                  "9615");
  args.add_flag("stdin", "also consume a JSON-lines stream from stdin");
  args.add_option("vnodes", "virtual nodes per shard on the hash ring",
                  "64");
  args.add_option("node-id", "this router's name in hellos/logs", "router");
  args.add_option("log-level",
                  "structured self-log threshold: debug | info | warn | "
                  "error",
                  "info");
  add_metrics_options(args);
  if (!args.parse(argv)) {
    err << args.error() << "\n" << args.usage();
    return 2;
  }
  obs::LogLevel log_level = obs::LogLevel::kInfo;
  if (!obs::parse_log_level(args.get("log-level"), &log_level)) {
    err << "--log-level must be debug, info, warn or error\n";
    return 2;
  }
  obs::event_log().set_min_level(log_level);

  serve::RouterOptions opts;
  std::string error;
  if (!parse_port_list(args.get("shards"), &opts.shards, &error) ||
      !parse_port_list(args.get("standbys"), &opts.standbys, &error) ||
      !parse_port_list(args.get("shard-http"), &opts.shard_http, &error)) {
    err << error << "\n";
    return 2;
  }
  if (opts.shards.empty()) {
    err << "--shards needs at least one shard cluster port\n";
    return 2;
  }
  if (!opts.standbys.empty() && opts.standbys.size() != opts.shards.size()) {
    err << "--standbys must list one port per shard (-1 for none)\n";
    return 2;
  }
  if (!opts.shard_http.empty() &&
      opts.shard_http.size() != opts.shards.size()) {
    err << "--shard-http must list one port per shard (-1 for none)\n";
    return 2;
  }
  opts.port = static_cast<int>(args.get_int("port", 7615));
  opts.http_port = static_cast<int>(args.get_int("http-port", 9615));
  opts.vnodes = static_cast<std::size_t>(args.get_int("vnodes", 64));
  opts.node_id = args.get("node-id");
  const bool use_stdin = args.get_flag("stdin");
  if (opts.port < 0 && !use_stdin) {
    err << "nothing to route: pass --port >= 0 and/or --stdin\n";
    return 2;
  }

  if (!util::install_shutdown_handlers()) {
    err << "cannot install signal handlers\n";
    return 1;
  }
  serve::Router router(opts);
  if (!router.start(&error)) {
    err << "cannot start router: " << error << "\n";
    return 1;
  }
  out << "routing to " << opts.shards.size() << " shard(s)";
  if (router.ingest_port() > 0) {
    out << ", ingest on 127.0.0.1:" << router.ingest_port();
  }
  if (use_stdin) out << (router.ingest_port() > 0 ? " + stdin" : ", stdin");
  if (router.http_port() > 0) {
    out << ", metrics on 127.0.0.1:" << router.http_port();
  }
  out << " (" << opts.vnodes << " vnode(s)/shard)\n" << std::flush;

  if (use_stdin) {
    router.feed(in);
    if (opts.port < 0) util::request_shutdown();
  }
  while (!util::shutdown_requested()) {
    pollfd pfd = {util::shutdown_fd(), POLLIN, 0};
    ::poll(&pfd, 1, 500);
  }

  out << "draining...\n" << std::flush;
  const serve::RouterReport report = router.stop();
  out << "routed: " << report.forwarded << " forwarded (";
  for (std::size_t i = 0; i < report.per_shard.size(); ++i) {
    out << (i == 0 ? "" : "/") << report.per_shard[i];
  }
  out << " per shard), " << report.malformed << " malformed, "
      << report.failovers << " failover(s), " << report.undeliverable
      << " undeliverable\n";
  return finish_observability(args, err);
}

int cmd_generate(const std::vector<std::string>& argv, std::istream&,
                 std::ostream& out, std::ostream& err) {
  util::ArgParser args;
  args.add_option("dataset",
                  "LogHub-like dataset name (HDFS, Linux, ...)", "");
  args.add_option("count", "number of messages", "2000");
  args.add_option("seed", "generator seed", "");
  args.add_option("services", "fleet mode: number of services", "0");
  args.add_flag("pre", "emit the pre-processed variant (dataset mode)");
  args.add_flag("labels", "append the ground-truth event id (dataset mode)");
  if (!args.parse(argv)) {
    err << args.error() << "\n" << args.usage();
    return 2;
  }
  const auto count = static_cast<std::size_t>(args.get_int("count", 2000));
  const std::uint64_t seed =
      args.has("seed")
          ? static_cast<std::uint64_t>(args.get_int("seed", 0))
          : util::kDefaultSeed;

  const auto services =
      static_cast<std::size_t>(args.get_int("services", 0));
  if (services > 0) {
    // Fleet mode: JSON-lines {"service","message"} stream.
    loggen::FleetOptions opts;
    opts.services = services;
    opts.seed = seed;
    loggen::FleetGenerator fleet(opts);
    for (std::size_t i = 0; i < count; ++i) {
      out << core::record_to_json(fleet.next().record) << "\n";
    }
    return 0;
  }

  const loggen::DatasetSpec* spec = loggen::find_dataset(args.get("dataset"));
  if (spec == nullptr) {
    err << "unknown dataset '" << args.get("dataset")
        << "'; available:";
    for (const auto& d : loggen::loghub_datasets()) err << " " << d.name;
    err << "\n";
    return 2;
  }
  const eval::LabeledCorpus corpus =
      loggen::generate_corpus(*spec, count, seed);
  const auto& lines =
      args.get_flag("pre") ? corpus.preprocessed : corpus.messages;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out << lines[i];
    if (args.get_flag("labels")) out << "\t" << corpus.event_ids[i];
    out << "\n";
  }
  return 0;
}

int cmd_testkit(const std::vector<std::string>& argv, std::istream&,
                std::ostream& out, std::ostream& err) {
  util::ArgParser args;
  args.add_option("seed", "base scenario seed", "");
  args.add_option("seeds", "number of consecutive seeds to run", "1");
  args.add_option("datasets",
                  "comma-separated LogHub dataset names composed into ONE "
                  "multi-service scenario, or 'all' = one scenario per "
                  "dataset",
                  "all");
  args.add_option("records", "records per scenario", "2000");
  args.add_option("lanes", "serve lanes in the differential oracle", "4");
  args.add_option("threads", "partitioned-path threads", "4");
  args.add_option("mutation-rate",
                  "fraction of messages receiving seeded byte mutations",
                  "0");
  args.add_option("fault",
                  "scripted fault plan, e.g. 'drop@37', 'tear-wal@3:12', "
                  "'cluster@3' or 'cluster@3;misroute@7' (DESIGN.md §12, "
                  "§16)",
                  "");
  args.add_flag("no-shrink", "skip delta-debugging failing corpora");
  args.add_flag("quick", "differential oracle only (skip metamorphic set)");
  args.add_flag("verbose", "per-scenario progress lines");
  args.add_flag("lenient-time",
                "accept single-digit time parts (future-work datetime FSM)");
  args.add_flag("no-path-fsm", "disable the path detector");
  args.add_flag("merge-mixed-alnum",
                "merge alphanumeric/integer alternating fields");
  args.add_flag("semi-constant-split",
                "one pattern per value for low-cardinality fields");
  if (!args.parse(argv)) {
    err << args.error() << "\n" << args.usage();
    return 2;
  }

  testkit::ScenarioOptions base;
  base.engine.scanner.datetime.lenient_time = args.get_flag("lenient-time");
  base.engine.special.detect_path = !args.get_flag("no-path-fsm");
  base.engine.analyzer.merge_mixed_alnum =
      args.get_flag("merge-mixed-alnum");
  base.engine.analyzer.semi_constant_split =
      args.get_flag("semi-constant-split");
  if (args.has("seed")) {
    base.seed = static_cast<std::uint64_t>(
        std::strtoull(args.get("seed").c_str(), nullptr, 0));
  }
  base.records = static_cast<std::size_t>(args.get_int("records", 2000));
  base.lanes = static_cast<std::size_t>(args.get_int("lanes", 4));
  base.threads = static_cast<std::size_t>(args.get_int("threads", 4));
  base.mutation_rate = args.get_double("mutation-rate", 0.0);
  base.shrink = !args.get_flag("no-shrink");
  if (args.get_flag("quick")) {
    base.run_soundness = false;
    base.run_idempotence = false;
    base.run_interleave = false;
    base.run_evolution = false;
  }
  if (!args.get("fault").empty()) {
    std::string fault_error;
    const auto plan = testkit::FaultPlan::parse(args.get("fault"),
                                               &fault_error);
    if (!plan.has_value()) {
      err << "bad --fault: " << fault_error << "\n";
      return 2;
    }
    base.fault = *plan;
  }

  // 'all' sweeps the 16 corpora one scenario each (the nightly shape);
  // an explicit list composes a single multi-service scenario.
  std::vector<std::vector<std::string>> scenarios;
  const std::string datasets = args.get("datasets");
  if (datasets == "all") {
    for (const auto& spec : loggen::loghub_datasets()) {
      scenarios.push_back({spec.name});
    }
  } else {
    std::vector<std::string> names;
    for (const auto& piece : util::split(datasets, ',')) {
      const std::string name{util::trim(piece)};
      if (!name.empty()) names.push_back(name);
    }
    if (names.empty()) {
      err << "--datasets needs at least one dataset name\n";
      return 2;
    }
    scenarios.push_back(std::move(names));
  }

  const auto seeds =
      static_cast<std::uint64_t>(args.get_int("seeds", 1));
  int failures = 0;
  std::size_t ran = 0;
  for (std::uint64_t s = 0; s < (seeds == 0 ? 1 : seeds); ++s) {
    for (const std::vector<std::string>& set : scenarios) {
      testkit::ScenarioOptions opts = base;
      opts.seed = base.seed + s;
      opts.datasets = set;
      const testkit::ScenarioResult result = testkit::run_scenario(
          opts, args.get_flag("verbose") ? &out : nullptr);
      ++ran;
      std::string label;
      for (const std::string& name : set) {
        if (!label.empty()) label += ',';
        label += name;
      }
      if (result.ok) {
        out << "PASS seed=" << opts.seed << " datasets=" << label
            << " records=" << result.corpus_size << "\n";
        continue;
      }
      ++failures;
      out << "FAIL seed=" << opts.seed << " datasets=" << label
          << " oracle=" << result.oracle << "\n";
      if (!result.detail.empty()) out << "  " << result.detail << "\n";
      if (!result.shrunk.empty()) {
        out << "  shrunk to " << result.shrunk.size() << " of "
            << result.corpus_size << " record(s):\n";
        for (const core::LogRecord& record : result.shrunk) {
          out << "    " << core::record_to_json(record) << "\n";
        }
      }
      out << "  repro: " << result.repro << "\n";
    }
  }
  out << ran << " scenario(s), " << failures << " failure(s)\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

std::string usage() {
  return "seqrtg — Sequence-RTG pattern mining for system logs\n"
         "usage: seqrtg <command> [flags] [input]\n\n"
         "commands:\n"
         "  analyze   mine patterns from a JSON-lines stream into the DB\n"
         "  parse     match a stream against the pattern DB\n"
         "  export    render patterns (patterndb XML, YAML, Grok)\n"
         "  stats     per-service pattern statistics\n"
         "  validate  patterndb-style test-case validation\n"
         "  purge     drop patterns below a match threshold\n"
         "  compact   evolution maintenance pass: re-specialise collapsed "
         "wildcards, merge near-duplicates, evict stale patterns "
         "(crash-safe rewrite; optional replay corpus feeds value "
         "sketches)\n"
         "  import    merge a (possibly hand-edited) patterndb XML back "
         "into the DB\n"
         "  generate  emit a synthetic corpus or fleet stream\n"
         "  simulate  run the Fig. 6/7 production workflow simulation\n"
         "  serve     long-running streaming daemon: JSON-lines over a "
         "localhost socket and/or stdin, sharded worker lanes, /metrics + "
         "/healthz, graceful SIGTERM drain; --cluster-port joins a "
         "sharded cluster, --ship-to replicates WAL groups to a hot "
         "standby\n"
         "  route     client-side cluster router: consistent-hash record "
         "routing to shard nodes over the binary transport, standby "
         "failover, aggregated /metrics + /healthz\n"
         "  testkit   seeded differential/metamorphic scenario runner "
         "with fault injection and failing-input shrinking\n"
         "run-style commands accept --metrics-out <file> "
         "[--metrics-format prometheus|json] to dump a telemetry "
         "snapshot; 'stats --telemetry' prints it\n"
         "analyze/parse/simulate/serve accept --trace-out <file> to "
         "capture a Chrome trace-event JSON of the run "
         "(chrome://tracing); serve also exposes GET /debug/lanes, "
         "/debug/patterns?top=K and /debug/trace?ms=N\n"
         "run 'seqrtg <command> --help' is not needed: bad flags print "
         "the command's flag list\n";
}

int run(const std::vector<std::string>& args, std::istream& in,
        std::ostream& out, std::ostream& err) {
  if (args.empty()) {
    err << usage();
    return 2;
  }
  const std::string& cmd = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  if (cmd == "analyze") return cmd_analyze(rest, in, out, err);
  if (cmd == "parse") return cmd_parse(rest, in, out, err);
  if (cmd == "export") return cmd_export(rest, in, out, err);
  if (cmd == "stats") return cmd_stats(rest, in, out, err);
  if (cmd == "validate") return cmd_validate(rest, in, out, err);
  if (cmd == "purge") return cmd_purge(rest, in, out, err);
  if (cmd == "compact") return cmd_compact(rest, in, out, err);
  if (cmd == "import") return cmd_import(rest, in, out, err);
  if (cmd == "generate") return cmd_generate(rest, in, out, err);
  if (cmd == "simulate") return cmd_simulate(rest, in, out, err);
  if (cmd == "serve") return cmd_serve(rest, in, out, err);
  if (cmd == "route") return cmd_route(rest, in, out, err);
  if (cmd == "testkit") return cmd_testkit(rest, in, out, err);
  err << "unknown command '" << cmd << "'\n" << usage();
  return 2;
}

}  // namespace seqrtg::cli
