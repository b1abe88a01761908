#include "testkit/oracles.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <sstream>
#include <utility>

#include "core/parser.hpp"
#include "core/validation.hpp"
#include "serve/cluster.hpp"
#include "serve/ring.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "testkit/reference_matcher.hpp"
#include "util/rng.hpp"

namespace seqrtg::testkit {

namespace {

namespace fs = std::filesystem;

/// RAII scratch directory for the governed leg's durable store. A
/// process-wide counter keeps shrink probes (each opens a fresh store)
/// from colliding with each other or with scenario scratch dirs.
struct ScratchDir {
  fs::path path;
  ScratchDir() {
    static std::atomic<std::uint64_t> next{0};
    path = fs::temp_directory_path() /
           ("seqrtg_oracle_" + std::to_string(::getpid()) + "_" +
            std::to_string(next.fetch_add(1)));
    std::error_code ec;
    fs::remove_all(path, ec);
    fs::create_directories(path, ec);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

MiningResult mine_with_threads(const std::vector<core::LogRecord>& records,
                               const core::EngineOptions& opts,
                               std::size_t threads) {
  core::EngineOptions engine_opts = opts;
  engine_opts.threads = threads;
  store::PatternStore store;
  core::Engine engine(&store, engine_opts);
  const core::BatchReport report = engine.analyze_by_service(records);
  MiningResult out;
  out.canonical = canonical_patterns(store);
  out.records = report.records;
  out.matched_existing = report.matched_existing;
  out.analyzed = report.analyzed;
  out.new_patterns = report.new_patterns;
  return out;
}

}  // namespace

MiningResult mine_engine(const std::vector<core::LogRecord>& records,
                         const core::EngineOptions& opts) {
  return mine_with_threads(records, opts, 1);
}

MiningResult mine_partitioned(const std::vector<core::LogRecord>& records,
                              const core::EngineOptions& opts,
                              std::size_t threads) {
  return mine_with_threads(records, opts, threads < 2 ? 2 : threads);
}

MiningResult mine_serve(const std::vector<core::LogRecord>& records,
                        const core::EngineOptions& opts,
                        const ServeConfig& config) {
  store::PatternStore local;
  store::PatternStore* store =
      config.store != nullptr ? config.store : &local;
  // Virtual time pinned to the engine paths' now_unix; it never advances,
  // so the interval flush never fires and each lane flushes exactly once
  // when the drain closes its queue — the deterministic streaming shape
  // the differential oracle compares against.
  util::ManualClock manual(opts.now_unix);

  serve::ServeOptions serve_opts;
  serve_opts.engine = opts;
  serve_opts.port = -1;
  serve_opts.http_port = -1;
  serve_opts.lanes = config.lanes;
  serve_opts.queue_capacity = records.size() + 1;
  serve_opts.overflow = util::OverflowPolicy::kDrop;
  serve_opts.batch_size = records.size() + 1;
  serve_opts.flush_interval_s = 1e9;
  serve_opts.checkpoint_on_stop = false;
  serve_opts.clock = config.clock != nullptr ? config.clock : &manual;
  serve_opts.queue_fault = config.queue_fault;
  serve_opts.governor = config.governor;

  serve::Server server(store, serve_opts);
  const bool governed =
      config.governor.ceiling_bytes > 0 || config.misaccount_fault;
  if (config.misaccount_fault) {
    server.accountant()->set_fault_hook(config.misaccount_fault);
  }
  MiningResult out;
  std::string error;
  if (!server.start(&error)) {
    out.started = false;
    out.canonical = "serve failed to start: " + error;
    return out;
  }
  std::string stream;
  for (const core::LogRecord& record : records) {
    stream += core::record_to_json(record);
    stream += '\n';
  }
  std::istringstream in(stream);
  server.feed(in);
  const serve::ServeReport report = server.stop();

  out.records = report.processed;
  out.matched_existing = report.matched_existing;
  out.new_patterns = report.new_patterns;
  out.accepted = report.accepted;
  out.processed = report.processed;
  out.dropped = report.dropped;
  out.batches = report.batches;
  if (governed) {
    const core::Governor::Stats stats = server.governor()->stats();
    out.shed = report.shed;
    out.spills = stats.spills;
    out.reloads = stats.reloads;
    // Post-drain ledger audit against the store's authoritative byte
    // recount — canonical equality cannot see a skewed ledger (spill is
    // output-transparent); this can. MUST run before the canonical
    // rendering below: canonical's load_service read path reloads spilled
    // partitions, and with the governor already detached by stop() those
    // reloads are (correctly) unaccounted — auditing after it would report
    // every such partition as untracked.
    out.audit = server.accountant()
                    ->audit(store->recount_partition_bytes())
                    .value_or("");
  }
  out.canonical = canonical_patterns(*store);
  return out;
}

MiningResult mine_cluster(const std::vector<core::LogRecord>& records,
                          const core::EngineOptions& opts,
                          const ClusterConfig& config) {
  const std::size_t nodes = config.nodes == 0 ? 1 : config.nodes;
  MiningResult out;

  // Predict each node's record count by evaluating the SAME pure routing
  // function the router will apply (ring hash + scripted misroute). The
  // prediction is the drain barrier: a node is only stopped after its
  // cluster transport has delivered everything addressed to it, which
  // closes the race between the router's last write and the node's drain.
  const serve::HashRing ring(nodes, config.vnodes);
  std::vector<std::uint64_t> expected(nodes, 0);
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::size_t shard = ring.shard_for(records[i].service);
    if (config.route_fault && config.route_fault(i)) {
      shard = (shard + 1) % nodes;
    }
    ++expected[shard];
  }

  // Same determinism recipe as mine_serve, shared across all nodes: one
  // pinned ManualClock (thread-safe), batches larger than the corpus, so
  // every lane flushes exactly once at drain.
  util::ManualClock manual(opts.now_unix);
  std::vector<std::unique_ptr<store::PatternStore>> stores;
  std::vector<std::unique_ptr<serve::ClusterNode>> cluster;
  for (std::size_t n = 0; n < nodes; ++n) {
    stores.push_back(std::make_unique<store::PatternStore>());
    serve::ClusterNodeOptions node_opts;
    node_opts.serve.engine = opts;
    node_opts.serve.port = -1;
    node_opts.serve.http_port = -1;
    node_opts.serve.lanes = config.lanes;
    node_opts.serve.queue_capacity = records.size() + 1;
    node_opts.serve.overflow = util::OverflowPolicy::kDrop;
    node_opts.serve.batch_size = records.size() + 1;
    node_opts.serve.flush_interval_s = 1e9;
    node_opts.serve.checkpoint_on_stop = false;
    node_opts.serve.clock = &manual;
    node_opts.cluster_port = 0;
    node_opts.node_id = "node-" + std::to_string(n);
    cluster.push_back(std::make_unique<serve::ClusterNode>(
        stores[n].get(), std::move(node_opts)));
    std::string error;
    if (!cluster.back()->start(&error)) {
      out.started = false;
      out.canonical = "cluster node " + std::to_string(n) +
                      " failed to start: " + error;
      for (auto& node : cluster) node->stop();
      return out;
    }
  }

  serve::RouterOptions router_opts;
  for (const auto& node : cluster) {
    router_opts.shards.push_back(node->cluster_port());
  }
  router_opts.port = -1;
  router_opts.http_port = -1;
  router_opts.vnodes = config.vnodes;
  router_opts.route_fault = config.route_fault;
  serve::Router router(std::move(router_opts));
  std::string error;
  if (!router.start(&error)) {
    out.started = false;
    out.canonical = "cluster router failed to start: " + error;
    for (auto& node : cluster) node->stop();
    return out;
  }

  std::string stream;
  for (const core::LogRecord& record : records) {
    stream += core::record_to_json(record);
    stream += '\n';
  }
  std::istringstream in(stream);
  router.feed(in);
  // stop() closes every shard link; the FIN is each node's end-of-stream.
  const serve::RouterReport routed = router.stop();
  out.forwarded = routed.forwarded;
  out.undeliverable = routed.undeliverable;

  std::vector<core::PatternRepository*> repos;
  for (std::size_t n = 0; n < nodes; ++n) {
    serve::ClusterNode& node = *cluster[n];
    node.wait_until([&node, want = expected[n]] {
      return node.stats().records >= want;
    });
    const serve::ServeReport report = node.stop();
    out.records += report.processed;
    out.accepted += report.accepted;
    out.processed += report.processed;
    out.dropped += report.dropped;
    out.batches += report.batches;
    out.new_patterns += report.new_patterns;
    out.matched_existing += report.matched_existing;
    repos.push_back(stores[n].get());
  }
  out.canonical = canonical_patterns_merged(repos);
  return out;
}

OracleVerdict check_differential(const std::vector<core::LogRecord>& records,
                                 const core::EngineOptions& opts,
                                 const DifferentialOptions& dopts) {
  const MiningResult engine = mine_engine(records, opts);
  const MiningResult partitioned =
      mine_partitioned(records, opts, dopts.threads);
  if (engine.canonical != partitioned.canonical) {
    return OracleFailure{
        "differential:engine-vs-partitioned",
        first_diff(engine.canonical, partitioned.canonical)};
  }

  ServeConfig config;
  config.lanes = dopts.lanes;
  config.queue_fault = dopts.serve_queue_fault;
  const MiningResult served = mine_serve(records, opts, config);
  if (!served.started) {
    return OracleFailure{"differential:serve-start", served.canonical};
  }
  // Accounting first: a dropped duplicate message can leave the pattern
  // TEXTS identical and only shift a match count, so the exact-count check
  // is what makes an injected overflow undeniable.
  if (served.accepted != records.size() || served.dropped != 0 ||
      served.processed != served.accepted) {
    std::ostringstream detail;
    detail << "serve accounting diverged: fed=" << records.size()
           << " accepted=" << served.accepted
           << " processed=" << served.processed
           << " dropped=" << served.dropped;
    return OracleFailure{"differential:serve-accounting", detail.str()};
  }
  if (engine.canonical != served.canonical) {
    return OracleFailure{"differential:engine-vs-serve",
                         first_diff(engine.canonical, served.canonical)};
  }

  if (dopts.cluster_nodes > 0) {
    ClusterConfig cluster;
    cluster.nodes = dopts.cluster_nodes;
    cluster.route_fault = dopts.cluster_route_fault;
    const MiningResult clustered = mine_cluster(records, opts, cluster);
    if (!clustered.started) {
      return OracleFailure{"differential:cluster-start",
                           clustered.canonical};
    }
    // A misrouted record is still forwarded (to the wrong shard) and
    // still processed, so the accounting stays green and only the merged
    // canonical betrays it — exactly the division of labour the
    // single-node leg has between accounting and canonical checks.
    if (clustered.forwarded != records.size() ||
        clustered.undeliverable != 0 ||
        clustered.accepted != clustered.forwarded ||
        clustered.processed != clustered.accepted ||
        clustered.dropped != 0) {
      std::ostringstream detail;
      detail << "cluster accounting diverged: fed=" << records.size()
             << " forwarded=" << clustered.forwarded
             << " undeliverable=" << clustered.undeliverable
             << " accepted=" << clustered.accepted
             << " processed=" << clustered.processed
             << " dropped=" << clustered.dropped;
      return OracleFailure{"differential:cluster-accounting", detail.str()};
    }
    if (engine.canonical != clustered.canonical) {
      return OracleFailure{"differential:engine-vs-cluster",
                           first_diff(engine.canonical,
                                      clustered.canonical)};
    }
  }

  if (dopts.memlimit_bytes > 0 || dopts.governed_misaccount) {
    ScratchDir scratch;
    store::PatternStore durable;
    if (!durable.open(scratch.path.string())) {
      return OracleFailure{
          "governance:store",
          "cannot open scratch store directory " + scratch.path.string()};
    }
    ServeConfig governed_config;
    governed_config.lanes = dopts.lanes;
    governed_config.store = &durable;
    governed_config.governor.ceiling_bytes =
        dopts.memlimit_bytes > 0
            ? static_cast<std::size_t>(dopts.memlimit_bytes)
            : static_cast<std::size_t>(kDefaultGovernedCeiling);
    governed_config.misaccount_fault = dopts.governed_misaccount;
    const MiningResult governed =
        mine_serve(records, opts, governed_config);
    if (!governed.started) {
      return OracleFailure{"governance:serve-start", governed.canonical};
    }
    // Admission runs before any lane flushes in this harness, so a
    // governed run that sheds (or drops) anything is a bug, not load.
    if (governed.accepted != records.size() || governed.dropped != 0 ||
        governed.shed != 0 || governed.processed != governed.accepted) {
      std::ostringstream detail;
      detail << "governed serve accounting diverged: fed="
             << records.size() << " accepted=" << governed.accepted
             << " processed=" << governed.processed
             << " dropped=" << governed.dropped
             << " shed=" << governed.shed;
      return OracleFailure{"governance:accounting", detail.str()};
    }
    // The headline claim: spill thrash must not change what gets mined.
    if (engine.canonical != governed.canonical) {
      return OracleFailure{"differential:engine-vs-governed",
                           first_diff(engine.canonical,
                                      governed.canonical)};
    }
    if (!governed.audit.empty()) {
      return OracleFailure{"governance:audit", governed.audit};
    }
  }
  return std::nullopt;
}

OracleVerdict check_soundness(const std::vector<core::LogRecord>& records,
                              const core::EngineOptions& opts) {
  core::EngineOptions engine_opts = opts;
  engine_opts.threads = 1;
  store::PatternStore store;
  core::Engine engine(&store, engine_opts);
  engine.analyze_by_service(records);

  core::Parser parser(engine_opts.scanner, engine_opts.special);
  ReferenceMatcher reference;
  for (const std::string& service : store.services()) {
    for (const core::Pattern& p : store.load_service(service)) {
      reference.add_pattern(parser.add_pattern(p));
    }
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    const core::LogRecord& rec = records[i];
    const auto parsed = parser.parse(rec.service, rec.message);
    // The compiled matcher must agree with the reference trie walk on the
    // verdict, the pattern and every field.
    const auto expected =
        reference.match_tokens(rec.service, parser.scan(rec.message));
    if (parsed.has_value() != expected.has_value() ||
        (parsed && (parsed->pattern != expected->pattern ||
                    parsed->fields != expected->fields))) {
      const auto describe = [](const std::optional<core::ParseResult>& r) {
        if (!r) return std::string("miss");
        std::string out = r->pattern->text();
        for (const auto& [name, value] : r->fields) {
          out += " " + name + "=" + value;
        }
        return out;
      };
      std::ostringstream detail;
      detail << "record " << i << " (service " << rec.service
             << ") parses differently from the reference matcher: "
             << rec.message << "\n  parser:    " << describe(parsed)
             << "\n  reference: " << describe(expected);
      return OracleFailure{"soundness:reference", detail.str()};
    }
    if (!parsed.has_value()) {
      std::ostringstream detail;
      detail << "record " << i << " (service " << rec.service
             << ") is not matched by any pattern mined from its own "
                "corpus: "
             << rec.message;
      return OracleFailure{"soundness", detail.str()};
    }
  }
  return std::nullopt;
}

OracleVerdict check_idempotence(const std::vector<core::LogRecord>& records,
                                const core::EngineOptions& opts) {
  core::EngineOptions engine_opts = opts;
  engine_opts.threads = 1;
  store::PatternStore store;
  core::Engine engine(&store, engine_opts);
  engine.analyze_by_service(records);
  // Counts legitimately grow on the second pass; the texts must not.
  const std::string before =
      canonical_patterns(store, /*include_match_counts=*/false);

  const core::BatchReport again = engine.analyze_by_service(records);
  if (again.new_patterns != 0 || again.analyzed != 0 ||
      again.matched_existing != records.size()) {
    std::ostringstream detail;
    detail << "second analysis of an already-mined corpus was not a pure "
              "parse pass: analyzed="
           << again.analyzed << " new_patterns=" << again.new_patterns
           << " matched_existing=" << again.matched_existing << " of "
           << records.size() << " records";
    return OracleFailure{"idempotence", detail.str()};
  }
  const std::string after =
      canonical_patterns(store, /*include_match_counts=*/false);
  if (before != after) {
    return OracleFailure{"idempotence", first_diff(before, after)};
  }
  return std::nullopt;
}

OracleVerdict check_evolution(const std::vector<core::LogRecord>& records,
                              const core::EngineOptions& opts,
                              const core::EvolutionOptions& evolution) {
  core::EngineOptions engine_opts = opts;
  engine_opts.threads = 1;
  core::SketchRegistry sketches;
  engine_opts.sketches = &sketches;
  store::PatternStore store;
  core::Engine engine(&store, engine_opts);
  engine.analyze_by_service(records);
  // The second pass is a pure parse pass (idempotence oracle); it feeds
  // every record through the parse-first matcher and thus into the value
  // sketches — the match-time evidence re-specialisation needs.
  engine.analyze_by_service(records);

  // Which records the mined set parses — evolution must not lose any of
  // them (records the MINED set already missed are soundness's problem,
  // not evolution's).
  const auto build_parser = [&](core::Parser& parser) {
    for (const std::string& service : store.services()) {
      for (const core::Pattern& p : store.load_service(service)) {
        parser.add_pattern(p);
      }
    }
  };
  std::vector<bool> parsed_before(records.size(), false);
  {
    core::Parser before(engine_opts.scanner, engine_opts.special);
    build_parser(before);
    for (std::size_t i = 0; i < records.size(); ++i) {
      parsed_before[i] =
          before.parse(records[i].service, records[i].message).has_value();
    }
  }

  core::EvolutionOptions eopts = evolution;
  eopts.scanner = engine_opts.scanner;
  eopts.special = engine_opts.special;
  eopts.example_cap = engine_opts.analyzer.example_cap;
  core::evolve_repository(store, &sketches, eopts);

  core::Parser after(engine_opts.scanner, engine_opts.special);
  build_parser(after);
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!parsed_before[i]) continue;
    if (!after.parse(records[i].service, records[i].message).has_value()) {
      std::ostringstream detail;
      detail << "record " << i << " (service " << records[i].service
             << ") parsed before the evolution pass but not after: "
             << records[i].message;
      return OracleFailure{"evolution:coverage", detail.str()};
    }
  }
  for (const std::string& service : store.services()) {
    const core::ValidationReport report = core::validate_patterns(
        store.load_service(service), engine_opts.scanner,
        engine_opts.special);
    if (!report.ok()) {
      const core::PatternConflict& c = report.conflicts.front();
      std::ostringstream detail;
      detail << "evolved set of service " << service
             << " is not conflict-free: pattern " << c.pattern_id
             << " example matched "
             << (c.matched_id.empty() ? "<nothing>" : c.matched_id) << ": "
             << c.example;
      return OracleFailure{"evolution:conflict", detail.str()};
    }
  }
  return std::nullopt;
}

OracleVerdict check_interleave_invariance(
    const std::vector<core::LogRecord>& records,
    const core::EngineOptions& opts, std::uint64_t seed) {
  // Split into per-service queues (service order preserved), then merge
  // them back with a seeded weighted pick — a uniform random interleave
  // among the order-preserving ones.
  std::vector<std::string> service_names;
  std::vector<std::vector<const core::LogRecord*>> queues;
  for (const core::LogRecord& record : records) {
    std::size_t slot = 0;
    while (slot < service_names.size() &&
           service_names[slot] != record.service) {
      ++slot;
    }
    if (slot == service_names.size()) {
      service_names.push_back(record.service);
      queues.emplace_back();
    }
    queues[slot].push_back(&record);
  }

  util::Rng rng(seed);
  std::vector<std::size_t> next(queues.size(), 0);
  std::vector<core::LogRecord> shuffled;
  shuffled.reserve(records.size());
  std::size_t remaining = records.size();
  while (remaining > 0) {
    std::uint64_t pick = rng.next_below(remaining);
    for (std::size_t q = 0; q < queues.size(); ++q) {
      const std::size_t left = queues[q].size() - next[q];
      if (pick < left) {
        shuffled.push_back(*queues[q][next[q]++]);
        break;
      }
      pick -= left;
    }
    --remaining;
  }

  const MiningResult base = mine_engine(records, opts);
  const MiningResult permuted = mine_engine(shuffled, opts);
  if (base.canonical != permuted.canonical) {
    return OracleFailure{"interleave-invariance",
                         first_diff(base.canonical, permuted.canonical)};
  }
  return std::nullopt;
}

}  // namespace seqrtg::testkit
