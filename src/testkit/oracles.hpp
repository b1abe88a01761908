// Invariant oracles over the three mining paths.
//
// The paper's production claim is that Sequence-RTG mines the SAME
// patterns whether a corpus arrives as one offline batch, through the
// threaded AnalyzeByService fan-out, or as a live stream through `seqrtg
// serve`. These oracles turn that claim (and its metamorphic relatives)
// into mechanical checks:
//
//   differential   — Engine (threads=1, one batch), AnalyzeByService
//                    (threads=N) and the serve pipeline (N lanes, virtual
//                    clock, single flush per lane at drain) produce
//                    byte-identical canonical pattern sets, and serve
//                    accounts for every record (accepted == fed,
//                    processed == accepted, dropped == 0). Optional legs:
//                    a router + N-node cluster (merged canonical must
//                    match) and a governed serve run over a durable
//                    scratch store with a memory ceiling small enough to
//                    spill-thrash every partition — governance must be
//                    output-transparent (canonical unchanged, zero shed)
//                    and the memory accountant's ledger must audit clean
//                    against the store's authoritative byte recount.
//   soundness      — every ingested message is matched by the Parser
//                    compiled from the patterns mined from that corpus,
//                    and each parse (verdict, pattern, fields) equals the
//                    ReferenceMatcher's over the same patterns
//                    ("soundness:reference" when it does not).
//   idempotence    — re-analyzing the same corpus discovers nothing new:
//                    analyzed == 0, new_patterns == 0, pattern texts
//                    unchanged (parse-first matches everything).
//   evolution      — mining the corpus, feeding the match-time value
//                    sketches, then running the core::evolve_repository
//                    maintenance pass loses no coverage: every record the
//                    mined set parsed still parses under the evolved set,
//                    and the evolved per-service sets are conflict-free
//                    under re-validation.
//   interleave     — permuting the cross-service interleaving while
//                    preserving each service's own record order leaves
//                    the mined patterns byte-identical (the first
//                    partitioning groups by service, so cross-service
//                    order must be irrelevant). Full permutation
//                    invariance does NOT hold — trie insertion order
//                    within a service legitimately affects fold choices —
//                    so the oracle is scoped to what the design promises.
//
// The serve path here is configured for determinism: batch_size larger
// than the corpus and a ManualClock that never advances, so each lane
// flushes exactly once at drain with per-service arrival order intact.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/analyze_by_service.hpp"
#include "core/evolution.hpp"
#include "core/governor.hpp"
#include "core/ingest.hpp"
#include "store/pattern_store.hpp"
#include "testkit/canonical.hpp"
#include "util/clock.hpp"

namespace seqrtg::testkit {

/// One mined view of a corpus: the canonical rendering plus the
/// accounting that path reported.
struct MiningResult {
  std::string canonical;
  /// Engine-report accounting (all paths).
  std::uint64_t records = 0;
  std::uint64_t matched_existing = 0;
  std::uint64_t analyzed = 0;
  std::uint64_t new_patterns = 0;
  /// Serve-only accounting (zero for the engine paths).
  std::uint64_t accepted = 0;
  std::uint64_t processed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t batches = 0;
  /// Governed-serve-only accounting (zero unless ServeConfig sets a
  /// memory ceiling): records shed at admission, partitions spilled and
  /// reloaded during the run, and the post-drain ledger audit — empty
  /// when the accountant balanced against the store's recount.
  std::uint64_t shed = 0;
  std::uint64_t spills = 0;
  std::uint64_t reloads = 0;
  std::string audit;
  /// Cluster-only accounting (zero elsewhere): router forwards and
  /// records with no live shard to take them.
  std::uint64_t forwarded = 0;
  std::uint64_t undeliverable = 0;
  bool started = true;
};

/// Single-batch serial Engine over a fresh store.
MiningResult mine_engine(const std::vector<core::LogRecord>& records,
                         const core::EngineOptions& opts);

/// Threaded AnalyzeByService fan-out over a fresh store.
MiningResult mine_partitioned(const std::vector<core::LogRecord>& records,
                              const core::EngineOptions& opts,
                              std::size_t threads);

/// Configuration of the serve mining path.
struct ServeConfig {
  std::size_t lanes = 4;
  /// nullptr = a never-advancing ManualClock local to the call.
  util::Clock* clock = nullptr;
  /// Scripted overflow (ServeOptions::queue_fault).
  std::function<bool(std::uint64_t)> queue_fault;
  /// nullptr = a fresh non-durable store local to the call. Recovery
  /// scenarios pass a durable store (with a WAL fault hook installed).
  store::PatternStore* store = nullptr;
  /// Governance policy for the serve run. A ceiling > 0 requires a
  /// durable `store` (spill needs somewhere to go) and makes mine_serve
  /// fill MiningResult's shed/spills/reloads/audit fields. The feed
  /// completes before any lane flushes (batch larger than the corpus,
  /// pinned clock), so admission always sees an idle governor and shed
  /// is deterministically zero — spill thrash happens during the drain.
  core::GovernorPolicy governor;
  /// Scripted ledger skew (MemoryAccountant::set_fault_hook) — the
  /// mutation the governance audit must catch.
  std::function<bool(std::uint64_t)> misaccount_fault;
};

/// Streams the records through an in-process serve daemon (stdin-style
/// feed, no sockets) and drains it.
MiningResult mine_serve(const std::vector<core::LogRecord>& records,
                        const core::EngineOptions& opts,
                        const ServeConfig& config);

/// Configuration of the cluster mining path.
struct ClusterConfig {
  /// Shard nodes (each an in-process ClusterNode over its own store).
  std::size_t nodes = 3;
  /// Lanes per node.
  std::size_t lanes = 2;
  std::size_t vnodes = 64;
  /// Scripted misroute (RouterOptions::route_fault). MUST be a pure
  /// function of the record index: mine_cluster re-evaluates it to
  /// predict each node's expected record count for the drain barrier.
  std::function<bool(std::uint64_t)> route_fault;
};

/// Streams the records through a real router + N shard nodes over the
/// binary cluster transport (loopback sockets) and drains everything.
/// `canonical` is the cluster-wide merge (canonical_patterns_merged), so
/// comparing against mine_engine proves sharding preserved the mined set.
MiningResult mine_cluster(const std::vector<core::LogRecord>& records,
                          const core::EngineOptions& opts,
                          const ClusterConfig& config);

/// A falsified invariant: which oracle, and the first divergence.
struct OracleFailure {
  std::string oracle;
  std::string detail;
};
/// std::nullopt = the invariant held.
using OracleVerdict = std::optional<OracleFailure>;

struct DifferentialOptions {
  /// Threads of the partitioned path.
  std::size_t threads = 4;
  /// Lanes of the serve path.
  std::size_t lanes = 4;
  /// Scripted overflow injected into the serve path only — used to
  /// mutation-test the oracle itself (an injected divergence MUST be
  /// caught).
  std::function<bool(std::uint64_t)> serve_queue_fault;
  /// Shard count of the cluster leg (0 = leg disabled). When enabled the
  /// corpus additionally streams through a router + N-node cluster whose
  /// merged canonical must match the single-engine one.
  std::size_t cluster_nodes = 0;
  /// Scripted misroute injected into the cluster leg only (the oracle
  /// mutation: a mis-routed service MUST be caught).
  std::function<bool(std::uint64_t)> cluster_route_fault;
  /// Memory ceiling of the governed-serve leg (0 = leg disabled unless a
  /// misaccount fault forces it on with kDefaultGovernedCeiling). When
  /// enabled the corpus additionally streams through a serve pipeline
  /// over a durable scratch store with the governor spill-thrashing every
  /// partition; the canonical set must still byte-equal the engine's, and
  /// the accountant's ledger must audit clean against the store recount.
  std::uint64_t memlimit_bytes = 0;
  /// Scripted ledger skew injected into the governed leg only (the oracle
  /// mutation: a misaccounted ledger MUST be caught by the audit).
  std::function<bool(std::uint64_t)> governed_misaccount;
};

/// Ceiling the governed leg runs under when a misaccount fault is set
/// without an explicit memlimit — tiny on purpose, so every partition
/// cycles through spill and the accountant sees a dense event stream.
inline constexpr std::uint64_t kDefaultGovernedCeiling = 4096;

OracleVerdict check_differential(const std::vector<core::LogRecord>& records,
                                 const core::EngineOptions& opts,
                                 const DifferentialOptions& dopts = {});

OracleVerdict check_soundness(const std::vector<core::LogRecord>& records,
                              const core::EngineOptions& opts);

OracleVerdict check_idempotence(const std::vector<core::LogRecord>& records,
                                const core::EngineOptions& opts);

/// Metamorphic evolution oracle: mine the corpus (two passes — the second
/// is a pure parse pass that feeds the value sketches), run the evolution
/// maintenance pass over the store, and require that (a) every record the
/// mined set parsed still parses under the evolved set and (b) every
/// evolved per-service set re-validates conflict-free. `evolution`'s
/// scanner/special/example_cap are overwritten from `opts`.
OracleVerdict check_evolution(const std::vector<core::LogRecord>& records,
                              const core::EngineOptions& opts,
                              const core::EvolutionOptions& evolution = {});

/// Service-preserving interleave permutation drawn from `seed`.
OracleVerdict check_interleave_invariance(
    const std::vector<core::LogRecord>& records,
    const core::EngineOptions& opts, std::uint64_t seed);

}  // namespace seqrtg::testkit
