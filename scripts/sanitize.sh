#!/usr/bin/env sh
# Configure and build a sanitizer-instrumented tree, then run the tests
# that exercise cross-thread state. Sanitizers need whole-program
# instrumentation, so this uses a dedicated build directory instead of
# mixing flags into an existing one.
#
# Usage: scripts/sanitize.sh [thread|address|undefined] [test binaries...]
#   scripts/sanitize.sh                 # TSan over the concurrency tests
#   scripts/sanitize.sh address         # ASan over the same set
#   scripts/sanitize.sh undefined       # UBSan over the same set
#   scripts/sanitize.sh thread all      # TSan over the full ctest suite
set -eu

SAN="${1:-thread}"
shift $(( $# > 0 ? 1 : 0 ))
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build-$SAN"

cmake -B "$BUILD" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSEQRTG_SANITIZE="$SAN" \
  -DSEQRTG_BUILD_BENCH=OFF \
  -DSEQRTG_BUILD_EXAMPLES=OFF
cmake --build "$BUILD" -j "$(nproc)"

if [ "${1:-}" = "all" ]; then
  exec ctest --test-dir "$BUILD" --output-on-failure
fi
# Default: the suites that exercise cross-thread state, plus the arena /
# interner / zero-copy-equivalence suites (lifetime-sensitive raw memory),
# the WAL fault-injection suite (raw fd I/O + recovery byte surgery), the
# serve daemon stack (MPSC queues, socket readers, graceful drain, the
# background evolution thread racing lane flushes), the SIMD tokeniser /
# compiled-matcher differentials (unaligned vector loads past string ends,
# flat-program index arithmetic), the evolution / conflict-resolution
# suites (SketchRegistry is fed concurrently by every lane), and the
# cluster stack (router + shard node socket threads, WAL-shipping
# replication, binary-protocol frame decoding, and the real-SIGKILL
# failover drill — the zero-pattern-loss acceptance runs under ASan and
# TSan, not just the release tree), and the resource-governance stack
# (the accountant ledger and the LRU clock are mutated from every lane
# while enforce() spills concurrently; governor_test's model-based race
# case and the spill/reload WAL protocol are exactly what TSan is for,
# and the SIGKILL spill-crash drill joins the failover drill under both
# sanitizers), and the store's token codec and delta ledger (the codec's
# decoder parses bytes read back from snapshots, spill files and the WAL,
# so its differential fuzz runs under ASan/UBSan; the ledger property test
# drives spill/reload, reopen and standby replication), and the engine's
# per-flush store read (pattern_store_test races two engines' match reads
# against an evolution thread and ceiling-driven spills), and the store's
# snapshot reader (snapshot_test and store_golden_test load typed rows
# from bytes read back from disk, and pattern_store_test replays the
# damaged-snapshot verdict fixture, so ASan/UBSan check the cell decoding
# and the row building on every rule the loader enforces), and the
# loopback listener every serve front end shares (listener_test runs its
# accept thread, per-connection threads joined as they end, and stop()
# shutting down connections parked in read(), so TSan checks the
# connection registry and ASan the line reader's buffer at its cap).
[ $# -gt 0 ] || set -- metrics_test thread_pool_test analyze_by_service_test \
  arena_test interner_test scan_into_equivalence_test wal_test \
  pattern_store_test bounded_queue_test serve_test serve_drain_test \
  listener_test \
  ingest_fuzz_test golden_corpus_test edge_map_property_test \
  fault_sim_test differential_test simd_equivalence_test matchprog_test \
  evolution_test validation_test cluster_test cluster_proto_fuzz_test \
  cluster_failover_test governor_test spill_test governor_serve_test \
  governance_test spill_crash_test token_codec_test ledger_property_test \
  snapshot_test store_golden_test
for t in "$@"; do
  "$BUILD/tests/$t"
done
