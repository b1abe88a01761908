// Compiled-match-program microbenchmarks: the MatchProgram match loop over
// pre-scanned token streams (match cost only — scanning is benchmarked in
// bench_scanner), on traffic that hits and traffic that misses. Also
// measures the one-off compile latency a service pays on its first match
// after a pattern-set change. Telemetry lands in BENCH_matchprog.json
// for scripts/bench_check.sh.
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/analyze_by_service.hpp"
#include "core/parser.hpp"
#include "core/repository.hpp"
#include "loggen/fleet.hpp"

using namespace seqrtg;

namespace {

/// A parser trained on one realistic service, plus pre-scanned probe token
/// streams. `records` owns the message bytes the tokens view, so the
/// struct is built in place and never moved afterwards.
struct MatchFixture {
  core::Parser parser;
  std::vector<core::Pattern> patterns;
  std::string service;
  std::vector<core::LogRecord> records;
  std::vector<std::vector<core::Token>> probes;
};

/// `hits` selects whether the probe traffic comes from the trained fleet
/// (match succeeds) or from a different seedscape (falls through every
/// pattern — the expensive path).
MatchFixture make_fixture(bool hits) {
  loggen::FleetOptions opts;
  opts.services = 1;
  opts.min_events_per_service = 30;
  opts.max_events_per_service = 40;
  loggen::FleetGenerator fleet(opts);
  const auto train = fleet.take(5000);
  core::InMemoryRepository repo;
  core::EngineOptions eopts;
  core::Engine engine(&repo, eopts);
  engine.analyze_by_service(train);

  MatchFixture out{core::Parser(eopts.scanner, eopts.special), {}, {}, {}, {}};
  for (const std::string& svc : repo.services()) {
    out.service = svc;
    for (const core::Pattern& p : repo.load_service(svc)) {
      out.parser.add_pattern(p);
      out.patterns.push_back(p);
    }
  }
  if (hits) {
    out.records = fleet.take(1000);
  } else {
    loggen::FleetOptions other_opts;
    other_opts.services = 5;
    other_opts.seed = 0xDEADBEEF;
    loggen::FleetGenerator other(other_opts);
    out.records = other.take(1000);
  }
  out.probes.reserve(out.records.size());
  for (const auto& rec : out.records) {
    out.probes.push_back(out.parser.scan(rec.message));
  }
  return out;
}

void run_match_loop(benchmark::State& state, bool hits) {
  MatchFixture fx = make_fixture(hits);
  std::size_t i = 0;
  std::int64_t matched = 0;
  for (auto _ : state) {
    const auto& tokens = fx.probes[i++ % fx.probes.size()];
    auto result = fx.parser.match_tokens(fx.service, tokens);
    if (result) ++matched;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["hit_rate"] =
      state.iterations() > 0
          ? static_cast<double>(matched) /
                static_cast<double>(state.iterations())
          : 0.0;
}

void BM_MatchCompiledHit(benchmark::State& state) {
  run_match_loop(state, /*hits=*/true);
}
BENCHMARK(BM_MatchCompiledHit);

void BM_MatchCompiledMiss(benchmark::State& state) {
  run_match_loop(state, /*hits=*/false);
}
BENCHMARK(BM_MatchCompiledMiss);

void BM_MatchProgCompile(benchmark::State& state) {
  // First-match latency after a pattern-set change: a fresh parser is built
  // outside the timed region, then the manual timer brackets the match that
  // triggers the lazy compile. UseManualTime keeps the rebuild cost out of
  // the reported number.
  const MatchFixture fx = make_fixture(/*hits=*/true);
  const auto& tokens = fx.probes.front();
  core::EngineOptions eopts;
  for (auto _ : state) {
    core::Parser parser(eopts.scanner, eopts.special);
    for (const core::Pattern& p : fx.patterns) parser.add_pattern(p);
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(parser.match_tokens(fx.service, tokens));
    const auto end = std::chrono::steady_clock::now();
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MatchProgCompile)->UseManualTime();

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  bench::write_bench_telemetry("matchprog");
  return 0;
}
