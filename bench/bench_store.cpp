// Microbenchmarks for the embedded pattern store (extension #2 substrate):
// upsert, point lookup, service scan, match-count updates and snapshot
// persistence — plus the read and merge paths of a served fleet, on
// fleet-shaped patterns with a governor attached.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>

#include "bench_common.hpp"
#include "core/governor.hpp"
#include "store/pattern_store.hpp"
#include "util/rng.hpp"

using namespace seqrtg;

namespace {

core::Pattern make_pattern(std::size_t i) {
  core::Pattern p;
  p.service = "svc-" + std::to_string(i % 40);
  core::PatternToken c;
  c.is_variable = false;
  c.text = "event-" + std::to_string(i);
  p.tokens.push_back(c);
  core::PatternToken v;
  v.is_variable = true;
  v.var_type = core::TokenType::Integer;
  v.name = "n";
  v.is_space_before = true;
  p.tokens.push_back(v);
  p.stats.match_count = i + 1;
  p.examples = {"event-" + std::to_string(i) + " 42"};
  return p;
}

void BM_StoreUpsertNew(benchmark::State& state) {
  store::PatternStore pattern_store;
  std::size_t i = 0;
  for (auto _ : state) {
    pattern_store.upsert_pattern(make_pattern(i++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StoreUpsertNew);

void BM_StoreUpsertExisting(benchmark::State& state) {
  store::PatternStore pattern_store;
  for (std::size_t i = 0; i < 500; ++i) {
    pattern_store.upsert_pattern(make_pattern(i));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    pattern_store.upsert_pattern(make_pattern(i++ % 500));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StoreUpsertExisting);

void BM_StoreFindById(benchmark::State& state) {
  store::PatternStore pattern_store;
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < 1000; ++i) {
    const core::Pattern p = make_pattern(i);
    pattern_store.upsert_pattern(p);
    ids.push_back(p.id());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pattern_store.find(ids[i++ % ids.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StoreFindById);

void BM_StoreLoadService(benchmark::State& state) {
  store::PatternStore pattern_store;
  for (std::size_t i = 0; i < 1000; ++i) {
    pattern_store.upsert_pattern(make_pattern(i));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pattern_store.load_service("svc-" + std::to_string(i++ % 40)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StoreLoadService);

// The engine's per-flush read: same rows as BM_StoreLoadService, token
// cells only, no examples.
void BM_StoreMatchPatterns(benchmark::State& state) {
  store::PatternStore pattern_store;
  for (std::size_t i = 0; i < 1000; ++i) {
    pattern_store.upsert_pattern(make_pattern(i));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pattern_store.match_patterns("svc-" + std::to_string(i++ % 40)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StoreMatchPatterns);

std::string fleet_service(std::size_t service) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "fleet-svc-%zu", service);
  return buf;
}

/// A pattern shaped like the fleet stream's mined ones: 18 tokens, every
/// other one a typed variable, ~670 bytes of token JSON and three
/// ~90-byte examples.
core::Pattern make_fleet_pattern(std::size_t service, std::size_t row,
                                 std::size_t type_shift = 0) {
  static const core::TokenType kTypes[] = {
      core::TokenType::Time, core::TokenType::IPv4, core::TokenType::Integer,
      core::TokenType::Hex,  core::TokenType::Url,  core::TokenType::Float};
  char buf[128];
  core::Pattern p;
  p.service = fleet_service(service);
  for (std::size_t t = 0; t < 18; ++t) {
    core::PatternToken tok;
    tok.is_space_before = t > 0;
    tok.is_variable = t % 2 == 1;
    if (tok.is_variable) {
      tok.var_type = kTypes[(row + t + type_shift) % 6];
      std::snprintf(buf, sizeof(buf), "v%zu", t);
      tok.name = buf;
    } else {
      std::snprintf(buf, sizeof(buf), "w%zu-%zu", row, t);
      tok.text = buf;
    }
    p.tokens.push_back(std::move(tok));
  }
  p.stats.match_count = 1;
  p.stats.first_seen = 1600000000;
  p.stats.last_matched = 1600000000;
  for (std::size_t e = 0; e < 3; ++e) {
    std::snprintf(buf, sizeof(buf),
                  "2024-01-01T00:00:00Z host-%zu example %zu 10.0.0.1 0x1f "
                  "42 https://example.test/a 1.5 done",
                  row, e + type_shift);
    p.examples.emplace_back(buf);
  }
  return p;
}

/// A store holding `services` services of 100 fleet-shaped rows each,
/// with an accounting-only governor attached — serve's configuration
/// when --mem-ceiling is off.
struct FleetStore {
  static constexpr std::size_t kServices = 8;
  static constexpr std::size_t kRows = 100;
  core::MemoryAccountant accountant;
  core::Governor governor{core::GovernorPolicy{}, &accountant};
  store::PatternStore store;

  FleetStore() {
    for (std::size_t s = 0; s < kServices; ++s) {
      for (std::size_t r = 0; r < kRows; ++r) {
        store.upsert_pattern(make_fleet_pattern(s, r));
      }
    }
    store.attach_governor(&governor);
  }
  ~FleetStore() { store.attach_governor(nullptr); }
};

void BM_StoreLoadServiceGoverned(benchmark::State& state) {
  FleetStore fleet;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fleet.store.load_service(
        fleet_service(i++ % FleetStore::kServices)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(FleetStore::kRows));
}
BENCHMARK(BM_StoreLoadServiceGoverned);

void BM_StoreMatchPatternsGoverned(benchmark::State& state) {
  FleetStore fleet;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fleet.store.match_patterns(
        fleet_service(i++ % FleetStore::kServices)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(FleetStore::kRows));
}
BENCHMARK(BM_StoreMatchPatternsGoverned);

void BM_StoreUpsertMergeGoverned(benchmark::State& state) {
  // Re-upserts of stored rows: stats merge, examples already at the cap,
  // and variable types that differ from the stored ones (a widen).
  FleetStore fleet;
  std::vector<core::Pattern> incoming;
  for (std::size_t r = 0; r < FleetStore::kRows; ++r) {
    incoming.push_back(make_fleet_pattern(r % FleetStore::kServices, r, 1));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    fleet.store.upsert_pattern(incoming[i++ % incoming.size()]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StoreUpsertMergeGoverned);

void BM_StoreRecordMatch(benchmark::State& state) {
  store::PatternStore pattern_store;
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < 500; ++i) {
    const core::Pattern p = make_pattern(i);
    pattern_store.upsert_pattern(p);
    ids.push_back(p.id());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    pattern_store.record_match(ids[i++ % ids.size()], 1, 1600000000);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StoreRecordMatch);

void BM_StoreSaveLoad(benchmark::State& state) {
  store::PatternStore pattern_store;
  for (std::size_t i = 0; i < static_cast<std::size_t>(state.range(0));
       ++i) {
    pattern_store.upsert_pattern(make_pattern(i));
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "seqrtg_bench_store.db")
          .string();
  for (auto _ : state) {
    pattern_store.save(path);
    store::PatternStore loaded;
    loaded.load(path);
    benchmark::DoNotOptimize(loaded.pattern_count());
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_StoreSaveLoad)->Arg(100)->Arg(1000);

/// Scratch store directory for the durability benches.
struct BenchDir {
  std::filesystem::path path;
  explicit BenchDir(const char* tag)
      : path(std::filesystem::temp_directory_path() /
             (std::string("seqrtg_bench_") + tag)) {
    std::filesystem::remove_all(path);
  }
  ~BenchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

void BM_StoreDurableUpsert(benchmark::State& state) {
  // The acknowledged-write path: one WAL append + fsync per upsert.
  BenchDir dir("durable_upsert");
  store::PatternStore pattern_store;
  if (!pattern_store.open(dir.path.string())) {
    state.SkipWithError("open failed");
    return;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    pattern_store.upsert_pattern(make_pattern(i++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StoreDurableUpsert);

void BM_StoreCheckpoint(benchmark::State& state) {
  // Snapshot rotation: write-to-temp + fsync + rename + WAL truncation.
  BenchDir dir("checkpoint");
  store::PatternStore pattern_store;
  if (!pattern_store.open(dir.path.string())) {
    state.SkipWithError("open failed");
    return;
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(state.range(0));
       ++i) {
    pattern_store.upsert_pattern(make_pattern(i));
  }
  for (auto _ : state) {
    pattern_store.checkpoint();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_StoreCheckpoint)->Arg(1000);

void BM_StoreWalReplay(benchmark::State& state) {
  // Cold-start recovery with an un-checkpointed WAL tail of range(0)
  // commit groups.
  BenchDir dir("replay");
  {
    store::PatternStore writer;
    if (!writer.open(dir.path.string())) {
      state.SkipWithError("open failed");
      return;
    }
    for (std::size_t i = 0; i < static_cast<std::size_t>(state.range(0));
         ++i) {
      writer.upsert_pattern(make_pattern(i));
    }
  }
  for (auto _ : state) {
    store::PatternStore recovered;
    recovered.open(dir.path.string());
    benchmark::DoNotOptimize(recovered.pattern_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_StoreWalReplay)->Arg(1000);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  bench::write_bench_telemetry("store");
  return 0;
}
