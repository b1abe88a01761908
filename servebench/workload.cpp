#include "workload.hpp"

#include <functional>
#include <optional>

#include "loggen/corpus.hpp"
#include "loggen/fleet.hpp"
#include "proc.hpp"
#include "store/pattern_store.hpp"
#include "util/rng.hpp"

namespace servebench {

namespace sq = seqrtg;

const std::vector<WorkloadSpec>& workloads() {
  // sat_rate, open_rate, the ceilings and warm_records are derived in
  // NOTES.md ("Fixed constants").
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"fleet_warm", Kind::kFleet, 8000.0, 2000.0, 0, 0, false, 163840, 0.0},
      {"loghub_mix", Kind::kLoghubMix, 100000.0, 30000.0, 0, 0, false, 0,
       0.0},
      {"fleet_replicated", Kind::kFleet, 9000.0, 2000.0, 0, 4u << 20, true, 0,
       0.15},
      {"fleet_governed", Kind::kFleet, 9000.0, 1500.0, 4u << 20, 0, true, 0,
       0.15},
  };
  return kWorkloads;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::size_t lane_of(const std::string& service) {
  return std::hash<std::string>{}(service) % kLanes;
}

namespace {

/// Generator seed of the benchmark's fleet, and the largest stream offset a
/// run seed selects.
constexpr std::uint64_t kFleetSeed = 241;
constexpr std::uint64_t kMaxOffset = 100000;

/// One LogHub dataset expanded lazily, exactly as loggen::generate_corpus
/// expands it (header + Zipf-drawn event, clock advancing 0-3 s).
struct DatasetStream {
  DatasetStream(const sq::loggen::DatasetSpec& s, std::uint64_t seed)
      : spec(&s), ctx{sq::util::Rng(seed)},
        zipf(s.events.size(), s.zipf_s) {}

  std::string next() {
    const std::size_t event = zipf.sample(ctx.rng);
    std::string raw;
    sq::loggen::expand_template(spec->header, ctx, &raw, nullptr);
    sq::loggen::expand_template(spec->events[event].format, ctx, &raw,
                                nullptr);
    ctx.clock += ctx.rng.uniform(0, 3);
    return raw;
  }

  const sq::loggen::DatasetSpec* spec;
  sq::loggen::GenContext ctx;
  sq::util::ZipfSampler zipf;
};

}  // namespace

struct RecordSource::Impl {
  std::optional<sq::loggen::FleetGenerator> fleet;
  std::vector<DatasetStream> datasets;
  sq::util::Rng mixer{0};
  sq::core::LogRecord current;
};

RecordSource::RecordSource(const WorkloadSpec& spec, std::uint64_t seed)
    : impl_(std::make_unique<Impl>()) {
  if (spec.kind == Kind::kLoghubMix) {
    // 16 services (service = dataset name), interleaved uniformly at
    // random; each dataset keeps its own order and its own seed.
    const sq::util::Rng seeder(seed);
    for (const sq::loggen::DatasetSpec& d : sq::loggen::loghub_datasets()) {
      impl_->datasets.emplace_back(d, seeder.fork(d.name).next_u64());
    }
    impl_->mixer = seeder.fork("mix");
  } else {
    // One fixed fleet (services, templates, Zipf weights); the seed picks
    // where in its endless stream the run starts. Seeding the fleet itself
    // made the cost per record differ by ~15% from seed to seed, as much
    // as the host's own run-to-run noise.
    sq::loggen::FleetOptions opts;
    opts.seed = kFleetSeed;
    opts.noise_fraction = spec.noise_fraction;
    impl_->fleet.emplace(opts);
    const std::uint64_t offset = sq::util::Rng(seed).next_below(kMaxOffset);
    for (std::uint64_t i = 0; i < offset; ++i) impl_->fleet->next();
  }
}

RecordSource::~RecordSource() = default;

const sq::core::LogRecord& RecordSource::next() {
  if (impl_->fleet.has_value()) {
    impl_->current = std::move(impl_->fleet->next().record);
  } else {
    DatasetStream& d = impl_->datasets[static_cast<std::size_t>(
        impl_->mixer.next_below(impl_->datasets.size()))];
    impl_->current.service = d.spec->name;
    impl_->current.message = d.next();
  }
  return impl_->current;
}

bool premine(const WorkloadSpec& spec, std::uint64_t seed,
             const std::string& dir, std::size_t records,
             std::vector<PremineFlush>* flushes) {
  sq::store::PatternStore store;
  if (!store.open(dir)) return false;
  RecordSource source(spec, seed);
  sq::core::EngineOptions opts;
  opts.now_unix = 1609459200;
  std::vector<std::unique_ptr<sq::core::Engine>> engines;
  std::vector<std::vector<sq::core::LogRecord>> batches(kLanes);
  for (std::size_t l = 0; l < kLanes; ++l) {
    engines.push_back(std::make_unique<sq::core::Engine>(&store, opts));
  }
  std::size_t mined = 0;
  bool checkpointed = false;
  auto flush = [&](std::size_t lane) {
    if (batches[lane].empty()) return true;
    const double cpu0 = thread_cpu_s();
    const sq::core::BatchReport report =
        engines[lane]->analyze_by_service(batches[lane]);
    if (flushes != nullptr) {
      flushes->push_back(
          {report, thread_cpu_s() - cpu0, store.pattern_count()});
    }
    mined += batches[lane].size();
    batches[lane].clear();
    // Leave the last two flushes in the WAL: opening the store then loads
    // a snapshot AND replays a log tail, as a restarted server does.
    if (!checkpointed && mined + 2 * kBatch >= records) {
      checkpointed = true;
      return store.checkpoint();
    }
    return true;
  };
  for (std::size_t i = 0; i < records; ++i) {
    const sq::core::LogRecord& r = source.next();
    const std::size_t lane = lane_of(r.service);
    batches[lane].push_back(r);
    if (batches[lane].size() == kBatch && !flush(lane)) return false;
  }
  for (std::size_t l = 0; l < kLanes; ++l) {
    if (!flush(l)) return false;
  }
  return store.durable() && !store.wal_wedged();
}

}  // namespace servebench
