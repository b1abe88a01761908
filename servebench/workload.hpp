// Workloads of the end-to-end serve benchmark: what each one sends, and the
// fixed constants (input size, open-loop rate, memory ceilings, warm
// segment) it runs with. NOTES.md says why each workload exists and how
// the constants were derived.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/analyze_by_service.hpp"
#include "core/ingest.hpp"

namespace servebench {

/// Serve shape shared by every workload: 2 lanes, 4096-record flushes.
inline constexpr std::size_t kLanes = 2;
inline constexpr std::size_t kBatch = 4096;

enum class Kind { kFleet, kLoghubMix };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  /// Sizes the saturated rounds: each lane receives its share of
  /// sat_rate * sat_seconds / 5 records, rounded up to whole batches, so
  /// the five rounds were about sat_seconds of work when the benchmark was
  /// written. Fixed, so every run measures the same amount of input.
  double sat_rate;
  /// Records/s of the open-loop phase, fixed so later runs compare
  /// (NOTES.md, "Fixed constants").
  double open_rate;
  /// `--mem-ceiling` in bytes; 0 = ungoverned.
  std::size_t mem_ceiling;
  /// Ceiling of an extra traced replay pass that measures the governor
  /// (spill/reload) on this workload's records; 0 = no such pass. The
  /// in-process replay has no admission path, so it cannot shed.
  std::size_t replay_ceiling;
  /// Whether the primary ships its WAL groups to a hot standby.
  bool standby;
  /// Records of the stream mined into the store before the server starts
  /// (fleet_warm); 0 = the server starts from an empty store.
  std::size_t warm_records;
  /// FleetOptions::noise_fraction (one-off messages no pattern covers).
  double noise_fraction;
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(std::string_view name);

/// The serve lanes' sharding rule (serve::Server::ingest_record).
std::size_t lane_of(const std::string& service);

/// The workload's record stream, deterministic in (spec, seed). Endless:
/// the benchmark takes as many records as the run's phases consume. Fleet
/// workloads share one fixed 241-service fleet and the seed selects a
/// window of its stream; loghub_mix seeds each dataset and the interleave.
class RecordSource {
 public:
  RecordSource(const WorkloadSpec& spec, std::uint64_t seed);
  ~RecordSource();
  RecordSource(const RecordSource&) = delete;
  RecordSource& operator=(const RecordSource&) = delete;

  /// The next record; the reference stays valid until the next call.
  const seqrtg::core::LogRecord& next();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// One premine flush: what the engine reported and what it cost.
struct PremineFlush {
  seqrtg::core::BatchReport report;
  double cpu_s = 0.0;
  std::size_t patterns = 0;
};

/// Mines the first `records` records of the stream into a durable store at
/// `dir` with the serve shape (one engine per lane, whole batches),
/// checkpointing all but the last two flushes so that opening the store
/// later replays a WAL tail. `flushes`, when given, receives every flush in
/// order (the warm-up curve that fixes `warm_records`, NOTES.md). Returns
/// false on an I/O failure.
bool premine(const WorkloadSpec& spec, std::uint64_t seed,
             const std::string& dir, std::size_t records,
             std::vector<PremineFlush>* flushes = nullptr);

}  // namespace servebench
