// The end-to-end half of the benchmark: real `seqrtg serve` processes
// (plus a hot standby where the workload replicates) fed over loopback TCP
// by one generator connection, with one HTTP client polling progress.
//
// Phases of one run:
//   setup      launch the server(s) on a copy of the workload's store until
//              the ingest port accepts, several times (setup_s = median)
//   saturated  closed loop, repeated in rounds on fresh deployments: write
//              a fixed number of whole batches per lane as fast as the
//              socket accepts, so every flush is a full one; rate and CPU
//              per record are medians over the rounds
//   open loop  fixed rate; each record's latency runs from its scheduled
//              send time to the first /debug/lanes poll whose lane
//              flushed_records covers it; sending goes on at the same rate
//              (unsampled) until every sampled record is committed
//   stop       SIGTERM, drain report, standby catch-up, cold-open checks
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload.hpp"

namespace servebench {

struct ServeRunConfig {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  std::string seqrtg;
  std::string work_dir;
  double sat_seconds = 5.0;
  double open_seconds = 5.0;
  /// Set-up-only launches (besides the saturated rounds' own): at least
  /// this many, and repeated until this much time has passed.
  int setup_min_launches = 6;
  double setup_budget_s = 2.0;
  /// Self-test fault: the generator silently skips the saturated-phase
  /// record with this index while still counting it as sent (-1 = off).
  std::int64_t plant_skip = -1;
};

struct ServeRunResult {
  std::vector<double> setup_s;
  /// Records the final deployment received: one saturated round, then the
  /// open-loop records.
  std::uint64_t sent = 0;
  // Saturated phase: records of one round, and per round the commit rate
  // (rec/s), the server CPU per record (µs) and the server CPU (s).
  std::uint64_t sat_records = 0;
  /// Each lane's share of the workload's stream (fixed sample).
  std::vector<double> lane_share;
  /// The bytes of the last round as sent (JSON lines, in chunks) and the
  /// lane of each line: the replays feed exactly this input.
  std::vector<std::string> sat_input;
  std::vector<std::uint8_t> sat_lanes;
  std::vector<double> sat_rates;
  std::vector<double> sat_cpu_us;
  std::vector<double> sat_cpu_s;
  // Open-loop phase: latency samples, and the records sent after them at
  // the same rate until every sample was committed.
  std::uint64_t open_records = 0;
  std::uint64_t open_tail_records = 0;
  double open_rate = 0.0;
  /// Per-record commit latency in ms, sorted ascending.
  std::vector<double> latency_ms;
  double lateness_max_ms = 0.0;
  std::uint64_t backlog_max = 0;
  double backlog_first_third = 0.0;
  double backlog_last_third = 0.0;
  bool sustainable = true;
  double records_per_flush = 0.0;
  std::uint64_t polls = 0;
  // Whole run.
  double peak_rss_mib = 0.0;
  std::uint64_t accepted = 0;
  std::uint64_t processed = 0;
  std::uint64_t malformed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t shed = 0;
  std::uint64_t groups_shipped = 0;
  /// Records the cold-reopened primary store accounts for (match counts
  /// minus the warm segment).
  std::uint64_t conserved = 0;
  /// Output checks that failed; empty when the run is correct.
  std::vector<std::string> failures;
  /// Store the run started from (premined for fleet_warm, else absent).
  std::string template_dir;
};

/// Runs every phase; false (with `error`) when the run could not be
/// carried out at all. Failed output checks land in result->failures.
bool run_serve(const ServeRunConfig& cfg, ServeRunResult* result,
               std::string* error);

/// Latency percentile (q in [0,1]) of a sorted sample.
double percentile(const std::vector<double>& sorted, double q);

}  // namespace servebench
