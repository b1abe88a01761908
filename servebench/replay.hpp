// The traced half of the benchmark. It pushes the records of one saturated
// round, with the same per-lane whole-batch flushes, through the public
// entry points a serve lane calls, timing each call from outside:
//
//   lane thread ── JsonStreamIngester::parse_line       ingest.decode
//               └─ Engine::analyze_by_service           engine.batch
//                    ├─ PatternRepository (forwarding)  store.load_service
//                    │                                  store.upsert
//                    │                                  store.record_match
//                    │                                  store.commit
//                    │     └─ commit sink → standby     repl.apply
//                    └─ SpillTarget (forwarding)        governor.spill
//   main thread ── PatternStore::open / checkpoint      store.open
//                                                       store.checkpoint
//
// Spans stay in memory and are aggregated when the pass ends. An untraced
// pass over the same records gives the tracing overhead and the serve
// transport cost; on a workload with a replay ceiling, a governed pass
// over the same records measures spill and reload; a single-threaded
// layer replay times the scanner, the matcher, parser rebuilds and trie
// analysis in isolation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload.hpp"

namespace servebench {

struct ReplayConfig {
  const WorkloadSpec* spec = nullptr;
  /// The records to replay: one saturated round's bytes as the server
  /// received them (JSON lines, in chunks) and the lane of each line.
  const std::vector<std::string>* input = nullptr;
  const std::vector<std::uint8_t>* lanes = nullptr;
  std::string work_dir;
  /// Premined store to start from; empty = start from an empty store.
  std::string template_dir;
};

struct SpanStats {
  std::uint64_t calls = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double wait_s() const { return wall_s > cpu_s ? wall_s - cpu_s : 0.0; }
};

struct ReplayResult {
  std::uint64_t records = 0;
  /// Traced pass.
  std::map<std::string, SpanStats> spans;
  double engine_self_cpu_s = 0.0;
  double coverage = 0.0;
  double traced_wall_s = 0.0;
  std::uint64_t matched = 0;
  std::uint64_t analyzed = 0;
  std::uint64_t rows_loaded = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t spills = 0;
  std::uint64_t reloads = 0;
  std::uint64_t spill_calls = 0;
  std::uint64_t spill_refused = 0;
  double peak_resident_mib = 0.0;
  double ungoverned_peak_resident_mib = 0.0;
  std::uint64_t repl_groups = 0;
  std::uint64_t repl_bytes = 0;
  /// Whether a governed pass ran (spec.replay_ceiling > 0). When it did,
  /// the governor figures above and the governor.spill span come from it.
  bool governed = false;
  double governed_wall_s = 0.0;
  /// Untraced pass: wall time and lane-thread CPU.
  double untraced_wall_s = 0.0;
  double untraced_cpu_s = 0.0;
  /// Layer replay.
  double build_us_per_row = 0.0;
  double scan_ns_per_record = 0.0;
  double tokens_per_record = 0.0;
  double match_ns_per_record = 0.0;
  double hit_ratio = 0.0;
  double trie_us_per_record = 0.0;
  std::uint64_t layer_records = 0;
  std::uint64_t trie_records = 0;
  /// Replay output checks that failed.
  std::vector<std::string> failures;
};

bool run_replay(const ReplayConfig& cfg, ReplayResult* result,
                std::string* error);

}  // namespace servebench
