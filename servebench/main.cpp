// servebench: one run of one workload of the end-to-end serve benchmark.
//
//   servebench --workload fleet_warm --seed 1 --seconds 10 --trace 0
//       --seqrtg <path to seqrtg> --work-dir <scratch dir inside the checkout>
//
// --trace 0 prints the end-to-end metrics, --trace 1 additionally runs the
// traced replay and prints the per-layer metrics. The last stdout line is
// one JSON object {"correct","attempted","failed","metrics"}. Exit status:
// 0 = every output check held, 1 = a check failed (the JSON still prints,
// with "correct": false), 2 = the run could not be carried out.
// Normally launched through run.py, which builds both binaries first.
//
//   servebench --workload fleet_warm --seed 7 --work-dir DIR
//       --premine-curve 320000
//
// prints the warm-up curve that fixes fleet_warm's warm segment (NOTES.md,
// "Fixed constants") instead of running the benchmark.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "proc.hpp"
#include "replay.hpp"
#include "serve_run.hpp"
#include "util/json.hpp"
#include "workload.hpp"

namespace {

using servebench::kBatch;
using servebench::kLanes;

/// A second seed, never used while the benchmark was tuned, for re-checking
/// a claimed change (NOTES.md).
constexpr std::uint64_t kHeldOutSeed = 90210;

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return servebench::percentile(v, 0.5);
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.6g %-7s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

std::string fmt(const char* format, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

double num(std::uint64_t v) { return static_cast<double>(v); }

/// The warm-up curve behind fleet_warm's warm_records (NOTES.md): mines
/// `records` records in the serve shape and prints, per window of 8
/// flushes, the share of records an existing pattern matched, the new
/// patterns, the store size and the mining CPU per record.
int print_premine_curve(const servebench::WorkloadSpec& spec,
                        std::uint64_t seed, const std::string& work_dir,
                        std::size_t records) {
  std::vector<servebench::PremineFlush> flushes;
  if (!servebench::premine(spec, seed, work_dir + "/curve", records,
                           &flushes)) {
    std::fprintf(stderr, "servebench: premine failed\n");
    return 2;
  }
  std::printf("%10s %8s %8s %9s %8s\n", "mined", "matched", "new_pat",
              "patterns", "cpu_us");
  constexpr std::size_t kWindow = 8;
  std::uint64_t mined = 0;
  for (std::size_t i = 0; i < flushes.size(); i += kWindow) {
    seqrtg::core::BatchReport sum;
    double cpu = 0.0;
    const std::size_t last = std::min(i + kWindow, flushes.size()) - 1;
    for (std::size_t f = i; f <= last; ++f) {
      sum += flushes[f].report;
      cpu += flushes[f].cpu_s;
    }
    mined += sum.records;
    std::printf("%10llu %8.4f %8zu %9zu %8.1f\n",
                static_cast<unsigned long long>(mined),
                ratio(num(sum.matched_existing), num(sum.records)),
                sum.new_patterns, flushes[last].patterns,
                ratio(cpu * 1e6, num(sum.records)));
  }
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "--seqrtg PATH --work-dir DIR [--smoke] [--plant-skip N]\n"
               "       %s --workload NAME --seed N --work-dir DIR "
               "--premine-curve RECORDS\n"
               "workloads: fleet_warm loghub_mix fleet_replicated "
               "fleet_governed\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, seqrtg, work_dir;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  std::int64_t plant_skip = -1;
  std::size_t premine_curve = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--smoke") {
      smoke = true;
      continue;
    }
    if (v == nullptr) return usage(argv[0]);
    ++i;
    if (a == "--workload") workload = v;
    else if (a == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") seconds = std::strtod(v, nullptr);
    else if (a == "--trace") trace = std::atoi(v);
    else if (a == "--seqrtg") seqrtg = v;
    else if (a == "--work-dir") work_dir = v;
    else if (a == "--plant-skip") plant_skip = std::strtoll(v, nullptr, 10);
    else if (a == "--premine-curve") {
      premine_curve = std::strtoull(v, nullptr, 10);
    }
    else return usage(argv[0]);
  }
  const servebench::WorkloadSpec* found = servebench::find_workload(workload);
  if (found == nullptr || (seqrtg.empty() && premine_curve == 0) ||
      work_dir.empty() || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return usage(argv[0]);
  }
  servebench::WorkloadSpec spec = *found;
  // Smoke runs (self-test) keep every phase but shrink the warm segment.
  if (smoke) {
    spec.warm_records = std::min<std::size_t>(spec.warm_records, 3 * kBatch);
  }
  if (!servebench::make_dirs(work_dir)) {
    std::fprintf(stderr, "cannot create %s\n", work_dir.c_str());
    return 2;
  }

  if (premine_curve > 0) {
    return print_premine_curve(spec, seed, work_dir, premine_curve);
  }

  servebench::ServeRunConfig cfg;
  cfg.spec = &spec;
  cfg.seed = seed;
  cfg.seqrtg = seqrtg;
  cfg.work_dir = work_dir;
  cfg.sat_seconds = seconds / 2;
  cfg.open_seconds = seconds / 2;
  cfg.setup_min_launches = smoke ? 0 : 6;
  cfg.setup_budget_s = smoke ? 0.0 : 2.0;
  cfg.plant_skip = plant_skip;

  std::printf("servebench %s seed=%llu seconds=%g trace=%d%s\n", spec.name,
              static_cast<unsigned long long>(seed), seconds, trace,
              smoke ? " (smoke)" : "");
  std::fflush(stdout);
  servebench::ServeRunResult run;
  std::string error;
  if (!servebench::run_serve(cfg, &run, &error)) {
    std::fprintf(stderr, "servebench: %s\n", error.c_str());
    return 2;
  }

  const std::uint64_t attempted = run.sent;
  const std::uint64_t failed =
      attempted - std::min(attempted, run.conserved);
  const double cpu_us = median(run.sat_cpu_us);
  const double samples = num(run.latency_ms.size());
  // At an unsustainable rate the latency only measures how long the run
  // lasted. The table says so instead of showing a latency; the JSON keeps
  // the measured value, so the rate turning unsustainable after a change
  // reads as the latency regression it is.
  const std::string latency_note =
      run.sustainable ? "" : "UNSUSTAINABLE rate, latency not meaningful; ";

  std::vector<Metric> e2e = {
      {"setup_s", median(run.setup_s), "s",
       fmt("median of %.0f launches", num(run.setup_s.size()))},
      {"records_per_s", median(run.sat_rates), "rec/s",
       fmt("median of %.0f closed-loop rounds of %.0f records",
           num(run.sat_rates.size()), num(run.sat_records))},
      {"cpu_us_per_record", cpu_us, "us",
       fmt("server process(es), median of rounds; %.0f rec/s/core",
           1e6 / cpu_us)},
      {"commit_p50_ms", servebench::percentile(run.latency_ms, 0.50), "ms",
       latency_note + fmt("%.0f samples at %.0f rec/s open loop", samples,
                          run.open_rate)},
      {"commit_p99_ms", servebench::percentile(run.latency_ms, 0.99), "ms",
       latency_note +
           fmt("%.0f samples beyond p99", std::floor(samples / 100))},
      {"peak_rss_mb", run.peak_rss_mib, "MiB", "summed VmHWM"},
      {"failed_frac", attempted > 0 ? ratio(num(failed), num(attempted)) : 1.0,
       "ratio",
       fmt("%.0f of %.0f sent records not in the reopened store", num(failed),
           num(attempted))},
  };

  // Provenance: never compare results across hosts.
  seqrtg::util::JsonObject prov;
  prov["host"] = seqrtg::bench::bench_host_info();
  prov["nproc"] =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  prov["workload"] = spec.name;
  prov["seed"] = static_cast<std::uint64_t>(seed);
  prov["held_out_seed"] = kHeldOutSeed;
  prov["seconds"] = seconds;
  prov["lanes"] = static_cast<std::uint64_t>(kLanes);
  prov["batch"] = static_cast<std::uint64_t>(kBatch);
  prov["warm_records"] = static_cast<std::uint64_t>(spec.warm_records);
  prov["saturated_records"] = run.sat_records;
  prov["open_loop_records"] = run.open_records;
  prov["open_loop_rate"] = run.open_rate;
  prov["mem_ceiling_bytes"] = static_cast<std::uint64_t>(spec.mem_ceiling);
  prov["standby"] = spec.standby;
  std::printf("provenance %s\n", seqrtg::util::Json(prov).dump().c_str());
  print_metrics("end-to-end:", e2e);
  std::printf(
      "open loop: lateness max %.3f ms, backlog max %llu, mean backlog "
      "first/last third %.0f/%.0f, %s; %llu polls\n",
      run.lateness_max_ms, static_cast<unsigned long long>(run.backlog_max),
      run.backlog_first_third, run.backlog_last_third,
      run.sustainable ? "sustainable" : "UNSUSTAINABLE",
      static_cast<unsigned long long>(run.polls));
  std::uint64_t per_lane[kLanes] = {};
  for (const std::uint8_t l : run.sat_lanes) ++per_lane[l];
  std::printf("lanes: stream share");
  for (const double share : run.lane_share) std::printf(" %.4f", share);
  std::printf("; saturated round batches");
  for (const std::uint64_t c : per_lane) std::printf(" %.0f", num(c) / kBatch);
  std::printf("; open loop: %llu sampled + %llu tail records\n",
              static_cast<unsigned long long>(run.open_records),
              static_cast<unsigned long long>(run.open_tail_records));
  std::printf("saturated rounds (rec/s, CPU us/record):");
  for (std::size_t i = 0; i < run.sat_rates.size(); ++i) {
    std::printf(" %.0f/%.2f", run.sat_rates[i], run.sat_cpu_us[i]);
  }
  std::printf("\n");
  std::printf("drain: %llu accepted, %llu processed, %llu malformed, %llu "
              "dropped, %llu shed, %llu groups shipped\n",
              static_cast<unsigned long long>(run.accepted),
              static_cast<unsigned long long>(run.processed),
              static_cast<unsigned long long>(run.malformed),
              static_cast<unsigned long long>(run.dropped),
              static_cast<unsigned long long>(run.shed),
              static_cast<unsigned long long>(run.groups_shipped));

  std::vector<Metric> reported;
  if (trace == 0) {
    // failed_frac is carried by "attempted" and "failed".
    reported.assign(e2e.begin(), e2e.end() - 1);
  } else {
    // The replays push the last saturated round's bytes: the same records
    // and whole-batch flushes the end-to-end CPU figures cover.
    servebench::ReplayConfig rcfg;
    rcfg.spec = &spec;
    rcfg.input = &run.sat_input;
    rcfg.lanes = &run.sat_lanes;
    rcfg.work_dir = work_dir;
    rcfg.template_dir = run.template_dir;
    servebench::ReplayResult rep;
    if (!servebench::run_replay(rcfg, &rep, &error)) {
      std::fprintf(stderr, "servebench: replay: %s\n", error.c_str());
      return 2;
    }
    for (const std::string& f : rep.failures) run.failures.push_back(f);
    const double n = num(rep.records);
    auto add = [&reported](std::string name, double value, const char* unit,
                           std::string note = "") {
      reported.push_back({std::move(name), value, unit, std::move(note)});
    };
    auto add_span = [&](const std::string& span, bool with_wait = true) {
      const servebench::SpanStats& s = rep.spans[span];
      add(span + ".calls", num(s.calls), "count");
      add(span + ".cpu_s", s.cpu_s, "s");
      if (with_wait) add(span + ".wait_s", s.wait_s(), "s");
    };
    add_span("store.load_service");
    add("store.load_service.rows_per_record", num(rep.rows_loaded) / n,
        "rows");
    add("store.load_service.share_of_batch",
        ratio(rep.spans["store.load_service"].wall_s,
              rep.spans["engine.batch"].wall_s),
        "ratio", "load_service wall / engine.batch wall");
    add("parser.build.us_per_row", rep.build_us_per_row, "us");
    add_span("engine.batch");
    add("engine.self.cpu_s", rep.engine_self_cpu_s, "s",
        "batch minus store/governor/repl children");
    add("engine.matched_ratio", num(rep.matched) / n, "ratio");
    add("engine.analyzed", num(rep.analyzed), "count");
    add_span("ingest.decode", false);
    add("scanner.scan.ns_per_record", rep.scan_ns_per_record, "ns",
        fmt("%.0f records", num(rep.layer_records)));
    add("scanner.tokens_per_record", rep.tokens_per_record, "tokens");
    add("parser.match.ns_per_record", rep.match_ns_per_record, "ns");
    add("parser.hit_ratio", rep.hit_ratio, "ratio");
    add("trie.analyze.us_per_record", rep.trie_us_per_record, "us",
        fmt("%.0f records", num(rep.trie_records)));
    add_span("store.upsert");
    add_span("store.record_match");
    add_span("store.commit");
    add("store.wal_bytes_per_record", num(rep.wal_bytes) / n, "B");
    add_span("store.open");
    add_span("store.checkpoint");
    add_span("governor.spill");
    add("governor.spills", num(rep.spills), "count",
        rep.governed ? fmt("governed replay pass, %.3f s wall",
                           rep.governed_wall_s)
                     : "no ceiling: idle");
    add("governor.reloads", num(rep.reloads), "count");
    add("governor.spill_refused_ratio",
        ratio(num(rep.spill_refused), num(rep.spill_calls)), "ratio",
        fmt("%.0f of %.0f", num(rep.spill_refused), num(rep.spill_calls)));
    add("governor.peak_resident_mb", rep.peak_resident_mib, "MiB",
        rep.governed ? fmt("under the %.0f MiB replay ceiling; %.2f MiB "
                           "ungoverned",
                           num(spec.replay_ceiling) / 1048576.0,
                           rep.ungoverned_peak_resident_mib)
                     : "no ceiling");
    add_span("repl.apply");
    add("repl.groups", num(rep.repl_groups), "count");
    add("repl.bytes_per_record", num(rep.repl_bytes) / n, "B");
    // Both sides over the same records from the same starting store.
    const double serve_us = median(run.sat_cpu_s) * 1e6 / num(run.sat_records);
    const double replay_us = rep.untraced_cpu_s * 1e6 / num(run.sat_records);
    add("serve.transport_cpu_us_per_record", serve_us - replay_us, "us",
        fmt("end-to-end %.3f - untraced replay %.3f", serve_us, replay_us));
    add("serve.backlog_max", num(run.backlog_max), "records");
    add("serve.records_per_flush", run.records_per_flush, "records");
    add("loadgen.lateness_max_ms", run.lateness_max_ms, "ms");
    add("trace.coverage", rep.coverage, "ratio");
    add("trace.overhead_frac", rep.traced_wall_s / rep.untraced_wall_s - 1.0,
        "ratio",
        fmt("traced %.3f s vs untraced %.3f s", rep.traced_wall_s,
            rep.untraced_wall_s));
    print_metrics("per-layer (traced replay):", reported);
    std::printf("spans (calls, wall s, cpu s, wait s):\n");
    for (const auto& [name, s] : rep.spans) {
      std::printf("  %-22s %10llu %10.4f %10.4f %10.4f\n", name.c_str(),
                  static_cast<unsigned long long>(s.calls), s.wall_s, s.cpu_s,
                  s.wait_s());
    }
  }

  for (Metric& m : reported) {
    if (!std::isfinite(m.value)) {
      run.failures.push_back(m.name + " is not a finite number");
      m.value = 0.0;
    }
  }
  const bool correct = run.failures.empty();
  std::printf("checks: %s\n", correct ? "ok" : "FAILED");
  for (const std::string& f : run.failures) {
    std::printf("  FAILED %s\n", f.c_str());
  }
  seqrtg::util::JsonObject metrics;
  for (const Metric& m : reported) {
    seqrtg::util::JsonObject entry;
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    metrics[m.name] = seqrtg::util::Json(std::move(entry));
  }
  seqrtg::util::JsonObject result;
  result["correct"] = correct;
  result["attempted"] = attempted;
  result["failed"] = failed;
  result["metrics"] = seqrtg::util::Json(std::move(metrics));
  std::printf("%s\n", seqrtg::util::Json(std::move(result)).dump().c_str());
  return correct ? 0 : 1;
}
