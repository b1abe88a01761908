#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "core/ingest.hpp"
#include "obs/build_info.hpp"
#include "obs/exposition.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace seqrtg::obs {
namespace {

TEST(Counter, IncrementAndReset) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c_total");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentIncrementsLandExactlyOnce) {
  MetricsRegistry reg;
  Counter& c = reg.counter("concurrent_total");
  Histogram& h = reg.histogram("concurrent_seconds");
  constexpr std::size_t kIters = 20000;
  util::ThreadPool pool(8);
  pool.parallel_for(kIters, [&](std::size_t i) {
    c.inc();
    h.observe(static_cast<double>(i % 10) * 1e-4);
  });
  EXPECT_EQ(c.value(), kIters);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, kIters);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t n : s.counts) bucket_total += n;
  EXPECT_EQ(bucket_total, kIters);
}

TEST(Counter, SameNameAndLabelsReturnsSameInstance) {
  MetricsRegistry reg;
  Counter& a = reg.counter("ops_total", "help", {{"op", "save"}});
  Counter& b = reg.counter("ops_total", "", {{"op", "save"}});
  Counter& other = reg.counter("ops_total", "", {{"op", "load"}});
  a.inc();
  b.inc();
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  EXPECT_EQ(a.value(), 2u);
  EXPECT_EQ(other.value(), 0u);
}

TEST(Counter, LabelOrderDoesNotSplitInstances) {
  MetricsRegistry reg;
  Counter& a = reg.counter("l_total", "", {{"a", "1"}, {"b", "2"}});
  Counter& b = reg.counter("l_total", "", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(Registry, TypeMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("x_total");
  EXPECT_THROW(reg.gauge("x_total"), std::logic_error);
  EXPECT_THROW(reg.histogram("x_total"), std::logic_error);
}

TEST(Gauge, SetAndAdd) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("backlog");
  g.set(12.5);
  EXPECT_DOUBLE_EQ(g.value(), 12.5);
  g.add(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
}

TEST(Histogram, RejectsBadBounds) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.histogram("h1", "", {}, {}), std::logic_error);
  EXPECT_THROW(reg.histogram("h2", "", {}, {1.0, 1.0}), std::logic_error);
}

TEST(Histogram, QuantileInterpolationMatchesKnownInputs) {
  MetricsRegistry reg;
  // Buckets: (0,1], (1,2], (2,4], (4,8], (8,+Inf)
  Histogram& h = reg.histogram("lat", "", {}, {1.0, 2.0, 4.0, 8.0});
  // 10 observations in (0,1], 10 in (1,2].
  for (int i = 0; i < 10; ++i) h.observe(0.5);
  for (int i = 0; i < 10; ++i) h.observe(1.5);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 20u);
  EXPECT_DOUBLE_EQ(s.sum, 10 * 0.5 + 10 * 1.5);
  // p50: target = 10 -> exactly fills the first bucket -> upper edge 1.0.
  EXPECT_DOUBLE_EQ(s.quantile(0.50), 1.0);
  // p25: target = 5 -> halfway through (0,1].
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 0.5);
  // p75: target = 15 -> halfway through (1,2] -> 1.5.
  EXPECT_DOUBLE_EQ(s.quantile(0.75), 1.5);
  // p100 -> upper edge of the last populated bucket.
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 2.0);
}

TEST(Histogram, OverflowBucketReportsHighestFiniteBound) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat", "", {}, {1.0, 2.0});
  h.observe(100.0);
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.99), 2.0);
}

TEST(Histogram, EmptyQuantileIsZero) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat", "", {}, {1.0});
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.5), 0.0);
}

TEST(Stage, RecordsExactlyOneObservation) {
  // One histogram observation and one span per scope, whether it ends by
  // end() or by going out of scope; end() is idempotent.
  MetricsRegistry reg;
  Histogram& h = reg.histogram("stage", "", {}, default_latency_buckets());
  tracer().start();
  {
    Stage stage(h, TraceCat::kEngine, "test_stage");
    stage.end();
    stage.end();
  }
  EXPECT_EQ(h.snapshot().count, 1u);
  { Stage stage(h, TraceCat::kEngine, "test_stage"); }
  EXPECT_EQ(h.snapshot().count, 2u);
  tracer().stop();
  const std::vector<SpanRecord> spans = tracer().collect();
  EXPECT_EQ(std::count_if(spans.begin(), spans.end(),
                          [](const SpanRecord& s) {
                            return std::string_view(s.name) == "test_stage";
                          }),
            2);
}

TEST(Exposition, PrometheusGolden) {
  MetricsRegistry reg;
  reg.counter("seqrtg_test_ops_total", "Operations", {{"op", "save"}})
      .inc(3);
  reg.counter("seqrtg_test_ops_total", "Operations", {{"op", "load"}})
      .inc(1);
  reg.gauge("seqrtg_test_backlog", "Pending items").set(7);
  Histogram& h =
      reg.histogram("seqrtg_test_seconds", "Latency", {}, {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);

  const std::string expected =
      "# HELP seqrtg_test_backlog Pending items\n"
      "# TYPE seqrtg_test_backlog gauge\n"
      "seqrtg_test_backlog 7\n"
      "# HELP seqrtg_test_ops_total Operations\n"
      "# TYPE seqrtg_test_ops_total counter\n"
      "seqrtg_test_ops_total{op=\"load\"} 1\n"
      "seqrtg_test_ops_total{op=\"save\"} 3\n"
      "# HELP seqrtg_test_seconds Latency\n"
      "# TYPE seqrtg_test_seconds histogram\n"
      "seqrtg_test_seconds_bucket{le=\"0.1\"} 2\n"
      "seqrtg_test_seconds_bucket{le=\"1\"} 3\n"
      "seqrtg_test_seconds_bucket{le=\"+Inf\"} 4\n"
      "seqrtg_test_seconds_sum 5.6\n"
      "seqrtg_test_seconds_count 4\n";
  EXPECT_EQ(to_prometheus(reg), expected);
  // Rendering twice round-trips byte-identically (golden stability).
  EXPECT_EQ(to_prometheus(reg), expected);
}

TEST(Exposition, JsonRoundTripsThroughParser) {
  MetricsRegistry reg;
  reg.counter("c_total", "help").inc(5);
  Histogram& h = reg.histogram("h_seconds", "", {{"phase", "x"}}, {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);

  const util::Json doc = to_json(reg);
  const util::JsonParseResult parsed = util::json_parse(doc.dump());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const util::Json* metrics = parsed.value.find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->as_array().size(), 2u);

  const util::Json& counter = metrics->as_array()[0];
  EXPECT_EQ(counter.get_string("name", ""), "c_total");
  EXPECT_DOUBLE_EQ(
      counter.find("instances")->as_array()[0].find("value")->as_number(),
      5.0);

  const util::Json& hist = metrics->as_array()[1];
  EXPECT_EQ(hist.get_string("type", ""), "histogram");
  const util::Json& inst = hist.find("instances")->as_array()[0];
  EXPECT_EQ(inst.find("count")->as_int(), 2);
  EXPECT_EQ(inst.find("labels")->get_string("phase", ""), "x");
  // p50 of {0.5, 1.5} with bounds {1,2}: target 1 fills bucket one -> 1.0.
  EXPECT_DOUBLE_EQ(inst.find("p50")->as_number(), 1.0);
}

TEST(Exposition, WriteMetricsFilePicksFormatByExtension) {
  MetricsRegistry reg;
  reg.counter("c_total").inc();
  const std::string base = ::testing::TempDir() + "seqrtg_metrics_test";
  ASSERT_TRUE(write_metrics_file(reg, base + ".json"));
  ASSERT_TRUE(write_metrics_file(reg, base + ".prom"));
  EXPECT_FALSE(write_metrics_file(reg, base + ".prom", "nonsense"));
  std::remove((base + ".json").c_str());
  std::remove((base + ".prom").c_str());
}

TEST(DefaultRegistry, InstrumentationIsRegistered) {
  // The instrumented modules register into the default registry on first
  // use; exercising a scan via the registry-reset path must keep handles
  // valid.
  EXPECT_NO_THROW(default_registry().counter(
      "seqrtg_scanner_messages_total"));
}

TEST(Telemetry, KillSwitchStopsRecording) {
  MetricsRegistry reg;
  Counter& c = reg.counter("guarded_total");
  const bool was_enabled = telemetry_enabled();
  set_telemetry_enabled(false);
  if (telemetry_enabled()) c.inc();
  set_telemetry_enabled(was_enabled);
  EXPECT_EQ(c.value(), 0u);
}

TEST(IngestTelemetry, AcceptedAndMalformedCountersAreWired) {
  // Every ingest surface (read_batch, the serve socket/stdin readers) goes
  // through parse_and_count_line, so the process-wide reject counter must
  // move in lockstep with IngestStats.
  Counter& accepted =
      default_registry().counter("seqrtg_ingest_accepted_total");
  Counter& malformed =
      default_registry().counter("seqrtg_ingest_malformed_total");
  const std::uint64_t accepted0 = accepted.value();
  const std::uint64_t malformed0 = malformed.value();

  std::istringstream in(
      "{\"service\":\"db\",\"message\":\"connection reset\"}\n"
      "not json at all\n"
      "\n"
      "{\"service\":\"db\"}\n"
      "{\"service\":\"db\",\"message\":\"query done\"}\n");
  core::JsonStreamIngester ingester(16);
  const std::vector<core::LogRecord> batch = ingester.read_batch(in);

  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(ingester.stats().accepted, 2u);
  EXPECT_EQ(ingester.stats().malformed, 2u);
  EXPECT_EQ(accepted.value() - accepted0, 2u);
  EXPECT_EQ(malformed.value() - malformed0, 2u);

  // The reject counter shows up in the Prometheus exposition by name (what
  // a scrape of the serve daemon's /metrics reports).
  const std::string prom = to_prometheus(default_registry());
  EXPECT_NE(prom.find("seqrtg_ingest_malformed_total"), std::string::npos);
}

TEST(Exposition, LabelValuesEscapeBackslashQuoteAndNewline) {
  // The Prometheus text format requires \\, \" and \n escapes inside label
  // values; a scraper must be able to parse values containing all three.
  MetricsRegistry reg;
  reg.counter("seqrtg_test_paths_total", "Paths",
              {{"path", "C:\\logs\\app"}})
      .inc(1);
  reg.counter("seqrtg_test_paths_total", "Paths",
              {{"path", "say \"hi\""}})
      .inc(2);
  reg.counter("seqrtg_test_paths_total", "Paths", {{"path", "two\nlines"}})
      .inc(3);
  const std::string prom = to_prometheus(reg);
  EXPECT_NE(prom.find("{path=\"C:\\\\logs\\\\app\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("{path=\"say \\\"hi\\\"\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("{path=\"two\\nlines\"} 3"), std::string::npos);
  // No raw newline may survive inside a sample line.
  EXPECT_EQ(prom.find("two\nlines"), std::string::npos);
}

TEST(Exposition, HelpTextEscapesBackslashAndNewline) {
  MetricsRegistry reg;
  reg.counter("seqrtg_test_help_total", "line one\nline two \\ done").inc();
  const std::string prom = to_prometheus(reg);
  EXPECT_NE(prom.find("# HELP seqrtg_test_help_total "
                      "line one\\nline two \\\\ done\n"),
            std::string::npos);
}

TEST(BuildInfo, GaugeAndProcessMetricsAreRegistered) {
  register_build_metrics();
  const std::string prom = to_prometheus(default_registry());
  // The identity gauge is constant 1 with the identity in the labels.
  EXPECT_NE(prom.find("seqrtg_build_info{"), std::string::npos);
  EXPECT_NE(prom.find("version=\"" + std::string(build_info().version) +
                      "\""),
            std::string::npos);
  EXPECT_NE(prom.find("sanitizer=\""), std::string::npos);
  EXPECT_NE(prom.find("seqrtg_process_start_time_seconds"),
            std::string::npos);
  EXPECT_NE(prom.find("seqrtg_process_uptime_seconds"), std::string::npos);

  const std::string line = build_info_string();
  EXPECT_NE(line.find("seqrtg "), std::string::npos);
  EXPECT_NE(line.find(build_info().git_describe), std::string::npos);

  // Start time is captured once: re-registering refreshes uptime but must
  // not move the start timestamp.
  Gauge& start =
      default_registry().gauge("seqrtg_process_start_time_seconds");
  const double first = start.value();
  EXPECT_GT(first, 0.0);
  register_build_metrics();
  EXPECT_EQ(start.value(), first);
}

}  // namespace
}  // namespace seqrtg::obs
