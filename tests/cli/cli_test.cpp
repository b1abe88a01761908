#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace seqrtg::cli {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult run_cli(const std::vector<std::string>& args,
                  const std::string& input = "") {
  std::istringstream in(input);
  std::ostringstream out;
  std::ostringstream err;
  const int code = run(args, in, out, err);
  return {code, out.str(), err.str()};
}

std::string temp_db(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Cli, NoArgsPrintsUsage) {
  const CliResult r = run_cli({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownCommand) {
  const CliResult r = run_cli({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, UnknownFlagIsUsageError) {
  const CliResult r = run_cli({"analyze", "--bogus", "x"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown flag"), std::string::npos);
}

TEST(Cli, MemCeilingRejectsJunkAndOverflow) {
  for (const char* bad : {"junk", "12X", "",
                          // Would wrap the suffix multiply to a tiny
                          // ceiling instead of the huge one requested.
                          "99999999999999999999G", "18446744073709551615K"}) {
    const CliResult r =
        run_cli({"analyze", "--mem-ceiling", bad, "--db", temp_db("mc.db")});
    EXPECT_EQ(r.code, 2) << "value: " << bad;
    EXPECT_NE(r.err.find("--mem-ceiling"), std::string::npos);
  }
}

TEST(Cli, GenerateDatasetDeterministic) {
  const CliResult a =
      run_cli({"generate", "--dataset", "Apache", "--count", "50"});
  const CliResult b =
      run_cli({"generate", "--dataset", "Apache", "--count", "50"});
  EXPECT_EQ(a.code, 0);
  EXPECT_EQ(a.out, b.out);
  EXPECT_EQ(std::count(a.out.begin(), a.out.end(), '\n'), 50);
}

TEST(Cli, GenerateWithLabels) {
  const CliResult r = run_cli(
      {"generate", "--dataset", "Apache", "--count", "10", "--labels"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("\tE"), std::string::npos);
}

TEST(Cli, GeneratePreprocessedVariant) {
  const CliResult r = run_cli(
      {"generate", "--dataset", "HDFS", "--count", "20", "--pre"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("<*>"), std::string::npos);
}

TEST(Cli, GenerateUnknownDatasetListsOptions) {
  const CliResult r = run_cli({"generate", "--dataset", "Nope"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("HDFS"), std::string::npos);
}

TEST(Cli, GenerateFleetStreamIsJsonLines) {
  const CliResult r =
      run_cli({"generate", "--services", "5", "--count", "20"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("{\"message\":"), std::string::npos);
  EXPECT_NE(r.out.find("\"service\":\"svc-"), std::string::npos);
}

TEST(Cli, AnalyzeParseExportRoundTrip) {
  const std::string db = temp_db("seqrtg_cli_test.db");
  std::remove(db.c_str());

  // 1. Generate a stream and analyze it from stdin.
  const CliResult stream =
      run_cli({"generate", "--services", "10", "--count", "4000"});
  ASSERT_EQ(stream.code, 0);
  const CliResult analyze = run_cli(
      {"analyze", "--db", db, "--batch", "1000", "--threads", "2"},
      stream.out);
  ASSERT_EQ(analyze.code, 0) << analyze.err;
  EXPECT_NE(analyze.out.find("analyzed 4000 records"), std::string::npos);

  // 2. stats shows the services.
  const CliResult stats = run_cli({"stats", "--db", db});
  ASSERT_EQ(stats.code, 0);
  EXPECT_NE(stats.out.find("svc-0"), std::string::npos);

  // 3. parse the same stream: everything matches.
  const CliResult parse =
      run_cli({"parse", "--db", db, "--quiet"}, stream.out);
  ASSERT_EQ(parse.code, 0);
  EXPECT_NE(parse.out.find(" matched, 0 unmatched"), std::string::npos)
      << parse.out;

  // 4. export in all three formats.
  for (const char* fmt : {"patterndb", "yaml", "grok"}) {
    const CliResult exp = run_cli({"export", "--db", db, "--format", fmt});
    EXPECT_EQ(exp.code, 0) << fmt;
    EXPECT_FALSE(exp.out.empty()) << fmt;
  }
  const CliResult xml = run_cli({"export", "--db", db});
  EXPECT_NE(xml.out.find("<patterndb"), std::string::npos);

  std::remove(db.c_str());
}

TEST(Cli, ParseRawLinesWithServiceFlag) {
  const std::string db = temp_db("seqrtg_cli_raw.db");
  std::remove(db.c_str());
  const std::string stream =
      R"({"service":"app","message":"job 11 done in 3 ms"})" "\n"
      R"({"service":"app","message":"job 22 done in 9 ms"})" "\n"
      R"({"service":"app","message":"job 33 done in 1 ms"})" "\n";
  ASSERT_EQ(run_cli({"analyze", "--db", db}, stream).code, 0);
  const CliResult parse = run_cli(
      {"parse", "--db", db, "--service", "app"}, "job 77 done in 4 ms\n");
  EXPECT_EQ(parse.code, 0);
  EXPECT_NE(parse.out.find("MATCH"), std::string::npos);
  EXPECT_NE(parse.out.find("integer=77"), std::string::npos);
  std::remove(db.c_str());
}

TEST(Cli, ParseNamesFieldsAfterTheMatchedPattern) {
  // Two imported patterns share the NUMBER wildcard after "x" under
  // different names; each match reports its own pattern's name.
  const std::string db = temp_db("seqrtg_cli_names.db");
  std::remove(db.c_str());
  const std::string xml =
      "<patterndb version=\"4\" pub_date=\"1970-01-01\">"
      "<ruleset name=\"app\" id=\"a\"><rules>"
      "<rule provider=\"sequence-rtg\" id=\"r1\" class=\"system\">"
      "<patterns><pattern>x @NUMBER:integer@ y</pattern></patterns></rule>"
      "<rule provider=\"sequence-rtg\" id=\"r2\" class=\"system\">"
      "<patterns><pattern>x @NUMBER:count@ z</pattern></patterns></rule>"
      "</rules></ruleset></patterndb>";
  ASSERT_EQ(run_cli({"import", "--db", db}, xml).code, 0);
  const CliResult parse = run_cli({"parse", "--db", db, "--service", "app"},
                                  "x 5 z\nx 6 y\n");
  EXPECT_EQ(parse.code, 0);
  EXPECT_NE(parse.out.find(" x %count% z count=5\n"), std::string::npos)
      << parse.out;
  EXPECT_NE(parse.out.find(" x %integer% y integer=6\n"), std::string::npos)
      << parse.out;
  std::remove(db.c_str());
}

TEST(Cli, PurgeDropsWeakPatterns) {
  const std::string db = temp_db("seqrtg_cli_purge.db");
  std::remove(db.c_str());
  const std::string stream =
      R"({"service":"app","message":"frequent event 1"})" "\n"
      R"({"service":"app","message":"frequent event 2"})" "\n"
      R"({"service":"app","message":"one-off oddity xyz"})" "\n";
  ASSERT_EQ(run_cli({"analyze", "--db", db}, stream).code, 0);
  const CliResult purge =
      run_cli({"purge", "--db", db, "--below", "2"});
  EXPECT_EQ(purge.code, 0);
  EXPECT_NE(purge.out.find("purged 1 pattern"), std::string::npos)
      << purge.out;
  std::remove(db.c_str());
}

TEST(Cli, ValidateCleanDatabase) {
  const std::string db = temp_db("seqrtg_cli_validate.db");
  std::remove(db.c_str());
  const std::string stream =
      R"({"service":"app","message":"alpha beta 1"})" "\n"
      R"({"service":"app","message":"alpha beta 2"})" "\n";
  ASSERT_EQ(run_cli({"analyze", "--db", db}, stream).code, 0);
  const CliResult validate = run_cli({"validate", "--db", db});
  EXPECT_EQ(validate.code, 0);
  EXPECT_NE(validate.out.find("clean"), std::string::npos);
  std::remove(db.c_str());
}

TEST(Cli, CompactEvictsStalePatternsAndHonoursDryRun) {
  const std::string db = temp_db("seqrtg_cli_compact.db");
  std::remove(db.c_str());
  const std::string stream =
      R"({"service":"app","message":"alpha beta 1"})" "\n"
      R"({"service":"app","message":"alpha beta 2"})" "\n";
  ASSERT_EQ(run_cli({"analyze", "--db", db}, stream).code, 0);

  // A far-future --now makes every pattern TTL-stale. The dry run reports
  // the evictions but must leave the store untouched.
  const CliResult dry =
      run_cli({"compact", "--db", db, "--ttl-days", "7", "--now",
               "4102444800", "--dry-run"});
  EXPECT_EQ(dry.code, 0) << dry.err;
  EXPECT_NE(dry.out.find("EVICT"), std::string::npos) << dry.out;
  EXPECT_NE(dry.out.find("dry run: store not modified"), std::string::npos);
  const CliResult still_there = run_cli({"parse", "--db", db},
                                        R"({"service":"app","message":"alpha beta 3"})" "\n");
  EXPECT_EQ(still_there.code, 0) << "dry run modified the store";

  const CliResult real =
      run_cli({"compact", "--db", db, "--ttl-days", "7", "--now",
               "4102444800"});
  EXPECT_EQ(real.code, 0) << real.err;
  EXPECT_NE(real.out.find("-> 0 patterns"), std::string::npos) << real.out;
  EXPECT_NE(real.out.find("1 service(s) rewritten"), std::string::npos)
      << real.out;

  // Idempotent once empty.
  const CliResult again = run_cli({"compact", "--db", db});
  EXPECT_EQ(again.code, 0);
  EXPECT_NE(again.out.find("compact: 0 -> 0"), std::string::npos)
      << again.out;
  std::remove(db.c_str());
}

TEST(Cli, ImportRoundTrip) {
  const std::string db = temp_db("seqrtg_cli_import_src.db");
  const std::string db2 = temp_db("seqrtg_cli_import_dst.db");
  std::remove(db.c_str());
  std::remove(db2.c_str());

  const CliResult stream =
      run_cli({"generate", "--services", "6", "--count", "2000"});
  ASSERT_EQ(run_cli({"analyze", "--db", db, "--save-threshold", "2"},
                    stream.out)
                .code,
            0);
  const CliResult xml =
      run_cli({"export", "--db", db, "--min-count", "3"});
  ASSERT_EQ(xml.code, 0);

  const CliResult import = run_cli({"import", "--db", db2}, xml.out);
  ASSERT_EQ(import.code, 0) << import.err;
  EXPECT_NE(import.out.find("imported"), std::string::npos);

  // The imported database parses the original stream (within the export
  // filter's coverage).
  const CliResult parse =
      run_cli({"parse", "--db", db2, "--quiet"}, stream.out);
  ASSERT_EQ(parse.code, 0);
  const std::size_t matched_pos = parse.out.find(" matched");
  ASSERT_NE(matched_pos, std::string::npos);
  const long matched =
      std::strtol(parse.out.c_str(), nullptr, 10);
  EXPECT_GT(matched, 1500) << parse.out;

  std::remove(db.c_str());
  std::remove(db2.c_str());
}

TEST(Cli, ImportMalformedXmlFails) {
  const CliResult r =
      run_cli({"import", "--db", temp_db("seqrtg_cli_imp_bad.db")},
              "<not-patterndb/>");
  EXPECT_EQ(r.code, 1);
}

TEST(Cli, ParseMissingDbFails) {
  const CliResult r =
      run_cli({"parse", "--db", "/nonexistent/none.db"});
  EXPECT_EQ(r.code, 1);
}

TEST(Cli, SimulateRunsAndReportsDays) {
  const CliResult r = run_cli(
      {"simulate", "--days", "2", "--messages-per-day", "2000", "--batch",
       "500", "--services", "10"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("unmatched%"), std::string::npos);
  EXPECT_NE(r.out.find("simulated 2 day(s)"), std::string::npos) << r.out;
}

TEST(Cli, MetricsOutWritesPrometheusSnapshot) {
  const std::string metrics = temp_db("seqrtg_cli_metrics.prom");
  std::remove(metrics.c_str());
  const CliResult r = run_cli(
      {"simulate", "--days", "1", "--messages-per-day", "1000", "--batch",
       "500", "--services", "8", "--quiet", "--metrics-out", metrics});
  ASSERT_EQ(r.code, 0) << r.err;

  std::ifstream in(metrics);
  ASSERT_TRUE(in.good()) << metrics;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  // The full hot path reported into the default registry.
  EXPECT_NE(text.find("# TYPE seqrtg_sim_days_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("seqrtg_scanner_messages_total"), std::string::npos);
  EXPECT_NE(text.find("seqrtg_engine_phase_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(text.find("phase=\"trie_analysis\""), std::string::npos);
  EXPECT_NE(text.find("seqrtg_sim_unmatched_pct"), std::string::npos);
  std::remove(metrics.c_str());
}

TEST(Cli, MetricsOutJsonByExtension) {
  const std::string metrics = temp_db("seqrtg_cli_metrics.json");
  std::remove(metrics.c_str());
  const std::string stream =
      R"({"service":"app","message":"tick 1 ok"})" "\n"
      R"({"service":"app","message":"tick 2 ok"})" "\n";
  const std::string db = temp_db("seqrtg_cli_metrics.db");
  std::remove(db.c_str());
  const CliResult r = run_cli(
      {"analyze", "--db", db, "--metrics-out", metrics}, stream);
  ASSERT_EQ(r.code, 0) << r.err;
  std::ifstream in(metrics);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"metrics\":"), std::string::npos);
  std::remove(metrics.c_str());
  std::remove(db.c_str());
}

TEST(Cli, MetricsBadFormatIsUsageError) {
  const CliResult r = run_cli(
      {"simulate", "--days", "1", "--messages-per-day", "500", "--batch",
       "500", "--services", "4", "--quiet", "--metrics-out",
       temp_db("seqrtg_cli_metrics_bad.out"), "--metrics-format", "xml"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("metrics"), std::string::npos) << r.err;
}

TEST(Cli, StatsTelemetryPrintsExposition) {
  const std::string db = temp_db("seqrtg_cli_stats_tel.db");
  std::remove(db.c_str());
  const std::string stream =
      R"({"service":"app","message":"ping 1"})" "\n"
      R"({"service":"app","message":"ping 2"})" "\n";
  ASSERT_EQ(run_cli({"analyze", "--db", db}, stream).code, 0);
  const CliResult r = run_cli({"stats", "--db", db, "--telemetry"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("# TYPE seqrtg_scanner_messages_total counter"),
            std::string::npos);
  EXPECT_NE(r.out.find("seqrtg_repo_ops_total"), std::string::npos);
  std::remove(db.c_str());
}

TEST(Cli, AnalyzeAcceptsEngineFlags) {
  const std::string db = temp_db("seqrtg_cli_flags.db");
  std::remove(db.c_str());
  const std::string stream =
      R"({"service":"app","message":"at 20171224-0:7:20:444 step 5"})" "\n";
  const CliResult r = run_cli(
      {"analyze", "--db", db, "--lenient-time", "--merge-mixed-alnum",
       "--semi-constant-split", "--no-path-fsm"},
      stream);
  EXPECT_EQ(r.code, 0) << r.err;
  std::remove(db.c_str());
}

}  // namespace
}  // namespace seqrtg::cli
