// The bench-harness JSON stack: Json dump/parse round trips, escaping,
// BenchRecorder document structure (per-trial records, summaries,
// determinism verdicts), and the bench_compare regression gate.
#include <gtest/gtest.h>

#include "atlc/clampi/config.hpp"
#include "atlc/rma/comm_stats.hpp"
#include "atlc/util/bench_compare.hpp"
#include "atlc/util/json.hpp"
#include "atlc/util/recorder.hpp"
#include "atlc/util/table.hpp"
#include "test_support.hpp"

namespace {

using atlc::util::BenchRecorder;
using atlc::util::CompareOptions;
using atlc::util::Json;
using atlc::util::compare_bench_runs;

TEST(Json, ScalarRoundTrip) {
  for (const char* text :
       {"null", "true", "false", "0", "-3", "12.5", "\"hi\"", "[]", "{}"}) {
    std::string error;
    auto parsed = Json::parse(text, &error);
    ASSERT_TRUE(parsed.has_value()) << text << ": " << error;
    EXPECT_EQ(parsed->dump(0), text);
  }
}

TEST(Json, NestedRoundTripPreservesStructureAndOrder) {
  Json doc = Json::object();
  doc["zeta"] = 1;            // insertion order, not alphabetical
  doc["alpha"] = Json::array();
  doc["alpha"].push_back(Json(1.5));
  doc["alpha"].push_back(Json("two"));
  Json inner = Json::object();
  inner["deep"] = true;
  doc["alpha"].push_back(std::move(inner));
  doc["empty_arr"] = Json::array();
  doc["empty_obj"] = Json::object();

  for (int indent : {0, 2}) {
    auto parsed = Json::parse(doc.dump(indent));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->dump(0), doc.dump(0));
  }
  // First key stays first: emitted files diff cleanly.
  EXPECT_EQ(doc.items().front().first, "zeta");
}

TEST(Json, StringEscaping) {
  const std::string nasty = "quote\" slash\\ tab\t nl\n cr\r ctrl\x01 end";
  Json doc = Json::object();
  doc[nasty] = nasty;
  auto parsed = Json::parse(doc.dump(2));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_NE(parsed->find(nasty), nullptr);
  EXPECT_EQ(parsed->find(nasty)->as_string(), nasty);
  // The wire form never carries a raw control character.
  for (char c : doc.dump(0))
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\0') << int(c);
}

TEST(Json, UnicodeEscapes) {
  auto parsed = Json::parse("\"a\\u00e9b\\ud83d\\ude00c\"");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), "a\xc3\xa9"
                                 "b\xf0\x9f\x98\x80"
                                 "c");
  EXPECT_FALSE(Json::parse("\"\\ud83d\"").has_value());  // lone surrogate
}

TEST(Json, ParseErrors) {
  std::string error;
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "01x", "\"unterminated",
                          "nul", "[1] trailing"}) {
    error.clear();
    EXPECT_FALSE(Json::parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(Json, LargeIntegersStayIntegral) {
  Json j = Json(std::uint64_t{123456789012});
  EXPECT_EQ(j.dump(0), "123456789012");
}

BenchRecorder make_recorder(double trial1, double trial2, bool gate = true) {
  BenchRecorder rec("fig_test", "Fig. T", "unit-test scenario");
  rec.meta()["seed"] = 0;
  rec.declare_metric("makespan/x", {.unit = "s", .gate = gate});
  Json detail = Json::object();
  detail["comm"] = atlc::util::to_json(atlc::rma::CommStats{});
  detail["adj_cache"] = atlc::util::to_json(atlc::clampi::CacheStats{});
  rec.add_trial("makespan/x", trial1, std::move(detail));
  rec.add_trial("makespan/x", trial2);
  return rec;
}

TEST(BenchRecorder, EmitsSchemaWithTrialsSummariesAndDeterminism) {
  auto rec = make_recorder(2.0, 2.0);
  atlc::util::Table t({"a", "b"});
  t.add_row({"1", "2"});
  rec.add_table("demo", t);
  rec.add_note("a note");

  std::string error;
  auto doc = Json::parse(rec.finalize().dump(2), &error);
  ASSERT_TRUE(doc.has_value()) << error;

  EXPECT_EQ(doc->find("schema_version")->as_number(),
            BenchRecorder::kSchemaVersion);
  EXPECT_EQ(doc->find("scenario")->as_string(), "fig_test");
  const Json* metric = doc->find("metrics")->find("makespan/x");
  ASSERT_NE(metric, nullptr);
  EXPECT_TRUE(metric->find("gate")->as_bool());
  ASSERT_EQ(metric->find("trials")->size(), 2u);
  const Json& trial = metric->find("trials")->at(0);
  EXPECT_EQ(trial.find("value")->as_number(), 2.0);
  // Per-trial CommStats and CacheStats payloads survive the round trip.
  ASSERT_NE(trial.find("comm"), nullptr);
  EXPECT_EQ(trial.find("comm")->find("remote_gets")->as_number(), 0.0);
  ASSERT_NE(trial.find("adj_cache"), nullptr);
  EXPECT_EQ(trial.find("adj_cache")->find("hits")->as_number(), 0.0);
  EXPECT_EQ(metric->find("median")->as_number(), 2.0);
  EXPECT_EQ(metric->find("summary")->find("n")->as_number(), 2.0);
  EXPECT_TRUE(metric->find("deterministic")->as_bool());
  EXPECT_EQ(doc->find("tables")->at(0).find("title")->as_string(), "demo");
  EXPECT_EQ(doc->find("notes")->at(0).as_string(), "a note");
}

TEST(BenchRecorder, FlagsNonDeterministicTrials) {
  auto rec = make_recorder(1.0, 1.5);
  const Json& doc = rec.finalize();
  const Json* metric = doc.find("metrics")->find("makespan/x");
  EXPECT_FALSE(metric->find("deterministic")->as_bool());
  EXPECT_EQ(metric->find("median")->as_number(), 1.25);
}

TEST(BenchCompare, PassesWithinToleranceAndDetectsRegression) {
  auto base = make_recorder(1.0, 1.0);
  auto same = make_recorder(1.1, 1.1);
  auto worse = make_recorder(1.5, 1.5);

  const auto ok = compare_bench_runs(base.finalize(), same.finalize(),
                                     {.tolerance = 0.25});
  EXPECT_TRUE(ok.ok);
  ASSERT_EQ(ok.metrics.size(), 1u);
  EXPECT_FALSE(ok.metrics[0].regressed);
  EXPECT_NEAR(ok.metrics[0].ratio, 1.1, 1e-9);

  const auto bad = compare_bench_runs(base.finalize(), worse.finalize(),
                                      {.tolerance = 0.25});
  EXPECT_FALSE(bad.ok);
  ASSERT_EQ(bad.metrics.size(), 1u);
  EXPECT_TRUE(bad.metrics[0].regressed);
}

TEST(Json, RejectsMutationOfScalars) {
  Json s = Json("a string");
  EXPECT_THROW(s["key"] = 1, std::logic_error);
  EXPECT_THROW(s.push_back(Json(1)), std::logic_error);
}

TEST(BenchCompare, CollapsedHigherIsBetterMetricStillGates) {
  BenchRecorder base("s", "a", "t"), cur("s", "a", "t");
  const BenchRecorder::MetricOptions opts{
      .unit = "edges/us", .direction = "higher", .gate = true};
  base.declare_metric("throughput", opts);
  cur.declare_metric("throughput", opts);
  base.add_trial("throughput", 100.0);
  cur.add_trial("throughput", 0.0);  // total collapse must not pass the gate
  const auto report = compare_bench_runs(base.finalize(), cur.finalize(), {});
  EXPECT_FALSE(report.ok);
}

TEST(BenchCompare, HigherIsBetterDirection) {
  BenchRecorder base("s", "a", "t"), cur("s", "a", "t");
  base.declare_metric("throughput",
                      {.unit = "edges/us", .direction = "higher", .gate = true});
  cur.declare_metric("throughput",
                     {.unit = "edges/us", .direction = "higher", .gate = true});
  base.add_trial("throughput", 100.0);
  cur.add_trial("throughput", 60.0);  // 40% drop on a higher-is-better metric
  const auto report = compare_bench_runs(base.finalize(), cur.finalize(),
                                         {.tolerance = 0.25});
  EXPECT_FALSE(report.ok);
}

TEST(BenchCompare, ExactMetricFailsOnAnyChangeAtAnyTolerance) {
  // det/* counts and checksums: a move either way must fail, even at the
  // CI tolerance of 1.0 (where "higher" could never fail: x < base * 0).
  const auto doc = [](double value) {
    BenchRecorder rec("ingest", "a", "t");
    rec.declare_metric("det/num_edges",
                       {.unit = "count", .direction = "exact", .gate = true});
    rec.add_trial("det/num_edges", value);
    return rec;
  };
  auto base = doc(1000.0);
  for (const double moved : {999.0, 1001.0}) {
    auto cur = doc(moved);
    const auto report = compare_bench_runs(base.finalize(), cur.finalize(),
                                           {.tolerance = 1.0});
    EXPECT_FALSE(report.ok) << moved;
    ASSERT_EQ(report.metrics.size(), 1u);
    EXPECT_TRUE(report.metrics[0].regressed) << moved;
  }
  auto same = doc(1000.0);
  EXPECT_TRUE(
      compare_bench_runs(base.finalize(), same.finalize(), {.tolerance = 1.0})
          .ok);
  // A 0/1 equivalence bit sits below the noise floor when it is 0; exact
  // metrics gate anyway.
  auto zero = doc(0.0), one = doc(1.0);
  EXPECT_FALSE(
      compare_bench_runs(zero.finalize(), one.finalize(), {.tolerance = 1.0})
          .ok);
}

TEST(BenchRecorder, RejectsMetricWithoutUnit) {
  atlc::testsupport::use_threadsafe_death_tests();
  BenchRecorder rec("s", "a", "t");
  EXPECT_DEATH(rec.declare_metric("makespan/x", {.gate = true}), "unit");
  EXPECT_DEATH(rec.add_trial("undeclared", 1.0), "undeclared");
}

TEST(BenchCompare, UngatedMetricsNeverFail) {
  auto base = make_recorder(1.0, 1.0, /*gate=*/false);
  auto worse = make_recorder(9.0, 9.0, /*gate=*/false);
  const auto gated_only =
      compare_bench_runs(base.finalize(), worse.finalize(), {});
  EXPECT_TRUE(gated_only.ok);
  EXPECT_TRUE(gated_only.metrics.empty());

  const auto all = compare_bench_runs(base.finalize(), worse.finalize(),
                                      {.gated_only = false});
  EXPECT_TRUE(all.ok);  // reported but not failing
  ASSERT_EQ(all.metrics.size(), 1u);
  EXPECT_FALSE(all.metrics[0].regressed);
}

TEST(BenchCompare, ScenarioMismatchAndMissingMetrics) {
  BenchRecorder a("fig1", "x", "t"), b("fig2", "x", "t");
  const auto mismatch = compare_bench_runs(a.finalize(), b.finalize(), {});
  EXPECT_FALSE(mismatch.ok);
  EXPECT_FALSE(mismatch.notes.empty());

  // A brand-new gated metric must not fail against an old baseline.
  BenchRecorder old_doc("s", "x", "t"), new_doc("s", "x", "t");
  new_doc.declare_metric("makespan/new", {.unit = "s", .gate = true});
  new_doc.add_trial("makespan/new", 1.0);
  const auto added =
      compare_bench_runs(old_doc.finalize(), new_doc.finalize(), {});
  EXPECT_TRUE(added.ok);
  EXPECT_FALSE(added.notes.empty());

  // But a gated metric disappearing is noted too.
  const auto removed =
      compare_bench_runs(new_doc.finalize(), old_doc.finalize(), {});
  EXPECT_TRUE(removed.ok);
  EXPECT_FALSE(removed.notes.empty());
}

}  // namespace
