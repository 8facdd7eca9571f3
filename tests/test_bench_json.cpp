// The bench-harness JSON stack: Json dump/parse round trips, escaping,
// BenchRecorder document structure (per-trial records, summaries), and the
// bench_compare gate: exact on every metric not declared wall.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "atlc/clampi/config.hpp"
#include "atlc/rma/comm_stats.hpp"
#include "atlc/util/bench_compare.hpp"
#include "atlc/util/json.hpp"
#include "atlc/util/recorder.hpp"
#include "atlc/util/table.hpp"
#include "test_support.hpp"

namespace {

using atlc::util::BenchRecorder;
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

BenchRecorder make_recorder(double trial1, double trial2) {
  BenchRecorder rec("fig_test", "Fig. T", "unit-test scenario");
  rec.meta()["seed"] = 0;
  rec.declare_metric("makespan/x", {.unit = "s"});
  Json detail = Json::object();
  detail["comm"] = atlc::util::to_json(atlc::rma::CommStats{});
  detail["adj_cache"] = atlc::util::to_json(atlc::clampi::CacheStats{});
  rec.add_trial("makespan/x", trial1, detail);
  rec.add_trial("makespan/x", trial2, std::move(detail));
  return rec;
}

TEST(BenchRecorder, EmitsSchemaWithTrialsAndSummaries) {
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
  EXPECT_EQ(metric->find("unit")->as_string(), "s");
  EXPECT_FALSE(metric->find("wall")->as_bool());
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
  EXPECT_EQ(doc->find("tables")->at(0).find("title")->as_string(), "demo");
  EXPECT_EQ(doc->find("notes")->at(0).as_string(), "a note");
}

TEST(BenchRecorder, MedianOfDisagreeingTrials) {
  auto rec = make_recorder(1.0, 1.5);
  const Json& doc = rec.finalize();
  const Json* metric = doc.find("metrics")->find("makespan/x");
  EXPECT_EQ(metric->find("median")->as_number(), 1.25);
}

TEST(Json, RejectsMutationOfScalars) {
  Json s = Json("a string");
  EXPECT_THROW(s["key"] = 1, std::logic_error);
  EXPECT_THROW(s.push_back(Json(1)), std::logic_error);
}

TEST(BenchRecorder, RejectsMetricWithoutUnit) {
  atlc::testsupport::use_threadsafe_death_tests();
  BenchRecorder rec("s", "a", "t");
  EXPECT_DEATH(rec.declare_metric("makespan/x", {}), "unit");
  EXPECT_DEATH(rec.add_trial("undeclared", 1.0), "undeclared");
}

// Gate fixtures: one exact metric whose trials carry a comm and an
// adj_cache counter block, one wall metric, and optionally one extra exact
// metric.
struct Trial {
  double value = 2.0;
  std::uint64_t hits = 5;
  bool drop_hits = false;  ///< omit adj_cache.hits from the record
};

Json gate_doc(const std::vector<Trial>& trials, double wall = 1.0,
              const char* extra_metric = nullptr) {
  BenchRecorder rec("fig_test", "Fig. T", "unit-test scenario");
  rec.declare_metric("makespan/x", {.unit = "s"});
  for (const Trial& t : trials) {
    atlc::clampi::CacheStats cs;
    cs.hits = t.hits;
    Json adj = atlc::util::to_json(cs);
    if (t.drop_hits)
      std::erase_if(adj.items(),
                    [](const auto& kv) { return kv.first == "hits"; });
    Json detail = Json::object();
    detail["comm"] = atlc::util::to_json(atlc::rma::CommStats{});
    detail["adj_cache"] = std::move(adj);
    rec.add_trial("makespan/x", t.value, std::move(detail));
  }
  rec.declare_metric("wall/parse_s", {.unit = "s", .wall = true});
  rec.add_trial("wall/parse_s", wall);
  if (extra_metric) {
    rec.declare_metric(extra_metric, {.unit = "count"});
    rec.add_trial(extra_metric, 7.0);
  }
  // The gate reads files; take the documents through the same round trip.
  return *Json::parse(rec.finalize().dump(2));
}

bool gate_passes(const Json& base, const Json& cur) {
  return compare_bench_runs(base, cur).ok;
}

TEST(BenchCompare, IdenticalDocumentsPassWhateverTheTrialCount) {
  const Json base = gate_doc({{}, {}});
  const auto report = compare_bench_runs(base, gate_doc({{}, {}}));
  EXPECT_TRUE(report.ok);
  ASSERT_EQ(report.metrics.size(), 2u);
  for (const auto& m : report.metrics) EXPECT_FALSE(m.regressed) << m.name;
  // Each current trial is held against the baseline's first trial.
  EXPECT_TRUE(gate_passes(base, gate_doc({{}})));
  EXPECT_TRUE(gate_passes(base, gate_doc({{}, {}, {}})));
}

TEST(BenchCompare, OneTrialValueChangeFails) {
  const Json base = gate_doc({{}, {}});
  // One ulp, either way, fails.
  for (const double moved :
       {std::nextafter(2.0, 3.0), std::nextafter(2.0, 1.0)}) {
    const auto report =
        compare_bench_runs(base, gate_doc({{}, {.value = moved}}));
    EXPECT_FALSE(report.ok) << moved;
    ASSERT_EQ(report.metrics.size(), 2u);
    EXPECT_TRUE(report.metrics[0].regressed);
    EXPECT_FALSE(report.notes.empty());
  }
}

TEST(BenchCompare, OneCacheCounterChangeFails) {
  const Json base = gate_doc({{}, {}});
  const auto report = compare_bench_runs(base, gate_doc({{}, {.hits = 6}}));
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.notes.empty());
  EXPECT_NE(report.notes[0].find("adj_cache.hits"), std::string::npos)
      << report.notes[0];
}

TEST(BenchCompare, CounterKeyOnOneSideOnlyFails) {
  const Json with = gate_doc({{}, {}});
  const Json without = gate_doc({{.drop_hits = true}, {.drop_hits = true}});
  EXPECT_FALSE(gate_passes(with, without));
  EXPECT_FALSE(gate_passes(without, with));
}

TEST(BenchCompare, TrialsDisagreeingWithinADocumentFail) {
  const Json agree = gate_doc({{}, {}});
  const Json disagree = gate_doc({{}, {.value = 2.5}});
  EXPECT_FALSE(gate_passes(agree, disagree));
  EXPECT_FALSE(gate_passes(disagree, agree));
  EXPECT_FALSE(gate_passes(disagree, disagree));
}

TEST(BenchCompare, DisappearedMetricFails) {
  const auto report =
      compare_bench_runs(gate_doc({{}}, 1.0, "det/extra"), gate_doc({{}}));
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.metrics.size(), 3u);
  EXPECT_TRUE(report.metrics[2].regressed);
}

TEST(BenchCompare, ZeroToOneBitFails) {
  // A 0 baseline gates like any other value.
  const Json zero = gate_doc({{.value = 0.0}});
  const Json one = gate_doc({{.value = 1.0}});
  EXPECT_FALSE(gate_passes(zero, one));
  EXPECT_FALSE(gate_passes(one, zero));
}

TEST(BenchCompare, NewMetricIsNotedAndPasses) {
  const auto report =
      compare_bench_runs(gate_doc({{}}), gate_doc({{}}, 1.0, "det/extra"));
  EXPECT_TRUE(report.ok);
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("det/extra"), std::string::npos);
}

TEST(BenchCompare, WallMetricIsReportedNeverFails) {
  const auto report =
      compare_bench_runs(gate_doc({{}}, 1.0), gate_doc({{}}, 10.0));
  EXPECT_TRUE(report.ok);
  ASSERT_EQ(report.metrics.size(), 2u);
  EXPECT_TRUE(report.metrics[1].wall);
  EXPECT_FALSE(report.metrics[1].regressed);
  EXPECT_EQ(report.metrics[1].baseline, 1.0);
  EXPECT_EQ(report.metrics[1].current, 10.0);
}

void expect_refused(const Json& base, const Json& cur, const char* why) {
  try {
    (void)compare_bench_runs(base, cur);
    ADD_FAILURE() << "compared documents that are not comparable: " << why;
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("atlc: ", 0), 0u) << e.what();
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
  }
}

TEST(BenchCompare, RefusesSchemaVersionMismatch) {
  const Json base = gate_doc({{}});
  Json old = base;
  old["schema_version"] = BenchRecorder::kSchemaVersion - 1;
  expect_refused(old, base, "schema_version");
  expect_refused(base, old, "schema_version");
}

TEST(BenchCompare, RefusesCalibratedCostDocument) {
  const Json base = gate_doc({{}});
  Json calibrated = base;
  calibrated["meta"]["calibrated_cost"] = true;
  expect_refused(base, calibrated, "calibrated");
  expect_refused(calibrated, base, "calibrated");
  Json fixed = base;
  fixed["meta"]["calibrated_cost"] = false;
  EXPECT_TRUE(gate_passes(base, fixed));
}

TEST(BenchCompare, RefusesScenarioMismatch) {
  BenchRecorder a("fig1", "x", "t"), b("fig2", "x", "t");
  expect_refused(a.finalize(), b.finalize(), "scenario");
}

}  // namespace
