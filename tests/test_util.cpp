// Unit tests for atlc::util — statistics, RNG, recorder, CLI, table.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "atlc/util/cli.hpp"
#include "atlc/util/recorder.hpp"
#include "atlc/util/rng.hpp"
#include "atlc/util/stats.hpp"
#include "atlc/util/table.hpp"
#include "atlc/util/timer.hpp"

namespace atlc::util {
namespace {

// ---------------------------------------------------------------- stats ---

TEST(Stats, MedianOdd) {
  const std::vector<double> s{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(median(s), 2.0);
}

TEST(Stats, MedianEven) {
  const std::vector<double> s{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(s), 2.5);
}

TEST(Stats, MedianSingle) {
  const std::vector<double> s{42.0};
  EXPECT_DOUBLE_EQ(median(s), 42.0);
}

TEST(Stats, MedianThrowsOnEmpty) {
  EXPECT_THROW((void)median({}), std::invalid_argument);
}

TEST(Stats, SummaryBasics) {
  const std::vector<double> s{1.0, 2.0, 3.0, 4.0, 5.0};
  const Summary sum = summarize(s);
  EXPECT_EQ(sum.n, 5u);
  EXPECT_DOUBLE_EQ(sum.min, 1.0);
  EXPECT_DOUBLE_EQ(sum.max, 5.0);
  EXPECT_DOUBLE_EQ(sum.mean, 3.0);
  EXPECT_DOUBLE_EQ(sum.median, 3.0);
  EXPECT_NEAR(sum.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Stats, PercentileEndpoints) {
  const std::vector<double> s{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(s, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(s, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(s, 50.0), 25.0);
}

TEST(Stats, PercentileRejectsBadP) {
  const std::vector<double> s{1.0};
  EXPECT_THROW((void)percentile(s, -1.0), std::invalid_argument);
  EXPECT_THROW((void)percentile(s, 101.0), std::invalid_argument);
}

TEST(Stats, QuantileFunctionsRejectEmptySample) {
  EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW((void)median_ci95({}), std::invalid_argument);
  EXPECT_THROW((void)summarize({}), std::invalid_argument);
}

TEST(Stats, PercentileSingleElementIsConstant) {
  const std::vector<double> s{7.5};
  for (double p : {0.0, 25.0, 50.0, 99.9, 100.0})
    EXPECT_DOUBLE_EQ(percentile(s, p), 7.5) << "p=" << p;
}

TEST(Stats, MedianCiSmallSampleSpansRange) {
  // Fewer than 6 samples: the order-statistic bounds degrade to [min, max].
  const std::vector<double> s{3.0, 1.0, 2.0};
  const auto [lo, hi] = median_ci95(s);
  EXPECT_DOUBLE_EQ(lo, 1.0);
  EXPECT_DOUBLE_EQ(hi, 3.0);
}

TEST(Stats, SummarySingleElement) {
  const Summary sum = summarize(std::vector<double>{4.0});
  EXPECT_EQ(sum.n, 1u);
  EXPECT_DOUBLE_EQ(sum.median, 4.0);
  EXPECT_DOUBLE_EQ(sum.stddev, 0.0);
  EXPECT_DOUBLE_EQ(sum.ci95_lo, 4.0);
  EXPECT_DOUBLE_EQ(sum.ci95_hi, 4.0);
}

TEST(Stats, HistogramRejectsEmptyOrZeroBins) {
  EXPECT_THROW((void)histogram({}, 4), std::invalid_argument);
  EXPECT_THROW((void)histogram(std::vector<double>{1.0}, 0),
               std::invalid_argument);
}

TEST(Stats, HistogramConstantSampleFillsFirstBucket) {
  const std::vector<double> s{2.0, 2.0, 2.0};
  const Histogram h = histogram(s, 4);
  EXPECT_EQ(h.counts[0], 3u);
  for (std::size_t b = 1; b < h.counts.size(); ++b) EXPECT_EQ(h.counts[b], 0u);
}

TEST(Stats, CiCoversMedianForStableSample) {
  std::vector<double> s(100, 5.0);
  const Summary sum = summarize(s);
  EXPECT_LE(sum.ci95_lo, sum.median);
  EXPECT_GE(sum.ci95_hi, sum.median);
  EXPECT_TRUE(sum.ci_within_fraction_of_median(0.05));
}

TEST(Stats, CiWideForNoisySample) {
  // Alternate tiny/huge values: the median CI cannot be tight.
  std::vector<double> s;
  for (int i = 0; i < 20; ++i) s.push_back(i % 2 ? 1.0 : 100.0);
  const Summary sum = summarize(s);
  EXPECT_FALSE(sum.ci_within_fraction_of_median(0.05));
}

TEST(Stats, HistogramCountsAllSamples) {
  const std::vector<double> s{0.0, 0.1, 0.5, 0.9, 1.0};
  const Histogram h = histogram(s, 2);
  std::size_t total = 0;
  for (auto c : h.counts) total += c;
  EXPECT_EQ(total, s.size());
  EXPECT_DOUBLE_EQ(h.lo, 0.0);
  EXPECT_DOUBLE_EQ(h.hi, 1.0);
}

TEST(Stats, HistogramMaxValueInLastBucket) {
  const std::vector<double> s{0.0, 1.0};
  const Histogram h = histogram(s, 4);
  EXPECT_EQ(h.counts.front(), 1u);
  EXPECT_EQ(h.counts.back(), 1u);
}

TEST(Stats, LogHistogramRejectsBadRangeOrZeroBins) {
  EXPECT_THROW((void)LogHistogram::make(0.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW((void)LogHistogram::make(2.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW((void)LogHistogram::make(1.0, 2.0, 0), std::invalid_argument);
}

TEST(Stats, LogHistogramEmptySampleSerializable) {
  // Empty sample: zero-count buckets over [1, 2) so callers can serialize
  // unconditionally.
  const LogHistogram h = log_histogram({}, 4);
  EXPECT_DOUBLE_EQ(h.lo, 1.0);
  EXPECT_DOUBLE_EQ(h.hi, 2.0);
  EXPECT_EQ(h.counts.size(), 4u);
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.underflow, 0u);
  EXPECT_EQ(h.overflow, 0u);
}

TEST(Stats, LogHistogramSingleElement) {
  // A single positive value must land in a bucket, not over/underflow,
  // even though min == max degenerates the range.
  const std::vector<double> s{3.5};
  const LogHistogram h = log_histogram(s, 8);
  EXPECT_EQ(h.underflow, 0u);
  EXPECT_EQ(h.overflow, 0u);
  std::size_t in_buckets = 0;
  for (auto c : h.counts) in_buckets += c;
  EXPECT_EQ(in_buckets, 1u);
  EXPECT_EQ(h.total(), 1u);
}

TEST(Stats, LogHistogramOverflowUnderflowBuckets) {
  LogHistogram h = LogHistogram::make(1e-6, 1.0, 6);
  h.add(1e-9);   // below lo
  h.add(-3.0);   // non-positive
  h.add(5.0);    // >= hi
  h.add(1e-3);   // mid-range
  EXPECT_EQ(h.underflow, 2u);
  EXPECT_EQ(h.overflow, 1u);
  std::size_t in_buckets = 0;
  for (auto c : h.counts) in_buckets += c;
  EXPECT_EQ(in_buckets, 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Stats, LogHistogramEdgesAreLogSpaced) {
  const LogHistogram h = LogHistogram::make(1.0, 1024.0, 10);
  // base = (1024/1)^(1/10) = 2: edges double every bucket.
  EXPECT_NEAR(h.base, 2.0, 1e-12);
  for (std::size_t i = 0; i + 1 <= 10; ++i)
    EXPECT_NEAR(h.edge(i), std::pow(2.0, static_cast<double>(i)), 1e-9);
  // Values route to the bucket whose [edge(i), edge(i+1)) contains them.
  LogHistogram g = h;
  g.add(1.0);
  g.add(3.0);
  g.add(1000.0);
  EXPECT_EQ(g.counts[0], 1u);
  EXPECT_EQ(g.counts[1], 1u);
  EXPECT_EQ(g.counts[9], 1u);
}

TEST(Stats, LogHistogramSpansSampleRange) {
  // The convenience builder keeps every positive sample inside the
  // buckets: max is nudged into the last bucket, not overflow.
  const std::vector<double> s{1e-6, 1e-4, 1e-2, 1.0};
  const LogHistogram h = log_histogram(s, 12);
  EXPECT_EQ(h.underflow, 0u);
  EXPECT_EQ(h.overflow, 0u);
  std::size_t in_buckets = 0;
  for (auto c : h.counts) in_buckets += c;
  EXPECT_EQ(in_buckets, s.size());
}

// ------------------------------------------------------------------ rng ---

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextBelowCoversRange) {
  Xoshiro256 rng(1);
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 1000; ++i) ++seen[rng.next_below(8)];
  for (int c : seen) EXPECT_GT(c, 0);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Xoshiro256 rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.next_bool(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(mix64(1, 2), mix64(1, 2));
  EXPECT_NE(mix64(1, 2), mix64(2, 1));
  EXPECT_NE(mix64(1), mix64(2));
}

// ------------------------------------------------------------- recorder ---

TEST(Recorder, StopsAfterConvergence) {
  Recorder rec({.min_reps = 5, .max_reps = 50, .ci_fraction = 0.5});
  const Summary s = rec.run_until_ci([] {});
  EXPECT_GE(s.n, 5u);
  EXPECT_LE(s.n, 50u);
}

TEST(Recorder, HonorsMaxReps) {
  // A deliberately noisy target can never converge; the cap must bite.
  Recorder rec({.min_reps = 3, .max_reps = 7, .ci_fraction = 1e-9});
  int calls = 0;
  (void)rec.run_until_ci([&] {
    volatile double x = 0;
    for (int i = 0; i < (calls % 2 ? 100000 : 10); ++i) x = x + i;
    ++calls;
  });
  EXPECT_EQ(rec.samples().size(), 7u);
}

TEST(Recorder, NotConvergedBeforeMinReps) {
  Recorder rec({.min_reps = 5, .max_reps = 10, .ci_fraction = 0.5});
  rec.add_sample(1.0);
  rec.add_sample(1.0);
  EXPECT_FALSE(rec.converged());
}

TEST(Recorder, ClearResetsSamples) {
  Recorder rec;
  rec.add_sample(1.0);
  rec.clear();
  EXPECT_TRUE(rec.samples().empty());
  EXPECT_THROW((void)rec.summary(), std::invalid_argument);
}

TEST(Recorder, ExternalSamples) {
  Recorder rec({.min_reps = 3, .max_reps = 10, .ci_fraction = 0.05});
  for (int i = 0; i < 8; ++i) rec.add_sample(1.0);
  EXPECT_TRUE(rec.converged());
  EXPECT_DOUBLE_EQ(rec.summary().median, 1.0);
}

// ------------------------------------------------------------------ cli ---

TEST(Cli, DefaultsSurviveEmptyArgv) {
  Cli cli("prog", "test");
  cli.add_int("n", "count", 42);
  cli.add_flag("verbose", "chatty", false);
  cli.add_double("x", "factor", 1.5);
  cli.add_string("name", "label", "abc");
  char prog[] = "prog";
  char* argv[] = {prog};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("n"), 42);
  EXPECT_FALSE(cli.get_flag("verbose"));
  EXPECT_DOUBLE_EQ(cli.get_double("x"), 1.5);
  EXPECT_EQ(cli.get_string("name"), "abc");
}

TEST(Cli, ParsesEqualsAndSpaceForms) {
  Cli cli("prog", "test");
  cli.add_int("n", "count", 0);
  cli.add_string("s", "str", "");
  char a0[] = "prog", a1[] = "--n=7", a2[] = "--s", a3[] = "hello";
  char* argv[] = {a0, a1, a2, a3};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_EQ(cli.get_int("n"), 7);
  EXPECT_EQ(cli.get_string("s"), "hello");
}

TEST(Cli, BareFlagSetsTrue) {
  Cli cli("prog", "test");
  cli.add_flag("fast", "speedy", false);
  char a0[] = "prog", a1[] = "--fast";
  char* argv[] = {a0, a1};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.get_flag("fast"));
}

TEST(Cli, RejectsUnknownFlag) {
  Cli cli("prog", "test");
  char a0[] = "prog", a1[] = "--bogus=1";
  char* argv[] = {a0, a1};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, UnknownFlagLastWithoutValueIsReportedUnknown) {
  // The name is looked up first, so an unregistered flag given last with
  // no value is unknown (with the usage), not a flag missing its value.
  Cli cli("prog", "test");
  cli.add_int("n", "count", 0);
  char a0[] = "prog", a1[] = "--bogus";
  char* argv[] = {a0, a1};
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(cli.parse(2, argv));
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("prog: unknown flag --bogus\n"), std::string::npos)
      << err;
  EXPECT_NE(err.find("--n"), std::string::npos) << "no usage: " << err;
  EXPECT_EQ(err.find("expects a value"), std::string::npos) << err;
}

TEST(Cli, HelpReturnsFalse) {
  Cli cli("prog", "test");
  char a0[] = "prog", a1[] = "--help";
  char* argv[] = {a0, a1};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, ThrowsOnUnregisteredLookup) {
  Cli cli("prog", "test");
  EXPECT_THROW((void)cli.get_int("nope"), std::logic_error);
}

TEST(Cli, RejectsMissingValueAtEndOfArgv) {
  Cli cli("prog", "test");
  cli.add_int("n", "count", 0);
  char a0[] = "prog", a1[] = "--n";
  char* argv[] = {a0, a1};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, RejectsPositionalArgument) {
  Cli cli("prog", "test");
  cli.add_int("n", "count", 0);
  char a0[] = "prog", a1[] = "stray";
  char* argv[] = {a0, a1};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, ShortHelpAlsoReturnsFalse) {
  Cli cli("prog", "test");
  char a0[] = "prog", a1[] = "-h";
  char* argv[] = {a0, a1};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, ThrowsOnWrongTypeLookup) {
  Cli cli("prog", "test");
  cli.add_int("n", "count", 1);
  EXPECT_THROW((void)cli.get_flag("n"), std::logic_error);
  EXPECT_THROW((void)cli.get_string("n"), std::logic_error);
}

TEST(Cli, FlagAcceptsExplicitFalse) {
  Cli cli("prog", "test");
  cli.add_flag("fast", "speedy", true);
  char a0[] = "prog", a1[] = "--fast=0";
  char* argv[] = {a0, a1};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_FALSE(cli.get_flag("fast"));
}

TEST(Cli, LaterFlagWins) {
  Cli cli("prog", "test");
  cli.add_int("n", "count", 0);
  char a0[] = "prog", a1[] = "--n=1", a2[] = "--n=2";
  char* argv[] = {a0, a1, a2};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_int("n"), 2);
}

TEST(Cli, NegativeIntAndDoubleValues) {
  Cli cli("prog", "test");
  cli.add_int("n", "count", 0);
  cli.add_double("x", "factor", 0.0);
  char a0[] = "prog", a1[] = "--n=-12", a2[] = "--x=-0.25";
  char* argv[] = {a0, a1, a2};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_int("n"), -12);
  EXPECT_DOUBLE_EQ(cli.get_double("x"), -0.25);
}

// ---------------------------------------------------------------- table ---

TEST(Table, RendersHeaderAndRows) {
  Table t({"graph", "time"});
  t.add_row({"orkut", "1.5"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("graph"), std::string::npos);
  EXPECT_NE(s.find("orkut"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt_int(12345), "12345");
  EXPECT_EQ(Table::fmt_bytes(2048), "2.0 KiB");
  EXPECT_EQ(Table::fmt_percent(0.5, 0), "50%");
}

TEST(Table, FmtBytesUnitBoundaries) {
  EXPECT_EQ(Table::fmt_bytes(0), "0.0 B");
  EXPECT_EQ(Table::fmt_bytes(1023), "1023.0 B");
  EXPECT_EQ(Table::fmt_bytes(1024), "1.0 KiB");
  EXPECT_EQ(Table::fmt_bytes(1ull << 20), "1.0 MiB");
  EXPECT_EQ(Table::fmt_bytes(1ull << 30), "1.0 GiB");
  EXPECT_EQ(Table::fmt_bytes(1ull << 40), "1.0 TiB");
  // No PiB unit: huge values stay in TiB rather than indexing off the end.
  EXPECT_EQ(Table::fmt_bytes(1ull << 50), "1024.0 TiB");
}

/// Split a rendered table line "| a  | b |" back into trimmed cells.
std::vector<std::string> parse_table_row(const std::string& line) {
  std::vector<std::string> cells;
  std::size_t pos = line.find('|');
  while (pos != std::string::npos) {
    const std::size_t next = line.find('|', pos + 1);
    if (next == std::string::npos) break;
    std::string cell = line.substr(pos + 1, next - pos - 1);
    const auto first = cell.find_first_not_of(' ');
    if (first == std::string::npos) {
      cells.emplace_back();
    } else {
      cells.push_back(cell.substr(first, cell.find_last_not_of(' ') - first + 1));
    }
    pos = next;
  }
  return cells;
}

TEST(Table, RenderedCellsRoundTrip) {
  // Formatted values survive the render: parsing the aligned text back
  // yields exactly the strings that were added.
  const std::vector<std::string> header{"graph", "bytes", "hit"};
  const std::vector<std::vector<std::string>> rows{
      {"orkut", Table::fmt_bytes(3ull << 20), Table::fmt_percent(0.875, 1)},
      {"rmat-22", Table::fmt_int(1u << 22), Table::fmt(0.333333, 3)},
  };
  Table t(header);
  for (const auto& r : rows) t.add_row(r);

  std::vector<std::vector<std::string>> parsed;
  std::istringstream in(t.to_string());
  for (std::string line; std::getline(in, line);)
    if (!line.empty() && line.front() == '|') parsed.push_back(parse_table_row(line));

  ASSERT_EQ(parsed.size(), 1 + rows.size());
  EXPECT_EQ(parsed[0], header);
  for (std::size_t r = 0; r < rows.size(); ++r) EXPECT_EQ(parsed[r + 1], rows[r]);
}

// ---------------------------------------------------------------- timer ---

TEST(Timer, MeasuresSomethingPositive) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 10000; ++i) x = x + i;
  EXPECT_GT(t.elapsed_s(), 0.0);
}

}  // namespace
}  // namespace atlc::util
