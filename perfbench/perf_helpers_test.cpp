// Tests of griffin_perf's pure helpers (perf_helpers.h). Build and
// run with `python3 perfbench/run.py --self-test`.
#include "perf_helpers.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

TEST(TailPercentile, NeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(200, 95.0), 10u);
  EXPECT_EQ(samples_beyond(199, 95.0), 9u);
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(10, 100.0), 0u);

  EXPECT_EQ(tail_percentile(19), std::nullopt);  // median has 9 beyond
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(199), 90.0);
  EXPECT_EQ(tail_percentile(200), 95.0);  // the sim_p95_ms floor
  EXPECT_EQ(tail_percentile(999), 95.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
}

TEST(Backlog, FlatNoisyWaitsAreStable) {
  std::vector<double> waits;
  for (int i = 0; i < 400; ++i) waits.push_back(i % 7 == 0 ? 4.0 : 0.5);
  EXPECT_FALSE(growing_backlog(waits, 5.0));
}

TEST(Backlog, LinearGrowthIsDetected) {
  std::vector<double> waits;
  for (int i = 0; i < 400; ++i) waits.push_back(0.01 * i);  // rises 4 ms
  EXPECT_TRUE(growing_backlog(waits, 5.0));
  EXPECT_FALSE(growing_backlog(waits, 10.0));  // rise is under half of 10
}

TEST(Backlog, TooFewSamplesNeverGrow) {
  EXPECT_FALSE(growing_backlog(std::vector<double>{}, 1.0));
  EXPECT_FALSE(growing_backlog(std::vector<double>{100.0}, 1.0));
}

// A synthetic system: p95 = base / (1 - rate/cap); backlog past cap.
RungResult model(double rate, double cap) {
  RungResult r;
  r.backlog = rate >= cap;
  r.p95_ms = r.backlog ? 1e9 : 1.0 / (1.0 - rate / cap);
  return r;
}

TEST(Ladder, FindsHighestPassingRung) {
  const std::vector<double> ladder = {100, 200, 300, 400, 500, 600, 700};
  // limit 4 ms: passes while 1/(1 - r/800) <= 4, i.e. r <= 600.
  const auto out = capacity_search(ladder, 4.0,
                                   [](double r) { return model(r, 800.0); });
  ASSERT_TRUE(out.best.has_value());
  EXPECT_EQ(*out.best, 5u);
  EXPECT_EQ(out.capacity_qps(ladder), 600.0);
  EXPECT_LE(out.probed.size(), 3u);  // log2(7) rounded up
}

TEST(Ladder, BacklogFailsARungEvenUnderTheLimit) {
  const std::vector<double> ladder = {100, 200, 300, 400};
  const auto out = capacity_search(ladder, 1e12, [](double r) {
    RungResult res;
    res.p95_ms = 1.0;
    res.backlog = r > 250;
    return res;
  });
  ASSERT_TRUE(out.best.has_value());
  EXPECT_EQ(out.capacity_qps(ladder), 200.0);
}

TEST(Ladder, AllPassAndNonePass) {
  const std::vector<double> ladder = {10, 20, 40};
  const auto all = capacity_search(ladder, 1.0, [](double) {
    return RungResult{.p95_ms = 0.5};
  });
  EXPECT_EQ(all.capacity_qps(ladder), 40.0);
  const auto none = capacity_search(ladder, 1.0, [](double) {
    return RungResult{.p95_ms = 2.0};
  });
  EXPECT_FALSE(none.best.has_value());
  EXPECT_EQ(none.capacity_qps(ladder), 0.0);
}

TEST(Ladder, RejectsUnsortedLadder) {
  const std::vector<double> ladder = {10, 30, 20};
  EXPECT_THROW(capacity_search(ladder, 1.0,
                               [](double) { return RungResult{}; }),
               std::invalid_argument);
}

TEST(MetricNames, ContractCharacterSet) {
  EXPECT_TRUE(valid_metric_name("sim_p95_ms"));
  EXPECT_TRUE(valid_metric_name("core.host_ms.intersect_gpu"));
  EXPECT_TRUE(valid_metric_name("est-err.cpu"));
  EXPECT_TRUE(valid_metric_name("9lives"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("core.host_ms|plan"));
  EXPECT_FALSE(valid_metric_name("quote\""));
  EXPECT_FALSE(valid_metric_name("naïve"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
}

TEST(MetricSet, RejectsBadEntries) {
  MetricSet m;
  m.add("latency_ms", 1.25, "ms");
  EXPECT_THROW(m.add("bad name", 1.0, "ms"), std::invalid_argument);
  EXPECT_THROW(m.add("latency_ms", 2.0, "ms"), std::invalid_argument);
  EXPECT_THROW(m.add("rate", 1.0, "q per s"), std::invalid_argument);
  EXPECT_THROW(m.add("nan", 0.0 / 0.0, "ms"), std::invalid_argument);
  EXPECT_EQ(m.result_line(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}}}");
}

}  // namespace
}  // namespace perfbench
