// Tests for the benchmark's own helpers: percentiles and summaries, span
// self time, and that the seeded key draws and arrival schedules are
// deterministic per seed.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "../src/report.h"
#include "../src/spans.h"
#include "../src/stats.h"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesLinearlyBetweenRanks) {
  const std::vector<double> xs = {4, 1, 3, 2};  // sorted: 1 2 3 4
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 4);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 1.75);
  EXPECT_DOUBLE_EQ(percentile({7}, 99), 7);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0);
}

TEST(Summary, ReportsOrderStatisticsAndCount) {
  std::vector<double> xs;
  for (int i = 1; i <= 101; ++i) xs.push_back(i);
  const Summary s = summarize(xs);
  EXPECT_EQ(s.n, 101u);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 101);
  EXPECT_DOUBLE_EQ(s.mean, 51);
  EXPECT_DOUBLE_EQ(s.p25, 26);
  EXPECT_DOUBLE_EQ(s.p50, 51);
  EXPECT_DOUBLE_EQ(s.p75, 76);
  EXPECT_DOUBLE_EQ(s.p90, 91);
  EXPECT_DOUBLE_EQ(s.p99, 100);
  EXPECT_EQ(summarize({}).n, 0u);
}

TEST(Summary, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({2, 8}), 4);
  EXPECT_DOUBLE_EQ(geomean({}), 0);
}

double metric(const Result& out, const char* name) {
  return out.record(false).get("metrics").get(name).get("value").as_double();
}

TEST(EndToEnd, LatenciesAreMediansOverWindows) {
  EndToEnd e;
  // Window p50s 2, 20, 5 (the median window is 5); p90s 2.8, 724, 8.2.
  e.windows = {{{1, 2, 3}, 3, 1, 0}, {{10, 20, 900}, 4, 1, 0},
               {{1, 5, 9}, 3, 1, 0}};  // one unit of window 2 failed
  e.limit_us = 20;
  e.setup_s = {1, 3, 2};
  e.rss_mb = 5;
  Result out;
  report_end_to_end(e, out);
  EXPECT_DOUBLE_EQ(metric(out, "latency_us_p50"), 5);
  EXPECT_NEAR(metric(out, "latency_us_tail"), 8.2, 1e-9);
  EXPECT_DOUBLE_EQ(metric(out, "throughput_per_s"), 3);  // 9 in 3 s
  EXPECT_DOUBLE_EQ(metric(out, "slo_met_frac"), 0.8);
  EXPECT_DOUBLE_EQ(metric(out, "setup_s"), 2);
  EXPECT_EQ(out.record(false)
                .get("metrics")
                .get("latency_us_p50")
                .get("n")
                .as_double(),
            9);
}

TEST(EndToEnd, CalmShareUsesTheLeastStolenWindows) {
  EndToEnd e;
  e.calm_share = 0.5;
  e.windows = {{{100}, 1, 1, 0.30}, {{10}, 1, 1, 0.01},
               {{300}, 1, 1, 0.20}, {{20}, 1, 1, 0.02}};
  e.limit_us = 1000;
  e.setup_s = {1};
  Result out;
  report_end_to_end(e, out);
  EXPECT_DOUBLE_EQ(metric(out, "latency_us_p50"), 15);  // windows 10, 20
  EXPECT_DOUBLE_EQ(metric(out, "throughput_per_s"), 1);
}

TEST(Zipf, SameSeedSameDraws) {
  const ZipfSampler a(42, 1.1, 7), b(42, 1.1, 7), c(42, 1.1, 8);
  SeedRng ra(1), rb(1), rc(1);
  std::vector<size_t> da, db, dc;
  for (int i = 0; i < 1000; ++i) {
    da.push_back(a.draw(ra));
    db.push_back(b.draw(rb));
    dc.push_back(c.draw(rc));
  }
  EXPECT_EQ(da, db);
  EXPECT_NE(da, dc);  // another seed ranks the keys differently
}

TEST(Zipf, SkewFavoursTheHottestRankAndCoversKeys) {
  const ZipfSampler z(42, 1.1, 3);
  SeedRng rng(5);
  std::vector<int> hits(42, 0);
  for (int i = 0; i < 20000; ++i) ++hits[z.draw(rng)];
  const size_t hottest = z.key_of_rank(0), coldest = z.key_of_rank(41);
  EXPECT_GT(hits[hottest], 10 * hits[coldest]);
  for (int h : hits) EXPECT_GT(h, 0);
}

TEST(Zipf, ExponentZeroIsUniform) {
  const ZipfSampler z(10, 0.0, 3);
  SeedRng rng(9);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 100000; ++i) ++hits[z.draw(rng)];
  for (int h : hits) EXPECT_NEAR(h, 10000, 500);
}

TEST(Poisson, SameSeedSameSchedule) {
  const auto a = poisson_arrivals(2000, 2.0, 11);
  const auto b = poisson_arrivals(2000, 2.0, 11);
  const auto c = poisson_arrivals(2000, 2.0, 12);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Poisson, RateAndOrdering) {
  const auto a = poisson_arrivals(2000, 5.0, 3);
  EXPECT_NEAR(static_cast<double>(a.size()), 10000, 400);
  for (size_t i = 1; i < a.size(); ++i) EXPECT_GT(a[i], a[i - 1]);
  EXPECT_LT(a.back(), 5.0);
  EXPECT_TRUE(poisson_arrivals(0, 5.0, 3).empty());
}

TEST(Seeds, PermutationAndDerivedSeedsAreDeterministic) {
  EXPECT_EQ(seeded_permutation(30, 4), seeded_permutation(30, 4));
  const auto p = seeded_permutation(30, 4);
  EXPECT_EQ(std::set<size_t>(p.begin(), p.end()).size(), 30u);
  EXPECT_EQ(derive_seed(1, "a"), derive_seed(1, "a"));
  EXPECT_NE(derive_seed(1, "a"), derive_seed(1, "b"));
  EXPECT_NE(derive_seed(1, "a"), derive_seed(2, "a"));
}

TEST(Spans, SelfTimeSubtractsChildren) {
  std::vector<SpanRecord> spans = {
      {"request", 0, 100, 1, 0, 9},
      {"core", 10, 40, 2, 1, 9},
      {"net", 30, 60, 3, 1, 9},  // overlaps "core": union is 10..60
      {"inner", 15, 20, 4, 2, 9},
  };
  const auto lt = layer_times(spans);
  EXPECT_NEAR(lt.at("request").self_ms, 50e-6, 1e-12);
  EXPECT_NEAR(lt.at("core").self_ms, 25e-6, 1e-12);
  EXPECT_NEAR(lt.at("net").self_ms, 30e-6, 1e-12);
  EXPECT_EQ(lt.at("request").count, 1);
}

TEST(Spans, RecordsParentAndRequestOnlyWhenTracing) {
  clear_spans();
  { Span off("untraced"); }
  set_tracing(true);
  {
    Span outer("outer", 77);
    Span inner("inner");
  }
  set_tracing(false);
  const auto spans = collected_spans();
  ASSERT_EQ(spans.size(), 2u);
  const SpanRecord& inner = spans[0];
  const SpanRecord& outer = spans[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(inner.request, 77u);
  EXPECT_EQ(outer.parent, 0u);
  clear_spans();
}

}  // namespace
}  // namespace perfbench
