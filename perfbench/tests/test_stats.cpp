// Tests of the benchmark's own arithmetic and request-mix generation.

#include <gtest/gtest.h>

#include <vector>

#include "mix.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(TailPercentile, NeedsMoreThanTenSamples) {
  EXPECT_FALSE(tail_percentile({}).has_value());
  EXPECT_FALSE(tail_percentile(std::vector<double>(10, 1.0)).has_value());
  std::vector<double> eleven;
  for (int i = 0; i < 11; ++i) eleven.push_back(11.0 - i);
  const auto t = tail_percentile(eleven);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->value, 1.0);  // exactly ten samples lie beyond the smallest
  EXPECT_EQ(t->samples, 11u);
  EXPECT_EQ(t->beyond, 10u);
  EXPECT_DOUBLE_EQ(t->percentile, 100.0 / 11.0);
}

TEST(TailPercentile, HundredSamplesGiveP90AndThousandGiveP99) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  auto t = tail_percentile(v);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->value, 90.0);
  EXPECT_DOUBLE_EQ(t->percentile, 90.0);
  v.clear();
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // order must not matter
  t = tail_percentile(v);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->value, 990.0);
  EXPECT_DOUBLE_EQ(t->percentile, 99.0);
  EXPECT_EQ(t->samples, 1000u);
}

span make(std::int64_t start, std::int64_t end, std::int64_t parent) {
  span s;
  s.name = "x";
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsNestedChildrenOnce) {
  // root [0,100) with children [10,30) and [40,50); the first child has a
  // grandchild [15,25), which must not be subtracted from the root again.
  const std::vector<span> spans = {make(0, 100, -1), make(10, 30, 0), make(40, 50, 0),
                                   make(15, 25, 1)};
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 70);
  EXPECT_EQ(self[1], 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 10);
}

TEST(SelfTime, OverlappingChildrenCountTheirUnion) {
  // Concurrent children [10,40) and [20,60) cover [10,60): 50 ns, not 70.
  // A child reaching past its parent is clipped to it.
  const std::vector<span> spans = {make(0, 100, -1), make(10, 40, 0), make(20, 60, 0),
                                   make(90, 130, 0)};
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);
}

TEST(SelfTime, ChildContainedInAnotherAddsNothing) {
  const std::vector<span> spans = {make(0, 100, -1), make(0, 80, 0), make(10, 20, 0)};
  EXPECT_EQ(self_times_ns(spans)[0], 20);
}

TEST(SpanLog, ScopedSpansNestOnOneThread) {
  span_log log{true};
  {
    scoped_span outer{log, "outer", 7};
    scoped_span inner{log, "inner", 7};
  }
  const auto spans = log.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].request, 7u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);

  span_log off{false};
  { scoped_span s{off, "ignored", 1}; }
  EXPECT_TRUE(off.snapshot().empty());
}

TEST(LittlesLaw, WaitIsQueueLengthOverArrivalRate) {
  // 100 arrivals in 10 s (lambda = 10/s) with 2 waiting on average: 0.2 s.
  EXPECT_DOUBLE_EQ(littles_law_wait_s(2.0, 100, 10.0), 0.2);
  EXPECT_DOUBLE_EQ(littles_law_wait_s(0.0, 100, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(littles_law_wait_s(3.0, 0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(littles_law_wait_s(3.0, 5, 0.0), 0.0);
}

TEST(OpenLoop, LatencyCountsFromTheDueTime) {
  // The generator stalled 0.5 s: the user still waited from the due time.
  const request_clock late{1.0, 1.5, 2.0};
  EXPECT_DOUBLE_EQ(latency_from_due_s(late), 1.0);
  EXPECT_DOUBLE_EQ(generator_lateness_s(late), 0.5);
  const request_clock on_time{1.0, 1.0, 1.25};
  EXPECT_DOUBLE_EQ(latency_from_due_s(on_time), 0.25);
  EXPECT_DOUBLE_EQ(generator_lateness_s(on_time), 0.0);
  const request_clock early{1.0, 0.999, 1.25};
  EXPECT_DOUBLE_EQ(generator_lateness_s(early), 0.0);
}

TEST(Quality, HypervolumeIsNormalizedToTheReferenceBox) {
  EXPECT_DOUBLE_EQ(normalized_hypervolume({{0.5, 0.5}}, {1.0, 1.0}), 0.25);
  // Two non-dominated points: [0.2,1)x[0.6,1) and [0.6,1)x[0.2,1) cover
  // 0.32 each and overlap on 0.16.
  EXPECT_NEAR(normalized_hypervolume({{0.6, 0.2}, {0.2, 0.6}}, {1.0, 1.0}), 0.48, 1e-12);
  // A dominated point and a point outside the box add nothing.
  EXPECT_NEAR(normalized_hypervolume({{0.6, 0.2}, {0.2, 0.6}, {0.7, 0.7}, {1.5, 0.1}}, {1.0, 1.0}),
              0.48, 1e-12);
  EXPECT_DOUBLE_EQ(normalized_hypervolume({}, {1.0, 1.0}), 0.0);
}

TEST(Stats, MedianAndGeometricMean) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_NEAR(geometric_mean({1.0, 4.0}), 2.0, 1e-12);
}

TEST(Mix, SeedGivesSameShapeDifferentRequests) {
  for (const workload w : {workload::analytic_cold, workload::surrogate_sessions,
                           workload::warm_replay, workload::session_churn}) {
    const request_mix a = generate_mix(w, 1, 10.0);
    const request_mix again = generate_mix(w, 1, 10.0);
    const request_mix b = generate_mix(w, 2, 10.0);
    EXPECT_EQ(fingerprint(a), fingerprint(again)) << name_of(w);
    EXPECT_NE(fingerprint(a), fingerprint(b)) << name_of(w);
    EXPECT_EQ(a.tuples.size(), b.tuples.size()) << name_of(w);
    if (!spec_of(w).open_loop) EXPECT_EQ(a.requests.size(), b.requests.size()) << name_of(w);
  }
}

TEST(Mix, ChurnSendsEveryRequestToAnEvictedSession) {
  const request_mix m = generate_mix(workload::session_churn, 5, 10.0);
  const std::size_t cap = spec_of(workload::session_churn).max_sessions;
  for (std::size_t i = cap; i < 400; ++i) {
    EXPECT_TRUE(m.requests[i].creates);
    for (std::size_t back = 1; back <= cap; ++back)
      EXPECT_NE(m.requests[i].tuple, m.requests[i - back].tuple) << i;
  }
}

TEST(Mix, WarmReplayArrivalsAreOrderedWithCoalescableDuplicates) {
  const request_mix m = generate_mix(workload::warm_replay, 3, 20.0);
  std::size_t dups = 0;
  for (std::size_t i = 0; i < m.requests.size(); ++i) {
    const gen_request& r = m.requests[i];
    EXPECT_LT(r.arrival_s, 20.0);
    if (!r.duplicate) continue;
    ++dups;
    ASSERT_GT(i, 0u);
    const gen_request& prev = m.requests[i - 1];
    EXPECT_EQ(r.tuple, prev.tuple);
    EXPECT_EQ(r.ga_seed, prev.ga_seed);
    EXPECT_EQ(r.orient, prev.orient);
    EXPECT_LE(r.arrival_s - prev.arrival_s, 0.002);
  }
  const double share = static_cast<double>(dups) / static_cast<double>(m.requests.size() - dups);
  EXPECT_NEAR(share, spec_of(workload::warm_replay).duplicate_share, 0.08);
}

}  // namespace
}  // namespace perfbench
