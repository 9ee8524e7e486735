// Tests for the observability layer (src/obs/): metrics registry,
// log-scale latency histograms, and per-solve phase profiling.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "grid/problem.h"
#include "obs/metrics.h"
#include "obs/phase_profile.h"
#include "solvers/multigrid.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/timer.h"

namespace pbmg {
namespace {

TEST(Counter, AccumulatesRelaxed) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(Gauge, LastWriteWins) {
  obs::Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-1.25);
  EXPECT_EQ(g.value(), -1.25);
}

TEST(Histogram, BucketIndexIsMonotonicAndInRange) {
  int previous = 0;
  for (double v = 1e-9; v < 1e4; v *= 1.07) {
    const int index = obs::Histogram::bucket_index(v);
    ASSERT_GE(index, 0);
    ASSERT_LT(index, obs::Histogram::kBucketCount);
    ASSERT_GE(index, previous) << "bucket index decreased at v=" << v;
    previous = index;
  }
  // Every value lands strictly at or below its bucket's upper bound and
  // above the previous bucket's.
  for (double v : {1e-6, 3.7e-4, 1e-2, 0.5, 1.0, 99.0}) {
    const int index = obs::Histogram::bucket_index(v);
    EXPECT_LE(v, obs::Histogram::bucket_upper_bound(index));
    if (index > 0) {
      EXPECT_GT(v, obs::Histogram::bucket_upper_bound(index - 1));
    }
  }
  // Degenerate inputs clamp into the boundary buckets, never throw.
  EXPECT_EQ(obs::Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(obs::Histogram::bucket_index(-5.0), 0);
  EXPECT_EQ(obs::Histogram::bucket_index(1e9),
            obs::Histogram::kBucketCount - 1);
}

TEST(Histogram, PercentilesWithinBucketResolution) {
  obs::Histogram hist;
  // 0.1ms .. ~100ms, uniformly spaced: exact percentiles are easy.
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) {
    values.push_back(1e-4 * static_cast<double>(i));
  }
  for (double v : values) hist.record(v);
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, 1000);
  EXPECT_NEAR(snap.sum, 1e-4 * 1000.0 * 1001.0 / 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(snap.min, 1e-4);
  EXPECT_DOUBLE_EQ(snap.max, 0.1);
  const double tol = obs::Histogram::relative_resolution();
  for (double p : {50.0, 90.0, 99.0}) {
    const double exact =
        values[static_cast<std::size_t>(std::ceil(p / 100.0 * 1000.0)) - 1];
    const double estimate = snap.percentile(p);
    EXPECT_LE(estimate, exact * tol) << "p" << p;
    EXPECT_GE(estimate, exact / tol) << "p" << p;
  }
  // Extremes clamp to the observed range.
  EXPECT_GE(snap.percentile(0.0), snap.min);
  EXPECT_LE(snap.percentile(100.0), snap.max);
}

TEST(Histogram, ConcurrentRecordingIsLossless) {
  obs::Histogram hist;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.record(1e-5 * static_cast<double>(1 + (i + t) % 100));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  std::int64_t bucket_total = 0;
  for (const auto b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
  EXPECT_GT(snap.sum, 0.0);
}

TEST(Histogram, SnapshotIsIsolatedFromLaterRecords) {
  obs::Histogram hist;
  hist.record(0.5);
  const auto before = hist.snapshot();
  hist.record(2.0);
  hist.record(4.0);
  EXPECT_EQ(before.count, 1);
  EXPECT_DOUBLE_EQ(before.sum, 0.5);
  EXPECT_EQ(hist.snapshot().count, 3);
}

TEST(MetricsRegistry, AccessorsReturnStableAddresses) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("pbmg_test_total");
  obs::Counter& b = registry.counter("pbmg_test_total");
  EXPECT_EQ(&a, &b);
  obs::Histogram& h1 = registry.histogram("pbmg_test_seconds");
  obs::Histogram& h2 = registry.histogram("pbmg_test_seconds");
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsRegistry, NameCollisionAcrossKindsThrows) {
  obs::MetricsRegistry registry;
  registry.counter("pbmg_taken");
  EXPECT_THROW(registry.gauge("pbmg_taken"), InvalidArgument);
  EXPECT_THROW(registry.histogram("pbmg_taken"), InvalidArgument);
  registry.gauge("pbmg_level");
  EXPECT_THROW(registry.counter("pbmg_level"), InvalidArgument);
}

TEST(MetricsRegistry, SnapshotAndJsonExposition) {
  obs::MetricsRegistry registry;
  registry.counter("pbmg_requests_total").add(7);
  registry.gauge("pbmg_pool_bytes").set(4096.0);
  obs::Histogram& hist =
      registry.histogram("pbmg_latency_seconds{n=\"65\",acc=\"0\"}");
  hist.record(0.01);
  hist.record(0.02);

  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("pbmg_requests_total"), 7);
  EXPECT_EQ(snap.gauges.at("pbmg_pool_bytes"), 4096.0);
  const auto& h = snap.histograms.at("pbmg_latency_seconds{n=\"65\",acc=\"0\"}");
  EXPECT_EQ(h.count, 2);
  EXPECT_NEAR(h.mean(), 0.015, 1e-12);

  const std::string json = obs::to_json(snap).dump();
  EXPECT_NE(json.find("pbmg_requests_total"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(MetricsRegistry, TextExpositionCarriesLabelsAndSeries) {
  obs::MetricsRegistry registry;
  registry.counter("pbmg_requests_total").add(3);
  registry.histogram("pbmg_latency_seconds{n=\"65\"}").record(0.25);
  const std::string text = obs::to_text(registry.snapshot());
  EXPECT_NE(text.find("# TYPE pbmg_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("pbmg_requests_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pbmg_latency_seconds histogram"),
            std::string::npos);
  // The `le` label is spliced into the existing label set.
  EXPECT_NE(text.find("pbmg_latency_seconds_bucket{n=\"65\",le=\""),
            std::string::npos);
  EXPECT_NE(text.find("pbmg_latency_seconds_bucket{n=\"65\",le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("pbmg_latency_seconds_count{n=\"65\"} 1"),
            std::string::npos);
}

TEST(PhaseProfile, RecordsPerLevelAndPhase) {
  obs::PhaseProfile profile;
  profile.record(obs::Phase::kRelax, 5, 0.25);
  profile.record(obs::Phase::kRelax, 5, 0.25);
  profile.record(obs::Phase::kRestrict, 4, 0.5);
  EXPECT_NEAR(profile.total_seconds(), 1.0, 1e-6);
  EXPECT_NEAR(profile.phase_seconds(obs::Phase::kRelax), 0.5, 1e-6);
  const auto entries = profile.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].level, 5);  // finest first
  EXPECT_EQ(entries[0].phase, obs::Phase::kRelax);
  EXPECT_EQ(entries[0].count, 2);
  EXPECT_EQ(entries[1].level, 4);
  profile.reset();
  EXPECT_EQ(profile.total_seconds(), 0.0);
  EXPECT_TRUE(profile.entries().empty());
}

TEST(PhaseProfile, NullSinkTimerIsANoOp) {
  // The un-profiled fast path: a null profile must be safe and free.
  for (int i = 0; i < 1000; ++i) {
    obs::ScopedPhaseTimer timer(nullptr, obs::Phase::kRelax, 3);
  }
  SUCCEED();
}

TEST(PhaseProfile, JsonGroupsEntriesByLevel) {
  obs::PhaseProfile profile;
  profile.record(obs::Phase::kRelax, 3, 0.1);
  profile.record(obs::Phase::kDirect, 1, 0.05);
  const std::string json = obs::to_json(profile).dump();
  EXPECT_NE(json.find("\"total_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"relax_s\""), std::string::npos);
  EXPECT_NE(json.find("\"direct_s\""), std::string::npos);
  EXPECT_NE(json.find("\"levels\""), std::string::npos);
}

TEST(PhaseProfile, VCyclePhaseSumsApproximateWallTime) {
  Engine engine(rt::MachineProfile{"test", 2, 8, 0, 16384});
  const int n = 129;
  Rng rng(4242);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  Grid2D& x = problem.x0;
  const Grid2D& b = problem.b;

  const grid::StencilHierarchy ops(grid::StencilOp::poisson(n));
  auto profile = std::make_shared<obs::PhaseProfile>();
  solvers::VCycleOptions options;
  options.profile = profile.get();
  const double t0 = now_seconds();
  for (int it = 0; it < 5; ++it) {
    solvers::vcycle(ops, x, b, options, engine.scheduler(), engine.direct(),
                    engine.scratch());
  }
  const double wall = now_seconds() - t0;

  // The scoped timers cover relaxation, transfer and direct phases; the
  // uncovered remainder is scratch-lease bookkeeping.  Bounds stay loose
  // for CI noise (and TSan's instrumented clocks).
  const double attributed = profile->total_seconds();
  EXPECT_GT(attributed, 0.0);
  EXPECT_GE(attributed, 0.1 * wall);
  EXPECT_LE(attributed, 2.0 * wall + 1e-3);

  // Every phase a V-cycle executes showed up, at more than one level.
  EXPECT_GT(profile->phase_seconds(obs::Phase::kRelax), 0.0);
  const auto entries = profile->entries();
  int distinct_levels = 0;
  int last_level = -1;
  for (const auto& entry : entries) {
    if (entry.level != last_level) {
      ++distinct_levels;
      last_level = entry.level;
    }
  }
  EXPECT_GT(distinct_levels, 2);
  bool saw_direct = false;
  bool saw_restrict = false;
  bool saw_interpolate = false;
  for (const auto& entry : entries) {
    saw_direct |= entry.phase == obs::Phase::kDirect;
    saw_restrict |= entry.phase == obs::Phase::kRestrict;
    saw_interpolate |= entry.phase == obs::Phase::kInterpolate;
  }
  EXPECT_TRUE(saw_direct);
  EXPECT_TRUE(saw_restrict);
  EXPECT_TRUE(saw_interpolate);
}

TEST(PhaseProfile, SharedAcrossConcurrentCycles) {
  Engine engine(rt::MachineProfile{"test", 2, 8, 0, 16384});
  const int n = 65;
  obs::PhaseProfile profile;
  constexpr int kThreads = 3;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, &profile, n, t] {
      Rng rng(1000 + t);
      auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
      Grid2D& x = problem.x0;
      const Grid2D& b = problem.b;
      const grid::StencilHierarchy ops(grid::StencilOp::poisson(n));
      solvers::VCycleOptions options;
      options.profile = &profile;
      for (int it = 0; it < 3; ++it) {
        solvers::vcycle(ops, x, b, options, engine.scheduler(),
                        engine.direct(), engine.scratch());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_GT(profile.total_seconds(), 0.0);
  // 3 threads × 3 cycles × (pre+post) relax sweeps at the finest level.
  double fine_relax_count = 0;
  for (const auto& entry : profile.entries()) {
    if (entry.level == 6 && entry.phase == obs::Phase::kRelax) {
      fine_relax_count = static_cast<double>(entry.count);
    }
  }
  EXPECT_EQ(fine_relax_count, kThreads * 3 * 2);
}

}  // namespace
}  // namespace pbmg
