// Stress and failure-injection tests for the fork/join team: randomised
// nested regions, many regions from external threads, exception storms,
// oversubscription, and profile edge cases.

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/scheduler.h"
#include "support/error.h"
#include "support/rng.h"

namespace pbmg::rt {
namespace {

MachineProfile stress_profile(int threads) {
  MachineProfile p;
  p.name = "stress";
  p.threads = threads;
  p.grain_rows = 1;
  p.sequential_cutoff_cells = 1;
  return p;
}

TEST(SchedulerStress, RandomNestedParallelForsSumCorrectly) {
  Scheduler sched(stress_profile(8));
  Rng rng(1);
  for (int round = 0; round < 20; ++round) {
    const std::int64_t outer = 1 + static_cast<std::int64_t>(rng.uniform_index(32));
    const std::int64_t inner = 1 + static_cast<std::int64_t>(rng.uniform_index(64));
    std::atomic<std::int64_t> total{0};
    sched.parallel_for(0, outer, 1, [&](std::int64_t ob, std::int64_t oe) {
      for (std::int64_t o = ob; o < oe; ++o) {
        sched.parallel_for(0, inner, 4, [&](std::int64_t b, std::int64_t e) {
          total.fetch_add(e - b, std::memory_order_relaxed);
        });
      }
    });
    ASSERT_EQ(total.load(), outer * inner) << "round " << round;
  }
}

TEST(SchedulerStress, ThreeLevelNestingDoesNotDeadlock) {
  Scheduler sched(stress_profile(4));
  std::atomic<std::int64_t> total{0};
  sched.parallel_for(0, 4, 1, [&](std::int64_t, std::int64_t) {
    sched.parallel_for(0, 4, 1, [&](std::int64_t, std::int64_t) {
      sched.parallel_for(0, 16, 2, [&](std::int64_t b, std::int64_t e) {
        total.fetch_add(e - b, std::memory_order_relaxed);
      });
    });
  });
  EXPECT_EQ(total.load(), 4 * 4 * 16);
}

TEST(SchedulerStress, ManyRegionsFromExternalThreads) {
  Scheduler sched(stress_profile(4));
  constexpr int kThreads = 4;
  constexpr int kRegionsPerThread = 16;
  constexpr int kChunksPerRegion = 64;
  std::atomic<int> count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRegionsPerThread; ++r) {
        sched.parallel_for(0, kChunksPerRegion, 1,
                           [&count](std::int64_t, std::int64_t) {
                             count.fetch_add(1);
                           });
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(count.load(), kThreads * kRegionsPerThread * kChunksPerRegion);
}

TEST(SchedulerStress, ExceptionStormDeliversOnePerRegionAndSurvives) {
  Scheduler sched(stress_profile(4));
  for (int round = 0; round < 10; ++round) {
    EXPECT_THROW(sched.parallel_for(0, 32, 1,
                                    [](std::int64_t b, std::int64_t) {
                                      if (b % 2 == 0) {
                                        throw NumericalError(
                                            "boom " + std::to_string(b));
                                      }
                                    }),
                 NumericalError);
  }
  // Scheduler still healthy afterwards.
  std::atomic<int> ok{0};
  sched.parallel_for(0, 100, 1,
                     [&ok](std::int64_t, std::int64_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 100);
}

TEST(SchedulerStress, OversubscribedPoolStillCorrect) {
  // More workers than cores: correctness must not depend on the ratio.
  Scheduler sched(stress_profile(48));
  std::atomic<std::int64_t> total{0};
  sched.parallel_for(0, 10000, 8, [&](std::int64_t b, std::int64_t e) {
    total.fetch_add(e - b, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 10000);
}

TEST(SchedulerStress, RepeatedConstructionAndDestruction) {
  // Pools must come up and shut down cleanly even when work was pending
  // recently (worker threads parked or spinning).
  for (int round = 0; round < 12; ++round) {
    Scheduler sched(stress_profile(1 + round % 6));
    std::atomic<std::int64_t> hits{0};
    sched.parallel_for(0, 10, 1, [&hits](std::int64_t b, std::int64_t e) {
      hits.fetch_add(e - b);
    });
    ASSERT_EQ(hits.load(), 10);
  }
}

TEST(SchedulerStress, ParallelReduceUnderContention) {
  Scheduler sched(stress_profile(8));
  // Sum of i^2 with tiny grain: maximum task churn.
  const std::int64_t n = 4096;
  const double result = sched.parallel_reduce_sum(
      0, n, 1, [](std::int64_t b, std::int64_t e) {
        double acc = 0.0;
        for (std::int64_t i = b; i < e; ++i) {
          acc += static_cast<double>(i) * static_cast<double>(i);
        }
        return acc;
      });
  const double expected =
      static_cast<double>(n - 1) * n * (2 * n - 1) / 6.0;
  EXPECT_DOUBLE_EQ(result, expected);
}

TEST(SchedulerStress, GrainForRespectsSequentialCutoff) {
  MachineProfile p = stress_profile(4);
  p.sequential_cutoff_cells = 1000;
  p.grain_rows = 8;
  Scheduler sched(p);
  // 10 rows x 50 cells = 500 <= cutoff: whole range as one grain.
  EXPECT_EQ(sched.grain_for(10, 50), 10);
  // 100 rows x 50 cells = 5000 > cutoff: profile grain.
  EXPECT_EQ(sched.grain_for(100, 50), 8);
  // Degenerate row counts stay positive.
  EXPECT_GE(sched.grain_for(0, 50), 1);
}

TEST(SchedulerStress, SpawnOverheadScalesWithProfileKnob) {
  MachineProfile slow = stress_profile(2);
  slow.spawn_overhead_ns = 100000;
  MachineProfile fast = stress_profile(2);
  fast.spawn_overhead_ns = 0;
  const auto time_chunks = [](Scheduler& sched) {
    const auto t0 = std::chrono::steady_clock::now();
    sched.parallel_for(0, 50, 1, [](std::int64_t, std::int64_t) {});
    const auto dt = std::chrono::steady_clock::now() - t0;
    return std::chrono::duration<double>(dt).count();
  };
  Scheduler sched_slow(slow);
  Scheduler sched_fast(fast);
  EXPECT_GT(time_chunks(sched_slow), time_chunks(sched_fast));
}

TEST(SchedulerStress, WorkDistributionReachesMultipleWorkers) {
  // With long-running chunks, several of the team's threads must take part
  // (validates that the team spreads work, not just that results are
  // correct).
  Scheduler sched(stress_profile(8));
  std::atomic<std::uint64_t> worker_mask{0};
  std::atomic<int> counter{0};
  sched.parallel_for(0, 64, 1, [&](std::int64_t, std::int64_t) {
    // Identify the executing thread via a per-thread hash.
    const auto id = std::hash<std::thread::id>{}(std::this_thread::get_id());
    worker_mask.fetch_or(std::uint64_t{1} << (id % 61));
    // Busy work so the region lasts long enough for parked helpers to wake.
    volatile double sink = 0.0;
    for (int i = 0; i < 200000; ++i) sink = sink + i;
    counter.fetch_add(1);
  });
  EXPECT_EQ(counter.load(), 64);
  EXPECT_GE(__builtin_popcountll(worker_mask.load()), 3);
}

}  // namespace
}  // namespace pbmg::rt
