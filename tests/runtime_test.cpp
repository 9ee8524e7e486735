// Tests for the fork/join team: coverage of parallel_for and
// parallel_reduce, nested parallelism, exception propagation, helper
// participation, concurrent callers on one team, and machine profiles.

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/machine_profile.h"
#include "runtime/scheduler.h"
#include "support/error.h"

namespace pbmg::rt {
namespace {

MachineProfile test_profile(int threads, int grain = 1) {
  MachineProfile p;
  p.name = "test";
  p.threads = threads;
  p.grain_rows = grain;
  return p;
}

TEST(Scheduler, RejectsNonPositiveThreadCount) {
  MachineProfile p = test_profile(0);
  EXPECT_THROW(Scheduler s(p), InvalidArgument);
}

TEST(Scheduler, ParallelForCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    Scheduler sched(test_profile(threads));
    constexpr std::int64_t kN = 10007;
    std::vector<std::atomic<int>> hits(kN);
    sched.parallel_for(0, kN, 16, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      }
    });
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "index " << i << " threads " << threads;
    }
  }
}

TEST(Scheduler, ParallelForHandlesEmptyAndTinyRanges) {
  Scheduler sched(test_profile(4));
  int calls = 0;
  sched.parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<std::int64_t> sum{0};
  sched.parallel_for(3, 4, 10, [&](std::int64_t b, std::int64_t e) {
    sum.fetch_add(e - b);
  });
  EXPECT_EQ(sum.load(), 1);
}

TEST(Scheduler, ParallelForRespectsGrainAsLeafUpperBound) {
  Scheduler sched(test_profile(4));
  std::atomic<bool> oversized{false};
  sched.parallel_for(0, 1000, 32, [&](std::int64_t b, std::int64_t e) {
    if (e - b > 32) oversized.store(true);
  });
  EXPECT_FALSE(oversized.load());
}

TEST(Scheduler, ParallelReduceSumMatchesSerial) {
  Scheduler sched(test_profile(8));
  constexpr std::int64_t kN = 100000;
  const double parallel = sched.parallel_reduce_sum(
      0, kN, 64, [](std::int64_t b, std::int64_t e) {
        double acc = 0.0;
        for (std::int64_t i = b; i < e; ++i) acc += static_cast<double>(i);
        return acc;
      });
  const double expected =
      static_cast<double>(kN - 1) * static_cast<double>(kN) / 2.0;
  EXPECT_DOUBLE_EQ(parallel, expected);
}

TEST(Scheduler, NestedParallelForDoesNotDeadlock) {
  Scheduler sched(test_profile(4));
  std::atomic<std::int64_t> total{0};
  sched.parallel_for(0, 16, 1, [&](std::int64_t ob, std::int64_t oe) {
    for (std::int64_t o = ob; o < oe; ++o) {
      sched.parallel_for(0, 64, 4, [&](std::int64_t b, std::int64_t e) {
        total.fetch_add(e - b);
      });
    }
  });
  EXPECT_EQ(total.load(), 16 * 64);
}

TEST(Scheduler, TaskExceptionPropagatesToWaiter) {
  Scheduler sched(test_profile(4));
  EXPECT_THROW(
      sched.parallel_for(0, 100, 1,
                         [&](std::int64_t b, std::int64_t) {
                           if (b == 50) throw NumericalError("boom");
                         }),
      NumericalError);
  // The scheduler must stay usable afterwards.
  std::atomic<std::int64_t> sum{0};
  sched.parallel_for(0, 10, 1,
                     [&](std::int64_t b, std::int64_t e) { sum += e - b; });
  EXPECT_EQ(sum.load(), 10);
}

TEST(Scheduler, ParallelForRunsOneCallPerGrainSizedChunk) {
  Scheduler sched(test_profile(4));
  std::atomic<int> calls{0};
  std::atomic<bool> misaligned{false};
  sched.parallel_for(0, 1000, 5, [&](std::int64_t b, std::int64_t e) {
    if (b % 5 != 0 || e - b != 5) misaligned.store(true);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 200);
  EXPECT_FALSE(misaligned.load());
}

TEST(Scheduler, HelpersRunChunks) {
  Scheduler sched(test_profile(4));
  // steal_count() counts chunks run by helper threads.  On a machine with
  // fewer cores than threads the caller can finish a region before any
  // helper is scheduled, so repeat until a helper takes a chunk.
  for (int round = 0; round < 50 && sched.steal_count() == 0; ++round) {
    std::atomic<std::int64_t> sum{0};
    sched.parallel_for(0, 1 << 14, 1, [&](std::int64_t b, std::int64_t e) {
      volatile double sink = 0.0;
      for (std::int64_t i = b; i < e; ++i) {
        sink = sink + static_cast<double>(i);
      }
      sum.fetch_add(e - b);
    });
    ASSERT_EQ(sum.load(), 1 << 14);
  }
  EXPECT_GT(sched.steal_count(), 0);
}

TEST(Scheduler, SingleThreadRunsInline) {
  Scheduler sched(test_profile(1));
  std::int64_t sum = 0;  // no atomics needed: everything runs inline
  sched.parallel_for(0, 1000, 10,
                     [&](std::int64_t b, std::int64_t e) { sum += e - b; });
  EXPECT_EQ(sum, 1000);
}

TEST(Scheduler, SpawnOverheadIsChargedPerChunk) {
  MachineProfile slow = test_profile(2);
  slow.spawn_overhead_ns = 200000;  // 0.2 ms per chunk, easily measurable
  Scheduler sched(slow);
  const auto t0 = std::chrono::steady_clock::now();
  sched.parallel_for(0, 20, 1, [](std::int64_t, std::int64_t) {});
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // 20 chunks of 0.2 ms over at most two threads.
  EXPECT_GE(std::chrono::duration<double>(elapsed).count(),
            20 * 0.0002 / 2 * 0.5);
}

TEST(Scheduler, ReduceSumIsBitwiseDeterministic) {
  // Alternating 1e16 and 1.0 with one summand per chunk: 1e16 + 1 rounds
  // back to 1e16, so any change in summation order changes the bits.
  Scheduler sched(test_profile(4));
  constexpr std::int64_t kN = 4096;
  const auto summand = [](std::int64_t i) { return i % 2 == 0 ? 1e16 : 1.0; };
  const auto reduce = [&] {
    return sched.parallel_reduce_sum(0, kN, 1,
                                     [&](std::int64_t b, std::int64_t e) {
                                       double acc = 0.0;
                                       for (std::int64_t i = b; i < e; ++i) {
                                         acc += summand(i);
                                       }
                                       return acc;
                                     });
  };
  double in_order = 0.0;
  for (std::int64_t i = 0; i < kN; ++i) in_order += summand(i);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (int repeat = 0; repeat < 100; ++repeat) {
    ASSERT_EQ(bits(reduce()), bits(in_order)) << "repeat " << repeat;
  }
  // From inside another region the team is busy, so the inline path runs
  // the reduction: same chunks, same order, same bits.
  double nested = 0.0;
  sched.parallel_for(0, 2, 1, [&](std::int64_t b, std::int64_t) {
    if (b == 0) nested = reduce();
  });
  EXPECT_EQ(bits(nested), bits(in_order));
}

TEST(Scheduler, ConcurrentCallersShareOneTeam) {
  // Client threads on one scheduler: one owns the team at a time, the
  // others run their regions inline.  Every region must cover its range
  // exactly once, and a client whose regions throw must not disturb the
  // others.
  Scheduler sched(test_profile(4));
  constexpr int kClients = 4;
  constexpr int kRegions = 50;
  constexpr std::int64_t kN = 1024;
  std::atomic<int> bad_regions{0};
  std::atomic<int> caught{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int r = 0; r < kRegions; ++r) {
        std::vector<std::atomic<int>> hits(kN);
        sched.parallel_for(0, kN, 8, [&](std::int64_t b, std::int64_t e) {
          for (std::int64_t i = b; i < e; ++i) {
            hits[static_cast<std::size_t>(i)].fetch_add(1);
          }
        });
        for (const auto& hit : hits) {
          if (hit.load() != 1) {
            bad_regions.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  clients.emplace_back([&] {
    for (int r = 0; r < kRegions; ++r) {
      try {
        sched.parallel_for(0, kN, 8, [](std::int64_t b, std::int64_t) {
          if (b == 512) throw NumericalError("client failure");
        });
      } catch (const NumericalError&) {
        caught.fetch_add(1);
      }
    }
  });
  for (auto& client : clients) client.join();
  EXPECT_EQ(bad_regions.load(), 0);
  EXPECT_EQ(caught.load(), kRegions);
}

// ------------------------------------------------------------ profiles --

TEST(Scheduler, ActiveWorkerThrottleNarrowsAndRestoresThePool) {
  Scheduler sched(test_profile(4));
  EXPECT_EQ(sched.active_workers(), 4);

  // Throttled to one worker, every index must still be covered exactly
  // once — the caller runs every chunk, nothing is lost.
  sched.set_active_workers(1);
  EXPECT_EQ(sched.active_workers(), 1);
  constexpr std::int64_t kN = 4096;
  std::vector<std::atomic<int>> hits(kN);
  sched.parallel_for(0, kN, 16, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }

  // Out-of-range requests clamp instead of throwing: the throttle models
  // a degraded machine, and a watchdog poking it must never kill the pool.
  sched.set_active_workers(0);
  EXPECT_EQ(sched.active_workers(), 1);
  sched.set_active_workers(99);
  EXPECT_EQ(sched.active_workers(), 4);

  // Restored team still covers ranges (helpers woke back up).
  std::vector<std::atomic<int>> again(kN);
  sched.parallel_for(0, kN, 16, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      again[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(again[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(Scheduler, ThrottleTogglesUnderConcurrentLoadWithoutLosingWork) {
  // Race the throttle against live parallel work: a driver thread flips
  // the active-worker limit while parallel_for regions run.  Every index
  // must be covered exactly once regardless of where the toggles land.
  Scheduler sched(test_profile(4));
  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    int width = 1;
    while (!stop.load(std::memory_order_acquire)) {
      sched.set_active_workers(width);
      width = width == 1 ? 4 : 1;
      std::this_thread::yield();
    }
  });
  constexpr std::int64_t kN = 2048;
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> hits(kN);
    sched.parallel_for(0, kN, 8, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      }
    });
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "round " << round << " index " << i;
    }
  }
  stop.store(true, std::memory_order_release);
  toggler.join();
  sched.set_active_workers(4);
}

TEST(MachineProfile, PresetsAreDistinctAndValid) {
  const auto names = profile_names();
  EXPECT_GE(names.size(), 4u);
  for (const auto& name : names) {
    const MachineProfile p = profile_by_name(name);
    EXPECT_GE(p.threads, 1) << name;
    EXPECT_GE(p.grain_rows, 1) << name;
  }
  EXPECT_THROW(profile_by_name("cray-1"), InvalidArgument);
  // The three paper testbeds must differ in scheduling character.
  const MachineProfile a = harpertown_profile();
  const MachineProfile b = barcelona_profile();
  const MachineProfile c = niagara_profile();
  EXPECT_NE(a.grain_rows, b.grain_rows);
  EXPECT_NE(b.spawn_overhead_ns, c.spawn_overhead_ns);
}

TEST(MachineProfile, DefaultNeverExceedsHardware) {
  // 0 means the hardware reports no count; the default then keeps 8.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (const MachineProfile& p : {MachineProfile{}, profile_by_name("default"),
                                  harpertown_profile()}) {
    EXPECT_GE(p.threads, 1);
    if (hw > 0) {
      EXPECT_LE(p.threads, hw);
    }
  }
}

TEST(MachineProfile, SerialProfileNeverSplits) {
  Scheduler sched(serial_profile());
  EXPECT_EQ(sched.thread_count(), 1);
}

}  // namespace
}  // namespace pbmg::rt
