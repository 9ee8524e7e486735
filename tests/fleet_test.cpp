// Fleet-serving suite: the byte-budgeted session cache (LRU eviction,
// SessionRef pinning, retired-generation reclaim) and batched solves
// (solve_batch: K solo solves under one pin).  The cache is shared by
// solve() sizes and solve_op() routed operators, so a stream of distinct
// operators stays inside the budget too.  Eviction must never destroy a
// pinned session, an evicted size must rebind to bit-identical solves,
// solve_batch must bitwise-match K solo solves under any thread count,
// count every RHS once and reject a malformed batch before touching any
// slot, and binds / batches / installs / trims must be race-free under
// concurrent clients (this suite runs under TSan and UBSan in CI).

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/solve_service.h"
#include "grid/level.h"
#include "support/rng.h"
#include "tune/accuracy.h"
#include "tune/trainer.h"

namespace pbmg {
namespace {

constexpr int kMaxLevel = 4;

Engine& engine() {
  static Engine instance([] {
    rt::MachineProfile p;
    p.name = "fleet-test";
    p.threads = 4;
    p.grain_rows = 4;
    return p;
  }());
  return instance;
}

const tune::TunedConfig& trained() {
  static const tune::TunedConfig config = [] {
    tune::TrainerOptions options;
    options.max_level = kMaxLevel;
    options.seed = 1313;
    tune::Trainer trainer(options, engine());
    return trainer.train();
  }();
  return config;
}

bool bitwise_equal(const Grid2D& a, const Grid2D& b) {
  return a.n() == b.n() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// A jump-like operator of side n: a box of random contrast in a unit
/// background, its corners on x, y ∈ {¼, ½, ¾} (grid lines of every
/// level, as for the canonical jump family).  Every call allocates fresh
/// coefficients, so every operator is a distinct routing key.
grid::StencilOp jump_like(int n, Rng& rng) {
  constexpr double kSpans[3][2] = {{0.25, 0.5}, {0.25, 0.75}, {0.5, 0.75}};
  const double* xs = kSpans[rng.uniform_index(3)];
  const double* ys = kSpans[rng.uniform_index(3)];
  const double contrast = rng.uniform(10.0, 1000.0);
  return grid::StencilOp::from_coefficient(n, [=](double x, double y) {
    const bool inside = x >= xs[0] && x < xs[1] && y >= ys[0] && y < ys[1];
    return inside ? contrast : 1.0;
  });
}

/// Footprint of one bound session of side `n` under the trained config,
/// measured on a throwaway unlimited service.
std::size_t session_footprint(int n) {
  SolveService probe(engine(), trained());
  return probe.session(n)->footprint_bytes();
}

// ---------------------------------------------------------- eviction --

TEST(FleetCache, ByteBudgetBoundsResidentSessions) {
  const std::size_t biggest = session_footprint(size_of_level(kMaxLevel));
  ServicePolicy policy;
  policy.max_session_bytes = biggest + biggest / 10;  // room for one big only
  SolveService service(engine(), trained(), policy);
  // Bind every size, largest last; unpinned smaller sessions must be
  // evicted to keep the resident bytes bounded.
  for (int level = 2; level <= kMaxLevel; ++level) {
    service.session(size_of_level(level));
  }
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.session_bytes, policy.max_session_bytes);
  EXPECT_LT(stats.sessions, static_cast<std::size_t>(kMaxLevel - 1));
}

TEST(FleetCache, SessionCountCapEvictsLeastRecentlyUsed) {
  ServicePolicy policy;
  policy.max_sessions = 2;
  SolveService service(engine(), trained(), policy);
  service.session(size_of_level(2));
  service.session(size_of_level(3));
  // Touch level 2 so level 3 is the LRU victim when level 4 binds.
  service.session(size_of_level(2));
  service.session(size_of_level(4));
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sessions, 2u);
  EXPECT_EQ(stats.evictions, 1);
  // The victim must have been level 3 (stale), not the just-touched
  // level 2 (which a key-ordered sweep would have picked first): level 2
  // is still cached, so re-binding it inserts nothing and evicts nothing.
  service.session(size_of_level(2));
  EXPECT_EQ(service.stats().sessions, 2u);
  EXPECT_EQ(service.stats().evictions, 1);
}

TEST(FleetCache, PinnedSessionsAreNeverEvicted) {
  ServicePolicy policy;
  policy.max_sessions = 1;
  SolveService service(engine(), trained(), policy);
  SessionRef small = service.session(size_of_level(2));
  SessionRef mid = service.session(size_of_level(3));
  // Both pinned: the cap is unenforceable and the cache must prefer
  // overshooting the budget to destroying a session in use.
  EXPECT_EQ(service.stats().sessions, 2u);
  EXPECT_EQ(service.stats().evictions, 0);
  EXPECT_EQ(small->n(), size_of_level(2));
  EXPECT_EQ(mid->n(), size_of_level(3));
  // Dropping one pin makes it evictable; the next bind drains the cache
  // back toward the cap and the still-pinned session survives.
  small = SessionRef();
  const SessionRef big = service.session(size_of_level(4));
  EXPECT_GT(service.stats().evictions, 0);
  EXPECT_EQ(mid->n(), size_of_level(3));  // pinned ⇒ alive and usable
}

TEST(FleetCache, EvictedSizeRebindsToBitIdenticalSolves) {
  ServicePolicy policy;
  policy.max_sessions = 1;
  SolveService service(engine(), trained(), policy);
  const int n = size_of_level(3);
  Rng rng(505);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  SolveRequest request;
  request.accuracy_index = trained().accuracy_count() - 1;
  Grid2D first(n, 0.0);
  first.copy_from(problem.x0);
  service.solve(first, problem.b, request);
  // Evict the size by binding another, then rebind: the fresh session
  // must reproduce the retired one's arithmetic exactly.
  service.session(size_of_level(4));
  ASSERT_GT(service.stats().evictions, 0);
  Grid2D second(n, 0.0);
  second.copy_from(problem.x0);
  service.solve(second, problem.b, request);
  EXPECT_TRUE(bitwise_equal(first, second));
}

TEST(FleetCache, RoutedOperatorsShareTheByteBudget) {
  // Distinct operators through solve_op must live in the same budgeted
  // cache as solve()'s sessions: counted in session_bytes, evicted LRU
  // first, and never evicted while a routed solve is in flight on them.
  // A serial engine keeps each client's sweeps on its own thread, so the
  // in-flight phase below races two clients, not a shared worker pool.
  Engine serial(rt::serial_profile());
  constexpr int kOperators = 10000;
  const int n = size_of_level(kMaxLevel);
  Rng rng(909);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  SolveRequest easy;
  easy.target_accuracy = 10.0;
  const auto solve_op = [&](SolveService& service, const grid::StencilOp& op,
                            const SolveRequest& request) {
    Grid2D x(n, 0.0);
    x.copy_from(problem.x0);
    return service.solve_op(op, x, problem.b, request);
  };
  std::size_t slot_bytes = 0;
  {
    SolveService probe(serial, trained());
    solve_op(probe, jump_like(n, rng), easy);
    slot_bytes = probe.stats().session_bytes;
  }
  ASSERT_GT(slot_bytes, 0u);

  ServicePolicy policy;
  policy.max_session_bytes = 4 * slot_bytes;
  SolveService service(serial, trained(), policy);
  for (int i = 0; i < kOperators; ++i) {
    solve_op(service, jump_like(n, rng), easy);
    const std::size_t resident = service.stats().session_bytes;
    ASSERT_LE(resident, policy.max_session_bytes + slot_bytes)
        << "after operator " << i;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.routed_requests, kOperators);
  EXPECT_EQ(stats.failures, 0);
  EXPECT_GE(stats.evictions, kOperators - 4);
  EXPECT_LE(stats.sessions, 5u);
  EXPECT_EQ(service.metrics_snapshot().gauges.at("pbmg_session_bytes"),
            static_cast<double>(service.stats().session_bytes));

  // A routed slot pinned by an in-flight solve is never the victim.  One
  // thread runs an unreachable target through the whole iteration budget
  // while the main thread churns operators through a one-slot budget;
  // the pinned operator's slot must still be cached afterwards, so
  // re-serving it binds (and evicts) nothing.  The verdict only counts
  // if the long solve was still running when it was taken; each
  // inconclusive attempt doubles the budget.
  SolveRequest unreachable;
  unreachable.target_accuracy = 1e300;
  bool conclusive = false;
  for (int budget = 2000; !conclusive && budget <= 64000; budget *= 2) {
    ServicePolicy one_slot;
    one_slot.max_session_bytes = slot_bytes;
    SolveService pinned(serial, trained(), one_slot);
    RoutePolicy route;
    route.max_iterations = budget;
    pinned.enable_operator_routing(route, nullptr);
    const grid::StencilOp held = jump_like(n, rng);
    std::atomic<bool> finished{false};
    std::thread long_solve([&] {
      solve_op(pinned, held, unreachable);
      finished.store(true, std::memory_order_release);
    });
    while (pinned.stats().sessions == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    for (int i = 0; i < 16; ++i) solve_op(pinned, jump_like(n, rng), easy);
    const ServiceStats before = pinned.stats();
    solve_op(pinned, held, easy);
    const ServiceStats after = pinned.stats();
    conclusive = !finished.load(std::memory_order_acquire);
    long_solve.join();
    if (!conclusive) continue;
    EXPECT_GT(before.evictions, 0);
    EXPECT_EQ(after.evictions, before.evictions)
        << "the in-flight operator's slot was evicted and rebound";
    EXPECT_EQ(after.session_bytes, before.session_bytes);
  }
  EXPECT_TRUE(conclusive) << "the long routed solve never outlasted the "
                             "churn; no verdict on in-flight pinning";
}

// ------------------------------------------------------ batched solves --

TEST(FleetBatch, BatchBitwiseMatchesSoloAcrossThreadCounts) {
  constexpr int kBatch = 4;
  for (const int threads : {1, 4}) {
    Engine local([threads] {
      rt::MachineProfile p;
      p.name = "fleet-batch-" + std::to_string(threads) + "t";
      p.threads = threads;
      p.grain_rows = 4;
      return p;
    }());
    SolveService service(local, trained());
    const int n = size_of_level(kMaxLevel);
    Rng rng(606);
    auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
    for (const bool fmg : {false, true}) {
      SolveRequest request;
      request.accuracy_index = 0;
      request.fmg = fmg;
      Grid2D solo(n, 0.0);
      solo.copy_from(problem.x0);
      service.solve(solo, problem.b, request);

      std::vector<Grid2D> batch(kBatch, Grid2D(n, 0.0));
      std::vector<Grid2D*> xs;
      for (auto& x : batch) {
        x.copy_from(problem.x0);
        xs.push_back(&x);
      }
      const std::vector<SolveStats> stats =
          service.solve_batch(xs, problem.b, request);
      ASSERT_EQ(stats.size(), static_cast<std::size_t>(kBatch));
      for (int k = 0; k < kBatch; ++k) {
        EXPECT_TRUE(bitwise_equal(batch[k], solo))
            << "threads=" << threads << " fmg=" << fmg << " slot=" << k;
        EXPECT_EQ(stats[k].iterations, stats[0].iterations);
        EXPECT_EQ(stats[k].generation, 1);
      }
    }
  }
}

TEST(FleetBatch, BatchAccountingCountsEveryRhsAndOneLatencySample) {
  Engine local([] {
    rt::MachineProfile p;
    p.name = "fleet-batch-metrics";
    p.threads = 2;
    p.grain_rows = 4;
    return p;
  }());
  const int n = size_of_level(3);
  Rng rng(707);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  constexpr int kBatch = 3;
  for (const bool fmg : {false, true}) {
    SCOPED_TRACE(fmg ? "fmg" : "v");
    SolveService service(local, trained());
    SolveRequest request;
    request.accuracy_index = 0;
    request.fmg = fmg;
    std::vector<Grid2D> batch(kBatch, Grid2D(n, 0.0));
    std::vector<Grid2D*> xs;
    for (auto& x : batch) {
      x.copy_from(problem.x0);
      xs.push_back(&x);
    }
    const std::vector<SolveStats> stats =
        service.solve_batch(xs, problem.b, request);
    EXPECT_EQ(service.stats().requests, kBatch);
    const obs::RegistrySnapshot snapshot = service.metrics_snapshot();
    EXPECT_EQ(
        snapshot.counters.at("pbmg_solve_requests_total{outcome=\"ok\"}"),
        kBatch);
    // One wall-clock, one healthy latency sample — K per-RHS samples would
    // overcount the histogram the drift watcher reads.
    const std::string series = "pbmg_solve_latency_seconds{n=\"" +
                               std::to_string(n) + "\",acc=\"0\"}";
    EXPECT_EQ(snapshot.histograms.at(series).count, 1);
    ASSERT_TRUE(snapshot.histograms.count("pbmg_batch_size"));
    EXPECT_EQ(snapshot.histograms.at("pbmg_batch_size").count, 1);
    EXPECT_DOUBLE_EQ(snapshot.histograms.at("pbmg_batch_size").sum, kBatch);
    // Each slot reports its own solve time, inside the batch's wall-clock.
    const double batch_seconds = snapshot.histograms.at(series).sum;
    ASSERT_EQ(stats.size(), static_cast<std::size_t>(kBatch));
    double slot_sum = 0.0;
    for (int k = 0; k < kBatch; ++k) {
      EXPECT_GT(stats[k].seconds, 0.0) << "slot " << k;
      EXPECT_LE(stats[k].seconds, batch_seconds) << "slot " << k;
      slot_sum += stats[k].seconds;
    }
    EXPECT_LE(slot_sum, batch_seconds);
  }
}

TEST(FleetBatch, MalformedBatchFailsBeforeAnySlotIsTouched) {
  SolveService service(engine(), trained());
  const int n = size_of_level(kMaxLevel);
  Rng rng(808);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  Grid2D wrong_size(size_of_level(kMaxLevel - 1), 0.0);
  std::int64_t failures = 0;
  for (const bool fmg : {false, true}) {
    for (Grid2D* bad : {static_cast<Grid2D*>(nullptr), &wrong_size}) {
      SCOPED_TRACE(std::string(fmg ? "fmg" : "v") +
                   (bad == nullptr ? " null slot" : " wrong-size slot"));
      SolveRequest request;
      request.accuracy_index = 0;
      request.fmg = fmg;
      Grid2D first(n, 0.0);
      first.copy_from(problem.x0);
      Grid2D last(n, 0.0);
      last.copy_from(problem.x0);
      const std::vector<Grid2D*> xs = {&first, bad, &last};
      EXPECT_THROW(service.solve_batch(xs, problem.b, request),
                   InvalidArgument);
      EXPECT_TRUE(bitwise_equal(first, problem.x0));
      EXPECT_TRUE(bitwise_equal(last, problem.x0));
      failures += static_cast<std::int64_t>(xs.size());
      EXPECT_EQ(service.stats().failures, failures);
    }
  }
  EXPECT_EQ(service.stats().requests, 0);
}

// ---------------------------------------------------------------- races --

TEST(FleetRace, BindsBatchesInstallsAndTrimsAreRaceFree) {
  // Client threads bind, solve, and batch under a byte budget tight
  // enough to force continuous eviction, while the main thread installs
  // fresh generations and trims.  Identical configs across generations
  // mean every result must still carry the golden bits — and TSan in CI
  // patrols the cache bookkeeping itself.
  Engine local([] {
    rt::MachineProfile p;
    p.name = "fleet-race";
    p.threads = 4;
    p.grain_rows = 4;
    return p;
  }());
  ServicePolicy policy;
  policy.max_sessions = 1;  // every size change evicts
  SolveService service(local, trained(), policy);

  struct Golden {
    PoissonProblem problem;
    Grid2D bits;
  };
  std::vector<Golden> goldens;
  {
    Engine serial(rt::serial_profile());
    SolveService golden_service(serial, trained());
    Rng rng(808);
    for (int level = 2; level <= kMaxLevel; ++level) {
      const int n = size_of_level(level);
      Golden g{make_problem(n, InputDistribution::kUnbiased, rng),
               Grid2D(n, 0.0)};
      g.bits.copy_from(g.problem.x0);
      SolveRequest request;
      request.accuracy_index = 0;
      golden_service.solve(g.bits, g.problem.b, request);
      goldens.push_back(std::move(g));
    }
  }

  constexpr int kClients = 4;
  constexpr int kItersPerClient = 8;
  std::atomic<bool> go{false};
  std::atomic<int> mismatches{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      SolveRequest request;
      request.accuracy_index = 0;
      for (int i = 0; i < kItersPerClient; ++i) {
        const Golden& g = goldens[(c + i) % goldens.size()];
        const int n = g.bits.n();
        if ((c + i) % 2 == 0) {
          Grid2D x(n, 0.0);
          x.copy_from(g.problem.x0);
          service.solve(x, g.problem.b, request);
          if (!bitwise_equal(x, g.bits)) mismatches.fetch_add(1);
        } else {
          std::vector<Grid2D> batch(3, Grid2D(n, 0.0));
          std::vector<Grid2D*> xs;
          for (auto& x : batch) {
            x.copy_from(g.problem.x0);
            xs.push_back(&x);
          }
          service.solve_batch(xs, g.problem.b, request);
          for (const Grid2D& x : batch) {
            if (!bitwise_equal(x, g.bits)) mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  std::thread swapper([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    while (!done.load(std::memory_order_acquire)) {
      service.install(trained());
      service.trim();
      std::this_thread::yield();
    }
  });
  go.store(true, std::memory_order_release);
  for (auto& client : clients) client.join();
  done.store(true, std::memory_order_release);
  swapper.join();

  EXPECT_EQ(mismatches.load(), 0);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failures, 0);
  EXPECT_EQ(stats.requests, kClients * kItersPerClient * 2);  // 1 or 3 RHS
  // After the storm every generation but the live one is unpinned; one
  // more trim reclaims them all.
  service.trim();
  EXPECT_EQ(service.stats().retired_generations, 0u);
}

}  // namespace
}  // namespace pbmg
