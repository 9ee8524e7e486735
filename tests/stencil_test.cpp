// Convergence regression tests for the variable-coefficient operator
// layer: V-cycle and FMG must contract the error for every operator
// family at every grid size the trainer visits, the direct solver must
// reproduce manufactured solutions exactly, per-operator trained sessions
// must deliver their tuned accuracies, and a classical-coarse tuned cell
// must be bitwise a classical V-cycle.  Fixed seeds throughout; tolerance
// rationale inline at each assertion.

#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/solve_session.h"
#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/problem.h"
#include "grid/stencil_op.h"
#include "solvers/multigrid.h"
#include "test_problems.h"
#include "tune/accuracy.h"
#include "tune/executor.h"
#include "tune/trainer.h"

namespace pbmg {
namespace {

Engine& engine() {
  static Engine instance([] {
    rt::MachineProfile p;
    p.name = "stencil-test";
    p.threads = 4;
    p.grain_rows = 2;
    return EngineOptions{p, {}, {}, 0};
  }());
  return instance;
}

rt::Scheduler& sched() { return engine().scheduler(); }

constexpr int kFamilyCount =
    static_cast<int>(std::size(kAllOperatorFamilies));

std::string family_label(int index) {
  return testing::gtest_name(
      to_string(kAllOperatorFamilies[static_cast<std::size_t>(index)]));
}

// Shared manufactured-problem helpers (tests/test_problems.h), bound to
// this suite's engine.
tune::TrainingInstance make_instance(OperatorFamily family, int n,
                                     std::uint64_t seed) {
  return testing::make_family_instance(family, n, seed, sched());
}

double error_of(const tune::TrainingInstance& inst, const Grid2D& x) {
  return testing::error_against_exact(inst, x, sched());
}

/// Cycle options this suite certifies per family: the extreme-anisotropy
/// families are *only* tractable with line smoothing (that failure is
/// pinned in line_relax_test's PointSmoothingStallsAtExtremeAnisotropy),
/// so their convergence contract runs the smoother a tuned table would
/// select — x-lines for 1000:1 (the strong direction lives in the rows),
/// alternating zebra for the direction-flipping operator.  Everything
/// else keeps the paper's point red-black SOR.
solvers::VCycleOptions family_cycle_options(OperatorFamily family) {
  solvers::VCycleOptions options;
  switch (family) {
    case OperatorFamily::kAnisotropic1000:
      options.relaxation = solvers::RelaxKind::kLineX;
      break;
    case OperatorFamily::kAnisoRotated:
    case OperatorFamily::kAnisoTheta30:
    case OperatorFamily::kAnisoTheta45:
      options.relaxation = solvers::RelaxKind::kLineZebraAlt;
      break;
    default:
      break;
  }
  return options;
}

/// Hierarchy this suite certifies per family: the genuinely rotated
/// (9-point) families run on Galerkin RAP coarse operators — the ladder a
/// tuned table discovers for them — because the averaged 5-point ladder
/// drops their corner couplings and only limps to high accuracy;
/// everything else keeps the historical averaged-coefficient ladder.
grid::StencilHierarchy family_hierarchy(OperatorFamily family, int n) {
  const grid::Coarsening mode = (family == OperatorFamily::kAnisoTheta30 ||
                                 family == OperatorFamily::kAnisoTheta45)
                                    ? grid::Coarsening::kRap
                                    : grid::Coarsening::kAverage;
  return grid::StencilHierarchy(make_operator(n, family), mode);
}

/// Per-family V-cycle contraction bound (error reduction per cycle) under
/// family_cycle_options.  Rationale:
///  - poisson / smooth: classical V(1,1) with red-black SOR contracts at
///    ~0.1–0.2 per cycle for smooth coefficients; 0.5 leaves headroom for
///    the smallest grids, where the boundary dominates.
///  - aniso (32:1): point relaxation smooths the weak direction poorly;
///    measured V(1,1) rates at ε = 1/32 are ~0.75–0.80 per cycle across
///    these sizes, bounded by 0.9 to absorb instance-to-instance
///    variation.  (line_relax_test certifies the ~0.2 line-smoothed rate.)
///  - aniso1000 / aniso-rot: line smoothing restores strong rates
///    (~0.1–0.5 measured); 0.65 absorbs the rotated family's half-wasted
///    sweep passes at small N.
///  - jump (contrast 100): the error iteration is non-normal, so this
///    per-cycle bound does not apply — the test body measures the
///    asymptotic geometric-mean rate instead (see comment there).
double contraction_bound(OperatorFamily family) {
  switch (family) {
    case OperatorFamily::kPoisson:
    case OperatorFamily::kSmoothVariable:
      return 0.5;
    case OperatorFamily::kJumpCoefficient:
    case OperatorFamily::kAnisotropic:
      return 0.9;
    case OperatorFamily::kAnisotropic1000:
    case OperatorFamily::kAnisoRotated:
      return 0.65;
    case OperatorFamily::kAnisoTheta30:
    case OperatorFamily::kAnisoTheta45:
      // Rotated anisotropy at ε = 10⁻²: alternating zebra lines cannot
      // follow the characteristic exactly (it lies between the axes —
      // worst at 45°), but Galerkin RAP coarse operators keep the
      // correction honest; measured rates are ~0.3–0.7 per cycle.
      return 0.9;
  }
  return 0.9;
}

// The trainer visits every level in [2, max_level]; sweep the sizes its
// default test-scale runs touch (N = 5 … 65).
class StencilConvergence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    Cases, StencilConvergence,
    ::testing::Combine(::testing::Range(0, kFamilyCount),
                       ::testing::Values(2, 3, 4, 5, 6)),
    [](const auto& info) {
      return family_label(std::get<0>(info.param)) + "_L" +
             std::to_string(std::get<1>(info.param));
    });

TEST_P(StencilConvergence, VCycleContractsError) {
  const auto family = kAllOperatorFamilies[static_cast<std::size_t>(
      std::get<0>(GetParam()))];
  const int n = size_of_level(std::get<1>(GetParam()));
  const auto inst = make_instance(family, n, 2026'07'01);
  if (inst.initial_error == 0.0) GTEST_SKIP() << "degenerate zero instance";
  const grid::StencilHierarchy ops = family_hierarchy(family, n);
  // Near the rounding floor the ratio test is meaningless: once the error
  // is ~1e-12 of the start it is dominated by accumulation noise.
  const double floor = 1e-12 * inst.initial_error;
  const auto run_cycles = [&](Grid2D& x, int count) {
    for (int c = 0; c < count; ++c) {
      solvers::vcycle(ops, x, inst.problem.b, family_cycle_options(family),
                      sched(), engine().direct(), engine().scratch());
    }
  };

  Grid2D x = inst.problem.x0;
  if (family == OperatorFamily::kJumpCoefficient) {
    // The 100× jump makes the error iteration strongly non-normal at
    // small N: individual cycles can transiently *grow* the error norm
    // even though the spectral radius is < 1.  Certify the asymptotic
    // geometric-mean rate over six cycles after a three-cycle transient
    // instead of per-cycle monotonicity (same pattern as the existing
    // ContractionSweep), bounded by 0.95 — still > 10^1.3 gain per 60
    // cycles, i.e. genuine convergence, which the FMG test below then
    // drives to 1e-8.
    run_cycles(x, 3);
    const double e_start = error_of(inst, x);
    if (e_start <= floor) return;  // already at machine precision
    run_cycles(x, 6);
    const double e_end = error_of(inst, x);
    if (e_end <= floor) return;
    const double rate = std::pow(e_end / e_start, 1.0 / 6.0);
    EXPECT_LT(rate, 0.95) << "jump N=" << n;
    return;
  }
  // The normal-behaved families must contract on *every* cycle, at every
  // size the trainer visits (bounds: see contraction_bound).
  const double bound = contraction_bound(family);
  double prev = inst.initial_error;
  for (int cycle = 1; cycle <= 6; ++cycle) {
    run_cycles(x, 1);
    const double err = error_of(inst, x);
    if (err <= floor) break;
    EXPECT_LE(err, bound * prev)
        << to_string(family) << " N=" << n << " cycle " << cycle;
    prev = err;
  }
}

TEST_P(StencilConvergence, FmgThenVCyclesReachHighAccuracy) {
  const auto family = kAllOperatorFamilies[static_cast<std::size_t>(
      std::get<0>(GetParam()))];
  const int n = size_of_level(std::get<1>(GetParam()));
  const auto inst = make_instance(family, n, 2026'07'02);
  if (inst.initial_error == 0.0) GTEST_SKIP() << "degenerate zero instance";
  const grid::StencilHierarchy ops = family_hierarchy(family, n);
  Grid2D x = inst.problem.x0;
  // One FMG ramp plus V-cycles: with the weakest certified per-cycle
  // contraction (0.9, see contraction_bound) 200 cycles still guarantee
  // a 10^8 reduction; the well-conditioned families reach it within ~15.
  const auto outcome = solvers::solve_reference_fmg(
      ops, x, inst.problem.b, family_cycle_options(family), 200,
      [&](const Grid2D& it, int) {
        return error_of(inst, it) <= 1e-8 * inst.initial_error;
      },
      sched(), engine().direct(), engine().scratch());
  EXPECT_TRUE(outcome.converged)
      << to_string(family) << " N=" << n << " stalled at relative error "
      << error_of(inst, x) / inst.initial_error;
}

TEST_P(StencilConvergence, DirectSolveReproducesManufacturedSolution) {
  const auto family = kAllOperatorFamilies[static_cast<std::size_t>(
      std::get<0>(GetParam()))];
  const int n = size_of_level(std::get<1>(GetParam()));
  if (n > 33) GTEST_SKIP() << "O(N^4) factorization; covered below 65";
  const auto inst = make_instance(family, n, 2026'07'03);
  const grid::StencilOp op = make_operator(n, family);
  Grid2D x = inst.problem.x0;
  engine().direct().solve(op, inst.problem.b, x);
  // Banded Cholesky is backward stable: the error is O(κ·eps)·‖x‖, with
  // κ ≲ 1e4 at these sizes (1e4·1e-16 = 1e-12; 1e-9 covers the jump
  // family's extra 100× contrast in κ).
  EXPECT_LE(error_of(inst, x), 1e-9 * (inst.initial_error + 1.0))
      << to_string(family) << " N=" << n;
}

// ------------------------------------------------------ tuned sessions --

tune::TrainerOptions tiny_training(OperatorFamily family) {
  tune::TrainerOptions options;
  options.accuracies = {10.0, 1e3, 1e5};
  options.max_level = 4;  // N <= 17: trains in milliseconds
  // Two instances per level: a single-instance table can certify an
  // iteration count that a held-out instance misses by a hair, which is
  // exactly the flakiness this suite must not have.
  options.training_instances = 2;
  options.train_fmg = true;
  options.seed = 77;
  options.op_family = family;
  return options;
}

tune::TunedConfig train_for(OperatorFamily family) {
  tune::Trainer trainer(tiny_training(family), engine());
  return trainer.train();
}

class StencilSession : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Families, StencilSession,
                         ::testing::Range(0, kFamilyCount),
                         [](const auto& info) {
                           return family_label(info.param);
                         });

TEST_P(StencilSession, PerOperatorTrainedSessionDeliversTunedAccuracies) {
  const auto family =
      kAllOperatorFamilies[static_cast<std::size_t>(GetParam())];
  const tune::TunedConfig config = train_for(family);
  EXPECT_EQ(config.op_family, to_string(family));
  const int n = size_of_level(4);
  SolveSession session(engine(), config, make_operator(n, family));
  const auto inst = make_instance(family, n, 2026'07'04);
  for (int i = 0; i < config.accuracy_count(); ++i) {
    Grid2D x = inst.problem.x0;
    session.solve_v(x, inst.problem.b, i);
    const double achieved = tune::accuracy_of(inst, x, sched());
    // The trainer certifies each cell on its training inputs; a held-out
    // instance of the same (operator, distribution, size) scenario may
    // land somewhat below, but an order of magnitude is a training bug
    // (same 10× contract run_tuned_v enforces in the bench harness).
    EXPECT_GE(achieved, 0.1 * config.accuracies()[static_cast<std::size_t>(i)])
        << to_string(family) << " accuracy index " << i;
  }
}

TEST_P(StencilSession, ConcurrentStencilSolvesAreBitIdenticalToSerial) {
  const auto family =
      kAllOperatorFamilies[static_cast<std::size_t>(GetParam())];
  const tune::TunedConfig config = train_for(family);
  const int n = size_of_level(4);
  SolveSession session(engine(), config, make_operator(n, family));
  const auto inst = make_instance(family, n, 2026'07'05);
  const int top = config.accuracy_count() - 1;

  Grid2D reference = inst.problem.x0;
  session.solve_v(reference, inst.problem.b, top);

  constexpr int kThreads = 4;
  std::vector<Grid2D> results(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Grid2D x = inst.problem.x0;
      session.solve_v(x, inst.problem.b, top);
      results[static_cast<std::size_t>(t)] = std::move(x);
    });
  }
  for (auto& w : workers) w.join();
  for (const Grid2D& x : results) {
    ASSERT_EQ(0, std::memcmp(x.data(), reference.data(),
                             reference.size() * sizeof(double)))
        << to_string(family);
  }
}

// ------------------------------------------------- classical coarse call --

TEST(ClassicalCoarse, RecurseClassicalCellIsBitwiseAClassicalVCycle) {
  // A kRecurse cell with sub_accuracy = kClassicalCoarse must execute the
  // classical V-cycle exactly: one body per level, direct at the base,
  // recurse-ω pre/post sweeps — i.e. solvers::vcycle with matching
  // options.  This cell type is what lets per-operator tuned tables
  // escape the accuracy ladder's coarse-solve floor on slowly converging
  // operators (tune/table.h); pin its semantics bit for bit.
  const auto family = OperatorFamily::kAnisotropic;
  const int n = size_of_level(5);
  const auto inst = make_instance(family, n, 2026'07'08);
  const grid::StencilHierarchy ops(make_operator(n, family));

  // Both for the historical point-SOR shape and for a line smoother: the
  // cell's smoother must travel down the classical ramp exactly as
  // VCycleOptions::relaxation would.
  for (const solvers::RelaxKind smoother :
       {solvers::RelaxKind::kSor, solvers::RelaxKind::kLineZebraAlt}) {
    tune::TunedConfig config(tune::paper_accuracies(), 5);
    for (int level = 2; level <= 5; ++level) {
      for (int i = 0; i < config.accuracy_count(); ++i) {
        tune::VEntry cell;
        cell.choice.kind = tune::VKind::kRecurse;
        cell.choice.sub_accuracy = tune::kClassicalCoarse;
        cell.choice.iterations = 3;
        cell.choice.smoother = smoother;
        cell.trained = true;
        config.v_entry(level, i) = cell;
      }
    }
    const tune::TunedExecutor executor(config, engine(), ops);
    Grid2D via_executor = inst.problem.x0;
    executor.run_v(via_executor, inst.problem.b, 0);

    solvers::VCycleOptions options;  // defaults: 1 pre/post sweep at 1.15,
    options.omega = engine().relax().recurse_omega;  // direct_level 1
    options.relaxation = smoother;
    Grid2D via_vcycle = inst.problem.x0;
    for (int c = 0; c < 3; ++c) {
      solvers::vcycle(ops, via_vcycle, inst.problem.b, options, sched(),
                      engine().direct(), engine().scratch());
    }
    ASSERT_EQ(0, std::memcmp(via_executor.data(), via_vcycle.data(),
                             via_vcycle.size() * sizeof(double)))
        << solvers::to_string(smoother);
  }
}

}  // namespace
}  // namespace pbmg
