// Tests for the solver layer: relaxation kernels, the cached/uncached
// direct solver, V-cycles, full multigrid, and the reference
// iterate-until-converged drivers the paper benchmarks against.  Also
// the variable-coefficient kernels' exact-equality contracts: results
// do not depend on the thread count or the run, and the kernel policy
// accepts only the legacy layout.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "fft/fast_poisson.h"
#include "grid/grid_ops.h"
#include "grid/scratch.h"
#include "grid/level.h"
#include "grid/problem.h"
#include "grid/stencil_op.h"
#include "runtime/scheduler.h"
#include "solvers/direct.h"
#include "solvers/line_relax.h"
#include "solvers/multigrid.h"
#include "solvers/relax.h"
#include "support/rng.h"

namespace pbmg::solvers {
namespace {

rt::Scheduler& sched() {
  static rt::Scheduler instance([] {
    rt::MachineProfile p;
    p.name = "solver-test";
    p.threads = 4;
    p.grain_rows = 4;
    return p;
  }());
  return instance;
}

/// Error of x against the exact discrete solution of (b, boundary-of-x0).
double solution_error(const PoissonProblem& problem, const Grid2D& x) {
  fft::FastPoissonSolver oracle(problem.n());
  Grid2D x_opt(problem.n(), 0.0);
  oracle.solve(problem.b, problem.x0, x_opt, sched());
  return grid::norm2_diff_interior(x, x_opt, sched());
}

grid::ScratchPool& pool() {
  static grid::ScratchPool instance;
  return instance;
}

PoissonProblem test_problem(int n, std::uint64_t seed,
                            InputDistribution dist = InputDistribution::kUnbiased) {
  Rng rng(seed);
  return make_problem(n, dist, rng);
}

// ---------------------------------------------------------------- relax --

TEST(Relax, OmegaOptFormula) {
  // ω = 2/(1 + sin(πh)).
  EXPECT_NEAR(omega_opt(3), 2.0 / (1.0 + std::sin(M_PI / 2)), 1e-12);
  EXPECT_NEAR(omega_opt(65), 2.0 / (1.0 + std::sin(M_PI / 64)), 1e-12);
  EXPECT_GT(omega_opt(1025), 1.9);  // approaches 2 as h → 0
  EXPECT_THROW(omega_opt(2), InvalidArgument);
}

TEST(Relax, SorSweepReducesError) {
  auto problem = test_problem(33, 11);
  Grid2D x = problem.x0;
  const double e0 = solution_error(problem, x);
  for (int s = 0; s < 10; ++s) sor_sweep(x, problem.b, omega_opt(33), sched());
  EXPECT_LT(solution_error(problem, x), e0);
}

TEST(Relax, SorConvergesToExactSolution) {
  auto problem = test_problem(9, 12);
  Grid2D x = problem.x0;
  const double e0 = solution_error(problem, x);
  for (int s = 0; s < 300; ++s) sor_sweep(x, problem.b, omega_opt(9), sched());
  EXPECT_LT(solution_error(problem, x), 1e-9 * e0);
}

TEST(Relax, SorWithOptimalOmegaBeatsGaussSeidel) {
  auto problem = test_problem(33, 13);
  Grid2D x_opt_w = problem.x0;
  Grid2D x_gs = problem.x0;
  for (int s = 0; s < 60; ++s) {
    sor_sweep(x_opt_w, problem.b, omega_opt(33), sched());
    sor_sweep(x_gs, problem.b, 1.0, sched());
  }
  EXPECT_LT(solution_error(problem, x_opt_w), solution_error(problem, x_gs));
}

TEST(Relax, SorPreservesBoundary) {
  auto problem = test_problem(17, 14);
  Grid2D x = problem.x0;
  sor_sweep(x, problem.b, 1.15, sched());
  for (int j = 0; j < 17; ++j) {
    ASSERT_EQ(x(0, j), problem.x0(0, j));
    ASSERT_EQ(x(16, j), problem.x0(16, j));
  }
}

TEST(Relax, JacobiSweepReducesErrorAndPreservesBoundary) {
  auto problem = test_problem(17, 15);
  Grid2D x = problem.x0;
  Grid2D scratch(17, 0.0);
  const double e0 = solution_error(problem, x);
  for (int s = 0; s < 40; ++s) {
    jacobi_sweep(x, problem.b, kJacobiOmega, scratch, sched());
  }
  EXPECT_LT(solution_error(problem, x), e0);
  for (int i = 0; i < 17; ++i) {
    ASSERT_EQ(x(i, 0), problem.x0(i, 0));
    ASSERT_EQ(x(i, 16), problem.x0(i, 16));
  }
}

TEST(Relax, SorBeatsJacobiPerSweep) {
  // The paper picked SOR over weighted Jacobi on its training data; verify
  // the same ordering here for equal sweep counts.
  auto problem = test_problem(33, 16);
  Grid2D x_sor = problem.x0;
  Grid2D x_jac = problem.x0;
  Grid2D scratch(33, 0.0);
  for (int s = 0; s < 30; ++s) {
    sor_sweep(x_sor, problem.b, omega_opt(33), sched());
    jacobi_sweep(x_jac, problem.b, kJacobiOmega, scratch, sched());
  }
  EXPECT_LT(solution_error(problem, x_sor), solution_error(problem, x_jac));
}

TEST(Relax, InputValidation) {
  Grid2D x(9, 0.0), b(17, 0.0), scratch(9, 0.0);
  EXPECT_THROW(sor_sweep(x, b, 1.0, sched()), InvalidArgument);
  EXPECT_THROW(jacobi_sweep(x, b, 1.0, scratch, sched()), InvalidArgument);
  Grid2D bad(8, 0.0);
  EXPECT_THROW(sor_sweep(bad, bad, 1.0, sched()), InvalidArgument);
}

// --------------------------------------------------------------- direct --

TEST(Direct, SolvesExactlyAtAllSmallSizes) {
  DirectSolver direct;
  for (int n : {3, 5, 9, 17, 33, 65}) {
    auto problem = test_problem(n, 20 + static_cast<std::uint64_t>(n));
    Grid2D x = problem.x0;
    direct.solve(problem.b, x);
    const double e0 = grid::norm2_interior(problem.b, sched()) + 1.0;
    EXPECT_LE(solution_error(problem, x) / e0, 1e-10) << "n=" << n;
  }
}

TEST(Direct, CacheModesBothCorrectAndCacheObservable) {
  DirectSolver uncached(0);
  DirectSolver cached(64);
  auto problem = test_problem(17, 33);
  Grid2D xa = problem.x0;
  Grid2D xb = problem.x0;
  uncached.solve(problem.b, xa);
  cached.solve(problem.b, xb);
  EXPECT_EQ(uncached.cached_sizes(), 0u);
  EXPECT_EQ(cached.cached_sizes(), 1u);
  for (int i = 0; i < 17; ++i) {
    for (int j = 0; j < 17; ++j) {
      ASSERT_DOUBLE_EQ(xa(i, j), xb(i, j));
    }
  }
  cached.clear_cache();
  EXPECT_EQ(cached.cached_sizes(), 0u);
}

TEST(Direct, CacheRespectsSizeLimit) {
  DirectSolver solver(16);  // caches n <= 16 only
  auto small = test_problem(9, 41);
  auto large = test_problem(33, 42);
  Grid2D xs = small.x0;
  Grid2D xl = large.x0;
  solver.solve(small.b, xs);
  solver.solve(large.b, xl);
  EXPECT_EQ(solver.cached_sizes(), 1u);
}

TEST(Direct, ValidatesInputSizes) {
  DirectSolver direct;
  Grid2D b(9, 0.0), x(17, 0.0);
  EXPECT_THROW(direct.solve(b, x), InvalidArgument);
  Grid2D bad(6, 0.0);
  EXPECT_THROW(direct.solve(bad, bad), InvalidArgument);
}

// ------------------------------------------------------------- multigrid --

TEST(Multigrid, VCycleContractsErrorQuickly) {
  auto problem = test_problem(65, 50);
  Grid2D x = problem.x0;
  DirectSolver direct;
  const double e0 = solution_error(problem, x);
  vcycle(x, problem.b, VCycleOptions{}, sched(), direct, pool());
  const double e1 = solution_error(problem, x);
  // A 1-pre/1-post SOR(1.15) V-cycle contracts 2-D Poisson error by well
  // over 2× per cycle; typical factors are ~10×.
  EXPECT_LT(e1, 0.5 * e0);
  vcycle(x, problem.b, VCycleOptions{}, sched(), direct, pool());
  EXPECT_LT(solution_error(problem, x), 0.5 * e1);
}

TEST(Multigrid, VCycleConvergesToHighAccuracy) {
  auto problem = test_problem(33, 51, InputDistribution::kBiased);
  Grid2D x = problem.x0;
  DirectSolver direct;
  const double e0 = solution_error(problem, x);
  for (int c = 0; c < 30; ++c) {
    vcycle(x, problem.b, VCycleOptions{}, sched(), direct, pool());
  }
  EXPECT_LT(solution_error(problem, x), 1e-9 * e0);
}

TEST(Multigrid, DeeperDirectLevelStillConverges) {
  auto problem = test_problem(33, 52);
  DirectSolver direct;
  for (int direct_level : {1, 2, 3}) {
    Grid2D x = problem.x0;
    VCycleOptions options;
    options.direct_level = direct_level;
    const double e0 = solution_error(problem, x);
    for (int c = 0; c < 10; ++c) {
      vcycle(x, problem.b, options, sched(), direct, pool());
    }
    EXPECT_LT(solution_error(problem, x), 1e-4 * e0)
        << "direct_level=" << direct_level;
  }
}

TEST(Multigrid, MorePreSmoothingContractsFasterPerCycle) {
  auto problem = test_problem(65, 53);
  DirectSolver direct;
  VCycleOptions one;
  VCycleOptions three;
  three.pre_relax = 3;
  three.post_relax = 3;
  Grid2D x1 = problem.x0;
  Grid2D x3 = problem.x0;
  vcycle(x1, problem.b, one, sched(), direct, pool());
  vcycle(x3, problem.b, three, sched(), direct, pool());
  EXPECT_LT(solution_error(problem, x3), solution_error(problem, x1));
}

TEST(Multigrid, FullMultigridPassContractsStrongly) {
  // A single FMG pass (coarse estimate + one V-cycle per level) must
  // contract the initial error substantially on both input distributions.
  for (auto dist :
       {InputDistribution::kUnbiased, InputDistribution::kBiased}) {
    auto problem = test_problem(65, 54, dist);
    DirectSolver direct;
    Grid2D x = problem.x0;
    const double e0 = solution_error(problem, x);
    full_multigrid(x, problem.b, VCycleOptions{}, sched(), direct, pool());
    EXPECT_LT(solution_error(problem, x), 0.2 * e0)
        << "distribution " << to_string(dist);
  }
}

TEST(Multigrid, FullMultigridReachesTruncationLevelAccuracy) {
  // One FMG pass classically reduces the algebraic error to the order of
  // discretisation error; for our metric expect a large reduction factor.
  auto problem = test_problem(129, 55);
  DirectSolver direct;
  Grid2D x = problem.x0;
  const double e0 = solution_error(problem, x);
  full_multigrid(x, problem.b, VCycleOptions{}, sched(), direct, pool());
  EXPECT_LT(solution_error(problem, x), 0.05 * e0);
}

TEST(Multigrid, BaseCaseGridIsSolvedDirectly) {
  auto problem = test_problem(3, 56);
  DirectSolver direct;
  Grid2D x = problem.x0;
  vcycle(x, problem.b, VCycleOptions{}, sched(), direct, pool());
  EXPECT_LE(solution_error(problem, x),
            1e-10 * (grid::norm2_interior(problem.b, sched()) + 1.0));
}

TEST(Multigrid, SizeMismatchThrows) {
  Grid2D x(9, 0.0), b(17, 0.0);
  DirectSolver direct;
  EXPECT_THROW(vcycle(x, b, VCycleOptions{}, sched(), direct, pool()),
               InvalidArgument);
  EXPECT_THROW(full_multigrid(x, b, VCycleOptions{}, sched(), direct, pool()),
               InvalidArgument);
}

// ------------------------------------------------------------ reference --

TEST(Reference, IteratedSorStopsAtPredicate) {
  auto problem = test_problem(17, 60);
  fft::FastPoissonSolver oracle(17);
  Grid2D x_opt(17, 0.0);
  oracle.solve(problem.b, problem.x0, x_opt, sched());
  const double e0 = grid::norm2_diff_interior(problem.x0, x_opt, sched());

  Grid2D x = problem.x0;
  const auto outcome = solve_iterated_sor(
      x, problem.b, omega_opt(17), 100000,
      [&](const Grid2D& state, int) {
        return e0 / grid::norm2_diff_interior(state, x_opt, sched()) >= 1e3;
      },
      sched());
  EXPECT_TRUE(outcome.converged);
  EXPECT_GT(outcome.iterations, 1);
  EXPECT_GE(e0 / grid::norm2_diff_interior(x, x_opt, sched()), 1e3);
}

TEST(Reference, IteratedSorReportsNonConvergence) {
  auto problem = test_problem(33, 61);
  Grid2D x = problem.x0;
  const auto outcome = solve_iterated_sor(
      x, problem.b, omega_opt(33), 3,
      [](const Grid2D&, int) { return false; }, sched());
  EXPECT_FALSE(outcome.converged);
  EXPECT_EQ(outcome.iterations, 3);
}

TEST(Reference, VCycleDriverConvergesToTarget) {
  auto problem = test_problem(65, 62);
  fft::FastPoissonSolver oracle(65);
  Grid2D x_opt(65, 0.0);
  oracle.solve(problem.b, problem.x0, x_opt, sched());
  const double e0 = grid::norm2_diff_interior(problem.x0, x_opt, sched());
  DirectSolver direct;
  Grid2D x = problem.x0;
  const auto outcome = solve_reference_v(
      x, problem.b, VCycleOptions{}, 200,
      [&](const Grid2D& state, int) {
        return e0 / grid::norm2_diff_interior(state, x_opt, sched()) >= 1e9;
      },
      sched(), direct, pool());
  EXPECT_TRUE(outcome.converged);
  EXPECT_LT(outcome.iterations, 40);
}

TEST(Reference, FmgDriverNeedsNoMoreCyclesThanV) {
  auto problem = test_problem(65, 63, InputDistribution::kBiased);
  fft::FastPoissonSolver oracle(65);
  Grid2D x_opt(65, 0.0);
  oracle.solve(problem.b, problem.x0, x_opt, sched());
  const double e0 = grid::norm2_diff_interior(problem.x0, x_opt, sched());
  DirectSolver direct;
  const auto stop = [&](const Grid2D& state, int) {
    return e0 / grid::norm2_diff_interior(state, x_opt, sched()) >= 1e5;
  };
  Grid2D xv = problem.x0;
  const auto v = solve_reference_v(xv, problem.b, VCycleOptions{}, 200, stop,
                                   sched(), direct, pool());
  Grid2D xf = problem.x0;
  const auto f = solve_reference_fmg(xf, problem.b, VCycleOptions{}, 200,
                                     stop, sched(), direct, pool());
  EXPECT_TRUE(v.converged);
  EXPECT_TRUE(f.converged);
  EXPECT_LE(f.iterations, v.iterations);
}

// ------------------------------------------- variable-coefficient parity --

Engine& engine_with(int threads) {
  static Engine one([] {
    rt::MachineProfile p;
    p.name = "solver-test-1t";
    p.threads = 1;
    return EngineOptions{p, {}, {}, 0};
  }());
  static Engine four([] {
    rt::MachineProfile p;
    p.name = "solver-test-4t";
    p.threads = 4;
    p.grain_rows = 2;  // force real slicing so races would surface
    return EngineOptions{p, {}, {}, 0};
  }());
  return threads == 1 ? one : four;
}

/// Deterministic dense test data; magnitudes mixed so any dropped term or
/// re-associated sum flips low-order bits the comparisons below catch.
Grid2D random_grid(int n, std::uint64_t seed) {
  Grid2D g(n, 0.0);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      g(i, j) = rng.uniform(-1.0e3, 1.0e3);
    }
  }
  return g;
}

::testing::AssertionResult bitwise_equal(const Grid2D& a, const Grid2D& b) {
  if (a.n() != b.n()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (int i = 0; i < a.n(); ++i) {
    for (int j = 0; j < a.n(); ++j) {
      const double av = a(i, j);
      const double bv = b(i, j);
      if (std::memcmp(&av, &bv, sizeof(double)) != 0) {
        return ::testing::AssertionFailure()
               << "first divergence at (" << i << ", " << j << "): " << av
               << " vs " << bv;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// One operator-aware kernel applied in place to x (residual and apply
/// write their output back into x so every kernel compares the same way).
using Sweep = void (*)(const grid::StencilOp&, Grid2D&, const Grid2D&,
                       Engine&);

void sor3(const grid::StencilOp& op, Grid2D& x, const Grid2D& b, Engine& e) {
  // Three chained sweeps: any drift compounds and must stay zero.
  for (int s = 0; s < 3; ++s) sor_sweep(op, x, b, 1.15, e.scheduler());
}
void jacobi3(const grid::StencilOp& op, Grid2D& x, const Grid2D& b,
             Engine& e) {
  Grid2D scratch(x.n(), 0.0);
  for (int s = 0; s < 3; ++s) {
    jacobi_sweep(op, x, b, kJacobiOmega, scratch, e.scheduler());
  }
}
template <RelaxKind kKind>
void lines2(const grid::StencilOp& op, Grid2D& x, const Grid2D& b,
            Engine& e) {
  for (int s = 0; s < 2; ++s) {
    line_relax_sweep(op, x, b, kKind, e.scheduler(), e.scratch());
  }
}
void residual_into_x(const grid::StencilOp& op, Grid2D& x, const Grid2D& b,
                     Engine& e) {
  Grid2D r(x.n(), 1.0);  // overwritten; nonzero so stale cells surface
  grid::residual_op(op, x, b, r, e.scheduler());
  x = r;
}
void apply_into_x(const grid::StencilOp& op, Grid2D& x, const Grid2D&,
                  Engine& e) {
  Grid2D out(x.n(), 1.0);
  grid::apply_op(op, x, out, e.scheduler());
  x = out;
}

constexpr Sweep kAllSweeps[] = {
    residual_into_x,          apply_into_x,
    sor3,                     jacobi3,
    lines2<RelaxKind::kLineX>, lines2<RelaxKind::kLineY>,
    lines2<RelaxKind::kLineZebraAlt>};

TEST(KernelDeterminism, ThreadCountsAgree) {
  // Same-colour cells and same-parity lines touch disjoint memory, so
  // every kernel gives the same bits on 1 and 4 threads.
  const grid::StencilOp op = make_operator(65, OperatorFamily::kAnisoTheta45);
  const Grid2D b = random_grid(65, 0xC0FFEE ^ 0xB0B);
  for (std::size_t k = 0; k < std::size(kAllSweeps); ++k) {
    SCOPED_TRACE("sweep #" + std::to_string(k));
    Grid2D serial = random_grid(65, 0xC0FFEE);
    Grid2D threaded = serial;
    kAllSweeps[k](op, serial, b, engine_with(1));
    kAllSweeps[k](op, threaded, b, engine_with(4));
    EXPECT_TRUE(bitwise_equal(serial, threaded));
  }
}

TEST(KernelDeterminism, RepeatedRunsAreDeterministic) {
  // Identical inputs give identical bits run over run under a threaded
  // scheduler.
  const grid::StencilOp op =
      make_operator(65, OperatorFamily::kAnisotropic1000);
  const Grid2D b = random_grid(65, 0xD0);
  Grid2D first = random_grid(65, 0xD1);
  Grid2D second = first;
  lines2<RelaxKind::kLineZebraAlt>(op, first, b, engine_with(4));
  lines2<RelaxKind::kLineZebraAlt>(op, second, b, engine_with(4));
  sor3(op, first, b, engine_with(4));
  sor3(op, second, b, engine_with(4));
  EXPECT_TRUE(bitwise_equal(first, second));
}

// -------------------------------------------------------- kernel policy --

TEST(KernelPolicy, OnlyTheLegacyLayoutIsAccepted) {
  EXPECT_EQ(grid::to_string(grid::StencilLayout::kLegacy), "legacy");
  EXPECT_EQ(grid::to_string(grid::StencilLayout::kPacked), "packed");
  EXPECT_EQ(grid::parse_stencil_layout("packed"),
            grid::StencilLayout::kPacked);
  EXPECT_THROW(grid::parse_stencil_layout("tiled"), InvalidArgument);
  EXPECT_NO_THROW(grid::validate_kernel_policy(grid::KernelPolicy{}));

  const grid::KernelPolicy packed{grid::StencilLayout::kPacked};
  EXPECT_THROW(grid::validate_kernel_policy(packed), InvalidArgument);
  RelaxTunables tunables;
  tunables.kernels = packed;
  EXPECT_THROW(validate_relax_tunables(tunables), InvalidArgument);
  EXPECT_THROW(Engine(EngineOptions{rt::serial_profile(), tunables, {}, 0}),
               InvalidArgument);

  // Every kernel entry point that takes a policy rejects the packed
  // layout instead of silently running legacy, the Poisson fast path
  // included.
  Engine& eng = engine_with(1);
  for (const grid::StencilOp& op :
       {make_operator(17, OperatorFamily::kJumpCoefficient),
        grid::StencilOp::poisson(17)}) {
    Grid2D x = random_grid(17, 0x5A);
    const Grid2D b = random_grid(17, 0x5B);
    Grid2D r(17, 0.0);
    EXPECT_THROW(grid::residual_op(op, x, b, r, eng.scheduler(), packed),
                 InvalidArgument);
    EXPECT_THROW(sor_sweep(op, x, b, 1.15, eng.scheduler(), packed),
                 InvalidArgument);
    EXPECT_THROW(line_relax_sweep(op, x, b, RelaxKind::kLineX,
                                  eng.scheduler(), eng.scratch(), packed),
                 InvalidArgument);
  }
}

}  // namespace
}  // namespace pbmg::solvers
