// google-benchmark microbenchmarks for the computational kernels
// underlying every experiment: relaxation sweeps, residuals, transfer
// operators, norms, banded Cholesky, the spectral oracle, whole V-cycles,
// and runtime primitives.  These quantify the per-operation costs the
// autotuner trades off.

#include <benchmark/benchmark.h>

#include "engine/engine.h"
#include "fft/fast_poisson.h"
#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/problem.h"
#include "linalg/band_matrix.h"
#include "linalg/poisson_assembly.h"
#include "obs/phase_profile.h"
#include "solvers/direct.h"
#include "solvers/line_relax.h"
#include "solvers/multigrid.h"
#include "solvers/relax.h"
#include "support/rng.h"

namespace {

using namespace pbmg;

/// One engine shared by every microbenchmark (default machine profile).
Engine& bench_engine() {
  static Engine instance;
  return instance;
}

PoissonProblem problem_for(int n) {
  Rng rng(8888 + static_cast<std::uint64_t>(n));
  return make_problem(n, InputDistribution::kUnbiased, rng);
}

void BM_SorSweep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto problem = problem_for(n);
  Grid2D x = problem.x0;
  auto& sched = bench_engine().scheduler();
  const double omega = solvers::omega_opt(n);
  for (auto _ : state) {
    solvers::sor_sweep(x, problem.b, omega, sched);
  }
  state.SetItemsProcessed(state.iterations() * (n - 2) * (n - 2));
}
BENCHMARK(BM_SorSweep)->Arg(65)->Arg(257)->Arg(1025);

void BM_JacobiSweep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto problem = problem_for(n);
  Grid2D x = problem.x0;
  Grid2D scratch(n, 0.0);
  auto& sched = bench_engine().scheduler();
  for (auto _ : state) {
    solvers::jacobi_sweep(x, problem.b, solvers::kJacobiOmega, scratch, sched);
  }
  state.SetItemsProcessed(state.iterations() * (n - 2) * (n - 2));
}
BENCHMARK(BM_JacobiSweep)->Arg(257)->Arg(1025);

void BM_Residual(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto problem = problem_for(n);
  Grid2D x = problem.x0;
  Grid2D r(n, 0.0);
  auto& sched = bench_engine().scheduler();
  for (auto _ : state) {
    grid::residual(x, problem.b, r, sched);
  }
  state.SetItemsProcessed(state.iterations() * (n - 2) * (n - 2));
}
BENCHMARK(BM_Residual)->Arg(257)->Arg(1025);

void BM_Restrict(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto problem = problem_for(n);
  Grid2D coarse(coarse_size(n), 0.0);
  auto& sched = bench_engine().scheduler();
  for (auto _ : state) {
    grid::restrict_full_weighting(problem.b, coarse, sched);
  }
}
BENCHMARK(BM_Restrict)->Arg(257)->Arg(1025);

void BM_Interpolate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Grid2D coarse(coarse_size(n), 1.0);
  Grid2D fine(n, 0.0);
  auto& sched = bench_engine().scheduler();
  for (auto _ : state) {
    grid::interpolate_add(coarse, fine, sched);
  }
}
BENCHMARK(BM_Interpolate)->Arg(257)->Arg(1025);

void BM_Norm2(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto problem = problem_for(n);
  auto& sched = bench_engine().scheduler();
  double sink = 0.0;
  for (auto _ : state) {
    sink += grid::norm2_interior(problem.b, sched);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_Norm2)->Arg(257)->Arg(1025);

void BM_BandCholeskyFactor(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    linalg::BandMatrix a = linalg::assemble_poisson_band(n);
    linalg::band_cholesky_factor(a);
    benchmark::DoNotOptimize(a.band(0, 0));
  }
}
BENCHMARK(BM_BandCholeskyFactor)->Arg(33)->Arg(65)->Arg(129);

void BM_DirectSolveCachedFactor(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto problem = problem_for(n);
  solvers::DirectSolver cached(n);
  Grid2D x = problem.x0;
  cached.solve(problem.b, x);  // warm the factor cache
  for (auto _ : state) {
    cached.solve(problem.b, x);
  }
}
BENCHMARK(BM_DirectSolveCachedFactor)->Arg(65)->Arg(129);

void BM_FastPoissonOracle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto problem = problem_for(n);
  fft::FastPoissonSolver solver(n);
  Grid2D out(n, 0.0);
  auto& sched = bench_engine().scheduler();
  for (auto _ : state) {
    solver.solve(problem.b, problem.x0, out, sched);
  }
}
BENCHMARK(BM_FastPoissonOracle)->Arg(257)->Arg(1025);

void BM_VCycle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto problem = problem_for(n);
  const grid::StencilHierarchy ops(grid::StencilOp::poisson(n));
  Grid2D x = problem.x0;
  auto& sched = bench_engine().scheduler();
  auto& direct = bench_engine().direct();
  auto& pool = bench_engine().scratch();
  for (auto _ : state) {
    solvers::vcycle(ops, x, problem.b, solvers::VCycleOptions{}, sched,
                    direct, pool);
  }
}
BENCHMARK(BM_VCycle)->Arg(257)->Arg(1025);

// Profiling-overhead pair: identical V-cycles with the obs::PhaseProfile
// hook disabled (null sink — the production default) versus enabled.  CI
// asserts the Off/On ratio stays within noise, i.e. that attaching the
// scoped-timer hooks to the solver costs nothing when no profile is
// requested.
void BM_VCycleProfilingOff(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto problem = problem_for(n);
  const grid::StencilHierarchy ops(grid::StencilOp::poisson(n));
  Grid2D x = problem.x0;
  auto& sched = bench_engine().scheduler();
  auto& direct = bench_engine().direct();
  auto& pool = bench_engine().scratch();
  solvers::VCycleOptions options;  // options.profile == nullptr
  for (auto _ : state) {
    solvers::vcycle(ops, x, problem.b, options, sched, direct, pool);
  }
}
BENCHMARK(BM_VCycleProfilingOff)->Arg(257);

void BM_VCycleProfilingOn(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto problem = problem_for(n);
  const grid::StencilHierarchy ops(grid::StencilOp::poisson(n));
  Grid2D x = problem.x0;
  auto& sched = bench_engine().scheduler();
  auto& direct = bench_engine().direct();
  auto& pool = bench_engine().scratch();
  obs::PhaseProfile profile;
  solvers::VCycleOptions options;
  options.profile = &profile;
  for (auto _ : state) {
    solvers::vcycle(ops, x, problem.b, options, sched, direct, pool);
  }
  benchmark::DoNotOptimize(profile.total_seconds());
}
BENCHMARK(BM_VCycleProfilingOn)->Arg(257);

// ------------------------------------------------ 9-point stencil sweeps --
// The variable-coefficient kernels on the fig20-class rotated-anisotropy
// operator (9-point on every level, so each sweep streams five
// coefficient grids besides the iterate and right-hand side).

grid::StencilOp nine_point_op(int n) {
  return make_operator(n, OperatorFamily::kAnisoTheta30);
}

void BM_StencilResidual(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const grid::StencilOp op = nine_point_op(n);
  auto problem = problem_for(n);
  Grid2D x = problem.x0;
  Grid2D r(n, 0.0);
  auto& sched = bench_engine().scheduler();
  for (auto _ : state) {
    grid::residual_op(op, x, problem.b, r, sched);
  }
  state.SetItemsProcessed(state.iterations() * (n - 2) * (n - 2));
}
BENCHMARK(BM_StencilResidual)->Arg(129)->Arg(513)->Arg(1025);

void BM_StencilSor(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const grid::StencilOp op = nine_point_op(n);
  auto problem = problem_for(n);
  Grid2D x = problem.x0;
  auto& sched = bench_engine().scheduler();
  for (auto _ : state) {
    solvers::sor_sweep(op, x, problem.b, solvers::kRecurseOmega, sched);
  }
  state.SetItemsProcessed(state.iterations() * (n - 2) * (n - 2));
}
BENCHMARK(BM_StencilSor)->Arg(129)->Arg(513)->Arg(1025);

void BM_StencilZebra(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const grid::StencilOp op = nine_point_op(n);
  auto problem = problem_for(n);
  Grid2D x = problem.x0;
  auto& sched = bench_engine().scheduler();
  auto& pool = bench_engine().scratch();
  for (auto _ : state) {
    solvers::line_relax_sweep(op, x, problem.b,
                              solvers::RelaxKind::kLineZebraAlt, sched, pool);
  }
  state.SetItemsProcessed(state.iterations() * (n - 2) * (n - 2));
}
BENCHMARK(BM_StencilZebra)->Arg(129)->Arg(513)->Arg(1025);

void BM_ParallelForOverhead(benchmark::State& state) {
  auto& sched = bench_engine().scheduler();
  std::atomic<std::int64_t> sink{0};
  for (auto _ : state) {
    sched.parallel_for(0, 1024, 16, [&](std::int64_t b, std::int64_t e) {
      sink.fetch_add(e - b, std::memory_order_relaxed);
    });
  }
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_ParallelForOverhead);

}  // namespace

BENCHMARK_MAIN();
