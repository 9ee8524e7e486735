#pragma once

#include <cctype>
#include <cstdint>
#include <string>

#include "fft/fast_poisson.h"
#include "grid/grid2d.h"
#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/problem.h"
#include "grid/stencil_op.h"
#include "runtime/scheduler.h"
#include "support/rng.h"
#include "tune/accuracy.h"
#include "tune/table.h"

/// \file test_problems.h
/// Shared manufactured-problem helpers for the test suites.
///
/// Several suites (stencil_test, property_solver_test, tune_test,
/// line_relax_test) need the same two fixtures: an operator-family
/// instance with a known exact discrete solution, and a Poisson instance
/// solved by the DST oracle.  These used to be copy-pasted per suite with
/// subtly divergent RHS scaling (one variant built b = A·exact from a
/// unit-magnitude exact solution, another drew ±2³²-scale data), which
/// made tolerances silently incomparable across suites.  One definition
/// here; every suite cites the same scaling.
///
/// All helpers are deterministic in (inputs, seed) and take the caller's
/// scheduler so each suite keeps its own engine/profile.

namespace pbmg::testing {

/// gtest parameterized-test names may only contain [A-Za-z0-9_]; family
/// tokens like "aniso-rot" (stable in cache keys, so not renamed there)
/// must be sanitized before use as a test-name suffix.
inline std::string gtest_name(std::string s) {
  for (char& c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (!(std::isalnum(u) != 0 || c == '_')) c = '_';
  }
  return s;
}

/// An instance of `family` at side n with its exact discrete solution:
/// tune::make_training_instance's manufactured construction (x_opt drawn
/// from the unbiased ±2³² distribution, b = A·x_opt with the *discrete*
/// operator, x0 = x_opt's Dirichlet ring + zero interior).  The Poisson
/// family routes through the DST oracle instead, bit-for-bit.
inline tune::TrainingInstance make_family_instance(OperatorFamily family,
                                                   int n, std::uint64_t seed,
                                                   rt::Scheduler& sched) {
  const grid::StencilOp op = make_operator(n, family);
  Rng rng(seed);
  return tune::make_training_instance(op, InputDistribution::kUnbiased, rng,
                                      sched);
}

/// The constant-coefficient Poisson operator ladder for side n — every
/// level the zero-byte fast path — that multigrid cycles and reference
/// drivers run on for the paper's Poisson problem.
inline grid::StencilHierarchy poisson_hierarchy(int n) {
  return grid::StencilHierarchy(grid::StencilOp::poisson(n));
}

/// The Poisson operator ladders a traced tuned solve of `config` at side n
/// binds to its executor (untraced solves go through SolveSession, which
/// builds the same pair): the zero-byte averaged hierarchy, plus the
/// Galerkin RAP ladder when the config holds RAP cells up to n's level.
struct PoissonLadders {
  PoissonLadders(const tune::TunedConfig& config, int n)
      : ops(poisson_hierarchy(n)) {
    if (tune::config_uses_rap(config, level_of_size(n))) {
      rap = grid::StencilHierarchy(grid::StencilOp::poisson(n),
                                   grid::Coarsening::kRap);
    }
  }
  const grid::StencilHierarchy* rap_or_null() const {
    return rap.top_level() >= 1 ? &rap : nullptr;
  }
  grid::StencilHierarchy ops;
  grid::StencilHierarchy rap;  ///< empty unless the config has RAP cells
};

/// Interior L2 error of an iterate against the instance's exact solution.
inline double error_against_exact(const tune::TrainingInstance& inst,
                                  const Grid2D& x, rt::Scheduler& sched) {
  return grid::norm2_diff_interior(x, inst.x_opt, sched);
}

/// A Poisson instance with the DST oracle's exact solution and the error
/// norm of the canonical zero-interior start (the shape the solver sweeps
/// historically used).
struct PoissonInstance {
  PoissonProblem problem;
  Grid2D exact;
  double e0 = 0.0;
};

inline PoissonInstance make_poisson_instance(int n, InputDistribution dist,
                                             std::uint64_t seed,
                                             rt::Scheduler& sched) {
  Rng rng(seed);
  PoissonInstance inst;
  inst.problem = make_problem(n, dist, rng);
  inst.exact = fft::exact_solution(inst.problem, sched);
  inst.e0 = grid::norm2_diff_interior(inst.problem.x0, inst.exact, sched);
  return inst;
}

}  // namespace pbmg::testing
