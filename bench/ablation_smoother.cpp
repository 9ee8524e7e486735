// Ablation: the smoother choice (paper §2.3).
//
// The paper restricted its search space to Red-Black SOR after finding it
// "performed better than weighted Jacobi on our particular training data
// for similar computation cost per iteration".  This ablation reproduces
// that comparison: time-to-accuracy-10^9 for V-cycles smoothing with
// SOR(1.15) versus weighted Jacobi(2/3), plus the cycle counts each needs.

#include <cmath>

#include "common/harness.h"
#include "grid/grid_ops.h"
#include "grid/level.h"
#include "solvers/multigrid.h"
#include "tune/accuracy.h"

namespace {

using namespace pbmg;
using namespace pbmg::bench;

/// Probe + timed run for a given smoother, returning (seconds, cycles).
std::pair<double, int> time_smoother(const Settings& settings,
                                     Engine& engine,
                                     const tune::TrainingInstance& inst,
                                     solvers::RelaxKind relaxation,
                                     double target) {
  auto& sched = engine.scheduler();
  auto& direct = engine.direct();
  auto& pool = engine.scratch();
  solvers::VCycleOptions options;
  options.relaxation = relaxation;
  const int n = inst.problem.n();
  const grid::StencilHierarchy ops(grid::StencilOp::poisson(n));
  Grid2D x(n, 0.0);
  x.copy_from(inst.problem.x0);
  int needed = -1;
  for (int it = 1; it <= 300; ++it) {
    solvers::vcycle(ops, x, inst.problem.b, options, sched, direct, pool);
    if (tune::accuracy_of(inst, x, sched) >= target) {
      needed = it;
      break;
    }
  }
  if (needed < 0) return {std::nan(""), -1};
  const double seconds = time_min(
      settings, [&] { x.copy_from(inst.problem.x0); },
      [&] {
        for (int it = 0; it < needed; ++it) {
          solvers::vcycle(ops, x, inst.problem.b, options, sched, direct, pool);
        }
      });
  return {seconds, needed};
}

int main_impl(int argc, const char* const* argv) {
  auto maybe = parse_settings(argc, argv, "ablation_smoother",
                              "SOR vs weighted Jacobi smoothing (paper §2.3)");
  if (!maybe) return 0;
  const Settings settings = *maybe;
  constexpr double kTarget = 1e9;
  Engine engine(engine_options(settings, rt::harpertown_profile()));

  TextTable table({"N", "SOR(1.15) (s)", "SOR cycles", "Jacobi(2/3) (s)",
                   "Jacobi cycles", "Jacobi/SOR"});
  for (int level = 5; level <= settings.max_level; ++level) {
    const int n = size_of_level(level);
    const auto inst = eval_instance(settings, engine, n,
                                    InputDistribution::kUnbiased, /*salt=*/22);
    const auto [t_sor, c_sor] = time_smoother(settings, engine, inst,
                                              solvers::RelaxKind::kSor,
                                              kTarget);
    const auto [t_jac, c_jac] = time_smoother(settings, engine, inst,
                                              solvers::RelaxKind::kJacobi,
                                              kTarget);
    table.add_row({std::to_string(n), format_double(t_sor),
                   std::to_string(c_sor), format_double(t_jac),
                   std::to_string(c_jac), format_double(t_jac / t_sor, 3)});
    progress("ablation_smoother: N=" + std::to_string(n) + " done");
  }
  emit_table(settings, "ablation_smoother",
             "Ablation: V-cycle smoother, SOR(1.15) vs weighted Jacobi(2/3), "
             "accuracy 10^9",
             table);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return main_impl(argc, argv); }
