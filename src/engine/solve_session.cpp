#include "engine/solve_session.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "grid/grid_ops.h"
#include "grid/level.h"
#include "solvers/relax.h"
#include "support/timer.h"

namespace pbmg {

namespace {

std::vector<tune::FamilyConfig> one_rung(tune::TunedConfig config) {
  std::string family = config.op_family;
  return {{std::move(family),
           std::make_shared<const tune::TunedConfig>(std::move(config))}};
}

}  // namespace

SolveSession::SolveSession(Engine& engine, tune::TunedConfig config, int n)
    : SolveSession(engine, std::move(config), grid::StencilOp::poisson(n)) {}

SolveSession::SolveSession(Engine& engine, tune::TunedConfig config,
                           grid::StencilOp op)
    : SolveSession(engine, std::move(op), one_rung(std::move(config))) {}

SolveSession::SolveSession(Engine& engine, grid::StencilOp op,
                           std::vector<tune::FamilyConfig> ladder)
    : engine_(engine),
      ladder_(std::move(ladder)),
      n_(op.n()),
      level_(level_of_size(op.n())),
      ops_(std::move(op)) {
  PBMG_CHECK(!ladder_.empty(), "SolveSession: escalation ladder is empty");
  bool any_rap = false;
  bool any_line = false;
  for (const tune::FamilyConfig& rung : ladder_) {
    PBMG_CHECK(rung.config != nullptr,
               "SolveSession: null config in escalation ladder");
    PBMG_CHECK(rung.config->max_level() >= level_,
               "SolveSession: config for family '" + rung.family +
                   "' trained up to level " +
                   std::to_string(rung.config->max_level()) +
                   " cannot solve level " + std::to_string(level_));
    any_rap = any_rap || tune::config_uses_rap(*rung.config, level_);
    any_line =
        any_line || tune::config_uses_line_smoothers(*rung.config, level_);
  }
  // Prewarm the coarse coefficient hierarchies: coarsening happens here,
  // once, so no solve ever re-coarsens coefficients (the Poisson fast
  // path stores no grids and costs nothing; the Galerkin RAP ladder is
  // materialized only when some rung's tuned cells ask for it).  Every
  // rung's executor binds the same two hierarchies.
  if (any_rap) {
    ops_rap_ =
        grid::StencilHierarchy(ops_.at(level_), grid::Coarsening::kRap);
  }
  const grid::StencilHierarchy* rap =
      ops_rap_.top_level() >= 1 ? &ops_rap_ : nullptr;
  executors_.reserve(ladder_.size());
  for (const tune::FamilyConfig& rung : ladder_) {
    executors_.push_back(std::make_unique<tune::TunedExecutor>(
        *rung.config, engine_, ops_, rap));
  }
  // Preallocate the level hierarchy: a V/FMG recursion holds at most
  // three scratch grids per side length at once (residual at the fine
  // side plus restricted-residual and error at the coarse side of the
  // level above), so warming three per level means the first request —
  // and every concurrent request after it, once the pool refills —
  // allocates nothing on the solve path.  Configs that relax with line
  // smoothers additionally lease the two Thomas workspace grids per
  // sweep level; warm those too so a line-smoothed session is just as
  // allocation-free on its first request.
  const int per_level = any_line ? 5 : 3;
  std::size_t scratch_bytes = 0;
  for (int k = 1; k <= level_; ++k) {
    const int side = size_of_level(k);
    scratch_bytes += static_cast<std::size_t>(per_level) *
                     static_cast<std::size_t>(side) *
                     static_cast<std::size_t>(side) * sizeof(double);
    std::vector<grid::ScratchPool::Lease> warm;
    warm.reserve(static_cast<std::size_t>(per_level));
    for (int c = 0; c < per_level; ++c) {
      warm.push_back(engine_.scratch().acquire(side));
    }
  }  // leases release here, stocking the free-list
  // Footprint: both coefficient ladders plus the scratch the prewarm
  // above stocked, an admission estimate (the pool shares grids across
  // this engine's sessions).
  footprint_bytes_ = ops_.bytes() + ops_rap_.bytes() + scratch_bytes;
}

std::vector<std::string> SolveSession::families() const {
  std::vector<std::string> names;
  names.reserve(ladder_.size());
  for (const tune::FamilyConfig& rung : ladder_) names.push_back(rung.family);
  return names;
}

SolveStats SolveSession::stats_for(double seconds, int accuracy_index,
                                   int iterations, bool converged) const {
  SolveStats stats;
  stats.seconds = seconds;
  stats.n = n_;
  stats.level = level_;
  stats.accuracy_index = accuracy_index;
  stats.iterations = iterations;
  stats.converged = converged;
  return stats;
}

void SolveSession::check_operands(const Grid2D& x, const Grid2D& b) const {
  PBMG_CHECK(x.n() == n_ && b.n() == n_,
             "SolveSession: operand size mismatch (session is bound to n=" +
                 std::to_string(n_) + ")");
}

double SolveSession::residual_norm(const Grid2D& x, const Grid2D& b) const {
  auto lease = engine_.scratch().acquire(n_);
  grid::residual_op(op(), x, b, lease.get(), engine_.scheduler());
  return grid::norm2_interior(lease.get(), engine_.scheduler());
}

namespace {

// final ≤ limit·initial, with the r0 == 0 edge (already-exact guess, or an
// all-zero problem) demanding the solve kept it exact.
bool residual_converged(double r0, double r1, double ratio_limit) {
  if (!std::isfinite(r1)) return false;
  if (r0 == 0.0) return r1 == 0.0;
  return r1 <= ratio_limit * r0;
}

}  // namespace

SolveStats SolveSession::solve_v(Grid2D& x, const Grid2D& b,
                                 int accuracy_index,
                                 std::shared_ptr<obs::PhaseProfile> profile,
                                 const ResidualPolicy& check) const {
  return timed_solve(&tune::TunedExecutor::run_v, x, b, accuracy_index,
                     std::move(profile), check);
}

SolveStats SolveSession::solve_fmg(Grid2D& x, const Grid2D& b,
                                   int accuracy_index,
                                   std::shared_ptr<obs::PhaseProfile> profile,
                                   const ResidualPolicy& check) const {
  return timed_solve(&tune::TunedExecutor::run_fmg, x, b, accuracy_index,
                     std::move(profile), check);
}

SolveStats SolveSession::timed_solve(
    TunedRun run, Grid2D& x, const Grid2D& b, int accuracy_index,
    std::shared_ptr<obs::PhaseProfile> profile,
    const ResidualPolicy& check) const {
  check_operands(x, b);
  const double r0 = check.enabled ? residual_norm(x, b) : 0.0;
  const double t0 = now_seconds();
  const int iterations =
      (executors_.front().get()->*run)(x, b, accuracy_index, profile.get());
  const double seconds = now_seconds() - t0;
  SolveStats stats = stats_for(seconds, accuracy_index, iterations, true);
  if (check.enabled) {
    stats.initial_residual = r0;
    stats.final_residual = residual_norm(x, b);
    stats.residual_checked = true;
    stats.converged =
        residual_converged(r0, stats.final_residual, check.ratio_limit);
  }
  stats.phases = std::move(profile);
  return stats;
}

SolveStats SolveSession::solve_reference_v(
    Grid2D& x, const Grid2D& b, int max_cycles, const solvers::StopFn& stop,
    std::shared_ptr<obs::PhaseProfile> profile) const {
  check_operands(x, b);
  solvers::VCycleOptions options;
  options.profile = profile.get();
  const double t0 = now_seconds();
  const auto outcome = solvers::solve_reference_v(
      ops_, x, b, options, max_cycles, stop, engine_.scheduler(),
      engine_.direct(), engine_.scratch());
  SolveStats stats = stats_for(now_seconds() - t0, -1, outcome.iterations,
                               outcome.converged);
  stats.phases = std::move(profile);
  return stats;
}

SolveStats SolveSession::solve_reference_fmg(
    Grid2D& x, const Grid2D& b, int max_cycles, const solvers::StopFn& stop,
    std::shared_ptr<obs::PhaseProfile> profile) const {
  check_operands(x, b);
  solvers::VCycleOptions options;
  options.profile = profile.get();
  const double t0 = now_seconds();
  const auto outcome = solvers::solve_reference_fmg(
      ops_, x, b, options, max_cycles, stop, engine_.scheduler(),
      engine_.direct(), engine_.scratch());
  SolveStats stats = stats_for(now_seconds() - t0, -1, outcome.iterations,
                               outcome.converged);
  stats.phases = std::move(profile);
  return stats;
}

tune::DynamicResult SolveSession::solve_adaptive(
    Grid2D& x, const Grid2D& b, double target_reduction, int max_iterations,
    std::shared_ptr<obs::PhaseProfile> profile) const {
  PBMG_CHECK(target_reduction >= 1.0,
             "SolveSession: target_reduction must be >= 1");
  check_operands(x, b);

  tune::DynamicResult result;
  result.final_family = ladder_.front().family;
  const double r0 = residual_norm(x, b);
  result.initial_residual = r0;
  result.final_residual = r0;
  if (r0 == 0.0) {
    // Already exact (or an all-zero problem): nothing to run, and by the
    // residual-audit contract an exact iterate counts as converged.
    result.converged = true;
    result.residual_reduction = std::numeric_limits<double>::infinity();
    return result;
  }
  const double r_target = r0 / target_reduction;

  std::size_t rung = 0;  // current family on the cross-family ladder
  int index = 0;         // accuracy index within the current family
  double r_prev = r0;
  for (int it = 1; it <= max_iterations; ++it) {
    const tune::TunedConfig& config = *ladder_[rung].config;
    // Only tuned-variant invocations are timed; the feedback residual
    // norms below run outside the window (honest-stats contract).
    const double t0 = now_seconds();
    const int cycles = executors_[rung]->run_v(x, b, index, profile.get());
    result.seconds += now_seconds() - t0;
    result.iterations = it;
    const double r_now = residual_norm(x, b);
    // Feature of the intermediate state (paper §6): the per-invocation
    // residual reduction.
    const double measured = r_prev > 0.0 ? r_prev / r_now : 1.0;
    result.variants.push_back({ladder_[rung].family, index, cycles, measured});
    if (r_now <= r_target) break;
    // A variant of accuracy class p_i should shrink the residual by
    // roughly p_i on inputs of the family it was trained on; demand a
    // conservative slice of that and escalate when the input responds
    // worse than its class promises — first up the current family's
    // accuracy ladder, then across to the next-nearest family's tables
    // once this family's ladder is exhausted.
    const double promised =
        config.accuracies()[static_cast<std::size_t>(index)];
    if (measured < std::sqrt(promised)) {
      if (index + 1 < config.accuracy_count()) {
        ++index;
        ++result.escalations;
      } else if (rung + 1 < ladder_.size()) {
        ++rung;
        ++result.family_switches;
        // Carry the escalation depth into the new family (its tables are
        // presumed better matched, but the input already proved it needs
        // the deep end of a ladder); clamp in case ladders differ.
        index = std::min(index, ladder_[rung].config->accuracy_count() - 1);
      }
    }
    r_prev = r_now;
  }
  // Out-of-timed-window residual audit: convergence is judged from a
  // fresh residual of the final iterate, not the in-loop feedback value.
  const double r_final = residual_norm(x, b);
  result.final_residual = r_final;
  result.residual_reduction =
      r_final > 0.0 ? r0 / r_final : std::numeric_limits<double>::infinity();
  result.converged = std::isfinite(r_final) && r_final <= r_target;
  result.final_accuracy_index = index;
  result.final_family = ladder_[rung].family;
  return result;
}

SolveStats SolveSession::solve_iterated_sor(Grid2D& x, const Grid2D& b,
                                            int max_sweeps,
                                            const solvers::StopFn& stop) const {
  check_operands(x, b);
  const double omega =
      solvers::scaled_omega_opt(n_, engine_.relax().omega_scale);
  const double t0 = now_seconds();
  const auto outcome = solvers::solve_iterated_sor(
      op(), x, b, omega, max_sweeps, stop, engine_.scheduler());
  return stats_for(now_seconds() - t0, -1, outcome.iterations,
                   outcome.converged);
}

}  // namespace pbmg
