#include "tune/executor.h"

#include <string>

#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/scratch.h"
#include "solvers/line_relax.h"
#include "solvers/relax.h"

namespace pbmg::tune {

TunedExecutor::TunedExecutor(const TunedConfig& config, Engine& engine,
                             const grid::StencilHierarchy& ops,
                             const grid::StencilHierarchy* rap,
                             trace::CycleTracer* tracer)
    : config_(config),
      sched_(engine.scheduler()),
      direct_(engine.direct()),
      pool_(engine.scratch()),
      relax_(engine.relax()),
      ops_(ops),
      rap_(rap),
      tracer_(tracer) {
  PBMG_CHECK(ops_.top_level() >= 1, "TunedExecutor: empty operator hierarchy");
  PBMG_CHECK(rap_ == nullptr || rap_->n() == ops_.n(),
             "TunedExecutor: RAP ladder and operator hierarchy differ in "
             "fine-grid size");
  PBMG_CHECK(rap_ != nullptr || !config_uses_rap(config_, ops_.top_level()),
             "TunedExecutor: config holds cells tuned for RAP coarsening but "
             "no RAP ladder was bound");
}

const grid::StencilOp& TunedExecutor::op_at(
    int level, grid::Coarsening coarsening) const {
  return coarsening == grid::Coarsening::kRap ? rap_->at(level)
                                              : ops_.at(level);
}

void TunedExecutor::trace(trace::Op op, int level, int detail) const {
  if (tracer_ != nullptr) tracer_->record(op, level, detail);
}

int TunedExecutor::top_level_for(const Grid2D& x, const Grid2D& b,
                                 const char* what) const {
  PBMG_CHECK(x.n() == ops_.n() && b.n() == ops_.n(),
             std::string(what) + ": grid size " + std::to_string(x.n()) +
                 " does not match the bound hierarchy's n=" +
                 std::to_string(ops_.n()));
  return ops_.top_level();
}

int TunedExecutor::run_v(Grid2D& x, const Grid2D& b, int accuracy_index,
                         obs::PhaseProfile* profile) const {
  return run_v_at(x, b, top_level_for(x, b, "run_v"), accuracy_index,
                  profile);
}

int TunedExecutor::run_fmg(Grid2D& x, const Grid2D& b, int accuracy_index,
                           obs::PhaseProfile* profile) const {
  return run_fmg_at(x, b, top_level_for(x, b, "run_fmg"), accuracy_index,
                    profile);
}

void TunedExecutor::recurse_body(Grid2D& x, const Grid2D& b,
                                 int sub_accuracy_index,
                                 solvers::RelaxKind smoother,
                                 grid::Coarsening coarsening,
                                 obs::PhaseProfile* profile) const {
  recurse_body_at(x, b, top_level_for(x, b, "recurse_body"),
                  sub_accuracy_index, smoother, coarsening, profile);
}

void TunedExecutor::estimate(Grid2D& x, const Grid2D& b,
                             int estimate_accuracy_index,
                             obs::PhaseProfile* profile) const {
  estimate_at(x, b, top_level_for(x, b, "estimate"), estimate_accuracy_index,
              profile);
}

int TunedExecutor::run_v_at(Grid2D& x, const Grid2D& b, int level,
                            int accuracy_index,
                            obs::PhaseProfile* profile) const {
  const VEntry& entry = config_.v_entry(level, accuracy_index);
  PBMG_CHECK(entry.trained, "run_v: cell (" + std::to_string(level) + "," +
                                std::to_string(accuracy_index) +
                                ") was never trained");
  switch (entry.choice.kind) {
    case VKind::kDirect: {
      obs::ScopedPhaseTimer timer(profile, obs::Phase::kDirect, level);
      direct_.solve(ops_.at(level), b, x);
      trace(trace::Op::kDirect, level);
      return 1;
    }
    case VKind::kIterSor: {
      const grid::StencilOp& op = ops_.at(level);
      const double omega =
          solvers::scaled_omega_opt(x.n(), relax_.omega_scale);
      for (int it = 0; it < entry.choice.iterations; ++it) {
        obs::ScopedPhaseTimer timer(profile, obs::Phase::kRelax, level);
        solvers::sor_sweep(op, x, b, omega, sched_);
      }
      trace(trace::Op::kIterative, level, entry.choice.iterations);
      return entry.choice.iterations;
    }
    case VKind::kRecurse:
      for (int it = 0; it < entry.choice.iterations; ++it) {
        recurse_body_at(x, b, level, entry.choice.sub_accuracy,
                        entry.choice.smoother, entry.choice.coarsening,
                        profile);
      }
      return entry.choice.iterations;
  }
  return 0;  // unreachable; silences -Wreturn-type
}

void TunedExecutor::recurse_body_at(Grid2D& x, const Grid2D& b, int level,
                                    int sub_accuracy_index,
                                    solvers::RelaxKind smoother,
                                    grid::Coarsening coarsening,
                                    obs::PhaseProfile* profile) const {
  PBMG_CHECK(level >= 2, "recurse_body: cannot recurse below level 2");
  PBMG_CHECK(sub_accuracy_index >= kClassicalCoarse &&
                 sub_accuracy_index < config_.accuracy_count(),
             "recurse_body: sub-accuracy index out of range");
  // Paper §2.3 RECURSE_i: one pre-relaxation, coarse-grid correction via
  // MULTIGRID-V_j, one post-relaxation.  The relaxation is the cell's
  // tuned smoother: point SOR at ω (the paper's 1.15 unless the
  // runtime-parameter search handed this executor a tuned value), or a
  // line variant for operators where point relaxation stalls.  The
  // operator comes from the cell's tuned ladder: averaged coefficients
  // (the historical path) or the exact Galerkin RAP coarse operators.
  const grid::StencilOp& op = op_at(level, coarsening);
  const double recurse_omega = relax_.recurse_omega;
  const obs::Phase relax_phase = solvers::is_line_relax(smoother)
                                     ? obs::Phase::kLineSolve
                                     : obs::Phase::kRelax;
  const auto relax_once = [&] {
    obs::ScopedPhaseTimer timer(profile, relax_phase, level);
    if (solvers::is_line_relax(smoother)) {
      solvers::line_relax_sweep(op, x, b, smoother, sched_, pool_);
    } else {
      solvers::sor_sweep(op, x, b, recurse_omega, sched_);
    }
  };
  relax_once();
  trace(trace::Op::kRelax, level);

  const int n = x.n();
  auto r_lease = pool_.acquire(n);
  Grid2D& r = r_lease.get();  // residual() writes every cell
  const int nc = coarse_size(n);
  auto rc_lease = pool_.acquire(nc);
  Grid2D& rc = rc_lease.get();  // restriction writes interior + zeros ring
  {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kRestrict, level);
    grid::residual_op(op, x, b, r, sched_);
    grid::restrict_full_weighting(r, rc, sched_);
  }
  trace(trace::Op::kRestrict, level);

  auto e_lease = pool_.acquire(nc);
  Grid2D& e = e_lease.get();
  e.fill(0.0);  // zero guess, zero Dirichlet ring (error equation)
  if (sub_accuracy_index == kClassicalCoarse) {
    // Classical V-cycle coarse call: one recursion body per level (direct
    // at the base), never an accuracy-certified coarse solve.  Identical
    // to solvers::vcycle with ω = recurse ω, one pre/post sweep, and the
    // cell's smoother and coarsening at every level (both travel down the
    // classical ramp just as VCycleOptions would carry them).
    if (level - 1 <= 1) {
      obs::ScopedPhaseTimer timer(profile, obs::Phase::kDirect, level - 1);
      direct_.solve(op_at(level - 1, coarsening), rc, e);
      trace(trace::Op::kDirect, level - 1);
    } else {
      recurse_body_at(e, rc, level - 1, kClassicalCoarse, smoother,
                      coarsening, profile);
    }
  } else {
    run_v_at(e, rc, level - 1, sub_accuracy_index, profile);
  }

  {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kInterpolate, level);
    grid::interpolate_add(e, x, sched_);
  }
  trace(trace::Op::kInterpolate, level);

  relax_once();
  trace(trace::Op::kRelax, level);
}

int TunedExecutor::run_fmg_at(Grid2D& x, const Grid2D& b, int level,
                              int accuracy_index,
                              obs::PhaseProfile* profile) const {
  const FmgEntry& entry = config_.fmg_entry(level, accuracy_index);
  PBMG_CHECK(entry.trained, "run_fmg: cell (" + std::to_string(level) + "," +
                                std::to_string(accuracy_index) +
                                ") was never trained");
  switch (entry.choice.kind) {
    case FmgKind::kDirect: {
      obs::ScopedPhaseTimer timer(profile, obs::Phase::kDirect, level);
      direct_.solve(ops_.at(level), b, x);
      trace(trace::Op::kDirect, level);
      return 1;
    }
    case FmgKind::kEstimateThenSor: {
      estimate_at(x, b, level, entry.choice.estimate_accuracy, profile);
      const grid::StencilOp& op = ops_.at(level);
      const double omega =
          solvers::scaled_omega_opt(x.n(), relax_.omega_scale);
      for (int it = 0; it < entry.choice.iterations; ++it) {
        obs::ScopedPhaseTimer timer(profile, obs::Phase::kRelax, level);
        solvers::sor_sweep(op, x, b, omega, sched_);
      }
      trace(trace::Op::kIterative, level, entry.choice.iterations);
      return entry.choice.iterations;
    }
    case FmgKind::kEstimateThenRecurse:
      estimate_at(x, b, level, entry.choice.estimate_accuracy, profile);
      for (int it = 0; it < entry.choice.iterations; ++it) {
        recurse_body_at(x, b, level, entry.choice.solve_accuracy,
                        entry.choice.smoother, entry.choice.coarsening,
                        profile);
      }
      return entry.choice.iterations;
  }
  return 0;  // unreachable; silences -Wreturn-type
}

void TunedExecutor::estimate_at(Grid2D& x, const Grid2D& b, int level,
                                int estimate_accuracy_index,
                                obs::PhaseProfile* profile) const {
  PBMG_CHECK(level >= 2, "estimate: cannot restrict below level 2");
  // Paper §2.4 ESTIMATE_i: coarse-grid correction whose coarse solve is
  // FULL-MULTIGRID_i one level down (no relaxations of its own).  The
  // residual always uses the averaged ladder (exact at the hierarchy's
  // top, the historical path below it); the coarsening axis applies to
  // the RECURSE bodies, whose cells carry it, not to the estimate phase —
  // training and execution share this rule, so measurements stay honest.
  const int n = x.n();
  auto r_lease = pool_.acquire(n);
  Grid2D& r = r_lease.get();
  const int nc = coarse_size(n);
  auto rc_lease = pool_.acquire(nc);
  Grid2D& rc = rc_lease.get();
  {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kRestrict, level);
    grid::residual_op(ops_.at(level), x, b, r, sched_);
    grid::restrict_full_weighting(r, rc, sched_);
  }
  trace(trace::Op::kRestrict, level);

  auto e_lease = pool_.acquire(nc);
  Grid2D& e = e_lease.get();
  e.fill(0.0);
  run_fmg_at(e, rc, level - 1, estimate_accuracy_index, profile);

  {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kInterpolate, level);
    grid::interpolate_add(e, x, sched_);
  }
  trace(trace::Op::kInterpolate, level);
}

}  // namespace pbmg::tune
