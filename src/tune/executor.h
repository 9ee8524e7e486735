#pragma once

#include "engine/engine.h"
#include "grid/grid2d.h"
#include "grid/scratch.h"
#include "grid/stencil_op.h"
#include "obs/phase_profile.h"
#include "runtime/scheduler.h"
#include "solvers/direct.h"
#include "solvers/relax.h"
#include "trace/cycle_trace.h"
#include "tune/table.h"

/// \file executor.h
/// Interpreters for tuned configurations.
///
/// A TunedConfig is the data equivalent of the specialised program a
/// PetaBricks binary would run after autotuning; TunedExecutor walks the
/// tables and performs the selected algorithms:
///
///   MULTIGRID-V_i  (paper §2.3)        FULL-MULTIGRID_i  (paper §2.4)
///   ─ direct solve                      ─ direct solve
///   ─ SOR(ω_opt) × iterations           ─ ESTIMATE_j, then SOR × iters
///   ─ RECURSE_j × iterations            ─ ESTIMATE_j, then RECURSE_m × iters
///
/// where RECURSE (one pre-SOR(1.15), residual restriction, coarse call to
/// MULTIGRID-V_j, correction, one post-SOR(1.15)) and ESTIMATE (residual
/// restriction, coarse FULL-MULTIGRID_j, correction) recurse through the
/// same tables one level down.

namespace pbmg::tune {

/// Executes tuned algorithms described by a TunedConfig.
class TunedExecutor {
 public:
  /// Binds the executor to a config, one Engine's resources (scheduler,
  /// direct solver, scratch pool and relax weights) and the operator it
  /// solves.  `ops` is the averaged-coefficient hierarchy of that
  /// operator — `StencilHierarchy(StencilOp::poisson(n))` for the
  /// constant-coefficient Poisson fast path, which stores no coefficients
  /// — and `rap` its Galerkin R·A·P ladder: cells whose tuned coarsening
  /// is grid::Coarsening::kRap relax and correct against it.  Throws
  /// InvalidArgument when `ops` is empty, when `rap` was built from a
  /// fine grid of another size, or when the config holds RAP cells up to
  /// ops' top level and `rap` is null.  The config, engine and
  /// hierarchies must outlive the executor.  `tracer` may be null; when
  /// set, every operation is recorded for cycle-shape rendering.
  TunedExecutor(const TunedConfig& config, Engine& engine,
                const grid::StencilHierarchy& ops,
                const grid::StencilHierarchy* rap = nullptr,
                trace::CycleTracer* tracer = nullptr);

  /// Runs MULTIGRID-V at `accuracy_index` on x (ring = Dirichlet data,
  /// interior = current guess).  x and b must be the bound hierarchy's
  /// fine size, a trained level of the config (InvalidArgument otherwise:
  /// below its top a ladder holds coarsened approximations of the
  /// operator, not the operator).  `profile`, when non-null, receives per-(level, phase)
  /// wall-time attribution at sweep granularity (obs/phase_profile.h);
  /// the default null sink keeps the solve path free of clock reads.
  /// Returns the number of top-level iterations the tuned plan actually
  /// executed — RECURSE bodies or SOR sweeps at the entry level, or 1 for
  /// a direct solve — so callers (SolveSession/SolveService) can report
  /// real cycle counts instead of fabricating them.
  int run_v(Grid2D& x, const Grid2D& b, int accuracy_index,
            obs::PhaseProfile* profile = nullptr) const;

  /// Runs FULL-MULTIGRID at `accuracy_index`; same contract as run_v.
  /// The returned count covers the solve phase at the entry level (the
  /// ESTIMATE ramp's own iterations recurse through their own cells).
  int run_fmg(Grid2D& x, const Grid2D& b, int accuracy_index,
              obs::PhaseProfile* profile = nullptr) const;

  /// One application of the RECURSE_j body at the hierarchy's top level
  /// (exposed for the trainer, which needs to iterate it while measuring
  /// accuracy).  `smoother` selects the pre/post relaxation of the body
  /// at *this* level — point red-black SOR at the tuned RECURSE ω (the
  /// default, the paper's shape) or a line variant
  /// (solvers/line_relax.h); the coarse MULTIGRID-V_j call reads its own
  /// levels' tuned smoothers from the tables.  `coarsening` selects the
  /// operator ladder the body relaxes on and corrects against at this
  /// level (the coarse call's cells again read their own tuned
  /// coarsening); at the hierarchy's top level both ladders share the
  /// fine operator, so the choice is exact there and an approximation
  /// below — which the trainer measures honestly, since candidates race
  /// under the same rule.
  void recurse_body(
      Grid2D& x, const Grid2D& b, int sub_accuracy_index,
      solvers::RelaxKind smoother = solvers::RelaxKind::kSor,
      grid::Coarsening coarsening = grid::Coarsening::kAverage,
      obs::PhaseProfile* profile = nullptr) const;

  /// One application of ESTIMATE_j at the hierarchy's top level (exposed
  /// for the trainer).
  void estimate(Grid2D& x, const Grid2D& b, int estimate_accuracy_index,
                obs::PhaseProfile* profile = nullptr) const;

  const TunedConfig& config() const { return config_; }

 private:
  // The _at entry points return the executed iteration count at *their*
  // level (the public methods surface the top level's).
  int run_v_at(Grid2D& x, const Grid2D& b, int level, int accuracy_index,
               obs::PhaseProfile* profile) const;
  int run_fmg_at(Grid2D& x, const Grid2D& b, int level, int accuracy_index,
                 obs::PhaseProfile* profile) const;
  void recurse_body_at(Grid2D& x, const Grid2D& b, int level,
                       int sub_accuracy_index, solvers::RelaxKind smoother,
                       grid::Coarsening coarsening,
                       obs::PhaseProfile* profile) const;
  void estimate_at(Grid2D& x, const Grid2D& b, int level,
                   int estimate_accuracy_index,
                   obs::PhaseProfile* profile) const;
  void trace(trace::Op op, int level, int detail = 0) const;

  /// Top level of the bound hierarchy; throws unless x and b are its size.
  int top_level_for(const Grid2D& x, const Grid2D& b, const char* what) const;

  /// Operator at `level` in the requested ladder.
  const grid::StencilOp& op_at(int level, grid::Coarsening coarsening) const;

  const TunedConfig& config_;
  rt::Scheduler& sched_;
  solvers::DirectSolver& direct_;
  grid::ScratchPool& pool_;
  const solvers::RelaxTunables& relax_;
  const grid::StencilHierarchy& ops_;
  const grid::StencilHierarchy* rap_;
  trace::CycleTracer* tracer_;
};

}  // namespace pbmg::tune
