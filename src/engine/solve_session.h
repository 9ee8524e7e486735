#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "grid/grid2d.h"
#include "grid/stencil_op.h"
#include "obs/phase_profile.h"
#include "solvers/multigrid.h"
#include "tune/dynamic.h"
#include "tune/executor.h"
#include "tune/table.h"

/// \file solve_session.h
/// A prepared solve context: Engine + a ladder of tuned configs + operator
/// + grid size — the one bound solver the service caches.
///
/// Sessions amortize per-request setup for a service that answers many
/// solves of one size: the tuned executor is bound once, the bound
/// operator's coarse coefficient hierarchy is restricted once (stencil
/// coefficients never re-coarsen on the solve path), and the level
/// hierarchy's scratch grids are preallocated into the engine's pool so
/// the first request pays no allocation bursts.  All solve entry points
/// are const and thread-safe (the underlying scheduler and scratch pool
/// are concurrent); many client threads may solve through one session as
/// long as each brings its own x/b grids.
///
/// Sessions constructed without an operator bind the constant-coefficient
/// Poisson operator — StencilOp's fast path — and execute bit-for-bit the
/// same arithmetic as before operators existed.
///
/// A session binds an ordered ladder of per-family tuned configs
/// (tune::FamilyConfig, nearest family first).  The fixed-plan entry
/// points (solve_v, solve_fmg) always run rung 0; the
/// single-config constructors bind a one-rung ladder.  solve_adaptive is
/// the paper's §6 dynamic-tuning loop (tune/dynamic.h): residual feedback
/// escalates up rung 0's accuracy ladder and then across to later rungs'
/// tables when the input responds worse than the trained class promises.

namespace pbmg {

/// Per-request outcome of a session solve.
struct SolveStats {
  double seconds = 0.0;     ///< wall-clock time of the solve
  int n = 0;                ///< grid side solved
  int level = 0;            ///< recursion level (n = 2^level + 1)
  int accuracy_index = -1;  ///< tuned-ladder index (tuned solves; else -1)
  /// Iterations actually executed: the stop-predicate count for reference
  /// drivers, the tuned plan's top-level iteration count (RECURSE bodies
  /// or SOR sweeps; 1 for a direct solve) for solve_v/solve_fmg.
  int iterations = 0;
  /// Reference drivers: stop predicate fired.  Tuned solves: true unless
  /// a requested residual check failed — a tuned plan runs a fixed
  /// iteration budget, so without the check this only asserts the plan
  /// completed, not that it met its trained accuracy.
  bool converged = true;
  double initial_residual = 0.0;  ///< ||b − A·x₀|| (residual_checked only)
  double final_residual = 0.0;    ///< ||b − A·x₁|| (residual_checked only)
  bool residual_checked = false;  ///< a ResidualPolicy check actually ran
  /// Config generation that served the solve (SolveService fills this;
  /// bare sessions leave 0).  Lets clients attribute samples across a
  /// background-retune swap.
  std::int64_t generation = 0;
  /// The per-(level, phase) breakdown the caller requested, or null when
  /// the solve ran unprofiled (the default).  Shared so callers can keep
  /// aggregating into the same profile across many solves.
  std::shared_ptr<const obs::PhaseProfile> phases;
};

/// Optional convergence audit for tuned solves.  When enabled, the session
/// measures ||b − A·x|| before and after the solve (outside the timed
/// window — SolveStats::seconds stays comparable with unchecked solves)
/// and reports converged = final ≤ ratio_limit · initial.  The default
/// ratio_limit of 1.0 only demands the solve did not diverge, which is
/// the cheap honesty the drift watcher needs: latency samples from solves
/// that blew up must not be mistaken for healthy load.
struct ResidualPolicy {
  bool enabled = false;
  double ratio_limit = 1.0;
};

/// Binds an Engine and a tuned configuration to one grid size.
class SolveSession {
 public:
  /// Binds `engine` + a copy of `config` to side-n Poisson solves.  Throws
  /// InvalidArgument when n is not 2^k+1 or exceeds the config's trained
  /// levels.  Preallocates the level hierarchy's scratch grids.
  SolveSession(Engine& engine, tune::TunedConfig config, int n);

  /// Binds a variable-coefficient operator (grid size comes from the
  /// operator).  Prewarms the operator's coarse coefficient hierarchy in
  /// addition to the scratch grids.  The config should have been trained
  /// for the operator's family (tune::TrainerOptions::op_family) — a
  /// mismatched config still converges, just with mistuned iteration
  /// counts (that delta is what bench/fig18_operator_families measures).
  SolveSession(Engine& engine, tune::TunedConfig config, grid::StencilOp op);

  /// Binds `op` to an ordered escalation ladder (nearest family first).
  /// Throws InvalidArgument when the ladder is empty, holds a null config,
  /// or any rung is not trained up to op's level.  The coefficient
  /// hierarchies and one executor per rung are all built here, once; the
  /// hierarchies are shared by every rung.
  SolveSession(Engine& engine, grid::StencilOp op,
               std::vector<tune::FamilyConfig> ladder);

  SolveSession(const SolveSession&) = delete;
  SolveSession& operator=(const SolveSession&) = delete;

  int n() const { return n_; }
  int level() const { return level_; }
  Engine& engine() const { return engine_; }

  /// Rung 0's tables: the config every fixed-plan solve runs.
  const tune::TunedConfig& config() const { return *ladder_.front().config; }

  /// Family names of the bound escalation ladder, in escalation order.
  std::vector<std::string> families() const;

  /// The bound fine-grid operator (Poisson fast path for the int ctor).
  const grid::StencilOp& op() const { return ops_.at(level_); }

  /// The prewarmed per-level operator ladder.
  const grid::StencilHierarchy& operators() const { return ops_; }

  /// Ladder index of the cheapest tuned accuracy >= target.
  int accuracy_index(double target_accuracy) const {
    return config().accuracy_index(target_accuracy);
  }

  /// Resident bytes this session pins for its lifetime: the coefficient
  /// ladders (averaged + RAP coefficient grids; shared by every rung)
  /// plus the scratch grids its solves cycle through.  The scratch
  /// term is the prewarm estimate — pool grids are shared across
  /// sessions on one engine, so this is an admission/eviction accounting
  /// figure (what binding the session added to the fleet's footprint),
  /// not an exclusive-ownership measurement.  Computed once at
  /// construction, after prewarming.
  std::size_t footprint_bytes() const { return footprint_bytes_; }

  /// Tuned MULTIGRID-V_i at `accuracy_index` (x: Dirichlet ring + guess).
  /// `profile`, when non-null, receives the solve's per-(level, phase)
  /// wall-time breakdown and is returned in SolveStats::phases; a shared
  /// profile may aggregate across many solves (and threads).  `check`
  /// optionally audits convergence via pre/post residual norms (see
  /// ResidualPolicy); both norms run outside the timed window.
  SolveStats solve_v(Grid2D& x, const Grid2D& b, int accuracy_index,
                     std::shared_ptr<obs::PhaseProfile> profile = nullptr,
                     const ResidualPolicy& check = {}) const;

  /// Tuned FULL-MULTIGRID_i at `accuracy_index`; same contract as solve_v.
  SolveStats solve_fmg(Grid2D& x, const Grid2D& b, int accuracy_index,
                       std::shared_ptr<obs::PhaseProfile> profile = nullptr,
                       const ResidualPolicy& check = {}) const;

  /// Reference V-cycles until `stop` or `max_cycles` (paper §4.2.2).
  SolveStats solve_reference_v(Grid2D& x, const Grid2D& b, int max_cycles,
                               const solvers::StopFn& stop,
                               std::shared_ptr<obs::PhaseProfile> profile =
                                   nullptr) const;

  /// Reference full multigrid: one FMG ramp, then V-cycles until `stop`.
  SolveStats solve_reference_fmg(Grid2D& x, const Grid2D& b, int max_cycles,
                                 const solvers::StopFn& stop,
                                 std::shared_ptr<obs::PhaseProfile> profile =
                                     nullptr) const;

  /// Dynamic solve (paper §6): invokes tuned V variants until the residual
  /// norm has dropped by `target_reduction` (>= 1), at most
  /// `max_iterations` times.  Starts at rung 0's cheapest accuracy and
  /// escalates when an invocation's measured reduction falls short of
  /// its class's promise — up the current rung's accuracy ladder, then
  /// across to the next rung's tables once that ladder is exhausted.
  /// Only the tuned invocations are timed; the feedback and audit norms
  /// run outside the window.  `profile`, when non-null, receives the tuned
  /// invocations' per-(level, phase) breakdown.
  tune::DynamicResult solve_adaptive(
      Grid2D& x, const Grid2D& b, double target_reduction,
      int max_iterations = 64,
      std::shared_ptr<obs::PhaseProfile> profile = nullptr) const;

  /// Iterated Red-Black SOR at ω_opt(n) scaled by the engine's tunables.
  SolveStats solve_iterated_sor(Grid2D& x, const Grid2D& b, int max_sweeps,
                                const solvers::StopFn& stop) const;

 private:
  /// A tuned plan run of rung 0's executor: run_v or run_fmg.
  using TunedRun = int (tune::TunedExecutor::*)(Grid2D&, const Grid2D&, int,
                                               obs::PhaseProfile*) const;
  /// The one timed-solve body behind solve_v and solve_fmg: checks the
  /// operands, times `run`, and audits the residual outside the window.
  SolveStats timed_solve(TunedRun run, Grid2D& x, const Grid2D& b,
                         int accuracy_index,
                         std::shared_ptr<obs::PhaseProfile> profile,
                         const ResidualPolicy& check) const;
  SolveStats stats_for(double seconds, int accuracy_index, int iterations,
                       bool converged) const;
  void check_operands(const Grid2D& x, const Grid2D& b) const;
  /// ||b − A·x|| over the interior, on a pool-leased scratch grid.
  double residual_norm(const Grid2D& x, const Grid2D& b) const;

  Engine& engine_;
  std::vector<tune::FamilyConfig> ladder_;
  int n_;
  int level_;
  grid::StencilHierarchy ops_;      // built before executors_, which bind it
  grid::StencilHierarchy ops_rap_;  // Galerkin ladder; empty unless some
                                    // rung's tuned cells ask for rap
  /// One executor per rung, bound to ladder_[k].config and the shared
  /// hierarchies (TunedExecutor is non-movable).
  std::vector<std::unique_ptr<tune::TunedExecutor>> executors_;
  std::size_t footprint_bytes_ = 0;  // see footprint_bytes()
};

}  // namespace pbmg
