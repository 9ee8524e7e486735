#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tune/table.h"

/// \file dynamic.h
/// Dynamic tuning — the paper's §6 future-work extension.
///
/// "Another direction we plan to explore is the use of dynamic tuning
///  where an algorithm has the ability to adapt during execution based on
///  some features of the intermediate state … switch between tuned
///  versions of itself, providing better performance across a broader
///  range of inputs."
///
/// The adaptive loop lives on the bound solver itself:
/// SolveSession::solve_adaptive (engine/solve_session.h) drives a
/// session's ladder of per-family tuned configs with residual feedback,
/// escalating up the current family's accuracy ladder and then across to
/// the next-nearest family.  This header holds the vocabulary that loop
/// and its callers share: a ladder rung and the honest per-variant
/// outcome.
///
/// Honest stats contract (PR 8): DynamicResult reports the executor's
/// *real* per-variant iteration counts, times only the tuned-variant
/// invocations (residual feedback norms run outside the timed window),
/// and sets `converged` from a final residual audit, not the in-loop
/// feedback value.

namespace pbmg::tune {

/// One rung of the cross-family escalation ladder: a family name (stable
/// grid/problem.h token, used in results and metrics labels) and its
/// tuned tables.  The shared_ptr keeps the config alive for the bound
/// solver's lifetime.
struct FamilyConfig {
  std::string family;
  std::shared_ptr<const TunedConfig> config;
};

/// One tuned-variant invocation of a dynamic solve, with the executor's
/// real iteration count — the per-variant half of the honest-stats
/// contract.
struct VariantRun {
  std::string family;       ///< family whose tables ran
  int accuracy_index = 0;   ///< ladder index invoked
  int cycles = 0;           ///< top-level iterations the plan executed
  double reduction = 1.0;   ///< residual reduction this invocation measured
};

/// Outcome of a dynamic solve.
struct DynamicResult {
  int iterations = 0;       ///< tuned-variant invocations performed
  int escalations = 0;      ///< in-family moves up the accuracy ladder
  int family_switches = 0;  ///< cross-family ladder switches
  int final_accuracy_index = 0;  ///< ladder index in use when stopping
  std::string final_family;      ///< family in use when stopping
  double initial_residual = 0.0;  ///< ||b − A·x₀|| (audit, untimed)
  double final_residual = 0.0;    ///< ||b − A·x₁|| (audit, untimed)
  double residual_reduction = 1.0;  ///< ||r_0|| / ||r_final||
  double seconds = 0.0;     ///< summed tuned-variant wall-clock (timed
                            ///< window excludes every residual norm)
  bool converged = false;   ///< final residual audit met the target
  std::vector<VariantRun> variants;  ///< one entry per invocation
};

}  // namespace pbmg::tune
