// "Figure 18" (beyond the paper): the cross-tuning experiment of §4.3 /
// Figure 15, applied to *operator families* instead of machines.  The
// paper's central claim is that the best multigrid strategy is scenario-
// sensitive; here a scenario is the elliptic operator itself.  For each
// variable-coefficient family (smooth, high-contrast jump, axis-
// anisotropic) we solve that family's problems twice — once with the
// configuration tuned for constant-coefficient Poisson, once with the
// configuration retuned for the family — and report the median time to
// reach the same achieved accuracy.  Each arm is the *full* per-scenario
// pipeline (tune::load_or_search_train): a population search over runtime
// parameters raced on that arm's operator (the anisotropic family, for
// instance, wants a RECURSE ω far from the paper's Poisson-tuned 1.15),
// then the DP trained under the searched parameters, executed on an
// Engine built from them.  The Poisson row is the control: both arms
// share one artifact, so its speedup is ~1 by construction.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/harness.h"
#include "engine/solve_session.h"
#include "grid/level.h"
#include "grid/problem.h"
#include "support/timer.h"

namespace {

using namespace pbmg;
using namespace pbmg::bench;

constexpr double kTargetAccuracy = 1e7;
constexpr int kMaxPasses = 64;     // tuned-V applications before giving up
constexpr int kEvalInstances = 3;  // held-out problems per family
// Train on more instances than the bench default: a per-family table whose
// iteration counts were certified on a single instance can miss the target
// by a hair on held-out inputs, forcing a whole extra pass and turning the
// comparison into a quantization artifact instead of a tuning result.
constexpr int kMinTrainingInstances = 3;

struct ArmResult {
  double median_seconds = std::nan("");
  int passes = 0;                 ///< tuned-V invocations per solve (worst)
  double worst_achieved = 0.0;    ///< lowest achieved accuracy over instances
  std::vector<std::vector<int>> rung_sequences;  ///< per instance
  std::vector<double> samples;
};

/// Cheapest ladder rung whose tuned accuracy covers `needed`.
int rung_for(const tune::TunedConfig& config, double needed) {
  const auto& ladder = config.accuracies();
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    if (ladder[i] >= needed) return static_cast<int>(i);
  }
  return static_cast<int>(ladder.size()) - 1;
}

/// Untimed probe of one arm under the ladder-descent drive a production
/// caller would use: invoke the rung covering the full target once, then
/// top up with the cheapest rung covering the *remaining* gap until the
/// achieved accuracy reaches the target.  Both arms get the same drive,
/// so neither pays a whole-pass quantization cliff for barely missing its
/// certified accuracy on a held-out instance.  Records the rung sequence
/// for the timed replays.  Returns false when an instance never reaches
/// the target within kMaxPasses.
bool probe_arm(Engine& engine, const SolveSession& session,
               const std::vector<tune::TrainingInstance>& instances,
               ArmResult& result) {
  result.worst_achieved = std::numeric_limits<double>::infinity();
  const int top_rung = session.config().accuracy_count() - 1;
  for (const auto& inst : instances) {
    Grid2D x(inst.problem.n(), 0.0);
    x.copy_from(inst.problem.x0);
    std::vector<int> rungs;
    double achieved = 1.0;  // accuracy of the canonical start is 1
    double best = 1.0;
    int rung = rung_for(session.config(), kTargetAccuracy);
    while (static_cast<int>(rungs.size()) < kMaxPasses &&
           achieved < kTargetAccuracy) {
      session.solve_v(x, inst.problem.b, rung);
      rungs.push_back(rung);
      achieved = tune::accuracy_of(inst, x, engine.scheduler());
      if (achieved > best) {
        best = achieved;
        rung = rung_for(session.config(), kTargetAccuracy / best);
      } else {
        // Stalled or lost ground (a badly mistuned shape on a non-normal
        // operator can *grow* the error): escalate instead of retrying a
        // rung that just failed, as SolveSession::solve_adaptive does.
        rung = std::min(rung + 1, top_rung);
      }
    }
    if (achieved < kTargetAccuracy) return false;  // no accuracy contract
    result.passes =
        std::max(result.passes, static_cast<int>(rungs.size()));
    result.rung_sequences.push_back(std::move(rungs));
    result.worst_achieved = std::min(result.worst_achieved, achieved);
  }
  return true;
}

void time_arm_once(const SolveSession& session,
                   const tune::TrainingInstance& inst,
                   const std::vector<int>& rungs, ArmResult& result) {
  Grid2D x(inst.problem.n(), 0.0);
  x.copy_from(inst.problem.x0);
  const double t0 = now_seconds();
  for (const int rung : rungs) {
    session.solve_v(x, inst.problem.b, rung);
  }
  result.samples.push_back(now_seconds() - t0);
}

/// Probes both arms, then interleaves their timed trials (A, B, A, B, …)
/// so clock drift, turbo states and scheduler warm-up hit both equally —
/// the Poisson control row depends on it.
void run_arms(const Settings& settings, Engine& engine_a,
              const SolveSession& arm_a, Engine& engine_b,
              const SolveSession& arm_b,
              const std::vector<tune::TrainingInstance>& instances,
              ArmResult& a, ArmResult& b) {
  const bool a_ok = probe_arm(engine_a, arm_a, instances, a);
  const bool b_ok = probe_arm(engine_b, arm_b, instances, b);
  const int trials = std::max(settings.trials, 3);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    for (int t = 0; t < trials; ++t) {
      if (a_ok) time_arm_once(arm_a, instances[i], a.rung_sequences[i], a);
      if (b_ok) time_arm_once(arm_b, instances[i], b.rung_sequences[i], b);
    }
  }
  for (ArmResult* r : {&a, &b}) {
    if (r->samples.empty()) continue;
    std::sort(r->samples.begin(), r->samples.end());
    r->median_seconds = r->samples[r->samples.size() / 2];
  }
}

std::vector<tune::TrainingInstance> eval_instances(const Settings& settings,
                                                   Engine& engine,
                                                   OperatorFamily family,
                                                   int n) {
  const grid::StencilOp op = make_operator(n, family);
  std::vector<tune::TrainingInstance> instances;
  instances.reserve(kEvalInstances);
  Rng rng(settings.eval_seed);
  for (int i = 0; i < kEvalInstances; ++i) {
    Rng sub = rng.split(0xF16'18u + static_cast<std::uint64_t>(i));
    instances.push_back(tune::make_training_instance(
        op, InputDistribution::kUnbiased, sub, engine.scheduler()));
  }
  return instances;
}

int main_impl(int argc, const char* const* argv) {
  auto maybe = parse_settings(
      argc, argv, "fig18_operator_families",
      "per-operator retuning payoff: Poisson-tuned vs family-retuned "
      "configs at equal achieved accuracy");
  if (!maybe) return 0;
  const Settings settings = *maybe;
  const int level = settings.max_level;
  const int n = size_of_level(level);
  const std::string cache_dir = engine_options(settings,
                                               rt::MachineProfile{}).cache_dir;

  // One search-then-train artifact per scenario: the search races runtime
  // parameters on the family's own workload, the DP trains under the
  // winner, and the arm executes on an Engine built from both.
  const auto tune_scenario = [&](OperatorFamily family) {
    tune::TrainerOptions options = trainer_options(
        settings, InputDistribution::kUnbiased, level);
    options.training_instances =
        std::max(kMinTrainingInstances, settings.training_instances);
    options.op_family = family;
    search::ProfileSearchOptions search_options;
    search_options.base = rt::MachineProfile{};
    search_options.level = level;
    search_options.op_family = family;
    // Fixed machine, varying operator: search only the relaxation weights
    // so machine-knob timing noise cannot masquerade as a retuning effect.
    search_options.relax_only = true;
    search_options.target_accuracy = kTargetAccuracy;
    search_options.max_cycles = 200;  // slow-converging ω must score, not DNF
    search_options.seed = settings.train_seed;
    search_options.instances = 2;
    if (settings.verbose && options.log) search_options.log = options.log;
    return tune::load_or_search_train(
        options, search_options,
        cache_dir.empty() ? tune::default_cache_dir() : cache_dir);
  };

  progress("fig18: search+train for the Poisson baseline");
  const tune::SearchTrainResult poisson_tuned =
      tune_scenario(OperatorFamily::kPoisson);
  Engine poisson_engine(poisson_tuned.searched.profile,
                        poisson_tuned.searched.relax);

  Json rows = Json::array();
  TextTable table({"family", "poisson-tuned (s)", "retuned (s)", "speedup",
                   "passes P/R", "achieved P/R"});
  for (const OperatorFamily family : kAllOperatorFamilies) {
    progress("fig18: search+train for family '" + to_string(family) + "'");
    const tune::SearchTrainResult retuned = tune_scenario(family);
    Engine retuned_engine(retuned.searched.profile, retuned.searched.relax);

    const auto instances =
        eval_instances(settings, poisson_engine, family, n);
    const grid::StencilOp op = make_operator(n, family);
    const SolveSession poisson_arm(poisson_engine, poisson_tuned.config, op);
    const SolveSession retuned_arm(retuned_engine, retuned.config, op);
    ArmResult p, r;
    run_arms(settings, poisson_engine, poisson_arm, retuned_engine,
             retuned_arm, instances, p, r);
    const double speedup = p.median_seconds / r.median_seconds;

    table.add_row({to_string(family), format_double(p.median_seconds),
                   format_double(r.median_seconds),
                   format_double(speedup, 3),
                   std::to_string(p.passes) + "/" + std::to_string(r.passes),
                   format_double(p.worst_achieved, 3) + "/" +
                       format_double(r.worst_achieved, 3)});
    Json row = Json::object();
    row.set("family", to_string(family));
    row.set("n", std::int64_t{n});
    row.set("target_accuracy", kTargetAccuracy);
    row.set("poisson_tuned_seconds", p.median_seconds);
    row.set("retuned_seconds", r.median_seconds);
    row.set("speedup", speedup);
    row.set("poisson_tuned_passes", std::int64_t{p.passes});
    row.set("retuned_passes", std::int64_t{r.passes});
    row.set("poisson_tuned_achieved", p.worst_achieved);
    row.set("retuned_achieved", r.worst_achieved);
    rows.push_back(std::move(row));
    progress("fig18: family '" + to_string(family) + "' done");
  }

  const int target_exp =
      static_cast<int>(std::lround(std::log10(kTargetAccuracy)));
  emit_table(settings, "fig18_operator_families",
             "per-family retuning vs Poisson-tuned config, N=" +
                 std::to_string(n) + ", equal achieved accuracy >= 10^" +
                 std::to_string(target_exp) + " (median over " +
                 std::to_string(kEvalInstances) + " instances)",
             table);
  Json doc = Json::object();
  doc.set("n", std::int64_t{n});
  doc.set("target_accuracy", kTargetAccuracy);
  doc.set("families", std::move(rows));
  emit_bench_json(settings, "fig18_operator_families_detail", doc);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return main_impl(argc, argv); }
