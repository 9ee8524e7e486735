// End-to-end integration tests across modules: the full train → save →
// load → execute pipeline on multiple distributions and profiles, scratch
// pool behaviour under the real solvers, cross-profile execution of tuned
// configs, and the heuristic-vs-autotuned dominance relation the paper's
// Figure 8 rests on.

#include <cmath>
#include <filesystem>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/solve_session.h"
#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/scratch.h"
#include "solvers/multigrid.h"
#include "support/rng.h"
#include "test_problems.h"
#include "trace/cycle_trace.h"
#include "tune/accuracy.h"
#include "tune/config_cache.h"
#include "tune/executor.h"
#include "tune/trainer.h"

namespace pbmg {
namespace {

Engine& engine() {
  static Engine instance([] {
    rt::MachineProfile p;
    p.name = "integration";
    p.threads = 4;
    p.grain_rows = 4;
    return p;
  }());
  return instance;
}

rt::Scheduler& sched() { return engine().scheduler(); }

inline std::string dist_label(int index) {
  switch (index) {
    case 0: return "unbiased";
    case 1: return "biased";
    default: return "pointsources";
  }
}

class DistributionPipeline : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Dists, DistributionPipeline,
                         ::testing::Values(0, 1, 2),
                         [](const auto& info) {
                           return dist_label(info.param);
                         });

TEST_P(DistributionPipeline, TrainSaveLoadSolveMeetsContract) {
  const auto dist = static_cast<InputDistribution>(GetParam());
  tune::TrainerOptions options;
  options.max_level = 5;
  options.distribution = dist;
  options.seed = 99 + static_cast<std::uint64_t>(GetParam());
  tune::Trainer trainer(options, engine());
  const tune::TunedConfig trained = trainer.train();

  const auto path = std::filesystem::temp_directory_path() /
                    ("pbmg_pipeline_" + to_string(dist) + ".json");
  trained.save(path.string());
  const tune::TunedConfig loaded = tune::TunedConfig::load(path.string());
  std::filesystem::remove(path);

  // The loaded config must execute identically: same traced shape, and
  // accuracy contract on a held-out instance.
  const int n = size_of_level(5);
  Rng rng(777);
  auto inst = tune::make_training_instance(n, dist, rng, sched());
  const testing::PoissonLadders ladders(loaded, n);
  for (int i = 0; i < loaded.accuracy_count(); ++i) {
    trace::CycleTracer t1, t2;
    Grid2D x1(n, 0.0), x2(n, 0.0);
    x1.copy_from(inst.problem.x0);
    x2.copy_from(inst.problem.x0);
    tune::TunedExecutor e1(trained, engine(), ladders.ops,
                           ladders.rap_or_null(), &t1);
    tune::TunedExecutor e2(loaded, engine(), ladders.ops,
                           ladders.rap_or_null(), &t2);
    e1.run_v(x1, inst.problem.b, i);
    e2.run_v(x2, inst.problem.b, i);
    ASSERT_EQ(t1.events().size(), t2.events().size());
    const double target =
        loaded.accuracies()[static_cast<std::size_t>(i)];
    EXPECT_GE(tune::accuracy_of(inst, x2, sched()), 0.2 * target)
        << to_string(dist) << " accuracy " << target;
  }
}

TEST(Integration, TunedConfigRunsUnderDifferentProfile) {
  // §4.3: a config tuned for machine A still *works* on machine B (it is
  // just slower than the native config); execution must stay correct.
  tune::TrainerOptions options;
  options.max_level = 5;
  tune::Trainer trainer(options, engine());
  const tune::TunedConfig config = trainer.train();

  // Machine B is a second, coexisting Engine — not a global profile swap.
  Engine serial_engine(rt::serial_profile());
  auto& serial = serial_engine.scheduler();
  const int n = size_of_level(5);
  Rng rng(888);
  auto inst = tune::make_training_instance(n, InputDistribution::kUnbiased,
                                           rng, serial);
  const SolveSession session(serial_engine, config, n);
  Grid2D x(n, 0.0);
  x.copy_from(inst.problem.x0);
  session.solve_v(x, inst.problem.b, config.accuracy_count() - 1);
  EXPECT_GE(tune::accuracy_of(inst, x, serial),
            0.2 * config.accuracies().back());
}

TEST(Integration, HeuristicsNeverBeatAutotunedByMuch) {
  // The DP tuner's candidate space strictly contains every heuristic's
  // space, so the tuned expected time can exceed a heuristic's only by
  // measurement noise (paper Fig. 8: ratios >= ~1).
  tune::TrainerOptions options;
  options.max_level = 5;
  options.train_fmg = false;
  tune::Trainer tuner(options, engine());
  const tune::TunedConfig autotuned = tuner.train();
  const int top = autotuned.accuracy_count() - 1;
  const double tuned_time =
      autotuned.v_entry(5, top).expected_time;
  for (int j = 0; j < autotuned.accuracy_count(); ++j) {
    tune::Trainer htrainer(options, engine());
    const tune::TunedConfig heuristic = htrainer.train_heuristic(j);
    const double h_time = heuristic.v_entry(5, top).expected_time;
    EXPECT_GE(h_time, 0.5 * tuned_time)
        << "heuristic " << j << " implausibly beat the autotuner";
  }
}

TEST(Integration, FmgTableNeverSlowerThanVTableByMuch) {
  // FULL-MULTIGRID_i's candidate space includes (estimate + the same
  // RECURSE iteration the V table uses), so its expected time should not
  // exceed the V table's by more than noise at any cell.
  tune::TrainerOptions options;
  options.max_level = 6;
  tune::Trainer trainer(options, engine());
  const tune::TunedConfig config = trainer.train();
  for (int level = 3; level <= config.max_level(); ++level) {
    for (int i = 0; i < config.accuracy_count(); ++i) {
      const double v = config.v_entry(level, i).expected_time;
      const double f = config.fmg_entry(level, i).expected_time;
      EXPECT_LE(f, 2.0 * v + 1e-4)
          << "FMG cell (" << level << "," << i << ") much slower than V";
    }
  }
}

TEST(Integration, ScratchPoolRecyclesAcrossSolves) {
  grid::ScratchPool pool;  // dedicated pool: counts are deterministic
  Rng rng(999);
  auto problem = make_problem(65, InputDistribution::kUnbiased, rng);
  const grid::StencilHierarchy ops(grid::StencilOp::poisson(65));
  Grid2D x = problem.x0;
  solvers::vcycle(ops, x, problem.b, solvers::VCycleOptions{}, sched(),
                  engine().direct(), pool);
  const std::size_t after_first = pool.pooled();
  EXPECT_GT(after_first, 0u);  // temporaries returned to the pool
  solvers::vcycle(ops, x, problem.b, solvers::VCycleOptions{}, sched(),
                  engine().direct(), pool);
  // Steady state: the second cycle reuses what the first returned.
  EXPECT_EQ(pool.pooled(), after_first);
  const auto stats = pool.stats();
  EXPECT_GT(stats.hits, 0);
  EXPECT_EQ(stats.acquires, stats.hits + stats.misses);
}

TEST(Integration, TracedShapeMatchesTableIterations) {
  // The number of fine-grid relaxations in the trace must equal
  // 2 × (iterations at the top level) when the top choice is RECURSE
  // (one pre- and one post-sweep per iteration).
  tune::TrainerOptions options;
  options.max_level = 5;
  options.train_fmg = false;
  tune::Trainer trainer(options, engine());
  const tune::TunedConfig config = trainer.train();
  const int top = config.accuracy_count() - 1;
  const auto& entry = config.v_entry(5, top);
  if (entry.choice.kind != tune::VKind::kRecurse) {
    GTEST_SKIP() << "top choice is not RECURSE on this machine";
  }
  const int n = size_of_level(5);
  const testing::PoissonLadders ladders(config, n);
  trace::CycleTracer tracer;
  tune::TunedExecutor executor(config, engine(), ladders.ops,
                               ladders.rap_or_null(), &tracer);
  Rng rng(555);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  Grid2D x = problem.x0;
  executor.run_v(x, problem.b, top);
  int fine_relaxations = 0;
  for (const auto& event : tracer.events()) {
    if (event.op == trace::Op::kRelax && event.level == 5) {
      ++fine_relaxations;
    }
  }
  EXPECT_EQ(fine_relaxations, 2 * entry.choice.iterations);
}

TEST(Integration, AccuracyLaddersOtherThanPaperDefaultWork) {
  // The tuner is generic in the ladder; train with 3 levels.
  tune::TrainerOptions options;
  options.accuracies = {1e2, 1e4, 1e8};
  options.max_level = 4;
  options.train_fmg = false;
  tune::Trainer trainer(options, engine());
  const tune::TunedConfig config = trainer.train();
  EXPECT_EQ(config.accuracy_count(), 3);
  const int n = size_of_level(4);
  Rng rng(444);
  auto inst = tune::make_training_instance(n, InputDistribution::kUnbiased,
                                           rng, sched());
  const SolveSession session(engine(), config, n);
  for (int i = 0; i < 3; ++i) {
    Grid2D x(n, 0.0);
    x.copy_from(inst.problem.x0);
    session.solve_v(x, inst.problem.b, i);
    EXPECT_GE(tune::accuracy_of(inst, x, sched()),
              0.2 * options.accuracies[static_cast<std::size_t>(i)]);
  }
}

}  // namespace
}  // namespace pbmg
