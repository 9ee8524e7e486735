// Tests for the autotuner: accuracy metric, tuned-config tables and
// serialization, the DP trainer's contracts (tuned algorithms meet their
// accuracy levels on held-out inputs), heuristic training, executors, and
// the config disk cache.

#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/solve_session.h"
#include "grid/grid_ops.h"
#include "grid/level.h"
#include "solvers/relax.h"
#include "support/rng.h"
#include "test_problems.h"
#include "trace/cycle_trace.h"
#include "tune/accuracy.h"
#include "tune/config_cache.h"
#include "tune/executor.h"
#include "tune/table.h"
#include "tune/trainer.h"

namespace pbmg::tune {
namespace {

Engine& engine() {
  static Engine instance([] {
    rt::MachineProfile p;
    p.name = "tune-test";
    p.threads = 4;
    p.grain_rows = 4;
    return p;
  }());
  return instance;
}

rt::Scheduler& sched() { return engine().scheduler(); }


TrainerOptions small_options() {
  TrainerOptions options;
  options.max_level = 5;  // up to N = 33: fast enough for unit tests
  options.training_instances = 2;
  options.seed = 77;
  return options;
}

/// Trains once and shares the config across tests (training is the
/// expensive part of this suite).
const TunedConfig& trained() {
  static const TunedConfig config = [] {
    Trainer trainer(small_options(), engine());
    return trainer.train();
  }();
  return config;
}

// ------------------------------------------------------------- accuracy --

TEST(Accuracy, InstanceMetricBehaves) {
  Rng rng(5);
  auto inst = make_training_instance(17, InputDistribution::kUnbiased, rng,
                                     sched());
  EXPECT_GT(inst.initial_error, 0.0);
  // The starting guess has accuracy exactly 1.
  EXPECT_NEAR(accuracy_of(inst, inst.problem.x0, sched()), 1.0, 1e-12);
  // The exact solution has infinite (or at least astronomically large)
  // accuracy.
  EXPECT_GT(accuracy_of(inst, inst.x_opt, sched()), 1e12);
}

TEST(Accuracy, TrainingSetIsDeterministicInSeed) {
  const Rng base(123);
  auto a = make_training_set(9, InputDistribution::kBiased, base, 2, sched());
  auto b = make_training_set(9, InputDistribution::kBiased, base, 2, sched());
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0].problem.b(1, 1), b[0].problem.b(1, 1));
  EXPECT_EQ(a[1].problem.b(2, 3), b[1].problem.b(2, 3));
  EXPECT_NE(a[0].problem.b(1, 1), a[1].problem.b(1, 1));  // distinct streams
}

// ---------------------------------------------------------------- table --

TEST(TunedConfig, ValidatesConstruction) {
  EXPECT_THROW(TunedConfig({}, 3), InvalidArgument);
  EXPECT_THROW(TunedConfig({10.0, 10.0}, 3), InvalidArgument);  // not ascending
  EXPECT_THROW(TunedConfig({0.5, 10.0}, 3), InvalidArgument);   // <= 1
  EXPECT_THROW(TunedConfig({10.0}, 0), InvalidArgument);
  const TunedConfig config(paper_accuracies(), 4);
  EXPECT_EQ(config.accuracy_count(), 5);
  EXPECT_EQ(config.max_level(), 4);
}

TEST(TunedConfig, LevelOneIsDirectBaseCase) {
  const TunedConfig config(paper_accuracies(), 3);
  for (int i = 0; i < config.accuracy_count(); ++i) {
    EXPECT_EQ(config.v_entry(1, i).choice.kind, VKind::kDirect);
    EXPECT_TRUE(config.v_entry(1, i).trained);
    EXPECT_EQ(config.fmg_entry(1, i).choice.kind, FmgKind::kDirect);
  }
}

TEST(TunedConfig, AccuracyIndexLookup) {
  const TunedConfig config(paper_accuracies(), 3);
  EXPECT_EQ(config.accuracy_index(1e1), 0);
  EXPECT_EQ(config.accuracy_index(1e9), 4);
  EXPECT_THROW(config.accuracy_index(1e2), InvalidArgument);
}

TEST(TunedConfig, CellRangeChecks) {
  TunedConfig config(paper_accuracies(), 3);
  EXPECT_THROW(config.v_entry(0, 0), InvalidArgument);
  EXPECT_THROW(config.v_entry(4, 0), InvalidArgument);
  EXPECT_THROW(config.v_entry(2, 5), InvalidArgument);
  EXPECT_THROW(config.fmg_entry(2, -1), InvalidArgument);
}

TEST(TunedConfig, JsonRoundTripPreservesEverything) {
  const TunedConfig& config = trained();
  const TunedConfig copy = TunedConfig::from_json(config.to_json());
  EXPECT_EQ(copy.max_level(), config.max_level());
  EXPECT_EQ(copy.accuracies(), config.accuracies());
  EXPECT_EQ(copy.profile_name, config.profile_name);
  EXPECT_EQ(copy.distribution, config.distribution);
  EXPECT_EQ(copy.seed, config.seed);
  EXPECT_EQ(copy.strategy, "autotuned");
  for (int level = 1; level <= config.max_level(); ++level) {
    for (int i = 0; i < config.accuracy_count(); ++i) {
      const VEntry& a = config.v_entry(level, i);
      const VEntry& b = copy.v_entry(level, i);
      ASSERT_EQ(a.choice.kind, b.choice.kind);
      ASSERT_EQ(a.choice.sub_accuracy, b.choice.sub_accuracy);
      ASSERT_EQ(a.choice.iterations, b.choice.iterations);
      ASSERT_EQ(a.choice.smoother, b.choice.smoother);
      ASSERT_EQ(a.trained, b.trained);
      const FmgEntry& fa = config.fmg_entry(level, i);
      const FmgEntry& fb = copy.fmg_entry(level, i);
      ASSERT_EQ(fa.choice.kind, fb.choice.kind);
      ASSERT_EQ(fa.choice.estimate_accuracy, fb.choice.estimate_accuracy);
      ASSERT_EQ(fa.choice.solve_accuracy, fb.choice.solve_accuracy);
      ASSERT_EQ(fa.choice.iterations, fb.choice.iterations);
      ASSERT_EQ(fa.choice.smoother, fb.choice.smoother);
    }
  }
}

TEST(TunedConfig, RejectsMalformedDocuments) {
  EXPECT_THROW(TunedConfig::from_json(Json::parse("{}")), ConfigError);
  Json bad = trained().to_json();
  bad.set("format", "other");
  EXPECT_THROW(TunedConfig::from_json(bad), ConfigError);
  Json truncated = trained().to_json();
  truncated.at("multigrid_v");  // ensure key exists
  truncated.set("multigrid_v", Json::array());
  EXPECT_THROW(TunedConfig::from_json(truncated), ConfigError);
}

TEST(TunedConfig, RejectsOutOfRangeReferences) {
  TunedConfig config(paper_accuracies(), 3);
  for (int level = 2; level <= 3; ++level) {
    for (int i = 0; i < 5; ++i) {
      VEntry e;
      e.choice.kind = VKind::kRecurse;
      e.choice.sub_accuracy = 9;  // invalid
      e.choice.iterations = 1;
      e.trained = true;
      config.v_entry(level, i) = e;
      FmgEntry f;
      f.choice.kind = FmgKind::kDirect;
      f.trained = true;
      config.fmg_entry(level, i) = f;
    }
  }
  EXPECT_THROW(TunedConfig::from_json(config.to_json()), ConfigError);
}

TEST(TunedConfig, SaveLoadFileRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "pbmg_config_test.json";
  trained().save(path.string());
  const TunedConfig loaded = TunedConfig::load(path.string());
  EXPECT_EQ(loaded.max_level(), trained().max_level());
  std::filesystem::remove(path);
  EXPECT_THROW(TunedConfig::load(path.string()), ConfigError);
}

// -------------------------------------------------------------- trainer --

TEST(Trainer, ValidatesOptions) {
  TrainerOptions bad = small_options();
  bad.max_level = 1;
  EXPECT_THROW(Trainer(bad, engine()), InvalidArgument);
  bad = small_options();
  bad.training_instances = 0;
  EXPECT_THROW(Trainer(bad, engine()), InvalidArgument);
  bad = small_options();
  bad.prune_factor = 0.5;
  EXPECT_THROW(Trainer(bad, engine()), InvalidArgument);
}

TEST(Trainer, AllCellsTrainedWithValidChoices) {
  const TunedConfig& config = trained();
  for (int level = 2; level <= config.max_level(); ++level) {
    for (int i = 0; i < config.accuracy_count(); ++i) {
      const VEntry& v = config.v_entry(level, i);
      ASSERT_TRUE(v.trained) << "V cell " << level << "," << i;
      if (v.choice.kind == VKind::kRecurse) {
        // kClassicalCoarse marks the classical single-body V-cycle coarse
        // call; any other value must be a valid ladder index.
        ASSERT_GE(v.choice.sub_accuracy, kClassicalCoarse);
        ASSERT_LT(v.choice.sub_accuracy, config.accuracy_count());
        ASSERT_GE(v.choice.iterations, 1);
      }
      const FmgEntry& f = config.fmg_entry(level, i);
      ASSERT_TRUE(f.trained) << "FMG cell " << level << "," << i;
      if (f.choice.kind != FmgKind::kDirect) {
        ASSERT_GE(f.choice.estimate_accuracy, 0);
        ASSERT_GE(f.choice.iterations, 0);  // 0 = estimate alone sufficed
      }
    }
  }
}

TEST(Trainer, SmallLevelsShortcutToTheDirectSolver) {
  // The paper observes a "marked difference for small problem sizes due to
  // the ... direct solve without incurring the overhead of recursion".
  // Individual cell choices at microsecond scales are subject to timing
  // noise, so assert the aggregate shape: somewhere in the small levels
  // (N <= 17) the tuner must shortcut to the direct solver for the
  // high-accuracy targets, where an exact solve is almost free compared to
  // iterating.
  const TunedConfig& config = trained();
  bool any_direct = false;
  for (int level = 2; level <= std::min(4, config.max_level()); ++level) {
    for (int i = 2; i < config.accuracy_count(); ++i) {
      any_direct = any_direct ||
                   config.v_entry(level, i).choice.kind == VKind::kDirect;
    }
  }
  EXPECT_TRUE(any_direct);
}

TEST(Trainer, ExpectedTimeIsMonotoneInAccuracy) {
  // Demanding more accuracy can never be *faster* at the same level (the
  // optimal-set construction guarantees it up to measurement noise; we
  // allow a small tolerance).
  const TunedConfig& config = trained();
  for (int level = 2; level <= config.max_level(); ++level) {
    for (int i = 1; i < config.accuracy_count(); ++i) {
      EXPECT_LE(config.v_entry(level, i - 1).expected_time,
                config.v_entry(level, i).expected_time * 1.5 + 1e-4)
          << "level " << level << " i " << i;
    }
  }
}

/// Central contract: the tuned MULTIGRID-V_i reaches accuracy p_i on
/// held-out instances (fresh seeds) at every trained level.
TEST(Trainer, TunedVMeetsAccuracyOnHeldOutInputs) {
  const TunedConfig& config = trained();
  // A fresh table may carry Galerkin-RAP cells (the coarsening axis is
  // raced by default); each level's session binds the Poisson RAP ladder
  // for its size when it does.
  Rng rng(990001);
  for (int level = 2; level <= config.max_level(); ++level) {
    const int n = size_of_level(level);
    const SolveSession session(engine(), config, n);
    auto inst = make_training_instance(n, InputDistribution::kUnbiased, rng,
                                       sched());
    for (int i = 0; i < config.accuracy_count(); ++i) {
      Grid2D x(n, 0.0);
      x.copy_from(inst.problem.x0);
      session.solve_v(x, inst.problem.b, i);
      const double achieved = accuracy_of(inst, x, sched());
      const double target = config.accuracies()[static_cast<std::size_t>(i)];
      // Allow modest slack: training measured iteration counts on its own
      // instances; held-out inputs may need a whisker more.
      EXPECT_GE(achieved, 0.2 * target)
          << "level " << level << " accuracy " << target;
    }
  }
}

TEST(Trainer, TunedFmgMeetsAccuracyOnHeldOutInputs) {
  const TunedConfig& config = trained();
  Rng rng(990002);
  for (int level = 2; level <= config.max_level(); ++level) {
    const int n = size_of_level(level);
    const SolveSession session(engine(), config, n);
    auto inst = make_training_instance(n, InputDistribution::kUnbiased, rng,
                                       sched());
    for (int i = 0; i < config.accuracy_count(); ++i) {
      Grid2D x(n, 0.0);
      x.copy_from(inst.problem.x0);
      session.solve_fmg(x, inst.problem.b, i);
      const double achieved = accuracy_of(inst, x, sched());
      const double target = config.accuracies()[static_cast<std::size_t>(i)];
      EXPECT_GE(achieved, 0.2 * target)
          << "level " << level << " accuracy " << target;
    }
  }
}

TEST(Trainer, HeuristicRestrictsChoices) {
  TrainerOptions options = small_options();
  options.train_fmg = false;
  Trainer trainer(options, engine());
  const int fixed = 2;  // 10^5
  const TunedConfig config = trainer.train_heuristic(fixed);
  EXPECT_NE(config.strategy.find("heuristic"), std::string::npos);
  for (int level = 2; level <= config.max_level(); ++level) {
    for (int i = 0; i < config.accuracy_count(); ++i) {
      const VChoice& choice = config.v_entry(level, i).choice;
      ASSERT_TRUE(choice.kind == VKind::kDirect ||
                  (choice.kind == VKind::kRecurse &&
                   choice.sub_accuracy == fixed))
          << "level " << level << " i " << i;
    }
  }
  // The heuristic still meets the top accuracy on held-out data.
  const SolveSession session(engine(), config,
                             size_of_level(config.max_level()));
  Rng rng(990003);
  auto inst = make_training_instance(session.n(), InputDistribution::kUnbiased,
                                     rng, sched());
  Grid2D x(inst.problem.x0.n(), 0.0);
  x.copy_from(inst.problem.x0);
  session.solve_v(x, inst.problem.b, config.accuracy_count() - 1);
  EXPECT_GE(accuracy_of(inst, x, sched()),
            0.2 * config.accuracies().back());
}

TEST(Trainer, HeuristicValidatesSubAccuracy) {
  Trainer trainer(small_options(), engine());
  EXPECT_THROW(trainer.train_heuristic(-1), InvalidArgument);
  EXPECT_THROW(trainer.train_heuristic(99), InvalidArgument);
}

TEST(Trainer, ValidatesSmootherCandidateList) {
  TrainerOptions bad = small_options();
  bad.smoothers.clear();
  EXPECT_THROW(Trainer(bad, engine()), InvalidArgument);
  bad = small_options();
  bad.smoothers = {solvers::RelaxKind::kJacobi};  // ablation-only smoother
  EXPECT_THROW(Trainer(bad, engine()), InvalidArgument);
}

TEST(Trainer, ValidatesCoarseningCandidateList) {
  TrainerOptions bad = small_options();
  bad.coarsenings.clear();
  EXPECT_THROW(Trainer(bad, engine()), InvalidArgument);
  bad = small_options();
  bad.coarsenings = {static_cast<grid::Coarsening>(42)};  // stray byte
  EXPECT_THROW(Trainer(bad, engine()), InvalidArgument);
}

TEST(Trainer, HeuristicTablesStayPointOnly) {
  // The Figure-7 heuristics reproduce the paper's restricted space
  // exactly; the smoother axis must not leak into them.
  TrainerOptions options = small_options();
  options.max_level = 3;
  options.train_fmg = false;
  Trainer trainer(options, engine());
  const TunedConfig config = trainer.train_heuristic(1);
  for (int level = 2; level <= config.max_level(); ++level) {
    for (int i = 0; i < config.accuracy_count(); ++i) {
      EXPECT_EQ(config.v_entry(level, i).choice.smoother,
                solvers::RelaxKind::kSor)
          << "level " << level << " i " << i;
      // Nor the coarsening axis: heuristics keep the averaged ladder.
      EXPECT_EQ(config.v_entry(level, i).choice.coarsening,
                grid::Coarsening::kAverage)
          << "level " << level << " i " << i;
    }
  }
}

/// The ISSUE-4 regression: the relaxation axis exists so the autotuner
/// can *discover* line smoothing where point relaxation stalls.  With the
/// aniso-1000:1 operator, levels 5–6 (N = 33/65) have no competitive
/// non-line candidate — point RECURSE cannot reach even the first
/// accuracy rung within its iteration cap (contraction ~0.999/cycle),
/// the direct solver's O(N⁴) cost is already beaten, and point SOR needs
/// thousands of sweeps — so the trained table must select a line/zebra
/// smoother on both of the finest two levels.
TEST(Trainer, DiscoversLineSmootherAtExtremeAnisotropy) {
  TrainerOptions options;
  options.accuracies = {10.0, 1e3, 1e5};
  options.max_level = 6;
  options.training_instances = 2;
  options.train_fmg = false;
  options.seed = 77;
  options.op_family = OperatorFamily::kAnisotropic1000;
  Trainer trainer(options, engine());
  const TunedConfig config = trainer.train();
  EXPECT_EQ(config.op_family, "aniso1000");
  const int top = config.accuracy_count() - 1;
  for (int level = 5; level <= 6; ++level) {
    const VChoice& choice = config.v_entry(level, top).choice;
    ASSERT_EQ(choice.kind, VKind::kRecurse) << "level " << level;
    EXPECT_TRUE(solvers::is_line_relax(choice.smoother))
        << "level " << level << " chose "
        << solvers::to_string(choice.smoother);
  }
  // The discovered tables honour their accuracy contract on held-out
  // inputs (same 10× slack as the session suite).
  const int n = size_of_level(options.max_level);
  SolveSession session(engine(), config,
                       make_operator(n, options.op_family));
  const auto inst = pbmg::testing::make_family_instance(
      options.op_family, n, 2026'07'28, sched());
  Grid2D x = inst.problem.x0;
  session.solve_v(x, inst.problem.b, top);
  EXPECT_GE(accuracy_of(inst, x, sched()),
            0.1 * config.accuracies().back());
}

// ------------------------------------------------------------- executor --

TEST(Executor, RunsFixedShapesIndependentOfInput) {
  // Tuned algorithms execute a static cycle shape: the traced event
  // sequence must be identical across inputs.
  const TunedConfig& config = trained();
  const int level = config.max_level();
  const int n = size_of_level(level);
  Rng rng(31337);
  auto p1 = make_problem(n, InputDistribution::kUnbiased, rng);
  auto p2 = make_problem(n, InputDistribution::kBiased, rng);
  const testing::PoissonLadders ladders(config, n);
  trace::CycleTracer t1, t2;
  {
    TunedExecutor executor(config, engine(), ladders.ops,
                           ladders.rap_or_null(), &t1);
    Grid2D x = p1.x0;
    executor.run_v(x, p1.b, 3);
  }
  {
    TunedExecutor executor(config, engine(), ladders.ops,
                           ladders.rap_or_null(), &t2);
    Grid2D x = p2.x0;
    executor.run_v(x, p2.b, 3);
  }
  ASSERT_EQ(t1.events().size(), t2.events().size());
  for (std::size_t e = 0; e < t1.events().size(); ++e) {
    ASSERT_EQ(t1.events()[e].op, t2.events()[e].op);
    ASSERT_EQ(t1.events()[e].level, t2.events()[e].level);
  }
  EXPECT_FALSE(t1.events().empty());
}

TEST(Executor, TraceRendersACycle) {
  const TunedConfig& config = trained();
  const int n = size_of_level(config.max_level());
  const testing::PoissonLadders ladders(config, n);
  trace::CycleTracer tracer;
  TunedExecutor executor(config, engine(), ladders.ops, ladders.rap_or_null(),
                         &tracer);
  Rng rng(424242);
  auto p = make_problem(n, InputDistribution::kUnbiased, rng);
  Grid2D x = p.x0;
  executor.run_fmg(x, p.b, config.accuracy_count() - 1);
  const std::string art = trace::render_cycle(tracer.events());
  EXPECT_NE(art.find("level"), std::string::npos);
  EXPECT_NE(art.find('D'), std::string::npos);  // bottoms out in direct solves
}

TEST(Executor, RejectsUntrainedCellsAndBadSizes) {
  TunedConfig config(paper_accuracies(), 4);  // untrained above level 1
  const grid::StencilHierarchy ops17(grid::StencilOp::poisson(17));
  TunedExecutor executor(config, engine(), ops17);
  Grid2D x(17, 0.0), b(17, 0.0);
  EXPECT_THROW(executor.run_v(x, b, 0), InvalidArgument);
  EXPECT_THROW(executor.run_fmg(x, b, 0), InvalidArgument);
  Grid2D small(3, 0.0), wrong(5, 0.0);
  EXPECT_THROW(executor.run_v(small, wrong, 0), InvalidArgument);
  // A grid whose side differs from the bound hierarchy's n is rejected
  // before any cell runs, even where the config has a trained cell at
  // that size (level 1 is the direct base, trained by construction).
  Grid2D x3(3, 0.0), b3(3, 0.0);
  ASSERT_TRUE(config.v_entry(1, 0).trained);
  EXPECT_THROW(executor.run_v(x3, b3, 0), InvalidArgument);
  EXPECT_THROW(executor.run_fmg(x3, b3, 0), InvalidArgument);
  Grid2D x33(33, 0.0), b33(33, 0.0);
  EXPECT_THROW(executor.run_v(x33, b33, 0), InvalidArgument);
  EXPECT_THROW(executor.run_fmg(x33, b33, 0), InvalidArgument);
  // Level above max_level:
  const grid::StencilHierarchy ops65(grid::StencilOp::poisson(65));
  TunedExecutor above(config, engine(), ops65);
  Grid2D huge(65, 0.0), bh(65, 0.0);
  EXPECT_THROW(above.run_v(huge, bh, 0), InvalidArgument);

  // A RAP cell needs a bound RAP ladder: without one the executor refuses
  // to construct, instead of failing mid-solve.
  VEntry rap_cell;
  rap_cell.trained = true;
  rap_cell.choice.kind = VKind::kRecurse;
  rap_cell.choice.sub_accuracy = kClassicalCoarse;
  rap_cell.choice.iterations = 1;
  rap_cell.choice.coarsening = grid::Coarsening::kRap;
  config.v_entry(3, 0) = rap_cell;
  EXPECT_THROW((TunedExecutor(config, engine(), ops17)), InvalidArgument);
  const grid::StencilHierarchy rap17(grid::StencilOp::poisson(17),
                                     grid::Coarsening::kRap);
  EXPECT_NO_THROW((TunedExecutor(config, engine(), ops17, &rap17)));
  // ... and that ladder must come from a fine grid of the bound size.
  const grid::StencilHierarchy rap9(grid::StencilOp::poisson(9),
                                    grid::Coarsening::kRap);
  EXPECT_THROW((TunedExecutor(config, engine(), ops17, &rap9)),
               InvalidArgument);
  // A RAP cell above the bound level is never executed, so it needs none.
  const grid::StencilHierarchy ops5(grid::StencilOp::poisson(5));
  EXPECT_NO_THROW((TunedExecutor(config, engine(), ops5)));
}

TEST(Executor, CallStackRenderingsDescribeChoices) {
  const TunedConfig& config = trained();
  const std::string v = render_call_stack(config, config.max_level(), 3);
  EXPECT_NE(v.find("MULTIGRID-V[10^7]"), std::string::npos);
  EXPECT_NE(v.find("level"), std::string::npos);
  const std::string f =
      render_fmg_call_stack(config, config.max_level(), 3);
  EXPECT_NE(f.find("FULL-MG[10^7]"), std::string::npos);
}

// ----------------------------------------------------------- config IO --

TEST(ConfigCache, TrainsOnceThenLoads) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "pbmg_cache_test_dir";
  std::filesystem::remove_all(dir);
  TrainerOptions options = small_options();
  options.max_level = 3;
  bool from_cache = true;
  const TunedConfig first = load_or_train(options, engine(),
                                          dir.string(), -1, &from_cache);
  EXPECT_FALSE(from_cache);
  const TunedConfig second = load_or_train(options, engine(),
                                           dir.string(), -1, &from_cache);
  EXPECT_TRUE(from_cache);
  EXPECT_EQ(first.to_json().dump(), second.to_json().dump());
  std::filesystem::remove_all(dir);
}

TEST(ConfigCache, KeysSeparateStrategiesAndSettings) {
  TrainerOptions a = small_options();
  TrainerOptions b = small_options();
  b.max_level = 4;
  EXPECT_NE(config_cache_key(a, "p", "autotuned"),
            config_cache_key(b, "p", "autotuned"));
  EXPECT_NE(config_cache_key(a, "p", "autotuned"),
            config_cache_key(a, "q", "autotuned"));
  EXPECT_NE(config_cache_key(a, "p", "autotuned"),
            config_cache_key(a, "p", "heuristic2"));
  b = small_options();
  b.distribution = InputDistribution::kBiased;
  EXPECT_NE(config_cache_key(a, "p", "autotuned"),
            config_cache_key(b, "p", "autotuned"));
}

TEST(ConfigCache, CorruptCacheEntryIsRetrained) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "pbmg_cache_corrupt_dir";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  TrainerOptions options = small_options();
  options.max_level = 3;
  const std::string key =
      config_cache_key(options, sched().profile().name, "autotuned");
  write_text_file((dir / (key + ".json")).string(), "{not json");
  bool from_cache = true;
  const TunedConfig config = load_or_train(options, engine(),
                                           dir.string(), -1, &from_cache);
  EXPECT_FALSE(from_cache);
  EXPECT_EQ(config.max_level(), 3);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pbmg::tune
