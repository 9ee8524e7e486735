#include "common/harness.h"

#include <cmath>
#include <filesystem>
#include <iostream>
#include <limits>
#include <mutex>
#include <utility>
#include <vector>

#include "engine/solve_session.h"
#include "grid/grid_ops.h"
#include "grid/level.h"
#include "solvers/relax.h"
#include "support/stats.h"
#include "support/timer.h"

namespace pbmg::bench {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

int level_for_max_n(std::int64_t max_n) {
  int level = 2;
  while (level < 14 && (std::int64_t{1} << (level + 1)) + 1 <= max_n) {
    ++level;
  }
  return level;
}

/// Figure-wide log of every timed trial since the last emit_table call;
/// summarized as median/p90 into BENCH_*.json.  Guarded for drivers that
/// time from multiple client threads (fig17).
std::mutex g_samples_mutex;
SampleStats g_samples;

void record_sample(double seconds) {
  // Resolved once: registry accessors return stable addresses.
  static obs::Histogram& trial_hist =
      metrics().histogram("pbmg_bench_trial_seconds");
  trial_hist.record(seconds);
  std::lock_guard<std::mutex> lock(g_samples_mutex);
  g_samples.add(seconds);
}

SampleStats drain_samples() {
  std::lock_guard<std::mutex> lock(g_samples_mutex);
  SampleStats out = g_samples;
  g_samples = SampleStats{};
  return out;
}

/// Engines registered by track_engine; their runtime stats become
/// labelled gauges at emission time.
std::mutex g_engines_mutex;
std::vector<std::pair<std::string, Engine*>> g_tracked_engines;

void publish_tracked_engines() {
  std::lock_guard<std::mutex> lock(g_engines_mutex);
  obs::MetricsRegistry& registry = metrics();
  for (const auto& [name, engine] : g_tracked_engines) {
    const std::string label = "{engine=\"" + name + "\"}";
    const auto pool = engine->scratch().stats();
    registry.gauge("pbmg_scheduler_threads" + label)
        .set(static_cast<double>(engine->profile().threads));
    registry.gauge("pbmg_scheduler_steals" + label)
        .set(static_cast<double>(engine->scheduler().steal_count()));
    registry.gauge("pbmg_scratch_hit_rate" + label).set(pool.hit_rate());
    registry.gauge("pbmg_scratch_pooled_bytes" + label)
        .set(static_cast<double>(pool.pooled_bytes));
    registry.gauge("pbmg_scratch_high_water_bytes" + label)
        .set(static_cast<double>(pool.high_water_bytes));
    registry.gauge("pbmg_scratch_trims" + label)
        .set(static_cast<double>(pool.trims));
  }
}

void write_bench_json(const Settings& settings, const std::string& name,
                      Json doc) {
  publish_tracked_engines();
  doc.set("metrics", obs::to_json(metrics().snapshot()));
  std::error_code ec;
  std::filesystem::create_directories(settings.out_dir, ec);
  const auto path =
      std::filesystem::path(settings.out_dir) / ("BENCH_" + name + ".json");
  try {
    write_text_file(path.string(), doc.dump(2) + "\n");
    std::cout << "(json: " << path.string() << ")\n";
  } catch (const Error& e) {
    std::cerr << "warning: could not write " << path << ": " << e.what()
              << '\n';
  }
}

}  // namespace

std::optional<Settings> parse_settings(int argc, const char* const* argv,
                                       const std::string& name,
                                       const std::string& description) {
  ArgParser parser(name, description);
  parser.add_int("max-n", env_int("PBMG_MAX_N", 513),
                 "largest grid side (rounded down to 2^k+1)");
  parser.add_int("trials", env_int("PBMG_TRIALS", 3),
                 "timed repetitions per data point");
  parser.add_int("instances", 2, "training instances per level");
  parser.add_int("train-seed", 20091114, "training RNG seed");
  parser.add_int("eval-seed", 555, "held-out evaluation RNG seed");
  parser.add_string("cache-dir", tune::default_cache_dir(),
                    "tuned-config cache directory");
  parser.add_string("out-dir", env_string("PBMG_OUT_DIR", "bench_results"),
                    "directory for CSV output");
  parser.add_flag("verbose", "print autotuner progress");
  if (!parser.parse(argc, argv)) {
    std::cout << parser.help_text();
    return std::nullopt;
  }
  Settings settings;
  settings.max_level = level_for_max_n(parser.get_int("max-n"));
  settings.trials = std::max<int>(1, static_cast<int>(parser.get_int("trials")));
  settings.training_instances =
      std::max<int>(1, static_cast<int>(parser.get_int("instances")));
  settings.train_seed =
      static_cast<std::uint64_t>(parser.get_int("train-seed"));
  settings.eval_seed = static_cast<std::uint64_t>(parser.get_int("eval-seed"));
  settings.cache_dir = parser.get_string("cache-dir");
  settings.out_dir = parser.get_string("out-dir");
  settings.verbose = parser.get_flag("verbose");
  return settings;
}

EngineOptions engine_options(const Settings& settings,
                             const rt::MachineProfile& profile) {
  EngineOptions options;
  options.profile = profile;
  options.cache_dir = settings.cache_dir;
  return options;
}

tune::TrainerOptions trainer_options(const Settings& settings,
                                     InputDistribution dist, int max_level,
                                     bool train_fmg) {
  tune::TrainerOptions options;
  options.max_level = max_level;
  options.distribution = dist;
  options.seed = settings.train_seed;
  options.training_instances = settings.training_instances;
  options.train_fmg = train_fmg;
  if (settings.verbose) {
    options.log = [](const std::string& line) {
      std::cerr << "  [tune] " << line << '\n';
    };
  }
  return options;
}

tune::TunedConfig get_tuned_config(const Settings& settings, Engine& engine,
                                   InputDistribution dist, int max_level,
                                   bool train_fmg) {
  const auto options = trainer_options(settings, dist, max_level, train_fmg);
  bool from_cache = false;
  const double t0 = now_seconds();
  auto config = engine.tuned_config(options, -1, &from_cache);
  progress("config[" + engine.profile().name + "," + to_string(dist) + ",L" +
           std::to_string(max_level) + "] " +
           (from_cache ? "loaded from cache"
                       : "trained in " + format_seconds(now_seconds() - t0)));
  return config;
}

tune::TunedConfig get_heuristic_config(const Settings& settings,
                                       Engine& engine, InputDistribution dist,
                                       int max_level, int sub_index) {
  auto options = trainer_options(settings, dist, max_level, false);
  bool from_cache = false;
  const double t0 = now_seconds();
  auto config = engine.tuned_config(options, sub_index, &from_cache);
  progress("heuristic" + std::to_string(sub_index) + "[" +
           engine.profile().name + "," + to_string(dist) + "] " +
           (from_cache ? "loaded from cache"
                       : "trained in " + format_seconds(now_seconds() - t0)));
  return config;
}

tune::TrainingInstance eval_instance(const Settings& settings, Engine& engine,
                                     int n, InputDistribution dist,
                                     std::uint64_t salt) {
  Rng rng(settings.eval_seed);
  Rng sub = rng.split(0xE7A1u + salt * 977 + static_cast<std::uint64_t>(n));
  return tune::make_training_instance(n, dist, sub, engine.scheduler());
}

double time_min(const Settings& settings, const std::function<void()>& reset,
                const std::function<void()>& solve) {
  double best = std::numeric_limits<double>::infinity();
  for (int t = 0; t < settings.trials; ++t) {
    reset();
    const double t0 = now_seconds();
    solve();
    const double seconds = now_seconds() - t0;
    record_sample(seconds);
    best = std::min(best, seconds);
  }
  return best;
}

double run_direct(const Settings& settings, Engine& engine,
                  const tune::TrainingInstance& inst) {
  const int n = inst.problem.n();
  Grid2D x(n, 0.0);
  return time_min(
      settings, [&] { x.copy_from(inst.problem.x0); },
      [&] { engine.direct().solve(inst.problem.b, x); });
}

namespace {

/// Probe + timed-replay pattern: find the iteration count that reaches the
/// target (oracle checks untimed), then time that many iterations.
///
/// The timed replay of a *reference* algorithm additionally performs a
/// residual-norm convergence check every `check_period` iterations: a real
/// iterate-until-converged solver has no oracle and must pay for its
/// stopping criterion, whereas a tuned algorithm runs its fixed trained
/// shape open loop (that asymmetry is exactly the benefit the paper's
/// accuracy-aware tuning buys).  Pass check_period = 0 to omit the check.
template <typename Step>
double probe_then_time(const Settings& settings, Engine& engine,
                       const tune::TrainingInstance& inst,
                       double target_accuracy, int max_iterations,
                       int check_period, const Step& step) {
  rt::Scheduler& sched = engine.scheduler();
  const int n = inst.problem.n();
  Grid2D x(n, 0.0);
  x.copy_from(inst.problem.x0);
  int needed = -1;
  for (int it = 1; it <= max_iterations; ++it) {
    step(x, inst.problem.b);
    if (tune::accuracy_of(inst, x, sched) >= target_accuracy) {
      needed = it;
      break;
    }
  }
  if (needed < 0) return kNaN;
  Grid2D check_scratch(n, 0.0);
  double norm_sink = 0.0;
  return time_min(
      settings, [&] { x.copy_from(inst.problem.x0); },
      [&] {
        for (int it = 1; it <= needed; ++it) {
          step(x, inst.problem.b);
          if (check_period > 0 && it % check_period == 0) {
            grid::residual(x, inst.problem.b, check_scratch, sched);
            norm_sink += grid::norm2_interior(check_scratch, sched);
          }
        }
      });
}

}  // namespace

double run_sor(const Settings& settings, Engine& engine,
               const tune::TrainingInstance& inst, double target_accuracy,
               int max_sweeps) {
  const double omega = solvers::omega_opt(inst.problem.n());
  rt::Scheduler& sched = engine.scheduler();
  // A production SOR loop checks convergence periodically, not per sweep.
  return probe_then_time(settings, engine, inst, target_accuracy, max_sweeps,
                         /*check_period=*/8,
                         [&](Grid2D& x, const Grid2D& b) {
                           solvers::sor_sweep(x, b, omega, sched);
                         });
}

double run_reference_v(const Settings& settings, Engine& engine,
                       const tune::TrainingInstance& inst,
                       double target_accuracy, int max_cycles) {
  const grid::StencilHierarchy ops(grid::StencilOp::poisson(inst.problem.n()));
  return probe_then_time(
      settings, engine, inst, target_accuracy, max_cycles, /*check_period=*/1,
      [&](Grid2D& x, const Grid2D& b) {
        solvers::vcycle(ops, x, b, solvers::VCycleOptions{},
                        engine.scheduler(), engine.direct(), engine.scratch());
      });
}

double run_reference_fmg(const Settings& settings, Engine& engine,
                         const tune::TrainingInstance& inst,
                         double target_accuracy, int max_cycles) {
  rt::Scheduler& sched = engine.scheduler();
  solvers::DirectSolver& direct = engine.direct();
  grid::ScratchPool& pool = engine.scratch();
  const int n = inst.problem.n();
  const grid::StencilHierarchy ops(grid::StencilOp::poisson(n));
  // Probe: the FMG ramp is iteration 1, then V-cycles polish.
  Grid2D x(n, 0.0);
  x.copy_from(inst.problem.x0);
  solvers::full_multigrid(ops, x, inst.problem.b, solvers::VCycleOptions{},
                          sched, direct, pool);
  int v_cycles = -1;
  if (tune::accuracy_of(inst, x, sched) >= target_accuracy) {
    v_cycles = 0;
  } else {
    for (int it = 1; it <= max_cycles; ++it) {
      solvers::vcycle(ops, x, inst.problem.b, solvers::VCycleOptions{},
                      sched, direct, pool);
      if (tune::accuracy_of(inst, x, sched) >= target_accuracy) {
        v_cycles = it;
        break;
      }
    }
  }
  if (v_cycles < 0) return kNaN;
  Grid2D check_scratch(n, 0.0);
  double norm_sink = 0.0;
  return time_min(
      settings, [&] { x.copy_from(inst.problem.x0); },
      [&] {
        solvers::full_multigrid(ops, x, inst.problem.b,
                                solvers::VCycleOptions{}, sched, direct, pool);
        grid::residual(x, inst.problem.b, check_scratch, sched);
        norm_sink += grid::norm2_interior(check_scratch, sched);
        for (int it = 0; it < v_cycles; ++it) {
          solvers::vcycle(ops, x, inst.problem.b, solvers::VCycleOptions{},
                          sched, direct, pool);
          grid::residual(x, inst.problem.b, check_scratch, sched);
          norm_sink += grid::norm2_interior(check_scratch, sched);
        }
      });
}

namespace {

double run_tuned_impl(const Settings& settings, Engine& engine,
                      const tune::TunedConfig& config,
                      const tune::TrainingInstance& inst, int accuracy_index,
                      bool fmg) {
  const int n = inst.problem.n();
  const SolveSession session(engine, config, n);
  Grid2D x(n, 0.0);
  const double seconds = time_min(
      settings, [&] { x.copy_from(inst.problem.x0); },
      [&] {
        if (fmg) {
          session.solve_fmg(x, inst.problem.b, accuracy_index);
        } else {
          session.solve_v(x, inst.problem.b, accuracy_index);
        }
      });
  // Contract check: a tuned run that misses its accuracy target by an
  // order of magnitude indicates a stale/broken config; report NaN so the
  // table makes the failure visible instead of rewarding it.
  const double target =
      config.accuracies()[static_cast<std::size_t>(accuracy_index)];
  if (tune::accuracy_of(inst, x, engine.scheduler()) < 0.1 * target) {
    return kNaN;
  }
  return seconds;
}

}  // namespace

double run_tuned_v(const Settings& settings, Engine& engine,
                   const tune::TunedConfig& config,
                   const tune::TrainingInstance& inst, int accuracy_index) {
  return run_tuned_impl(settings, engine, config, inst, accuracy_index, false);
}

double run_tuned_fmg(const Settings& settings, Engine& engine,
                     const tune::TunedConfig& config,
                     const tune::TrainingInstance& inst, int accuracy_index) {
  return run_tuned_impl(settings, engine, config, inst, accuracy_index, true);
}

void run_traced(Engine& engine, const tune::TunedConfig& config,
                const tune::TrainingInstance& inst, int accuracy_index,
                bool fmg, trace::CycleTracer& tracer) {
  const int n = inst.problem.n();
  const grid::StencilHierarchy ops(grid::StencilOp::poisson(n));
  grid::StencilHierarchy rap;
  if (tune::config_uses_rap(config, level_of_size(n))) {
    rap = grid::StencilHierarchy(grid::StencilOp::poisson(n),
                                 grid::Coarsening::kRap);
  }
  const tune::TunedExecutor executor(
      config, engine, ops, rap.top_level() >= 1 ? &rap : nullptr, &tracer);
  Grid2D x(n, 0.0);
  x.copy_from(inst.problem.x0);
  if (fmg) {
    executor.run_fmg(x, inst.problem.b, accuracy_index);
  } else {
    executor.run_v(x, inst.problem.b, accuracy_index);
  }
}

void emit_table(const Settings& settings, const std::string& name,
                const std::string& title, const TextTable& table) {
  std::cout << "\n== " << title << " ==\n" << table.render();
  std::error_code ec;
  std::filesystem::create_directories(settings.out_dir, ec);
  const auto path = std::filesystem::path(settings.out_dir) / (name + ".csv");
  try {
    write_text_file(path.string(), table.to_csv());
    std::cout << "(csv: " << path.string() << ")\n";
  } catch (const Error& e) {
    std::cerr << "warning: could not write " << path << ": " << e.what()
              << '\n';
  }

  Json doc = Json::object();
  doc.set("bench", name);
  doc.set("title", title);
  Json columns = Json::array();
  for (const auto& header : table.headers()) columns.push_back(Json(header));
  doc.set("columns", std::move(columns));
  Json rows = Json::array();
  for (const auto& row : table.rows()) {
    Json cells = Json::array();
    for (const auto& cell : row) cells.push_back(Json(cell));
    rows.push_back(std::move(cells));
  }
  doc.set("rows", std::move(rows));
  const SampleStats samples = drain_samples();
  Json trial = Json::object();
  trial.set("count", static_cast<std::int64_t>(samples.count()));
  if (samples.count() > 0) {
    trial.set("median_s", samples.median());
    trial.set("p90_s", samples.percentile(90.0));
    trial.set("min_s", samples.min());
    trial.set("max_s", samples.max());
  }
  doc.set("trial_samples", std::move(trial));
  write_bench_json(settings, name, doc);
}

void emit_bench_json(const Settings& settings, const std::string& name,
                     const Json& doc) {
  write_bench_json(settings, name, doc);
}

obs::MetricsRegistry& metrics() {
  static obs::MetricsRegistry registry;
  return registry;
}

void track_engine(const std::string& name, Engine& engine) {
  std::lock_guard<std::mutex> lock(g_engines_mutex);
  for (auto& [existing, ptr] : g_tracked_engines) {
    if (existing == name) {
      ptr = &engine;
      return;
    }
  }
  g_tracked_engines.emplace_back(name, &engine);
}

void progress(const std::string& line) { std::cerr << line << '\n'; }

std::vector<int> bench_sizes(const Settings& settings, int min_level) {
  std::vector<int> sizes;
  for (int level = min_level; level <= settings.max_level; ++level) {
    sizes.push_back(size_of_level(level));
  }
  return sizes;
}

}  // namespace pbmg::bench
