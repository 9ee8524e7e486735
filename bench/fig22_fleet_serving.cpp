// "Figure 22" (beyond the paper): fleet-scale serving.  Two experiments
// on one tuned variable-coefficient service:
//
//  A. Batched solves vs solo — K right-hand sides solved through
//     SolveService::solve_batch vs K solo solve() calls.  A batch is K
//     solo solves under one session pin and one accuracy resolution, so
//     the throughput ratio should read ~1.0x at every K (it measures the
//     per-request service overhead a batch saves, nothing more) and every
//     slot stays bitwise identical to its solo solve (divergences are
//     counted and must be zero).
//
//  B. Session-cache pressure — a mixed scenario workload (sizes ×
//     accuracies × V/FMG) under a ServicePolicy byte budget deliberately
//     smaller than the workload's unevicted session demand.  Client
//     threads hammer the service while it evicts LRU sessions; the run
//     reports sustained throughput, latency percentiles, and the
//     eviction/admission counters (pbmg_session_evictions_total,
//     pbmg_session_bytes) proving resident bytes stayed bounded.
//
// Emits both tables plus machine-readable BENCH_*.json.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/harness.h"
#include "engine/solve_service.h"
#include "grid/level.h"
#include "obs/metrics.h"
#include "support/timer.h"
#include "tune/config_cache.h"

namespace {

using namespace pbmg;
using namespace pbmg::bench;

bool bitwise_equal(const Grid2D& a, const Grid2D& b) {
  return a.n() == b.n() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

int main_impl(int argc, const char* const* argv) {
  auto maybe = parse_settings(
      argc, argv, "fig22_fleet_serving",
      "Fig 22: batched vs solo solves and session-cache eviction under a "
      "fleet byte budget");
  if (!maybe) return 0;
  const Settings settings = *maybe;
  const auto dist = InputDistribution::kUnbiased;
  // Per-request latency must stay laptop-scale across the whole sweep.
  const int top_level = std::min(settings.max_level, 8);
  // A variable-coefficient family, so every solve streams real
  // coefficients (Poisson's fast path reads none).
  const OperatorFamily family = OperatorFamily::kJumpCoefficient;

  Engine engine(engine_options(settings, rt::MachineProfile{}));
  track_engine("fig22", engine);
  const std::string cache_dir = engine.cache_dir().empty()
                                    ? tune::default_cache_dir()
                                    : engine.cache_dir();
  tune::TrainerOptions options = trainer_options(settings, dist, top_level);
  options.op_family = family;
  const tune::TunedConfig config =
      tune::load_or_train(options, engine, cache_dir);
  const int acc_index = config.accuracy_index(1e5);

  // ------------------------------------------------- A: batched solves --
  const int n = size_of_level(top_level);
  const auto inst = eval_instance(settings, engine, n, dist, /*salt=*/22);
  SolveService batch_service(engine, config);
  SolveRequest request;
  request.accuracy_index = acc_index;
  {
    // Warm the session + scratch outside every timed region — one solo
    // solve, then one widest batch — before any timed trial.
    Grid2D x(n, 0.0);
    x.copy_from(inst.problem.x0);
    batch_service.solve(x, inst.problem.b, request);
    std::vector<Grid2D> warm;
    for (int k = 0; k < 8; ++k) {
      Grid2D w(n, 0.0);
      w.copy_from(inst.problem.x0);
      warm.push_back(std::move(w));
    }
    std::vector<Grid2D*> xs;
    for (auto& w : warm) xs.push_back(&w);
    batch_service.solve_batch(xs, inst.problem.b, request);
  }

  TextTable batch_table({"K", "solo (s)", "batch (s)", "throughput x",
                         "bit-divergent"});
  Json batch_rows = Json::array();
  std::int64_t total_divergent = 0;
  for (const int k_count : {1, 2, 4, 8}) {
    // Distinct initial guesses per slot (same shared b, the serving
    // shape solve_batch targets); solo goldens double as the bit check.
    std::vector<Grid2D> goldens;
    for (int k = 0; k < k_count; ++k) {
      Grid2D x(n, 0.0);
      x.copy_from(eval_instance(settings, engine, n, dist, 100 + k)
                      .problem.x0);
      goldens.push_back(std::move(x));
    }
    double solo_s = 0.0;
    double batch_s = 0.0;
    std::int64_t divergent = 0;
    for (int trial = 0; trial < std::max(1, settings.trials); ++trial) {
      std::vector<Grid2D> solo = goldens;
      const double t0 = now_seconds();
      for (auto& x : solo) batch_service.solve(x, inst.problem.b, request);
      const double solo_trial = now_seconds() - t0;

      std::vector<Grid2D> batch = goldens;
      std::vector<Grid2D*> xs;
      for (auto& x : batch) xs.push_back(&x);
      const double t1 = now_seconds();
      batch_service.solve_batch(xs, inst.problem.b, request);
      const double batch_trial = now_seconds() - t1;

      if (trial == 0) {
        solo_s = solo_trial;
        batch_s = batch_trial;
        for (int k = 0; k < k_count; ++k) {
          if (!bitwise_equal(solo[k], batch[k])) ++divergent;
        }
      } else {
        solo_s = std::min(solo_s, solo_trial);
        batch_s = std::min(batch_s, batch_trial);
      }
    }
    total_divergent += divergent;
    const double speedup = solo_s / batch_s;
    batch_table.add_row({std::to_string(k_count), format_double(solo_s),
                         format_double(batch_s), format_double(speedup, 3),
                         std::to_string(divergent)});
    Json row = Json::object();
    row.set("k", k_count);
    row.set("solo_s", solo_s);
    row.set("batch_s", batch_s);
    row.set("throughput_ratio", speedup);
    row.set("bit_divergent", divergent);
    batch_rows.push_back(std::move(row));
    progress("fig22: K=" + std::to_string(k_count) + " batch " +
             format_double(speedup, 3) + "x solo");
  }

  // ------------------------------------------- B: cache-pressure run --
  // Unevicted demand: what the mixed workload would keep resident with
  // no budget, measured by binding every size on a throwaway service.
  const int low_level = std::max(3, top_level - 2);
  std::size_t unevicted_bytes = 0;
  {
    SolveService probe(engine, config);
    for (int level = low_level; level <= top_level; ++level) {
      unevicted_bytes += probe.session(size_of_level(level))
                             ->footprint_bytes();
    }
    probe.trim();
  }
  ServicePolicy policy;
  policy.max_session_bytes = (unevicted_bytes * 3) / 5;  // force eviction
  SolveService service(engine, config, policy);

  struct Scenario {
    int n = 0;
    SolveRequest request;
  };
  std::vector<Scenario> scenarios;
  std::vector<tune::TrainingInstance> instances;
  for (int level = low_level; level <= top_level; ++level) {
    instances.push_back(
        eval_instance(settings, engine, size_of_level(level), dist, 22));
    for (const int acc : {0, config.accuracy_count() - 1}) {
      for (const bool fmg : {false, true}) {
        Scenario s;
        s.n = size_of_level(level);
        s.request.accuracy_index = acc;
        s.request.fmg = fmg;
        scenarios.push_back(s);
      }
    }
  }
  const int clients = 4;
  const int requests_per_client = std::max(12, 4 * settings.trials);
  obs::Histogram run_hist;
  std::atomic<std::size_t> peak_bytes{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop_sampler{false};
  std::vector<std::thread> workers;
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int r = 0; r < requests_per_client; ++r) {
        const Scenario& s =
            scenarios[static_cast<std::size_t>(c + r) % scenarios.size()];
        const auto& inst_for = *std::find_if(
            instances.begin(), instances.end(),
            [&](const auto& i) { return i.problem.n() == s.n; });
        Grid2D x(s.n, 0.0);
        x.copy_from(inst_for.problem.x0);
        const SolveStats stats =
            service.solve(x, inst_for.problem.b, s.request);
        run_hist.record(stats.seconds);
      }
    });
  }
  // Resident-bytes watchdog: samples the gauge while the storm runs so
  // "bounded" is observed under pressure, not just at the quiet end.
  std::thread sampler([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    while (!stop_sampler.load(std::memory_order_acquire)) {
      const std::size_t now = service.stats().session_bytes;
      std::size_t prev = peak_bytes.load(std::memory_order_relaxed);
      while (now > prev &&
             !peak_bytes.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::yield();
    }
  });
  const double t0 = now_seconds();
  go.store(true, std::memory_order_release);
  for (auto& worker : workers) worker.join();
  const double wall = now_seconds() - t0;
  stop_sampler.store(true, std::memory_order_release);
  sampler.join();

  const obs::HistogramSnapshot latency = run_hist.snapshot();
  const ServiceStats stats = service.stats();
  const double rps = static_cast<double>(latency.count) / wall;
  TextTable pressure_table({"metric", "value"});
  pressure_table.add_row({"requests", std::to_string(latency.count)});
  pressure_table.add_row({"wall (s)", format_double(wall)});
  pressure_table.add_row({"req/s", format_double(rps)});
  pressure_table.add_row({"p50 (s)", format_double(latency.percentile(50))});
  pressure_table.add_row({"p90 (s)", format_double(latency.percentile(90))});
  pressure_table.add_row({"p99 (s)", format_double(latency.percentile(99))});
  pressure_table.add_row(
      {"unevicted demand (B)", std::to_string(unevicted_bytes)});
  pressure_table.add_row(
      {"byte budget (B)", std::to_string(policy.max_session_bytes)});
  pressure_table.add_row(
      {"peak resident (B)", std::to_string(peak_bytes.load())});
  pressure_table.add_row({"evictions", std::to_string(stats.evictions)});

  Json doc = Json::object();
  doc.set("bench", "fig22_fleet_serving");
  doc.set("profile", engine.profile().name);
  doc.set("op_family", to_string(family));
  doc.set("n", n);
  doc.set("batch", std::move(batch_rows));
  doc.set("batch_bit_divergent_total", total_divergent);
  Json pressure = Json::object();
  pressure.set("clients", clients);
  pressure.set("requests", latency.count);
  pressure.set("wall_s", wall);
  pressure.set("requests_per_second", rps);
  pressure.set("latency_p50_s", latency.percentile(50));
  pressure.set("latency_p90_s", latency.percentile(90));
  pressure.set("latency_p99_s", latency.percentile(99));
  pressure.set("unevicted_demand_bytes",
               static_cast<std::int64_t>(unevicted_bytes));
  pressure.set("max_session_bytes",
               static_cast<std::int64_t>(policy.max_session_bytes));
  pressure.set("peak_session_bytes",
               static_cast<std::int64_t>(peak_bytes.load()));
  pressure.set("evictions", stats.evictions);
  pressure.set("failures", stats.failures);
  doc.set("pressure", std::move(pressure));
  // The service registry carries pbmg_session_evictions_total,
  // pbmg_session_bytes, pbmg_batch_size and the per-(n, acc) latency
  // histograms for downstream dashboards.
  doc.set("service_metrics", obs::to_json(service.metrics_snapshot()));
  emit_bench_json(settings, "fig22_fleet_serving", doc);

  emit_table(settings, "fig22_fleet_serving_batch",
             "Figure 22a: solve_batch throughput vs solo solves (" +
                 to_string(family) + ", n=" + std::to_string(n) + ")",
             batch_table);
  emit_table(settings, "fig22_fleet_serving_pressure",
             "Figure 22b: mixed workload under session byte budget (" +
                 std::to_string(clients) + " clients)",
             pressure_table);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return main_impl(argc, argv); }
