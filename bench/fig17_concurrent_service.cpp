// "Figure 17" (beyond the paper): multi-tenant throughput of the
// SolveService front-end.  N client threads hammer one Engine with mixed
// problem sizes; one client's sweeps run on the engine's fork/join team
// while the others run theirs inline, so aggregate requests/sec should
// scale with client count on a multi-core machine (flattening once the
// cores saturate) instead of collapsing the way per-request thread pools
// would.  Emits the throughput/latency table plus machine-readable
// BENCH_*.json with median/p90 latency per client count.

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "common/harness.h"
#include "engine/solve_service.h"
#include "grid/level.h"
#include "obs/metrics.h"
#include "obs/phase_profile.h"
#include "support/timer.h"

namespace {

using namespace pbmg;
using namespace pbmg::bench;

int main_impl(int argc, const char* const* argv) {
  auto maybe = parse_settings(
      argc, argv, "fig17_concurrent_service",
      "Fig 17: SolveService throughput vs concurrent clients");
  if (!maybe) return 0;
  const Settings settings = *maybe;
  const auto dist = InputDistribution::kUnbiased;
  // Per-request latency must stay small enough that the scaling sweep
  // finishes at laptop scale; cap the service's level range.
  const int top_level = std::min(settings.max_level, 7);

  Engine engine(engine_options(settings, rt::harpertown_profile()));
  track_engine("fig17", engine);
  const auto config =
      get_tuned_config(settings, engine, dist, top_level, /*train_fmg=*/false);
  const int acc_index = config.accuracy_index(1e5);
  SolveService service(engine, config);
  // One PhaseProfile shared by every request: a multi-tenant per-level
  // phase breakdown of where the service's wall time actually went.
  auto phases = std::make_shared<obs::PhaseProfile>();

  // Mixed request sizes: the service binds one prepared session per size.
  std::vector<tune::TrainingInstance> instances;
  for (int level = std::max(4, top_level - 2); level <= top_level; ++level) {
    instances.push_back(
        eval_instance(settings, engine, size_of_level(level), dist,
                      /*salt=*/17));
  }
  const int requests_per_client = std::max(6, 2 * settings.trials);

  // Warm every session (and the scratch pool) once, outside the timed
  // regions; a service measures steady-state throughput, not cold-start.
  for (const auto& inst : instances) {
    Grid2D x(inst.problem.n(), 0.0);
    x.copy_from(inst.problem.x0);
    SolveRequest request;
    request.accuracy_index = acc_index;
    service.solve(x, inst.problem.b, request);
  }

  TextTable table({"clients", "requests", "wall (s)", "req/s", "p50 (s)",
                   "p90 (s)", "p99 (s)", "throughput scaling"});
  Json per_clients = Json::array();
  double base_rps = std::nan("");
  for (int clients : {1, 2, 4, 8}) {
    // Per-run latency distribution from a real obs::Histogram: workers
    // record lock-free while solving, and the percentiles below come from
    // the bucketized distribution — the same machinery the service's own
    // per-(n, accuracy) histograms use — rather than a sorted raw vector.
    obs::Histogram run_hist;
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (int r = 0; r < requests_per_client; ++r) {
          const auto& inst =
              instances[static_cast<std::size_t>(c + r) % instances.size()];
          Grid2D x(inst.problem.n(), 0.0);
          x.copy_from(inst.problem.x0);
          SolveRequest request;
          request.accuracy_index = acc_index;
          request.profile = phases;
          const SolveStats stats = service.solve(x, inst.problem.b, request);
          run_hist.record(stats.seconds);
        }
      });
    }
    const double t0 = now_seconds();
    go.store(true, std::memory_order_release);
    for (auto& worker : workers) worker.join();
    const double wall = now_seconds() - t0;

    const obs::HistogramSnapshot latency = run_hist.snapshot();
    const double rps = static_cast<double>(latency.count) / wall;
    if (std::isnan(base_rps)) base_rps = rps;
    table.add_row({std::to_string(clients),
                   std::to_string(latency.count), format_double(wall),
                   format_double(rps), format_double(latency.percentile(50.0)),
                   format_double(latency.percentile(90.0)),
                   format_double(latency.percentile(99.0)),
                   format_double(rps / base_rps, 3)});
    Json row = Json::object();
    row.set("clients", clients);
    row.set("requests", latency.count);
    row.set("wall_s", wall);
    row.set("requests_per_second", rps);
    row.set("latency_p50_s", latency.percentile(50.0));
    row.set("latency_p90_s", latency.percentile(90.0));
    row.set("latency_p99_s", latency.percentile(99.0));
    row.set("latency_mean_s", latency.mean());
    row.set("latency_max_s", latency.max);
    row.set("throughput_scaling", rps / base_rps);
    per_clients.push_back(std::move(row));
    progress("fig17: clients=" + std::to_string(clients) + " done (" +
             format_double(rps) + " req/s)");
  }

  const auto pool_stats = engine.scratch().stats();
  const auto service_stats = service.stats();
  Json doc = Json::object();
  doc.set("bench", "fig17_concurrent_service");
  doc.set("profile", engine.profile().name);
  doc.set("engine_threads", engine.scheduler().thread_count());
  doc.set("hardware_threads",
          static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  doc.set("scaling", std::move(per_clients));
  doc.set("service_requests", service_stats.requests);
  doc.set("warmup_requests", static_cast<std::int64_t>(instances.size()));
  doc.set("scratch_hit_rate", pool_stats.hit_rate());
  doc.set("scratch_high_water_bytes",
          static_cast<std::int64_t>(pool_stats.high_water_bytes));
  // Where the service's solve time went, per multigrid level and phase
  // (aggregated across every request of the whole sweep).
  doc.set("phases", obs::to_json(*phases));
  // The service's own registry: per-(n, accuracy) latency histograms plus
  // request/failure counters and the engine gauges it publishes.
  doc.set("service_metrics", obs::to_json(service.metrics_snapshot()));
  emit_bench_json(settings, "fig17_concurrent_service_scaling", doc);

  emit_table(settings, "fig17_concurrent_service",
             "Figure 17: SolveService throughput vs client count (" +
                 engine.profile().name + " engine, mixed sizes, accuracy "
                 "10^5)",
             table);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return main_impl(argc, argv); }
