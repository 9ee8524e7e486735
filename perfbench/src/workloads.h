#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "host.h"
#include "report.h"
#include "support/json.h"

/// \file workloads.h
/// The benchmark's three closed-loop workloads over the public serving
/// API (SolveService::solve / solve_op) and the traced run that derives
/// per-layer metrics from calls into each module.

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  std::string family;  ///< pinned table family (and operator family)
  int level = 8;       ///< grid side 2^level + 1
  int threads = 1;     ///< engine threads (already clamped to nproc)
  int clients = 1;     ///< closed-loop client threads
  bool routed = false; ///< solve_op over the seeded jump-like catalogue
  int instances = 1;   ///< distinct inputs cycled by non-routed workloads
};

/// The workload table for a host with `nproc` CPUs.
std::vector<WorkloadSpec> workload_specs(int nproc);

/// Command-line settings of one run.
struct RunSettings {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tables_dir = "perfbench/tables";
  std::string out_dir = ".";
};

/// What one run reports.
struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< why correct is false
  pbmg::Json provenance = pbmg::Json::object();
};

/// Runs `spec` with tracing off (end-to-end metrics) or on (per-layer
/// metrics, span file, trace overhead).
RunResult run_workload(const WorkloadSpec& spec, const RunSettings& settings,
                       const HostInfo& host);

/// Requests every run serves at least, so p90 has ten samples beyond it.
inline constexpr std::int64_t kMinRequests = 200;

/// Accuracy target of every request and the tolerance a solve may miss it
/// by before it counts as failed (the bench harness's 10×).
inline constexpr double kTargetAccuracy = 1e5;
inline constexpr double kAccuracyTolerance = 10.0;

/// Doubles per STREAM-triad array (32 MiB each).
inline constexpr std::size_t kTriadElements = std::size_t{1} << 22;

}  // namespace perfbench
