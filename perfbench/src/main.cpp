// The repository benchmark program: runs one closed-loop workload against
// the public serving API and prints, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}.  The line before
// it is the run's provenance block.  Exits 1 when any correctness check
// fails, 2 on bad usage or a setup error.
//
//   perfbench --workload poisson-1025-par --seed 1 --seconds 15 --trace 0
//             [--tables perfbench/tables] [--out-dir DIR]
//             [--git-sha SHA] [--source-digest HEX]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics and writes the span file into --out-dir.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "host.h"
#include "report.h"
#include "workloads.h"

namespace {

using perfbench::RunSettings;
using perfbench::WorkloadSpec;

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tables DIR] [--out-dir DIR] [--git-sha SHA] "
               "[--source-digest HEX]\nworkloads:";
  for (const WorkloadSpec& spec : perfbench::workload_specs(1)) {
    std::cerr << ' ' << spec.name;
  }
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, git_sha = "unknown", source_digest = "unknown";
  RunSettings settings;
  bool have_seed = false, have_seconds = false, have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        settings.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        settings.seconds = std::stod(value);
        have_seconds = settings.seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        settings.trace = value == "1";
        have_trace = true;
      } else if (flag == "--tables") {
        settings.tables_dir = value;
      } else if (flag == "--out-dir") {
        settings.out_dir = value;
      } else if (flag == "--git-sha") {
        git_sha = value;
      } else if (flag == "--source-digest") {
        source_digest = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("bad numeric argument");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds (> 0) and --trace are required");
  }

  const perfbench::HostInfo host = perfbench::probe_host();
  const WorkloadSpec* spec = nullptr;
  const auto specs = perfbench::workload_specs(host.nproc);
  for (const WorkloadSpec& s : specs) {
    if (s.name == workload) spec = &s;
  }
  if (spec == nullptr) return usage("unknown workload '" + workload + "'");

  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(*spec, settings, host);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
  result.provenance.set("git_sha", git_sha);
  result.provenance.set("source_digest", source_digest);
  for (const std::string& problem : result.problems) {
    std::cerr << "perfbench: FAILED: " << problem << '\n';
  }

  pbmg::Json provenance = pbmg::Json::object();
  provenance.set("provenance", result.provenance);
  const pbmg::Json line = perfbench::result_json(
      result.correct, result.attempted, result.failed, result.metrics);
  const std::string path = settings.out_dir + "/result-" + spec->name +
                           "-seed" + std::to_string(settings.seed) +
                           "-trace" + (settings.trace ? "1" : "0") + ".json";
  pbmg::Json file = pbmg::Json::object();
  file.set("provenance", result.provenance);
  file.set("result", line);
  std::ofstream(path) << file.dump(1) << '\n';

  std::cout << provenance.dump() << '\n' << line.dump() << std::endl;
  return result.correct ? 0 : 1;
}
