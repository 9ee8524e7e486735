// Trains one pinned tuned table for the benchmark and writes it, with its
// provenance, to tables/<family>_L<level>.json.  The benchmark never
// trains: it loads these files, so every run serves the same cells.
//
//   perfbench_train --family poisson --level 10 --threads 4
//       --commit "$(git rev-parse HEAD)" --out perfbench/tables
//
// (one command line).  The committed tables were trained at the thread
// count their workload serves with: poisson L10 at 4, aniso-t30 L8 and
// jump L8 at 1.
//
// Only the V table is trained (the workloads serve MULTIGRID-V at 1e5).

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>

#include "engine/engine.h"
#include "grid/problem.h"
#include "host.h"
#include "support/timer.h"
#include "tables.h"
#include "tune/trainer.h"

namespace {

std::string arg_value(int argc, char** argv, const std::string& flag,
                      const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == flag) return argv[i + 1];
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pbmg;
  try {
    const std::string family = arg_value(argc, argv, "--family", "poisson");
    const int level = std::stoi(arg_value(argc, argv, "--level", "8"));
    const perfbench::HostInfo host = perfbench::probe_host();
    const int threads = std::min(
        host.nproc, std::stoi(arg_value(argc, argv, "--threads", "1")));
    const std::string commit = arg_value(argc, argv, "--commit", "unknown");
    const std::string out_dir = arg_value(argc, argv, "--out", ".");

    tune::TrainerOptions options;
    options.max_level = level;
    options.op_family = parse_operator_family(family);
    options.train_fmg = false;
    options.log = [](const std::string& line) { std::cerr << line << '\n'; };

    rt::MachineProfile profile;
    profile.name = "perfbench";
    profile.threads = threads;
    Engine engine(profile);
    const double t0 = now_seconds();
    tune::TunedConfig config = tune::Trainer(options, engine).train();
    const double seconds = now_seconds() - t0;

    Json doc = Json::object();
    doc.set("family", family);
    doc.set("level", level);
    doc.set("train_threads", threads);
    doc.set("training_seed", static_cast<std::int64_t>(options.seed));
    doc.set("training_seconds", seconds);
    doc.set("commit", commit);
    doc.set("host", perfbench::to_json(host));
    doc.set("config", config.to_json());
    const std::string path = perfbench::table_path(out_dir, family, level);
    std::ofstream(path) << doc.dump(1) << '\n';
    std::cerr << "wrote " << path << " after " << seconds << " s\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_train: " << e.what() << '\n';
    return 1;
  }
}
