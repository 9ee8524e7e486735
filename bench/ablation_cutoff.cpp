// Ablation: the parallel/sequential cutoff (paper §3.2.2).
//
// PetaBricks tunes a parallel-sequential cutoff per machine; our machine
// profiles carry one.  This ablation sweeps the cutoff and times reference
// V-cycles at a fixed size, showing the U-shape that makes the knob worth
// tuning: too small and fork/join latency dominates the coarse grids, too
// large and the fine grids lose their parallelism.

#include <cmath>

#include "common/harness.h"
#include "grid/level.h"

namespace {

using namespace pbmg;
using namespace pbmg::bench;

int main_impl(int argc, const char* const* argv) {
  auto maybe = parse_settings(argc, argv, "ablation_cutoff",
                              "sequential-cutoff sensitivity of V cycles");
  if (!maybe) return 0;
  const Settings settings = *maybe;
  const int n = size_of_level(std::min(settings.max_level, 9));
  constexpr double kTarget = 1e9;

  TextTable table({"cutoff (cells)", "V-cycle solve to 10^9 (s)",
                   "vs best (ratio)"});
  std::vector<std::pair<std::int64_t, double>> results;
  double best = std::numeric_limits<double>::infinity();
  for (std::int64_t cutoff :
       {std::int64_t{0}, std::int64_t{1024}, std::int64_t{4096},
        std::int64_t{16384}, std::int64_t{65536}, std::int64_t{262144},
        std::int64_t{1} << 40}) {
    rt::MachineProfile profile = rt::harpertown_profile();
    profile.sequential_cutoff_cells = cutoff;
    Engine engine(engine_options(settings, profile));
    const auto inst = eval_instance(settings, engine, n,
                                    InputDistribution::kUnbiased, /*salt=*/21);
    const double t = run_reference_v(settings, engine, inst, kTarget);
    results.emplace_back(cutoff, t);
    if (std::isfinite(t)) best = std::min(best, t);
    progress("ablation_cutoff: cutoff=" + std::to_string(cutoff) + " done");
  }
  for (const auto& [cutoff, t] : results) {
    table.add_row({cutoff >= (std::int64_t{1} << 40)
                       ? std::string("serial (inf)")
                       : std::to_string(cutoff),
                   format_double(t), format_double(t / best, 3)});
  }
  emit_table(settings, "ablation_cutoff",
             "Ablation: parallel/sequential cutoff at N=" + std::to_string(n),
             table);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return main_impl(argc, argv); }
