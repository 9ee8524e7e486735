// Reproduces Figure 5: tuned multigrid V cycles (a: unbiased, b: biased)
// and tuned full multigrid cycles (c: unbiased, d: biased) created by the
// autotuner on the AMD-like profile, for final accuracy levels 10^1, 10^3,
// 10^5 and 10^7.  Cycles are rendered in extended multigrid notation
// (time flows right; '*' relaxation, '\\'/'/' restriction/interpolation,
// 'D' direct solve, 'S<n>' iterative solve).

#include <filesystem>
#include <iostream>
#include <sstream>

#include "common/harness.h"
#include "grid/level.h"
#include "trace/cycle_trace.h"

namespace {

using namespace pbmg;
using namespace pbmg::bench;

void render_cycles(const Settings& settings, Engine& engine,
                   const tune::TunedConfig& config, InputDistribution dist,
                   bool fmg, std::ostringstream& out) {
  const int n = size_of_level(settings.max_level);
  const auto inst = eval_instance(settings, engine, n, dist, /*salt=*/5);
  const char* roman[] = {"i", "ii", "iii", "iv"};
  for (int i = 0; i < 4 && i < config.accuracy_count(); ++i) {
    trace::CycleTracer tracer;
    run_traced(engine, config, inst, i, fmg, tracer);
    out << "  " << roman[i] << ") accuracy "
        << format_accuracy(config.accuracies()[static_cast<std::size_t>(i)])
        << "   [" << trace::summarize(tracer.events()) << "]\n"
        << trace::render_cycle(tracer.events()) << '\n';
  }
}

int main_impl(int argc, const char* const* argv) {
  auto maybe = parse_settings(argc, argv, "fig05_cycle_shapes",
                              "Fig 5: tuned V and full-MG cycle shapes");
  if (!maybe) return 0;
  const Settings settings = *maybe;
  const auto profile = rt::barcelona_profile();
  Engine engine(engine_options(settings, profile));

  std::ostringstream out;
  const char* sub = "ab";
  int s = 0;
  for (auto dist :
       {InputDistribution::kUnbiased, InputDistribution::kBiased}) {
    const auto config =
        get_tuned_config(settings, engine, dist, settings.max_level);
    out << "--- Figure 5(" << sub[s] << "): tuned V cycles, "
        << to_string(dist) << ", N=" << size_of_level(settings.max_level)
        << ", " << profile.name << " ---\n";
    render_cycles(settings, engine, config, dist, /*fmg=*/false, out);
    ++s;
  }
  const char* sub2 = "cd";
  s = 0;
  for (auto dist :
       {InputDistribution::kUnbiased, InputDistribution::kBiased}) {
    const auto config =
        get_tuned_config(settings, engine, dist, settings.max_level);
    out << "--- Figure 5(" << sub2[s] << "): tuned full multigrid cycles, "
        << to_string(dist) << ", N=" << size_of_level(settings.max_level)
        << ", " << profile.name << " ---\n";
    render_cycles(settings, engine, config, dist, /*fmg=*/true, out);
    ++s;
  }
  std::cout << out.str();
  std::error_code ec;
  std::filesystem::create_directories(settings.out_dir, ec);
  write_text_file(settings.out_dir + "/fig05_cycle_shapes.txt", out.str());
  std::cout << "(text: " << settings.out_dir << "/fig05_cycle_shapes.txt)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return main_impl(argc, argv); }
