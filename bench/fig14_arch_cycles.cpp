// Reproduces Figure 14: tuned full multigrid cycles across the three
// machine profiles, all solving the 2D Poisson equation on unbiased data
// to accuracy 10^5.  The paper's point is that each architecture gets a
// different optimized cycle shape; expect the rendered cycles (and their
// op counts) to differ across profiles.

#include <filesystem>
#include <iostream>
#include <sstream>

#include "common/harness.h"
#include "grid/level.h"
#include "trace/cycle_trace.h"

namespace {

using namespace pbmg;
using namespace pbmg::bench;

int main_impl(int argc, const char* const* argv) {
  auto maybe = parse_settings(argc, argv, "fig14_arch_cycles",
                              "Fig 14: tuned FMG cycles per machine profile");
  if (!maybe) return 0;
  const Settings settings = *maybe;
  const rt::MachineProfile profiles[] = {rt::harpertown_profile(),
                                         rt::barcelona_profile(),
                                         rt::niagara_profile()};
  const char* roman[] = {"i", "ii", "iii"};
  const int n = size_of_level(settings.max_level);

  std::ostringstream out;
  for (int p = 0; p < 3; ++p) {
    Engine engine(engine_options(settings, profiles[p]));
    const auto config = get_tuned_config(settings, engine,
                                         InputDistribution::kUnbiased,
                                         settings.max_level);
    const auto inst = eval_instance(settings, engine, n,
                                    InputDistribution::kUnbiased, /*salt=*/14);
    trace::CycleTracer tracer;
    run_traced(engine, config, inst, config.accuracy_index(1e5),
               /*fmg=*/true, tracer);
    out << "--- Figure 14(" << roman[p] << "): " << profiles[p].name
        << ", tuned FULL-MG to 10^5 at N=" << n << " ---\n"
        << "  [" << trace::summarize(tracer.events()) << "]\n"
        << trace::render_cycle(tracer.events()) << '\n'
        << tune::render_fmg_call_stack(config, settings.max_level,
                                       config.accuracy_index(1e5))
        << '\n';
  }
  std::cout << out.str();
  std::error_code ec;
  std::filesystem::create_directories(settings.out_dir, ec);
  write_text_file(settings.out_dir + "/fig14_arch_cycles.txt", out.str());
  std::cout << "(text: " << settings.out_dir << "/fig14_arch_cycles.txt)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return main_impl(argc, argv); }
