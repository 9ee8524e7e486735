#include "host.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "support/timer.h"

namespace perfbench {

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// "2048K" / "32M" → bytes; 0 when unparsable.
std::size_t parse_cache_size(const std::string& text) {
  std::istringstream in(text);
  std::size_t value = 0;
  char suffix = 0;
  if (!(in >> value)) return 0;
  in >> suffix;
  if (suffix == 'K') return value * 1024;
  if (suffix == 'M') return value * 1024 * 1024;
  return value;
}

}  // namespace

HostInfo probe_host() {
  HostInfo host;
  host.nproc = static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      host.cpu_model = colon == std::string::npos ? line
                                                  : line.substr(colon + 2);
      break;
    }
  }
  for (int index = 0; index < 8; ++index) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" +
                            std::to_string(index) + "/";
    const std::string level = read_first_line(dir + "level");
    const std::size_t size = parse_cache_size(read_first_line(dir + "size"));
    if (level == "2") host.l2_bytes = size;
    if (level == "3") host.l3_bytes = size;
  }
#if defined(__clang__)
  host.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  host.compiler = "gcc " __VERSION__;
#else
  host.compiler = "unknown";
#endif
  return host;
}

pbmg::Json to_json(const HostInfo& host) {
  pbmg::Json doc = pbmg::Json::object();
  doc.set("nproc", host.nproc);
  doc.set("cpu_model", host.cpu_model);
  doc.set("l2_bytes", host.l2_bytes);
  doc.set("l3_bytes", host.l3_bytes);
  doc.set("compiler", host.compiler);
  return doc;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuTimes read_cpu_times() {
  std::ifstream stat("/proc/stat");
  std::string label;
  long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
            softirq = 0, steal = 0;
  CpuTimes out;
  if (stat >> label >> user >> nice >> system >> idle >> iowait >> irq >>
          softirq >> steal &&
      label == "cpu") {
    out.busy = user + nice + system + irq + softirq;
    out.idle = idle + iowait;
    out.steal = steal;
  }
  return out;
}

double steal_share(const CpuTimes& before, const CpuTimes& after) {
  const long long steal = after.steal - before.steal;
  const long long total =
      (after.busy - before.busy) + (after.idle - before.idle) + steal;
  return total > 0 ? static_cast<double>(steal) / static_cast<double>(total)
                   : 0.0;
}

double stream_triad_gbs(pbmg::rt::Scheduler& sched, std::size_t elements,
                        int reps) {
  // unique_ptr<double[]> leaves the arrays uninitialized; first touch
  // happens in parallel so pages land near the threads that stream them.
  std::unique_ptr<double[]> a(new double[elements]);
  std::unique_ptr<double[]> b(new double[elements]);
  std::unique_ptr<double[]> c(new double[elements]);
  const auto count = static_cast<std::int64_t>(elements);
  const std::int64_t chunks = std::max(1, sched.thread_count()) * 4;
  const std::int64_t grain = (count + chunks - 1) / chunks;
  sched.parallel_for(0, count, grain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  const double scalar = 3.0;
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = pbmg::now_seconds();
    sched.parallel_for(0, count, grain, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) a[i] = b[i] + scalar * c[i];
    });
    const double seconds = pbmg::now_seconds() - t0;
    best = std::max(best, 24.0 * static_cast<double>(elements) / seconds / 1e9);
  }
  // Keeps the stores observable.
  volatile double sink = a[elements / 2];
  (void)sink;
  return best;
}

}  // namespace perfbench
