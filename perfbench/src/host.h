#pragma once

#include <cstddef>
#include <string>

#include "runtime/scheduler.h"
#include "support/json.h"

/// \file host.h
/// Host facts for the provenance block, peak RSS, and a STREAM-triad
/// bandwidth roof measured on the benchmark's own scheduler.

namespace perfbench {

struct HostInfo {
  int nproc = 1;              ///< online CPUs
  std::string cpu_model;      ///< /proc/cpuinfo "model name"
  std::size_t l2_bytes = 0;   ///< per-core L2 (0 when unknown)
  std::size_t l3_bytes = 0;   ///< last-level cache (0 when unknown)
  std::string compiler;       ///< compiler id and version of this build
};

HostInfo probe_host();

pbmg::Json to_json(const HostInfo& host);

/// Peak resident set size of this process so far (getrusage), in MiB.
double peak_rss_mb();

/// Aggregate CPU time counters of /proc/stat (clock ticks); all zero when
/// unreadable.
struct CpuTimes {
  long long busy = 0;   ///< user + nice + system + irq + softirq
  long long idle = 0;   ///< idle + iowait
  long long steal = 0;  ///< time the hypervisor ran something else
};

CpuTimes read_cpu_times();

/// Share of CPU time stolen by the hypervisor between two readings, in
/// [0, 1]; 0 when nothing was counted.  A high share means the host was
/// contended and timings from that window are slow.
double steal_share(const CpuTimes& before, const CpuTimes& after);

/// STREAM triad a[i] = b[i] + s·c[i] over three arrays of `elements`
/// doubles, split across `sched`'s workers; best of `reps` passes, in
/// GB/s counting 24 bytes per element (no write-allocate).
double stream_triad_gbs(pbmg::rt::Scheduler& sched, std::size_t elements,
                        int reps);

}  // namespace perfbench
