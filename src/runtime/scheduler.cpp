#include "runtime/scheduler.h"

#include <algorithm>
#include <chrono>
#include <exception>

#include "support/error.h"

namespace pbmg::rt {

namespace {

// How long a thread busy-waits before parking on an atomic wait: long
// enough to bridge the serial glue between consecutive sweeps of a
// multigrid cycle, short enough that an idle team soon leaves the cores.
constexpr auto kSpinBound = std::chrono::microseconds(100);

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("isb" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

// Spins until done() holds or kSpinBound elapses; returns done().
template <typename Done>
bool spin_until(const Done& done) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBound;
  for (unsigned round = 1; !done(); ++round, cpu_relax()) {
    if (round % 64 == 0 && std::chrono::steady_clock::now() > deadline) {
      return false;
    }
  }
  return true;
}

}  // namespace

/// One parallel_for call, on the caller's stack while it runs.
struct Scheduler::Region {
  const RangeBody* body;
  std::int64_t begin, end, grain, chunks;
  std::atomic<std::int64_t> next{0};  ///< next unclaimed chunk index
  std::atomic<bool> failed{false};
  std::exception_ptr error = nullptr;  ///< set by the thread that set failed
};

Scheduler::Scheduler(const MachineProfile& profile)
    : profile_(profile), active_workers_(profile.threads) {
  PBMG_CHECK(profile.threads >= 1, "scheduler requires >= 1 thread");
  try {
    for (int i = 0; i + 1 < profile.threads; ++i) {
      helpers_.emplace_back([this, i] { helper_main(i); });
    }
  } catch (...) {
    shutdown();  // join the helpers already started
    throw;
  }
}

void Scheduler::shutdown() {
  stop_.store(true, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (auto& t : helpers_) t.join();
}

void Scheduler::set_active_workers(int count) {
  count = std::clamp(count, 1, thread_count());
  active_workers_.store(count, std::memory_order_release);
  // Wake parked helpers so newly admitted ones join a region in flight.
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
}

void Scheduler::inject_spawn_overhead() const {
  if (profile_.spawn_overhead_ns <= 0) return;
  const auto start = std::chrono::steady_clock::now();
  const auto budget = std::chrono::nanoseconds(profile_.spawn_overhead_ns);
  while (std::chrono::steady_clock::now() - start < budget) cpu_relax();
}

void Scheduler::helper_main(int index) {
  const auto admitted = [&] {
    return index + 1 < active_workers_.load(std::memory_order_acquire);
  };
  std::uint32_t seen = 0;  // not epoch_: a late starter still joins region 1
  while (true) {
    if (admitted()) spin_until([&] { return epoch_.load() != seen; });
    epoch_.wait(seen, std::memory_order_acquire);
    seen = epoch_.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_acquire)) return;
    if (!admitted()) continue;
    // Register, then read the region (both seq_cst, as is the caller's
    // unpublish-then-check): the caller waits for us, or we see no region.
    users_.fetch_add(1);
    if (Region* region = region_.load()) run_chunks(*region, true);
    if (users_.fetch_sub(1) == 1) users_.notify_all();
  }
}

void Scheduler::run_chunks(Region& region, bool helper) {
  std::int64_t ran = 0;
  while (true) {
    const std::int64_t chunk =
        region.next.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= region.chunks) break;
    const std::int64_t b = region.begin + chunk * region.grain;
    inject_spawn_overhead();
    try {
      (*region.body)(b, b + std::min(region.grain, region.end - b));
    } catch (...) {
      if (!region.failed.exchange(true)) {
        region.error = std::current_exception();
      }
    }
    ++ran;
  }
  if (helper) steal_count_.fetch_add(ran, std::memory_order_relaxed);
}

void Scheduler::parallel_for(std::int64_t begin, std::int64_t end,
                             std::int64_t grain, const RangeBody& body) {
  if (end <= begin) return;
  grain = std::max<std::int64_t>(grain, 1);
  if (thread_count() == 1 || end - begin <= grain) {
    body(begin, end);
    return;
  }
  Region region{&body, begin, end, grain, (end - begin - 1) / grain + 1};
  // When the team is busy (a nested body, or another client's region) or
  // throttled to the caller alone, this thread runs every chunk itself.
  const bool team = active_workers() > 1 &&
                    !busy_.exchange(true, std::memory_order_acquire);
  if (team) {
    region_.store(&region);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
  }
  run_chunks(region, false);
  if (team) {
    // Every chunk is claimed; unpublish, then wait out registered helpers
    // (those still running a chunk, and late arrivals about to see null).
    region_.store(nullptr);
    spin_until([&] { return users_.load() == 0; });
    for (int users = users_.load(); users != 0; users = users_.load()) {
      users_.wait(users);
    }
    busy_.store(false, std::memory_order_release);
  }
  if (region.error) std::rethrow_exception(region.error);
}

double Scheduler::parallel_reduce_sum(std::int64_t begin, std::int64_t end,
                                      std::int64_t grain,
                                      const RangeSum& chunk_fn) {
  if (end <= begin) return 0.0;
  grain = std::max<std::int64_t>(grain, 1);
  if (thread_count() == 1 || end - begin <= grain) {
    return chunk_fn(begin, end);
  }
  // One slot per chunk, summed in chunk order: same bits on any thread.
  std::vector<double> partials(
      static_cast<std::size_t>((end - begin - 1) / grain + 1));
  parallel_for(begin, end, grain, [&](std::int64_t b, std::int64_t e) {
    partials[static_cast<std::size_t>((b - begin) / grain)] = chunk_fn(b, e);
  });
  double total = 0.0;
  for (const double partial : partials) total += partial;
  return total;
}

}  // namespace pbmg::rt
