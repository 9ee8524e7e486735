#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "runtime/machine_profile.h"

/// \file scheduler.h
/// Persistent fork/join team for row-sliced grid kernels.
///
/// The PetaBricks runtime (§3.2.3 of the paper) is a Cilk-style
/// work-stealing scheduler because the compiler emits arbitrary task
/// graphs.  Every caller here issues a flat loop over grid rows, and rows of
/// a regular grid cost the same, so handing out grain-sized chunks from one
/// shared counter balances as well as stealing — without per-worker deques,
/// locks or recursive splitting, whose fork/join latency exceeded the
/// sweeps themselves on small hosts.
///
/// A team of T threads is T−1 helpers plus the thread that calls
/// parallel_for: the caller publishes the region, then claims chunks like
/// any helper, so exactly T threads run the work.  Idle helpers spin for a
/// bounded time (multigrid issues bursts of short regions), then park.
/// One region runs at a time: a call made while the team is busy — a
/// nested body, or a second client thread — runs the same grain-sized
/// chunks inline on its own thread.  Nesting thus composes without thread
/// explosion, as in the paper, and no kernel's bits depend on the path.

namespace pbmg::rt {

/// Fork/join team with a fixed thread count.
class Scheduler {
 public:
  /// Chunk body for parallel loops: invoked as body(chunk_begin, chunk_end).
  using RangeBody = std::function<void(std::int64_t, std::int64_t)>;

  /// Chunk function for reductions: returns the partial sum of a chunk.
  using RangeSum = std::function<double(std::int64_t, std::int64_t)>;

  /// Starts profile.threads − 1 helpers; InvalidArgument if threads < 1.
  explicit Scheduler(const MachineProfile& profile);
  ~Scheduler() { shutdown(); }

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Number of threads that run a region: the helpers plus the caller.
  int thread_count() const { return profile_.threads; }

  /// Profile this scheduler was built from.
  const MachineProfile& profile() const { return profile_; }

  /// Parallel loop over [begin, end): invokes body(chunk_begin, chunk_end)
  /// on consecutive chunks of `grain` indices (the last may be shorter).
  /// Runs body(begin, end) once when the scheduler has one thread or the
  /// range fits in one grain.  The first exception a chunk throws is
  /// rethrown here after the region drains; the scheduler stays usable.
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    const RangeBody& body);

  /// Parallel sum-reduction over [begin, end): chunk_fn returns each
  /// chunk's partial sum, added in chunk order, so the bits are the same on
  /// every repeat and whichever threads ran the chunks.  With one thread or
  /// a range of at most one grain it is chunk_fn(begin, end).
  double parallel_reduce_sum(std::int64_t begin, std::int64_t end,
                             std::int64_t grain, const RangeSum& chunk_fn);

  /// Grain for a row-sliced kernel over `rows` rows of `cells_per_row`
  /// cells: the whole range (one inline call) at or below the profile's
  /// parallel/sequential cutoff, its grain_rows otherwise.
  std::int64_t grain_for(std::int64_t rows, std::int64_t cells_per_row) const {
    if (rows * cells_per_row <= profile_.sequential_cutoff_cells) {
      return rows > 0 ? rows : 1;
    }
    return profile_.grain_rows;
  }

  /// Chunks run by helper threads (not the calling thread) since
  /// construction: how much of the work the team took off the caller.
  std::int64_t steal_count() const {
    return steal_count_.load(std::memory_order_relaxed);
  }

  /// Limits how many threads take chunks (clamped to [1, thread_count()]):
  /// the caller plus helpers 0..count−2; the others park until the limit
  /// is raised.  Models a machine whose effective core count shrank under
  /// the service (noisy neighbours, throttling), so the drift bench can
  /// degrade latency mid-run without rebuilding the engine.  Thread-safe.
  void set_active_workers(int count);

  /// Current active-worker limit (thread_count() unless throttled).
  int active_workers() const {
    return active_workers_.load(std::memory_order_acquire);
  }

 private:
  struct Region;

  void shutdown();
  void helper_main(int index);
  void run_chunks(Region& region, bool helper);
  void inject_spawn_overhead() const;

  MachineProfile profile_;
  std::atomic<int> active_workers_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> busy_{false};  ///< a caller owns the team
  /// Bumped to wake helpers: a new region, a throttle change, shutdown.
  std::atomic<std::uint32_t> epoch_{0};
  /// Published region, null between regions.  Helpers register in users_
  /// before reading it; the caller unpublishes it, then waits for users_
  /// to drain, so no helper touches a finished region.
  std::atomic<Region*> region_{nullptr};
  std::atomic<int> users_{0};
  std::atomic<std::int64_t> steal_count_{0};
  std::vector<std::thread> helpers_;  // last: the threads use all of the above
};

}  // namespace pbmg::rt
