#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "bytes_model.h"
#include "engine/solve_service.h"
#include "grid/fingerprint.h"
#include "grid/grid_ops.h"
#include "grid/problem.h"
#include "obs/phase_profile.h"
#include "solvers/line_relax.h"
#include "solvers/relax.h"
#include "spans.h"
#include "support/rng.h"
#include "support/timer.h"
#include "tables.h"
#include "tune/accuracy.h"

namespace perfbench {

namespace {

using namespace pbmg;

constexpr int kSetupRepeats = 7;    ///< setup_s is the median of these
constexpr int kLiveOperators = 8;   ///< catalogue operators kept alive
/// One jump-routed request in kFreshEvery carries a new catalogue
/// operator, so a fixed share of requests binds whatever the service's
/// speed.  A cold request costs about four warm ones, and a warm request
/// that overlaps the other client's bind takes about as long, so over a
/// third of requests are slow: p90 sits deep inside that slow mode and p50
/// outside it.
constexpr std::int64_t kFreshEvery = 4;
constexpr int kForkJoinChunks = 64;
constexpr int kForkJoinReps = 400;
constexpr double kProbeSeconds = 0.25;  ///< per kernel probe
constexpr int kTriadReps = 10;
constexpr std::int64_t kTracedMinRequests = 20;
constexpr double kWarmupSeconds = 1.0;
/// A window stops here even short of its minimum request count, so a run
/// on a badly contended host still exits within its time limit.
constexpr double kMaxWindowSeconds = 120.0;
constexpr int kParityRounds = 2;  ///< timed passes over the parity inputs

// ------------------------------------------------------------- inputs --

/// One request's input: the operator (routed workloads) and an instance
/// whose exact discrete solution is the correctness oracle.
struct Input {
  std::int64_t id = 0;
  grid::StencilOp op;
  tune::TrainingInstance inst;
  double initial_residual = 0.0;  ///< ||b − A·x0|| (routed audit)
  std::string label;              ///< operator description for messages
};
using InputPtr = std::shared_ptr<const Input>;

/// Profile of a one-thread scheduler: its parallel_for runs inline on the
/// calling thread, so input generation and checks never touch the
/// engine's workers.
rt::MachineProfile inline_profile(const std::string& name) {
  rt::MachineProfile profile;
  profile.name = name;
  profile.threads = 1;
  return profile;
}

/// A family of box-coefficient operators: `contrast` inside a random box
/// whose edges sit on the 1/grid lines, 1 outside.  The canonical jump
/// family is the box [1/4, 3/4)² at contrast 100.
struct JumpRange {
  int grid = 8;
  double log10_contrast_lo = 1.0;
  double log10_contrast_hi = 2.5;
};

/// The served catalogue: boxes on the 1/8 lines (so every interface lies
/// on a coarse-grid line down to n = 9) and contrast 10 to ~316.
constexpr JumpRange kServedJumps{8, 1.0, 2.5};

/// The defect probe: boxes on the 1/16 lines and contrast ~316 to ~3162.
/// The jump tables diverge on some of these (see hard_operator_probe).
constexpr JumpRange kHardJumps{16, 2.5, 3.5};

grid::StencilOp jump_like_operator(int n, Rng& rng, const JumpRange& range,
                                   std::string& label) {
  const int grid = range.grid;
  const auto edge = [&rng, grid] {
    const int lo = 1 + static_cast<int>(rng.uniform_index(grid / 2));
    const int hi = std::min(
        grid - 1,
        lo + grid / 4 + static_cast<int>(rng.uniform_index(grid / 4 + 1)));
    return std::make_pair(static_cast<double>(lo) / grid,
                          static_cast<double>(hi) / grid);
  };
  const auto [x0, x1] = edge();
  const auto [y0, y1] = edge();
  const double contrast = std::pow(
      10.0, rng.uniform(range.log10_contrast_lo, range.log10_contrast_hi));
  label = "box [" + std::to_string(x0) + "," + std::to_string(x1) + ")x[" +
          std::to_string(y0) + "," + std::to_string(y1) + ") contrast " +
          std::to_string(contrast);
  return grid::StencilOp::from_coefficient(
      n, [=](double x, double y) {
        return (x >= x0 && x < x1 && y >= y0 && y < y1) ? contrast : 1.0;
      });
}

double residual_norm(const grid::StencilOp& op, const Grid2D& x,
                     const tune::TrainingInstance& inst, Grid2D& r,
                     rt::Scheduler& sched) {
  grid::residual_op(op, x, inst.problem.b, r, sched);
  return grid::norm2_interior(r, sched);
}

/// A jump-like operator with a manufactured instance and its initial
/// residual norm (the routed audit's reference).
std::shared_ptr<Input> make_jump_input(int n, std::int64_t id, Rng& rng,
                                       const JumpRange& range,
                                       rt::Scheduler& sched) {
  auto input = std::make_shared<Input>();
  input->id = id;
  input->op = jump_like_operator(n, rng, range, input->label);
  Rng inst_rng = rng.split(static_cast<std::uint64_t>(id) + 1);
  input->inst = tune::make_training_instance(
      input->op, InputDistribution::kUnbiased, inst_rng, sched);
  Grid2D r(n, 0.0);
  input->initial_residual =
      residual_norm(input->op, input->inst.problem.x0, input->inst, r, sched);
  return input;
}

/// Per-client correctness checker.  Tuned-table solves (solve) must reach
/// the target error reduction against the instance's exact solution;
/// routed solves (solve_op) promise a residual reduction, so they are
/// audited on the residual.  Either may miss the target by at most
/// kAccuracyTolerance.
class Checker {
 public:
  explicit Checker(int n)
      : sched_(inline_profile("perfbench-check")), r_(n, 0.0) {}

  /// Empty when the solution passes, else why it failed.
  std::string check(const WorkloadSpec& spec, const Input& input,
                    const Grid2D& x);

 private:
  rt::Scheduler sched_;
  Grid2D r_;
};

/// Where client threads take their next input from.
class InputSource {
 public:
  virtual ~InputSource() = default;
  /// Input of request `k` (k counts up across all clients); `fresh` is
  /// set when the input carries an operator never handed out before.
  virtual InputPtr next(std::int64_t k, bool& fresh) = 0;
  /// Inputs made before any request (parity and kernel probes use them).
  virtual const std::vector<InputPtr>& initial() const = 0;
};

/// A fixed set of instances of one operator, cycled.
class FixedInputs final : public InputSource {
 public:
  FixedInputs(const grid::StencilOp& op, int count, std::uint64_t seed,
              rt::Scheduler& sched) {
    const Rng base(seed);
    for (int i = 0; i < count; ++i) {
      Rng rng = base.split(static_cast<std::uint64_t>(i) + 1);
      auto input = std::make_shared<Input>();
      input->id = i;
      input->op = op;
      input->inst = tune::make_training_instance(
          op, InputDistribution::kUnbiased, rng, sched);
      inputs_.push_back(std::move(input));
    }
  }
  InputPtr next(std::int64_t k, bool& fresh) override {
    fresh = false;
    return inputs_[static_cast<std::size_t>(k) % inputs_.size()];
  }
  const std::vector<InputPtr>& initial() const override { return inputs_; }

 private:
  std::vector<InputPtr> inputs_;
};

/// Seeded stream of jump-like operators.  Request k carries a new
/// operator when k is a multiple of kFreshEvery; every other request
/// carries one of the kLiveOperators most recent operators.  Only the live
/// operators stay referenced here, so memory held for older ones is the
/// service's own.  Operators come from one seeded stream and live picks
/// from another, so the seed fixes the operators and, per client, their
/// order; how the two clients' requests interleave is left to the clock.
class OperatorCatalogue final : public InputSource {
 public:
  OperatorCatalogue(int n, std::uint64_t seed)
      : n_(n),
        make_rng_(seed),
        pick_rng_(Rng(seed).split(0x9c1c)),
        sched_(inline_profile("perfbench-inputs")) {
    for (int i = 0; i < kLiveOperators; ++i) live_.push_back(make_locked());
    initial_.assign(live_.begin(), live_.end());
  }

  InputPtr next(std::int64_t k, bool& fresh) override {
    std::lock_guard<std::mutex> lock(mutex_);
    std::shared_ptr<Input> pick;
    if (k % kFreshEvery == 0) {
      live_.push_back(make_locked());
      if (static_cast<int>(live_.size()) > kLiveOperators) live_.pop_front();
      pick = live_.back();
    } else {
      pick = live_[pick_rng_.uniform_index(live_.size())];
    }
    // Operators are first handed out in creation order, so an id at or
    // past the high-water mark has never been served.
    fresh = pick->id >= handed_out_;
    handed_out_ = std::max(handed_out_, pick->id + 1);
    return pick;
  }

  const std::vector<InputPtr>& initial() const override { return initial_; }

 private:
  std::shared_ptr<Input> make_locked() {
    return make_jump_input(n_, next_id_++, make_rng_, kServedJumps, sched_);
  }

  const int n_;
  std::vector<InputPtr> initial_;
  mutable std::mutex mutex_;  // guards everything below
  Rng make_rng_;
  Rng pick_rng_;
  rt::Scheduler sched_;
  std::deque<std::shared_ptr<Input>> live_;
  std::int64_t next_id_ = 0;
  std::int64_t handed_out_ = 0;
};

std::string Checker::check(const WorkloadSpec& spec, const Input& input,
                           const Grid2D& x) {
  double reduction = 0.0;
  if (spec.routed) {
    const double final_residual =
        residual_norm(input.op, x, input.inst, r_, sched_);
    reduction = final_residual > 0.0
                    ? input.initial_residual / final_residual
                    : std::numeric_limits<double>::infinity();
  } else {
    reduction = tune::accuracy_of(input.inst, x, sched_);
  }
  if (reduction >= kTargetAccuracy / kAccuracyTolerance) return {};
  return "input " + std::to_string(input.id) + " " + input.label +
         " reached " +
         (spec.routed ? "residual reduction " : "accuracy ") +
         std::to_string(reduction) + " < target/" +
         std::to_string(kAccuracyTolerance);
}

std::unique_ptr<InputSource> make_inputs(const WorkloadSpec& spec,
                                         std::uint64_t seed) {
  const int n = (1 << spec.level) + 1;
  if (spec.routed) return std::make_unique<OperatorCatalogue>(n, seed);
  rt::MachineProfile profile;
  profile.name = "perfbench-inputs";
  profile.threads = std::max(1, spec.threads);
  rt::Scheduler sched(profile);
  return std::make_unique<FixedInputs>(
      make_operator(n, parse_operator_family(spec.family)), spec.instances,
      seed, sched);
}

// -------------------------------------------------------------- stack --

/// Engine + service serving one workload.
struct Stack {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<SolveService> service;
  pbmg::Json table_provenance;
  double bind_start = 0.0;  ///< the cold session() bind inside setup
  double bind_end = 0.0;

  /// Tears down in dependency order (the service references the engine).
  void reset() {
    service.reset();
    engine.reset();
  }
};

/// Cold start until the first request can be served: Engine construction,
/// loading the pinned table, service construction (routing armed with no
/// retune callback for routed workloads) and binding + prewarming the
/// workload's session.
Stack build_stack(const WorkloadSpec& spec, const RunSettings& settings,
                  int threads) {
  Stack stack;
  rt::MachineProfile profile;
  profile.name = "perfbench";
  profile.threads = threads;
  EngineOptions options;
  options.profile = profile;
  stack.engine = std::make_unique<Engine>(options);
  PinnedTable table =
      load_pinned_table(settings.tables_dir, spec.family, spec.level);
  stack.table_provenance = table.provenance;
  stack.service =
      std::make_unique<SolveService>(*stack.engine, std::move(table.config));
  if (spec.routed) stack.service->enable_operator_routing(RoutePolicy{}, {});
  stack.bind_start = now_seconds();
  stack.service->session((1 << spec.level) + 1);
  stack.bind_end = now_seconds();
  return stack;
}

/// Builds the stack kSetupRepeats times (tearing each down but the last)
/// and returns the last plus the median setup time.
Stack timed_setup(const WorkloadSpec& spec, const RunSettings& settings,
                  std::vector<double>& setup_seconds) {
  Stack stack;
  for (int i = 0; i < kSetupRepeats; ++i) {
    stack.reset();  // tear down the previous one outside the timing
    const double t0 = now_seconds();
    stack = build_stack(spec, settings, spec.threads);
    setup_seconds.push_back(now_seconds() - t0);
  }
  return stack;
}

// ------------------------------------------------------------ serving --

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

/// Per-request record of a window.
struct RequestLog {
  double seconds = 0.0;
  bool fresh = false;
  double profiled_seconds = 0.0;
  double coarse_seconds = 0.0;
  std::array<double, obs::kPhaseCount> phases{};
  int iterations = 0;
};

struct WindowResult {
  std::vector<RequestLog> requests;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;
  double throughput = 0.0;  ///< Σ over clients of solves / busy seconds
  std::int64_t steals = 0;
};

/// One attempt: copy the initial guess in, call the public API (the only
/// timed part), then check accuracy against the instance's exact solution.
/// Returns false (and explains in `problem`) when the request failed.
bool serve_one(const WorkloadSpec& spec, SolveService& service,
               const Input& input, Grid2D& x, Checker& checker,
               const std::shared_ptr<obs::PhaseProfile>& profile,
               RequestLog& log, std::string& problem) {
  x.copy_from(input.inst.problem.x0);
  SolveRequest request;
  request.target_accuracy = kTargetAccuracy;
  request.profile = profile;
  SolveStats stats;
  const double t0 = now_seconds();
  try {
    stats = spec.routed ? service.solve_op(input.op, x, input.inst.problem.b,
                                           request)
                        : service.solve(x, input.inst.problem.b, request);
  } catch (const std::exception& e) {
    problem = std::string("request threw: ") + e.what();
    return false;
  }
  log.seconds = now_seconds() - t0;
  log.iterations = stats.iterations;
  problem = checker.check(spec, input, x);
  if (!problem.empty()) {
    problem += stats.converged ? " (the service reported converged)"
                               : " (the service reported not converged)";
  }
  return problem.empty();
}

/// Runs `spec.clients` closed-loop clients for `seconds` and at least
/// `min_requests` completed solves, but never past kMaxWindowSeconds.  With `spans`, every request carries
/// its own PhaseProfile and is recorded as a span.
WindowResult serve_window(const WorkloadSpec& spec, SolveService& service,
                          InputSource& inputs, double seconds,
                          std::int64_t min_requests, SpanRecorder* spans,
                          std::atomic<std::int64_t>& request_ids) {
  const int n = (1 << spec.level) + 1;
  const int coarse_level = spec.level - 2;
  std::atomic<std::int64_t> next_input{0};
  std::atomic<std::int64_t> completed{0};
  std::mutex merge_mutex;
  WindowResult result;
  const std::int64_t steals0 = service.engine().scheduler().steal_count();
  const double deadline = now_seconds() + seconds;
  const double hard_deadline = now_seconds() + kMaxWindowSeconds;

  const auto client = [&] {
    Checker checker(n);
    Grid2D x(n, 0.0);
    WindowResult mine;
    double busy = 0.0;
    while ((now_seconds() < deadline ||
            completed.load(std::memory_order_relaxed) < min_requests) &&
           now_seconds() < hard_deadline) {
      bool fresh = false;
      const InputPtr input = inputs.next(next_input.fetch_add(1), fresh);
      const auto profile =
          spans != nullptr ? std::make_shared<obs::PhaseProfile>() : nullptr;
      RequestLog log;
      log.fresh = fresh;
      std::string problem;
      ++mine.attempted;
      const double t0 = now_seconds();
      const bool ok = serve_one(spec, service, *input, x, checker,
                                profile, log, problem);
      if (!ok) {
        ++mine.failed;
        mine.problems.push_back(problem);
      }
      busy += log.seconds;
      completed.fetch_add(1, std::memory_order_relaxed);
      if (profile != nullptr) {
        for (const auto& entry : profile->entries()) {
          log.phases[static_cast<int>(entry.phase)] += entry.seconds;
          log.profiled_seconds += entry.seconds;
          if (entry.level <= coarse_level) log.coarse_seconds += entry.seconds;
        }
        Json attrs = Json::object();
        attrs.set("input", input->id);
        attrs.set("iterations", log.iterations);
        attrs.set("profiled_s", log.profiled_seconds);
        for (int p = 0; p < obs::kPhaseCount; ++p) {
          attrs.set(std::string(obs::to_string(static_cast<obs::Phase>(p))) +
                        "_s",
                    log.phases[p]);
        }
        const std::string name =
            spec.routed ? (fresh ? "engine.solve_op.cold" : "engine.solve_op")
                        : "engine.solve";
        spans->record(name, request_ids.fetch_add(1) + 1, 0, t0,
                      t0 + log.seconds, std::move(attrs));
      }
      if (ok) mine.requests.push_back(log);
    }
    std::lock_guard<std::mutex> lock(merge_mutex);
    result.requests.insert(result.requests.end(), mine.requests.begin(),
                           mine.requests.end());
    result.attempted += mine.attempted;
    result.failed += mine.failed;
    result.problems.insert(result.problems.end(), mine.problems.begin(),
                           mine.problems.end());
    if (busy > 0.0) {
      result.throughput += static_cast<double>(mine.requests.size()) / busy;
    }
  };

  std::vector<std::thread> threads;
  for (int c = 1; c < spec.clients; ++c) threads.emplace_back(client);
  client();
  for (auto& t : threads) t.join();
  result.steals = service.engine().scheduler().steal_count() - steals0;
  return result;
}

/// Latencies of the window's passed requests; with `fresh`, only those
/// that did (or did not) carry a never-served operator.
std::vector<double> latencies(const WindowResult& window,
                              std::optional<bool> fresh = std::nullopt) {
  std::vector<double> out;
  for (const RequestLog& r : window.requests) {
    if (!fresh || r.fresh == *fresh) out.push_back(r.seconds);
  }
  return out;
}

// -------------------------------------------------------------- probes --

/// Median seconds of `fn` over calls until `budget` seconds (at least
/// `min_reps`, at most `max_reps`); each call becomes a span under one
/// probe span.
double probe(SpanRecorder& spans, std::atomic<std::int64_t>& request_ids,
             const std::string& name, double budget, int min_reps,
             int max_reps, const std::function<void()>& fn) {
  const std::int64_t request = request_ids.fetch_add(1) + 1;
  const std::int64_t parent = spans.reserve_id();
  std::vector<double> samples;
  const double start = now_seconds();
  while (static_cast<int>(samples.size()) < max_reps &&
         (static_cast<int>(samples.size()) < min_reps ||
          now_seconds() - start < budget)) {
    const double t0 = now_seconds();
    fn();
    const double t1 = now_seconds();
    samples.push_back(t1 - t0);
    spans.record(name, request, parent, t0, t1);
  }
  spans.record_with_id(parent, "probe." + name, request, 0, start,
                       now_seconds());
  return median(samples);
}

/// Line smoother the pinned table runs at the finest level for the target
/// accuracy, or x-lines when that cell relaxes point-wise.
solvers::RelaxKind line_kind_of(const SolveService& service, int level) {
  const auto& config = service.config();
  const auto& cell =
      config.v_entry(level, config.accuracy_index(kTargetAccuracy)).choice;
  return solvers::is_line_relax(cell.smoother) ? cell.smoother
                                               : solvers::RelaxKind::kLineX;
}

struct KernelProbes {
  double fork_join_s = 0.0;
  double residual_gbs = 0.0;
  double sor_gbs = 0.0;
  double line_gbs = 0.0;
  double fingerprint_s = 0.0;
  double triad_gbs = 0.0;
  solvers::RelaxKind line_kind = solvers::RelaxKind::kLineX;
};

/// Fork/join, kernel, fingerprint and STREAM probes on the engine's own
/// scheduler (the workload's thread count) and kernel layout, on the
/// workload's operator `op` and size.
KernelProbes probe_kernels(const WorkloadSpec& spec, SolveService& service,
                           const grid::StencilOp& op, std::uint64_t seed,
                           SpanRecorder& spans,
                           std::atomic<std::int64_t>& request_ids) {
  Engine& engine = service.engine();
  rt::Scheduler& sched = engine.scheduler();
  const grid::KernelPolicy kernels = engine.relax().kernels;
  const int n = op.n();
  Grid2D x(n, 0.0), b(n, 0.0), r(n, 0.0);
  Rng rng(seed ^ 0x5eedull);
  for (int i = 1; i < n - 1; ++i) {
    for (int j = 1; j < n - 1; ++j) {
      x(i, j) = rng.uniform(-1.0, 1.0);
      b(i, j) = rng.uniform(-1.0, 1.0);
    }
  }
  KernelProbes out;
  out.line_kind = line_kind_of(service, spec.level);
  const double omega = solvers::scaled_omega_opt(n, 1.0);
  out.fork_join_s = probe(spans, request_ids, "runtime.parallel_for", 0.0,
                          kForkJoinReps, kForkJoinReps, [&] {
                            sched.parallel_for(
                                0, kForkJoinChunks, 1,
                                [](std::int64_t, std::int64_t) {});
                          });
  const double residual_s = probe(
      spans, request_ids, "grid.residual_op", kProbeSeconds, 5, 2000,
      [&] { grid::residual_op(op, x, b, r, sched, kernels); });
  const double sor_s = probe(
      spans, request_ids, "solvers.sor_sweep", kProbeSeconds, 5, 2000,
      [&] { solvers::sor_sweep(op, x, b, omega, sched, kernels); });
  const double line_s = probe(
      spans, request_ids, "solvers.line_relax_sweep", kProbeSeconds, 5, 2000,
      [&] {
        solvers::line_relax_sweep(op, x, b, out.line_kind, sched,
                                  engine.scratch(), kernels);
      });
  volatile double fp_sink = 0.0;
  out.fingerprint_s = probe(
      spans, request_ids, "grid.fingerprint", kProbeSeconds, 5, 2000,
      [&] { fp_sink = grid::fingerprint(op).heterogeneity; });
  (void)fp_sink;
  probe(spans, request_ids, "host.stream_triad", 0.0, 1, 1, [&] {
    out.triad_gbs = stream_triad_gbs(sched, kTriadElements, kTriadReps);
  });
  const StencilShape shape = shape_of(op, kernels.layout);
  const auto gbs = [&](Sweep sweep, double seconds) {
    return static_cast<double>(
               computed_bytes(sweep, shape, n, out.line_kind)) /
           seconds / 1e9;
  };
  out.residual_gbs = gbs(Sweep::kResidual, residual_s);
  out.sor_gbs = gbs(Sweep::kSor, sor_s);
  out.line_gbs = gbs(Sweep::kLine, line_s);
  return out;
}

struct ParitySide {
  std::vector<double> seconds;
  std::uint64_t digest = kFnvOffset;
};

/// Serves `inputs` (each once untimed to bind, then timed) on a fresh
/// stack with `threads` engine threads; digests every timed solution.
ParitySide parity_side(const WorkloadSpec& spec, const RunSettings& settings,
                       const std::vector<InputPtr>& inputs, int threads,
                       int rounds, std::int64_t& attempted,
                       std::int64_t& failed,
                       std::vector<std::string>& problems) {
  Stack stack = build_stack(spec, settings, threads);
  Checker checker((1 << spec.level) + 1);
  Grid2D x((1 << spec.level) + 1, 0.0);
  ParitySide side;
  for (int round = 0; round <= rounds; ++round) {
    for (const InputPtr& input : inputs) {
      RequestLog log;
      std::string problem;
      ++attempted;
      if (!serve_one(spec, *stack.service, *input, x, checker, nullptr,
                     log, problem)) {
        ++failed;
        problems.push_back(problem);
      }
      if (round == 0) continue;  // binds routed operators; untimed
      side.seconds.push_back(log.seconds);
      side.digest = fnv1a(x.data(), x.size() * sizeof(double), side.digest);
    }
  }
  return side;
}

/// Defect probe of traced jump-routed runs: routed solves of operators
/// outside the served catalogue (boxes off the coarse-grid lines, contrast
/// up to ~3162).  Returns the share whose residual audit misses the target
/// by more than the tolerance.  These misses are measured, not counted as
/// failed requests: the jump tables diverge on some such operators today
/// (the service reports them unconverged), and this share is the number a
/// robustness fix should bring to 0.
double hard_operator_probe(const WorkloadSpec& spec, SolveService& service,
                           std::uint64_t seed, SpanRecorder& spans,
                           std::atomic<std::int64_t>& request_ids) {
  constexpr int kHardOperators = 8;
  const int n = (1 << spec.level) + 1;
  rt::Scheduler sched(inline_profile("perfbench-inputs"));
  Rng rng(seed ^ 0x4a524bull);
  Checker checker(n);
  Grid2D x(n, 0.0);
  int missed = 0;
  for (int i = 0; i < kHardOperators; ++i) {
    const auto input = make_jump_input(n, i, rng, kHardJumps, sched);
    RequestLog log;
    std::string problem;
    const double t0 = now_seconds();
    const bool ok =
        serve_one(spec, service, *input, x, checker, nullptr, log, problem);
    Json attrs = Json::object();
    attrs.set("operator", input->label);
    attrs.set("met_target", ok);
    spans.record("engine.solve_op.hard", request_ids.fetch_add(1) + 1, 0, t0,
                 now_seconds(), std::move(attrs));
    if (!ok) ++missed;
  }
  return static_cast<double>(missed) / kHardOperators;
}

double ms(double seconds) { return seconds * 1e3; }

}  // namespace

// Why each workload exists is recorded in BENCHMARK.json and README.md.
std::vector<WorkloadSpec> workload_specs(int nproc) {
  const int par = std::max(1, nproc);
  return {
      {"poisson-1025-par", "poisson", 10, par, 1, false, 3},
      {"anisot30-257-serial", "aniso-t30", 8, 1, 1, false, 4},
      {"jump-routed-257", "jump", 8, 1, 2, true, 0},
  };
}

RunResult run_workload(const WorkloadSpec& spec, const RunSettings& settings,
                       const HostInfo& host) {
  RunResult out;
  const int n = (1 << spec.level) + 1;
  const std::unique_ptr<InputSource> inputs = make_inputs(spec, settings.seed);
  SpanRecorder spans;  // timestamps count from here; written if traced

  std::vector<double> setup_seconds;
  Stack stack = timed_setup(spec, settings, setup_seconds);
  SolveService& service = *stack.service;
  Engine& engine = *stack.engine;

  Json prov = Json::object();
  prov.set("workload", spec.name);
  prov.set("seed", static_cast<std::int64_t>(settings.seed));
  prov.set("seconds", settings.seconds);
  prov.set("trace", settings.trace);
  prov.set("n", n);
  prov.set("engine_threads", spec.threads);
  prov.set("clients", spec.clients);
  prov.set("loop", "closed");
  prov.set("target_accuracy", kTargetAccuracy);
  prov.set("host", to_json(host));
  prov.set("triad_elements_per_array",
           static_cast<std::int64_t>(kTriadElements));
  prov.set("triad_bytes_per_array",
           static_cast<std::int64_t>(kTriadElements * sizeof(double)));
  prov.set("pinned_table", stack.table_provenance);
  prov.set("kernel_layout", to_string(engine.relax().kernels.layout));

  Json setup_samples = Json::array();
  for (double t : setup_seconds) setup_samples.push_back(t);
  prov.set("setup_samples_s", std::move(setup_samples));

  std::atomic<std::int64_t> request_ids{0};
  const auto tally = [&](const WindowResult& window) {
    out.attempted += window.attempted;
    out.failed += window.failed;
    out.problems.insert(out.problems.end(), window.problems.begin(),
                        window.problems.end());
  };

  // Warm-up: serve (and check) for a second before anything is timed, so
  // CPU ramp-up and first-touch page faults of the serving path land here.
  tally(serve_window(spec, service, *inputs, kWarmupSeconds, 0, nullptr,
                    request_ids));

  if (!settings.trace) {
    const CpuTimes cpu_before = read_cpu_times();
    const WindowResult window =
        serve_window(spec, service, *inputs, settings.seconds, kMinRequests,
                     nullptr, request_ids);
    prov.set("host_steal_share", steal_share(cpu_before, read_cpu_times()));
    tally(window);
    const std::vector<double> all = latencies(window);
    if (all.empty()) {
      out.problems.push_back("no request completed");
    } else {
      const auto count = static_cast<std::int64_t>(all.size());
      if (!percentile_reportable(count, 0.9)) {
        out.problems.push_back("too few samples for p90");
      }
      out.metrics = catalogue_metrics(
          end_to_end_metrics(),
          {
              {"setup_s", median(setup_seconds)},
              {"solve_p50_ms", ms(median(all))},
              {"solve_p90_ms", ms(percentile(all, 0.9))},
              {"throughput_solves_s", window.throughput},
              {"ok_ratio",
               static_cast<double>(window.attempted - window.failed) /
                   static_cast<double>(window.attempted)},
              {"peak_rss_mb", peak_rss_mb()},
          });
      prov.set("samples", count);
      prov.set("samples_beyond_p90", samples_beyond(count, 0.9));
    }
  } else {
    spans.record("engine.session_bind", request_ids.fetch_add(1) + 1, 0,
                 stack.bind_start, stack.bind_end);
    // Untraced then traced halves on the same service and input stream.
    const double half = settings.seconds / 2.0;
    const WindowResult plain = serve_window(
        spec, service, *inputs, half, kTracedMinRequests, nullptr,
        request_ids);
    tally(plain);
    const WindowResult traced = serve_window(
        spec, service, *inputs, half, kTracedMinRequests, &spans,
        request_ids);
    tally(traced);
    const std::vector<double> plain_all = latencies(plain);
    const std::vector<double> traced_all = latencies(traced);
    if (plain_all.empty() || traced_all.empty()) {
      out.problems.push_back("no request completed");
      out.correct = false;
      out.attempted = std::max<std::int64_t>(out.attempted, 1);
      return out;
    }

    // Per-solve phase totals, self time, coarse share, iterations.
    std::array<double, obs::kPhaseCount> phase_sum{};
    double self_sum = 0.0, coarse_sum = 0.0, profiled_sum = 0.0;
    double iterations = 0.0;
    for (const RequestLog& r : traced.requests) {
      for (int p = 0; p < obs::kPhaseCount; ++p) phase_sum[p] += r.phases[p];
      self_sum += r.seconds - r.profiled_seconds;
      coarse_sum += r.coarse_seconds;
      profiled_sum += r.profiled_seconds;
      iterations += r.iterations;
    }
    const double solves = static_cast<double>(traced.requests.size());
    const auto phase_ms = [&](obs::Phase p) {
      return ms(phase_sum[static_cast<int>(p)] / solves);
    };

    // Bind cost: the cold session() in setup, or for routed traffic the
    // cold-minus-warm solve_op median.
    double bind_ms = ms(stack.bind_end - stack.bind_start);
    if (spec.routed) {
      std::vector<double> cold = latencies(plain, true);
      std::vector<double> warm = latencies(plain, false);
      const std::vector<double> cold_t = latencies(traced, true);
      const std::vector<double> warm_t = latencies(traced, false);
      cold.insert(cold.end(), cold_t.begin(), cold_t.end());
      warm.insert(warm.end(), warm_t.begin(), warm_t.end());
      bind_ms = cold.empty() || warm.empty()
                    ? 0.0
                    : ms(median(cold) - median(warm));
    }

    const ServiceStats stats = service.stats();
    const obs::RegistrySnapshot snapshot = service.metrics_snapshot();
    double routed = 0.0, matched = 0.0;
    for (const auto& [name, value] : snapshot.counters) {
      if (name.rfind("pbmg_route_total{", 0) != 0) continue;
      routed += static_cast<double>(value);
      if (name.find("outcome=\"matched\"") != std::string::npos) {
        matched += static_cast<double>(value);
      }
    }

    const KernelProbes kp =
        probe_kernels(spec, service, inputs->initial().front()->op,
                      settings.seed, spans, request_ids);

    // Thread-count parity: the same inputs at T=1 and T=nproc must give
    // bitwise-identical solutions (the kernels' thread-count contract).
    std::vector<InputPtr> parity_inputs = inputs->initial();
    if (spec.routed) parity_inputs.resize(4);
    const ParitySide serial =
        parity_side(spec, settings, parity_inputs, 1, kParityRounds,
                    out.attempted, out.failed, out.problems);
    const ParitySide wide =
        parity_side(spec, settings, parity_inputs, host.nproc, kParityRounds,
                    out.attempted, out.failed, out.problems);
    if (serial.digest != wide.digest) {
      out.problems.push_back("solutions differ between T=1 and T=" +
                             std::to_string(host.nproc));
    }
    const double hard_missed =
        spec.routed ? hard_operator_probe(spec, service, settings.seed, spans,
                                          request_ids)
                    : 0.0;
    prov.set("digest_t1", std::to_string(serial.digest));
    prov.set("digest_tn", std::to_string(wide.digest));

    const std::string span_path = settings.out_dir + "/spans-" + spec.name +
                                  "-seed" + std::to_string(settings.seed) +
                                  ".jsonl";
    if (!spans.write_jsonl(span_path)) {
      out.problems.push_back("cannot write " + span_path);
    }
    prov.set("span_file", span_path);
    prov.set("samples", static_cast<std::int64_t>(traced_all.size()));
    prov.set("line_kind", solvers::to_string(kp.line_kind));
    prov.set("bytes_model",
             "computed bytes: 8 B per interior point per stream touched "
             "(reads + writes, no write-allocate)");

    const grid::ScratchPool::Stats pool = engine.scratch().stats();
    out.metrics = catalogue_metrics(per_layer_metrics(), {
        {"runtime.fork_join_us", kp.fork_join_s * 1e6},
        {"runtime.steals_per_solve",
         static_cast<double>(traced.steals) / solves},
        {"runtime.parallel_speedup",
         median(serial.seconds) / median(wide.seconds)},
        {"solvers.coarse_share",
         profiled_sum > 0.0 ? coarse_sum / profiled_sum : 0.0},
        {"solvers.relax_ms", phase_ms(obs::Phase::kRelax)},
        {"solvers.line_solve_ms", phase_ms(obs::Phase::kLineSolve)},
        {"solvers.restrict_ms", phase_ms(obs::Phase::kRestrict)},
        {"solvers.interpolate_ms", phase_ms(obs::Phase::kInterpolate)},
        {"solvers.direct_ms", phase_ms(obs::Phase::kDirect)},
        {"solvers.rap_setup_ms", phase_ms(obs::Phase::kRapSetup)},
        {"tune.iterations_per_solve", iterations / solves},
        {"grid.residual_gbs", kp.residual_gbs},
        {"grid.sor_gbs", kp.sor_gbs},
        {"grid.line_gbs", kp.line_gbs},
        {"grid.residual_roof", kp.residual_gbs / kp.triad_gbs},
        {"grid.sor_roof", kp.sor_gbs / kp.triad_gbs},
        {"grid.line_roof", kp.line_gbs / kp.triad_gbs},
        {"host.stream_triad_gbs", kp.triad_gbs},
        {"engine.bind_ms", bind_ms},
        {"grid.scratch_hit_rate", pool.hit_rate()},
        {"engine.self_ms", ms(self_sum / solves)},
        {"grid.fingerprint_us", kp.fingerprint_s * 1e6},
        {"engine.route_matched_ratio",
         routed > 0.0 ? matched / routed : 0.0},
        {"engine.resident_mb",
         static_cast<double>(stats.session_bytes) / (1024.0 * 1024.0)},
        {"engine.evictions", static_cast<double>(stats.evictions)},
        {"engine.hard_op_miss_ratio", hard_missed},
        {"obs.trace_overhead_ratio",
         median(traced_all) / median(plain_all)},
    });
  }

  out.correct = out.problems.empty() && out.failed == 0;
  out.attempted = std::max<std::int64_t>(out.attempted, 1);
  out.provenance = std::move(prov);
  return out;
}

}  // namespace perfbench
