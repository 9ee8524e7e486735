#include "engine/solve_service.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "grid/fingerprint.h"
#include "grid/level.h"
#include "support/error.h"
#include "support/timer.h"

namespace pbmg {

namespace {

// The per-slot dispatch solve() and solve_batch() share.
SolveStats solve_on(const SolveSession& session, Grid2D& x, const Grid2D& b,
                    int accuracy_index, const SolveRequest& request) {
  return request.fmg ? session.solve_fmg(x, b, accuracy_index,
                                         request.profile, request.residual)
                     : session.solve_v(x, b, accuracy_index, request.profile,
                                       request.residual);
}

}  // namespace

SolveService::SolveService(Engine& engine, tune::TunedConfig config,
                           ServicePolicy policy)
    : engine_(engine),
      policy_(policy),
      requests_ok_(
          metrics_.counter("pbmg_solve_requests_total{outcome=\"ok\"}")),
      requests_unconverged_(metrics_.counter(
          "pbmg_solve_requests_total{outcome=\"unconverged\"}")),
      requests_error_(
          metrics_.counter("pbmg_solve_requests_total{outcome=\"error\"}")),
      failures_total_(metrics_.counter("pbmg_solve_failures_total")),
      session_evictions_(metrics_.counter("pbmg_session_evictions_total")),
      trims_total_(metrics_.counter("pbmg_scratch_trims_total")),
      trim_bytes_total_(metrics_.counter("pbmg_scratch_trim_bytes_total")),
      drift_windows_ok_(
          metrics_.counter("pbmg_drift_windows_total{verdict=\"ok\"}")),
      drift_windows_drifted_(
          metrics_.counter("pbmg_drift_windows_total{verdict=\"drifted\"}")),
      retunes_total_(metrics_.counter("pbmg_drift_retunes_total")),
      retune_failures_total_(
          metrics_.counter("pbmg_drift_retune_failures_total")),
      route_escalations_(metrics_.counter("pbmg_route_escalations_total")),
      route_switches_(
          metrics_.counter("pbmg_route_family_switches_total")),
      family_retunes_total_(metrics_.counter("pbmg_family_retunes_total")),
      generation_gauge_(metrics_.gauge("pbmg_config_generation")),
      retune_gauge_(metrics_.gauge("pbmg_retune_in_progress")),
      session_bytes_gauge_(metrics_.gauge("pbmg_session_bytes")),
      failure_seconds_(metrics_.histogram("pbmg_solve_failure_seconds")),
      batch_size_(metrics_.histogram("pbmg_batch_size")),
      route_distance_(
          metrics_.histogram("pbmg_route_fingerprint_distance")) {
  current_ = std::make_shared<Generation>();
  current_->engine = &engine_;
  current_->config =
      std::make_shared<const tune::TunedConfig>(std::move(config));
  generation_gauge_.set(1.0);
}

SolveService::~SolveService() {
  if (retune_thread_.joinable()) retune_thread_.join();
}

void SolveService::enable_drift_watch(obs::LatencyBaseline baseline,
                                      obs::DriftPolicy policy,
                                      RetuneFn retune) {
  watcher_ = std::make_unique<obs::DriftWatcher>(std::move(baseline), policy);
  retune_fn_ = std::move(retune);
}

void SolveService::install(tune::TunedConfig config,
                           obs::LatencyBaseline baseline,
                           std::shared_ptr<Engine> engine) {
  auto fresh = std::make_shared<Generation>();
  fresh->config = std::make_shared<const tune::TunedConfig>(std::move(config));
  std::int64_t id = 0;
  std::vector<std::shared_ptr<Generation>> reclaimed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = current_->id + 1;
    fresh->id = id;
    {
      // Carry the family extensions over: the exactly-once family retune
      // guard would never retrain a family this install dropped.  Fresh
      // tables for the config's own family supersede an older extension.
      // install_family writes under mutex_ too, so none can land on the
      // retiring generation after this copy.
      std::lock_guard<std::mutex> gen_lock(current_->mutex);
      fresh->family_configs = current_->family_configs;
    }
    fresh->family_configs.erase(fresh->config->op_family);
    // A config-only install inherits the live engine as a CO-OWNING
    // shared_ptr (when the retiring generation owned one), never a raw
    // pointer into the retired generation — reclaiming that generation
    // must not pull the engine out from under the fresh one.  A null
    // `owned` on both sides means the construction-time, caller-owned
    // engine, which outlives the service by contract.
    fresh->owned = engine ? std::move(engine) : current_->owned;
    fresh->engine = fresh->owned ? fresh->owned.get() : current_->engine;
    retired_.push_back(current_);
    current_ = std::move(fresh);
    stats_.generation = id;
    reclaim_retired_locked(reclaimed);
  }
  generation_id_.store(id, std::memory_order_release);
  generation_gauge_.set(static_cast<double>(id));
  // Rebase after the swap so live windows restart against the new
  // baseline; samples still in flight on the old generation are filtered
  // out by observe_drift's generation check.
  if (watcher_) watcher_->rebase(std::move(baseline));
  // `reclaimed` destructs here, outside every lock: tearing down session
  // hierarchies (and possibly a generation-owned engine) is heavy.
}

void SolveService::reclaim_retired_locked(
    std::vector<std::shared_ptr<Generation>>& out) {
  // A retired generation with use_count 1 is pinned by nobody: no
  // SessionRef holds its aliased pointer, no in-flight solve snapshotted
  // it, only retired_ itself keeps it alive.  Its sessions — and its
  // engine, when no later generation co-owns it — are dead weight.
  auto it = retired_.begin();
  while (it != retired_.end()) {
    if (it->use_count() == 1) {
      release_bytes((*it)->resident_bytes);
      out.push_back(std::move(*it));
      it = retired_.erase(it);
    } else {
      ++it;
    }
  }
}

std::shared_ptr<SolveService::Generation> SolveService::current_generation()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

obs::Histogram& SolveService::latency_histogram(int n, int accuracy_index) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = latency_.find({n, accuracy_index});
    if (it != latency_.end()) return *it->second;
  }
  // Registry accessors hand out stable addresses, so resolving outside
  // mutex_ is safe even when two threads race on one (n, acc) pair.
  obs::Histogram& hist = metrics_.histogram(
      "pbmg_solve_latency_seconds{n=\"" + std::to_string(n) + "\",acc=\"" +
      std::to_string(accuracy_index) + "\"}");
  std::lock_guard<std::mutex> lock(mutex_);
  latency_.emplace(std::make_pair(n, accuracy_index), &hist);
  return hist;
}

void SolveService::charge_bytes(std::size_t bytes) {
  if (bytes == 0) return;
  session_bytes_gauge_.set(static_cast<double>(
      session_bytes_.fetch_add(bytes, std::memory_order_acq_rel) + bytes));
}

void SolveService::release_bytes(std::size_t bytes) {
  if (bytes == 0) return;
  session_bytes_gauge_.set(static_cast<double>(
      session_bytes_.fetch_sub(bytes, std::memory_order_acq_rel) - bytes));
}

SolveService::Pinned SolveService::find_locked(
    const std::shared_ptr<Generation>& gen, const SlotKey& key) {
  auto it = gen->slots.find(key);
  if (it == gen->slots.end()) return {};
  it->second.last_used = lru_tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  return {SessionRef(it->second.session, gen), it->second.route};
}

SolveService::Pinned SolveService::publish_locked(
    const std::shared_ptr<Generation>& gen, const SlotKey& key, Slot fresh) {
  auto [it, inserted] = gen->slots.emplace(key, Slot{});
  if (inserted) {
    it->second = std::move(fresh);
    gen->resident_bytes += it->second.bytes;
    charge_bytes(it->second.bytes);
  }
  it->second.last_used = lru_tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Pin before enforcing, so the slot we are about to hand out is never
  // its own eviction victim (use_count > 1 excludes it).
  Pinned pinned{SessionRef(it->second.session, gen), it->second.route};
  if (inserted) enforce_policy_locked(*gen);
  return pinned;
}

SessionRef SolveService::session_in(const std::shared_ptr<Generation>& gen,
                                    int n) {
  const SlotKey key{0, n, false};
  {
    std::lock_guard<std::mutex> lock(gen->mutex);
    if (Pinned hit = find_locked(gen, key); hit.session) return hit.session;
  }
  // Construct outside the lock: prewarming a large level hierarchy
  // allocates and zero-fills megabytes, and must not stall unrelated
  // in-flight solves of other sizes.  If two threads race to bind the
  // same size, emplace keeps the winner and the loser's session is
  // discarded (its prewarmed grids are already in the shared pool).
  // The operator comes from the config's own family, so a service over
  // non-Poisson tables solves the operator it was tuned for (the Poisson
  // family takes StencilOp's constant-coefficient fast path, bit-for-bit
  // the historical behaviour).
  const std::string& family = gen->config->op_family;
  Slot fresh;
  fresh.session = std::make_shared<SolveSession>(
      *gen->engine, make_operator(n, parse_operator_family(family)),
      std::vector<tune::FamilyConfig>{{family, gen->config}});
  fresh.bytes = fresh.session->footprint_bytes();
  std::lock_guard<std::mutex> lock(gen->mutex);
  return publish_locked(gen, key, std::move(fresh)).session;
}

void SolveService::enforce_policy_locked(Generation& gen) {
  const auto over = [&] {
    if (policy_.max_sessions > 0 && gen.slots.size() > policy_.max_sessions) {
      return true;
    }
    return policy_.max_session_bytes > 0 &&
           session_bytes_.load(std::memory_order_acquire) >
               policy_.max_session_bytes;
  };
  while (over()) {
    // LRU among this generation's UNPINNED slots (use_count 1: only the
    // cache itself holds the session — no SessionRef, no in-flight solve
    // or batch, routed or not).  Pinned sessions are untouchable no
    // matter how stale, so a workload that pins everything can exceed the
    // budget; it drains back under it as pins drop and later binds
    // re-enforce.
    auto victim = gen.slots.end();
    for (auto it = gen.slots.begin(); it != gen.slots.end(); ++it) {
      if (it->second.session.use_count() != 1) continue;
      if (victim == gen.slots.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == gen.slots.end()) return;  // everything pinned
    const std::size_t bytes = victim->second.bytes;
    gen.resident_bytes -= bytes;
    gen.slots.erase(victim);
    release_bytes(bytes);
    session_evictions_.add(1);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

SessionRef SolveService::session(int n) {
  return session_in(current_generation(), n);
}

void SolveService::validate_request(const Generation& gen,
                                    const SolveRequest& request) const {
  if (request.accuracy_index >= gen.config->accuracy_count()) {
    throw ConfigError(
        "SolveService: accuracy_index " +
        std::to_string(request.accuracy_index) +
        " is outside the tuned ladder [0, " +
        std::to_string(gen.config->accuracy_count()) + ")");
  }
  if (request.accuracy_index < 0 && request.target_accuracy <= 0.0) {
    throw ConfigError(
        "SolveService: request selects no accuracy — set accuracy_index to "
        "a tuned ladder index or target_accuracy to a positive accuracy "
        "level (the default-constructed request is deliberately invalid)");
  }
}

SolveStats SolveService::solve(Grid2D& x, const Grid2D& b,
                               const SolveRequest& request) {
  SolveStats stats;
  int index = -1;
  const std::shared_ptr<Generation> gen = current_generation();
  const double t0 = now_seconds();
  try {
    validate_request(*gen, request);
    const SessionRef bound = session_in(gen, x.n());
    index = request.accuracy_index >= 0
                ? request.accuracy_index
                : bound->accuracy_index(request.target_accuracy);
    stats = solve_on(*bound, x, b, index, request);
    stats.generation = gen->id;
  } catch (...) {
    failures_total_.add(1);
    requests_error_.add(1);
    // Failed solves cost wall-clock too; without this histogram a wave of
    // fast-failing requests would be invisible in latency telemetry.
    failure_seconds_.record(now_seconds() - t0);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.failures;
    throw;
  }
  // Healthy and unhealthy latency split: the per-(n, acc) histograms are
  // what the drift watcher (and any operator reading them) treats as
  // healthy serving latency, and observe_drift already refuses
  // unconverged samples — recording them here anyway would quietly skew
  // the very distribution the watcher compares against.  A solve that
  // failed its residual audit is accounted where thrown solves go.
  if (stats.converged) {
    latency_histogram(stats.n, index).record(stats.seconds);
    requests_ok_.add(1);
  } else {
    failure_seconds_.record(stats.seconds);
    requests_unconverged_.add(1);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.requests;
    stats_.busy_seconds += stats.seconds;
  }
  observe_drift(gen, stats, index, request.fmg);
  return stats;
}

std::vector<SolveStats> SolveService::solve_batch(std::span<Grid2D* const> xs,
                                                  const Grid2D& b_template,
                                                  const SolveRequest& request) {
  std::vector<SolveStats> all;
  if (xs.empty()) return all;
  const auto count = static_cast<std::int64_t>(xs.size());
  const std::shared_ptr<Generation> gen = current_generation();
  const double t0 = now_seconds();
  int index = -1;
  try {
    validate_request(*gen, request);
    const SessionRef bound = session_in(gen, b_template.n());
    index = request.accuracy_index >= 0
                ? request.accuracy_index
                : bound->accuracy_index(request.target_accuracy);
    batch_size_.record(static_cast<double>(xs.size()));
    // A malformed batch fails before any slot is touched, so a bad slot
    // k never leaves slots 0..k-1 solved behind a thrown error.
    for (const Grid2D* x : xs) {
      PBMG_CHECK(x != nullptr, "solve_batch: null iterate");
      PBMG_CHECK(x->n() == b_template.n(),
                 "solve_batch: iterate size " + std::to_string(x->n()) +
                     " does not match b_template's n=" +
                     std::to_string(b_template.n()));
    }
    // Each slot is a solo solve under the one pin and accuracy resolved
    // above, so every xs[k] is bitwise what solve(xs[k], ...) gives.
    all.reserve(xs.size());
    for (Grid2D* x : xs) {
      all.push_back(solve_on(*bound, *x, b_template, index, request));
      all.back().generation = gen->id;
    }
  } catch (...) {
    // A throw fails every request in the batch.
    failures_total_.add(count);
    requests_error_.add(count);
    failure_seconds_.record(now_seconds() - t0);
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.failures += count;
    throw;
  }
  // One latency sample per batch: its wall-clock covers every slot's
  // solve, so per-RHS samples would overcount the histogram K-fold.  The
  // sample is healthy only when EVERY RHS converged; outcome counters
  // still split per RHS.  Batched samples never feed the drift watcher —
  // batch wall-clock grows with K and is incomparable to the solo
  // per-solve baseline.
  std::int64_t converged = 0;
  for (const SolveStats& stats : all) {
    if (stats.converged) ++converged;
  }
  const double seconds = now_seconds() - t0;
  if (converged == count) {
    latency_histogram(b_template.n(), index).record(seconds);
  } else {
    failure_seconds_.record(seconds);
  }
  requests_ok_.add(converged);
  requests_unconverged_.add(count - converged);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.requests += count;
    stats_.busy_seconds += seconds;
  }
  return all;
}

void SolveService::observe_drift(const std::shared_ptr<Generation>& gen,
                                 const SolveStats& stats, int accuracy_index,
                                 bool fmg) {
  if (watcher_ == nullptr) return;
  // Stragglers that bound a generation which has since been swapped out
  // measured the *old* config; mixing them into the fresh baseline's
  // windows would read as instant drift of the new generation.
  if (gen->id != generation()) return;
  // A solve that failed its residual audit is not a healthy latency
  // sample — this is why the honest converged flag had to come first.
  if (!stats.converged) return;
  // V-cycle and FMG latencies live in separate baseline keys: FMG solves
  // are legitimately slower (the ramp), and mixing the two modes into
  // one window reads as drift whenever the workload mix shifts.
  const obs::DriftObservation verdict =
      watcher_->observe(stats.n, accuracy_index, stats.seconds, fmg);
  if (verdict.window_complete) {
    (verdict.drifted ? drift_windows_drifted_ : drift_windows_ok_).add(1);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.drift_windows;
    if (verdict.drifted) ++stats_.drifted_windows;
  }
  if (verdict.retune) start_retune();
}

void SolveService::start_retune() {
  if (!retune_fn_) return;
  bool expected = false;
  if (!retune_in_progress_.compare_exchange_strong(
          expected, true, std::memory_order_acq_rel)) {
    return;  // a retune is already running; the watcher will re-fire later
  }
  // The CAS read false, so any previous retune thread has published its
  // result and is exiting; join reclaims it before the handle is reused.
  if (retune_thread_.joinable()) retune_thread_.join();
  retunes_total_.add(1);
  retune_gauge_.set(1.0);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.retunes;
  }
  retune_thread_ = std::thread([this] {
    try {
      RetuneResult result = retune_fn_();
      install(std::move(result.config), std::move(result.baseline),
              std::move(result.engine));
    } catch (...) {
      // A failed retune keeps serving the current generation; the watcher
      // streak was reset when it fired, so it re-arms on continued drift.
      retune_failures_total_.add(1);
    }
    retune_gauge_.set(0.0);
    retune_in_progress_.store(false, std::memory_order_release);
  });
}

void SolveService::enable_operator_routing(RoutePolicy policy,
                                           FamilyRetuneFn retune) {
  route_policy_ = policy;
  family_retune_fn_ = std::move(retune);
}

obs::Counter& SolveService::route_counter(const std::string& family,
                                          const std::string& outcome) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = route_counters_.find({family, outcome});
    if (it != route_counters_.end()) return *it->second;
  }
  obs::Counter& counter = metrics_.counter("pbmg_route_total{family=\"" +
                                           family + "\",outcome=\"" +
                                           outcome + "\"}");
  std::lock_guard<std::mutex> lock(mutex_);
  route_counters_.emplace(std::make_pair(family, outcome), &counter);
  return counter;
}

void SolveService::install_family(tune::TunedConfig config) {
  const std::string name = config.op_family;
  auto fresh = std::make_shared<const tune::TunedConfig>(std::move(config));
  std::vector<Slot> dropped;
  {
    // mutex_ first (the documented order): an install() cannot retire the
    // generation between this extension and install's carry-over copy.
    std::lock_guard<std::mutex> outer(mutex_);
    Generation& gen = *current_;
    std::lock_guard<std::mutex> lock(gen.mutex);
    gen.family_configs[name] = std::move(fresh);
    // Drop the routed sessions this install supersedes: operators whose
    // nearest family is the one just trained but which were being served
    // by a stand-in.  Their next request re-routes onto the new tables;
    // every other slot — and every in-flight solve, which holds its own
    // pin — is untouched.
    auto it = gen.slots.begin();
    while (it != gen.slots.end()) {
      const Route* route = it->second.route.get();
      if (route != nullptr && to_string(route->nearest) == name &&
          route->served_family != name) {
        gen.resident_bytes -= it->second.bytes;
        release_bytes(it->second.bytes);
        dropped.push_back(std::move(it->second));
        it = gen.slots.erase(it);
      } else {
        ++it;
      }
    }
  }
  // `dropped` destructs here, outside the locks: each slot tears down a
  // session's coefficient hierarchies and executors.
}

SolveService::Pinned SolveService::route_for(
    const std::shared_ptr<Generation>& gen, const grid::StencilOp& op) {
  const SlotKey key{reinterpret_cast<std::uintptr_t>(op.identity()), op.n(),
                    true};
  for (;;) {
    std::map<std::string, std::shared_ptr<const tune::TunedConfig>> table;
    {
      std::lock_guard<std::mutex> lock(gen->mutex);
      if (Pinned hit = find_locked(gen, key); hit.session) return hit;
      table = gen->family_configs;
    }
    // Fingerprint + session construction run outside the generation lock:
    // the fingerprint sweep is O(n²) and the bind coarsens/prewarms a
    // full hierarchy, neither of which may stall in-flight requests.
    auto route = std::make_shared<Route>();
    const std::vector<grid::FamilyMatch> ranked =
        grid::rank_families(grid::fingerprint(op));
    route->nearest = ranked.front().family;
    // The construction config serves as the fallback tables for its own
    // family unless an install_family extension superseded it.
    table.emplace(gen->config->op_family, gen->config);
    // Escalation ladder: every family with tables deep enough for this
    // operator, nearest first.  The served family is the first rung.
    const int level = level_of_size(op.n());
    std::vector<tune::FamilyConfig> ladder;
    for (const grid::FamilyMatch& match : ranked) {
      const std::string name = to_string(match.family);
      auto it = table.find(name);
      if (it == table.end() || it->second->max_level() < level) continue;
      if (ladder.empty()) {
        route->served_family = name;
        route->served_distance = match.distance;
      }
      ladder.push_back({name, it->second});
    }
    if (ladder.empty()) {
      throw ConfigError(
          "SolveService: no tuned family covers level " +
          std::to_string(level) + " (n=" + std::to_string(op.n()) +
          ") — train deeper tables before routing this size");
    }
    route->matched = route->served_distance <= route_policy_.match_threshold;
    Slot fresh;
    fresh.session =
        std::make_shared<SolveSession>(*gen->engine, op, std::move(ladder));
    fresh.bytes = fresh.session->footprint_bytes();
    fresh.route = std::move(route);
    std::lock_guard<std::mutex> lock(gen->mutex);
    // install_family may have landed while this session was building; if
    // the freshly installed tables are exactly the ones this bind settled
    // for a stand-in over, rebuild against the new map rather than
    // caching a decision the install just invalidated.
    const std::string nearest = to_string(fresh.route->nearest);
    if (fresh.route->served_family != nearest &&
        gen->family_configs.count(nearest) != 0 &&
        table.count(nearest) == 0) {
      continue;
    }
    return publish_locked(gen, key, std::move(fresh));
  }
}

bool SolveService::start_family_retune(OperatorFamily family) {
  if (!family_retune_fn_) return false;
  const std::string name = to_string(family);
  {
    std::lock_guard<std::mutex> lock(route_mutex_);
    if (retuned_families_.count(name) != 0) return false;
  }
  bool expected = false;
  if (!retune_in_progress_.compare_exchange_strong(
          expected, true, std::memory_order_acq_rel)) {
    // A drift or family retune is mid-flight.  Deliberately do NOT mark
    // this family handled: a later request for the same fingerprint
    // retries once the thread frees up.
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(route_mutex_);
    if (!retuned_families_.insert(name).second) {
      // Lost a race with another thread that marked it first.
      retune_in_progress_.store(false, std::memory_order_release);
      return false;
    }
  }
  // The CAS read false, so any previous retune thread has published its
  // result and is exiting; join reclaims it before the handle is reused.
  if (retune_thread_.joinable()) retune_thread_.join();
  family_retunes_total_.add(1);
  retune_gauge_.set(1.0);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.family_retunes;
  }
  retune_thread_ = std::thread([this, family, name] {
    try {
      install_family(family_retune_fn_(family));
    } catch (...) {
      retune_failures_total_.add(1);
      // A failed training run keeps serving the stand-in family and
      // re-arms: the next request for this fingerprint retries.
      std::lock_guard<std::mutex> lock(route_mutex_);
      retuned_families_.erase(name);
    }
    retune_gauge_.set(0.0);
    retune_in_progress_.store(false, std::memory_order_release);
  });
  return true;
}

SolveStats SolveService::solve_op(const grid::StencilOp& op, Grid2D& x,
                                  const Grid2D& b,
                                  const SolveRequest& request,
                                  tune::DynamicResult* detail) {
  SolveStats stats;
  Pinned bound;
  tune::DynamicResult result;
  bool retune_fired = false;
  const std::shared_ptr<Generation> gen = current_generation();
  const double t0 = now_seconds();
  try {
    if (request.fmg) {
      throw ConfigError(
          "SolveService: solve_op drives tuned V variants; FMG requests "
          "must go through solve() on a trained family");
    }
    bound = route_for(gen, op);
    const Route& route = *bound.route;
    if (!route.matched) {
      // Outside every tuned family's threshold: serve from the nearest
      // stand-in, and train the real family in the background — once.
      // (When the nearest family already has tables, the slot is served
      // by them and there is nothing better to train.)
      if (route.served_family != to_string(route.nearest)) {
        retune_fired = start_family_retune(route.nearest);
      }
    }
    const tune::TunedConfig& served = bound.session->config();
    double target = request.target_accuracy;
    if (request.accuracy_index >= 0) {
      if (request.accuracy_index >= served.accuracy_count()) {
        throw ConfigError(
            "SolveService: accuracy_index " +
            std::to_string(request.accuracy_index) +
            " is outside family '" + route.served_family +
            "' tuned ladder [0, " + std::to_string(served.accuracy_count()) +
            ")");
      }
      target =
          served.accuracies()[static_cast<std::size_t>(request.accuracy_index)];
    } else if (request.target_accuracy <= 0.0) {
      throw ConfigError(
          "SolveService: request selects no accuracy — set accuracy_index "
          "to a tuned ladder index or target_accuracy to a positive "
          "accuracy level (the default-constructed request is deliberately "
          "invalid)");
    }
    result = bound.session->solve_adaptive(
        x, b, target, route_policy_.max_iterations, request.profile);
    stats.seconds = result.seconds;
    stats.n = bound.session->n();
    stats.level = bound.session->level();
    stats.accuracy_index = result.final_accuracy_index;
    stats.iterations = result.iterations;
    stats.converged = result.converged;
    stats.initial_residual = result.initial_residual;
    stats.final_residual = result.final_residual;
    stats.residual_checked = true;
    stats.generation = gen->id;
    stats.phases = request.profile;
  } catch (...) {
    failures_total_.add(1);
    requests_error_.add(1);
    failure_seconds_.record(now_seconds() - t0);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.failures;
    throw;
  }
  // Routing telemetry.  Outcome precedence: a request that fired a
  // family retune is the interesting event even if it also escalated;
  // an escalated request (cross-family switch mid-solve, or served
  // outside the threshold) beats a plain match.
  const Route& route = *bound.route;
  const char* outcome = retune_fired ? "retune"
                        : (result.family_switches > 0 || !route.matched)
                            ? "escalated"
                            : "matched";
  route_counter(route.served_family, outcome).add(1);
  route_distance_.record(route.served_distance);
  if (result.escalations > 0) route_escalations_.add(result.escalations);
  if (result.family_switches > 0) {
    route_switches_.add(result.family_switches);
  }
  // Routed solves do not land in the per-(n, acc) latency histograms or
  // the drift watcher: their adaptive invocation count makes the latency
  // incomparable to the fixed-shape baseline distribution.
  if (stats.converged) {
    requests_ok_.add(1);
  } else {
    failure_seconds_.record(stats.seconds);
    requests_unconverged_.add(1);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.requests;
    ++stats_.routed_requests;
    stats_.busy_seconds += stats.seconds;
  }
  if (detail != nullptr) *detail = std::move(result);
  return stats;
}

ServiceStats SolveService::stats() const {
  ServiceStats out;
  std::shared_ptr<Generation> gen;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = stats_;
    out.retired_generations = retired_.size();
    gen = current_;
  }
  {
    std::lock_guard<std::mutex> lock(gen->mutex);
    out.sessions = gen->slots.size();
  }
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.session_bytes = session_bytes_.load(std::memory_order_acquire);
  out.scratch_hit_rate = gen->engine->scratch().stats().hit_rate();
  out.scheduler_steals = gen->engine->scheduler().steal_count();
  return out;
}

std::size_t SolveService::trim() {
  // Trim EVERY retained generation's engine, deduplicated by identity —
  // after an install the retired generation's engine still holds its
  // prewarmed pool, and trimming only the live engine (the old bug) left
  // those bytes resident until process exit.  Generations that share an
  // engine (config-only installs) are trimmed once.
  std::vector<std::shared_ptr<Generation>> gens;
  std::vector<std::shared_ptr<Generation>> reclaimed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Reclaim first: an unpinned retired generation's pool bytes are
    // better returned by destruction than kept hot by a trim.
    reclaim_retired_locked(reclaimed);
    gens.reserve(retired_.size() + 1);
    for (const auto& gen : retired_) gens.push_back(gen);
    gens.push_back(current_);
  }
  reclaimed.clear();  // destruct retired sessions/engines outside mutex_
  std::size_t freed = 0;
  std::vector<Engine*> seen;
  for (const auto& gen : gens) {
    if (std::find(seen.begin(), seen.end(), gen->engine) != seen.end()) {
      continue;
    }
    seen.push_back(gen->engine);
    freed += gen->engine->scratch().trim();
  }
  trims_total_.add(1);
  trim_bytes_total_.add(static_cast<std::int64_t>(freed));
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.trims;
  stats_.trim_bytes += static_cast<std::int64_t>(freed);
  return freed;
}

Engine& SolveService::engine() const { return *current_generation()->engine; }

const tune::TunedConfig& SolveService::config() const {
  // The referent lives as long as the generation (and every session bound
  // to it): valid until an install() retires that generation and its last
  // pin drops, after which trim() or a later install may reclaim it.
  return *current_generation()->config;
}

obs::RegistrySnapshot SolveService::metrics_snapshot() {
  const std::shared_ptr<Generation> gen = current_generation();
  gen->engine->publish_metrics(metrics_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    metrics_.gauge("pbmg_service_busy_seconds").set(stats_.busy_seconds);
  }
  {
    std::lock_guard<std::mutex> lock(gen->mutex);
    metrics_.gauge("pbmg_service_sessions")
        .set(static_cast<double>(gen->slots.size()));
  }
  return metrics_.snapshot();
}

}  // namespace pbmg
