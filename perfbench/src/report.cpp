#include "report.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <set>
#include <stdexcept>

namespace perfbench {

namespace {

std::int64_t nearest_rank(std::int64_t count, double q) {
  // The small epsilon keeps q·n = 90.000000001 from rounding up a rank.
  const auto rank = static_cast<std::int64_t>(
      std::ceil(q * static_cast<double>(count) - 1e-9));
  return std::clamp<std::int64_t>(rank, 1, count);
}

bool name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '.' || c == '-';
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty() || !(q > 0.0 && q <= 1.0)) {
    throw std::invalid_argument("percentile: empty sample or q outside (0,1]");
  }
  std::sort(samples.begin(), samples.end());
  const auto count = static_cast<std::int64_t>(samples.size());
  return samples[static_cast<std::size_t>(nearest_rank(count, q) - 1)];
}

std::int64_t samples_beyond(std::int64_t count, double q) {
  return count < 1 ? 0 : count - nearest_rank(count, q);
}

bool percentile_reportable(std::int64_t count, double q) {
  return samples_beyond(count, q) >= 10;
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median: empty sample");
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '/' || c == '%' || c == '.' || c == '-';
  });
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"solve_p50_ms", "ms"},
      {"solve_p90_ms", "ms"},
      {"throughput_solves_s", "1/s"},
      {"ok_ratio", "ratio"},
      {"peak_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"runtime.fork_join_us", "us"},
      {"runtime.steals_per_solve", "count"},
      {"runtime.parallel_speedup", "ratio"},
      {"solvers.coarse_share", "ratio"},
      {"solvers.relax_ms", "ms"},
      {"solvers.line_solve_ms", "ms"},
      {"solvers.restrict_ms", "ms"},
      {"solvers.interpolate_ms", "ms"},
      {"solvers.direct_ms", "ms"},
      {"solvers.rap_setup_ms", "ms"},
      {"tune.iterations_per_solve", "count"},
      {"grid.residual_gbs", "GB/s"},
      {"grid.sor_gbs", "GB/s"},
      {"grid.line_gbs", "GB/s"},
      {"grid.residual_roof", "ratio"},
      {"grid.sor_roof", "ratio"},
      {"grid.line_roof", "ratio"},
      {"host.stream_triad_gbs", "GB/s"},
      {"engine.bind_ms", "ms"},
      {"grid.scratch_hit_rate", "ratio"},
      {"engine.self_ms", "ms"},
      {"grid.fingerprint_us", "us"},
      {"engine.route_matched_ratio", "ratio"},
      {"engine.resident_mb", "MiB"},
      {"engine.evictions", "count"},
      {"engine.hard_op_miss_ratio", "ratio"},
      {"obs.trace_overhead_ratio", "ratio"},
  };
  return defs;
}

std::vector<Metric> catalogue_metrics(
    const std::vector<MetricDef>& defs,
    const std::map<std::string, double>& values) {
  if (values.size() != defs.size()) {
    throw std::invalid_argument("catalogue_metrics: " +
                                std::to_string(values.size()) +
                                " values for " + std::to_string(defs.size()) +
                                " metrics");
  }
  std::vector<Metric> out;
  for (const MetricDef& def : defs) {
    const auto it = values.find(def.name);
    if (it == values.end()) {
      throw std::invalid_argument("catalogue_metrics: missing " + def.name);
    }
    out.push_back(Metric{def.name, def.unit, it->second});
  }
  return out;
}

pbmg::Json result_json(bool correct, std::int64_t attempted,
                       std::int64_t failed,
                       const std::vector<Metric>& metrics) {
  if (attempted < 1 || failed < 0 || failed > attempted) {
    throw std::invalid_argument("result_json: bad attempted/failed counts");
  }
  pbmg::Json table = pbmg::Json::object();
  std::set<std::string> seen;
  for (const Metric& m : metrics) {
    if (!valid_metric_name(m.name) || !seen.insert(m.name).second) {
      throw std::invalid_argument("result_json: bad or repeated metric name '" +
                                  m.name + "'");
    }
    if (!valid_unit(m.unit)) {
      throw std::invalid_argument("result_json: bad unit for " + m.name);
    }
    if (!std::isfinite(m.value)) {
      throw std::invalid_argument("result_json: non-finite value for " +
                                  m.name);
    }
    pbmg::Json entry = pbmg::Json::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    table.set(m.name, std::move(entry));
  }
  pbmg::Json doc = pbmg::Json::object();
  doc.set("correct", correct);
  doc.set("attempted", attempted);
  doc.set("failed", failed);
  doc.set("metrics", std::move(table));
  return doc;
}

bool valid_result_json(const pbmg::Json& doc) {
  if (!doc.is_object() || doc.as_object().size() != 4) return false;
  for (const char* key : {"correct", "attempted", "failed", "metrics"}) {
    if (!doc.contains(key)) return false;
  }
  const pbmg::Json& attempted = doc.at("attempted");
  const pbmg::Json& failed = doc.at("failed");
  if (!doc.at("correct").is_bool() || !attempted.is_number() ||
      !failed.is_number() || !doc.at("metrics").is_object()) {
    return false;
  }
  if (attempted.as_int() < 1 || failed.as_int() < 0) return false;
  for (const auto& [name, entry] : doc.at("metrics").as_object()) {
    if (!valid_metric_name(name) || !entry.is_object() ||
        entry.as_object().size() != 2 || !entry.contains("value") ||
        !entry.contains("unit") || !entry.at("value").is_number() ||
        !entry.at("unit").is_string() ||
        !valid_unit(entry.at("unit").as_string())) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
