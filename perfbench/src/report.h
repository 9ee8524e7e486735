#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/json.h"

/// \file report.h
/// Sample statistics and the result line the benchmark prints last.

namespace perfbench {

/// Nearest-rank percentile (q in (0, 1]): the ceil(q·n)-th smallest
/// sample.  Requires a non-empty sample.
double percentile(std::vector<double> samples, double q);

/// Samples strictly above the nearest-rank q-percentile's rank.
std::int64_t samples_beyond(std::int64_t count, double q);

/// Reporting rule: a percentile is reported only when at least ten
/// samples lie beyond it (p90 therefore needs 100 samples).
bool percentile_reportable(std::int64_t count, double q);

/// Median (the nearest-rank 0.5 percentile's midpoint variant: the mean
/// of the two middle samples for even counts).  Requires non-empty.
double median(std::vector<double> samples);

/// Metric names: a letter or digit, then letters, digits, '_', '.', '-';
/// at most 64 characters.
bool valid_metric_name(const std::string& name);

/// Units: 1..16 of letters, digits, '_', '/', '%', '.', '-'.
bool valid_unit(const std::string& unit);

/// One reported number.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// A metric the benchmark defines (BENCHMARK.json lists the same ones).
struct MetricDef {
  std::string name;
  std::string unit;
};

/// Metrics of a run with tracing off, and with tracing on.
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// `values` in the order of `defs`, with their units.  Throws
/// std::invalid_argument when a defined metric is missing or an undefined
/// one is present.
std::vector<Metric> catalogue_metrics(
    const std::vector<MetricDef>& defs,
    const std::map<std::string, double>& values);

/// The result object:
///   {"correct": b, "attempted": n, "failed": n,
///    "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
/// Throws std::invalid_argument for a bad or repeated name, a bad unit, a
/// non-finite value, attempted < 1, or failed outside [0, attempted].
pbmg::Json result_json(bool correct, std::int64_t attempted,
                       std::int64_t failed, const std::vector<Metric>& metrics);

/// True when `doc` has exactly the result object's shape.
bool valid_result_json(const pbmg::Json& doc);

}  // namespace perfbench
