// Unit tests of the benchmark's own helpers: the percentile rule, metric
// names and units, the computed-bytes model, the result schema, and the
// agreement between the metric catalogue and BENCHMARK.json.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bytes_model.h"
#include "grid/problem.h"
#include "report.h"
#include "tables.h"

namespace {

using namespace perfbench;
using pbmg::Json;
using pbmg::solvers::RelaxKind;

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile(one_to(100), 0.9), 90.0);
  EXPECT_EQ(percentile(one_to(100), 0.5), 50.0);
  EXPECT_EQ(percentile(one_to(10), 0.9), 9.0);
  EXPECT_EQ(percentile(one_to(1), 0.9), 1.0);
  EXPECT_EQ(percentile(one_to(7), 1.0), 7.0);
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(percentile(one_to(3), 0.0), std::invalid_argument);
}

TEST(Percentile, TenSamplesBeyondRule) {
  EXPECT_EQ(samples_beyond(100, 0.9), 10);
  EXPECT_TRUE(percentile_reportable(100, 0.9));
  EXPECT_EQ(samples_beyond(99, 0.9), 9);
  EXPECT_FALSE(percentile_reportable(99, 0.9));
  EXPECT_TRUE(percentile_reportable(1000, 0.99));
  EXPECT_FALSE(percentile_reportable(999, 0.99));
  EXPECT_TRUE(percentile_reportable(20, 0.5));
  EXPECT_EQ(samples_beyond(0, 0.9), 0);
}

TEST(Percentile, Median) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Names, MetricNameCharset) {
  for (const char* ok : {"setup_s", "runtime.fork_join_us", "1x", "a-b.c_d",
                         "grid.residual_gbs"}) {
    EXPECT_TRUE(valid_metric_name(ok)) << ok;
  }
  for (const char* bad : {"", "_lead", ".lead", "-lead", "has space",
                          "slash/no", "brace{x}", "tab\tx"}) {
    EXPECT_FALSE(valid_metric_name(bad)) << bad;
  }
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(Names, UnitCharset) {
  for (const char* ok : {"ms", "s", "1/s", "count", "GB/s", "%", "MiB"}) {
    EXPECT_TRUE(valid_unit(ok)) << ok;
  }
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("m s"));
  EXPECT_FALSE(valid_unit(std::string(17, 'x')));
}

TEST(Names, CatalogueIsValidAndUnique) {
  std::set<std::string> seen;
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& def : *defs) {
      EXPECT_TRUE(valid_metric_name(def.name)) << def.name;
      EXPECT_TRUE(valid_unit(def.unit)) << def.unit;
      EXPECT_TRUE(seen.insert(def.name).second) << def.name;
    }
  }
}

// Computed bytes at n = 5: (n−2)² = 9 interior points, 8 bytes per word.
TEST(BytesModel, ResidualAndSor) {
  const StencilShape poisson{true, false, false};
  const StencilShape five{false, false, false};
  const StencilShape nine{false, true, false};
  const StencilShape five_packed{false, false, true};
  const StencilShape nine_packed{false, true, true};
  for (Sweep sweep : {Sweep::kResidual, Sweep::kSor}) {
    EXPECT_EQ(computed_bytes(sweep, poisson, 5), 9 * 3 * 8);
    EXPECT_EQ(computed_bytes(sweep, five, 5), 9 * (3 + 2) * 8);
    EXPECT_EQ(computed_bytes(sweep, nine, 5), 9 * (3 + 5) * 8);
    EXPECT_EQ(computed_bytes(sweep, five_packed, 5), 9 * (3 + 5) * 8);
    EXPECT_EQ(computed_bytes(sweep, nine_packed, 5), 9 * (3 + 9) * 8);
  }
  EXPECT_EQ(computed_bytes(Sweep::kResidual, five, 9), 49 * 5 * 8);
}

TEST(BytesModel, LineSweeps) {
  const StencilShape five{false, false, false};
  const StencilShape nine{false, true, false};
  EXPECT_EQ(computed_bytes(Sweep::kLine, five, 5, RelaxKind::kLineX),
            9 * (5 + 2) * 8);
  EXPECT_EQ(computed_bytes(Sweep::kLine, five, 5, RelaxKind::kLineY),
            9 * (5 + 2) * 8);
  EXPECT_EQ(computed_bytes(Sweep::kLine, nine, 5, RelaxKind::kLineX),
            9 * (5 + 5) * 8);
  EXPECT_EQ(computed_bytes(Sweep::kLine, nine, 5, RelaxKind::kLineZebraAlt),
            2 * 9 * (5 + 5) * 8);
}

TEST(BytesModel, ShapeOfRealOperators) {
  using pbmg::OperatorFamily;
  using pbmg::grid::StencilLayout;
  const StencilShape p =
      shape_of(pbmg::grid::StencilOp::poisson(9), StencilLayout::kLegacy);
  EXPECT_TRUE(p.poisson);
  EXPECT_EQ(coefficient_streams(p), 0);
  const StencilShape jump = shape_of(
      pbmg::make_operator(9, OperatorFamily::kJumpCoefficient),
      StencilLayout::kLegacy);
  EXPECT_FALSE(jump.poisson);
  EXPECT_FALSE(jump.nine_point);
  EXPECT_EQ(coefficient_streams(jump), 2);
  const StencilShape t30 =
      shape_of(pbmg::make_operator(9, OperatorFamily::kAnisoTheta30),
               StencilLayout::kPacked);
  EXPECT_TRUE(t30.nine_point);
  EXPECT_TRUE(t30.packed);
  EXPECT_EQ(coefficient_streams(t30), 9);
}

TEST(Schema, ResultJsonShape) {
  const Json doc = result_json(
      true, 120, 0, {{"solve_p50_ms", "ms", 1.25}, {"setup_s", "s", 0.5}});
  EXPECT_TRUE(valid_result_json(doc));
  const Json round = Json::parse(doc.dump());
  EXPECT_TRUE(valid_result_json(round));
  EXPECT_EQ(round.at("attempted").as_int(), 120);
  EXPECT_EQ(round.at("metrics").at("solve_p50_ms").at("value").as_double(),
            1.25);
  EXPECT_EQ(round.at("metrics").at("setup_s").at("unit").as_string(), "s");
}

TEST(Schema, RejectsBadResults) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(result_json(true, 0, 0, {}), std::invalid_argument);
  EXPECT_THROW(result_json(true, 5, 6, {}), std::invalid_argument);
  EXPECT_THROW(result_json(true, 5, 0, {{"a", "s", 1}, {"a", "s", 2}}),
               std::invalid_argument);
  EXPECT_THROW(result_json(true, 5, 0, {{"_a", "s", 1}}),
               std::invalid_argument);
  EXPECT_THROW(result_json(true, 5, 0, {{"a", "s", nan}}),
               std::invalid_argument);
  Json extra = result_json(true, 1, 0, {});
  extra.set("extra", 1);
  EXPECT_FALSE(valid_result_json(extra));
  Json bad_metric = result_json(true, 1, 0, {{"a", "s", 1}});
  Json metrics = Json::object();
  metrics.set("a", 1.0);  // not {value, unit}
  bad_metric.set("metrics", metrics);
  EXPECT_FALSE(valid_result_json(bad_metric));
}

TEST(Schema, CatalogueRequiresEveryMetric) {
  const std::vector<MetricDef> defs = {{"a", "s"}, {"b", "ms"}};
  const auto metrics = catalogue_metrics(defs, {{"b", 2.0}, {"a", 1.0}});
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics[0].name, "a");
  EXPECT_EQ(metrics[1].unit, "ms");
  EXPECT_THROW(catalogue_metrics(defs, {{"a", 1.0}}), std::invalid_argument);
  EXPECT_THROW(catalogue_metrics(defs, {{"a", 1.0}, {"c", 1.0}}),
               std::invalid_argument);
}

Json read_json(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return Json::parse(text.str());
}

// BENCHMARK.json must list exactly the metrics the benchmark emits.
TEST(Schema, BenchmarkJsonMatchesCatalogue) {
  const Json spec = read_json(PERFBENCH_ROOT "/../BENCHMARK.json");
  const auto check = [](const Json& listed,
                        const std::vector<MetricDef>& defs) {
    ASSERT_EQ(listed.as_array().size(), defs.size());
    for (std::size_t i = 0; i < defs.size(); ++i) {
      EXPECT_EQ(listed.as_array()[i].at("name").as_string(), defs[i].name);
      EXPECT_EQ(listed.as_array()[i].at("unit").as_string(), defs[i].unit);
    }
  };
  check(spec.at("end_to_end"), end_to_end_metrics());
  check(spec.at("per_layer"), per_layer_metrics());
  for (const Json& m : spec.at("end_to_end").as_array()) {
    EXPECT_GT(m.at("bound").as_double(), 0.0);
    EXPECT_LE(m.at("bound").as_double(), 0.25);
  }
}

TEST(Tables, PinnedTablesLoad) {
  const std::string dir = PERFBENCH_ROOT "/tables";
  const PinnedTable poisson = load_pinned_table(dir, "poisson", 10);
  EXPECT_EQ(poisson.config.op_family, "poisson");
  EXPECT_GE(poisson.config.max_level(), 10);
  EXPECT_TRUE(poisson.provenance.contains("commit"));
  EXPECT_TRUE(poisson.provenance.contains("training_seed"));
  EXPECT_TRUE(poisson.provenance.contains("host"));
  EXPECT_NO_THROW(load_pinned_table(dir, "aniso-t30", 8));
  EXPECT_NO_THROW(load_pinned_table(dir, "jump", 8));
  EXPECT_THROW(load_pinned_table(dir, "jump", 10), std::exception);
  EXPECT_THROW(load_pinned_table(dir, "smooth", 8), std::exception);
}

}  // namespace
