// Features, dataset generation, regression trees, GBT ensemble and the
// deployed hardware predictor.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <utility>

#include "nn/models.h"
#include "perf/latency_model.h"
#include "soc/platform.h"
#include "surrogate/dataset.h"
#include "surrogate/decision_tree.h"
#include "surrogate/features.h"
#include "surrogate/gbt.h"
#include "surrogate/predictor.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace mapcq;
using namespace mapcq::surrogate;

TEST(features, layout_and_names) {
  EXPECT_EQ(feature_names().size(), feature_count);
  const auto plat = soc::agx_xavier();
  perf::sublayer_cost c;
  c.kind = nn::layer_kind::attention;
  c.flops = 1e6;
  c.width_frac = 0.5;
  const auto f = featurize(c, plat.unit(0), 0, 2);
  EXPECT_NEAR(f[0], std::log1p(1e6), 1e-12);
  EXPECT_DOUBLE_EQ(f[4], 0.5);
  EXPECT_DOUBLE_EQ(f[6], 1.0);  // matmul class
  EXPECT_DOUBLE_EQ(f[7], 1.0);  // gpu one-hot
  EXPECT_DOUBLE_EQ(f[8], 0.0);
  EXPECT_DOUBLE_EQ(f[15], 2.0);  // concurrency
}

TEST(dataset, generation_is_deterministic) {
  const auto vis = nn::build_visformer();
  const auto plat = soc::agx_xavier();
  benchmark_options opt;
  opt.samples = 200;
  const auto a = generate_benchmark({&vis}, plat, opt);
  const auto b = generate_benchmark({&vis}, plat, opt);
  ASSERT_EQ(a.size(), 200u);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.latency_ms, b.latency_ms);
}

TEST(dataset, different_seed_differs) {
  const auto vis = nn::build_visformer();
  const auto plat = soc::agx_xavier();
  benchmark_options opt;
  opt.samples = 100;
  const auto a = generate_benchmark({&vis}, plat, opt);
  opt.seed = 999;
  const auto b = generate_benchmark({&vis}, plat, opt);
  EXPECT_NE(a.latency_ms, b.latency_ms);
}

TEST(dataset, labels_positive) {
  const auto vgg = nn::build_vgg19();
  const auto plat = soc::agx_xavier();
  benchmark_options opt;
  opt.samples = 500;
  const auto ds = generate_benchmark({&vgg}, plat, opt);
  for (const double v : ds.latency_ms) EXPECT_GT(v, 0.0);
  for (const double v : ds.energy_mj) EXPECT_GT(v, 0.0);
}

TEST(dataset, split_is_disjoint_and_proportional) {
  const auto vis = nn::build_visformer();
  const auto plat = soc::agx_xavier();
  benchmark_options opt;
  opt.samples = 1000;
  const auto ds = generate_benchmark({&vis}, plat, opt);
  const auto parts = split(ds, 0.8, 1);
  EXPECT_EQ(parts.train.size() + parts.test.size(), 1000u);
  EXPECT_NEAR(static_cast<double>(parts.train.size()), 800.0, 1.0);
  EXPECT_THROW((void)split(ds, 0.0, 1), std::invalid_argument);
  EXPECT_THROW((void)split(ds, 1.0, 1), std::invalid_argument);
}

TEST(dataset, rejects_empty_networks) {
  const auto plat = soc::agx_xavier();
  EXPECT_THROW((void)generate_benchmark({}, plat), std::invalid_argument);
  EXPECT_THROW((void)generate_benchmark({nullptr}, plat), std::invalid_argument);
}

std::vector<std::vector<double>> grid_rows(std::size_t n, util::rng& gen) {
  std::vector<std::vector<double>> x(n);
  for (auto& r : x) r = {gen.uniform(0, 10), gen.uniform(0, 10)};
  return x;
}

TEST(decision_tree, fits_a_step_function) {
  util::rng gen{5};
  const auto x = grid_rows(500, gen);
  std::vector<double> y(500);
  for (std::size_t i = 0; i < 500; ++i) y[i] = x[i][0] > 5.0 ? 10.0 : -10.0;
  std::vector<std::size_t> rows(500);
  for (std::size_t i = 0; i < 500; ++i) rows[i] = i;
  const regression_tree t{x, y, rows, tree_params{}};
  EXPECT_NEAR(t.predict(std::vector<double>{7.0, 3.0}), 10.0, 0.5);
  EXPECT_NEAR(t.predict(std::vector<double>{2.0, 3.0}), -10.0, 0.5);
}

TEST(decision_tree, respects_depth_limit) {
  util::rng gen{6};
  const auto x = grid_rows(400, gen);
  std::vector<double> y(400);
  for (std::size_t i = 0; i < 400; ++i) y[i] = x[i][0] * x[i][1];
  std::vector<std::size_t> rows(400);
  for (std::size_t i = 0; i < 400; ++i) rows[i] = i;
  tree_params p;
  p.max_depth = 2;
  const regression_tree t{x, y, rows, p};
  EXPECT_LE(t.depth(), 2);
  EXPECT_LE(t.node_count(), 7u);
}

TEST(decision_tree, constant_target_single_leaf) {
  util::rng gen{7};
  const auto x = grid_rows(100, gen);
  const std::vector<double> y(100, 3.0);
  std::vector<std::size_t> rows(100);
  for (std::size_t i = 0; i < 100; ++i) rows[i] = i;
  const regression_tree t{x, y, rows, tree_params{}};
  EXPECT_EQ(t.node_count(), 1u);
}

TEST(decision_tree, feature_gain_identifies_informative_feature) {
  util::rng gen{8};
  const auto x = grid_rows(600, gen);
  std::vector<double> y(600);
  for (std::size_t i = 0; i < 600; ++i) y[i] = 5.0 * x[i][1];  // only feature 1 matters
  std::vector<std::size_t> rows(600);
  for (std::size_t i = 0; i < 600; ++i) rows[i] = i;
  const regression_tree t{x, y, rows, tree_params{}};
  std::vector<double> gain(2, 0.0);
  t.add_feature_gain(gain);
  EXPECT_GT(gain[1], 10.0 * gain[0]);
}

TEST(decision_tree, rejects_bad_input) {
  const std::vector<std::vector<double>> x = {{1.0}};
  const std::vector<double> y = {1.0, 2.0};
  const std::vector<std::size_t> rows = {0};
  EXPECT_THROW((regression_tree{x, y, rows, tree_params{}}), std::invalid_argument);
}

TEST(decision_tree, rejects_row_index_outside_the_data) {
  const std::vector<std::vector<double>> x = {{1.0}, {2.0}, {3.0}};
  const std::vector<double> y = {1.0, 2.0, 3.0};
  const std::vector<std::size_t> rows = {0, 1, 3};
  EXPECT_THROW((regression_tree{x, y, rows, tree_params{}}), std::invalid_argument);
}

TEST(decision_tree, duplicate_rows_count_once_per_occurrence) {
  const std::vector<std::vector<double>> x = {{1.0}, {2.0}};
  const std::vector<double> y = {1.0, 2.0};
  const std::vector<std::size_t> rows = {0, 0, 1};
  tree_params p;
  p.max_depth = 0;
  const regression_tree t{x, y, rows, p};
  ASSERT_EQ(t.node_count(), 1u);
  EXPECT_EQ(t.predict(std::vector<double>{1.0}), (1.0 + 1.0 + 2.0) / (3.0 + p.lambda));
}

// The per-node-sort exact greedy grower that the presorted layout
// replaced, kept as the reference: every node sorts its rows per feature
// by the canonical (value, row) order and scans. Same gain formula, sums
// in the same order, same preorder node numbering.
struct reference_grower {
  std::span<const std::vector<double>> x;
  std::span<const double> y;
  tree_params p;
  std::vector<regression_tree::node> nodes;
  int depth = 0;

  std::size_t grow(const std::vector<std::size_t>& rows, int d) {
    depth = std::max(depth, d);
    double sum = 0.0;
    for (const std::size_t r : rows) sum += y[r];
    const double n = static_cast<double>(rows.size());
    const std::size_t me = nodes.size();
    nodes.push_back({});
    nodes[me].value = sum / (n + p.lambda);
    if (d >= p.max_depth || rows.size() < 2 * p.min_samples_leaf) return me;
    const double parent = sum * sum / (n + p.lambda);
    regression_tree::node best;
    for (std::size_t f = 0; f < x.front().size(); ++f) {
      std::vector<std::size_t> s = rows;
      std::sort(s.begin(), s.end(), [&](std::size_t a, std::size_t b) {
        return x[a][f] < x[b][f] || (x[a][f] == x[b][f] && a < b);
      });
      double left = 0.0;
      for (std::size_t i = 0; i + 1 < s.size(); ++i) {
        left += y[s[i]];
        if (x[s[i]][f] == x[s[i + 1]][f]) continue;
        const std::size_t nl = i + 1;
        const std::size_t nr = s.size() - nl;
        if (nl < p.min_samples_leaf || nr < p.min_samples_leaf) continue;
        const double right = sum - left;
        const double gain = left * left / (static_cast<double>(nl) + p.lambda) +
                            right * right / (static_cast<double>(nr) + p.lambda) - parent;
        if (gain > best.gain) {
          best.gain = gain;
          best.feature = f;
          best.threshold = 0.5 * (x[s[i]][f] + x[s[i + 1]][f]);
        }
      }
    }
    if (best.gain <= p.min_gain) return me;
    std::vector<std::size_t> l;
    std::vector<std::size_t> r;
    for (const std::size_t row : rows)
      (x[row][best.feature] <= best.threshold ? l : r).push_back(row);
    if (l.empty() || r.empty()) return me;
    best.leaf = false;
    best.value = nodes[me].value;
    nodes[me] = best;
    const std::size_t li = grow(l, d + 1);
    nodes[me].left = li;
    const std::size_t ri = grow(r, d + 1);
    nodes[me].right = ri;
    return me;
  }
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(decision_tree, presorted_grower_matches_per_node_sort_reference) {
  // Surrogate-like rows with heavy ties: a one-hot CU block, features
  // constant per CU, a 4-level discrete feature, a constant column and
  // one continuous column. Targets are continuous, so any deviation from
  // the (value, row) summation order shows up in the gains' bits.
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    util::rng gen{seed};
    const std::size_t n = 300;
    std::vector<std::vector<double>> x(n);
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto cu = static_cast<std::size_t>(gen.uniform_int(0, 2));
      const double level = static_cast<double>(gen.uniform_int(0, 3));
      x[i] = {cu == 0 ? 1.0 : 0.0, cu == 1 ? 1.0 : 0.0, cu == 2 ? 1.0 : 0.0,
              0.25 * static_cast<double>(cu), level, 7.0, gen.uniform(0, 1)};
      y[i] = gen.uniform(-1, 1) + 0.5 * level - static_cast<double>(cu);
    }
    // Shuffled subsample with duplicated rows.
    std::vector<std::size_t> rows;
    for (std::size_t i = 0; i < n; ++i) {
      const auto k = gen.uniform_int(0, 2);
      for (std::int64_t c = 0; c < k; ++c) rows.push_back(i);
    }
    gen.shuffle(rows);

    const presorted_columns cols{x};  // shared across fits, as in gbt_trainer
    for (const auto& [max_depth, min_leaf] : {std::pair{3, 1}, std::pair{6, 4}, std::pair{10, 2}}) {
      tree_params p;
      p.max_depth = max_depth;
      p.min_samples_leaf = static_cast<std::size_t>(min_leaf);
      reference_grower ref{x, y, p, {}, 0};
      ref.grow(rows, 0);
      const regression_tree t{cols, y, rows, p};
      ASSERT_EQ(t.nodes().size(), ref.nodes.size()) << "seed " << seed;
      EXPECT_EQ(t.depth(), ref.depth);
      for (std::size_t k = 0; k < ref.nodes.size(); ++k) {
        const auto& a = t.nodes()[k];
        const auto& b = ref.nodes[k];
        EXPECT_EQ(a.leaf, b.leaf) << "node " << k;
        EXPECT_EQ(a.feature, b.feature) << "node " << k;
        EXPECT_EQ(bits(a.threshold), bits(b.threshold)) << "node " << k;
        EXPECT_EQ(bits(a.value), bits(b.value)) << "node " << k;
        EXPECT_EQ(bits(a.gain), bits(b.gain)) << "node " << k;
        EXPECT_EQ(a.left, b.left) << "node " << k;
        EXPECT_EQ(a.right, b.right) << "node " << k;
      }
    }
  }
}

TEST(gbt, fits_smooth_function_well) {
  util::rng gen{9};
  const auto x = grid_rows(1500, gen);
  std::vector<double> y(1500);
  for (std::size_t i = 0; i < 1500; ++i)
    y[i] = 2.0 + x[i][0] * 1.5 + std::sin(x[i][1]) * 3.0 + 20.0;
  gbt_params p;
  p.log_target = false;
  const gbt_regressor model{x, y, p};
  std::vector<double> pred(1500);
  for (std::size_t i = 0; i < 1500; ++i) pred[i] = model.predict(x[i]);
  EXPECT_GT(util::r_squared(pred, y), 0.97);
}

TEST(gbt, log_target_keeps_predictions_positive) {
  util::rng gen{10};
  const auto x = grid_rows(500, gen);
  std::vector<double> y(500);
  for (std::size_t i = 0; i < 500; ++i) y[i] = 1e-3 + x[i][0] * x[i][0];
  const gbt_regressor model{x, y, gbt_params{}};
  for (int i = 0; i < 50; ++i) {
    const double v = model.predict(std::vector<double>{gen.uniform(0, 10), gen.uniform(0, 10)});
    EXPECT_GT(v, 0.0);
  }
}

TEST(gbt, deterministic) {
  util::rng gen{11};
  const auto x = grid_rows(300, gen);
  std::vector<double> y(300);
  for (std::size_t i = 0; i < 300; ++i) y[i] = x[i][0] + 1.0;
  gbt_params p;
  p.log_target = false;
  const gbt_regressor a{x, y, p};
  const gbt_regressor b{x, y, p};
  const std::vector<double> probe = {3.3, 4.4};
  EXPECT_DOUBLE_EQ(a.predict(probe), b.predict(probe));
}

TEST(gbt, feature_importance_normalized) {
  util::rng gen{12};
  const auto x = grid_rows(400, gen);
  std::vector<double> y(400);
  for (std::size_t i = 0; i < 400; ++i) y[i] = x[i][0] * 2.0 + 1.0;
  gbt_params p;
  p.log_target = false;
  const gbt_regressor model{x, y, p};
  const auto imp = model.feature_importance(2);
  EXPECT_NEAR(imp[0] + imp[1], 1.0, 1e-9);
  EXPECT_GT(imp[0], imp[1]);
}

TEST(gbt, rejects_bad_input) {
  const std::vector<std::vector<double>> x = {{1.0}, {2.0}};
  EXPECT_THROW((gbt_regressor{x, std::vector<double>{1.0}, gbt_params{}}),
               std::invalid_argument);
  EXPECT_THROW((gbt_regressor{x, std::vector<double>{1.0, -1.0}, gbt_params{}}),
               std::invalid_argument);  // log target needs positive y
  gbt_params p;
  p.n_trees = 0;
  EXPECT_THROW((gbt_regressor{x, std::vector<double>{1.0, 2.0}, p}), std::invalid_argument);
}

TEST(predictor, fidelity_on_heldout_is_good) {
  const auto vis = nn::build_visformer();
  const auto vgg = nn::build_vgg19();
  const auto plat = soc::agx_xavier();
  benchmark_options opt;
  opt.samples = 3000;
  const auto ds = generate_benchmark({&vis, &vgg}, plat, opt);
  const auto parts = split(ds, 0.8, 3);
  const hw_predictor pred{parts.train};
  const auto fid = pred.evaluate(parts.test);
  EXPECT_LT(fid.latency_mape, 15.0);
  EXPECT_LT(fid.energy_mape, 15.0);
  EXPECT_GT(fid.latency_r2, 0.9);
  EXPECT_GT(fid.energy_r2, 0.9);
}

TEST(predictor, empty_cost_predicts_zero) {
  const auto vis = nn::build_visformer();
  const auto plat = soc::agx_xavier();
  benchmark_options opt;
  opt.samples = 200;
  const auto ds = generate_benchmark({&vis}, plat, opt);
  const hw_predictor pred{ds};
  EXPECT_DOUBLE_EQ(pred.latency_ms({}, plat.unit(0), 0, 1), 0.0);
  EXPECT_DOUBLE_EQ(pred.energy_mj({}, plat.unit(0), 0, 1), 0.0);
}

// Bit-pins a fitted predictor: node counts and %.17g predictions on 8
// held-out rows of a fixed benchmark dataset. Any change to the trainer
// that moves a bit (split order, sums, subsampling) fails here.
TEST(predictor, fitted_predictor_matches_golden) {
  const auto vis = nn::build_visformer();
  const auto vgg = nn::build_vgg19();
  const auto plat = soc::agx_xavier();
  benchmark_options opt;
  opt.samples = 808;
  const auto ds = generate_benchmark({&vis, &vgg}, plat, opt);
  dataset train;
  for (std::size_t i = 0; i < 800; ++i) train.add_row(ds.x[i], ds.latency_ms[i], ds.energy_mj[i]);
  const hw_predictor pred{train};

  std::size_t lat_nodes = 0;
  std::size_t en_nodes = 0;
  for (const auto& t : pred.latency_model().trees()) lat_nodes += t.node_count();
  for (const auto& t : pred.energy_model().trees()) en_nodes += t.node_count();
  std::string text = "nodes " + std::to_string(lat_nodes) + " " + std::to_string(en_nodes) + "\n";
  for (std::size_t i = 800; i < 808; ++i) {
    char line[64];
    std::snprintf(line, sizeof line, "%.17g %.17g\n", pred.latency_model().predict(ds.x[i]),
                  pred.energy_model().predict(ds.x[i]));
    text += line;
  }
  const char* const golden =
      "nodes 7156 7494\n"
      "0.052897211161020641 0.034218092408396128\n"
      "0.014590306761747034 0.058666416188862321\n"
      "11.272249199501744 4.1248270702447716\n"
      "0.059629625628433727 0.0201083395048859\n"
      "0.050102706395304987 0.045703883179233754\n"
      "0.058433185608455292 0.038708984382746836\n"
      "0.37436294315844953 0.44268781573365007\n"
      "11.718097124772642 3.6241456019933103\n";
  EXPECT_EQ(text, golden);
}

TEST(predictor, rejects_empty_training) {
  EXPECT_THROW((hw_predictor{dataset{}}), std::invalid_argument);
}

}  // namespace
