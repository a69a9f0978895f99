// Tests for the extension modules: depthwise conv / extra architectures,
// the depth-pipeline baseline, configuration serialization and the thermal
// constraint in the evaluator.

#include <gtest/gtest.h>

#include <cstdio>

#include "core/baselines.h"
#include "core/evaluator.h"
#include "core/serialization.h"
#include "nn/models.h"
#include "nn/partition_groups.h"
#include "soc/platform.h"
#include "util/line_codec.h"

namespace {

using namespace mapcq;

TEST(depthwise, geometry_and_cost) {
  const nn::layer l = nn::make_depthwise_conv2d("dw", {64, 16, 16}, 3, 1, 1);
  EXPECT_EQ(l.output(), (nn::tensor_shape{64, 16, 16}));
  EXPECT_EQ(l.width(), 64);
  // 2 * K^2 * C * H * W -- no cross-channel term.
  EXPECT_DOUBLE_EQ(l.flops(), 2.0 * 9 * 64 * 16 * 16);
  // Much cheaper than a dense conv of the same shape.
  const nn::layer dense = nn::make_conv2d("c", {64, 16, 16}, 64, 3, 1, 1);
  EXPECT_LT(l.flops() * 32, dense.flops());
}

TEST(depthwise, slice_cost_follows_min_fraction) {
  const nn::layer l = nn::make_depthwise_conv2d("dw", {64, 16, 16}, 3, 1, 1);
  EXPECT_DOUBLE_EQ(l.flops(1.0, 0.5), 0.5 * l.flops());
  // Channel i needs channel i: missing input channels cap the work.
  EXPECT_DOUBLE_EQ(l.flops(0.25, 0.5), 0.25 * l.flops());
}

TEST(depthwise, stride_downsamples) {
  const nn::layer l = nn::make_depthwise_conv2d("dw", {32, 16, 16}, 3, 2, 1);
  EXPECT_EQ(l.output(), (nn::tensor_shape{32, 8, 8}));
}

TEST(mobilenet, builds_and_groups) {
  const nn::network net = nn::build_mobilenet_cifar();
  EXPECT_EQ(net.classes, 100);
  int dw = 0;
  for (const auto& l : net.layers)
    if (l.kind == nn::layer_kind::depthwise_conv2d) ++dw;
  EXPECT_EQ(dw, 7);
  // Depthwise layers lead their own partition groups.
  const auto groups = nn::make_partition_groups(net);
  EXPECT_EQ(groups.size(), 15u);  // stem + 7x(dw + pw)
}

TEST(plain20, builds_with_twenty_weight_layers) {
  const nn::network net = nn::build_plain20();
  int convs = 0;
  for (const auto& l : net.layers)
    if (l.kind == nn::layer_kind::conv2d) ++convs;
  EXPECT_EQ(convs, 19);  // + classifier = 20 weight layers
}

TEST(extra_models, evaluate_end_to_end) {
  const auto plat = soc::agx_xavier();
  for (const auto& net : {nn::build_mobilenet_cifar(), nn::build_plain20()}) {
    const core::evaluator ev{net, plat, {}};
    const auto e = ev.evaluate(core::make_static_configuration(net, plat));
    EXPECT_TRUE(e.feasible) << net.name << ": " << e.reject_reason;
    EXPECT_GT(e.accuracy_pct, net.base_accuracy - 1.0) << net.name;
  }
}

TEST(pipeline_baseline, segments_cover_network) {
  const auto net = nn::build_vgg19();
  const auto plat = soc::agx_xavier();
  const auto res = core::pipeline_baseline(net, plat);
  EXPECT_EQ(res.cut_points.size(), plat.size());
  EXPECT_EQ(res.cut_points.front(), 0u);
  for (std::size_t i = 1; i < res.cut_points.size(); ++i)
    EXPECT_GT(res.cut_points[i], res.cut_points[i - 1]);
  EXPECT_LT(res.cut_points.back(), net.depth());
}

TEST(pipeline_baseline, latency_energy_positive_and_accuracy_unchanged) {
  const auto net = nn::build_vgg19();
  const auto plat = soc::agx_xavier();
  const auto res = core::pipeline_baseline(net, plat);
  EXPECT_GT(res.latency_ms, 0.0);
  EXPECT_GT(res.energy_mj, 0.0);
  EXPECT_DOUBLE_EQ(res.accuracy_pct, net.base_accuracy);
}

TEST(pipeline_baseline, throughput_beats_single_input_rate) {
  const auto net = nn::build_vgg19();
  const auto plat = soc::agx_xavier();
  const auto res = core::pipeline_baseline(net, plat);
  // Pipelining overlaps segments: steady-state rate >= 1/latency.
  EXPECT_GE(res.throughput_ips, 1000.0 / res.latency_ms - 1e-9);
}

TEST(serialization, roundtrip_preserves_configuration) {
  const auto net = nn::build_simple_cnn();
  const auto plat = soc::agx_xavier();
  core::configuration c = core::make_static_configuration(net, plat);
  c.partition[2] = {0.5, 0.25, 0.25};
  c.forward[1] = {true, false, false};
  c.mapping = {2, 0, 1};
  c.dvfs = {3, 1, 4};

  const auto back = core::configuration_from_text(core::to_text(c));
  EXPECT_EQ(back.partition, c.partition);
  EXPECT_EQ(back.forward, c.forward);
  EXPECT_EQ(back.mapping, c.mapping);
  EXPECT_EQ(back.dvfs, c.dvfs);
}

TEST(serialization, file_roundtrip) {
  const auto net = nn::build_simple_cnn();
  const auto plat = soc::agx_xavier();
  const auto c = core::make_static_configuration(net, plat);
  const std::string path = "/tmp/mapcq_cfg_test.txt";
  util::write_file(path, core::to_text(c));
  const auto back = core::configuration_from_text(util::read_file(path));
  EXPECT_EQ(back.partition, c.partition);
  std::remove(path.c_str());
}

TEST(serialization, rejects_malformed_input) {
  EXPECT_THROW((void)core::configuration_from_text(""), std::runtime_error);
  EXPECT_THROW((void)core::configuration_from_text("wrong-header\n"), std::runtime_error);
  EXPECT_THROW((void)core::configuration_from_text("mapcq-config-v1\ngroups 1\n"),
               std::runtime_error);
  EXPECT_THROW((void)util::read_file("/nonexistent/path.txt"), std::runtime_error);
  // Bad forward bit.
  const std::string bad =
      "mapcq-config-v1\ngroups 1\nstages 2\npartition\n0.5 0.5\nforward\n2 0\nmapping 0 1\ndvfs 0 "
      "0 0\n";
  EXPECT_THROW((void)core::configuration_from_text(bad), std::runtime_error);
}

TEST(thermal_constraint, rejects_hot_mappings) {
  const auto net = nn::build_vgg19();
  const auto plat = soc::agx_xavier();
  core::evaluator_options opt;
  soc::thermal_model tight;
  tight.r_thermal_c_per_w = 50.0;  // terrible heatsink: almost nothing sustains
  opt.thermal = tight;
  const core::evaluator hot{net, plat, opt};
  const auto e = hot.evaluate(core::make_static_configuration(net, plat));
  EXPECT_FALSE(e.feasible);
  EXPECT_NE(e.reject_reason.find("throttle"), std::string::npos);

  core::evaluator_options ok_opt;
  ok_opt.thermal = soc::thermal_model{};  // realistic Xavier heatsink
  const core::evaluator ok{net, plat, ok_opt};
  EXPECT_TRUE(ok.evaluate(core::make_static_configuration(net, plat)).feasible);
}

}  // namespace
