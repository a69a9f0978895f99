#pragma once
// Per-sublayer latency model: a roofline over the CU's sustained compute
// rate and its memory bandwidth, plus a fixed kernel-launch overhead. This
// provides the tau^j_i terms of the paper's eq. 8 and stands in for the
// TensorRT layer-wise measurements of §V-E.

#include <algorithm>

#include "perf/work.h"
#include "soc/compute_unit.h"

namespace mapcq::perf {

/// Options shared by the latency and energy models.
struct model_options {
  /// Derate memory bandwidth when `concurrent_stages` CUs contend for the
  /// shared DRAM: bw_eff = bw / (1 + contention * (stages - 1)).
  double bandwidth_contention = 0.10;
  bool enable_contention = true;

  bool operator==(const model_options&) const = default;
};

/// The roofline of one non-empty sublayer: launch overhead plus the larger
/// of compute and memory time. `rate_denom` is the sustained rate in
/// FLOP/ms (gflops * 1e6) and `bw_denom` the derated bandwidth in B/ms
/// (GB/s * 1e6); a non-positive rate adds no compute time. The one copy of
/// this formula: `sublayer_latency_ms` and batch_characterizer's flat loop
/// both call it, so the two agree bit for bit.
[[nodiscard]] inline double roofline_ms(double launch_ms, double flops, double rate_denom,
                                        double moved_bytes, double bw_denom) {
  const double compute_ms = rate_denom > 0.0 ? flops / rate_denom : 0.0;
  return launch_ms + std::max(compute_ms, moved_bytes / bw_denom);
}

/// Memory bandwidth (GB/s) of a CU whose nominal bandwidth is `bw_gbps`
/// while `concurrent_stages` stages contend for the shared DRAM.
[[nodiscard]] inline double derated_bandwidth_gbps(double bw_gbps, std::size_t concurrent_stages,
                                                   const model_options& opt) {
  if (opt.enable_contention && concurrent_stages > 1)
    bw_gbps /= 1.0 + opt.bandwidth_contention * static_cast<double>(concurrent_stages - 1);
  return bw_gbps;
}

/// Latency (ms) of executing `cost` on `cu` at DVFS `level` with
/// `concurrent_stages` total active stages on the MPSoC. Empty sublayers
/// cost nothing.
[[nodiscard]] double sublayer_latency_ms(const sublayer_cost& cost, const soc::compute_unit& cu,
                                         std::size_t level, std::size_t concurrent_stages = 1,
                                         const model_options& opt = {});

}  // namespace mapcq::perf
