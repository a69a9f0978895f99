#include "perf/latency_model.h"

namespace mapcq::perf {

double sublayer_latency_ms(const sublayer_cost& cost, const soc::compute_unit& cu,
                           std::size_t level, std::size_t concurrent_stages,
                           const model_options& opt) {
  if (cost.empty()) return 0.0;
  const double gflops = cu.sustained_gflops(cost.kind, cost.width_frac, level);
  const double bw = derated_bandwidth_gbps(cu.mem_bandwidth_gbps, concurrent_stages, opt);
  return roofline_ms(cu.launch_overhead_ms, cost.flops, gflops * 1e6, cost.moved_bytes(),
                     bw * 1e6);  // GB/s == 1e6 B/ms
}

}  // namespace mapcq::perf
