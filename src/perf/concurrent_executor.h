#pragma once
// Concurrent execution simulator implementing the paper's latency recurrence
// (eq. 8):
//
//   T^j_i = tau^j_i + max{ T^{j-1}_i,
//                          T^{j-1}_k + u^{j-1}_{k->i} | I_k = 1, 1 <= k < i }
//
// Each stage runs on its own CU; a sublayer starts once its own previous
// output and every reused feature map from earlier stages have landed in its
// local vicinity (Fig. 3: stalls appear as wait time). Stage latency is
// T^n_i (eq. 9), stage energy is the sum of eq. 11 terms (eq. 12).

#include <span>
#include <vector>

#include "perf/latency_model.h"
#include "perf/work.h"
#include "soc/platform.h"

namespace mapcq::perf {

/// Timing of one (stage, step) cell, for traces and tests.
struct step_timing {
  double start_ms = 0.0;  ///< when the sublayer began computing
  double end_ms = 0.0;    ///< completion time T^j_i
  double wait_ms = 0.0;   ///< stall waiting on own/foreign dependencies
  double busy_ms = 0.0;   ///< tau^j_i
};

/// Per-stage outcome.
struct stage_timing {
  double latency_ms = 0.0;   ///< T_Si = T^n_i (eq. 9)
  double energy_mj = 0.0;    ///< E_Si (eq. 12)
  double busy_ms = 0.0;      ///< total compute time
  double wait_ms = 0.0;      ///< total stall time
};

/// Full simulation result.
struct execution_result {
  std::vector<stage_timing> stages;
  std::vector<std::vector<step_timing>> timeline;  ///< [stage][step]
  double fmap_traffic_bytes = 0.0;   ///< inter-CU feature bytes moved
  double transfer_energy_mj = 0.0;   ///< DRAM energy of that traffic (extra term)

  /// Overall latency for the first `instantiated` stages = max T_Si
  /// (paper eq. 13). `instantiated` = 0 means all stages.
  [[nodiscard]] double latency_ms(std::size_t instantiated = 0) const;

  /// Overall energy for the first `instantiated` stages = sum E_Si
  /// (paper eq. 14). `instantiated` = 0 means all stages.
  [[nodiscard]] double energy_mj(std::size_t instantiated = 0) const;
};

/// Simulates the plan on the platform. Throws std::logic_error on an
/// invalid plan.
[[nodiscard]] execution_result simulate(const soc::platform& plat, const stage_plan& plan,
                                        const model_options& opt = {});

/// Pre-computed per-step costs (e.g. from the GBT surrogate); indexed
/// [stage][step], shapes must match the plan.
struct step_costs {
  std::vector<std::vector<double>> tau_ms;
  std::vector<std::vector<double>> energy_mj;
};

/// Runs the eq. 8 recurrence with externally supplied sublayer costs
/// (the surrogate path of the paper's Fig. 5 evaluation loop).
[[nodiscard]] execution_result simulate_costed(const soc::platform& plat,
                                               const stage_plan& plan,
                                               const step_costs& costs);

/// The eq. 8 recurrence itself, over precomputed per-cell costs laid out
/// stage-major: cell (i, j) is at `i * plan.groups() + j` of `tau_ms` and
/// `energy_mj`. `simulate`, `simulate_costed` and `batch_characterizer`
/// all run this one body. The plan must already be validated and the
/// spans must hold `plan.stages() * plan.groups()` cells.
[[nodiscard]] execution_result run_recurrence(const soc::platform& plat, const stage_plan& plan,
                                              std::span<const double> tau_ms,
                                              std::span<const double> energy_mj);

/// Sequential reference executor (ablation): stages run one after another
/// with no concurrency; same cost models, dependencies always satisfied.
[[nodiscard]] execution_result simulate_sequential(const soc::platform& plat,
                                                   const stage_plan& plan,
                                                   const model_options& opt = {});

}  // namespace mapcq::perf
