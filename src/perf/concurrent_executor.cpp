#include "perf/concurrent_executor.h"

#include <algorithm>
#include <stdexcept>

#include "perf/energy_model.h"

namespace mapcq::perf {

double execution_result::latency_ms(std::size_t instantiated) const {
  if (instantiated == 0 || instantiated > stages.size()) instantiated = stages.size();
  double t = 0.0;
  for (std::size_t i = 0; i < instantiated; ++i) t = std::max(t, stages[i].latency_ms);
  return t;
}

double execution_result::energy_mj(std::size_t instantiated) const {
  if (instantiated == 0 || instantiated > stages.size()) instantiated = stages.size();
  double e = 0.0;
  for (std::size_t i = 0; i < instantiated; ++i) e += stages[i].energy_mj;
  return e;
}

execution_result run_recurrence(const soc::platform& plat, const stage_plan& plan,
                                std::span<const double> tau_ms,
                                std::span<const double> energy_mj) {
  const std::size_t n_stages = plan.stages();
  const std::size_t n_groups = plan.groups();

  execution_result res;
  res.stages.assign(n_stages, {});
  res.timeline.assign(n_stages, std::vector<step_timing>(n_groups));

  // completion[i * n_groups + j] = T^j_i. Column j-1 feeds column j,
  // including cross-stage edges, so iterate groups outermost.
  std::vector<double> completion(n_stages * n_groups, 0.0);

  for (std::size_t j = 0; j < n_groups; ++j) {
    for (std::size_t i = 0; i < n_stages; ++i) {
      const stage_step& step = plan.steps[i][j];
      const std::size_t c = i * n_groups + j;

      const double own_prev = j == 0 ? 0.0 : completion[c - 1];
      double ready = own_prev;
      for (const auto& t : step.incoming) {
        const double src_done = j == 0 ? 0.0 : completion[t.from_stage * n_groups + (j - 1)];
        const double u = plat.xfer.transfer_ms(t.bytes);
        ready = std::max(ready, src_done + u);
        res.fmap_traffic_bytes += t.bytes;
        res.transfer_energy_mj += plat.xfer.transfer_mj(t.bytes);
      }

      const double tau = tau_ms[c];
      completion[c] = ready + tau;

      step_timing& tl = res.timeline[i][j];
      tl.start_ms = ready;
      tl.end_ms = completion[c];
      tl.busy_ms = tau;
      tl.wait_ms = std::max(0.0, ready - own_prev);

      res.stages[i].busy_ms += tau;
      res.stages[i].wait_ms += tl.wait_ms;
      res.stages[i].energy_mj += energy_mj[c];
    }
  }

  for (std::size_t i = 0; i < n_stages; ++i)
    res.stages[i].latency_ms = n_groups == 0 ? 0.0 : completion[i * n_groups + (n_groups - 1)];
  return res;
}

execution_result simulate(const soc::platform& plat, const stage_plan& plan,
                          const model_options& opt) {
  plan.validate(plat.size());
  // Idle stages do not contend for DRAM; shared definition so surrogate
  // query/logged features always agree with the analytic models.
  const std::size_t concurrency = plan.active_stages();
  const std::size_t n_groups = plan.groups();

  std::vector<double> tau(plan.stages() * n_groups);
  std::vector<double> energy(tau.size());
  for (std::size_t i = 0; i < plan.stages(); ++i) {
    const soc::compute_unit& cu = plat.unit(plan.cu_of_stage[i]);
    const std::size_t level = plan.dvfs_level[plan.cu_of_stage[i]];
    for (std::size_t j = 0; j < n_groups; ++j) {
      const sublayer_cost& cost = plan.steps[i][j].cost;
      tau[i * n_groups + j] = sublayer_latency_ms(cost, cu, level, concurrency, opt);
      energy[i * n_groups + j] = sublayer_energy_mj(cost, cu, level, concurrency, opt);
    }
  }
  return run_recurrence(plat, plan, tau, energy);
}

execution_result simulate_costed(const soc::platform& plat, const stage_plan& plan,
                                 const step_costs& costs) {
  plan.validate(plat.size());
  if (costs.tau_ms.size() != plan.stages() || costs.energy_mj.size() != plan.stages())
    throw std::logic_error("simulate_costed: cost grid shape mismatch");
  const std::size_t cells = plan.stages() * plan.groups();
  std::vector<double> tau;
  std::vector<double> energy;
  tau.reserve(cells);
  energy.reserve(cells);
  for (std::size_t i = 0; i < plan.stages(); ++i) {
    if (costs.tau_ms[i].size() != plan.groups() || costs.energy_mj[i].size() != plan.groups())
      throw std::logic_error("simulate_costed: cost grid shape mismatch");
    tau.insert(tau.end(), costs.tau_ms[i].begin(), costs.tau_ms[i].end());
    energy.insert(energy.end(), costs.energy_mj[i].begin(), costs.energy_mj[i].end());
  }
  return run_recurrence(plat, plan, tau, energy);
}

execution_result simulate_sequential(const soc::platform& plat, const stage_plan& plan,
                                     const model_options& opt) {
  plan.validate(plat.size());

  execution_result res;
  res.stages.assign(plan.stages(), {});
  res.timeline.assign(plan.stages(), std::vector<step_timing>(plan.groups()));

  double clock = 0.0;
  for (std::size_t i = 0; i < plan.stages(); ++i) {
    const soc::compute_unit& cu = plat.unit(plan.cu_of_stage[i]);
    const std::size_t level = plan.dvfs_level[plan.cu_of_stage[i]];
    const double stage_start = clock;
    for (std::size_t j = 0; j < plan.groups(); ++j) {
      const stage_step& step = plan.steps[i][j];
      for (const auto& t : step.incoming) {
        clock += plat.xfer.transfer_ms(t.bytes);
        res.fmap_traffic_bytes += t.bytes;
        res.transfer_energy_mj += plat.xfer.transfer_mj(t.bytes);
      }
      // One stage at a time -> no DRAM contention.
      const double tau = sublayer_latency_ms(step.cost, cu, level, 1, opt);
      res.timeline[i][j] = {clock, clock + tau, 0.0, tau};
      clock += tau;
      res.stages[i].busy_ms += tau;
      res.stages[i].energy_mj += sublayer_energy_mj(step.cost, cu, level, 1, opt);
    }
    // Sequential semantics: a stage's completion time includes every
    // predecessor stage (they ran first on the wall clock).
    res.stages[i].latency_ms = clock;
    res.stages[i].wait_ms = stage_start;
  }
  return res;
}

}  // namespace mapcq::perf
