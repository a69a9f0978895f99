#include "perf/batch_characterizer.h"

#include <stdexcept>

namespace mapcq::perf {

// Vectorization toggle (CMake option MAPCQ_SIMD). The pragmas only promise
// the compiler the flat loop's iterations are independent — every lane
// still runs the exact scalar IEEE op sequence, so enabling them cannot
// change a bit of output (no reductions, no reassociation, no fast-math).
#if defined(MAPCQ_SIMD) && defined(__clang__)
#define MAPCQ_VEC_LOOP _Pragma("clang loop vectorize(enable) interleave(enable)")
#elif defined(MAPCQ_SIMD) && defined(__GNUC__)
#define MAPCQ_VEC_LOOP _Pragma("GCC ivdep")
#else
#define MAPCQ_VEC_LOOP
#endif

bool simd_enabled() noexcept {
#ifdef MAPCQ_SIMD
  return true;
#else
  return false;
#endif
}

void batch_arena::reset(std::size_t doubles, std::size_t flags) {
  doubles_.assign(doubles, 0.0);
  flags_.assign(flags, 0);
  doubles_used_ = 0;
  flags_used_ = 0;
}

std::span<double> batch_arena::take(std::size_t n) {
  if (doubles_used_ + n > doubles_.size())
    throw std::logic_error("batch_arena: take exceeds reset capacity");
  const std::span<double> s{doubles_.data() + doubles_used_, n};
  doubles_used_ += n;
  return s;
}

std::span<unsigned char> batch_arena::take_flags(std::size_t n) {
  if (flags_used_ + n > flags_.size())
    throw std::logic_error("batch_arena: take_flags exceeds reset capacity");
  const std::span<unsigned char> s{flags_.data() + flags_used_, n};
  flags_used_ += n;
  return s;
}

batch_characterizer::batch_characterizer(const soc::platform& plat, model_options opt,
                                         const soc::contention_context* ctx)
    : plat_(&plat), opt_(opt), ctx_(ctx) {}

void batch_characterizer::run(std::span<const stage_plan* const> plans, bool count_idle_power,
                              std::span<batch_profile> out) {
  if (out.size() != plans.size())
    throw std::logic_error("batch_characterizer: output size mismatch");

  // Pass 0: validate and size the arena before any span is handed out (a
  // later grow would invalidate earlier spans). Cells are laid out
  // plan-major, then stage-major, group-minor: cell(p, i, j) =
  // base_p + i * groups_p + j.
  std::size_t total = 0;
  for (const stage_plan* plan : plans) {
    plan->validate(plat_->size());
    total += plan->stages() * plan->groups();
  }
  arena_.reset(8 * total, total);

  const std::span<double> flops = arena_.take(total);
  const std::span<double> rate_denom = arena_.take(total);  // gflops * 1e6
  const std::span<double> moved = arena_.take(total);
  const std::span<double> bw_denom = arena_.take(total);  // bw_eff * 1e6
  const std::span<double> launch = arena_.take(total);
  const std::span<double> power = arena_.take(total);
  const std::span<double> tau = arena_.take(total);
  const std::span<double> energy = arena_.take(total);
  const std::span<unsigned char> skip = arena_.take_flags(total);

  // Pass 1 (gather): resolve every cell's roofline inputs, forming the
  // denominators from the same operands as sublayer_latency_ms.
  std::size_t base = 0;
  for (const stage_plan* pp : plans) {
    const stage_plan& plan = *pp;
    const std::size_t n_stages = plan.stages();
    const std::size_t n_groups = plan.groups();
    const std::size_t concurrency = plan.active_stages();
    for (std::size_t i = 0; i < n_stages; ++i) {
      const soc::compute_unit& cu = plat_->unit(plan.cu_of_stage[i]);
      const std::size_t level = plan.dvfs_level[plan.cu_of_stage[i]];
      const double stage_bw_denom =
          derated_bandwidth_gbps(cu.mem_bandwidth_gbps, concurrency, opt_) * 1e6;
      for (std::size_t j = 0; j < n_groups; ++j) {
        const std::size_t c = base + i * n_groups + j;
        const sublayer_cost& cost = plan.steps[i][j].cost;
        if (cost.empty()) {
          // sublayer_latency_ms returns 0 before touching the CU; mask the
          // lane and keep its division benign.
          skip[c] = 1;
          bw_denom[c] = 1.0;
          continue;
        }
        flops[c] = cost.flops;
        rate_denom[c] = cu.sustained_gflops(cost.kind, cost.width_frac, level) * 1e6;
        moved[c] = cost.moved_bytes();
        bw_denom[c] = stage_bw_denom;
        launch[c] = cu.launch_overhead_ms;
        power[c] = cu.power_w(cost.kind, level);
      }
    }
    base += n_stages * n_groups;
  }

  // Pass 2 (SIMD): the whole batch's tau/energy in one flat loop.
  MAPCQ_VEC_LOOP
  for (std::size_t c = 0; c < total; ++c) {
    const double t = roofline_ms(launch[c], flops[c], rate_denom[c], moved[c], bw_denom[c]);
    tau[c] = skip[c] ? 0.0 : t;
    energy[c] = skip[c] ? 0.0 : t * power[c];
  }

  // Pass 3 (per plan): the eq. 8 recurrence over the plan's slice of the
  // flat cost columns, then the profile.
  base = 0;
  for (std::size_t p = 0; p < plans.size(); ++p) {
    const stage_plan& plan = *plans[p];
    const std::size_t cells = plan.stages() * plan.groups();
    out[p].exec = run_recurrence(*plat_, plan, tau.subspan(base, cells),
                                 energy.subspan(base, cells));
    out[p].profile = count_idle_power ? characterize_system(out[p].exec, plan, *plat_, ctx_)
                                      : characterize(out[p].exec);
    base += cells;
  }
}

}  // namespace mapcq::perf
