#pragma once
// Structure-of-arrays batch characterizer: the analytic cost model of a
// whole evaluation batch, and the only path `core::evaluator` scores
// analytic candidates through.
//
// Instead of walking every (stage, group) cell of every plan through
// `sublayer_latency_ms` / `sublayer_energy_mj` one call at a time, chasing
// pointers into `stage_plan`'s vector-of-vectors, this class lays the cells
// of a batch out contiguously: one gather pass resolves the per-cell
// scalars (flops, roofline denominators, launch overhead, power), then a
// single flat loop computes every tau/energy pair through `roofline_ms` —
// written so the auto-vectorizer can keep the divisions and max() in SIMD
// lanes (toggle: the MAPCQ_SIMD CMake option). Each plan's slice of the
// flat cost columns then goes through `run_recurrence`, the same eq. 8
// body `simulate()` runs, and is characterized.
//
// Bit-identity contract: the result equals `simulate()` +
// `characterize[_system]()` exactly. The roofline and the recurrence are
// shared code; the gather forms the roofline denominators from the same
// operands as `sublayer_latency_ms`, and nothing is compiled under
// value-changing FP flags (see ARCHITECTURE.md). `tests/test_batch_evaluator.cpp`
// pins this at %.17g across seeded networks × platforms × batch shapes.
//
// Ownership: the characterizer borrows the platform (must outlive it) and
// owns its arena scratch, which is bump-allocated per `run()` call and
// reused across calls (buffers grow monotonically, no per-cell allocation).
//
// Thread-safety: NONE — the arena is mutable state. One instance per
// thread; `core::evaluator::evaluate_batch` creates one per call.

#include <cstddef>
#include <span>
#include <vector>

#include "perf/characterizer.h"
#include "perf/concurrent_executor.h"
#include "perf/latency_model.h"
#include "perf/work.h"
#include "soc/platform.h"

namespace mapcq::perf {

/// Bump allocator for per-batch scratch: one backing vector per scalar
/// type, sized up front (a mid-batch grow would invalidate handed-out
/// spans, so `reset` pre-reserves the whole batch's footprint).
class batch_arena {
 public:
  /// Discards all outstanding spans and guarantees capacity for
  /// `doubles` / `flags` subsequent takes.
  void reset(std::size_t doubles, std::size_t flags);

  /// Hands out the next `n` doubles, zero-initialized.
  [[nodiscard]] std::span<double> take(std::size_t n);
  /// Hands out the next `n` flag bytes, zero-initialized.
  [[nodiscard]] std::span<unsigned char> take_flags(std::size_t n);

 private:
  std::vector<double> doubles_;
  std::vector<unsigned char> flags_;
  std::size_t doubles_used_ = 0;
  std::size_t flags_used_ = 0;
};

/// Per-plan output of a batch run: the `simulate()` result plus its
/// characterization.
struct batch_profile {
  execution_result exec;
  dynamic_profile profile;
};

/// SoA batched analytic characterizer (see file comment).
class batch_characterizer {
 public:
  /// Borrows `plat` (and `ctx` when given; both must outlive the
  /// characterizer); `opt` holds the analytic model knobs. Pass the
  /// co-location context the evaluator scored under (usually the same one
  /// that produced `plat` via `apply_contention`) so the idle-power sweep
  /// excludes resident-reserved CUs, as `characterize_system` does; null
  /// means no co-location.
  batch_characterizer(const soc::platform& plat, model_options opt,
                      const soc::contention_context* ctx = nullptr);

  /// Characterizes every plan of the batch. `out` must be sized like
  /// `plans`; `count_idle_power` selects `characterize_system` vs
  /// `characterize`, as `evaluator_options::count_idle_power` does.
  /// Throws std::logic_error on an invalid plan (same validation as
  /// `simulate`).
  void run(std::span<const stage_plan* const> plans, bool count_idle_power,
           std::span<batch_profile> out);

 private:
  const soc::platform* plat_;
  model_options opt_;
  const soc::contention_context* ctx_ = nullptr;
  batch_arena arena_;
};

/// True when the library was compiled with the MAPCQ_SIMD toggle on
/// (vectorization pragmas active in the flat tau/energy loop).
[[nodiscard]] bool simd_enabled() noexcept;

}  // namespace mapcq::perf
