#pragma once
// Set-up, traffic loops, output checks and layer probes of the benchmark.
// Only public functions of the mapcq library are called.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluator.h"
#include "mix.h"
#include "nn/graph.h"
#include "perf/calibration.h"
#include "serving/mapping_service.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

/// Per-request GA budget and thread counts, the same on every workload.
/// With one engine thread per session the busy threads are the clients or
/// scheduler workers alone, which stays within a 4-core host.
inline constexpr std::size_t ga_generations = 40;
inline constexpr std::size_t ga_population = 24;
inline constexpr std::size_t engine_threads = 1;
inline constexpr std::size_t scheduler_workers = 2;
inline constexpr std::size_t engine_capacity = 8192;
inline constexpr std::size_t surrogate_samples = 2000;
/// setup_s is the median of at least 3 set-ups; cheap set-ups repeat until
/// 3 s is spent (at most 15 times), so the median is not a single sample's
/// noise.
inline constexpr std::size_t min_setup_repeats = 3;
inline constexpr std::size_t max_setup_repeats = 15;
inline constexpr double setup_budget_s = 3.0;

/// Calibrated Xavier, the two paper networks and their single-CU baselines.
struct testbed {
  struct baseline {
    double gpu_latency_ms = 0.0;
    double gpu_energy_mj = 0.0;
    double dla_latency_ms = 0.0;
    double dla_energy_mj = 0.0;
  };
  std::vector<mapcq::nn::network> nets;
  mapcq::perf::calibrated_platform cal;
  std::vector<baseline> base;  ///< per network

  testbed();
};

[[nodiscard]] mapcq::serving::mapping_request make_request(const testbed& bed,
                                                           const request_mix& mix,
                                                           const gen_request& g);

/// The report text with the scheduler note dropped: the bytes that must be
/// identical for identical requests, however they were scheduled.
[[nodiscard]] std::string deterministic_text(const mapcq::serving::mapping_report& rep);

/// Field-by-field bit equality of two evaluations.
[[nodiscard]] bool same_bits(const mapcq::core::evaluation& a, const mapcq::core::evaluation& b);

struct quality {
  double hv_ratio = 0.0;
  double energy_gain_vs_gpu = 0.0;
  double latency_gain_vs_dla = 0.0;
};

/// One timed request.
struct served {
  bool attempted = false;
  bool ok = false;
  std::string error;
  request_clock clock;  ///< seconds from the window start
  bool created = false;  ///< created, trained or restored its session
  bool trained = false;
  std::size_t restored = 0;  ///< closed loop: sessions restored while serving it
  bool matches_reference = true;  ///< warm workloads: equals the warm-up report
  std::size_t misses = 0;  ///< evaluator runs (search + validation)
  std::size_t lookups = 0;
  std::size_t avoided = 0;  ///< lookups served without an evaluator run
  std::size_t feasible = 0;  ///< feasible candidates over the GA history
  std::size_t generations = 0;
  double admit_s = 0.0;  ///< open loop: time inside submit()
  std::string text;      ///< deterministic_text, kept for the quality prefix
  std::vector<mapcq::core::evaluation> front;  ///< kept for the traced prefix
  std::optional<quality> q;
};

/// The deterministic part of a warm-up report: what a repeat of the same
/// request must return bit-for-bit.
struct reference_report {
  std::vector<mapcq::core::evaluation> front;
  std::size_t ours_latency_index = 0;
  std::size_t ours_energy_index = 0;
  quality q;

  [[nodiscard]] bool matches(const mapcq::serving::mapping_report& rep) const;
};

/// A workload ready for its first timed request.
struct workload_state {
  std::unique_ptr<testbed> bed;
  std::unique_ptr<mapcq::serving::mapping_service> service;
  /// Warm-up reports, keyed by (tuple, GA seed).
  std::map<std::pair<std::size_t, std::uint64_t>, reference_report> reference;
  std::vector<double> setup_cold_ms;  ///< session-creating warm-up requests
  std::string scratch_dir;            ///< where probe and snapshot files go
  std::string snapshot_dir;           ///< session_churn only; removed on destruction
  ~workload_state();
};

/// Builds everything the workload needs before timing starts. Throws on a
/// failed warm-up.
[[nodiscard]] std::unique_ptr<workload_state> setup(const request_mix& mix,
                                                    const std::string& scratch_dir,
                                                    std::size_t attempt);

/// Outcome of one timed pass.
struct pass_result {
  std::vector<served> requests;  ///< attempted, in generation order
  double wall_s = 0.0;           ///< window start to the last completion
  std::size_t submitted = 0;     ///< open loop: submit() calls
  mapcq::serving::scheduler_stats sched;  ///< after the drain
  std::size_t spilled = 0;        ///< snapshot counters over the pass
  std::size_t restored = 0;
  std::size_t spill_failures = 0;
  std::size_t restore_failures = 0;
  double mean_queue_length = 0.0;  ///< traced open loop: sampled gauge
  double queue_window_s = 0.0;
  std::size_t queue_arrivals = 0;
};

/// How a pass is driven.
struct pass_options {
  double seconds = 10.0;  ///< closed loop: dispatch window; open loop: arrivals
  std::size_t max_requests = 0;  ///< closed loop: stop after this many (0 = by time)
  span_log* log = nullptr;  ///< non-null: decompose map() and record spans
  bool sample_queue = false;  ///< open loop: sample the scheduler's queued gauge
  std::size_t keep_fronts = 0;  ///< keep the validated fronts of the first N requests
};

[[nodiscard]] pass_result run_pass(workload_state& st, const request_mix& mix,
                                   const pass_options& opt);

/// A report as shipped: map() (or, when `log` is enabled, its traced
/// decomposition), then the summary text every latency is measured to.
struct shipped {
  mapcq::serving::mapping_report rep;
  std::string text;
};

[[nodiscard]] shipped serve_map(mapcq::serving::mapping_service& svc,
                                const mapcq::serving::mapping_request& req, span_log& log,
                                std::uint64_t request_id);

/// map() decomposed into its public calls, one span each: session_for,
/// surrogate_engine, evolve, the analytic evaluate_batch over the picks.
[[nodiscard]] mapcq::serving::mapping_report decomposed_map(
    mapcq::serving::mapping_service& service, const mapcq::serving::mapping_request& req,
    span_log& log, std::uint64_t request_id);

/// Collects pass/fail output checks; a failure makes the run exit non-zero.
class checks {
 public:
  void expect(bool ok, const std::string& what);
  [[nodiscard]] bool all_passed() const noexcept { return failures_ == 0; }

 private:
  std::size_t failures_ = 0;
};

/// Checks every workload makes on a timed pass.
void check_pass(const workload_state& st, const request_mix& mix, const pass_result& pass,
                checks& c);

/// Direct calls into every layer on the workload's first tuple, one span
/// each, recorded in `log`.
struct probe_result {
  double snapshot_bytes = 0.0;
  std::size_t sublayer_cells = 0;  ///< per batch_characterizer run
  std::size_t scalar_configs = 0;
  std::size_t batch_configs = 0;
  std::size_t surrogate_configs = 0;
  std::size_t engine_misses = 0;
  std::size_t engine_hits = 0;
  std::size_t predictions = 0;
  std::size_t admitted = 0;  ///< scheduler burst (closed loops)
  double mean_queue_length = 0.0;
  double queue_window_s = 0.0;
};

[[nodiscard]] probe_result run_probes(workload_state& st, const request_mix& mix,
                                      std::uint64_t seed, span_log& log, checks& c);

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
