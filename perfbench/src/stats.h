#pragma once
// The benchmark's own arithmetic: order statistics, the tail-percentile
// rule, Little's law, open-loop timing and the mapping-quality measures.
// Everything here is a pure function of its arguments (tested in
// perfbench/tests/test_stats.cpp).

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// Arithmetic mean; 0 when empty.
[[nodiscard]] double mean(const std::vector<double>& values);

/// Geometric mean of strictly positive values; 0 when empty.
[[nodiscard]] double geometric_mean(const std::vector<double>& values);

/// Mean of each non-empty group's mean: every group weighs the same
/// however many samples it holds. 0 when all groups are empty.
[[nodiscard]] double mean_of_group_means(const std::vector<std::vector<double>>& groups);

/// Geometric mean of each non-empty group's geometric mean.
[[nodiscard]] double geomean_of_group_geomeans(const std::vector<std::vector<double>>& groups);

/// The highest percentile a sample supports: the order statistic with
/// exactly `min_beyond` samples above it. Its percentile rank is
/// 100 * (n - min_beyond) / n, so 100 samples give p90 and 1000 give p99.
struct tail_point {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;  ///< n
  std::size_t beyond = 0;   ///< samples strictly above `value`'s rank
};

/// Applies the rule above; nullopt when the sample has no more than
/// `min_beyond` values (no percentile has enough samples beyond it).
[[nodiscard]] std::optional<tail_point> tail_percentile(std::vector<double> values,
                                                        std::size_t min_beyond = 10);

/// Little's law, W = L / lambda: the mean time an item waits, given the
/// time-averaged queue length over a window and the number of items that
/// entered the queue during it. 0 when nothing arrived or the window is
/// empty.
[[nodiscard]] double littles_law_wait_s(double mean_queue_length, std::size_t arrivals,
                                        double window_s);

/// One open-loop request on the benchmark clock (seconds since the
/// timed window opened).
struct request_clock {
  double due_s = 0.0;   ///< when the schedule said to send it
  double sent_s = 0.0;  ///< when the generator actually sent it
  double done_s = 0.0;  ///< when the shippable report was in hand
};

/// Latency as a user sees it: from the due time, so a generator stall
/// counts against every request it delayed.
[[nodiscard]] double latency_from_due_s(const request_clock& r);

/// How late the generator sent the request (never negative).
[[nodiscard]] double generator_lateness_s(const request_clock& r);

/// Hypervolume dominated by `points` (latency, energy; both minimized)
/// inside the box [0, ref], divided by the box's area: 1 is a point at the
/// origin, 0 is no point better than `ref` in both coordinates.
[[nodiscard]] double normalized_hypervolume(std::vector<std::pair<double, double>> points,
                                            std::pair<double, double> ref);

}  // namespace perfbench
