#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t n = values.size();
  std::sort(values.begin(), values.end());
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double geometric_mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double mean_of_group_means(const std::vector<std::vector<double>>& groups) {
  std::vector<double> means;
  for (const auto& g : groups)
    if (!g.empty()) means.push_back(mean(g));
  return mean(means);
}

double geomean_of_group_geomeans(const std::vector<std::vector<double>>& groups) {
  std::vector<double> means;
  for (const auto& g : groups)
    if (!g.empty()) means.push_back(geometric_mean(g));
  return geometric_mean(means);
}

std::optional<tail_point> tail_percentile(std::vector<double> values, std::size_t min_beyond) {
  const std::size_t n = values.size();
  if (n <= min_beyond) return std::nullopt;
  std::sort(values.begin(), values.end());
  tail_point t;
  t.value = values[n - 1 - min_beyond];
  t.percentile = 100.0 * static_cast<double>(n - min_beyond) / static_cast<double>(n);
  t.samples = n;
  t.beyond = min_beyond;
  return t;
}

double littles_law_wait_s(double mean_queue_length, std::size_t arrivals, double window_s) {
  if (arrivals == 0 || window_s <= 0.0) return 0.0;
  return mean_queue_length * window_s / static_cast<double>(arrivals);
}

double latency_from_due_s(const request_clock& r) { return r.done_s - r.due_s; }

double generator_lateness_s(const request_clock& r) { return std::max(0.0, r.sent_s - r.due_s); }

double normalized_hypervolume(std::vector<std::pair<double, double>> points,
                              std::pair<double, double> ref) {
  const double box = ref.first * ref.second;
  if (box <= 0.0) return 0.0;
  std::erase_if(points,
                [&](const auto& p) { return p.first >= ref.first || p.second >= ref.second; });
  // Sweep by ascending latency; each point adds the strip between its
  // latency and the next one's, up to the best energy seen so far.
  std::sort(points.begin(), points.end());
  double area = 0.0;
  double best_energy = ref.second;
  for (std::size_t i = 0; i < points.size(); ++i) {
    best_energy = std::min(best_energy, points[i].second);
    const double next_latency = i + 1 < points.size() ? points[i + 1].first : ref.first;
    area += (next_latency - points[i].first) * (ref.second - best_energy);
  }
  return area / box;
}

}  // namespace perfbench
