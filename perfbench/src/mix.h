#pragma once
// The four benchmark workloads and the request mixes they send, generated
// from the workload seed alone. The program under test only ever sees the
// generated requests.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class workload { analytic_cold, surrogate_sessions, warm_replay, session_churn };

[[nodiscard]] std::optional<workload> parse_workload(std::string_view name);
[[nodiscard]] const char* name_of(workload w);

/// Fixed per-workload shape: how traffic is driven and judged.
struct workload_spec {
  bool open_loop = false;
  std::size_t clients = 2;           ///< closed loop: concurrent callers
  double arrival_rate_per_s = 0.0;   ///< open loop: Poisson rate of distinct arrivals
  double duplicate_share = 0.0;      ///< open loop: chance an arrival is followed by its exact copy
  bool use_surrogate = false;
  std::size_t max_sessions = 0;      ///< service LRU cap; 0 = unbounded
  double latency_limit_ms = 0.0;     ///< within_limit_ratio threshold
  std::size_t quality_prefix = 0;    ///< first K requests scored for quality and digested
};

[[nodiscard]] workload_spec spec_of(workload w);

/// A session tuple: everything that keys a serving session.
struct tuple_spec {
  std::size_t net = 0;      ///< 0 = Visformer, 1 = VGG19
  double reuse_cap = 1.0;   ///< fmap reuse cap (paper §VI-B)
  bool targets = false;     ///< latency and energy targets on (eq. 15)
  std::uint64_t ranking_seed = 0xC0FFEE;  ///< channel-ranking seed
};

enum class orientation { balanced, latency, energy };

struct gen_request {
  std::size_t tuple = 0;
  std::uint64_t ga_seed = 1;
  orientation orient = orientation::balanced;
  int priority = 0;
  double arrival_s = 0.0;  ///< open loop: due time from the window start
  bool duplicate = false;  ///< exact copy of the request before it
  /// Closed loop: this request's session is not live when it is sent, so it
  /// creates the session (cold start, training or restore from disk).
  bool creates = false;
};

struct request_mix {
  workload kind = workload::analytic_cold;
  std::vector<tuple_spec> tuples;
  /// Per tuple, the GA seeds searched during set-up; timed requests of the
  /// warm workloads only repeat these.
  std::vector<std::vector<std::uint64_t>> warm_seeds;
  std::vector<gen_request> requests;
};

/// Generates the mix of workload `w` for `seed`. Open-loop arrivals cover
/// [0, seconds); closed-loop mixes are longer than any run consumes.
[[nodiscard]] request_mix generate_mix(workload w, std::uint64_t seed, double seconds);

/// Counts per tuple, orientation and priority plus the duplicate share:
/// equal across seeds up to sampling noise, while the requests differ.
[[nodiscard]] std::string describe_shape(const request_mix& mix);

/// FNV-1a digest of every generated field.
[[nodiscard]] std::uint64_t fingerprint(const request_mix& mix);

/// FNV-1a 64-bit hash, chained through `h`.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t h = 0xcbf29ce484222325ULL);

}  // namespace perfbench
