#include "serving/service_config.h"

#include <algorithm>
#include <cmath>
#include "util/json_schema.h"
#include "util/line_codec.h"

namespace mapcq::serving {

namespace {

using util::json::value;
using util::json_schema::element;
using util::json_schema::join;

[[noreturn]] void fail(const std::string& path, const std::string& message) {
  throw config_error(path, message);
}

constexpr std::pair<const char*, core::eviction_policy> eviction_names[] = {
    {"fifo", core::eviction_policy::fifo}, {"lru", core::eviction_policy::lru}};
constexpr std::pair<const char*, admission_policy> policy_names[] = {
    {"block", admission_policy::block}, {"reject", admission_policy::reject}};
constexpr std::pair<const char*, core::selection_mode> selection_names[] = {
    {"hybrid_nsga", core::selection_mode::hybrid_nsga},
    {"objective_only", core::selection_mode::objective_only}};
constexpr std::pair<const char*, core::island_algorithm> algorithm_names[] = {
    {"ga", core::island_algorithm::ga}, {"sa", core::island_algorithm::sa}};
constexpr std::pair<const char*, core::island_orientation> orientation_names[] = {
    {"balanced", core::island_orientation::balanced},
    {"latency", core::island_orientation::latency},
    {"energy", core::island_orientation::energy}};

/// A range check and its exact message.
struct rule {
  bool (*ok)(double);
  const char* message;
  void operator()(double v, const std::string& path) const {
    if (!ok(v)) fail(path, message);
  }
};
constexpr rule at_least_1{[](double v) { return v >= 1.0; }, "must be at least 1"};
constexpr rule at_least_4{[](double v) { return v >= 4.0; }, "must be at least 4"};
constexpr rule open_unit{[](double v) { return v > 0.0 && v < 1.0; },
                         "must be strictly between 0 and 1"};
constexpr rule probability{[](double v) { return v >= 0.0 && v <= 1.0; },
                           "must be between 0 and 1"};
constexpr rule half_open_unit{[](double v) { return v > 0.0 && v <= 1.0; }, "must be in (0, 1]"};
constexpr rule positive{[](double v) { return v > 0.0; }, "must be greater than 0"};
constexpr rule not_negative{[](double v) { return !(v < 0.0); }, "must not be negative"};
constexpr rule finite_non_negative{[](double v) { return std::isfinite(v) && v >= 0.0; },
                                   "must be finite and non-negative"};

// ---------------------------------------------------------------- schema --

template <class O, class T>
concept is = std::same_as<std::remove_const_t<O>, T>;

void describe(auto& v, is<core::engine_options> auto& o) {
  v.field("shards", o.shards, at_least_1);
  v.field("capacity", o.capacity);
  v.field("threads", o.threads);
  v.field("memoize", o.memoize);
  v.field("pin_threads", o.pin_threads);
  v.field("eviction", o.eviction, eviction_names);
}

void describe(auto& v, is<core::island_options> auto& o) {
  v.field("islands", o.islands);
  v.field("migration_interval", o.migration_interval);
  v.field("migrants", o.migrants);
  v.field("polish_fraction", o.polish_fraction, probability);
}

void describe(auto& v, is<core::island_assignment> auto& o) {
  v.field("algorithm", o.algorithm, algorithm_names);
  v.field("orientation", o.orientation, orientation_names);
}

void describe(auto& v, is<core::sa_options> auto& o) {
  v.field("initial_temperature", o.initial_temperature, positive);
  v.field("cooling", o.cooling, half_open_unit);
}

void describe(auto& v, is<core::prefilter_options> auto& o) {
  v.field("enabled", o.enabled);
  v.field("quantile", o.quantile, half_open_unit);
  v.field("warmup_generations", o.warmup_generations);
}

void describe(auto& v, is<core::portfolio_options> auto& o) {
  v.field("islands", o.islands, "island assignments");
  v.field("sa", o.sa);
  v.field("prefilter", o.prefilter);
}

void describe(auto& v, is<core::ga_options> auto& o) {
  v.field("generations", o.generations, at_least_1);
  v.field("population", o.population, at_least_4);
  v.field("elite_fraction", o.elite_fraction, open_unit);
  v.field("crossover_prob", o.crossover_prob, probability);
  v.field("ratio_mutation_prob", o.ratio_mutation_prob, probability);
  v.field("forward_mutation_prob", o.forward_mutation_prob, probability);
  v.field("mapping_swap_prob", o.mapping_swap_prob, probability);
  v.field("dvfs_mutation_prob", o.dvfs_mutation_prob, probability);
  v.field("accuracy_elites", o.accuracy_elites);
  v.field("selection", o.selection, selection_names);
  v.field("island", o.island, [&](const auto& island, const std::string& path) {
    if (island.islands > 0 && island.islands * 4 > o.population)
      fail(join(path, "islands"),
           "would leave an island under 4 members (islands * 4 must not exceed population)");
  });
  v.field("portfolio", o.portfolio, [&](const auto& portfolio, const std::string& path) {
    const std::size_t islands = std::max<std::size_t>(1, o.island.islands);
    if (portfolio.islands.size() > islands)
      fail(join(path, "islands"),
           "has more assignments (" + std::to_string(portfolio.islands.size()) +
               ") than ga.island.islands (" + std::to_string(islands) + ")");
  });
  v.field("seed", o.seed);
  v.field("threads", o.threads);
}

void describe(auto& v, is<scheduler_options> auto& o) {
  v.field("max_queued", o.max_queued);
  v.field("max_inflight_per_session", o.max_inflight_per_session);
  v.field("max_fused", o.max_fused);
  v.field("policy", o.policy, policy_names);
  v.field("coalesce", o.coalesce);
  v.field("default_weight", o.default_weight, at_least_1);
  v.field("weights", o.weights, "session-key -> weight",
          [](const auto& weights, const std::string& path) {
            for (const auto& [lane, weight] : weights) at_least_1(weight, join(path, lane));
          });
}

void describe(auto& v, is<surrogate::refresh_options> auto& o) {
  v.field("enabled", o.enabled);
  v.field("log_capacity", o.log_capacity, at_least_1);
  v.field("min_new_samples", o.min_new_samples, at_least_1);
  v.field("interval_ms", o.interval);
  v.field("holdout_fraction", o.holdout_fraction, open_unit);
  v.field("promotion_margin", o.promotion_margin, not_negative);
  v.field("seed", o.seed);
  v.field("synchronous", o.synchronous);
}

void describe(auto& v, is<snapshot_options> auto& o) {
  v.field("directory", o.directory);
  v.field("spill_on_evict", o.spill_on_evict, [&](bool spill, const std::string& path) {
    if (spill && o.directory.empty())
      fail(path, "requires a snapshot directory (set \"directory\")");
  });
  v.field("restore_on_miss", o.restore_on_miss);
}

void describe(auto& v, is<group_options> auto& o) {
  v.field("shards", o.shards, at_least_1);
  v.field("virtual_nodes", o.virtual_nodes, at_least_1);
}

void describe(auto& v, is<service_options> auto& o) {
  v.field("workers", o.workers, at_least_1);
  v.field("max_sessions", o.max_sessions);
  v.field("session_ttl_ms", o.session_ttl);
  v.field("engine", o.engine);
  v.field("scheduler", o.scheduler);
  v.field("refresh", o.refresh);
  v.field("snapshot", o.snapshot);
}

void describe(auto& v, is<soc::thermal_model> auto& o) {
  v.field("ambient_c", o.ambient_c);
  v.field("r_thermal_c_per_w", o.r_thermal_c_per_w, positive);
  v.field("tau_s", o.tau_s, positive);
  v.field("throttle_c", o.throttle_c, [&](double throttle, const std::string& path) {
    if (!(throttle > o.ambient_c)) fail(path, "must exceed ambient_c");
  });
}

void describe(auto& v, is<soc::resident_load> auto& o) {
  v.field("name", o.name, [](const std::string& name, const std::string& path) {
    if (name.empty()) fail(path, "must not be empty");
  });
  v.field("interconnect_gbps", o.interconnect_gbps, finite_non_negative);
  v.field("dram_gbps", o.dram_gbps, finite_non_negative);
  v.field("power_w", o.power_w, finite_non_negative);
  v.field("shared_memory_bytes", o.shared_memory_bytes, finite_non_negative);
  v.field("reserved_units", o.reserved_units, "CU indices");
}

void describe(auto& v, is<soc::contention_context> auto& o) {
  v.field("residents", o.residents, "resident loads",
          [](const auto& residents, const std::string& path) {
            for (std::size_t i = 0; i < residents.size(); ++i)
              for (std::size_t j = 0; j < i; ++j)
                if (residents[j].name == residents[i].name)
                  fail(element(path, i) + ".name",
                       "duplicate resident name \"" + residents[i].name + "\"");
          });
  v.field("dvfs_cap", o.dvfs_cap, "DVFS levels");
  v.field("thermal", o.thermal);
  v.field("interconnect_alpha", o.interconnect_alpha, finite_non_negative);
  v.field("dram_alpha", o.dram_alpha, finite_non_negative);
  v.field("dram_energy_beta", o.dram_energy_beta, finite_non_negative);
}

/// The service's own fields sit at the top level, followed by three blocks.
void describe(auto& v, is<service_config> auto& o) {
  describe(v, o.service);
  v.field("group", o.group);
  v.field("ga", o.ga);
  v.field("scenario", o.scenario);
}

/// service_config's schema for util::json_schema. A block with its own
/// from_json is range-checked as soon as it is read; ga's sub-blocks are
/// range-checked with ga.
struct schema {
  static void describe(auto& v, auto& o) { serving::describe(v, o); }
  [[noreturn]] static void fail(const std::string& path, const std::string& message) {
    serving::fail(path, message);
  }
  template <class T>
  static constexpr bool checked_on_read = config_block<T>;
};
using binding = util::json_schema::binding<schema>;

}  // namespace

config_error::config_error(std::string path, const std::string& message)
    : std::runtime_error("config error at " + (path.empty() ? std::string("<config>") : path) +
                         ": " + message),
      path_(std::move(path)) {}

template <config_block T>
value to_json(const T& opt) {
  return binding::write(opt);
}

template <config_block T>
void from_json(const value& v, T& out, const std::string& path) {
  binding::read(v, out, path);
}

template <config_block T>
void validate(const T& opt, const std::string& path) {
  binding::check(opt, path);
}

#define MAPCQ_CONFIG_BLOCK(T)                                    \
  template value to_json(const T&);                              \
  template void from_json(const value&, T&, const std::string&); \
  template void validate(const T&, const std::string&);
MAPCQ_CONFIG_BLOCK(core::engine_options)
MAPCQ_CONFIG_BLOCK(core::ga_options)
MAPCQ_CONFIG_BLOCK(scheduler_options)
MAPCQ_CONFIG_BLOCK(surrogate::refresh_options)
MAPCQ_CONFIG_BLOCK(snapshot_options)
MAPCQ_CONFIG_BLOCK(group_options)
MAPCQ_CONFIG_BLOCK(service_options)
MAPCQ_CONFIG_BLOCK(soc::thermal_model)
MAPCQ_CONFIG_BLOCK(soc::resident_load)
MAPCQ_CONFIG_BLOCK(soc::contention_context)
MAPCQ_CONFIG_BLOCK(service_config)
#undef MAPCQ_CONFIG_BLOCK

// ------------------------------------------------------------- top level --

service_config parse_config(std::string_view text) {
  value doc;
  try {
    doc = util::json::parse(text);
  } catch (const util::json::parse_error& e) {
    throw config_error("<json>", e.what());
  }
  service_config cfg;
  from_json(doc, cfg);
  return cfg;
}

service_config load_config(const std::string& file_path) {
  return parse_config(util::read_file(file_path));
}

std::string dump_config(const service_config& cfg, int indent) {
  std::string text = util::json::dump(to_json(cfg), indent);
  if (indent > 0) text += '\n';
  return text;
}

void apply_override(service_config& cfg, std::string_view assignment) {
  const std::size_t eq = assignment.find('=');
  if (eq == std::string_view::npos || eq == 0)
    fail("<override>", "expected dotted.key=value, got \"" + std::string(assignment) + "\"");
  const std::string_view key_path = assignment.substr(0, eq);
  const std::string_view value_text = assignment.substr(eq + 1);

  // Parse the right-hand side as a JSON scalar; bare words ("lru",
  // "reject") fall back to strings so enum values need no shell quoting.
  value rhs;
  try {
    rhs = util::json::parse(value_text);
  } catch (const util::json::parse_error&) {
    rhs = value{std::string(value_text)};
  }

  // Route the edit through the full JSON round-trip so unknown keys and
  // range checks produce the same config_error a file would.
  value doc = to_json(cfg);
  value* cursor = &doc;
  std::string walked;
  std::size_t start = 0;
  for (;;) {
    const std::size_t dot = key_path.find('.', start);
    const std::string_view segment =
        key_path.substr(start, dot == std::string_view::npos ? dot : dot - start);
    if (segment.empty()) fail(std::string(key_path), "empty key segment");
    if (!cursor->is_object() && !cursor->is_null())
      fail(walked, "is a scalar, not a config block");
    walked = join(walked, segment);
    cursor = &cursor->at_or_insert(segment);
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  *cursor = std::move(rhs);

  service_config updated;
  from_json(doc, updated);
  cfg = std::move(updated);
}

}  // namespace mapcq::serving
