// Golden tests of the config schema's error contract and documentation.
//
// Every config_error the JSON config surface can raise is pinned here as
// its full what() string: one single-fault input per failure site (shape,
// type, enum, range, cross-field and unknown-key errors, the "<json>"
// wrapper and the "--set" override errors), plus multi-fault inputs that
// pin which fault wins. The reader's phase order is:
//   * fields are read in schema order, not document order, and a type error
//     stops the read where it occurs;
//   * a nested block with its own from_json (engine, ga, scenario, a
//     resident, thermal, ...) is read, checked for unknown keys and
//     range-checked as soon as it is reached;
//   * ga's inline sub-objects (island, portfolio, sa, prefilter) reject
//     unknown keys when read but are range-checked with the rest of ga;
//   * then the object's own leftover keys are rejected, in document order;
//   * then the object is range-checked, fields in schema order.
// The last tests pin the compact dump of a populated config byte for byte,
// and check that docs/SERVING.md documents exactly the keys to_json emits.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>

#include "serving/service_config.h"
#include "soc/contention.h"
#include "soc/thermal.h"
#include "util/json.h"

namespace {

using namespace mapcq;
namespace json = util::json;
using serving::config_error;
using serving::service_config;

struct golden {
  const char* input;
  const char* what;
};

void expect_parse_error(const golden& g) {
  try {
    (void)serving::parse_config(g.input);
    ADD_FAILURE() << "accepted " << g.input;
  } catch (const config_error& e) {
    EXPECT_EQ(std::string(e.what()), g.what) << "input: " << g.input;
  }
}

void expect_override_error(const golden& g) {
  service_config cfg;
  try {
    serving::apply_override(cfg, g.input);
    ADD_FAILURE() << "accepted override " << g.input;
  } catch (const config_error& e) {
    EXPECT_EQ(std::string(e.what()), g.what) << "override: " << g.input;
  }
  EXPECT_EQ(serving::dump_config(cfg), serving::dump_config(service_config{}));
}

// --- one fault per input ------------------------------------------------------

const golden shape_and_type_errors[] = {
    {R"([])", "config error at <config>: expected a JSON object"},
    {R"(7)", "config error at <config>: expected a JSON object"},
    {R"({"engine": "fast"})", "config error at engine: expected a JSON object"},
    {R"({"scheduler": []})", "config error at scheduler: expected a JSON object"},
    {R"({"refresh": 1})", "config error at refresh: expected a JSON object"},
    {R"({"snapshot": true})", "config error at snapshot: expected a JSON object"},
    {R"({"group": null})", "config error at group: expected a JSON object"},
    {R"({"ga": "x"})", "config error at ga: expected a JSON object"},
    {R"({"scenario": []})", "config error at scenario: expected a JSON object"},
    {R"({"ga": {"island": 3}})", "config error at ga.island: expected a JSON object"},
    {R"({"ga": {"portfolio": []}})", "config error at ga.portfolio: expected a JSON object"},
    {R"({"ga": {"portfolio": {"sa": 1}}})",
     "config error at ga.portfolio.sa: expected a JSON object"},
    {R"({"ga": {"portfolio": {"prefilter": true}}})",
     "config error at ga.portfolio.prefilter: expected a JSON object"},
    {R"({"ga": {"portfolio": {"islands": [3]}}})",
     "config error at ga.portfolio.islands[0]: expected a JSON object"},
    {R"({"scenario": {"residents": ["a"]}})",
     "config error at scenario.residents[0]: expected a JSON object"},
    {R"({"scenario": {"thermal": 1}})", "config error at scenario.thermal: expected a JSON object"},
    // booleans
    {R"({"engine": {"memoize": 1}})", "config error at engine.memoize: expected a boolean"},
    {R"({"engine": {"pin_threads": "no"}})",
     "config error at engine.pin_threads: expected a boolean"},
    {R"({"scheduler": {"coalesce": null}})",
     "config error at scheduler.coalesce: expected a boolean"},
    {R"({"refresh": {"enabled": 0}})", "config error at refresh.enabled: expected a boolean"},
    {R"({"refresh": {"synchronous": "true"}})",
     "config error at refresh.synchronous: expected a boolean"},
    {R"({"snapshot": {"spill_on_evict": 1}})",
     "config error at snapshot.spill_on_evict: expected a boolean"},
    {R"({"snapshot": {"restore_on_miss": []}})",
     "config error at snapshot.restore_on_miss: expected a boolean"},
    {R"({"ga": {"portfolio": {"prefilter": {"enabled": 1}}}})",
     "config error at ga.portfolio.prefilter.enabled: expected a boolean"},
    // numbers
    {R"({"ga": {"elite_fraction": "x"}})", "config error at ga.elite_fraction: expected a number"},
    {R"({"ga": {"crossover_prob": true}})", "config error at ga.crossover_prob: expected a number"},
    {R"({"ga": {"island": {"polish_fraction": null}}})",
     "config error at ga.island.polish_fraction: expected a number"},
    {R"({"ga": {"portfolio": {"sa": {"cooling": "x"}}}})",
     "config error at ga.portfolio.sa.cooling: expected a number"},
    {R"({"refresh": {"holdout_fraction": []}})",
     "config error at refresh.holdout_fraction: expected a number"},
    {R"({"scenario": {"dram_alpha": "x"}})",
     "config error at scenario.dram_alpha: expected a number"},
    {R"({"scenario": {"thermal": {"ambient_c": "hot"}}})",
     "config error at scenario.thermal.ambient_c: expected a number"},
    {R"({"scenario": {"residents": [{"name": "a", "power_w": {}}]}})",
     "config error at scenario.residents[0].power_w: expected a number"},
    // strings
    {R"({"snapshot": {"directory": 5}})", "config error at snapshot.directory: expected a string"},
    {R"({"scenario": {"residents": [{"name": 1}]}})",
     "config error at scenario.residents[0].name: expected a string"},
    // non-negative integers and _ms durations
    {R"({"workers": "2"})", "config error at workers: expected a non-negative integer"},
    {R"({"max_sessions": -1})", "config error at max_sessions: expected a non-negative integer"},
    {R"({"session_ttl_ms": -5})",
     "config error at session_ttl_ms: expected a non-negative integer"},
    {R"({"refresh": {"interval_ms": 0.5}})",
     "config error at refresh.interval_ms: expected a non-negative integer"},
    {R"({"ga": {"seed": 1.5}})", "config error at ga.seed: expected a non-negative integer"},
    {R"({"ga": {"threads": 1e16}})", "config error at ga.threads: expected a non-negative integer"},
    {R"({"engine": {"capacity": true}})",
     "config error at engine.capacity: expected a non-negative integer"},
    {R"({"ga": {"portfolio": {"prefilter": {"warmup_generations": -2}}}})",
     "config error at ga.portfolio.prefilter.warmup_generations: expected a non-negative integer"},
    {R"({"group": {"virtual_nodes": 2.5}})",
     "config error at group.virtual_nodes: expected a non-negative integer"},
    // enums
    {R"({"engine": {"eviction": 1}})", "config error at engine.eviction: expected a string"},
    {R"({"engine": {"eviction": "random"}})",
     R"(config error at engine.eviction: unknown value "random" (expected "fifo" | "lru"))"},
    {R"({"scheduler": {"policy": "drop"}})",
     R"(config error at scheduler.policy: unknown value "drop" (expected "block" | "reject"))"},
    {R"({"ga": {"selection": "nsga"}})",
     R"(config error at ga.selection: unknown value "nsga" (expected "hybrid_nsga" | )"
     R"("objective_only"))"},
    {R"({"ga": {"portfolio": {"islands": [{"algorithm": "tabu"}]}}})",
     R"(config error at ga.portfolio.islands[0].algorithm: unknown value "tabu" (expected )"
     R"("ga" | "sa"))"},
    {R"({"ga": {"portfolio": {"islands": [{"orientation": "power"}]}}})",
     "config error at ga.portfolio.islands[0].orientation: unknown value \"power\" (expected "
     "\"balanced\" | \"latency\" | \"energy\")"},
    {R"({"ga": {"portfolio": {"islands": [{"orientation": 2}]}}})",
     "config error at ga.portfolio.islands[0].orientation: expected a string"},
    // arrays and maps
    {R"({"ga": {"portfolio": {"islands": {}}}})",
     "config error at ga.portfolio.islands: expected an array of island assignments"},
    {R"({"scheduler": {"weights": []}})",
     "config error at scheduler.weights: expected an object of session-key -> weight"},
    {R"({"scheduler": {"weights": {"a": -1}}})",
     "config error at scheduler.weights.a: expected a non-negative integer"},
    {R"({"scheduler": {"weights": {"a": 1.5}}})",
     "config error at scheduler.weights.a: expected a non-negative integer"},
    {R"({"scheduler": {"weights": {"a": "2"}}})",
     "config error at scheduler.weights.a: expected a non-negative integer"},
    {R"({"scenario": {"residents": {}}})",
     "config error at scenario.residents: expected an array of resident loads"},
    {R"({"scenario": {"dvfs_cap": "high"}})",
     "config error at scenario.dvfs_cap: expected an array of DVFS levels"},
    {R"({"scenario": {"dvfs_cap": [1, 2.5]}})",
     "config error at scenario.dvfs_cap[1]: expected a non-negative integer"},
    {R"({"scenario": {"dvfs_cap": [true]}})",
     "config error at scenario.dvfs_cap[0]: expected a non-negative integer"},
    {R"({"scenario": {"residents": [{"name": "a", "reserved_units": 1}]}})",
     "config error at scenario.residents[0].reserved_units: expected an array of CU indices"},
    {R"({"scenario": {"residents": [{"name": "a", "reserved_units": [0, -1]}]}})",
     "config error at scenario.residents[0].reserved_units[1]: expected a non-negative integer"},
    // malformed JSON
    {R"({"workers": })",
     "config error at <json>: json parse error at line 1, column 13: invalid number"},
    {"{\"a\": 1, \"a\": 2}",
     "config error at <json>: json parse error at line 1, column 13: duplicate object key \"a\""},
};

const golden unknown_keys[] = {
    {R"({"typo": 1})", "config error at typo: unknown key"},
    {R"({"engine": {"shard_count": 4}})", "config error at engine.shard_count: unknown key"},
    {R"({"engine": {"soa_batch": true}})", "config error at engine.soa_batch: unknown key"},
    {R"({"scheduler": {"lanes": {}}})", "config error at scheduler.lanes: unknown key"},
    {R"({"refresh": {"interval": 5}})", "config error at refresh.interval: unknown key"},
    {R"({"snapshot": {"dir": "x"}})", "config error at snapshot.dir: unknown key"},
    {R"({"group": {"replicas": 2}})", "config error at group.replicas: unknown key"},
    {R"({"ga": {"budget": 2}})", "config error at ga.budget: unknown key"},
    {R"({"ga": {"island": {"migrantz": 1}}})", "config error at ga.island.migrantz: unknown key"},
    {R"({"ga": {"portfolio": {"x": 1}}})", "config error at ga.portfolio.x: unknown key"},
    {R"({"ga": {"portfolio": {"sa": {"t0": 1}}}})",
     "config error at ga.portfolio.sa.t0: unknown key"},
    {R"({"ga": {"portfolio": {"prefilter": {"q": 1}}}})",
     "config error at ga.portfolio.prefilter.q: unknown key"},
    {R"({"ga": {"portfolio": {"islands": [{"algo": "sa"}]}}})",
     "config error at ga.portfolio.islands[0].algo: unknown key"},
    {R"({"scenario": {"loads": []}})", "config error at scenario.loads: unknown key"},
    {R"({"scenario": {"residents": [{"name": "a", "gbps": 1}]}})",
     "config error at scenario.residents[0].gbps: unknown key"},
    {R"({"scenario": {"thermal": {"tau_z": 3}}})",
     "config error at scenario.thermal.tau_z: unknown key"},
};

const golden range_errors[] = {
    {R"({"workers": 0})", "config error at workers: must be at least 1"},
    {R"({"engine": {"shards": 0}})", "config error at engine.shards: must be at least 1"},
    {R"({"ga": {"generations": 0}})", "config error at ga.generations: must be at least 1"},
    {R"({"ga": {"population": 3}})", "config error at ga.population: must be at least 4"},
    {R"({"ga": {"elite_fraction": 0}})",
     "config error at ga.elite_fraction: must be strictly between 0 and 1"},
    {R"({"ga": {"elite_fraction": 1}})",
     "config error at ga.elite_fraction: must be strictly between 0 and 1"},
    {R"({"ga": {"crossover_prob": 1.5}})",
     "config error at ga.crossover_prob: must be between 0 and 1"},
    {R"({"ga": {"ratio_mutation_prob": -0.1}})",
     "config error at ga.ratio_mutation_prob: must be between 0 and 1"},
    {R"({"ga": {"forward_mutation_prob": 2}})",
     "config error at ga.forward_mutation_prob: must be between 0 and 1"},
    {R"({"ga": {"mapping_swap_prob": -1}})",
     "config error at ga.mapping_swap_prob: must be between 0 and 1"},
    {R"({"ga": {"dvfs_mutation_prob": 1.01}})",
     "config error at ga.dvfs_mutation_prob: must be between 0 and 1"},
    {R"({"ga": {"population": 8, "island": {"islands": 3}}})",
     "config error at ga.island.islands: would leave an island under 4 members (islands * 4 must "
     "not exceed population)"},
    {R"({"ga": {"island": {"polish_fraction": 1.5}}})",
     "config error at ga.island.polish_fraction: must be between 0 and 1"},
    {R"({"ga": {"portfolio": {"islands": [{}, {}]}}})",
     "config error at ga.portfolio.islands: has more assignments (2) than ga.island.islands (1)"},
    {R"({"ga": {"island": {"islands": 0}, "portfolio": {"islands": [{}, {}]}}})",
     "config error at ga.portfolio.islands: has more assignments (2) than ga.island.islands (1)"},
    {R"({"ga": {"portfolio": {"sa": {"initial_temperature": 0}}}})",
     "config error at ga.portfolio.sa.initial_temperature: must be greater than 0"},
    {R"({"ga": {"portfolio": {"sa": {"cooling": 0}}}})",
     "config error at ga.portfolio.sa.cooling: must be in (0, 1]"},
    {R"({"ga": {"portfolio": {"sa": {"cooling": 1.5}}}})",
     "config error at ga.portfolio.sa.cooling: must be in (0, 1]"},
    {R"({"ga": {"portfolio": {"prefilter": {"quantile": 0}}}})",
     "config error at ga.portfolio.prefilter.quantile: must be in (0, 1]"},
    {R"({"scheduler": {"default_weight": 0}})",
     "config error at scheduler.default_weight: must be at least 1"},
    {R"({"scheduler": {"weights": {"lane": 0}}})",
     "config error at scheduler.weights.lane: must be at least 1"},
    {R"({"refresh": {"log_capacity": 0}})",
     "config error at refresh.log_capacity: must be at least 1"},
    {R"({"refresh": {"min_new_samples": 0}})",
     "config error at refresh.min_new_samples: must be at least 1"},
    {R"({"refresh": {"holdout_fraction": 1}})",
     "config error at refresh.holdout_fraction: must be strictly between 0 and 1"},
    {R"({"refresh": {"promotion_margin": -0.5}})",
     "config error at refresh.promotion_margin: must not be negative"},
    {R"({"snapshot": {"spill_on_evict": true}})",
     R"(config error at snapshot.spill_on_evict: requires a snapshot directory (set "directory"))"},
    {R"({"group": {"shards": 0}})", "config error at group.shards: must be at least 1"},
    {R"({"group": {"virtual_nodes": 0}})",
     "config error at group.virtual_nodes: must be at least 1"},
    {R"({"scenario": {"thermal": {"r_thermal_c_per_w": 0}}})",
     "config error at scenario.thermal.r_thermal_c_per_w: must be greater than 0"},
    {R"({"scenario": {"thermal": {"tau_s": -1}}})",
     "config error at scenario.thermal.tau_s: must be greater than 0"},
    {R"({"scenario": {"thermal": {"throttle_c": 10, "ambient_c": 50}}})",
     "config error at scenario.thermal.throttle_c: must exceed ambient_c"},
    {R"({"scenario": {"residents": [{}]}})",
     "config error at scenario.residents[0].name: must not be empty"},
    {R"({"scenario": {"residents": [{"name": "a", "interconnect_gbps": -1}]}})",
     "config error at scenario.residents[0].interconnect_gbps: must be finite and non-negative"},
    {R"({"scenario": {"residents": [{"name": "a", "dram_gbps": -1}]}})",
     "config error at scenario.residents[0].dram_gbps: must be finite and non-negative"},
    {R"({"scenario": {"residents": [{"name": "a", "power_w": -1}]}})",
     "config error at scenario.residents[0].power_w: must be finite and non-negative"},
    {R"({"scenario": {"residents": [{"name": "a", "shared_memory_bytes": -1}]}})",
     "config error at scenario.residents[0].shared_memory_bytes: must be finite and non-negative"},
    {R"({"scenario": {"residents": [{"name": "a"}, {"name": "b"}, {"name": "a"}]}})",
     R"(config error at scenario.residents[2].name: duplicate resident name "a")"},
    {R"({"scenario": {"interconnect_alpha": -0.5}})",
     "config error at scenario.interconnect_alpha: must be finite and non-negative"},
    {R"({"scenario": {"dram_alpha": -1}})",
     "config error at scenario.dram_alpha: must be finite and non-negative"},
    {R"({"scenario": {"dram_energy_beta": -1}})",
     "config error at scenario.dram_energy_beta: must be finite and non-negative"},
};

TEST(config_schema_golden, shape_and_type_errors) {
  for (const golden& g : shape_and_type_errors) expect_parse_error(g);
}

TEST(config_schema_golden, unknown_keys) {
  for (const golden& g : unknown_keys) expect_parse_error(g);
}

TEST(config_schema_golden, range_errors) {
  for (const golden& g : range_errors) expect_parse_error(g);
}

// --- which fault wins ---------------------------------------------------------

const golden phase_order[] = {
    // A type error wins over an unknown key ...
    {R"({"typo": 1, "workers": "x"})", "config error at workers: expected a non-negative integer"},
    // ... which wins over a range error.
    {R"({"workers": 0, "typo": 1})", "config error at typo: unknown key"},
    // A nested block is range-checked before its parent's leftover keys.
    {R"({"engine": {"shards": 0}, "typo": 1})",
     "config error at engine.shards: must be at least 1"},
    {R"({"engine": {"typo": 1}, "ga": {"generations": "x"}})",
     "config error at engine.typo: unknown key"},
    // Fields are read in schema order, not document order.
    {R"({"ga": {"generations": 0}, "engine": {"shards": "x"}})",
     "config error at engine.shards: expected a non-negative integer"},
    {R"({"ga": {"threads": "x", "generations": "y"}})",
     "config error at ga.generations: expected a non-negative integer"},
    // Leftover keys are reported in document order.
    {R"({"b_typo": 1, "a_typo": 2})", "config error at b_typo: unknown key"},
    // The top-level workers check runs after every block was read.
    {R"({"workers": 0, "scenario": {"dram_alpha": -1}})",
     "config error at scenario.dram_alpha: must be finite and non-negative"},
    // ga's inline sub-objects reject unknown keys on read but are
    // range-checked with ga, after all of ga was read.
    {R"({"ga": {"island": {"polish_fraction": 2}, "seed": "x"}})",
     "config error at ga.seed: expected a non-negative integer"},
    {R"({"ga": {"island": {"polish_fraction": 2}, "typo": 1}})",
     "config error at ga.typo: unknown key"},
    {R"({"ga": {"island": {"typo": 1}, "seed": "x"}})",
     "config error at ga.island.typo: unknown key"},
    // A cross-field rule fires at its field's place in the schema.
    {R"({"ga": {"population": 8, "island": {"islands": 3, "polish_fraction": 2}}})",
     "config error at ga.island.islands: would leave an island under 4 members (islands * 4 must "
     "not exceed population)"},
    {R"({"ga": {"elite_fraction": 0, "island": {"islands": 100}}})",
     "config error at ga.elite_fraction: must be strictly between 0 and 1"},
    // Residents are checked element by element as they are read; the
    // duplicate-name rule runs before the scenario's own coefficients.
    {R"({"scenario": {"residents": [{"name": "a", "dram_gbps": -1}, 5]}})",
     "config error at scenario.residents[0].dram_gbps: must be finite and non-negative"},
    {R"({"scenario": {"residents": [{"name": "a"}, {"name": "a"}], "interconnect_alpha": -1}})",
     R"(config error at scenario.residents[1].name: duplicate resident name "a")"},
    // The thermal block is range-checked when read.
    {R"({"scenario": {"thermal": {"tau_s": 0}, "dram_alpha": "x"}})",
     "config error at scenario.thermal.tau_s: must be greater than 0"},
    {R"({"scheduler": {"default_weight": 0, "weights": "x"}})",
     "config error at scheduler.weights: expected an object of session-key -> weight"},
    {R"({"snapshot": {"spill_on_evict": true, "directory": 1}})",
     "config error at snapshot.directory: expected a string"},
};

TEST(config_schema_golden, phase_order_picks_the_same_fault) {
  for (const golden& g : phase_order) expect_parse_error(g);
}

// --- overrides ----------------------------------------------------------------

const golden override_errors[] = {
    {"ga.generations",
     R"(config error at <override>: expected dotted.key=value, got "ga.generations")"},
    {"=5", R"(config error at <override>: expected dotted.key=value, got "=5")"},
    {"ga..generations=5", "config error at ga..generations: empty key segment"},
    {".x=1", "config error at .x: empty key segment"},
    {"x.=1", "config error at x.: empty key segment"},
    {"workers.x=1", "config error at workers: is a scalar, not a config block"},
    {"ga.portfolio.islands.x=1",
     "config error at ga.portfolio.islands: is a scalar, not a config block"},
    {"ga.nope=1", "config error at ga.nope: unknown key"},
    {"ga.population=2", "config error at ga.population: must be at least 4"},
    {"ga.generations=", "config error at ga.generations: expected a non-negative integer"},
    {"engine.eviction=random",
     R"(config error at engine.eviction: unknown value "random" (expected "fifo" | "lru"))"},
    {"scenario.thermal.tau_s=0", "config error at scenario.thermal.tau_s: must be greater than 0"},
};

TEST(config_schema_golden, override_errors) {
  for (const golden& g : override_errors) expect_override_error(g);
}

// --- per-struct entry points and their default roots ------------------------

template <class Opt>
std::string from_json_error(const char* text) {
  Opt out;
  try {
    serving::from_json(json::parse(text), out);
  } catch (const config_error& e) {
    return e.what();
  }
  return "accepted";
}

template <class Opt>
std::string validate_error(const Opt& opt) {
  try {
    serving::validate(opt);
  } catch (const config_error& e) {
    return e.what();
  }
  return "accepted";
}

TEST(config_schema_golden, per_struct_entry_points_root_at_their_block_name) {
  EXPECT_EQ(from_json_error<serving::service_options>(R"({"workers": 0})"),
            "config error at service.workers: must be at least 1");
  EXPECT_EQ(from_json_error<serving::service_options>(R"({"group": {}})"),
            "config error at service.group: unknown key");
  EXPECT_EQ(from_json_error<core::engine_options>(R"({"shards": 0})"),
            "config error at engine.shards: must be at least 1");
  EXPECT_EQ(from_json_error<soc::resident_load>(R"({"name": "a", "power_w": -1})"),
            "config error at resident.power_w: must be finite and non-negative");
  EXPECT_EQ(from_json_error<soc::thermal_model>(R"([])"),
            "config error at thermal: expected a JSON object");

  service_config cfg;
  cfg.ga.population = 2;
  EXPECT_EQ(validate_error(cfg), "config error at ga.population: must be at least 4");
  cfg = service_config{};
  cfg.service.scheduler.weights["x"] = 0;
  EXPECT_EQ(validate_error(cfg), "config error at scheduler.weights.x: must be at least 1");
  soc::thermal_model thermal;
  thermal.tau_s = 0.0;
  EXPECT_EQ(validate_error(thermal), "config error at thermal.tau_s: must be greater than 0");
  EXPECT_EQ(validate_error(service_config{}), "accepted");
}

// --- integers beyond 2^53 -------------------------------------------------------

// Array elements and map values go through the same integer reader as
// scalar fields, so a whole number too large to hold exactly is rejected
// rather than cast to size_t.
TEST(config_schema_golden, out_of_range_integers_in_arrays_and_maps_are_rejected) {
  const golden cases[] = {
      {R"({"scheduler": {"weights": {"lane": 1e20}}})",
       "config error at scheduler.weights.lane: expected a non-negative integer"},
      {R"({"scenario": {"dvfs_cap": [1e20]}})",
       "config error at scenario.dvfs_cap[0]: expected a non-negative integer"},
      {R"({"scenario": {"residents": [{"name": "a", "reserved_units": [1e20]}]}})",
       "config error at scenario.residents[0].reserved_units[0]: expected a non-negative integer"},
  };
  for (const golden& g : cases) expect_parse_error(g);
  // 2^53 itself is exact and still accepted, scalar or element.
  const service_config cfg = serving::parse_config(
      R"({"ga": {"seed": 9007199254740992}, "scenario": {"dvfs_cap": [9007199254740992]}})");
  EXPECT_EQ(cfg.ga.seed, 9007199254740992ULL);
  EXPECT_EQ(cfg.scenario.dvfs_cap.at(0), 9007199254740992ULL);
}

// Whole-number tokens are read and written exactly to 64 bits, so a seed
// above 2^53 survives dump_config -> parse_config and an override.
TEST(config_schema_golden, seeds_above_2_53_round_trip_exactly) {
  for (const std::uint64_t seed : {0xdeadbeefcafebabeULL, (1ULL << 53) + 1}) {
    service_config cfg;
    cfg.ga.seed = seed;
    cfg.service.refresh.seed = seed;
    for (const int indent : {0, 2}) {
      const service_config back = serving::parse_config(serving::dump_config(cfg, indent));
      EXPECT_EQ(back.ga.seed, seed);
      EXPECT_EQ(back.service.refresh.seed, seed);
      EXPECT_EQ(serving::dump_config(back, indent), serving::dump_config(cfg, indent));
    }
    service_config overridden;
    serving::apply_override(overridden, "ga.seed=" + std::to_string(seed));
    serving::apply_override(overridden, "refresh.seed=" + std::to_string(seed));
    EXPECT_EQ(overridden.ga.seed, seed);
    EXPECT_EQ(overridden.service.refresh.seed, seed);
  }
  service_config cfg;
  cfg.ga.seed = 0xdeadbeefcafebabeULL;
  EXPECT_NE(serving::dump_config(cfg, 0).find(R"("seed":16045690984503098046)"), std::string::npos);
  // Past 2^64 a token is a double again, and too large to be exact.
  expect_parse_error({R"({"ga": {"seed": 18446744073709551616}})",
                      "config error at ga.seed: expected a non-negative integer"});
}

// --- the serialized form --------------------------------------------------------

service_config populated_config() {
  service_config cfg;
  soc::resident_load r;
  r.name = "neighbor";
  r.dram_gbps = 1.5;
  r.reserved_units = {1};
  cfg.scenario.residents.push_back(r);
  cfg.scenario.thermal = soc::thermal_model{};
  cfg.ga.island.islands = 2;
  cfg.ga.portfolio.islands.push_back(
      {core::island_algorithm::sa, core::island_orientation::energy});
  return cfg;
}

TEST(config_schema_golden, compact_dump_is_pinned) {
  service_config cfg = populated_config();
  cfg.service.scheduler.weights = {{"b", 2}, {"a", 3}};
  cfg.service.session_ttl = std::chrono::milliseconds{1500};
  const std::string expected =
      R"({"workers":2,"max_sessions":0,"session_ttl_ms":1500,"engine":{"shards":16,)"
      R"("capacity":65536,"threads":0,"memoize":true,"pin_threads":false,"eviction":"lru"},)"
      R"("scheduler":{"max_queued":0,"max_inflight_per_session":0,"max_fused":1,"policy":"block",)"
      R"("coalesce":true,"default_weight":1,"weights":{"a":3,"b":2}},"refresh":{"enabled":false,)"
      R"("log_capacity":4096,"min_new_samples":512,"interval_ms":0,"holdout_fraction":0.25,)"
      R"("promotion_margin":0,"seed":1592651789,"synchronous":false},"snapshot":{"directory":"",)"
      R"("spill_on_evict":false,"restore_on_miss":true},"group":{"shards":2,"virtual_nodes":32},)"
      R"("ga":{"generations":200,"population":60,"elite_fraction":0.25,"crossover_prob":0.9,)"
      R"("ratio_mutation_prob":0.2,"forward_mutation_prob":0.15,"mapping_swap_prob":0.3,)"
      R"("dvfs_mutation_prob":0.3,"accuracy_elites":2,"selection":"hybrid_nsga",)"
      R"("island":{"islands":2,"migration_interval":2,"migrants":2,"polish_fraction":0.7},)"
      R"("portfolio":{"islands":[{"algorithm":"sa","orientation":"energy"}],)"
      R"("sa":{"initial_temperature":1,"cooling":0.85},"prefilter":{"enabled":false,)"
      R"("quantile":0.5,"warmup_generations":2}},"seed":1,"threads":12},)"
      R"("scenario":{"residents":[{"name":"neighbor","interconnect_gbps":0,"dram_gbps":1.5,)"
      R"("power_w":0,"shared_memory_bytes":0,"reserved_units":[1]}],"dvfs_cap":[],)"
      R"("thermal":{"ambient_c":35,"r_thermal_c_per_w":1.8,"tau_s":18,"throttle_c":87},)"
      R"("interconnect_alpha":1,"dram_alpha":0.6,"dram_energy_beta":0.35}})";
  EXPECT_EQ(serving::dump_config(cfg, 0), expected);
  EXPECT_EQ(serving::dump_config(serving::parse_config(serving::dump_config(cfg)), 0),
            serving::dump_config(cfg, 0));
}

// --- SERVING.md documents exactly the emitted keys ------------------------------

// Every key path in `v`; array elements appear as "[i]". `leaves` gets
// the paths whose value is not an object (blocks need no row of their own).
void collect_paths(const json::value& v, const std::string& prefix, std::set<std::string>& all,
                   std::set<std::string>& leaves) {
  for (const auto& [key, member] : v.as_object()) {
    const std::string path = prefix + key;
    all.insert(path);
    if (member.is_object()) {
      collect_paths(member, path + ".", all, leaves);
      continue;
    }
    leaves.insert(path);
    if (member.is_array())
      for (const json::value& e : member.as_array())
        if (e.is_object()) collect_paths(e, path + "[i].", all, leaves);
  }
}

// Backticked first-column keys of every config table: a table whose header
// cell is "Top-level key" (prefix "") or `block.*` (prefix "block.").
std::set<std::string> documented_keys(std::istream& doc) {
  std::set<std::string> keys;
  std::string line;
  std::string prefix;
  bool in_table = false;
  bool config_table = false;
  while (std::getline(doc, line)) {
    if (line.empty() || line[0] != '|') {
      in_table = false;
      continue;
    }
    const std::size_t end = line.find('|', 1);
    const std::string cell = line.substr(1, end == std::string::npos ? end : end - 1);
    if (!in_table) {  // header row
      in_table = true;
      config_table = true;
      if (cell.find("Top-level key") != std::string::npos) {
        prefix.clear();
      } else if (const std::size_t star = cell.find(".*`"); star != std::string::npos) {
        prefix = cell.substr(cell.find('`') + 1, star - cell.find('`'));
      } else {
        config_table = false;
      }
      continue;
    }
    if (!config_table || cell.find("---") != std::string::npos) continue;
    for (std::size_t open = cell.find('`'); open != std::string::npos;) {
      const std::size_t close = cell.find('`', open + 1);
      keys.insert(prefix + cell.substr(open + 1, close - open - 1));
      open = cell.find('`', close + 1);
    }
  }
  return keys;
}

TEST(config_schema_docs, serving_md_tables_match_the_emitted_keys) {
  const char* src = std::getenv("MAPCQ_SOURCE_DIR");
  ASSERT_NE(src, nullptr) << "MAPCQ_SOURCE_DIR not set (run under ctest)";
  std::ifstream doc{std::string(src) + "/docs/SERVING.md"};
  ASSERT_TRUE(doc) << "cannot open docs/SERVING.md";
  const std::set<std::string> documented = documented_keys(doc);

  std::set<std::string> all;
  std::set<std::string> leaves;
  collect_paths(serving::to_json(populated_config()), "", all, leaves);
  ASSERT_GT(leaves.size(), 50u);

  for (const std::string& key : leaves)
    EXPECT_TRUE(documented.count(key)) << key << " is emitted but has no row in docs/SERVING.md";
  for (const std::string& key : documented)
    EXPECT_TRUE(all.count(key)) << key << " is documented in docs/SERVING.md but not emitted";
}

}  // namespace
