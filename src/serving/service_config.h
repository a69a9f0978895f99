#pragma once
// The unified, serializable configuration surface of the serving stack.
// One JSON document (`service_config`) boots a `mapping_service` or a
// `service_group`, and every `mapping_report` records the exact effective
// config that produced it.
//
// The schema. Each option struct is described exactly once, by its
// describe(visitor, struct) function in service_config.cpp: its fields in
// JSON order, each with its key, member and an optional range check that
// carries its message. The member's type gives the field's kind (the table
// is in util/json_schema.h, whose reader, writer and checker walk that one
// list for from_json, to_json and validate). To add a knob, add the member
// to its option struct, one describe() line, and one row to the config
// tables of docs/SERVING.md; test_config_schema checks those tables
// against to_json's keys.
//
// The contract:
//   * to_json(x) emits every field, defaults included, in schema order.
//     Equal configs therefore dump to byte-identical text (the bit-identity
//     tests gate on it). Durations are integral milliseconds under a `_ms`
//     key, enums are strings, map entries are sorted by key.
//   * from_json starts from the struct's current values and overwrites the
//     fields present. Every failure is a `config_error` naming the dotted
//     key path ("ga.elite_fraction") and a fixed message, never a bare json
//     error. When a document has several faults, the one reported is fixed
//     too (util/json_schema.h gives the order). A nested block with its own
//     from_json (engine, ga, a resident, ...) is range-checked as soon as
//     it is read; ga's sub-objects are range-checked with ga.
//     tests/test_config_schema.cpp pins every message.
//   * validate(x) runs the same range checks on a struct built in code.

#include <stdexcept>
#include <string>
#include <string_view>

#include "serving/mapping_service.h"
#include "serving/service_group.h"
#include "util/json.h"

namespace mapcq::serving {

/// Typed configuration failure: a dotted key path ("scheduler.policy")
/// plus what was wrong with it. Thrown by from_json / validate /
/// apply_override; parse_config wraps json::parse_error into one with the
/// pseudo-path "<json>".
class config_error : public std::runtime_error {
 public:
  config_error(std::string path, const std::string& message);
  /// Dotted path of the offending key, e.g. "ga.island.polish_fraction".
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// The complete boot configuration of a serving deployment: the service's
/// own knobs (engine / scheduler / refresh / snapshot blocks, worker
/// counts, session lifecycle), the shard topology a `service_group` boot
/// applies, plus the GA search budget requests will run with. The JSON
/// form is one object with the blocks at top level:
///   { "workers": .., "max_sessions": .., "session_ttl_ms": ..,
///     "engine": {..}, "scheduler": {..}, "refresh": {..},
///     "snapshot": {..}, "group": {..}, "ga": {..}, "scenario": {..} }
struct service_config {
  service_options service;  ///< engine/scheduler/refresh/snapshot + lifecycle
  /// Shard topology, consumed only by service_group boots (a plain
  /// mapping_service ignores it). Deployment metadata, not evaluation
  /// semantics: mapping_report::effective_config deliberately stamps the
  /// default group so reports stay bit-identical across reshards.
  group_options group;
  core::ga_options ga;      ///< search budget applied to each request
  /// Co-location scenario applied to each request's evaluator
  /// (`mapping_request::eval.contention`): co-resident loads, per-CU DVFS
  /// caps, thermal budget. Defaults to idle — evaluation identical to a
  /// contention-free deployment.
  soc::contention_context scenario;
};

/// @name The option structs the schema describes
/// `config_block_root<T>` is the key path a struct's errors are rooted at
/// when it is read or validated on its own; `config_block` admits exactly
/// these structs to the three verbs below.
/// @{
template <class T>
inline constexpr const char* config_block_root = nullptr;
template <>
inline constexpr const char* config_block_root<core::engine_options> = "engine";
template <>
inline constexpr const char* config_block_root<core::ga_options> = "ga";
template <>
inline constexpr const char* config_block_root<scheduler_options> = "scheduler";
template <>
inline constexpr const char* config_block_root<surrogate::refresh_options> = "refresh";
template <>
inline constexpr const char* config_block_root<snapshot_options> = "snapshot";
template <>
inline constexpr const char* config_block_root<group_options> = "group";
template <>
inline constexpr const char* config_block_root<service_options> = "service";
template <>
inline constexpr const char* config_block_root<soc::thermal_model> = "thermal";
template <>
inline constexpr const char* config_block_root<soc::resident_load> = "resident";
template <>
inline constexpr const char* config_block_root<soc::contention_context> = "scenario";
template <>
inline constexpr const char* config_block_root<service_config> = "";

template <class T>
concept config_block = config_block_root<T> != nullptr;
/// @}

/// Emits every field, defaults included, in schema order.
template <config_block T>
[[nodiscard]] util::json::value to_json(const T& opt);

/// Overwrites `out` (starting from its current values) from the object in
/// `v`, rejecting unknown keys and out-of-range values with
/// `config_error`s rooted at `path`.
template <config_block T>
void from_json(const util::json::value& v, T& out, const std::string& path = config_block_root<T>);

/// Runs the schema's range checks (population >= 4, elite_fraction in
/// (0,1), weights >= 1, ...) on a struct built or changed in code,
/// throwing `config_error` with the offending key path rooted at `path`.
/// from_json runs them too.
template <config_block T>
void validate(const T& opt, const std::string& path = config_block_root<T>);

/// Parses a service_config from JSON text. Starts from defaults (an empty
/// object "{}" is the default config), throws config_error on malformed
/// JSON, unknown keys or out-of-range values.
[[nodiscard]] service_config parse_config(std::string_view text);

/// Reads and parses a config file. Throws std::runtime_error when the file
/// cannot be read, config_error on content problems. (To write one,
/// util::write_file(path, dump_config(cfg)).)
[[nodiscard]] service_config load_config(const std::string& file_path);

/// Serializes the effective config, defaults filled in. `indent` = 0 emits
/// the compact one-line form (the `mapping_report::effective_config`
/// stamp); 2 is the human-facing pretty form written by --dump-config.
[[nodiscard]] std::string dump_config(const service_config& cfg, int indent = 2);

/// Applies one `--set` style override of the form "dotted.key=value"
/// (e.g. "ga.generations=8", "scheduler.policy=reject",
/// "engine.memoize=false"). The value text is parsed as a JSON scalar, with
/// a bare-word fallback to a string (so enum values need no quoting), and
/// routed through the exact from_json path — unknown keys and bad values
/// throw the same config_error a file would.
void apply_override(service_config& cfg, std::string_view assignment);

}  // namespace mapcq::serving
