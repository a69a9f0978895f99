#pragma once
// Persistence for mapping artifacts: a deployment tool wants to search once
// and ship the winners to the runtime. Five versioned, line-oriented text
// formats (`key v1 v2 ...` rows, 17-digit floats), all written and read by
// the one line codec in util/line_codec.h -- trivially diffable:
//   * mapcq-config-v1: one Pi = (P, I, M, theta) configuration
//   * mapcq-report-v1: a serving::mapping_report summary -- the validated
//     Pareto front's configurations with their headline evaluation scalars
//     and the Ours-L / Ours-E pick indices.
//   * mapcq-trace-v1: a captured stream of serving submit()s (arrival
//     offsets, priorities, deadlines, lanes, fingerprints) for offline
//     replay (see serving/request_trace.h).
//   * mapcq-eval-v1: one full evaluation record, the cache-entry unit of
//     session snapshots.
//   * mapcq-snapshot-v1: a serving session's warm state
//     (serving/session_snapshot.h), embedding eval and config blocks.
// Every parse failure throws std::runtime_error naming the line.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/configuration.h"
#include "core/evaluator.h"
#include "util/line_codec.h"

namespace mapcq::core {

/// Serializes a configuration to the text format.
[[nodiscard]] std::string to_text(const configuration& config);

/// Parses a configuration back. Throws std::runtime_error on malformed
/// input (missing sections, ragged matrices, non-numeric fields).
[[nodiscard]] configuration configuration_from_text(const std::string& text);

/// One shipped pick: a configuration plus the evaluation scalars a runtime
/// needs to select among the front without re-running the evaluator.
struct summary_entry {
  std::string label;  ///< e.g. "front-3+ours-E"; free-form, may contain spaces
  configuration config;
  bool feasible = true;
  double objective = 0.0;
  double avg_latency_ms = 0.0;
  double avg_energy_mj = 0.0;
  double accuracy_pct = 0.0;
  double fmap_reuse_pct = 0.0;
};

/// Service-level scheduler counters captured with a shipped report (the
/// plain-counter mirror of serving::scheduler_stats, kept here so core
/// serialization does not depend on the serving layer). Present only for
/// reports produced by a scheduled submit(); see
/// serving::mapping_report::scheduler.
struct scheduler_note {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t rejected = 0;
  std::uint64_t expired = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  /// Cross-request fusion counters (format extension): requests dispatched
  /// as followers of a fused batch, and batches of size >= 2. Reports
  /// written before the extension carry the 7-field row; the parser
  /// accepts both arities and leaves these at 0 for legacy rows.
  std::uint64_t fused = 0;
  std::uint64_t fused_batches = 0;
};

/// Surrogate-refresh pipeline counters captured with a shipped report (the
/// plain-counter mirror of surrogate::refresh_stats, kept here so core
/// serialization does not depend on the surrogate pipeline). Present only
/// for sessions running with refresh enabled; see
/// serving::mapping_report::refresh.
struct refresh_note {
  std::uint64_t observed = 0;
  std::uint64_t logged = 0;
  std::uint64_t attempts = 0;
  std::uint64_t promotions = 0;
  std::uint64_t rejections = 0;
  std::uint64_t epoch = 0;
  double last_candidate_tau = 0.0;
  double last_incumbent_tau = 0.0;
};

/// Co-location scenario captured with a shipped report (the plain-scalar
/// mirror of the soc::contention_context the mapping was scored under, kept
/// here so core serialization does not depend on the serving layer).
/// Present only for reports produced under a non-idle context; see
/// serving::mapping_report::scenario.
struct scenario_note {
  std::uint64_t residents = 0;          ///< co-resident count
  std::uint64_t reserved_units = 0;     ///< CUs owned by residents
  std::uint64_t dvfs_capped_units = 0;  ///< CUs capped below their max level
  double resident_interconnect_gbps = 0.0;
  double resident_dram_gbps = 0.0;
  double resident_power_w = 0.0;
  double ambient_c = 0.0;   ///< 0 when the scenario has no thermal limit
  double throttle_c = 0.0;  ///< 0 when the scenario has no thermal limit
};

/// Shippable summary of a serving::mapping_report (see
/// serving::mapping_report::summary()).
struct report_summary {
  std::string network;
  std::string platform;
  std::size_t ours_latency_index = 0;
  std::size_t ours_energy_index = 0;
  /// Scheduler counters at report time; absent for direct map() reports
  /// (and for artifacts written before the scheduler existed — the text
  /// format keeps the line optional for exactly that back-compat).
  std::optional<scheduler_note> scheduler;
  /// Refresh-pipeline counters at report time; absent unless the serving
  /// session runs with surrogate refresh enabled (same optional-line
  /// back-compat as `scheduler`).
  std::optional<refresh_note> refresh;
  /// Co-location scenario the report was produced under; absent for idle
  /// contexts (and for every artifact written before co-location existed —
  /// the line is optional for exactly that back-compat).
  std::optional<scenario_note> scenario;
  std::vector<summary_entry> entries;
};

/// Serializes a report summary (scalars at full precision, configurations
/// embedded in the mapcq-config-v1 format).
[[nodiscard]] std::string to_text(const report_summary& summary);

/// Parses a report summary back; exact round-trip of to_text. Throws
/// std::runtime_error on malformed input (bad header, short sections,
/// pick indices out of range).
[[nodiscard]] report_summary report_summary_from_text(const std::string& text);

/// File forms of to_text / report_summary_from_text (util::write_file /
/// util::read_file); both throw std::runtime_error on I/O failure.
void save_report_summary(const std::string& path, const report_summary& summary);
[[nodiscard]] report_summary load_report_summary(const std::string& path);

/// One captured serving submit() in a mapcq-trace-v1 stream: when it
/// arrived (relative to the capture start), its scheduling knobs, and the
/// identity pair the scheduler coalesces on. Enough to replay the *shape*
/// of the traffic — duplicates, session lanes, priorities, pacing —
/// without persisting full request payloads (see serving/request_trace.h
/// for capture and replay).
struct trace_record {
  std::uint64_t arrival_us = 0;   ///< microseconds since the first capture
  int priority = 0;               ///< mapping_request::priority
  std::uint64_t deadline_ms = 0;  ///< mapping_request::deadline; 0 = none
  std::string lane;               ///< fairness lane (the session key)
  std::string fingerprint;        ///< request_fingerprint of the submit
};

/// Serializes a trace (records in capture order).
[[nodiscard]] std::string to_text(const std::vector<trace_record>& trace);

/// Parses a trace back; exact round-trip of to_text. Throws
/// std::runtime_error on malformed input.
[[nodiscard]] std::vector<trace_record> trace_from_text(const std::string& text);

/// File forms of to_text / trace_from_text; both throw std::runtime_error on
/// I/O failure.
void save_trace(const std::string& path, const std::vector<trace_record>& trace);
[[nodiscard]] std::vector<trace_record> load_trace(const std::string& path);

/// Serializes one full `evaluation` record (mapcq-eval-v1): every scalar at
/// full precision, the per-stage vectors, and the configuration embedded in
/// the mapcq-config-v1 format. A restored record must serve bit-identically,
/// so nothing is summarized away.
void write_evaluation(std::ostream& os, const evaluation& e);

/// Parses the mapcq-eval-v1 block that starts the rest of `is` (read to its
/// end; trailing text is ignored); exact round-trip of `write_evaluation`.
/// Throws std::runtime_error on malformed input.
[[nodiscard]] evaluation read_evaluation(std::istream& is);

/// The mapcq-eval-v1 rows, for formats that embed evaluations (session
/// snapshots); instantiated for util::lines::line_writer and line_reader.
void describe(auto& io, util::lines::is<evaluation> auto& e);

}  // namespace mapcq::core
