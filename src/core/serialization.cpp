#include "core/serialization.h"

#include <istream>
#include <iterator>
#include <ostream>

namespace mapcq::core {

using util::lines::is;

/// Self-delimiting (the header fixes every section's row count), so it is
/// read both standalone and embedded in report and eval blocks.
void describe(auto& io, is<configuration> auto& c) {
  std::size_t stages = c.stages();
  io.row("mapcq-config-v1");
  io.row("groups", util::lines::size_of(c.partition, c.forward));
  io.row("stages", stages);
  io.check(c.groups() != 0 && stages != 0, "empty dimensions");
  io.row("partition");
  for (auto& row : c.partition) {
    io.row("", row);
    io.check(row.size() == stages, "ragged partition row");
  }
  io.row("forward");
  for (auto& row : c.forward) {
    io.row("", row);
    io.check(row.size() == stages, "ragged forward row");
  }
  io.row("mapping", c.mapping);
  io.check(c.mapping.size() == stages, "mapping size mismatch");
  io.row("dvfs", c.dvfs);
  io.check(!c.dvfs.empty(), "empty dvfs");
}

void describe(auto& io, is<scheduler_note> auto& n) {
  // Reports written before cross-request fusion end the row after `failed`.
  io.row("scheduler", n.submitted, n.admitted, n.coalesced, n.rejected, n.expired, n.completed,
         n.failed, util::lines::may_end, n.fused, n.fused_batches);
}

void describe(auto& io, is<refresh_note> auto& n) {
  io.row("refresh", n.observed, n.logged, n.attempts, n.promotions, n.rejections, n.epoch,
         n.last_candidate_tau, n.last_incumbent_tau);
}

void describe(auto& io, is<scenario_note> auto& n) {
  io.row("scenario", n.residents, n.reserved_units, n.dvfs_capped_units,
         n.resident_interconnect_gbps, n.resident_dram_gbps, n.resident_power_w, n.ambient_c,
         n.throttle_c);
}

void describe(auto& io, is<summary_entry> auto& e) {
  io.row("entry", e.label);
  io.row("feasible", e.feasible);
  io.row("objective", e.objective);
  io.row("avg_latency_ms", e.avg_latency_ms);
  io.row("avg_energy_mj", e.avg_energy_mj);
  io.row("accuracy_pct", e.accuracy_pct);
  io.row("fmap_reuse_pct", e.fmap_reuse_pct);
  describe(io, e.config);
}

void describe(auto& io, is<report_summary> auto& s) {
  io.row("mapcq-report-v1");
  io.row("network", s.network);
  io.row("platform", s.platform);
  io.row("ours_latency", s.ours_latency_index);
  io.row("ours_energy", s.ours_energy_index);
  // Each note is optional (direct-map() reports and older files lack them).
  io.maybe(s.scheduler);
  io.maybe(s.refresh);
  io.maybe(s.scenario);
  io.list("entries", s.entries);
  io.check(!s.entries.empty(), "empty report");
  io.check(s.ours_latency_index < s.entries.size() && s.ours_energy_index < s.entries.size(),
           "pick index out of range");
}

void describe(auto& io, is<trace_record> auto& r) {
  io.row("record", r.arrival_us, r.priority, r.deadline_ms);
  // Lanes and fingerprints may contain spaces (never newlines).
  io.row("lane", r.lane);
  io.row("fingerprint", r.fingerprint);
}

void describe(auto& io, is<std::vector<trace_record>> auto& trace) {
  io.row("mapcq-trace-v1");
  io.list("records", trace);
}

void describe(auto& io, util::lines::is<evaluation> auto& e) {
  using util::lines::sized;
  io.row("mapcq-eval-v1");
  io.row("feasible", e.feasible);
  io.row("reject_reason", e.reject_reason);
  io.row("objective", e.objective);
  io.row("avg_latency_ms", e.avg_latency_ms);
  io.row("avg_energy_mj", e.avg_energy_mj);
  io.row("worst_latency_ms", e.worst_latency_ms);
  io.row("worst_energy_mj", e.worst_energy_mj);
  io.row("accuracy_pct", e.accuracy_pct);
  io.row("last_stage_accuracy_pct", e.last_stage_accuracy_pct);
  io.row("fmap_reuse_pct", e.fmap_reuse_pct);
  io.row("stored_fmap_bytes", e.stored_fmap_bytes);
  io.row("fmap_traffic_bytes", e.fmap_traffic_bytes);
  io.row("stage_latency_ms", sized(e.stage_latency_ms));
  io.row("stage_energy_mj", sized(e.stage_energy_mj));
  io.row("stage_accuracy_pct", sized(e.stage_accuracy_pct));
  io.row("exit_fractions", sized(e.exit_fractions));
  describe(io, e.config);
}

template void describe(util::lines::line_writer&, const evaluation&);
template void describe(util::lines::line_reader&, evaluation&);

std::string to_text(const configuration& config) { return util::lines::write(config); }

configuration configuration_from_text(const std::string& text) {
  return util::lines::read<configuration>(text);
}

std::string to_text(const report_summary& summary) { return util::lines::write(summary); }

report_summary report_summary_from_text(const std::string& text) {
  return util::lines::read<report_summary>(text);
}

void save_report_summary(const std::string& path, const report_summary& summary) {
  util::write_file(path, to_text(summary));
}

report_summary load_report_summary(const std::string& path) {
  return report_summary_from_text(util::read_file(path));
}

std::string to_text(const std::vector<trace_record>& trace) { return util::lines::write(trace); }

std::vector<trace_record> trace_from_text(const std::string& text) {
  return util::lines::read<std::vector<trace_record>>(text);
}

void save_trace(const std::string& path, const std::vector<trace_record>& trace) {
  util::write_file(path, to_text(trace));
}

std::vector<trace_record> load_trace(const std::string& path) {
  return trace_from_text(util::read_file(path));
}

void write_evaluation(std::ostream& os, const evaluation& e) { os << util::lines::write(e); }

evaluation read_evaluation(std::istream& is) {
  return util::lines::read<evaluation>(std::string(std::istreambuf_iterator<char>(is), {}));
}

}  // namespace mapcq::core
