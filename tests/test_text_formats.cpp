// Golden bytes of the five mapcq-*-v1 text formats (config, report, trace,
// eval, snapshot) on hand-made values, their exact round trips, and one
// typed error per failure kind. Every number prints as %.17g, so these
// goldens also run in the -march=native CI job.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/serialization.h"
#include "serving/session_snapshot.h"

namespace {

using namespace mapcq;

/// `text` with its first `from` replaced by `to`; fails the test when absent.
std::string with(std::string text, const std::string& from, const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

core::configuration sample_config() {
  core::configuration c;
  c.partition = {{0.5, 0.25, 0.25}, {0.1, 0.3, 0.6}};
  c.forward = {{true, false, false}, {false, true, false}};
  c.mapping = {0, 2, 1};
  c.dvfs = {3, 1, 4};
  return c;
}

const std::string config_text =
    "mapcq-config-v1\n"
    "groups 2\n"
    "stages 3\n"
    "partition\n"
    "0.5 0.25 0.25\n"
    "0.10000000000000001 0.29999999999999999 0.59999999999999998\n"
    "forward\n"
    "1 0 0\n"
    "0 1 0\n"
    "mapping 0 2 1\n"
    "dvfs 3 1 4\n";

core::report_summary sample_report() {
  core::report_summary s;
  s.network = "tiny cnn";
  s.platform = "agx xavier";
  s.ours_latency_index = 0;
  s.ours_energy_index = 1;
  s.scheduler = core::scheduler_note{9, 6, 2, 1, 0, 5, 1, 3, 2};
  s.refresh = core::refresh_note{100, 80, 3, 1, 2, 1, 0.93, 0.88};
  s.scenario = core::scenario_note{2, 1, 3, 4.5, 6.25, 1.5, 25.0, 85.0};
  core::summary_entry a;
  a.label = "front-0+ours-L";
  a.config = sample_config();
  a.objective = 0.7;
  a.avg_latency_ms = 12.5;
  a.avg_energy_mj = 1.0 / 3.0;
  a.accuracy_pct = 71.25;
  a.fmap_reuse_pct = 50.0;
  core::summary_entry b = a;
  b.label = "front 1 + ours-E";
  b.feasible = false;
  b.objective = std::numeric_limits<double>::infinity();
  s.entries = {a, b};
  return s;
}

std::string entry_text(const std::string& label, const char* feasible, const char* objective) {
  return "entry " + label + "\nfeasible " + feasible + "\nobjective " + objective +
         "\navg_latency_ms 12.5\navg_energy_mj 0.33333333333333331\naccuracy_pct 71.25\n"
         "fmap_reuse_pct 50\n" +
         config_text;
}

const std::string report_text =
    "mapcq-report-v1\n"
    "network tiny cnn\n"
    "platform agx xavier\n"
    "ours_latency 0\n"
    "ours_energy 1\n"
    "scheduler 9 6 2 1 0 5 1 3 2\n"
    "refresh 100 80 3 1 2 1 0.93000000000000005 0.88\n"
    "scenario 2 1 3 4.5 6.25 1.5 25 85\n"
    "entries 2\n" +
    entry_text("front-0+ours-L", "1", "0.69999999999999996") +
    entry_text("front 1 + ours-E", "0", "inf");

std::vector<core::trace_record> sample_trace() {
  return {core::trace_record{0, -1, 0, "net=tiny cnn|plat=xavier", "ga=4,12|seed=1"},
          core::trace_record{1500, 2, 250, "lane with  two spaces ", "fp"}};
}

const std::string trace_text =
    "mapcq-trace-v1\n"
    "records 2\n"
    "record 0 -1 0\n"
    "lane net=tiny cnn|plat=xavier\n"
    "fingerprint ga=4,12|seed=1\n"
    "record 1500 2 250\n"
    "lane lane with  two spaces \n"
    "fingerprint fp\n";

core::evaluation sample_evaluation() {
  core::evaluation e;
  e.config = sample_config();
  e.feasible = false;
  e.reject_reason = "latency over budget";
  e.objective = 2.5;
  e.avg_latency_ms = 0.1;
  e.avg_energy_mj = 3.0;
  e.worst_latency_ms = 4.0;
  e.worst_energy_mj = 5.0;
  e.accuracy_pct = 60.0;
  e.last_stage_accuracy_pct = 70.0;
  e.fmap_reuse_pct = 0.0;
  e.stored_fmap_bytes = 1024.0;
  e.fmap_traffic_bytes = 2048.0;
  e.stage_latency_ms = {1.0, 2.0, 0.2};
  e.stage_energy_mj = {-0.0};
  e.stage_accuracy_pct = {};
  e.exit_fractions = {0.5, 0.5};
  return e;
}

const std::string eval_text =
    "mapcq-eval-v1\n"
    "feasible 0\n"
    "reject_reason latency over budget\n"
    "objective 2.5\n"
    "avg_latency_ms 0.10000000000000001\n"
    "avg_energy_mj 3\n"
    "worst_latency_ms 4\n"
    "worst_energy_mj 5\n"
    "accuracy_pct 60\n"
    "last_stage_accuracy_pct 70\n"
    "fmap_reuse_pct 0\n"
    "stored_fmap_bytes 1024\n"
    "fmap_traffic_bytes 2048\n"
    "stage_latency_ms 3 1 2 0.20000000000000001\n"
    "stage_energy_mj 1 -0\n"
    "stage_accuracy_pct 0\n"
    "exit_fractions 2 0.5 0.5\n" +
    config_text;

std::string write_eval(const core::evaluation& e) {
  std::ostringstream os;
  core::write_evaluation(os, e);
  return os.str();
}

core::evaluation read_eval(const std::string& text) {
  std::istringstream is{text};
  return core::read_evaluation(is);
}

surrogate::fitted_ensemble sample_ensemble(double base) {
  using node = surrogate::regression_tree::node;
  std::vector<node> nodes{node{false, 1, 0.5, 0.0, 2.5, 1, 2}, node{true, 0, 0.0, -0.25, 0.0, 0, 0},
                          node{true, 0, 0.0, 0.75, 0.0, 0, 0}};
  surrogate::fitted_ensemble ens;
  ens.trees.emplace_back(std::move(nodes), 1);
  ens.base = base;
  ens.train_rmse = 0.125;
  return ens;
}

serving::session_snapshot sample_snapshot() {
  serving::session_snapshot snap;
  snap.session_key = "net=tiny cnn|plat=xavier|eval=default";
  snap.analytic_entries = {sample_evaluation()};
  serving::session_snapshot::surrogate_state ss;
  ss.bench.samples = 120;
  ss.gbt.n_trees = 1;
  ss.fidelity = {0.5, 0.25, 0.75, 1.5, 1.25, 0.875};
  ss.latency = sample_ensemble(1.5);
  ss.energy = sample_ensemble(-2.0);
  ss.predictor_epoch = 2;
  snap.surrogate = std::move(ss);
  serving::session_snapshot::refresh_state rs;
  rs.base_train.add_row({1.0, 2.0}, 3.0, 4.0);
  rs.base_train.add_row({0.5, 0.25}, 0.125, 8.0);
  rs.log_rows.add_row({7.0}, 0.1, 9.0);
  rs.log_seen = 5;
  snap.refresh = std::move(rs);
  return snap;
}

const std::string tree_text =
    "tree 1 3\n"
    "node 0 1 0.5 0 2.5 1 2\n"
    "node 1 0 0 -0.25 0 0 0\n"
    "node 1 0 0 0.75 0 0 0\n";

const std::string snapshot_text =
    "mapcq-snapshot-v1\n"
    "session_key net=tiny cnn|plat=xavier|eval=default\n"
    "analytic_entries 1\n" +
    eval_text +
    "surrogate 1\n"
    "bench 120 0.029999999999999999 2023 0.10000000000000001 1\n"
    "gbt 1 0.10000000000000001 0.84999999999999998 7 1 6 4 1 1.0000000000000001e-09\n"
    "fidelity 0.5 0.25 0.75 1.5 1.25 0.875\n"
    "predictor_epoch 2\n"
    "ensemble latency 1 1.5 0.125\n" +
    tree_text + "ensemble energy 1 -2 0.125\n" + tree_text +
    "surrogate_entries 0\n"
    "refresh 1\n"
    "dataset base_train 2\n"
    "row 2 1 2 3 4\n"
    "row 2 0.5 0.25 0.125 8\n"
    "dataset log 1\n"
    "row 1 7 0.10000000000000001 9\n"
    "log_seen 5\n";

// --- golden bytes and exact round trips ----------------------------------------

TEST(text_formats, configuration_bytes_and_round_trip) {
  EXPECT_EQ(core::to_text(sample_config()), config_text);
  EXPECT_EQ(core::configuration_from_text(config_text), sample_config());
}

TEST(text_formats, report_bytes_and_round_trip) {
  const core::report_summary s = sample_report();
  EXPECT_EQ(core::to_text(s), report_text);
  const core::report_summary back = core::report_summary_from_text(report_text);
  EXPECT_EQ(core::to_text(back), report_text);
  EXPECT_EQ(back.network, "tiny cnn");
  ASSERT_EQ(back.entries.size(), 2u);
  EXPECT_EQ(back.entries[1].label, "front 1 + ours-E");
  EXPECT_FALSE(back.entries[1].feasible);
  EXPECT_TRUE(std::isinf(back.entries[1].objective));
  EXPECT_EQ(back.entries[0].avg_energy_mj, 1.0 / 3.0);
  ASSERT_TRUE(back.refresh.has_value());
  EXPECT_EQ(back.refresh->last_candidate_tau, 0.93);
  ASSERT_TRUE(back.scenario.has_value());
  EXPECT_EQ(back.scenario->throttle_c, 85.0);
}

TEST(text_formats, report_without_notes_goes_straight_to_entries) {
  core::report_summary s = sample_report();
  s.scheduler.reset();
  s.refresh.reset();
  s.scenario.reset();
  const std::string text = core::to_text(s);
  EXPECT_EQ(text, with(with(with(report_text, "scheduler 9 6 2 1 0 5 1 3 2\n", ""),
                            "refresh 100 80 3 1 2 1 0.93000000000000005 0.88\n", ""),
                       "scenario 2 1 3 4.5 6.25 1.5 25 85\n", ""));
  const core::report_summary back = core::report_summary_from_text(text);
  EXPECT_FALSE(back.scheduler || back.refresh || back.scenario);
}

TEST(text_formats, legacy_seven_field_scheduler_row_reads_fused_as_zero) {
  const std::string legacy =
      with(report_text, "scheduler 9 6 2 1 0 5 1 3 2\n", "scheduler 9 6 2 1 0 5 1\n");
  const core::report_summary back = core::report_summary_from_text(legacy);
  ASSERT_TRUE(back.scheduler.has_value());
  EXPECT_EQ(back.scheduler->submitted, 9u);
  EXPECT_EQ(back.scheduler->failed, 1u);
  EXPECT_EQ(back.scheduler->fused, 0u);
  EXPECT_EQ(back.scheduler->fused_batches, 0u);
  // Written back, the row carries all nine fields.
  EXPECT_EQ(core::to_text(back),
            with(report_text, "scheduler 9 6 2 1 0 5 1 3 2\n", "scheduler 9 6 2 1 0 5 1 0 0\n"));
}

TEST(text_formats, trace_bytes_and_round_trip) {
  EXPECT_EQ(core::to_text(sample_trace()), trace_text);
  const std::vector<core::trace_record> back = core::trace_from_text(trace_text);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].priority, -1);
  EXPECT_EQ(back[1].lane, "lane with  two spaces ");
  EXPECT_EQ(back[1].deadline_ms, 250u);
  EXPECT_EQ(core::to_text(back), trace_text);
}

TEST(text_formats, evaluation_bytes_and_round_trip) {
  EXPECT_EQ(write_eval(sample_evaluation()), eval_text);
  const core::evaluation back = read_eval(eval_text);
  EXPECT_EQ(write_eval(back), eval_text);
  EXPECT_EQ(back.reject_reason, "latency over budget");
  EXPECT_TRUE(std::signbit(back.stage_energy_mj.at(0)));
  EXPECT_TRUE(back.stage_accuracy_pct.empty());
  EXPECT_EQ(back.config, sample_config());
}

TEST(text_formats, snapshot_bytes_and_round_trip) {
  EXPECT_EQ(serving::to_text(sample_snapshot()), snapshot_text);
  const serving::session_snapshot back = serving::snapshot_from_text(snapshot_text);
  EXPECT_EQ(serving::to_text(back), snapshot_text);
  ASSERT_TRUE(back.surrogate && back.refresh);
  ASSERT_EQ(back.surrogate->latency.trees.size(), 1u);
  EXPECT_EQ(back.surrogate->latency.trees[0].node_count(), 3u);
  EXPECT_EQ(back.surrogate->latency.trees[0].nodes()[1].value, -0.25);
  EXPECT_EQ(back.refresh->base_train.size(), 2u);
  EXPECT_EQ(back.refresh->log_rows.x.at(0), std::vector<double>{7.0});
  EXPECT_EQ(back.refresh->log_seen, 5u);
}

TEST(text_formats, empty_snapshot_sections_are_flagged_off) {
  serving::session_snapshot snap;
  snap.session_key = "k";
  const std::string text = serving::to_text(snap);
  EXPECT_EQ(text, "mapcq-snapshot-v1\nsession_key k\nanalytic_entries 0\nsurrogate 0\nrefresh 0\n");
  const serving::session_snapshot back = serving::snapshot_from_text(text);
  EXPECT_FALSE(back.surrogate || back.refresh);
}

TEST(text_formats, subnormal_objective_round_trips_exactly) {
  core::report_summary s = sample_report();
  s.entries[0].objective = 5e-324;
  const std::string text = core::to_text(s);
  EXPECT_NE(text.find("objective 4.9406564584124654e-324\n"), std::string::npos);
  EXPECT_EQ(core::report_summary_from_text(text).entries[0].objective, 5e-324);
}

// --- one typed error per failure kind -------------------------------------------

struct bad_text {
  const char* kind;
  std::string text;
};

TEST(text_formats, configuration_failures_are_runtime_errors) {
  const std::vector<bad_text> cases = {
      {"bad header", with(config_text, "mapcq-config-v1", "mapcq-config-v2")},
      {"truncated", config_text.substr(0, config_text.find("dvfs"))},
      {"wrong key", with(config_text, "stages 3", "stage 3")},
      {"empty dimensions", with(config_text, "groups 2", "groups 0")},
      {"missing section", with(config_text, "forward\n", "")},
      {"short partition row", with(config_text, "0.5 0.25 0.25", "0.5 0.25")},
      {"non-numeric cell", with(config_text, "0.5 0.25 0.25", "0.5 x 0.25")},
      {"bad forward bit", with(config_text, "1 0 0\n", "2 0 0\n")},
      {"mapping size", with(config_text, "mapping 0 2 1", "mapping 0 2")},
      {"empty dvfs", with(config_text, "dvfs 3 1 4", "dvfs")},
  };
  for (const bad_text& c : cases)
    EXPECT_THROW((void)core::configuration_from_text(c.text), std::runtime_error) << c.kind;
}

TEST(text_formats, report_failures_are_runtime_errors) {
  const std::vector<bad_text> cases = {
      {"bad header", with(report_text, "mapcq-report-v1", "mapcq-report")},
      {"non-numeric scalar", with(report_text, "avg_latency_ms 12.5", "avg_latency_ms fast")},
      {"short note row", with(report_text, "refresh 100 80 3 1 2 1 0.93000000000000005 0.88",
                              "refresh 100 80")},
      {"eight-field scheduler row",
       with(report_text, "scheduler 9 6 2 1 0 5 1 3 2", "scheduler 9 6 2 1 0 5 1 3")},
      {"empty report", "mapcq-report-v1\nnetwork n\nplatform p\nours_latency 0\n"
                       "ours_energy 0\nentries 0\n"},
      {"pick index out of range", with(report_text, "ours_energy 1", "ours_energy 2")},
      {"missing entry", report_text.substr(0, report_text.find("entry front 1"))},
      {"out-of-range number", with(report_text, "avg_latency_ms 12.5", "avg_latency_ms 1e999")},
  };
  for (const bad_text& c : cases)
    EXPECT_THROW((void)core::report_summary_from_text(c.text), std::runtime_error) << c.kind;
}

TEST(text_formats, trace_and_evaluation_failures_are_runtime_errors) {
  EXPECT_THROW((void)core::trace_from_text(with(trace_text, "lane lane", "lan lane")),
               std::runtime_error);
  EXPECT_THROW((void)core::trace_from_text(with(trace_text, "records 2", "records 3")),
               std::runtime_error);
  EXPECT_THROW((void)core::trace_from_text(with(trace_text, "record 0 -1 0", "record 0 -1")),
               std::runtime_error);
  EXPECT_THROW((void)read_eval(with(eval_text, "stage_latency_ms 3 1 2", "stage_latency_ms 4 1 2")),
               std::runtime_error);
  EXPECT_THROW((void)core::load_trace("/nonexistent/mapcq.trace"), std::runtime_error);
  EXPECT_THROW((void)core::load_report_summary("/nonexistent/mapcq.report"), std::runtime_error);
}

TEST(text_formats, every_flag_is_strictly_zero_or_one) {
  EXPECT_THROW((void)core::report_summary_from_text(with(report_text, "feasible 0", "feasible 2")),
               std::runtime_error);
  EXPECT_THROW((void)read_eval(with(eval_text, "feasible 0", "feasible 2")), std::runtime_error);
  EXPECT_THROW((void)serving::snapshot_from_text(with(snapshot_text, "refresh 1", "refresh 2")),
               serving::snapshot_error);
}

TEST(text_formats, snapshot_failures_are_snapshot_errors) {
  const std::vector<bad_text> cases = {
      {"bad header", with(snapshot_text, "mapcq-snapshot-v1", "mapcq-snapshot-v0")},
      {"truncated", snapshot_text.substr(0, snapshot_text.find("log_seen"))},
      {"bad flag", with(snapshot_text, "surrogate 1", "surrogate 2")},
      {"embedded eval error", with(snapshot_text, "mapcq-eval-v1", "mapcq-eval")},
      {"wrong ensemble name", with(snapshot_text, "ensemble energy", "ensemble power")},
      {"child out of range", with(snapshot_text, "node 0 1 0.5 0 2.5 1 2", "node 0 1 0.5 0 2.5 1 9")},
      {"short dataset row", with(snapshot_text, "row 2 1 2 3 4", "row 2 1 2 3")},
      {"non-numeric dataset value", with(snapshot_text, "row 2 1 2 3 4", "row 2 1 x 3 4")},
  };
  for (const bad_text& c : cases)
    EXPECT_THROW((void)serving::snapshot_from_text(c.text), serving::snapshot_error) << c.kind;
  EXPECT_THROW((void)serving::load_snapshot("/nonexistent/x.snapshot"), serving::snapshot_error);
}

}  // namespace
