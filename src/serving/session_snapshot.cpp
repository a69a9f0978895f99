#include "serving/session_snapshot.h"

#include <sstream>
#include <utility>

#include "core/serialization.h"
#include "util/hashing.h"

namespace mapcq::serving {

using util::lines::is;

namespace {

void describe_tree(auto& io, auto&& depth, auto& nodes) {
  io.row("tree", depth, util::lines::size_of(nodes));
  for (auto& n : nodes)
    io.row("node", n.leaf, n.feature, n.threshold, n.value, n.gain, n.left, n.right);
}

void describe(auto& io, is<surrogate::fitted_ensemble> auto& ens, std::string_view name) {
  std::size_t trees = ens.trees.size();
  io.row("ensemble", name, trees, ens.base, ens.train_rmse);
  for (std::size_t t = 0; t < trees; ++t) {
    if constexpr (std::remove_reference_t<decltype(io)>::reading) {
      // Fitted trees are immutable: rebuild each from its rows through the
      // restore constructor, which checks the child indices.
      int depth = 0;
      std::vector<surrogate::regression_tree::node> nodes;
      describe_tree(io, depth, nodes);
      ens.trees.emplace_back(std::move(nodes), depth);
    } else {
      describe_tree(io, ens.trees[t].depth(), ens.trees[t].nodes());
    }
  }
}

void describe(auto& io, is<surrogate::dataset> auto& ds, std::string_view name) {
  io.row("dataset", name, util::lines::size_of(ds.x, ds.latency_ms, ds.energy_mj));
  for (std::size_t i = 0; i < ds.size(); ++i)
    io.row("row", util::lines::sized(ds.x[i]), ds.latency_ms[i], ds.energy_mj[i]);
}

/// Runs `f`, retyping any failure -- an embedded block's runtime_error, a
/// tree's invalid_argument, a file error -- as the one snapshot_error.
template <class F>
auto retyped(F&& f) try {
  return f();
} catch (const snapshot_error&) {
  throw;
} catch (const std::exception& e) {
  throw snapshot_error(e.what());
}

}  // namespace

void describe(auto& io, is<session_snapshot::surrogate_state> auto& s) {
  io.row("bench", s.bench.samples, s.bench.noise_stddev, s.bench.seed,
         s.bench.model.bandwidth_contention, s.bench.model.enable_contention);
  io.row("gbt", s.gbt.n_trees, s.gbt.learning_rate, s.gbt.subsample, s.gbt.seed,
         s.gbt.log_target, s.gbt.tree.max_depth, s.gbt.tree.min_samples_leaf, s.gbt.tree.lambda,
         s.gbt.tree.min_gain);
  io.row("fidelity", s.fidelity.latency_rmse, s.fidelity.latency_mape, s.fidelity.latency_r2,
         s.fidelity.energy_rmse, s.fidelity.energy_mape, s.fidelity.energy_r2);
  io.row("predictor_epoch", s.predictor_epoch);
  describe(io, s.latency, "latency");
  describe(io, s.energy, "energy");
  io.list("surrogate_entries", s.entries);
}

void describe(auto& io, is<session_snapshot::refresh_state> auto& s) {
  describe(io, s.base_train, "base_train");
  describe(io, s.log_rows, "log");
  io.row("log_seen", s.log_seen);
}

void describe(auto& io, is<session_snapshot> auto& snap) {
  io.row("mapcq-snapshot-v1");
  io.row("session_key", snap.session_key);
  io.list("analytic_entries", snap.analytic_entries);
  io.flagged("surrogate", snap.surrogate);
  io.flagged("refresh", snap.refresh);
}

snapshot_error::snapshot_error(const std::string& message)
    : std::runtime_error("snapshot: " + message) {}

std::string to_text(const session_snapshot& snap) { return util::lines::write(snap); }

session_snapshot snapshot_from_text(const std::string& text) {
  return retyped([&] { return util::lines::read<session_snapshot>(text); });
}

void save_snapshot(const std::string& path, const session_snapshot& snap) {
  retyped([&] { util::write_file(path, to_text(snap)); });
}

session_snapshot load_snapshot(const std::string& path) {
  return retyped([&] { return snapshot_from_text(util::read_file(path)); });
}

std::string snapshot_filename(const std::string& session_key) {
  std::ostringstream os;
  os << std::hex << util::stable_hash64(session_key) << ".snapshot";
  return os.str();
}

}  // namespace mapcq::serving
