#pragma once
// Gradient-boosted tree ensemble for squared loss -- the XGBoost [20] stand-
// in used to predict per-sublayer latency and energy inside the GA loop
// (paper §V-E).

#include <cstdint>
#include <span>
#include <vector>

#include "surrogate/decision_tree.h"

namespace mapcq::surrogate {

struct fitted_ensemble;  // trainer.h; also the serialized form of a regressor

/// Boosting hyper-parameters.
struct gbt_params {
  std::size_t n_trees = 120;
  double learning_rate = 0.10;
  double subsample = 0.85;   ///< row subsample per tree, (0,1]
  tree_params tree;
  std::uint64_t seed = 7;
  /// Targets are strictly positive and span decades; fit in log space.
  bool log_target = true;

  bool operator==(const gbt_params&) const = default;
};

/// A fitted ensemble.
///
/// Ownership: owns its trees; training inputs are borrowed only for the
/// constructor call.
///
/// Thread-safety: immutable after construction — all members are const and
/// callable concurrently.
///
/// Blocking: the constructor runs the whole boosting loop (the only
/// expensive operation); `predict` walks `n_trees` trees and never blocks.
class gbt_regressor {
 public:
  /// Fits to rows `x` (equal widths) and targets `y`; throws
  /// std::invalid_argument on empty or mismatched input, or non-positive
  /// targets with log_target.
  gbt_regressor(std::span<const std::vector<double>> x, std::span<const double> y,
                const gbt_params& params = {});

  /// Rebuilds a fitted regressor from its serialized parts without
  /// retraining (see serving/session_snapshot.h): the trees/base/rmse of a
  /// prior fit plus the learning rate and target transform it was fitted
  /// under. Predictions are bit-identical to the original regressor's.
  gbt_regressor(fitted_ensemble parts, double learning_rate, bool log_target);

  /// Prediction for one feature row (width must match training).
  [[nodiscard]] double predict(std::span<const double> row) const;

  /// Batch prediction.
  [[nodiscard]] std::vector<double> predict(std::span<const std::vector<double>> rows) const;

  /// Total split gain per feature, normalized to sum 1.
  [[nodiscard]] std::vector<double> feature_importance(std::size_t n_features) const;

  [[nodiscard]] std::size_t tree_count() const noexcept { return trees_.size(); }

  /// Training RMSE of the final model (in target space).
  [[nodiscard]] double train_rmse() const noexcept { return train_rmse_; }

  /// @name Serialized parts (the inverse of the restore constructor)
  /// @{
  [[nodiscard]] const std::vector<regression_tree>& trees() const noexcept { return trees_; }
  [[nodiscard]] double base() const noexcept { return base_; }
  [[nodiscard]] double learning_rate() const noexcept { return learning_rate_; }
  [[nodiscard]] bool log_target() const noexcept { return log_target_; }
  /// @}

 private:
  std::vector<regression_tree> trees_;
  double base_ = 0.0;
  double learning_rate_ = 0.1;
  bool log_target_ = true;
  double train_rmse_ = 0.0;
};

}  // namespace mapcq::surrogate
