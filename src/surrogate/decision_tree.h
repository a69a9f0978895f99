#pragma once
// Regression tree for gradient boosting: exact greedy splitting with the
// XGBoost gain criterion under squared loss (unit hessians):
//
//   gain = G_L^2/(n_L + lambda) + G_R^2/(n_R + lambda) - G^2/(n + lambda)
//
// where G is the sum of residuals in a node. Leaf weight = G/(n + lambda).
//
// Split search uses the presorted "exact" layout of SLIQ and XGBoost's
// exact mode. `presorted_columns` stores the training matrix column-major
// and sorts each feature's row indices once, by (value, row). A tree keeps
// one index list per feature, each in that canonical order, plus one list
// in `row_index` order. Every node owns the same contiguous segment
// [begin, end) of all these lists. Scanning a feature's segment visits the
// node's rows already sorted. A split stable-partitions each segment in
// place, so both children inherit sorted segments and nothing is ever
// re-sorted. One tree level costs O((features + 1) * rows) for the scans
// and partitions together, against O(features * rows * log rows) for a
// per-node sort.
//
// The (value, row) order makes ties canonical. Residual sums accumulate in
// that order, so a fit is a pure function of (rows, targets, params),
// bit-for-bit. Node sums accumulate in `row_index` order.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace mapcq::surrogate {

/// Tree growth hyper-parameters.
struct tree_params {
  int max_depth = 6;
  std::size_t min_samples_leaf = 4;
  double lambda = 1.0;     ///< L2 regularization on leaf weights
  double min_gain = 1e-9;  ///< minimum split gain

  bool operator==(const tree_params&) const = default;
};

/// A training matrix laid out for split search: column-major values plus
/// each feature's row indices sorted once by (value, row). Built once per
/// boosting fit and shared, read-only, by every tree of that fit.
class presorted_columns {
 public:
  /// Throws std::invalid_argument on no rows, zero-width or ragged rows,
  /// or more rows than a 32-bit row index can name.
  explicit presorted_columns(std::span<const std::vector<double>> x);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t features() const noexcept { return features_; }

  /// Feature `f`'s value for every row, indexed by row.
  [[nodiscard]] std::span<const double> column(std::size_t f) const noexcept {
    return {values_.data() + f * rows_, rows_};
  }
  /// Every row index, sorted by (feature `f`'s value, row).
  [[nodiscard]] std::span<const std::uint32_t> order(std::size_t f) const noexcept {
    return {order_.data() + f * rows_, rows_};
  }

 private:
  std::size_t rows_ = 0;
  std::size_t features_ = 0;
  std::vector<double> values_;        ///< [feature][row]
  std::vector<std::uint32_t> order_;  ///< [feature][rank] -> row
};

/// A fitted regression tree over fixed-width feature rows. Immutable after
/// construction (thread-safe to share); owns its node array; training
/// inputs are borrowed only inside the constructor, which does all the
/// work (exact greedy splits over every feature).
class regression_tree {
 public:
  /// One tree node, exposed as a plain value so fitted trees can be
  /// serialized and rebuilt (serving/session_snapshot.h). Internal nodes
  /// carry (feature, threshold, gain, children); leaves carry `value`.
  struct node {
    bool leaf = true;
    std::size_t feature = 0;
    double threshold = 0.0;
    double value = 0.0;  ///< leaf weight
    double gain = 0.0;   ///< split gain (internal nodes)
    std::size_t left = 0;
    std::size_t right = 0;
  };

  /// Fits to (cols, residuals y) on the rows `row_index` names. A row
  /// named k times counts k times. Throws std::invalid_argument when y's
  /// size differs from the row count, `row_index` is empty, or it names a
  /// row outside the matrix.
  regression_tree(const presorted_columns& cols, std::span<const double> y,
                  std::span<const std::size_t> row_index, const tree_params& params);

  /// Same fit from row-major `x` (every row the same width): builds the
  /// presorted columns for this one tree.
  regression_tree(std::span<const std::vector<double>> x, std::span<const double> y,
                  std::span<const std::size_t> row_index, const tree_params& params);

  /// Rebuilds a fitted tree from serialized parts — the restore half of
  /// `nodes()`. Throws std::invalid_argument on an empty node array or an
  /// internal node whose child index is out of range (a truncated snapshot
  /// must fail here, not crash in predict()).
  regression_tree(std::vector<node> nodes, int depth);

  /// Predicted value for one feature row.
  [[nodiscard]] double predict(std::span<const double> row) const;

  /// Number of internal + leaf nodes.
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }

  /// Depth actually reached.
  [[nodiscard]] int depth() const noexcept { return depth_; }

  /// Accumulates per-feature total gain into `importance` (size = features).
  void add_feature_gain(std::vector<double>& importance) const;

  /// The fitted node array (root at index 0), for serialization.
  [[nodiscard]] const std::vector<node>& nodes() const noexcept { return nodes_; }

 private:
  std::vector<node> nodes_;
  int depth_ = 0;
};

}  // namespace mapcq::surrogate
