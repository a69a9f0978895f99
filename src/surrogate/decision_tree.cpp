#include "surrogate/decision_tree.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace mapcq::surrogate {

namespace {

struct best_split {
  double gain = 0.0;
  std::size_t feature = 0;
  double threshold = 0.0;
};

double leaf_weight(double grad_sum, std::size_t n, double lambda) {
  return grad_sum / (static_cast<double>(n) + lambda);
}

double node_score(double grad_sum, std::size_t n, double lambda) {
  return grad_sum * grad_sum / (static_cast<double>(n) + lambda);
}

// Grows one tree over the presorted segments (see the header comment).
// idx_ holds features + 1 lists of m row indices each: list f sorted by
// (feature f, row), the last in row_index order. A node owns positions
// [begin, end) of every list.
class grower {
 public:
  grower(const presorted_columns& cols, std::span<const double> y,
         std::span<const std::size_t> row_index, const tree_params& params)
      : cols_(cols), y_(y), params_(params), m_(row_index.size()) {
    const std::size_t n_features = cols.features();
    std::vector<std::uint32_t> count(cols.rows(), 0);
    idx_.resize((n_features + 1) * m_);
    std::uint32_t* by_row = list(n_features);
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t r = row_index[i];
      if (r >= cols.rows())
        throw std::invalid_argument("regression_tree: row index out of range");
      ++count[r];
      by_row[i] = static_cast<std::uint32_t>(r);
    }
    // Filter each global presorted order down to this subsample, repeating
    // a row once per occurrence in row_index.
    for (std::size_t f = 0; f < n_features; ++f) {
      std::uint32_t* out = list(f);
      for (const std::uint32_t r : cols.order(f))
        for (std::uint32_t k = 0; k < count[r]; ++k) *out++ = r;
    }
    goes_left_.resize(cols.rows());
    scratch_.resize(m_);
    nodes_.reserve(64);
  }

  std::size_t grow(std::size_t begin, std::size_t end, int depth) {
    depth_ = std::max(depth_, depth);
    const std::size_t n = end - begin;
    const std::size_t n_features = cols_.features();

    const std::uint32_t* by_row = list(n_features);
    double grad_sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) grad_sum += y_[by_row[i]];

    const std::size_t me = nodes_.size();
    nodes_.push_back({});
    nodes_[me].value = leaf_weight(grad_sum, n, params_.lambda);

    if (depth >= params_.max_depth || n < 2 * params_.min_samples_leaf) return me;

    const double parent_score = node_score(grad_sum, n, params_.lambda);
    best_split best;
    for (std::size_t f = 0; f < n_features; ++f) {
      const std::uint32_t* sorted = list(f);
      const std::span<const double> col = cols_.column(f);
      double left_sum = 0.0;
      for (std::size_t i = begin; i + 1 < end; ++i) {
        left_sum += y_[sorted[i]];
        const double v = col[sorted[i]];
        const double v_next = col[sorted[i + 1]];
        if (v == v_next) continue;  // can't split between equal values
        const std::size_t n_left = i + 1 - begin;
        const std::size_t n_right = n - n_left;
        if (n_left < params_.min_samples_leaf || n_right < params_.min_samples_leaf) continue;
        const double gain = node_score(left_sum, n_left, params_.lambda) +
                            node_score(grad_sum - left_sum, n_right, params_.lambda) -
                            parent_score;
        if (gain > best.gain) {
          best.gain = gain;
          best.feature = f;
          best.threshold = 0.5 * (v + v_next);
        }
      }
    }

    if (best.gain <= params_.min_gain) return me;

    const std::span<const double> split_col = cols_.column(best.feature);
    std::size_t n_left = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t r = by_row[i];
      goes_left_[r] = split_col[r] <= best.threshold ? 1 : 0;
      n_left += goes_left_[r];
    }
    if (n_left == 0 || n_left == n) return me;  // numeric edge case

    // Children at max depth are leaves and only sum over the row list.
    if (depth + 1 < params_.max_depth)
      for (std::size_t f = 0; f < n_features; ++f) partition(list(f), begin, end);
    partition(list(n_features), begin, end);

    nodes_[me].leaf = false;
    nodes_[me].feature = best.feature;
    nodes_[me].threshold = best.threshold;
    nodes_[me].gain = best.gain;
    const std::size_t left_id = grow(begin, begin + n_left, depth + 1);
    nodes_[me].left = left_id;
    const std::size_t right_id = grow(begin + n_left, end, depth + 1);
    nodes_[me].right = right_id;
    return me;
  }

  std::vector<regression_tree::node>& nodes() noexcept { return nodes_; }
  [[nodiscard]] int depth() const noexcept { return depth_; }

 private:
  std::uint32_t* list(std::size_t k) noexcept { return idx_.data() + k * m_; }

  // Stable partition of seg[begin, end) by goes_left_: left rows keep their
  // order at the front, right rows theirs behind them.
  void partition(std::uint32_t* seg, std::size_t begin, std::size_t end) {
    std::size_t left = begin;
    std::size_t right = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t r = seg[i];
      if (goes_left_[r] != 0)
        seg[left++] = r;
      else
        scratch_[right++] = r;
    }
    std::copy_n(scratch_.begin(), right, seg + left);
  }

  const presorted_columns& cols_;
  std::span<const double> y_;
  const tree_params& params_;
  std::size_t m_;
  std::vector<std::uint32_t> idx_;
  std::vector<std::uint32_t> scratch_;
  std::vector<std::uint8_t> goes_left_;  ///< per matrix row, for the split being applied
  std::vector<regression_tree::node> nodes_;
  int depth_ = 0;
};

}  // namespace

presorted_columns::presorted_columns(std::span<const std::vector<double>> x)
    : rows_(x.size()), features_(x.empty() ? 0 : x.front().size()) {
  if (x.empty()) throw std::invalid_argument("presorted_columns: empty data");
  if (features_ == 0) throw std::invalid_argument("presorted_columns: zero-width rows");
  if (rows_ > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("presorted_columns: too many rows");
  values_.resize(rows_ * features_);
  for (std::size_t r = 0; r < rows_; ++r) {
    if (x[r].size() != features_) throw std::invalid_argument("presorted_columns: ragged rows");
    for (std::size_t f = 0; f < features_; ++f) values_[f * rows_ + r] = x[r][f];
  }
  order_.resize(rows_ * features_);
  for (std::size_t f = 0; f < features_; ++f) {
    const auto first = order_.begin() + static_cast<std::ptrdiff_t>(f * rows_);
    const auto last = first + static_cast<std::ptrdiff_t>(rows_);
    std::iota(first, last, std::uint32_t{0});
    // Stable on an ascending-row start: equal values stay in row order.
    const double* col = values_.data() + f * rows_;
    std::stable_sort(first, last,
                     [col](std::uint32_t a, std::uint32_t b) { return col[a] < col[b]; });
  }
}

regression_tree::regression_tree(const presorted_columns& cols, std::span<const double> y,
                                 std::span<const std::size_t> row_index,
                                 const tree_params& params) {
  if (cols.rows() != y.size()) throw std::invalid_argument("regression_tree: size mismatch");
  if (row_index.empty()) throw std::invalid_argument("regression_tree: empty subsample");
  grower g{cols, y, row_index, params};
  g.grow(0, row_index.size(), 0);
  nodes_ = std::move(g.nodes());
  depth_ = g.depth();
}

regression_tree::regression_tree(std::span<const std::vector<double>> x,
                                 std::span<const double> y,
                                 std::span<const std::size_t> row_index,
                                 const tree_params& params)
    : regression_tree(presorted_columns{x}, y, row_index, params) {}

regression_tree::regression_tree(std::vector<node> nodes, int depth)
    : nodes_(std::move(nodes)), depth_(depth) {
  if (nodes_.empty()) throw std::invalid_argument("regression_tree: empty node array");
  for (const node& n : nodes_) {
    if (n.leaf) continue;
    if (n.left >= nodes_.size() || n.right >= nodes_.size())
      throw std::invalid_argument("regression_tree: child index out of range");
  }
}

double regression_tree::predict(std::span<const double> row) const {
  std::size_t cur = 0;
  while (!nodes_[cur].leaf) {
    if (nodes_[cur].feature >= row.size())
      throw std::invalid_argument("regression_tree::predict: row too narrow");
    cur = row[nodes_[cur].feature] <= nodes_[cur].threshold ? nodes_[cur].left
                                                            : nodes_[cur].right;
  }
  return nodes_[cur].value;
}

void regression_tree::add_feature_gain(std::vector<double>& importance) const {
  for (const auto& n : nodes_) {
    if (n.leaf) continue;
    if (n.feature < importance.size()) importance[n.feature] += n.gain;
  }
}

}  // namespace mapcq::surrogate
