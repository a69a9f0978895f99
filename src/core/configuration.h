#pragma once
// The full mapping configuration Pi = (P, I, M, theta) of paper §IV.
//
//  * P (partition):  partition[g][i] -- fraction of group g's width units
//                    assigned to stage i; per group the fractions sum to 1.
//  * I (indicator):  forward[g][i]   -- whether stage i's slice of group g's
//                    output features is forwarded to ("reused by") later
//                    stages. The last stage never forwards.
//  * M (mapping):    mapping[i]      -- CU index executing stage i; an
//                    injective assignment (eq. 7).
//  * theta (DVFS):   dvfs[u]         -- DVFS level of platform unit u.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "soc/platform.h"

namespace mapcq::core {

/// A candidate mapping of one network onto one platform.
struct configuration {
  std::vector<std::vector<double>> partition;  ///< [group][stage], rows sum to 1
  std::vector<std::vector<bool>> forward;      ///< [group][stage]
  std::vector<std::size_t> mapping;            ///< [stage] -> CU index
  std::vector<std::size_t> dvfs;               ///< [unit]  -> DVFS level

  [[nodiscard]] std::size_t groups() const noexcept { return partition.size(); }
  [[nodiscard]] std::size_t stages() const noexcept { return mapping.size(); }

  /// Canonical content hash over (P, I, M, theta); equal configurations hash
  /// equal. This is the memo key of `core::evaluation_engine`.
  [[nodiscard]] std::size_t hash() const noexcept;

  /// Exact structural equality over all four parameter blocks.
  [[nodiscard]] bool operator==(const configuration&) const = default;

  /// Fraction of settable indicator bits that are set: the paper's
  /// "Fmap reuse (%)" metric (Table II). Only stages 1..M-1 count (the last
  /// stage's features feed no one) and only stages holding a nonzero slice.
  [[nodiscard]] double fmap_reuse_ratio() const;

  /// Throws std::logic_error on structural problems (ragged rows, fractions
  /// not summing to 1, non-injective mapping, out-of-range indices).
  void validate(const soc::platform& plat) const;

  /// Compact human-readable summary (for logs and examples).
  [[nodiscard]] std::string describe(const soc::platform& plat) const;
};

/// A configuration flattened into one allocation of 64-bit words: the form
/// `evaluation_engine` keeps cached configurations in. A `configuration`
/// costs 2G+2 heap allocations for G partition groups; this costs one.
/// Ragged shapes are kept as they are.
class packed_configuration {
 public:
  explicit packed_configuration(const configuration& config);

  /// Words a packed copy of `config` takes: four shape words, one per row
  /// length, partition cell, mapping entry and DVFS level, and the forward
  /// bits rounded up to whole words.
  [[nodiscard]] static std::size_t word_count(const configuration& config) noexcept;

  /// Compares field by field, exactly as `configuration::operator==` does
  /// (so 0.0 equals -0.0 and a NaN cell equals nothing).
  [[nodiscard]] bool operator==(const configuration& config) const noexcept;

  /// The configuration back, bit-identical to the one packed.
  [[nodiscard]] configuration unpack() const;

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace mapcq::core

template <>
struct std::hash<mapcq::core::configuration> {
  std::size_t operator()(const mapcq::core::configuration& c) const noexcept { return c.hash(); }
};
