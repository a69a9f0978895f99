#include "core/configuration.h"

#include <bit>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>

#include "util/hashing.h"
#include "util/strings.h"

namespace mapcq::core {

std::size_t configuration::hash() const noexcept {
  std::size_t seed = 0xA11C0DEull;
  for (const auto& row : partition) util::hash_combine_range(seed, row);
  util::hash_combine(seed, partition.size());
  for (const auto& row : forward) util::hash_combine_range(seed, row);
  util::hash_combine(seed, forward.size());
  util::hash_combine_range(seed, mapping);
  util::hash_combine_range(seed, dvfs);
  return seed;
}

double configuration::fmap_reuse_ratio() const {
  std::size_t possible = 0;
  std::size_t set = 0;
  for (std::size_t g = 0; g < groups(); ++g) {
    for (std::size_t i = 0; i + 1 < stages(); ++i) {
      if (partition[g][i] <= 0.0) continue;  // nothing to forward
      ++possible;
      if (forward[g][i]) ++set;
    }
  }
  if (possible == 0) return 0.0;
  return static_cast<double>(set) / static_cast<double>(possible);
}

void configuration::validate(const soc::platform& plat) const {
  if (partition.empty()) throw std::logic_error("configuration: no partition groups");
  if (mapping.empty()) throw std::logic_error("configuration: no stages");
  if (forward.size() != partition.size())
    throw std::logic_error("configuration: forward/partition group mismatch");

  const std::size_t m = stages();
  for (std::size_t g = 0; g < groups(); ++g) {
    if (partition[g].size() != m || forward[g].size() != m)
      throw std::logic_error("configuration: ragged row");
    double sum = 0.0;
    for (const double p : partition[g]) {
      if (p < -1e-12 || p > 1.0 + 1e-12)
        throw std::logic_error("configuration: partition fraction out of [0,1]");
      sum += p;
    }
    if (std::abs(sum - 1.0) > 1e-6)
      throw std::logic_error("configuration: partition row must sum to 1");
    if (partition[g][0] <= 0.0)
      throw std::logic_error("configuration: stage 1 must own a nonzero slice");
  }

  std::set<std::size_t> seen;
  for (const std::size_t cu : mapping) {
    if (cu >= plat.size()) throw std::logic_error("configuration: CU index out of range");
    if (!seen.insert(cu).second)
      throw std::logic_error("configuration: mapping must be injective (eq. 7)");
  }

  if (dvfs.size() != plat.size())
    throw std::logic_error("configuration: dvfs must cover every platform unit");
  for (std::size_t u = 0; u < dvfs.size(); ++u)
    if (dvfs[u] >= plat.unit(u).dvfs.levels())
      throw std::logic_error("configuration: DVFS level out of range");
}

std::string configuration::describe(const soc::platform& plat) const {
  std::ostringstream os;
  os << "stages: ";
  for (std::size_t i = 0; i < stages(); ++i) {
    const auto& cu = plat.unit(mapping[i]);
    os << util::format("S%zu->%s@%.0fMHz ", i + 1, cu.name.c_str(),
                       cu.dvfs.frequency_mhz(dvfs[mapping[i]]));
  }
  // Mean per-stage width share across groups.
  os << "| mean widths: ";
  for (std::size_t i = 0; i < stages(); ++i) {
    double acc = 0.0;
    for (std::size_t g = 0; g < groups(); ++g) acc += partition[g][i];
    os << util::format("%.2f ", acc / static_cast<double>(groups()));
  }
  os << util::format("| reuse %.1f%%", 100.0 * fmap_reuse_ratio());
  return os.str();
}

// Packed configuration layout, in 64-bit words:
//   [0..4)  partition rows P, forward rows F, mapping size M, dvfs size U
//   P words partition row lengths, then F words forward row lengths
//   every partition cell (std::bit_cast of the double), row by row
//   M mapping entries, then U dvfs levels
//   every forward bit, row by row, 64 to a word from the low bit up
std::size_t packed_configuration::word_count(const configuration& c) noexcept {
  std::size_t cells = 0;
  for (const auto& row : c.partition) cells += row.size();
  std::size_t bits = 0;
  for (const auto& row : c.forward) bits += row.size();
  return 4 + c.partition.size() + c.forward.size() + cells + c.mapping.size() + c.dvfs.size() +
         (bits + 63) / 64;
}

packed_configuration::packed_configuration(const configuration& config) {
  words_.reserve(word_count(config));
  words_.push_back(config.partition.size());
  words_.push_back(config.forward.size());
  words_.push_back(config.mapping.size());
  words_.push_back(config.dvfs.size());
  for (const auto& row : config.partition) words_.push_back(row.size());
  for (const auto& row : config.forward) words_.push_back(row.size());
  for (const auto& row : config.partition)
    for (const double v : row) words_.push_back(std::bit_cast<std::uint64_t>(v));
  for (const std::size_t m : config.mapping) words_.push_back(m);
  for (const std::size_t u : config.dvfs) words_.push_back(u);
  std::size_t bit = 0;
  for (const auto& row : config.forward) {
    for (const bool b : row) {
      if (bit % 64 == 0) words_.push_back(0);
      if (b) words_.back() |= std::uint64_t{1} << (bit % 64);
      ++bit;
    }
  }
}

bool packed_configuration::operator==(const configuration& config) const noexcept {
  const std::uint64_t* w = words_.data();
  if (w[0] != config.partition.size() || w[1] != config.forward.size() ||
      w[2] != config.mapping.size() || w[3] != config.dvfs.size())
    return false;
  std::size_t k = 4;
  for (const auto& row : config.partition)
    if (w[k++] != row.size()) return false;
  for (const auto& row : config.forward)
    if (w[k++] != row.size()) return false;
  // Shapes match, so every read below stays inside the buffer. Cells
  // compare as doubles (0.0 == -0.0, NaN never equal), as
  // configuration::operator== does.
  for (const auto& row : config.partition)
    for (const double v : row)
      if (std::bit_cast<double>(w[k++]) != v) return false;
  for (const std::size_t m : config.mapping)
    if (w[k++] != m) return false;
  for (const std::size_t u : config.dvfs)
    if (w[k++] != u) return false;
  std::size_t bit = 0;
  for (const auto& row : config.forward) {
    for (const bool b : row) {
      if (((w[k + bit / 64] >> (bit % 64)) & 1U) != static_cast<std::uint64_t>(b)) return false;
      ++bit;
    }
  }
  return true;
}

configuration packed_configuration::unpack() const {
  const std::uint64_t* w = words_.data();
  configuration config;
  config.partition.resize(w[0]);
  config.forward.resize(w[1]);
  config.mapping.resize(w[2]);
  config.dvfs.resize(w[3]);
  std::size_t k = 4;
  for (auto& row : config.partition) row.resize(w[k++]);
  for (auto& row : config.forward) row.resize(w[k++]);
  for (auto& row : config.partition)
    for (double& v : row) v = std::bit_cast<double>(w[k++]);
  for (std::size_t& m : config.mapping) m = w[k++];
  for (std::size_t& u : config.dvfs) u = w[k++];
  std::size_t bit = 0;
  for (auto& row : config.forward) {
    for (std::size_t i = 0; i < row.size(); ++i, ++bit)
      row[i] = ((w[k + bit / 64] >> (bit % 64)) & 1U) != 0;
  }
  return config;
}

}  // namespace mapcq::core
