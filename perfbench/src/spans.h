#pragma once
// Span recorder for the traced run. The benchmark opens one span around
// each call it makes into a layer's public functions (name, start, end,
// parent span, request id), keeps every span in memory and writes them out
// once the run ends. Per-layer numbers are then read off the spans' self
// times: a span's duration minus the part of it its children cover.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since an arbitrary epoch.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct span {
  const char* name = "";  ///< a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the parent span; -1 for a root
  std::uint64_t request = 0;
};

/// Self time of every span, index-aligned with `spans`: its duration minus
/// the union of its children's intervals clipped to it. Children may nest
/// or overlap each other (concurrent children on other threads).
[[nodiscard]] std::vector<std::int64_t> self_times_ns(const std::vector<span>& spans);

/// Thread-safe in-memory span log. A disabled log records nothing and every
/// call returns at once, which is how the untraced pass runs the same code.
class span_log {
 public:
  explicit span_log(bool enabled) : enabled_(enabled) {}
  span_log(const span_log&) = delete;
  span_log& operator=(const span_log&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span starting at `start_ns`; returns its id (-1 when disabled).
  std::int64_t begin(const char* name, std::uint64_t request, std::int64_t parent,
                     std::int64_t start_ns);
  /// Closes span `id` at `end_ns` (no-op for -1).
  void end(std::int64_t id, std::int64_t end_ns);

  [[nodiscard]] std::vector<span> snapshot() const;

  /// Writes one tab-separated row per span (id, parent, request, name,
  /// start, end, self, all in ns). Returns false on an I/O error.
  bool write_tsv(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;  ///< guards spans_
  std::vector<span> spans_;
};

/// RAII span whose parent is the innermost scoped span open on the same
/// thread (or `parent` when given explicitly).
class scoped_span {
 public:
  scoped_span(span_log& log, const char* name, std::uint64_t request, std::int64_t parent = -2);
  ~scoped_span();
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

  [[nodiscard]] std::int64_t id() const noexcept { return id_; }

 private:
  span_log& log_;
  std::int64_t id_;
};

}  // namespace perfbench
