#include "spans.h"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

namespace {
/// Innermost open scoped span per thread (the implicit parent).
thread_local std::vector<std::int64_t> open_scopes;
}  // namespace

std::vector<std::int64_t> self_times_ns(const std::vector<span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);

  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = lo;  // end of the union merged so far
    for (auto [a, b] : kids) {
      a = std::max(a, reach);
      b = std::min(b, hi);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::int64_t span_log::begin(const char* name, std::uint64_t request, std::int64_t parent,
                             std::int64_t start_ns) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock{mu_};
  spans_.push_back(span{name, start_ns, start_ns, parent, request});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void span_log::end(std::int64_t id, std::int64_t end_ns) {
  if (id < 0) return;
  const std::lock_guard<std::mutex> lock{mu_};
  spans_[static_cast<std::size_t>(id)].end_ns = end_ns;
}

std::vector<span> span_log::snapshot() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return spans_;
}

bool span_log::write_tsv(const std::string& path) const {
  const std::vector<span> all = snapshot();
  const std::vector<std::int64_t> self = self_times_ns(all);
  std::ofstream os{path};
  os << "id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns\n";
  for (std::size_t i = 0; i < all.size(); ++i)
    os << i << '\t' << all[i].parent << '\t' << all[i].request << '\t' << all[i].name << '\t'
       << all[i].start_ns << '\t' << all[i].end_ns << '\t' << self[i] << '\n';
  return static_cast<bool>(os);
}

scoped_span::scoped_span(span_log& log, const char* name, std::uint64_t request,
                         std::int64_t parent)
    : log_(log), id_(-1) {
  if (!log.enabled()) return;
  if (parent == -2) parent = open_scopes.empty() ? -1 : open_scopes.back();
  id_ = log.begin(name, request, parent, now_ns());
  open_scopes.push_back(id_);
}

scoped_span::~scoped_span() {
  if (id_ < 0) return;
  log_.end(id_, now_ns());
  open_scopes.pop_back();
}

}  // namespace perfbench
