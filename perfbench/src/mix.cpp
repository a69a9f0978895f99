#include "mix.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

namespace {

/// splitmix64: owned by the benchmark so a change to the program's own RNG
/// never changes the traffic it is measured with.
class mix_rng {
 public:
  explicit mix_rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  std::uint64_t ga_seed() { return (next() & 0xffffffffULL) | 1ULL; }
  orientation orient() { return static_cast<orientation>(below(3)); }
  std::vector<std::size_t> permutation(std::size_t n) {
    std::vector<std::size_t> p(n);
    std::iota(p.begin(), p.end(), std::size_t{0});
    for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[below(i)]);
    return p;
  }

 private:
  std::uint64_t state_;
};

std::vector<tuple_spec> tuples_over(std::vector<double> caps, std::vector<bool> targets) {
  std::vector<tuple_spec> out;
  for (std::size_t net = 0; net < 2; ++net)
    for (const double cap : caps)
      for (const bool t : targets) out.push_back({net, cap, t});
  return out;
}

/// Closed-loop length: more requests than any run can consume.
constexpr std::size_t closed_loop_requests = 1 << 14;

}  // namespace

std::optional<workload> parse_workload(std::string_view name) {
  for (const workload w : {workload::analytic_cold, workload::surrogate_sessions,
                           workload::warm_replay, workload::session_churn})
    if (name == name_of(w)) return w;
  return std::nullopt;
}

const char* name_of(workload w) {
  switch (w) {
    case workload::analytic_cold: return "analytic_cold";
    case workload::surrogate_sessions: return "surrogate_sessions";
    case workload::warm_replay: return "warm_replay";
    case workload::session_churn: return "session_churn";
  }
  return "?";
}

workload_spec spec_of(workload w) {
  workload_spec s;
  switch (w) {
    case workload::analytic_cold:
      s.clients = 2;
      s.max_sessions = 4;
      s.latency_limit_ms = 250.0;
      s.quality_prefix = 96;
      break;
    case workload::surrogate_sessions:
      s.clients = 2;
      s.use_surrogate = true;
      s.latency_limit_ms = 1000.0;
      s.quality_prefix = 16;
      break;
    case workload::warm_replay:
      s.open_loop = true;
      s.arrival_rate_per_s = 20.0;
      s.duplicate_share = 0.2;
      s.latency_limit_ms = 150.0;
      s.quality_prefix = 24;
      break;
    case workload::session_churn:
      s.clients = 1;
      s.use_surrogate = true;
      s.max_sessions = 2;
      s.latency_limit_ms = 1000.0;
      s.quality_prefix = 16;
      break;
  }
  return s;
}

request_mix generate_mix(workload w, std::uint64_t seed, double seconds) {
  mix_rng rng{seed ^ (0x6d6170637155ULL * (static_cast<std::uint64_t>(w) + 1))};
  request_mix mix;
  mix.kind = w;
  const workload_spec spec = spec_of(w);
  switch (w) {
    case workload::analytic_cold: {
      // Every request is a cold search with a new GA seed on a constraint
      // tuple none of the last 8 requests used. The service keeps 4
      // sessions, so each request creates its session and the run is in
      // steady state from its first request. Networks alternate, so every
      // run sends both the same share.
      mix.tuples = tuples_over({1.0, 0.75, 0.5}, {false, true});
      std::vector<std::size_t> recent;
      for (std::size_t i = 0; i < closed_loop_requests; ++i) {
        std::vector<std::size_t> pool;
        for (std::size_t t = 0; t < mix.tuples.size(); ++t)
          if (mix.tuples[t].net == i % 2 &&
              std::find(recent.begin(), recent.end(), t) == recent.end())
            pool.push_back(t);
        gen_request r;
        r.tuple = pool[rng.below(pool.size())];
        r.ga_seed = rng.ga_seed();
        r.orient = rng.orient();
        r.creates = true;
        recent.push_back(r.tuple);
        if (recent.size() > 2 * spec.max_sessions) recent.erase(recent.begin());
        mix.requests.push_back(r);
      }
      break;
    }
    case workload::surrogate_sessions: {
      // The first request of each tuple trains its GBT; the rest search
      // the trained surrogate with new seeds and orientations. Eight tuples
      // (two channel-ranking seeds each) give eight training requests.
      for (const tuple_spec& t : tuples_over({1.0}, {false, true}))
        for (const std::uint64_t ranking : {0xC0FFEEULL, 0xC0FFEFULL})
          mix.tuples.push_back({t.net, t.reuse_cap, t.targets, ranking});
      for (const std::size_t t : rng.permutation(mix.tuples.size())) {
        gen_request r;
        r.tuple = t;
        r.ga_seed = rng.ga_seed();
        r.orient = rng.orient();
        r.creates = true;
        mix.requests.push_back(r);
      }
      while (mix.requests.size() < closed_loop_requests) {
        gen_request r;
        r.tuple = rng.below(mix.tuples.size());
        r.ga_seed = rng.ga_seed();
        r.orient = rng.orient();
        mix.requests.push_back(r);
      }
      break;
    }
    case workload::warm_replay: {
      // Poisson arrivals over lanes x warmed GA seeds x orientations x
      // priorities. The arrival count is fixed (a Poisson process given its
      // count places arrivals uniformly), and so is the number of arrivals
      // followed within 2 ms by an exact copy, which coalesces with them.
      mix.tuples = tuples_over({1.0}, {false, true});
      for (std::size_t t = 0; t < mix.tuples.size(); ++t)
        mix.warm_seeds.push_back({rng.ga_seed(), rng.ga_seed(), rng.ga_seed()});
      const auto arrivals = static_cast<std::size_t>(spec.arrival_rate_per_s * seconds);
      std::vector<double> times(arrivals);
      for (double& t : times) t = (seconds - 0.002) * rng.uniform();
      std::sort(times.begin(), times.end());
      std::vector<bool> copied(arrivals, false);
      const std::vector<std::size_t> order = rng.permutation(arrivals);
      const auto copies =
          static_cast<std::size_t>(spec.duplicate_share * static_cast<double>(arrivals));
      for (std::size_t k = 0; k < copies; ++k) copied[order[k]] = true;
      for (std::size_t k = 0; k < arrivals; ++k) {
        gen_request r;
        r.tuple = rng.below(mix.tuples.size());
        r.ga_seed = mix.warm_seeds[r.tuple][rng.below(mix.warm_seeds[r.tuple].size())];
        r.orient = rng.orient();
        r.priority = rng.uniform() < 0.25 ? 1 : 0;
        r.arrival_s =
            std::max(times[k], mix.requests.empty() ? 0.0 : mix.requests.back().arrival_s);
        mix.requests.push_back(r);
        if (copied[k]) {
          r.arrival_s += 0.002 * rng.uniform();
          r.duplicate = true;
          mix.requests.push_back(r);
        }
      }
      break;
    }
    case workload::session_churn: {
      // Four trained sessions behind an LRU cap of two. Every request goes
      // to one of the two evicted sessions, so each one restores a session
      // and spills another, and the share of snapshot traffic is the same
      // for every seed.
      // One network, so every restore moves a snapshot of about the same
      // size; the tuples differ in targets and channel-ranking seed.
      for (const bool targets : {false, true})
        for (const std::uint64_t ranking : {0xC0FFEEULL, 0xC0FFEFULL})
          mix.tuples.push_back({0, 1.0, targets, ranking});
      for (std::size_t t = 0; t < mix.tuples.size(); ++t) mix.warm_seeds.push_back({rng.ga_seed()});
      std::vector<std::size_t> live;  // most recently used last
      for (std::size_t i = 0; i < closed_loop_requests; ++i) {
        std::vector<std::size_t> pool;
        for (std::size_t t = 0; t < mix.tuples.size(); ++t)
          if (std::find(live.begin(), live.end(), t) == live.end()) pool.push_back(t);
        gen_request r;
        r.tuple = pool[rng.below(pool.size())];
        r.ga_seed = mix.warm_seeds[r.tuple][rng.below(mix.warm_seeds[r.tuple].size())];
        r.orient = rng.orient();
        r.creates = true;
        std::erase(live, r.tuple);
        live.push_back(r.tuple);
        if (live.size() > spec.max_sessions) live.erase(live.begin());
        mix.requests.push_back(r);
      }
      break;
    }
  }
  return mix;
}

std::string describe_shape(const request_mix& mix) {
  std::vector<std::size_t> per_tuple(mix.tuples.size());
  std::size_t orient[3] = {0, 0, 0};
  std::size_t high_priority = 0;
  std::size_t duplicates = 0;
  std::size_t creates = 0;
  for (const gen_request& r : mix.requests) {
    ++per_tuple[r.tuple];
    ++orient[static_cast<int>(r.orient)];
    high_priority += r.priority > 0;
    duplicates += r.duplicate;
    creates += r.creates;
  }
  std::string out = "requests=" + std::to_string(mix.requests.size()) +
                    " tuples=" + std::to_string(mix.tuples.size()) + " per_tuple=[";
  for (std::size_t t = 0; t < per_tuple.size(); ++t) {
    if (t) out += ',';
    out += std::to_string(per_tuple[t]);
  }
  out += "] orientations=[" + std::to_string(orient[0]) + "," + std::to_string(orient[1]) + "," +
         std::to_string(orient[2]) + "] high_priority=" + std::to_string(high_priority) +
         " duplicates=" + std::to_string(duplicates) + " creating=" + std::to_string(creates);
  if (!mix.requests.empty() && mix.requests.back().arrival_s > 0.0) {
    char span[64];
    std::snprintf(span, sizeof span, " last_arrival_s=%.3f", mix.requests.back().arrival_s);
    out += span;
  }
  return out;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fingerprint(const request_mix& mix) {
  std::uint64_t h = fnv1a(name_of(mix.kind));
  char buf[128];
  for (const gen_request& r : mix.requests) {
    const int n = std::snprintf(buf, sizeof buf, "%zu|%llu|%d|%d|%.17g|%d|%d;", r.tuple,
                                static_cast<unsigned long long>(r.ga_seed),
                                static_cast<int>(r.orient), r.priority, r.arrival_s,
                                r.duplicate ? 1 : 0, r.creates ? 1 : 0);
    h = fnv1a(std::string_view(buf, static_cast<std::size_t>(n)), h);
  }
  return h;
}

}  // namespace perfbench
