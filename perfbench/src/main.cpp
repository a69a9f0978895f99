// mapcq serving benchmark: the perfbench binary that run.py builds and starts.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--commit <sha>]
//
// --trace 0 sets the workload up several times (setup_s is their median),
// then drives its generated traffic for --seconds and prints every
// end-to-end metric. --trace 1 replays the same generated requests twice on
// fresh set-ups, untraced and then decomposed into spanned layer calls,
// makes direct probe calls into every layer, and prints the per-layer
// metrics. Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}, and a failed output check
// makes the exit code 1. Spans are written under <out-dir>/spans/.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "perf/batch_characterizer.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace {

using namespace perfbench;
using steady = std::chrono::steady_clock;

struct args {
  workload kind = workload::analytic_cold;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build";
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <analytic_cold|surrogate_sessions|warm_replay|"
               "session_churn> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--commit <sha>]\n";
  std::exit(2);
}

args parse(int argc, char** argv) {
  args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        const auto w = parse_workload(value);
        if (!w) usage("unknown workload '" + value + "'");
        a.kind = *w;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = std::stoi(value) != 0;
      } else if (key == "--out-dir") {
        a.out_dir = value;
      } else if (key == "--commit") {
        a.commit = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": '" + value + "'");
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) usage("--seconds must be in (0, 600]");
  return a;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Ordered metric sink: name -> (value, unit).
class metric_set {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  [[nodiscard]] bool all_finite() const {
    for (const auto& e : entries_)
      if (!std::isfinite(e.value)) return false;
    return true;
  }
  void print_table() const {
    for (const auto& e : entries_)
      std::printf("  %-36s %16.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const double v = std::isfinite(entries_[i].value) ? entries_[i].value : 0.0;
      out += (i ? ", \"" : "\"") + entries_[i].name + "\": {\"value\": " + num(v) +
             ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<entry> entries_;
};

void print_host(const args& a, const testbed& bed) {
  const workload_spec spec = spec_of(a.kind);
  std::ostringstream host;
  host << "{\"host\": {\"cores\": " << std::thread::hardware_concurrency()
       << ", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER) << "\", \"build_type\": \""
       << json_escape(PERFBENCH_BUILD_TYPE) << "\", \"flags\": \""
       << json_escape(PERFBENCH_CXX_FLAGS)
       << "\", \"simd\": " << (mapcq::perf::simd_enabled() ? "true" : "false")
       << ", \"commit\": \"" << json_escape(a.commit) << "\", \"workload\": \"" << name_of(a.kind)
       << "\", \"seed\": " << a.seed << ", \"seconds\": " << num(a.seconds)
       << ", \"trace\": " << (a.trace ? 1 : 0) << ", \"ga_generations\": " << ga_generations
       << ", \"ga_population\": " << ga_population << ", \"engine_threads\": " << engine_threads
       << ", \"clients\": " << (spec.open_loop ? 0 : spec.clients)
       << ", \"scheduler_workers\": " << scheduler_workers
       << ", \"surrogate_samples\": " << surrogate_samples << ", \"calibration_anchor_error\": {";
  // The cost model is validated only at these single-CU anchors; the
  // simulated quality metrics below inherit its error everywhere else.
  for (std::size_t u = 0; u < bed.cal.reports.size(); ++u) {
    const auto& r = bed.cal.reports[u];
    double worst = 0.0;
    for (const double e : r.latency_error) worst = std::max(worst, std::abs(e));
    for (const double e : r.energy_error) worst = std::max(worst, std::abs(e));
    host << (u ? ", \"" : "\"") << json_escape(r.unit) << "\": " << num(worst);
  }
  host << "}}}";
  std::cout << host.str() << "\n";
}

struct phase_totals {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

std::map<std::string, phase_totals> aggregate(const std::vector<span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, phase_totals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    phase_totals& t = out[spans[i].name];
    ++t.count;
    t.total_s += 1e-9 * static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    t.self_s += 1e-9 * static_cast<double>(self[i]);
  }
  return out;
}

void print_spans(const char* title, const std::map<std::string, phase_totals>& agg) {
  std::printf("spans (%s): name, count, total ms, self ms\n", title);
  for (const auto& [name, t] : agg)
    std::printf("  %-40s %8zu %12.3f %12.3f\n", name.c_str(), t.count, 1e3 * t.total_s,
                1e3 * t.self_s);
}

std::vector<double> latencies_ms(const pass_result& p) {
  std::vector<double> out;
  for (const served& s : p.requests)
    if (s.ok) out.push_back(1e3 * latency_from_due_s(s.clock));
  return out;
}

std::size_t failed_count(const pass_result& p) {
  std::size_t n = 0;
  for (const served& s : p.requests) n += !s.ok;
  return n;
}

/// Digest of the first K summary texts, in generation order.
std::uint64_t report_digest(const pass_result& p, std::size_t k) {
  std::uint64_t h = fnv1a("");
  for (std::size_t i = 0; i < k && i < p.requests.size(); ++i) h = fnv1a(p.requests[i].text, h);
  return h;
}

void add_end_to_end(metric_set& m, const args& a, const request_mix& mix,
                    const workload_state& st, const pass_result& p,
                    const std::vector<double>& setup_s, const std::vector<double>& setup_cold_ms,
                    checks& c) {
  const workload_spec spec = spec_of(a.kind);
  const std::vector<double> lat = latencies_ms(p);
  std::vector<double> cold;
  for (const served& s : p.requests)
    if (s.ok && s.created) cold.push_back(1e3 * latency_from_due_s(s.clock));
  // warm_replay creates its sessions while it is set up; its cold reports
  // are those warm-up requests.
  if (spec.open_loop) cold = setup_cold_ms;
  std::size_t within = 0;
  for (const served& s : p.requests)
    within += s.ok && 1e3 * latency_from_due_s(s.clock) <= spec.latency_limit_ms;
  // Quality is averaged within each session tuple first, so the tuple mix
  // of the scored requests does not move it. Warm workloads only repeat
  // their warm-up searches, which are scored instead.
  std::vector<std::vector<double>> hv(mix.tuples.size()), egain(mix.tuples.size()),
      lgain(mix.tuples.size());
  std::size_t scored = 0;
  const auto add_quality = [&](std::size_t tuple, const quality& q) {
    hv[tuple].push_back(q.hv_ratio);
    egain[tuple].push_back(q.energy_gain_vs_gpu);
    lgain[tuple].push_back(q.latency_gain_vs_dla);
    ++scored;
  };
  if (!st.reference.empty()) {
    for (const auto& [key, ref] : st.reference) add_quality(key.first, ref.q);
  } else {
    for (std::size_t i = 0; i < spec.quality_prefix && i < p.requests.size(); ++i)
      if (p.requests[i].q) add_quality(mix.requests[i].tuple, *p.requests[i].q);
  }
  const auto tail = tail_percentile(lat);
  c.expect(!cold.empty(), "cold reports were timed (" + std::to_string(cold.size()) + ")");
  c.expect(scored > 0 && (!st.reference.empty() || scored == spec.quality_prefix),
           "quality scored on " + std::to_string(scored) + " searches");

  m.add("setup_s", median(setup_s), "s");
  m.add("requests_per_s", p.wall_s > 0.0 ? static_cast<double>(lat.size()) / p.wall_s : 0.0, "1/s");
  m.add("latency_p50_ms", median(lat), "ms");
  m.add("latency_tail_ms", tail ? tail->value : 0.0, "ms");
  m.add("cold_report_ms", median(cold), "ms");
  m.add("within_limit_ratio",
        p.requests.empty()
            ? 0.0
            : static_cast<double>(within) / static_cast<double>(p.requests.size()),
        "1");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("front_hv_ratio", mean_of_group_means(hv), "1");
  m.add("energy_gain_vs_gpu", geomean_of_group_geomeans(egain), "x");
  m.add("latency_gain_vs_dla", geomean_of_group_geomeans(lgain), "x");

  std::printf("setup_s samples:");
  for (const double s : setup_s) std::printf(" %.4f", s);
  std::printf("\nlatency_tail_ms is p%.2f of %zu samples (%zu beyond it); limit %.0f ms; "
              "%zu cold reports\n",
              tail ? tail->percentile : 0.0, tail ? tail->samples : lat.size(),
              tail ? tail->beyond : 0, spec.latency_limit_ms, cold.size());
  std::printf("report digest (first %zu summaries, seed %llu): %016llx\n", spec.quality_prefix,
              static_cast<unsigned long long>(a.seed),
              static_cast<unsigned long long>(report_digest(p, spec.quality_prefix)));
}

struct span_view {
  std::map<std::string, phase_totals> agg;
  [[nodiscard]] phase_totals get(const std::string& name) const {
    const auto it = agg.find(name);
    return it == agg.end() ? phase_totals{} : it->second;
  }
  [[nodiscard]] double mean_ms(const std::string& name) const {
    const phase_totals t = get(name);
    return t.count == 0 ? 0.0 : 1e3 * t.total_s / static_cast<double>(t.count);
  }
  [[nodiscard]] double share_pct(const std::string& name) const {
    const double root = get("request").total_s;
    return root > 0.0 ? 100.0 * get(name).self_s / root : 0.0;
  }
};

void run_untraced(const args& a, const request_mix& mix, steady::time_point process_start,
                  checks& c, metric_set& m, std::size_t& attempted, std::size_t& failed) {
  std::vector<double> setup_s;
  std::vector<double> setup_cold_ms;
  std::unique_ptr<workload_state> st;
  double spent_s = 0.0;
  for (std::size_t r = 0; r < max_setup_repeats; ++r) {
    if (r >= min_setup_repeats && spent_s >= setup_budget_s) break;
    st.reset();
    const auto t0 = r == 0 ? process_start : steady::now();
    st = setup(mix, a.out_dir, r);
    setup_s.push_back(std::chrono::duration<double>(steady::now() - t0).count());
    spent_s += setup_s.back();
    // The first set-up also pays for starting the process.
    if (r > 0)
      setup_cold_ms.insert(setup_cold_ms.end(), st->setup_cold_ms.begin(), st->setup_cold_ms.end());
  }
  print_host(a, *st->bed);
  pass_options po;
  po.seconds = a.seconds;
  const pass_result p = run_pass(*st, mix, po);
  std::printf("timed pass: %zu requests in %.3f s\n", p.requests.size(), p.wall_s);
  check_pass(*st, mix, p, c);
  add_end_to_end(m, a, mix, *st, p, setup_s, setup_cold_ms, c);
  attempted = p.requests.size();
  failed = failed_count(p);
}

/// Traced closed-loop requests whose fronts are re-checked against map().
constexpr std::size_t reproduce_checks = 16;

void run_traced(const args& a, const request_mix& mix, checks& c, metric_set& m,
                std::size_t& attempted, std::size_t& failed) {
  const workload_spec spec = spec_of(a.kind);
  const double half = a.seconds / 2.0;

  // Untraced pass: the reference for the tracing overhead. A first,
  // discarded pass grows the heap to its working size, so the untraced and
  // traced passes both run in an equally warm process.
  double untraced_mean_ms = 0.0;
  std::size_t n = 0;
  for (std::size_t attempt = 0; attempt < 2; ++attempt) {
    const auto st = setup(mix, a.out_dir, attempt);
    pass_options po;
    po.seconds = half;
    const pass_result u = run_pass(*st, mix, po);
    untraced_mean_ms = mean(latencies_ms(u));
    n = u.requests.size();
  }
  std::printf("untraced pass: %zu requests, mean latency %.3f ms\n", n, untraced_mean_ms);

  // Traced pass over the same generated requests.
  const auto st = setup(mix, a.out_dir, 2);
  print_host(a, *st->bed);
  span_log replay_log{true};
  pass_options po;
  po.seconds = half;
  po.max_requests = spec.open_loop ? 0 : n;
  po.log = &replay_log;
  po.sample_queue = spec.open_loop;
  po.keep_fronts = reproduce_checks;
  const pass_result t = run_pass(*st, mix, po);
  std::printf("traced pass: %zu requests in %.3f s\n", t.requests.size(), t.wall_s);
  check_pass(*st, mix, t, c);
  attempted = t.requests.size();
  failed = failed_count(t);
  const double cache_mb = 1e-6 * static_cast<double>(st->service->engine_totals().cache_bytes);

  // The decomposition must reproduce map(). Closed loops were decomposed in
  // the traced pass: map() now re-serves their first requests and must
  // return the same fronts. The open loop went through
  // submit(), so its distinct requests are decomposed here instead and
  // compared with their warm-up reports.
  span_log decomposed_log{true};
  bool reproduces = true;
  if (!spec.open_loop) {
    for (std::size_t i = 0; i < reproduce_checks && i < t.requests.size(); ++i) {
      const auto rep = st->service->map(make_request(*st->bed, mix, mix.requests[i]));
      const auto& front = t.requests[i].front;
      bool same = rep.front.size() == front.size() && deterministic_text(rep) == t.requests[i].text;
      for (std::size_t k = 0; same && k < front.size(); ++k)
        same = same_bits(rep.front[k], front[k]);
      reproduces = reproduces && same;
    }
  } else {
    std::uint64_t id = 0;
    for (const auto& [key, expected] : st->reference) {
      gen_request g;
      g.tuple = key.first;
      g.ga_seed = key.second;
      const shipped out =
          serve_map(*st->service, make_request(*st->bed, mix, g), decomposed_log, id++);
      const std::size_t runs = out.rep.search_cache.misses + out.rep.validation_cache.misses;
      reproduces = reproduces && runs == 0 && expected.matches(out.rep);
    }
  }
  c.expect(reproduces, "the traced decomposition reproduces map()'s validated fronts bit-for-bit");

  span_log probe_log{true};
  const probe_result probed = run_probes(*st, mix, a.seed, probe_log, c);

  const span_view replay{aggregate(replay_log.snapshot())};
  const span_view phases{aggregate((spec.open_loop ? decomposed_log : replay_log).snapshot())};
  const span_view probe{aggregate(probe_log.snapshot())};
  print_spans("replay", replay.agg);
  if (spec.open_loop) print_spans("decomposed warm requests", phases.agg);
  print_spans("probes", probe.agg);

  std::size_t lookups = 0, avoided = 0, misses = 0, trainings = 0, feasible = 0, generations = 0;
  std::vector<double> late_ms, admit_us;
  for (const served& s : t.requests) {
    lookups += s.lookups;
    avoided += s.avoided;
    misses += s.misses;
    trainings += s.trained;
    feasible += s.feasible;
    generations += s.generations;
    late_ms.push_back(1e3 * generator_lateness_s(s.clock));
    if (spec.open_loop) admit_us.push_back(1e6 * s.admit_s);
  }
  const double traced_mean_ms = mean(latencies_ms(t));
  const double snapshot_mb = 1e-6 * probed.snapshot_bytes;
  // Quotient that reads 0 when nothing was counted.
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const auto secs = [&](const char* name) { return probe.get(name).total_s; };
  const auto count = [&](const char* name) { return static_cast<double>(probe.get(name).count); };
  const auto dbl = [](std::size_t v) { return static_cast<double>(v); };
  const phase_totals evolve = phases.get("search.evolve");

  m.add("perf.ns_per_sublayer",
        1e9 * ratio(secs("perf.batch_characterizer.run"),
                    count("perf.batch_characterizer.run") * dbl(probed.sublayer_cells)),
        "ns");
  m.add("evaluator.configs_per_s",
        ratio(count("core.evaluator.evaluate_batch") * dbl(probed.batch_configs),
              secs("core.evaluator.evaluate_batch")),
        "1/s");
  m.add("evaluator.scalar_configs_per_s",
        ratio(dbl(probed.scalar_configs), secs("core.evaluator.evaluate")), "1/s");
  m.add("evaluator.surrogate_configs_per_s",
        ratio(dbl(probed.surrogate_configs), secs("core.evaluator.evaluate_batch.surrogate")),
        "1/s");
  m.add("engine.miss_us", 1e6 * ratio(secs("core.engine.miss"), dbl(probed.engine_misses)), "us");
  m.add("engine.hit_ns", 1e9 * ratio(secs("core.engine.hit"), dbl(probed.engine_hits)), "ns");
  m.add("engine.hit_ratio", ratio(dbl(avoided), dbl(lookups)), "1");
  m.add("engine.misses", dbl(misses), "count");
  m.add("engine.cache_mb", cache_mb, "MB");
  m.add("search.ms_per_generation",
        1e3 * ratio(evolve.total_s, dbl(evolve.count * ga_generations)), "ms");
  m.add("search.feasible_ratio", ratio(dbl(feasible), dbl(generations * ga_population)), "1");
  m.add("search.share_pct", phases.share_pct("search.evolve"), "%");
  m.add("surrogate.dataset_s", secs("surrogate.generate_benchmark"), "s");
  m.add("surrogate.fit_s", secs("surrogate.hw_predictor.fit"), "s");
  m.add("surrogate.predict_ns",
        1e9 * ratio(secs("surrogate.hw_predictor.predict"), dbl(probed.predictions)), "ns");
  m.add("surrogate.trainings", dbl(trainings), "count");
  m.add("surrogate.train_share_pct", phases.share_pct("surrogate.session_engine"), "%");
  if (spec.open_loop) {
    m.add("serving.admit_us", mean(admit_us), "us");
    m.add("serving.queue_wait_ms",
          1e3 * littles_law_wait_s(t.mean_queue_length, t.queue_arrivals, t.queue_window_s),
          "ms");
  } else {
    m.add("serving.admit_us", 1e6 * ratio(secs("serving.admit"), count("serving.admit")), "us");
    m.add("serving.queue_wait_ms",
          1e3 * littles_law_wait_s(probed.mean_queue_length, probed.admitted,
                                   probed.queue_window_s),
          "ms");
  }
  m.add("serving.coalesced_ratio", ratio(dbl(t.sched.coalesced), dbl(t.sched.submitted)), "1");
  m.add("serving.resolve_ms", phases.mean_ms("serving.resolve"), "ms");
  m.add("serving.resolve_share_pct", phases.share_pct("serving.resolve"), "%");
  m.add("serving.validation_ms", phases.mean_ms("serving.validation"), "ms");
  m.add("serving.validation_share_pct", phases.share_pct("serving.validation"), "%");
  m.add("serving.report_ms", phases.mean_ms("serving.report"), "ms");
  m.add("serving.report_share_pct", phases.share_pct("serving.report"), "%");
  m.add("snapshot.spill_mb_per_s",
        ratio(snapshot_mb, secs("serving.snapshot.capture") + secs("serving.snapshot.save")),
        "MB/s");
  m.add("snapshot.restore_mb_per_s",
        ratio(snapshot_mb, secs("serving.snapshot.load") + secs("serving.snapshot.restore")),
        "MB/s");
  m.add("snapshot.mb", snapshot_mb, "MB");
  m.add("snapshot.spilled", dbl(t.spilled), "count");
  m.add("snapshot.restored", dbl(t.restored), "count");
  m.add("snapshot.restore_failures", dbl(t.restore_failures), "count");
  m.add("generator.late_ms", mean(late_ms), "ms");
  m.add("trace.overhead_pct", 100.0 * (ratio(traced_mean_ms, untraced_mean_ms) - 1.0), "%");

  std::filesystem::create_directories(a.out_dir + "/spans");
  const std::string stem =
      a.out_dir + "/spans/" + name_of(a.kind) + "-seed" + std::to_string(a.seed);
  const bool written = replay_log.write_tsv(stem + "-replay.tsv") &&
                       probe_log.write_tsv(stem + "-probe.tsv") &&
                       (!spec.open_loop || decomposed_log.write_tsv(stem + "-decomposed.tsv"));
  c.expect(written, "spans written to " + stem + "-*.tsv");
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = steady::now();
  const args a = parse(argc, argv);
  checks c;
  metric_set m;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  try {
    std::filesystem::create_directories(a.out_dir);
    const request_mix mix = generate_mix(a.kind, a.seed, a.seconds);
    const request_mix other = generate_mix(a.kind, a.seed + 1, a.seconds);
    std::printf("workload %s, seed %llu: %s fingerprint %016llx\n", name_of(a.kind),
                static_cast<unsigned long long>(a.seed), describe_shape(mix).c_str(),
                static_cast<unsigned long long>(fingerprint(mix)));
    std::printf("same workload, seed %llu: %s fingerprint %016llx\n",
                static_cast<unsigned long long>(a.seed + 1), describe_shape(other).c_str(),
                static_cast<unsigned long long>(fingerprint(other)));
    if (a.trace)
      run_traced(a, mix, c, m, attempted, failed);
    else
      run_untraced(a, mix, process_start, c, m, attempted, failed);
  } catch (const std::exception& e) {
    c.expect(false, std::string("run aborted: ") + e.what());
  }
  c.expect(m.all_finite(), "every metric is finite");
  m.print_table();
  std::cout << "{\"correct\": " << (c.all_passed() ? "true" : "false")
            << ", \"attempted\": " << std::max<std::size_t>(attempted, 1)
            << ", \"failed\": " << failed
            << ", \"metrics\": " << m.json() << "}" << std::endl;
  return c.all_passed() ? 0 : 1;
}
