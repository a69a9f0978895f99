#include "harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "core/baselines.h"
#include "core/dynamic_transform.h"
#include "core/evaluation_engine.h"
#include "core/evolutionary.h"
#include "core/search_space.h"
#include "core/serialization.h"
#include "nn/models.h"
#include "perf/batch_characterizer.h"
#include "serving/session.h"
#include "serving/session_snapshot.h"
#include "surrogate/dataset.h"
#include "surrogate/predictor.h"
#include "util/rng.h"

namespace perfbench {

namespace mc = mapcq::core;
namespace ms = mapcq::serving;
using steady = std::chrono::steady_clock;

namespace {

double seconds_between(steady::time_point a, steady::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::int64_t to_ns(steady::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}

ms::service_options service_opts(const workload_spec& spec) {
  ms::service_options o;
  o.engine.threads = engine_threads;
  o.engine.capacity = engine_capacity;
  o.workers = scheduler_workers;
  o.max_sessions = spec.max_sessions;
  return o;
}

std::unique_ptr<ms::mapping_service> make_service(const testbed& bed,
                                                  const ms::service_options& opt) {
  auto svc = std::make_unique<ms::mapping_service>(opt);
  for (const auto& net : bed.nets) svc->register_network(net);
  svc->register_platform(bed.cal.plat);
  return svc;
}

quality score(const testbed& bed, const tuple_spec& t, const ms::mapping_report& rep) {
  const testbed::baseline& b = bed.base.at(t.net);
  std::vector<std::pair<double, double>> points;
  for (const mc::evaluation& e : rep.front)
    if (e.feasible) points.emplace_back(e.avg_latency_ms, e.avg_energy_mj);
  quality q;
  q.hv_ratio = normalized_hypervolume(points, {std::max(b.gpu_latency_ms, b.dla_latency_ms),
                                               std::max(b.gpu_energy_mj, b.dla_energy_mj)});
  q.energy_gain_vs_gpu = b.gpu_energy_mj / rep.ours_energy().avg_energy_mj;
  q.latency_gain_vs_dla = b.dla_latency_ms / rep.ours_latency().avg_latency_ms;
  return q;
}

/// Ours-L / Ours-E selection, as mapping_service::map() makes it: the
/// cheapest pick within `slack` accuracy points of the best. The traced
/// decomposition must reproduce map() exactly; a bit-for-bit check against
/// map() guards this copy.
template <typename Metric>
std::size_t pick_within_slack(const std::vector<mc::evaluation>& front, double slack,
                              Metric metric) {
  double best_acc = 0.0;
  for (const auto& e : front) best_acc = std::max(best_acc, e.accuracy_pct);
  std::size_t best = front.size();
  double best_v = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < front.size(); ++i) {
    if (front[i].accuracy_pct < best_acc - slack) continue;
    const double v = metric(front[i]);
    if (v < best_v) {
      best_v = v;
      best = i;
    }
  }
  return best;
}

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
           return bits_equal(x, y);
         });
}

/// Fills the per-request counters and the quality / reference fields of `s`
/// from a finished report; `text` is its deterministic text when the caller
/// already has it, else empty.
void record_report(const workload_state& st, const request_mix& mix, std::size_t i,
                   const ms::mapping_report& rep, const std::string& text,
                   const pass_options& opt, served& s) {
  const gen_request& g = mix.requests[i];
  for (const mc::engine_stats* e : {&rep.search_cache, &rep.validation_cache}) {
    s.misses += e->misses;
    s.lookups += e->lookups();
    s.avoided += e->hits + e->dedup + e->inflight;
  }
  for (const mc::generation_stats& h : rep.search.history) s.feasible += h.feasible;
  s.generations = rep.search.history.size();
  s.trained = rep.trained_surrogate;
  s.created = g.creates;
  if (i < spec_of(mix.kind).quality_prefix) {
    s.text = text.empty() ? deterministic_text(rep) : text;
    s.q = score(*st.bed, mix.tuples[g.tuple], rep);
  }
  if (i < opt.keep_fronts) s.front = rep.front;
  if (!st.reference.empty()) {
    const auto it = st.reference.find({g.tuple, g.ga_seed});
    s.matches_reference = it != st.reference.end() && it->second.matches(rep);
  }
}

/// Runs each tuple's warm-up searches (one thread per tuple when
/// `parallel`), recording reference texts and session-creation times.
void warm_up(workload_state& st, ms::mapping_service& svc, const request_mix& mix, bool parallel) {
  std::mutex mu;
  std::vector<std::exception_ptr> errors(mix.tuples.size());
  const auto warm_tuple = [&](std::size_t t) {
    try {
      for (std::size_t k = 0; k < mix.warm_seeds[t].size(); ++k) {
        gen_request g;
        g.tuple = t;
        g.ga_seed = mix.warm_seeds[t][k];
        const auto t0 = steady::now();
        const ms::mapping_report rep = svc.map(make_request(*st.bed, mix, g));
        const double ms_taken = 1e3 * seconds_between(t0, steady::now());
        const std::lock_guard<std::mutex> lock{mu};
        if (k == 0) st.setup_cold_ms.push_back(ms_taken);
        st.reference[{t, g.ga_seed}] = {rep.front, rep.ours_latency_index, rep.ours_energy_index,
                                        score(*st.bed, mix.tuples[t], rep)};
      }
    } catch (...) {
      errors[t] = std::current_exception();
    }
  };
  if (parallel) {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < mix.tuples.size(); ++t) threads.emplace_back(warm_tuple, t);
    for (std::thread& th : threads) th.join();
  } else {
    for (std::size_t t = 0; t < mix.tuples.size(); ++t) warm_tuple(t);
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

/// Samples the scheduler's queued gauge every 500 us until stopped.
class queue_sampler {
 public:
  explicit queue_sampler(ms::mapping_service& svc) : svc_(svc), start_(steady::now()) {
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        const std::size_t q = svc_.scheduler().queued;
        sum_ += static_cast<double>(q);
        ++n_;
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }
  ~queue_sampler() { stop(); }
  queue_sampler(const queue_sampler&) = delete;
  queue_sampler& operator=(const queue_sampler&) = delete;

  void stop() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    thread_.join();
    window_s_ = seconds_between(start_, steady::now());
  }
  [[nodiscard]] double mean_length() const {
    return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_);
  }
  [[nodiscard]] double window_s() const { return window_s_; }

 private:
  ms::mapping_service& svc_;
  steady::time_point start_;
  std::atomic<bool> stop_{false};
  double sum_ = 0.0;  // written by the sampler thread only, read after join
  std::size_t n_ = 0;
  double window_s_ = 0.0;
  std::thread thread_;  ///< declared last: started after every member it uses
};

pass_result run_closed(workload_state& st, const request_mix& mix, const pass_options& opt,
                       span_log& log) {
  const workload_spec spec = spec_of(mix.kind);
  ms::mapping_service& svc = *st.service;
  pass_result res;
  res.requests.resize(mix.requests.size());
  std::atomic<std::size_t> next{0};
  const auto start = steady::now();
  const auto deadline = start + std::chrono::duration<double>(opt.seconds);

  const auto client = [&] {
    auto ready = steady::now();
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= mix.requests.size()) break;
      const bool stop = opt.max_requests != 0
                            ? i >= opt.max_requests
                            : steady::now() >= deadline && i >= spec.quality_prefix;
      if (stop) break;
      served& s = res.requests[i];
      s.attempted = true;
      s.clock.due_s = seconds_between(start, ready);
      const gen_request& g = mix.requests[i];
      try {
        const ms::mapping_request req = make_request(*st.bed, mix, g);
        const std::size_t restored_before = svc.sessions_restored();
        s.clock.sent_s = seconds_between(start, steady::now());
        const shipped out = serve_map(svc, req, log, i);
        s.clock.done_s = seconds_between(start, steady::now());
        record_report(st, mix, i, out.rep, out.text, opt, s);
        // One client drives session_churn, so the counter delta is this
        // request's own restore.
        s.restored = svc.sessions_restored() - restored_before;
        s.ok = true;
      } catch (const std::exception& e) {
        s.error = e.what();
      }
      ready = steady::now();
    }
  };
  std::vector<std::thread> clients;
  for (std::size_t c = 1; c < spec.clients; ++c) clients.emplace_back(client);
  client();
  for (std::thread& t : clients) t.join();
  return res;
}

pass_result run_open(workload_state& st, const request_mix& mix, const pass_options& opt,
                     span_log& log) {
  ms::mapping_service& svc = *st.service;
  std::vector<std::size_t> arrivals;
  std::vector<ms::mapping_request> reqs;
  for (std::size_t i = 0; i < mix.requests.size(); ++i)
    if (mix.requests[i].arrival_s < opt.seconds) {
      arrivals.push_back(i);
      reqs.push_back(make_request(*st.bed, mix, mix.requests[i]));
    }
  pass_result res;
  res.requests.resize(mix.requests.size());
  const ms::scheduler_stats before = svc.scheduler();

  struct pending {
    std::size_t index;
    std::int64_t root;
    std::shared_future<ms::mapping_report> fut;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<pending> queue;  // guarded by mu
  bool closed = false;        // guarded by mu
  steady::time_point start;

  // Independent users: each waiter takes the next submitted request and
  // blocks on it, so a request is timed when its own report is ready.
  const auto waiter = [&] {
    for (;;) {
      pending p;
      {
        std::unique_lock<std::mutex> lock{mu};
        cv.wait(lock, [&] { return closed || !queue.empty(); });
        if (queue.empty()) return;
        p = std::move(queue.front());
        queue.pop_front();
      }
      served& s = res.requests[p.index];
      try {
        const ms::mapping_report& rep = p.fut.get();
        {
          scoped_span report{log, "serving.report", p.index, p.root};
          (void)mc::to_text(rep.summary());
        }
        const auto done = steady::now();
        s.clock.done_s = seconds_between(start, done);
        log.end(p.root, to_ns(done));
        record_report(st, mix, p.index, rep, "", opt, s);
        s.ok = true;
      } catch (const std::exception& e) {
        s.error = e.what();
        log.end(p.root, now_ns());
      }
    }
  };
  constexpr std::size_t waiters = 8;
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < waiters; ++w) pool.emplace_back(waiter);
  std::unique_ptr<queue_sampler> sampler;
  if (opt.sample_queue) sampler = std::make_unique<queue_sampler>(svc);

  start = steady::now();
  for (std::size_t k = 0; k < arrivals.size(); ++k) {
    const std::size_t i = arrivals[k];
    served& s = res.requests[i];
    const auto due = start + std::chrono::duration_cast<steady::duration>(
                                 std::chrono::duration<double>(mix.requests[i].arrival_s));
    std::this_thread::sleep_until(due);
    s.attempted = true;
    s.clock.due_s = mix.requests[i].arrival_s;
    const std::int64_t root = log.begin("request", i, -1, to_ns(due));
    const auto sent = steady::now();
    std::shared_future<ms::mapping_report> fut;
    {
      scoped_span admit{log, "serving.admit", i, root};
      fut = svc.submit(reqs[k]);
    }
    s.clock.sent_s = seconds_between(start, sent);
    s.admit_s = seconds_between(sent, steady::now());
    ++res.submitted;
    {
      const std::lock_guard<std::mutex> lock{mu};
      queue.push_back({i, root, std::move(fut)});
    }
    cv.notify_one();
  }
  {
    const std::lock_guard<std::mutex> lock{mu};
    closed = true;
  }
  cv.notify_all();
  for (std::thread& t : pool) t.join();
  if (sampler) {
    sampler->stop();
    res.mean_queue_length = sampler->mean_length();
    res.queue_window_s = sampler->window_s();
  }

  ms::scheduler_stats after = svc.scheduler();
  res.sched = after;
  res.sched.submitted -= before.submitted;
  res.sched.admitted -= before.admitted;
  res.sched.coalesced -= before.coalesced;
  res.sched.rejected -= before.rejected;
  res.sched.expired -= before.expired;
  res.sched.completed -= before.completed;
  res.sched.failed -= before.failed;
  res.queue_arrivals = res.sched.admitted;
  return res;
}

}  // namespace

testbed::testbed() {
  nets.push_back(mapcq::nn::build_visformer());
  nets.push_back(mapcq::nn::build_vgg19());
  cal = mapcq::perf::calibrated_xavier(nets[0], nets[1]);
  const mapcq::soc::platform& plat = cal.plat;
  for (const auto& net : nets) {
    const auto gpu = mc::single_cu_baseline(net, plat, plat.first_of(mapcq::soc::cu_kind::gpu));
    const auto dla = mc::single_cu_baseline(net, plat, plat.first_of(mapcq::soc::cu_kind::dla));
    base.push_back({gpu.latency_ms, gpu.energy_mj, dla.latency_ms, dla.energy_mj});
  }
}

ms::mapping_request make_request(const testbed& bed, const request_mix& mix, const gen_request& g) {
  const tuple_spec& t = mix.tuples.at(g.tuple);
  const testbed::baseline& b = bed.base.at(t.net);
  ms::mapping_request req;
  req.network = bed.nets.at(t.net).name;
  req.ga.generations = ga_generations;
  req.ga.population = ga_population;
  req.ga.seed = g.ga_seed;
  req.eval.limits.fmap_reuse_cap = t.reuse_cap;
  if (t.targets) {
    // Midway between the single-CU baselines: reachable, yet binding.
    req.eval.limits.latency_target_ms = 0.5 * (b.gpu_latency_ms + b.dla_latency_ms);
    req.eval.limits.energy_target_mj = 0.5 * (b.gpu_energy_mj + b.dla_energy_mj);
  }
  req.ranking_seed = t.ranking_seed;
  req.use_surrogate = spec_of(mix.kind).use_surrogate;
  req.bench.samples = surrogate_samples;
  switch (g.orient) {
    case orientation::balanced: req.orientation = ms::objective_orientation::balanced; break;
    case orientation::latency: req.orientation = ms::objective_orientation::latency; break;
    case orientation::energy: req.orientation = ms::objective_orientation::energy; break;
  }
  req.priority = g.priority;
  return req;
}

std::string deterministic_text(const ms::mapping_report& rep) {
  mc::report_summary s = rep.summary();
  s.scheduler.reset();
  return mc::to_text(s);
}

bool same_bits(const mc::evaluation& a, const mc::evaluation& b) {
  return a.config == b.config && a.feasible == b.feasible && a.reject_reason == b.reject_reason &&
         bits_equal(a.objective, b.objective) && bits_equal(a.avg_latency_ms, b.avg_latency_ms) &&
         bits_equal(a.avg_energy_mj, b.avg_energy_mj) &&
         bits_equal(a.worst_latency_ms, b.worst_latency_ms) &&
         bits_equal(a.worst_energy_mj, b.worst_energy_mj) &&
         bits_equal(a.accuracy_pct, b.accuracy_pct) &&
         bits_equal(a.last_stage_accuracy_pct, b.last_stage_accuracy_pct) &&
         bits_equal(a.fmap_reuse_pct, b.fmap_reuse_pct) &&
         bits_equal(a.stored_fmap_bytes, b.stored_fmap_bytes) &&
         bits_equal(a.fmap_traffic_bytes, b.fmap_traffic_bytes) &&
         bits_equal(a.stage_latency_ms, b.stage_latency_ms) &&
         bits_equal(a.stage_energy_mj, b.stage_energy_mj) &&
         bits_equal(a.stage_accuracy_pct, b.stage_accuracy_pct) &&
         bits_equal(a.exit_fractions, b.exit_fractions);
}

bool reference_report::matches(const ms::mapping_report& rep) const {
  if (rep.ours_latency_index != ours_latency_index || rep.ours_energy_index != ours_energy_index ||
      rep.front.size() != front.size())
    return false;
  for (std::size_t k = 0; k < front.size(); ++k)
    if (!same_bits(rep.front[k], front[k])) return false;
  return true;
}

workload_state::~workload_state() {
  service.reset();
  if (!snapshot_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(snapshot_dir, ec);
  }
}

std::unique_ptr<workload_state> setup(const request_mix& mix, const std::string& scratch_dir,
                                      std::size_t attempt) {
  auto st = std::make_unique<workload_state>();
  st->scratch_dir = scratch_dir;
  st->bed = std::make_unique<testbed>();
  const workload_spec spec = spec_of(mix.kind);
  ms::service_options opt = service_opts(spec);
  if (mix.kind == workload::session_churn) {
    st->snapshot_dir = scratch_dir + "/snapshots-" + std::to_string(::getpid()) + "-" +
                       std::to_string(attempt);
    std::filesystem::remove_all(st->snapshot_dir);
    std::filesystem::create_directories(st->snapshot_dir);
    // Train and warm every session on an uncapped service, then spill them
    // all: the timed service starts empty and restores sessions on demand,
    // so no GBT is trained in the timed part.
    ms::service_options trainer_opt = opt;
    trainer_opt.max_sessions = 0;
    trainer_opt.snapshot.directory = st->snapshot_dir;
    trainer_opt.snapshot.restore_on_miss = false;
    const auto trainer = make_service(*st->bed, trainer_opt);
    warm_up(*st, *trainer, mix, /*parallel=*/true);
    if (trainer->spill_sessions() != mix.tuples.size())
      throw std::runtime_error("session_churn set-up: spilling the trained sessions failed");
    opt.snapshot.directory = st->snapshot_dir;
    opt.snapshot.spill_on_evict = true;
    opt.snapshot.restore_on_miss = true;
  }
  st->service = make_service(*st->bed, opt);
  if (mix.kind == workload::warm_replay) {
    warm_up(*st, *st->service, mix, /*parallel=*/false);
    // Start the scheduler and run the submit() path once per warm search,
    // so the timed window begins in steady state.
    std::vector<std::pair<const reference_report*, std::shared_future<ms::mapping_report>>> futs;
    for (const auto& [key, ref] : st->reference) {
      gen_request g;
      g.tuple = key.first;
      g.ga_seed = key.second;
      futs.emplace_back(&ref, st->service->submit(make_request(*st->bed, mix, g)));
    }
    for (const auto& [ref, fut] : futs)
      if (!ref->matches(fut.get()))
        throw std::runtime_error("warm_replay set-up: a submitted warm search changed its report");
  }
  return st;
}

pass_result run_pass(workload_state& st, const request_mix& mix, const pass_options& opt) {
  span_log untraced{false};
  span_log& log = opt.log ? *opt.log : untraced;
  ms::mapping_service& svc = *st.service;
  const std::size_t spilled0 = svc.sessions_spilled();
  const std::size_t spill_failures0 = svc.spill_failures();
  const std::size_t restored0 = svc.sessions_restored();
  const std::size_t restore_failures0 = svc.restore_failures();
  pass_result res = spec_of(mix.kind).open_loop ? run_open(st, mix, opt, log)
                                                : run_closed(st, mix, opt, log);
  res.spilled = svc.sessions_spilled() - spilled0;
  res.spill_failures = svc.spill_failures() - spill_failures0;
  res.restored = svc.sessions_restored() - restored0;
  res.restore_failures = svc.restore_failures() - restore_failures0;
  // Only attempted requests remain, in generation order.
  std::erase_if(res.requests, [](const served& s) { return !s.attempted; });
  for (const served& s : res.requests) res.wall_s = std::max(res.wall_s, s.clock.done_s);
  return res;
}

shipped serve_map(ms::mapping_service& svc, const ms::mapping_request& req, span_log& log,
                  std::uint64_t request_id) {
  scoped_span root{log, "request", request_id};
  shipped out;
  out.rep = log.enabled() ? decomposed_map(svc, req, log, request_id) : svc.map(req);
  scoped_span report{log, "serving.report", request_id};
  out.text = mc::to_text(out.rep.summary());
  return out;
}

ms::mapping_report decomposed_map(ms::mapping_service& service, const ms::mapping_request& req,
                                  span_log& log, std::uint64_t request_id) {
  ms::mapping_report rep;
  std::shared_ptr<ms::mapping_session> session;
  {
    scoped_span s{log, "serving.resolve", request_id};
    session = service.session_for(req);
  }
  rep.network = req.network;
  rep.platform = session->plat().name;
  rep.session_key = session->key();
  rep.orientation = req.orientation;
  mc::evaluation_engine* engine = &session->analytic_engine();
  if (req.use_surrogate) {
    scoped_span s{log, "surrogate.session_engine", request_id};
    bool trained = false;
    engine = &session->surrogate_engine(req.bench, req.gbt, &trained);
    rep.trained_surrogate = trained;
    rep.surrogate_fidelity = session->surrogate_fidelity();
  }
  {
    scoped_span s{log, "search.evolve", request_id};
    rep.search = mc::evolve(session->space(), *engine, req.ga);
  }
  rep.search_cache = rep.search.cache;
  mc::evaluation_engine& validator = session->analytic_engine();
  const mc::engine_stats before = validator.stats();
  std::vector<mc::configuration> picks;
  picks.reserve(rep.search.pareto.size());
  for (const std::size_t idx : rep.search.pareto) picks.push_back(rep.search.archive[idx].config);
  {
    scoped_span s{log, "serving.validation", request_id};
    rep.front = validator.evaluate_batch(picks);
  }
  rep.validation_cache = validator.stats() - before;
  if (rep.front.empty()) throw std::runtime_error("decomposed map: empty Pareto set");
  const auto energy = [](const mc::evaluation& e) { return e.avg_energy_mj; };
  const auto latency = [](const mc::evaluation& e) { return e.avg_latency_ms; };
  rep.ours_energy_index = pick_within_slack(rep.front, req.ours_e_accuracy_slack, energy);
  rep.ours_latency_index = pick_within_slack(rep.front, req.ours_l_accuracy_slack, latency);
  return rep;
}

void checks::expect(bool ok, const std::string& what) {
  std::cout << (ok ? "  [ok]   " : "  [FAIL] ") << what << "\n";
  if (!ok) ++failures_;
}

void check_pass(const workload_state& st, const request_mix& mix, const pass_result& pass,
                checks& c) {
  const workload_spec spec = spec_of(mix.kind);
  std::size_t failed = 0;
  std::size_t mismatched = 0;
  std::size_t misses = 0;
  std::size_t trained_wrong = 0;
  std::size_t restored_wrong = 0;
  std::string first_error;
  for (const served& s : pass.requests) {
    if (!s.ok) {
      ++failed;
      if (first_error.empty()) first_error = s.error;
      continue;
    }
    mismatched += !s.matches_reference;
    misses += s.misses;
    const bool should_train =
        spec.use_surrogate && s.created && mix.kind != workload::session_churn;
    trained_wrong += s.trained != should_train;
    restored_wrong += mix.kind == workload::session_churn && (s.restored != 0) != s.created;
  }
  c.expect(failed == 0, "every request completed (" + std::to_string(failed) + " failed" +
                            (first_error.empty() ? "" : ": " + first_error) + ")");
  c.expect(pass.requests.size() >= spec.quality_prefix,
           "the first " + std::to_string(spec.quality_prefix) + " requests were served");
  c.expect(pass.requests.size() > 10, "more than 10 requests, so a tail percentile exists");
  if (!st.reference.empty()) {
    c.expect(mismatched == 0,
             "every report, duplicates and coalesced ones included, is bit-identical to the "
             "warm-up report of the same request (" + std::to_string(mismatched) + " differ)");
    c.expect(misses == 0, "warm traffic made 0 evaluator runs (" + std::to_string(misses) + ")");
  }
  if (spec.use_surrogate)
    c.expect(trained_wrong == 0,
             "the GBT trained exactly on each tuple's first request and never in the timed part "
             "of session_churn");
  if (mix.kind == workload::session_churn) {
    c.expect(restored_wrong == 0 && pass.restored > 0,
             "every request restored its evicted session from disk (" +
                 std::to_string(pass.restored) + " restores)");
    c.expect(pass.spilled > 0 && pass.spill_failures == 0 && pass.restore_failures == 0,
             "spills " + std::to_string(pass.spilled) + ", spill_failures " +
                 std::to_string(pass.spill_failures) + ", restore_failures " +
                 std::to_string(pass.restore_failures));
  } else {
    c.expect(pass.spilled == 0 && pass.restored == 0, "no snapshot traffic");
  }
  if (spec.open_loop) {
    const ms::scheduler_stats& s = pass.sched;
    const bool reconciles =
        s.submitted == pass.submitted && s.submitted == s.admitted + s.coalesced + s.rejected &&
        s.admitted == s.completed + s.failed + s.expired + s.queued + s.inflight &&
        s.queued == 0 && s.inflight == 0 && s.rejected == 0 && s.expired == 0 && s.failed == 0;
    c.expect(reconciles, "scheduler_stats reconcile after the drain: submitted " +
                             std::to_string(s.submitted) + " = admitted " +
                             std::to_string(s.admitted) + " + coalesced " +
                             std::to_string(s.coalesced) + " + rejected " +
                             std::to_string(s.rejected) + "; admitted = completed " +
                             std::to_string(s.completed));
  }
}

probe_result run_probes(workload_state& st, const request_mix& mix, std::uint64_t seed,
                        span_log& log, checks& c) {
  constexpr std::uint64_t probe_id = std::uint64_t{1} << 40;
  probe_result r;
  const testbed& bed = *st.bed;
  const gen_request& g0 = mix.requests.front();
  const ms::mapping_request req = make_request(bed, mix, g0);
  const mapcq::nn::network& net = bed.nets.at(mix.tuples.at(g0.tuple).net);
  const mapcq::soc::platform& plat = bed.cal.plat;

  // --- configurations drawn from the tuple's search space -----------------
  const mc::search_space space{net, plat, req.ratio_levels};
  mapcq::util::rng gen{seed};
  std::vector<mc::configuration> configs;
  for (std::size_t i = 0; i < 256; ++i) configs.push_back(space.decode(space.random(gen)));
  std::vector<const mc::configuration*> ptrs;
  for (const auto& cfg : configs) ptrs.push_back(&cfg);
  const mc::evaluator ev{net, plat, req.eval, req.ranking_seed};

  // --- perf: the SoA characterizer over the configurations' plans ---------
  std::vector<mc::dynamic_network> dyn;
  for (const auto& cfg : configs)
    dyn.push_back(mc::transform(net, ev.groups(), ev.ranking(), cfg, plat, req.eval.reorder));
  std::vector<const mapcq::perf::stage_plan*> plans;
  for (const auto& d : dyn) {
    plans.push_back(&d.plan);
    r.sublayer_cells += d.plan.stages() * d.plan.groups();
  }
  mapcq::perf::batch_characterizer bc{plat, req.eval.model};
  std::vector<mapcq::perf::batch_profile> profiles(plans.size());
  for (int rep = 0; rep < 10; ++rep) {
    scoped_span s{log, "perf.batch_characterizer.run", probe_id};
    bc.run(plans, req.eval.count_idle_power, profiles);
  }

  // --- evaluator: scalar and batched --------------------------------------
  r.scalar_configs = 64;
  for (std::size_t i = 0; i < r.scalar_configs; ++i) {
    scoped_span s{log, "core.evaluator.evaluate", probe_id};
    (void)ev.evaluate(configs[i]);
  }
  r.batch_configs = configs.size();
  for (int rep = 0; rep < 3; ++rep) {
    scoped_span s{log, "core.evaluator.evaluate_batch", probe_id};
    (void)ev.evaluate_batch(ptrs);
  }

  // --- engine: miss path on a cold engine, then the hit path --------------
  mc::engine_options eo;
  eo.threads = engine_threads;
  mc::evaluation_engine engine{ev, eo};
  {
    scoped_span s{log, "core.engine.miss", probe_id};
    (void)engine.evaluate_batch(configs);
  }
  r.engine_misses = engine.stats().misses;
  for (int rep = 0; rep < 5; ++rep) {
    scoped_span s{log, "core.engine.hit", probe_id};
    (void)engine.evaluate_batch(configs);
  }
  r.engine_hits = engine.stats().hits;

  // --- surrogate: dataset, fit, predictions, surrogate evaluator ----------
  mapcq::surrogate::dataset data;
  {
    scoped_span s{log, "surrogate.generate_benchmark", probe_id};
    data = mapcq::surrogate::generate_benchmark({&net}, plat, req.bench);
  }
  const mapcq::surrogate::dataset_split parts =
      mapcq::surrogate::split(data, 0.8, req.bench.seed ^ 0x5eed);
  std::unique_ptr<mapcq::surrogate::hw_predictor> predictor;
  {
    scoped_span s{log, "surrogate.hw_predictor.fit", probe_id};
    predictor = std::make_unique<mapcq::surrogate::hw_predictor>(parts.train, req.gbt);
  }
  double predicted = 0.0;
  {
    scoped_span s{log, "surrogate.hw_predictor.predict", probe_id};
    for (std::size_t p = 0; p < 16; ++p) {
      const mapcq::perf::stage_plan& plan = *plans[p];
      for (std::size_t i = 0; i < plan.stages(); ++i) {
        const auto& cu = plat.unit(plan.cu_of_stage[i]);
        const std::size_t level = plan.dvfs_level[plan.cu_of_stage[i]];
        for (const auto& step : plan.steps[i]) {
          if (step.cost.empty()) continue;
          predicted += predictor->latency_ms(step.cost, cu, level, plan.active_stages());
          predicted += predictor->energy_mj(step.cost, cu, level, plan.active_stages());
          r.predictions += 2;
        }
      }
    }
  }
  c.expect(r.predictions > 0 && predicted > 0.0 && std::isfinite(predicted),
           "surrogate predictions are finite and positive");
  mc::evaluator_options sopt = req.eval;
  sopt.predictor = predictor.get();
  const mc::evaluator sev{net, plat, sopt, req.ranking_seed};
  r.surrogate_configs = 32;
  {
    scoped_span s{log, "core.evaluator.evaluate_batch.surrogate", probe_id};
    (void)sev.evaluate_batch(
        std::span<const mc::configuration* const>(ptrs.data(), r.surrogate_configs));
  }

  // --- snapshot: capture, text, save, load, restore into a fresh session --
  ms::mapping_service& svc = *st.service;
  const std::shared_ptr<ms::mapping_session> session = svc.session_for(req);
  ms::session_snapshot snap;
  {
    scoped_span s{log, "serving.snapshot.capture", probe_id};
    snap = session->snapshot();
  }
  {
    scoped_span s{log, "serving.snapshot.to_text", probe_id};
    r.snapshot_bytes = static_cast<double>(ms::to_text(snap).size());
  }
  const std::string path = st.scratch_dir + "/probe-" + std::to_string(::getpid()) + ".snapshot";
  {
    scoped_span s{log, "serving.snapshot.save", probe_id};
    ms::save_snapshot(path, snap);
  }
  ms::session_snapshot loaded;
  {
    scoped_span s{log, "serving.snapshot.load", probe_id};
    loaded = ms::load_snapshot(path);
  }
  std::filesystem::remove(path);
  mc::engine_options session_engine = eo;
  session_engine.capacity = engine_capacity;
  session_engine.eviction = mc::eviction_policy::lru;
  ms::mapping_session fresh{snap.session_key,
                            std::make_shared<const mapcq::nn::network>(net),
                            std::make_shared<const mapcq::soc::platform>(plat),
                            req.eval,
                            req.ratio_levels,
                            req.ranking_seed,
                            session_engine};
  {
    scoped_span s{log, "serving.snapshot.restore", probe_id};
    fresh.restore(loaded);
  }
  c.expect(fresh.analytic_engine().size() == snap.analytic_entries.size(),
           "a restored probe session holds every snapshotted cache entry");

  // --- scheduler: a burst of the workload's first requests ----------------
  // Closed-loop traffic never queues, so admission and queue wait are read
  // off a fixed burst instead: 8 requests submitted to a paused scheduler,
  // then drained by its workers.
  if (!spec_of(mix.kind).open_loop) {
    const ms::scheduler_stats before = svc.scheduler();
    svc.pause_scheduler();
    std::vector<std::shared_future<ms::mapping_report>> futs;
    for (std::size_t i = 0; i < 8; ++i) {
      ms::mapping_request b = make_request(bed, mix, mix.requests[i]);
      scoped_span s{log, "serving.admit", probe_id};
      futs.push_back(svc.submit(std::move(b)));
    }
    queue_sampler sampler{svc};
    svc.resume_scheduler();
    bool ok = true;
    for (const auto& f : futs) {
      try {
        ok = ok && !f.get().front.empty();
      } catch (const std::exception&) {
        ok = false;
      }
    }
    sampler.stop();
    const ms::scheduler_stats after = svc.scheduler();
    r.admitted = after.admitted - before.admitted;
    r.mean_queue_length = sampler.mean_length();
    r.queue_window_s = sampler.window_s();
    c.expect(ok && r.admitted + after.coalesced - before.coalesced == futs.size(),
             "the scheduler burst served all " + std::to_string(futs.size()) + " requests");
  }
  return r;
}

double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

}  // namespace perfbench
