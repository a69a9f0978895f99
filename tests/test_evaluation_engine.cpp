// Memoizing evaluation-engine tests: hash/equality identity, bit-identical
// cached results, in-batch dedup, cross-thread in-flight dedup, async batch
// futures, concurrent batch determinism, capacity eviction, GA cache-stat
// accounting and packed cache entries.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "core/evaluation_engine.h"
#include "core/evolutionary.h"
#include "nn/models.h"
#include "soc/platform.h"
#include "util/hashing.h"

namespace {

using namespace mapcq;
using core::configuration;
using core::engine_options;
using core::evaluation;
using core::evaluation_engine;
using core::evaluator;
using core::search_space;

struct engine_fixture : ::testing::Test {
  nn::network net = nn::build_simple_cnn();
  soc::platform plat = soc::agx_xavier();
  search_space space{net, plat};
  evaluator eval{net, plat, {}};

  std::vector<configuration> random_configs(std::size_t n, std::uint64_t seed = 3) const {
    util::rng gen{seed};
    std::vector<configuration> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(space.decode(space.random(gen)));
    return out;
  }
};

// Exact, field-by-field equality of two evaluations.
void expect_identical(const evaluation& a, const evaluation& b) {
  EXPECT_TRUE(a.config == b.config);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.reject_reason, b.reject_reason);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.avg_latency_ms, b.avg_latency_ms);
  EXPECT_EQ(a.avg_energy_mj, b.avg_energy_mj);
  EXPECT_EQ(a.worst_latency_ms, b.worst_latency_ms);
  EXPECT_EQ(a.worst_energy_mj, b.worst_energy_mj);
  EXPECT_EQ(a.accuracy_pct, b.accuracy_pct);
  EXPECT_EQ(a.last_stage_accuracy_pct, b.last_stage_accuracy_pct);
  EXPECT_EQ(a.fmap_reuse_pct, b.fmap_reuse_pct);
  EXPECT_EQ(a.stored_fmap_bytes, b.stored_fmap_bytes);
  EXPECT_EQ(a.fmap_traffic_bytes, b.fmap_traffic_bytes);
  EXPECT_EQ(a.stage_latency_ms, b.stage_latency_ms);
  EXPECT_EQ(a.stage_energy_mj, b.stage_energy_mj);
  EXPECT_EQ(a.stage_accuracy_pct, b.stage_accuracy_pct);
  EXPECT_EQ(a.exit_fractions, b.exit_fractions);
}

TEST_F(engine_fixture, configuration_hash_tracks_equality) {
  const auto configs = random_configs(8);
  for (const auto& a : configs) {
    configuration copy = a;
    EXPECT_TRUE(copy == a);
    EXPECT_EQ(copy.hash(), a.hash());
  }
  // Any single-field change must break equality (hash almost surely too).
  configuration c = configs.front();
  configuration d = c;
  d.partition[0][0] += 1e-9;
  d.partition[0][1] -= 1e-9;
  EXPECT_FALSE(d == c);
  configuration f = c;
  if (f.stages() > 1) {
    f.forward[0][0] = !f.forward[0][0];
    EXPECT_FALSE(f == c);
    EXPECT_NE(f.hash(), c.hash());
  }
  configuration m = c;
  std::swap(m.mapping[0], m.mapping[m.mapping.size() - 1]);
  EXPECT_FALSE(m == c);
  EXPECT_NE(m.hash(), c.hash());
}

TEST_F(engine_fixture, cached_result_is_bit_identical) {
  evaluation_engine engine{eval};
  const configuration c = random_configs(1).front();
  const evaluation direct = eval.evaluate(c);
  const evaluation first = engine.evaluate(c);   // miss
  const evaluation second = engine.evaluate(c);  // hit
  expect_identical(first, direct);
  expect_identical(second, direct);
  const auto s = engine.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(engine.size(), 1u);
}

TEST_F(engine_fixture, batch_collapses_duplicates_onto_one_run) {
  evaluation_engine engine{eval};
  const configuration c = random_configs(1).front();
  const std::vector<configuration> batch(10, c);
  const auto results = engine.evaluate_batch(batch);
  ASSERT_EQ(results.size(), 10u);
  for (const auto& r : results) expect_identical(r, results.front());
  const auto s = engine.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.dedup, 9u);
  EXPECT_EQ(s.hits, 0u);
  // A second pass over the same batch is all hits.
  (void)engine.evaluate_batch(batch);
  EXPECT_EQ(engine.stats().hits, 10u);
}

TEST_F(engine_fixture, concurrent_batch_matches_serial_and_is_deterministic) {
  const auto configs = random_configs(64);
  engine_options serial_opt;
  serial_opt.threads = 1;
  engine_options parallel_opt;
  parallel_opt.threads = 8;

  evaluation_engine serial{eval, serial_opt};
  evaluation_engine parallel{eval, parallel_opt};
  const auto a = serial.evaluate_batch(configs);
  const auto b = parallel.evaluate_batch(configs);
  const auto c = parallel.evaluate_batch(configs);  // warm pass
  ASSERT_EQ(a.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    expect_identical(b[i], a[i]);
    expect_identical(c[i], a[i]);
  }
  EXPECT_EQ(parallel.stats().hits, configs.size());
}

TEST_F(engine_fixture, capacity_bound_evicts_oldest_entries) {
  engine_options opt;
  opt.shards = 1;
  opt.capacity = 4;
  evaluation_engine engine{eval, opt};
  const auto configs = random_configs(10);
  for (const auto& c : configs) (void)engine.evaluate(c);
  EXPECT_LE(engine.size(), 4u);
  EXPECT_EQ(engine.stats().evictions, 6u);
  EXPECT_EQ(engine.stats().misses, 10u);

  // The most recent entry survived; the first was evicted and re-misses,
  // but still returns the exact same result.
  const evaluation direct = eval.evaluate(configs.front());
  (void)engine.evaluate(configs.back());
  EXPECT_EQ(engine.stats().hits, 1u);
  const evaluation refetched = engine.evaluate(configs.front());
  expect_identical(refetched, direct);
  EXPECT_EQ(engine.stats().misses, 11u);
}

TEST_F(engine_fixture, lru_eviction_retains_hot_keys_under_pressure) {
  engine_options opt;
  opt.shards = 1;
  opt.capacity = 4;
  opt.eviction = core::eviction_policy::lru;
  evaluation_engine engine{eval, opt};
  const auto configs = random_configs(6);

  for (std::size_t i = 0; i < 4; ++i) (void)engine.evaluate(configs[i]);  // fill
  (void)engine.evaluate(configs[0]);  // hit: configs[0] becomes hottest
  (void)engine.evaluate(configs[4]);  // evicts configs[1], the coldest
  (void)engine.evaluate(configs[0]);  // still cached
  (void)engine.evaluate(configs[5]);  // evicts configs[2]
  (void)engine.evaluate(configs[0]);  // still cached

  const auto lru = engine.stats();
  EXPECT_EQ(lru.misses, 6u);  // each distinct config ran exactly once
  EXPECT_EQ(lru.hits, 3u);
  EXPECT_EQ(lru.evictions, 2u);

  // The same access pattern under FIFO evicts the hot key: insertion order
  // ignores the hits, so configs[0] is the first victim.
  engine_options fifo_opt = opt;
  fifo_opt.eviction = core::eviction_policy::fifo;
  evaluation_engine fifo{eval, fifo_opt};
  for (std::size_t i = 0; i < 4; ++i) (void)fifo.evaluate(configs[i]);  // fill
  (void)fifo.evaluate(configs[0]);  // hit, but does not refresh
  (void)fifo.evaluate(configs[4]);  // evicts configs[0]
  const evaluation remiss = fifo.evaluate(configs[0]);  // miss again
  EXPECT_EQ(fifo.stats().misses, 6u);
  EXPECT_EQ(fifo.stats().hits, 1u);
  expect_identical(remiss, eval.evaluate(configs[0]));
}

TEST_F(engine_fixture, capacity_bound_holds_with_many_shards) {
  // capacity < shards must not inflate the bound via the per-shard floor.
  engine_options opt;
  opt.shards = 16;
  opt.capacity = 4;
  evaluation_engine engine{eval, opt};
  for (const auto& c : random_configs(12)) (void)engine.evaluate(c);
  EXPECT_LE(engine.size(), 4u);
  EXPECT_GE(engine.stats().evictions, 8u);
}

TEST_F(engine_fixture, clear_drops_entries_but_keeps_counters) {
  evaluation_engine engine{eval};
  const auto configs = random_configs(5);
  (void)engine.evaluate_batch(configs);
  EXPECT_EQ(engine.size(), 5u);
  engine.clear();
  EXPECT_EQ(engine.size(), 0u);
  EXPECT_EQ(engine.stats().misses, 5u);
  (void)engine.evaluate(configs.front());
  EXPECT_EQ(engine.stats().misses, 6u);
}

TEST_F(engine_fixture, pass_through_mode_never_caches) {
  engine_options opt;
  opt.memoize = false;
  evaluation_engine engine{eval, opt};
  const configuration c = random_configs(1).front();
  const evaluation a = engine.evaluate(c);
  const evaluation b = engine.evaluate(c);
  expect_identical(a, b);
  EXPECT_EQ(engine.stats().misses, 2u);
  EXPECT_EQ(engine.stats().hits, 0u);
  EXPECT_EQ(engine.size(), 0u);
}

TEST_F(engine_fixture, ga_reports_cache_stats_and_matches_bypass_run) {
  core::ga_options ga;
  ga.generations = 6;
  ga.population = 12;
  ga.threads = 4;
  ga.seed = 5;

  engine_options memo_opt;
  memo_opt.threads = ga.threads;
  engine_options bypass_opt = memo_opt;
  bypass_opt.memoize = false;

  evaluation_engine memo{eval, memo_opt};
  evaluation_engine bypass{eval, bypass_opt};
  const auto with_cache = core::evolve(space, memo, ga);
  const auto without_cache = core::evolve(space, bypass, ga);

  // Elites survive generations unchanged, so the cache must fire...
  EXPECT_GT(with_cache.cache.hits, 0u);
  EXPECT_GT(with_cache.cache.hit_rate(), 0.0);
  // ...and every candidate is accounted exactly once.
  EXPECT_EQ(with_cache.cache.lookups(), with_cache.total_evaluations);
  EXPECT_LT(with_cache.cache.misses, with_cache.total_evaluations);
  std::size_t history_hits = 0;
  std::size_t history_misses = 0;
  std::size_t history_dedup = 0;
  for (const auto& h : with_cache.history) {
    history_hits += h.cache_hits;
    history_misses += h.cache_misses;
    history_dedup += h.cache_dedup;
  }
  EXPECT_EQ(history_hits, with_cache.cache.hits);
  EXPECT_EQ(history_misses, with_cache.cache.misses);
  EXPECT_EQ(history_dedup, with_cache.cache.dedup);

  // Memoization must not change the search trajectory at all.
  EXPECT_EQ(with_cache.archive.size(), without_cache.archive.size());
  EXPECT_EQ(with_cache.best_index, without_cache.best_index);
  expect_identical(with_cache.best(), without_cache.best());
  ASSERT_EQ(with_cache.history.size(), without_cache.history.size());
  for (std::size_t g = 0; g < with_cache.history.size(); ++g) {
    EXPECT_EQ(with_cache.history[g].best_objective, without_cache.history[g].best_objective);
    EXPECT_EQ(with_cache.history[g].feasible, without_cache.history[g].feasible);
  }
  // Pass-through runs the evaluator for every single candidate.
  EXPECT_EQ(without_cache.cache.misses, without_cache.total_evaluations);
}

TEST_F(engine_fixture, racing_threads_on_one_candidate_run_the_evaluator_once) {
  // Cross-thread in-flight dedup: however many threads race the same
  // configuration, exactly one evaluator run happens — every other caller
  // is a cache hit or joins the in-flight slot. This must hold for any
  // interleaving, so the accounting below is exact, not probabilistic.
  evaluation_engine engine{eval};
  const configuration c = random_configs(1).front();
  const evaluation direct = eval.evaluate(c);

  constexpr std::size_t n_threads = 4;
  std::atomic<bool> go{false};
  std::vector<evaluation> results(n_threads);
  std::vector<std::thread> threads;
  threads.reserve(n_threads);
  for (std::size_t t = 0; t < n_threads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      results[t] = engine.evaluate(c);
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  for (const auto& r : results) expect_identical(r, direct);
  const auto s = engine.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits + s.inflight, n_threads - 1);
  EXPECT_EQ(s.lookups(), n_threads);
  EXPECT_EQ(engine.size(), 1u);
}

TEST_F(engine_fixture, async_batch_matches_sync_batch_bit_for_bit) {
  const auto configs = random_configs(24);
  engine_options opt;
  opt.threads = 4;
  evaluation_engine sync_engine{eval, opt};
  evaluation_engine async_engine{eval, opt};

  const auto expected = sync_engine.evaluate_batch(configs);
  std::future<std::vector<evaluation>> fut = async_engine.evaluate_batch_async(configs);
  const auto got = fut.get();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) expect_identical(got[i], expected[i]);
  // Same accounting as the sync path: counters are final at submit time.
  EXPECT_EQ(async_engine.stats().misses, sync_engine.stats().misses);
  EXPECT_EQ(async_engine.stats().dedup, sync_engine.stats().dedup);
}

TEST_F(engine_fixture, overlapping_async_batches_share_in_flight_runs) {
  // Submit the same population twice before resolving either future. The
  // first submit claims every distinct candidate; the second, planned
  // synchronously afterwards, must find each one cached or in flight —
  // never re-running one. Exact for any pool interleaving.
  const auto configs = random_configs(16, 11);
  engine_options opt;
  opt.threads = 2;
  evaluation_engine engine{eval, opt};

  std::future<std::vector<evaluation>> a = engine.evaluate_batch_async(configs);
  std::future<std::vector<evaluation>> b = engine.evaluate_batch_async(configs);
  const auto ra = a.get();
  const auto rb = b.get();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) expect_identical(ra[i], rb[i]);

  const auto s = engine.stats();
  EXPECT_EQ(s.misses, configs.size());  // each distinct candidate ran once
  EXPECT_EQ(s.hits + s.inflight, configs.size());  // second batch joined or hit
  EXPECT_EQ(s.lookups(), 2 * configs.size());
}

TEST_F(engine_fixture, async_batch_without_pool_is_immediately_ready) {
  evaluation_engine engine{eval};  // threads = 1: inline evaluation
  const auto configs = random_configs(6, 23);
  std::future<std::vector<evaluation>> fut = engine.evaluate_batch_async(configs);
  ASSERT_TRUE(fut.valid());
  const auto out = fut.get();
  ASSERT_EQ(out.size(), configs.size());
  for (std::size_t i = 0; i < out.size(); ++i) expect_identical(out[i], eval.evaluate(configs[i]));
  EXPECT_EQ(engine.stats().misses, configs.size());
}

TEST_F(engine_fixture, dropping_an_async_future_still_populates_the_cache) {
  engine_options opt;
  opt.threads = 2;
  evaluation_engine engine{eval, opt};
  const auto configs = random_configs(8, 31);
  { auto dropped = engine.evaluate_batch_async(configs); }  // never get()
  // The enqueued runs complete regardless; a sync pass is then all-cached.
  const auto out = engine.evaluate_batch(configs);
  ASSERT_EQ(out.size(), configs.size());
  const auto s = engine.stats();
  EXPECT_EQ(s.misses, configs.size());
  EXPECT_EQ(s.hits + s.inflight, configs.size());
}

// --- packed cache entries --------------------------------------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Bit-for-bit configuration equality: unlike operator==, tells 0.0 from
// -0.0 and compares row shapes before cells.
void expect_same_bits(const configuration& a, const configuration& b) {
  ASSERT_EQ(a.partition.size(), b.partition.size());
  for (std::size_t g = 0; g < a.partition.size(); ++g) {
    ASSERT_EQ(a.partition[g].size(), b.partition[g].size());
    for (std::size_t i = 0; i < a.partition[g].size(); ++i)
      EXPECT_EQ(bits(a.partition[g][i]), bits(b.partition[g][i])) << g << "," << i;
  }
  EXPECT_EQ(a.forward, b.forward);
  EXPECT_EQ(a.mapping, b.mapping);
  EXPECT_EQ(a.dvfs, b.dvfs);
}

// Ragged on purpose: rows of unequal length, an empty row, forward rows
// that do not match the partition's shape and a bit run crossing a word.
configuration ragged_config() {
  configuration c;
  c.partition = {{0.5, 0.25, 0.25}, {1.0}, {}, {0.1, 0.2, 0.3, 0.4, -0.0}};
  c.forward = {{true, false}, std::vector<bool>(70, false), {}};
  c.forward[1][3] = true;
  c.forward[1][69] = true;
  c.mapping = {2, 0, 1};
  c.dvfs = {};
  return c;
}

TEST(packed_configuration, round_trips_bit_exactly_including_ragged_shapes) {
  const configuration c = ragged_config();
  const core::packed_configuration packed{c};
  EXPECT_TRUE(packed == c);
  expect_same_bits(packed.unpack(), c);
  // 4 shape words + 4 + 3 row lengths + 9 cells + 3 mapping + 0 dvfs +
  // 72 forward bits in 2 words.
  EXPECT_EQ(core::packed_configuration::word_count(c), 4u + 7u + 9u + 3u + 0u + 2u);
}

TEST(packed_configuration, compares_exactly_like_configuration_equality) {
  const configuration c = ragged_config();
  const core::packed_configuration packed{c};

  configuration bit = c;
  bit.forward[1][69] = false;  // one forward bit, in the second word
  EXPECT_FALSE(packed == bit);
  configuration ulp = c;
  ulp.partition[3][2] = std::nextafter(ulp.partition[3][2], 1.0);  // one ulp in one cell
  EXPECT_FALSE(packed == ulp);
  configuration reshaped = c;  // same cells, moved across a row boundary
  reshaped.partition[0] = {0.5, 0.25};
  reshaped.partition[1] = {0.25, 1.0};
  EXPECT_FALSE(packed == reshaped);
  configuration longer = c;
  longer.dvfs.push_back(0);
  EXPECT_FALSE(packed == longer);

  // operator== semantics: -0.0 equals 0.0, and a NaN cell equals nothing.
  configuration zero = c;
  zero.partition[3][4] = 0.0;
  EXPECT_TRUE(zero == c);
  EXPECT_TRUE(packed == zero);
  configuration nan = c;
  nan.partition[1][0] = std::nan("");
  EXPECT_FALSE(nan == nan);
  EXPECT_FALSE(core::packed_configuration{nan} == nan);
}

TEST_F(engine_fixture, hit_and_export_are_bit_identical_to_the_miss_result) {
  evaluation_engine engine{eval};
  const configuration c = random_configs(1, 41).front();
  const evaluation miss = engine.evaluate(c);
  const evaluation hit = engine.evaluate(c);
  const std::vector<evaluation> exported = engine.export_cache();
  ASSERT_EQ(exported.size(), 1u);
  for (const evaluation* e : {&hit, &exported.front()}) {
    expect_identical(*e, miss);
    expect_same_bits(e->config, miss.config);
  }
  expect_same_bits(miss.config, c);
}

TEST_F(engine_fixture, configs_one_bit_or_one_ulp_apart_never_share_an_entry) {
  evaluation_engine engine{eval};
  const configuration c = random_configs(1, 43).front();
  ASSERT_GT(c.stages(), 1u);
  configuration bit = c;
  bit.forward[0][0] = !bit.forward[0][0];
  configuration ulp = c;
  ulp.partition[0][0] = std::nextafter(ulp.partition[0][0], 2.0);
  const std::vector<const configuration*> probes = {&c, &bit, &ulp, &c, &bit, &ulp};
  for (const configuration* probe : probes) {
    const evaluation e = engine.evaluate(*probe);
    expect_same_bits(e.config, *probe);
  }
  EXPECT_EQ(engine.stats().misses, 3u);
  EXPECT_EQ(engine.stats().hits, 3u);
  EXPECT_EQ(engine.size(), 3u);
}

TEST_F(engine_fixture, signed_zero_probe_hits_and_returns_the_stored_bits) {
  // -0.0 and 0.0 hash equal and compare equal, so this probe lands in the
  // stored entry's bucket and must match it through the packed compare.
  configuration c = random_configs(1, 47).front();
  ASSERT_GT(c.stages(), 1u);
  c.partition[0][0] += c.partition[0][1];  // stage 0 keeps a nonzero slice
  c.partition[0][1] = 0.0;
  configuration negative = c;
  negative.partition[0][1] = -0.0;
  ASSERT_EQ(c.hash(), negative.hash());
  evaluation_engine engine{eval};
  const evaluation stored = engine.evaluate(c);
  const evaluation hit = engine.evaluate(negative);
  EXPECT_EQ(engine.stats().hits, 1u);
  expect_identical(hit, stored);
  expect_same_bits(hit.config, c);
}

TEST_F(engine_fixture, import_then_export_is_the_identity) {
  evaluation_engine source{eval};
  (void)source.evaluate_batch(random_configs(24, 53));
  const std::vector<evaluation> entries = source.export_cache();
  ASSERT_EQ(entries.size(), 24u);

  evaluation_engine restored{eval};
  restored.import_cache(entries);
  const std::vector<evaluation> again = restored.export_cache();
  ASSERT_EQ(again.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    expect_identical(again[i], entries[i]);
    expect_same_bits(again[i].config, entries[i].config);
  }
  EXPECT_EQ(restored.stats().cache_bytes, source.stats().cache_bytes);
}

TEST_F(engine_fixture, cache_bytes_account_the_packed_layout) {
  evaluation_engine engine{eval};
  const auto configs = random_configs(6, 59);
  std::size_t expected_total = 0;
  for (const configuration& c : configs) {
    const evaluation e = engine.evaluate(c);
    // G groups x S stages, U units: 4 shape words, G + G row lengths, G*S
    // cells, S mapping entries, U DVFS levels, G*S forward bits.
    const std::size_t g = c.groups();
    const std::size_t s = c.stages();
    const std::size_t words = 4 + 2 * g + g * s + s + c.dvfs.size() + (g * s + 63) / 64;
    ASSERT_EQ(core::packed_configuration::word_count(c), words);
    const std::size_t bytes = sizeof(evaluation) + 8 * words + e.reject_reason.size() +
                              8 * (e.stage_latency_ms.size() + e.stage_energy_mj.size() +
                                   e.stage_accuracy_pct.size() + e.exit_fractions.size());
    EXPECT_EQ(core::approx_evaluation_bytes(e), bytes);
    expected_total += bytes;
  }
  EXPECT_EQ(engine.stats().cache_bytes, expected_total);
}

TEST(hashing, combine_is_order_and_length_sensitive) {
  std::size_t a = 0;
  util::hash_combine_range(a, std::vector<double>{1.0, 2.0});
  std::size_t b = 0;
  util::hash_combine_range(b, std::vector<double>{2.0, 1.0});
  EXPECT_NE(a, b);

  std::size_t c = 0;
  util::hash_combine_range(c, std::vector<double>{1.0, 2.0});
  EXPECT_EQ(a, c);

  // -0.0 and +0.0 compare equal, so they must hash equal.
  EXPECT_EQ(util::hash_double(-0.0), util::hash_double(0.0));
}

}  // namespace
