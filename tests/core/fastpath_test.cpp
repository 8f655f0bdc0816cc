// The evaluation fast path must be invisible: with interned tables, plan
// caching, and the steady-state shortcut enabled (the defaults), every
// Prediction field must be bit-identical to the naive per-iteration loop
// with all caching disabled. The shortcut earns this by replaying the
// recorded per-iteration step with exactly the arithmetic the loop would
// have executed, only once the renormalized per-node offsets repeat bitwise.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "exp/experiment.hpp"
#include "search/search.hpp"

namespace mheta {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_bit_identical(const core::Prediction& a,
                          const core::Prediction& b) {
  EXPECT_EQ(bits(a.total_s), bits(b.total_s));
  EXPECT_EQ(bits(a.compute_s), bits(b.compute_s));
  EXPECT_EQ(bits(a.io_s), bits(b.io_s));
  ASSERT_EQ(a.node_end_s.size(), b.node_end_s.size());
  for (std::size_t i = 0; i < a.node_end_s.size(); ++i)
    EXPECT_EQ(bits(a.node_end_s[i]), bits(b.node_end_s[i]));
}

struct Pair {
  core::Predictor fast;
  core::Predictor naive;
  std::vector<dist::GenBlock> candidates;
};

Pair make_pair(const char* arch_name, const exp::Workload& w) {
  const auto arch = cluster::find_arch(arch_name);
  exp::ExperimentOptions fast_opts;  // defaults: full fast path
  exp::ExperimentOptions naive_opts;
  naive_opts.model.steady_state_shortcut = false;
  naive_opts.model.plan_cache_capacity = 0;
  const auto ctx = exp::make_context(arch, w, fast_opts);
  std::vector<dist::GenBlock> candidates;
  for (const auto& p :
       dist::spectrum(ctx, arch.spectrum, /*steps_per_segment=*/8))
    candidates.push_back(p.dist);
  return Pair{exp::build_predictor(arch, w, fast_opts),
              exp::build_predictor(arch, w, naive_opts),
              std::move(candidates)};
}

TEST(FastPath, ShortcutBitIdenticalJacobi) {
  const auto p = make_pair("HY1", exp::jacobi_workload(false));
  for (const auto& d : p.candidates)
    for (const int iters : {1, 2, 3, 7, 100})
      expect_bit_identical(p.fast.predict(d, iters),
                           p.naive.predict(d, iters));
}

TEST(FastPath, ShortcutBitIdenticalJacobiPrefetch) {
  const auto p = make_pair("HY2", exp::jacobi_workload(true));
  for (const auto& d : p.candidates)
    expect_bit_identical(p.fast.predict(d, 50), p.naive.predict(d, 50));
}

TEST(FastPath, ShortcutBitIdenticalPipelinedRna) {
  const auto p = make_pair("HY1", exp::rna_workload());
  for (const auto& d : p.candidates)
    expect_bit_identical(p.fast.predict(d, 25), p.naive.predict(d, 25));
}

TEST(FastPath, ShortcutBitIdenticalCgReduction) {
  const auto p = make_pair("IO", exp::cg_workload());
  for (const auto& d : p.candidates)
    expect_bit_identical(p.fast.predict(d, 40), p.naive.predict(d, 40));
}

TEST(FastPath, NonuniformMixedScales) {
  const auto p = make_pair("HY1", exp::jacobi_workload(false));
  // Runs of repeated scales (shortcut applies within each run, including
  // the final run), scale changes (cache rebuilds), and a zero scale.
  const std::vector<double> scales = {1, 1, 1, 1, 1, 0.5, 0.5, 0.5, 0.5,
                                      1, 1, 0, 0, 0, 2, 2, 2, 2, 2, 2};
  for (const auto& d : p.candidates)
    expect_bit_identical(p.fast.predict_nonuniform(d, scales),
                         p.naive.predict_nonuniform(d, scales));
}

TEST(FastPath, PlanCacheAloneIsInvisible) {
  const auto arch = cluster::find_arch("HY1");
  const auto w = exp::jacobi_workload(false);
  exp::ExperimentOptions cached_opts;
  cached_opts.model.steady_state_shortcut = false;  // isolate the plan cache
  exp::ExperimentOptions uncached_opts;
  uncached_opts.model.steady_state_shortcut = false;
  uncached_opts.model.plan_cache_capacity = 0;
  const auto cached = exp::build_predictor(arch, w, cached_opts);
  const auto uncached = exp::build_predictor(arch, w, uncached_opts);
  const auto ctx = exp::make_context(arch, w, cached_opts);
  for (const auto& point : dist::spectrum(ctx, arch.spectrum, 8)) {
    // Evaluate twice so the second pass hits the memoized plans.
    expect_bit_identical(cached.predict(point.dist, 10),
                         uncached.predict(point.dist, 10));
    expect_bit_identical(cached.predict(point.dist, 10),
                         uncached.predict(point.dist, 10));
  }
}

TEST(FastPath, PlanCacheMissesOncePerMemoryAndRows) {
  // A plan depends on the arrays, the row count and the node's memory, not
  // on the rank: ranks with equal memory and rows share one LRU entry. HY1
  // mixes two memory sizes, so a block distribution plans once per
  // distinct (memory, rows) pair, not once per rank.
  const auto arch = cluster::find_arch("HY1");
  const auto w = exp::jacobi_workload(false);
  exp::ExperimentOptions cached_opts;
  exp::ExperimentOptions uncached_opts;
  uncached_opts.model.plan_cache_capacity = 0;
  const auto cached = exp::build_predictor(arch, w, cached_opts);
  const auto uncached = exp::build_predictor(arch, w, uncached_opts);
  const auto d = dist::block_dist(exp::make_context(arch, w, cached_opts));
  const auto& memory = cached.memory_bytes();
  std::set<std::int64_t> sizes(memory.begin(), memory.end());
  std::set<std::pair<std::int64_t, std::int64_t>> keys;
  for (int r = 0; r < d.nodes(); ++r)
    keys.emplace(memory[static_cast<std::size_t>(r)], d.count(r));
  ASSERT_EQ(sizes.size(), 2u);
  ASSERT_LT(keys.size(), static_cast<std::size_t>(d.nodes()));

  expect_bit_identical(cached.predict(d, 10), uncached.predict(d, 10));
  const auto stats = cached.plan_cache_stats();
  EXPECT_EQ(stats.misses, keys.size());
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(d.nodes()) - keys.size());
}

TEST(FastPath, TinyPlanCacheEvictsCorrectly) {
  const auto arch = cluster::find_arch("HY1");
  const auto w = exp::jacobi_workload(false);
  exp::ExperimentOptions tiny_opts;
  tiny_opts.model.plan_cache_capacity = 2;  // constant thrash
  exp::ExperimentOptions default_opts;
  const auto tiny = exp::build_predictor(arch, w, tiny_opts);
  const auto roomy = exp::build_predictor(arch, w, default_opts);
  const auto ctx = exp::make_context(arch, w, tiny_opts);
  for (const auto& point : dist::spectrum(ctx, arch.spectrum, 6))
    expect_bit_identical(tiny.predict(point.dist, 10),
                         roomy.predict(point.dist, 10));
}

TEST(FastPath, CachingObjectiveMatchesRawPredict) {
  const auto p = make_pair("HY1", exp::jacobi_workload(false));
  const search::CachingObjective cached(
      [&](const dist::GenBlock& d) { return p.fast.predict(d, 100).total_s; });
  for (int lap = 0; lap < 2; ++lap)
    for (const auto& d : p.candidates)
      EXPECT_EQ(bits(cached(d)), bits(p.naive.predict(d, 100).total_s));
  // The spectrum walk may revisit distributions (kFull starts and ends at
  // Blk), so misses count unique candidates, not candidates.
  EXPECT_LE(cached.misses(), p.candidates.size());
  EXPECT_GE(cached.hits(), p.candidates.size());
  EXPECT_EQ(cached.hits() + cached.misses(), 2 * p.candidates.size());
}

TEST(FastPath, ConcurrentPredictIsSafeAndDeterministic) {
  // predict() is documented thread-safe; hammer one Predictor from a pool
  // and check every value matches the serial evaluation.
  const auto p = make_pair("HY1", exp::jacobi_workload(false));
  std::vector<double> serial;
  serial.reserve(p.candidates.size());
  for (const auto& d : p.candidates)
    serial.push_back(p.fast.predict(d, 100).total_s);
  util::ThreadPool pool(4);
  for (int lap = 0; lap < 4; ++lap) {
    std::vector<double> parallel(p.candidates.size());
    pool.parallel_for(static_cast<std::int64_t>(p.candidates.size()),
                      [&](std::int64_t i) {
                        parallel[static_cast<std::size_t>(i)] =
                            p.fast
                                .predict(p.candidates[static_cast<std::size_t>(i)],
                                         100)
                                .total_s;
                      });
    for (std::size_t i = 0; i < serial.size(); ++i)
      EXPECT_EQ(bits(parallel[i]), bits(serial[i]));
  }
}

}  // namespace
}  // namespace mheta
