// Property coverage for the incremental (delta) objective: across four paper
// workloads, four batchable algorithms and ten seeds, every candidate a
// search evaluates must score bit-identically (and, per the acceptance
// contract, within 1e-9 s) to a full Predictor::predict — including moves at
// the rank boundaries and degenerate single-node distributions. The delta
// path reuses the full path's stage-row builder and clock loop, so any
// difference at all is a bug, not rounding.
#include "search/objective.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/lint.hpp"
#include "exp/experiment.hpp"
#include "search/search.hpp"
#include "util/thread_pool.hpp"

namespace mheta::search {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

struct AppFixture {
  exp::Workload workload;
  cluster::ArchConfig arch;
  core::Predictor predictor;
  dist::DistContext ctx;
  int iterations;
};

/// Predictors are expensive to calibrate; share one per (app, arch) across
/// every test in the binary.
const AppFixture& fixture(const std::string& app) {
  static std::map<std::string, AppFixture>* cache =
      new std::map<std::string, AppFixture>();
  auto it = cache->find(app);
  if (it == cache->end()) {
    const auto w = exp::workload_by_name(app);
    if (!w) ADD_FAILURE() << "unknown app " << app;
    const auto arch = cluster::find_arch(app == "cg" ? "IO" : "HY1");
    exp::ExperimentOptions opts;
    it = cache
             ->emplace(app,
                       AppFixture{*w, arch, exp::build_predictor(arch, *w, opts),
                                  exp::make_context(arch, *w, opts),
                                  /*iterations=*/5})
             .first;
  }
  return it->second;
}

/// The oracle wrapper: every candidate the search sees is scored by the
/// delta objective AND by a full predict; any disagreement fails the test
/// on the spot, with the candidate that broke it.
Objective checked(const AppFixture& f, const DeltaObjective& delta) {
  const core::Predictor* predictor = &f.predictor;
  const int iterations = f.iterations;
  return [delta, predictor, iterations](const dist::GenBlock& d) {
    const double inc = delta(d);
    const double full = predictor->predict(d, iterations).total_s;
    EXPECT_LE(std::abs(inc - full), 1e-9) << "candidate " << d.to_string();
    EXPECT_EQ(bits(inc), bits(full)) << "candidate " << d.to_string();
    return inc;
  };
}

// Options downsized so 4 apps x 4 algorithms x 10 seeds stays fast; every
// evaluation still runs both paths through the oracle above.
SearchResult run_algorithm(const std::string& algo, const AppFixture& f,
                           const Objective& objective, std::uint64_t seed) {
  if (algo == "gbs") {
    SpectrumSpace space(f.ctx, f.arch.spectrum);
    GbsOptions opts;
    opts.resolution = 1e-2;
    return gbs(space, objective, opts);
  }
  if (algo == "hill") {
    HillClimbOptions opts;
    opts.neighbors = 6;
    opts.max_rounds = 10;
    return hill_climb(dist::block_dist(f.ctx), objective, opts, seed);
  }
  if (algo == "tabu") {
    TabuOptions opts;
    opts.steps = 12;
    opts.neighbors = 5;
    return tabu_search(dist::block_dist(f.ctx), objective, opts, seed);
  }
  if (algo == "genetic") {
    GeneticOptions opts;
    opts.population = 8;
    opts.generations = 6;
    return genetic(f.ctx, objective, opts, seed);
  }
  ADD_FAILURE() << "unknown algorithm " << algo;
  return {};
}

class DeltaVsFull
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(DeltaVsFull, BitIdenticalAcrossTenSeeds) {
  const auto& [app, algo] = GetParam();
  const AppFixture& f = fixture(app);
  const DeltaObjective delta(f.predictor, f.iterations, f.arch.cluster);
  const Objective oracle = checked(f, delta);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const SearchResult with_delta = run_algorithm(algo, f, oracle, seed);
    const SearchResult with_full = run_algorithm(
        algo, f, make_objective(f.predictor, f.iterations, f.arch.cluster),
        seed);
    // Same scores everywhere means the same trajectory and the same result.
    EXPECT_EQ(with_delta.best.counts(), with_full.best.counts());
    EXPECT_EQ(bits(with_delta.best_time), bits(with_full.best_time));
    EXPECT_EQ(with_delta.evaluations, with_full.evaluations);
    if (std::string_view(algo) == "gbs") break;  // deterministic: seeds change nothing
  }
  const core::DeltaStats stats = delta.stats();
  EXPECT_GT(stats.evaluations, 0u);
  EXPECT_EQ(stats.full_fallbacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Apps, DeltaVsFull,
    ::testing::Combine(::testing::Values("jacobi", "cg", "lanczos", "rna"),
                       ::testing::Values("gbs", "hill", "tabu", "genetic")),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

// Moves at the ends of the rank line: the first and last ranks sit on the
// nearest-neighbor communication boundary (one partner instead of two), so
// shifting rows into and out of them exercises the asymmetric terms.
TEST(DeltaObjective, BoundaryMovesMatchFullPredict) {
  for (const char* app : {"jacobi", "rna"}) {
    const AppFixture& f = fixture(app);
    const DeltaObjective delta(f.predictor, f.iterations, f.arch.cluster);
    const Objective oracle = checked(f, delta);
    const dist::GenBlock start = dist::block_dist(f.ctx);
    const int last = start.nodes() - 1;
    for (const std::int64_t shift : {std::int64_t{1}, std::int64_t{64}}) {
      for (const auto& [from, to] :
           std::vector<std::pair<int, int>>{{0, 1}, {1, 0},
                                            {last, last - 1},
                                            {last - 1, last},
                                            {0, last}}) {
        auto counts = start.counts();
        if (counts[from] < shift) continue;
        counts[from] -= shift;
        counts[to] += shift;
        (void)oracle(dist::GenBlock(counts));
      }
    }
  }
}

// A degenerate distribution putting every row on one node (zeros elsewhere)
// must still match: empty ranks take the zero-rows path of every stage.
TEST(DeltaObjective, SingleNodeDistributionsMatchFullPredict) {
  const AppFixture& f = fixture("jacobi");
  const DeltaObjective delta(f.predictor, f.iterations, f.arch.cluster);
  const Objective oracle = checked(f, delta);
  const int nodes = f.arch.cluster.size();
  const std::int64_t rows = f.workload.program.rows();
  for (const int owner : {0, nodes / 2, nodes - 1}) {
    std::vector<std::int64_t> counts(static_cast<std::size_t>(nodes), 0);
    counts[static_cast<std::size_t>(owner)] = rows;
    (void)oracle(dist::GenBlock(counts));
  }
}

// The escape hatch: a disabled evaluator serves everything through full
// predict and says so in its counters.
TEST(DeltaObjective, DisabledFallsBackToFullPredict) {
  const AppFixture& f = fixture("jacobi");
  core::DeltaOptions opts;
  opts.enabled = false;
  const DeltaObjective delta(f.predictor, f.iterations, f.arch.cluster, opts);
  const dist::GenBlock d = dist::block_dist(f.ctx);
  EXPECT_EQ(bits(delta(d)),
            bits(f.predictor.predict(d, f.iterations).total_s));
  const core::DeltaStats stats = delta.stats();
  EXPECT_EQ(stats.evaluations, 0u);
  EXPECT_EQ(stats.full_fallbacks, 1u);
}

// Cross-check mode must actually compare (counter moves) and, since the two
// paths agree by construction, never trip the permanent fallback.
TEST(DeltaObjective, CrosscheckEveryEvaluationObservesZeroDrift) {
  const AppFixture& f = fixture("lanczos");
  core::DeltaOptions opts;
  opts.crosscheck_every = 1;
  const DeltaObjective delta(f.predictor, f.iterations, f.arch.cluster, opts);
  const dist::GenBlock start = dist::block_dist(f.ctx);
  TabuOptions topts;
  topts.steps = 6;
  topts.neighbors = 4;
  (void)tabu_search(start, Objective(delta), topts, /*seed=*/3);
  const core::DeltaStats stats = delta.stats();
  EXPECT_GT(stats.crosschecks, 0u);
  EXPECT_EQ(stats.crosschecks, stats.evaluations);
  EXPECT_EQ(stats.full_fallbacks, 0u);
  EXPECT_EQ(stats.max_drift_s, 0.0);
}

// Wrapping in CachingObjective / BatchObjective — the way search drivers
// consume objectives — must not change any trajectory.
TEST(DeltaObjective, PlugsIntoCachingAndBatchWrappers) {
  const AppFixture& f = fixture("jacobi");
  const DeltaObjective delta(f.predictor, f.iterations, f.arch.cluster);
  const Objective full =
      make_objective(f.predictor, f.iterations, f.arch.cluster);
  const dist::GenBlock start = dist::block_dist(f.ctx);
  TabuOptions topts;
  topts.steps = 10;
  topts.neighbors = 5;
  const SearchResult expect = tabu_search(start, full, topts, /*seed=*/11);
  const CachingObjective cached{Objective(delta)};
  const SearchResult via_cache =
      tabu_search(start, Objective(cached), topts, /*seed=*/11);
  EXPECT_EQ(expect.best.counts(), via_cache.best.counts());
  EXPECT_EQ(bits(expect.best_time), bits(via_cache.best_time));
  util::ThreadPool pool(4);
  const SearchResult via_batch = tabu_search(
      start, BatchObjective(Objective(delta), pool), topts, /*seed=*/11);
  EXPECT_EQ(expect.best.counts(), via_batch.best.counts());
  EXPECT_EQ(bits(expect.best_time), bits(via_batch.best_time));
  EXPECT_EQ(expect.evaluations, via_batch.evaluations);
}

// Simulated annealing is scalar (one accept/reject candidate per step), so
// routing it through a DeltaObjective — as the bench quality mode now does —
// must leave the whole trajectory untouched: same seed, same accepts, same
// final result, bit for bit.
TEST(DeltaObjective, AnnealingTrajectoryIsBitIdentical) {
  const AppFixture& f = fixture("jacobi");
  const DeltaObjective delta(f.predictor, f.iterations, f.arch.cluster);
  const Objective full =
      make_objective(f.predictor, f.iterations, f.arch.cluster);
  AnnealOptions opts;
  opts.steps = 200;
  const dist::GenBlock start = dist::block_dist(f.ctx);
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    const SearchResult with_full =
        simulated_annealing(start, full, opts, seed);
    const SearchResult with_delta =
        simulated_annealing(start, Objective(delta), opts, seed);
    EXPECT_EQ(with_full.best.counts(), with_delta.best.counts());
    EXPECT_EQ(bits(with_full.best_time), bits(with_delta.best_time));
    EXPECT_EQ(with_full.evaluations, with_delta.evaluations);
  }
  EXPECT_EQ(delta.stats().full_fallbacks, 0u);
}

// Shape guard parity with make_objective: malformed candidates must be
// rejected up front (MH008), not fed to the evaluator.
TEST(DeltaObjective, RejectsWrongShapedCandidates) {
  const AppFixture& f = fixture("jacobi");
  const DeltaObjective delta(f.predictor, f.iterations, f.arch.cluster);
  const dist::GenBlock start = dist::block_dist(f.ctx);
  auto wrong_total = start.counts();
  wrong_total[0] += 1;
  EXPECT_THROW((void)delta(dist::GenBlock(wrong_total)),
               analysis::LintError);
  std::vector<std::int64_t> wrong_nodes(start.counts());
  wrong_nodes.push_back(0);
  EXPECT_THROW((void)delta(dist::GenBlock(wrong_nodes)),
               analysis::LintError);
}

}  // namespace
}  // namespace mheta::search
