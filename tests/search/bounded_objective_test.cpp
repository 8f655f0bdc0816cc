// The certified branch-and-bound screen (search::BoundedObjective) under
// the acceptance contract: across apps and the four batchable algorithms,
// every evaluated candidate satisfies the lo <= value <= hi oracle, the
// fallback latch never fires, and pruning never discards the run's best —
// checked by re-evaluating every pruned candidate through the full model.
// Plus the escape hatches: a poisoned oracle latches permanently, and a
// disabled screen is a transparent pass-through.
#include "search/objective.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "search/search.hpp"

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

const AppFixture& fixture(const std::string& app) {
  static std::map<std::string, AppFixture>* cache =
      new std::map<std::string, AppFixture>();
  auto it = cache->find(app);
  if (it == cache->end()) {
    const auto w = exp::workload_by_name(app);
    if (!w) ADD_FAILURE() << "unknown app " << app;
    const auto arch = cluster::find_arch("HY1");
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

SearchResult run_algorithm(const std::string& algo, const AppFixture& f,
                           const BatchObjective& objective,
                           std::uint64_t seed) {
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

/// A bounded objective screening the full model, with the oracle on every
/// evaluation and pruned-candidate retention for the audit.
BoundedObjective make_bounded(const AppFixture& f, BoundedOptions opts = {}) {
  opts.max_pruned_samples = std::max<std::size_t>(opts.max_pruned_samples,
                                                  std::size_t{1} << 14);
  return BoundedObjective(
      f.predictor, f.iterations,
      make_objective(f.predictor, f.iterations, f.arch.cluster), opts);
}

class BoundedVsFull
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

// The acceptance gate in miniature: run each algorithm through the screen,
// then (a) the oracle saw every evaluated candidate and never fired, (b)
// the latch never tripped, (c) every candidate the algorithm asked about
// was either evaluated or pruned, and (d) no pruned candidate, re-scored
// through the full model, beats its certified bound or the run's best.
TEST_P(BoundedVsFull, OracleHoldsAndPruningNeverDiscardsTheBest) {
  const auto& [app, algo] = GetParam();
  const AppFixture& f = fixture(app);
  const BoundedObjective bounded = make_bounded(f);
  const BatchObjective batched(Objective(bounded),
                               [bounded](const std::vector<dist::GenBlock>& cs) {
                                 return bounded(cs);
                               });
  const SearchResult result = run_algorithm(algo, f, batched, /*seed=*/5);
  const BoundedStats stats = bounded.stats();
  EXPECT_GT(stats.evaluated, 0u);
  EXPECT_EQ(stats.crosschecks, stats.evaluated);
  EXPECT_EQ(stats.violations, 0u);
  EXPECT_FALSE(stats.latched);
  EXPECT_EQ(stats.max_violation_s, 0.0);
  EXPECT_EQ(stats.evaluated + stats.pruned,
            static_cast<std::size_t>(result.evaluations));
  EXPECT_GE(stats.width_rel_mean, 0.0);
  EXPECT_LT(stats.width_rel_mean, 1.0);
  // The screen's incumbent is exactly the best the search reports.
  EXPECT_EQ(bits(stats.incumbent_s), bits(result.best_time));
  // The audit: pruned candidates re-evaluated through the full model.
  const Objective full =
      make_objective(f.predictor, f.iterations, f.arch.cluster);
  for (const PrunedSample& s : bounded.pruned_samples()) {
    const double v = full(s.candidate);
    EXPECT_GE(v, s.lower_bound - 1e-9)
        << app << "/" << algo << ": pruned candidate "
        << s.candidate.to_string() << " beats its certified bound";
    EXPECT_GE(v, result.best_time - 1e-9)
        << app << "/" << algo << ": pruning discarded the run's best";
    EXPECT_GT(s.lower_bound, s.incumbent)
        << "prune fired without a certified reason";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Apps, BoundedVsFull,
    ::testing::Combine(::testing::Values("jacobi", "rna"),
                       ::testing::Values("gbs", "hill", "tabu", "genetic")),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

// The scalar path without a batch inner: same contract on a tabu run.
TEST(BoundedObjective, ScalarPathHoldsTheSameContract) {
  const AppFixture& f = fixture("jacobi");
  const BoundedObjective bounded = make_bounded(f);
  TabuOptions topts;
  topts.steps = 12;
  topts.neighbors = 5;
  const SearchResult result = tabu_search(dist::block_dist(f.ctx),
                                          Objective(bounded), topts,
                                          /*seed=*/9);
  const BoundedStats stats = bounded.stats();
  EXPECT_EQ(stats.violations, 0u);
  EXPECT_FALSE(stats.latched);
  EXPECT_EQ(stats.evaluated + stats.pruned,
            static_cast<std::size_t>(result.evaluations));
  EXPECT_EQ(bits(stats.incumbent_s), bits(result.best_time));
}

// Pruning must actually fire somewhere for the screen to earn its keep;
// a long tabu walk revisits plenty of certifiably-worse neighbors.
TEST(BoundedObjective, PruningFiresOnALongWalk) {
  const AppFixture& f = fixture("jacobi");
  const BoundedObjective bounded = make_bounded(f);
  TabuOptions topts;
  topts.steps = 40;
  topts.neighbors = 8;
  (void)tabu_search(dist::block_dist(f.ctx), Objective(bounded), topts,
                    /*seed=*/17);
  EXPECT_GT(bounded.stats().pruned, 0u);
  EXPECT_GT(bounded.stats().prune_rate(), 0.0);
}

// A pruned value is served as the candidate's certified lower bound, which
// is strictly above the incumbent — so a pruned candidate can never win a
// comparison against an evaluated one. Check the served value directly.
TEST(BoundedObjective, PrunedValueIsTheCertifiedLowerBound) {
  const AppFixture& f = fixture("jacobi");
  const BoundedObjective bounded = make_bounded(f);
  // Establish an incumbent with the balanced candidate...
  const dist::GenBlock good = dist::balanced_dist(f.ctx);
  const double incumbent = bounded(good);
  // ...then offer a provably terrible one: every row on one node.
  std::vector<std::int64_t> owner(
      static_cast<std::size_t>(f.arch.cluster.size()), 0);
  owner[0] = f.workload.program.rows();
  const dist::GenBlock bad{owner};
  const double served = bounded(bad);
  ASSERT_EQ(bounded.stats().pruned, 1u);
  EXPECT_GT(served, incumbent);
  EXPECT_EQ(bits(served),
            bits(bounded.analyzer().lower_bound(bad, f.iterations)));
  ASSERT_EQ(bounded.pruned_samples().size(), 1u);
  EXPECT_EQ(bounded.pruned_samples()[0].candidate.counts(), bad.counts());
}

// A poisoned oracle (negative tolerance makes every crosscheck fail) must
// latch permanently: the first evaluation trips it, and from then on the
// screen serves the inner objective untouched.
TEST(BoundedObjective, OracleViolationLatchesPermanently) {
  const AppFixture& f = fixture("jacobi");
  BoundedOptions opts;
  opts.crosscheck_tolerance_s = -1.0;  // impossible to satisfy
  const BoundedObjective bounded = make_bounded(f, opts);
  const Objective full =
      make_objective(f.predictor, f.iterations, f.arch.cluster);
  const dist::GenBlock d = dist::block_dist(f.ctx);
  (void)bounded(d);
  BoundedStats stats = bounded.stats();
  EXPECT_TRUE(stats.latched);
  EXPECT_GT(stats.violations, 0u);
  // The envelope itself is sound — only the tolerance is poisoned — so the
  // recorded gap (how far outside [lo, hi] the value landed) stays <= 0.
  EXPECT_LE(stats.max_violation_s, 0.0);
  // Latched: values pass through the inner objective bit-identically and
  // no further screening happens.
  const dist::GenBlock e = dist::balanced_dist(f.ctx);
  EXPECT_EQ(bits(bounded(e)), bits(full(e)));
  EXPECT_EQ(bounded.stats().evaluated, stats.evaluated);
}

// Disabled screen: a transparent pass-through that keeps no statistics.
TEST(BoundedObjective, DisabledIsATransparentPassThrough) {
  const AppFixture& f = fixture("jacobi");
  BoundedOptions opts;
  opts.enabled = false;
  const BoundedObjective bounded = make_bounded(f, opts);
  const Objective full =
      make_objective(f.predictor, f.iterations, f.arch.cluster);
  for (const auto& d : {dist::block_dist(f.ctx), dist::balanced_dist(f.ctx)})
    EXPECT_EQ(bits(bounded(d)), bits(full(d)));
  const std::vector<dist::GenBlock> batch = {dist::block_dist(f.ctx),
                                             dist::balanced_dist(f.ctx)};
  const auto values = bounded(batch);
  ASSERT_EQ(values.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(bits(values[i]), bits(full(batch[i])));
  EXPECT_EQ(bounded.stats().evaluated, 0u);
  EXPECT_EQ(bounded.stats().pruned, 0u);
}

// A fresh screen has an infinite incumbent, so the first batch is never
// pruned: its values must equal the inner objective's, elementwise.
TEST(BoundedObjective, FirstBatchIsNeverPruned) {
  const AppFixture& f = fixture("rna");
  const BoundedObjective bounded = make_bounded(f);
  const Objective full =
      make_objective(f.predictor, f.iterations, f.arch.cluster);
  const std::vector<dist::GenBlock> batch = {
      dist::block_dist(f.ctx), dist::balanced_dist(f.ctx),
      dist::in_core_dist(f.ctx)};
  const auto values = bounded(batch);
  ASSERT_EQ(values.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(bits(values[i]), bits(full(batch[i])));
  EXPECT_EQ(bounded.stats().pruned, 0u);
  EXPECT_EQ(bounded.stats().evaluated, batch.size());
}

}  // namespace
}  // namespace mheta::search
