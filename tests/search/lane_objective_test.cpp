// Property coverage for the lane-batched objective: across four paper
// workloads and four batchable algorithms, every candidate a search
// evaluates through lanes must score bit-identically to a full
// Predictor::predict — the lane loop interleaves candidates but never
// reorders any one candidate's floating-point chain, so any difference at
// all is a bug, not rounding. The fill-threshold fallback, the crosscheck
// oracle, the thread-pool group path and the disabled escape hatch are
// pinned here too.
#include "search/objective.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
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

/// The oracle wrapper: whole candidate sets go through the lane path AND
/// (per candidate) a full predict; any disagreement fails the test on the
/// spot, with the candidate that broke it. Single candidates oracle the
/// scalar path the same way.
BatchObjective checked(const AppFixture& f, const LaneObjective& lanes) {
  const core::Predictor* predictor = &f.predictor;
  const int iterations = f.iterations;
  Objective scalar = [lanes, predictor, iterations](const dist::GenBlock& d) {
    const double v = lanes(d);
    EXPECT_EQ(bits(v), bits(predictor->predict(d, iterations).total_s))
        << "candidate " << d.to_string();
    return v;
  };
  BatchObjective::BatchFn batch =
      [lanes, predictor,
       iterations](const std::vector<dist::GenBlock>& candidates) {
        const std::vector<double> values = lanes.evaluate(candidates);
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          EXPECT_EQ(bits(values[i]),
                    bits(predictor->predict(candidates[i], iterations).total_s))
              << "lane " << i << " candidate " << candidates[i].to_string();
        }
        return values;
      };
  return BatchObjective(std::move(scalar), std::move(batch));
}

// Options downsized so 4 apps x 4 algorithms stays fast; every batch still
// runs both paths through the oracle above.
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
    opts.population = 12;
    opts.generations = 6;
    return genetic(f.ctx, objective, opts, seed);
  }
  ADD_FAILURE() << "unknown algorithm " << algo;
  return {};
}

class LaneVsFull
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(LaneVsFull, BitIdenticalTrajectories) {
  const auto& [app, algo] = GetParam();
  const AppFixture& f = fixture(app);
  const LaneObjective lanes(f.predictor, f.iterations, f.arch.cluster);
  const BatchObjective oracle = checked(f, lanes);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const SearchResult with_lanes = run_algorithm(algo, f, oracle, seed);
    const SearchResult with_full = run_algorithm(
        algo, f,
        BatchObjective(
            make_objective(f.predictor, f.iterations, f.arch.cluster)),
        seed);
    // Same scores everywhere means the same trajectory and the same result.
    EXPECT_EQ(with_lanes.best.counts(), with_full.best.counts());
    EXPECT_EQ(bits(with_lanes.best_time), bits(with_full.best_time));
    EXPECT_EQ(with_lanes.evaluations, with_full.evaluations);
    if (std::string_view(algo) == "gbs") break;  // deterministic
  }
  const core::LaneStats stats = lanes.stats();
  EXPECT_GT(stats.batched_sweeps, 0u);
  EXPECT_GT(stats.lane_evaluations, 0u);
  EXPECT_EQ(stats.fallback_latches, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Apps, LaneVsFull,
    ::testing::Combine(::testing::Values("jacobi", "cg", "lanczos", "rna"),
                       ::testing::Values("gbs", "hill", "tabu", "genetic")),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

/// A candidate set covering the awkward shapes: rank-boundary moves, big
/// shifts, and degenerate single-node distributions, all inside one batch
/// so they share sweeps with ordinary lanes.
std::vector<dist::GenBlock> awkward_batch(const AppFixture& f) {
  const dist::GenBlock start = dist::block_dist(f.ctx);
  const int last = start.nodes() - 1;
  std::vector<dist::GenBlock> out = {start, dist::balanced_dist(f.ctx)};
  for (const auto& [from, to] : std::vector<std::pair<int, int>>{
           {0, 1}, {1, 0}, {last, last - 1}, {last - 1, last}, {0, last}}) {
    auto counts = start.counts();
    const std::int64_t shift = std::min<std::int64_t>(64, counts[
        static_cast<std::size_t>(from)]);
    counts[static_cast<std::size_t>(from)] -= shift;
    counts[static_cast<std::size_t>(to)] += shift;
    out.emplace_back(counts);
  }
  const std::int64_t rows = f.workload.program.rows();
  for (const int owner : {0, start.nodes() / 2, last}) {
    std::vector<std::int64_t> counts(static_cast<std::size_t>(start.nodes()),
                                     0);
    counts[static_cast<std::size_t>(owner)] = rows;
    out.emplace_back(counts);
  }
  return out;
}

TEST(LaneObjective, AwkwardShapesShareSweepsAndMatchFullPredict) {
  for (const char* app : {"jacobi", "rna"}) {
    const AppFixture& f = fixture(app);
    const LaneObjective lanes(f.predictor, f.iterations, f.arch.cluster);
    const std::vector<dist::GenBlock> batch = awkward_batch(f);
    const std::vector<double> values = lanes.evaluate(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(bits(values[i]),
                bits(f.predictor.predict(batch[i], f.iterations).total_s))
          << app << " lane " << i;
    }
    EXPECT_GT(lanes.stats().batched_sweeps, 0u);
  }
}

/// `count` candidates around the block distribution in which every rank's
/// count is new: candidate k moves sign * (k + 1) rows from the last rank
/// to each of the others.
std::vector<dist::GenBlock> fresh_rows(const AppFixture& f, int count,
                                       int sign) {
  const dist::GenBlock start = dist::block_dist(f.ctx);
  const std::size_t n = static_cast<std::size_t>(start.nodes());
  std::vector<dist::GenBlock> out;
  for (int k = 0; k < count; ++k) {
    auto counts = start.counts();
    const std::int64_t d = sign * (k + 1);
    for (std::size_t r = 0; r + 1 < n; ++r) counts[r] += d;
    counts[n - 1] -= d * static_cast<std::int64_t>(n - 1);
    for (const std::int64_t c : counts) EXPECT_GE(c, 0);
    out.emplace_back(counts);
  }
  return out;
}

// A group is swept in blocks of 32 lanes, the last at the smallest compiled
// width (4, 8, 16 or 32) that holds the rest, its spare lanes padded. Group
// sizes on and around every width must match full predict lane for lane,
// node end times included (the crosscheck runs on every sweep).
TEST(LaneObjective, EveryBlockWidthMatchesFullPredict) {
  const AppFixture& f = fixture("rna");
  core::LaneOptions opts;
  opts.lane_width = 72;
  opts.crosscheck_every = 1;
  const LaneObjective lanes(f.predictor, f.iterations, f.arch.cluster, opts);
  const std::vector<dist::GenBlock> pool = fresh_rows(f, 72, 1);
  for (const std::size_t count :
       {4, 5, 8, 9, 15, 16, 17, 31, 32, 33, 36, 48, 64, 65, 72}) {
    const std::vector<dist::GenBlock> batch(
        pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(count));
    const std::vector<double> values = lanes.evaluate(batch);
    for (std::size_t i = 0; i < count; ++i)
      EXPECT_EQ(bits(values[i]),
                bits(f.predictor.predict(batch[i], f.iterations).total_s))
          << count << " lanes, lane " << i;
  }
  const core::LaneStats stats = lanes.stats();
  EXPECT_EQ(stats.batched_sweeps, 15u);
  EXPECT_EQ(stats.scalar_evaluations, 0u);
  EXPECT_EQ(stats.crosschecks, stats.lane_evaluations);
  EXPECT_EQ(stats.fallback_latches, 0u);
  EXPECT_EQ(stats.max_drift_s, 0.0);
}

// The row cache sizes its table for one group's worst case when it resets.
// A narrow first group leaves it sized for few inserts; a wide group of
// all-new (rank, rows) keys after it must still find room (the cache resets
// when that group's inserts could fill the table past half) and match full
// predict.
TEST(LaneObjective, WideGroupOfNewRowsAfterANarrowGroup) {
  const AppFixture& f = fixture("jacobi");
  core::LaneOptions opts;
  opts.row_cache_capacity = 64;
  const LaneObjective lanes(f.predictor, f.iterations, f.arch.cluster, opts);
  for (const std::vector<dist::GenBlock>& batch :
       {fresh_rows(f, 4, -1), fresh_rows(f, 32, 1)}) {
    const std::vector<double> values = lanes.evaluate(batch);
    for (std::size_t i = 0; i < batch.size(); ++i)
      EXPECT_EQ(bits(values[i]),
                bits(f.predictor.predict(batch[i], f.iterations).total_s))
          << batch.size() << " lanes, lane " << i;
  }
  const core::LaneStats stats = lanes.stats();
  EXPECT_EQ(stats.batched_sweeps, 2u);
  EXPECT_EQ(stats.rows_computed, 36u * 8u);
}

// The batching policy: groups below min_fill take the scalar path, full
// groups sweep, a trailing group >= min_fill sweeps partially filled and
// reports its idle slots.
TEST(LaneObjective, FillThresholdRoutesSmallGroupsToScalarPath) {
  const AppFixture& f = fixture("jacobi");
  core::LaneOptions opts;
  opts.lane_width = 8;
  opts.min_fill = 4;
  const LaneObjective lanes(f.predictor, f.iterations, f.arch.cluster, opts);
  const std::vector<dist::GenBlock> batch = awkward_batch(f);

  // 3 candidates < min_fill: all scalar, no sweeps.
  std::vector<dist::GenBlock> three(batch.begin(), batch.begin() + 3);
  (void)lanes.evaluate(three);
  core::LaneStats stats = lanes.stats();
  EXPECT_EQ(stats.batched_sweeps, 0u);
  EXPECT_EQ(stats.lane_evaluations, 0u);
  EXPECT_EQ(stats.scalar_evaluations, 3u);

  // 10 candidates: one full sweep of 8 plus a 2-wide tail below min_fill.
  (void)lanes.evaluate(batch);
  ASSERT_EQ(batch.size(), 10u);
  stats = lanes.stats();
  EXPECT_EQ(stats.batched_sweeps, 1u);
  EXPECT_EQ(stats.lane_evaluations, 8u);
  EXPECT_EQ(stats.scalar_evaluations, 5u);
  EXPECT_EQ(stats.idle_lanes, 0u);

  // 12 candidates: a full sweep plus a 4-wide partial sweep (4 idle slots).
  std::vector<dist::GenBlock> twelve = batch;
  twelve.push_back(batch[0]);
  twelve.push_back(batch[1]);
  (void)lanes.evaluate(twelve);
  stats = lanes.stats();
  EXPECT_EQ(stats.batched_sweeps, 3u);
  EXPECT_EQ(stats.lane_evaluations, 20u);
  EXPECT_EQ(stats.idle_lanes, 4u);
  EXPECT_NEAR(stats.fill_rate(), 20.0 / 24.0, 1e-12);
}

// Cross-check mode must actually compare (counter moves) and, since the
// lane loop agrees with predict by construction, never trip the permanent
// fallback.
TEST(LaneObjective, CrosscheckEverySweepObservesZeroDrift) {
  const AppFixture& f = fixture("lanczos");
  core::LaneOptions opts;
  opts.crosscheck_every = 1;
  const LaneObjective lanes(f.predictor, f.iterations, f.arch.cluster, opts);
  GeneticOptions gopts;
  gopts.population = 12;
  gopts.generations = 4;
  (void)genetic(f.ctx, BatchObjective(lanes), gopts, /*seed=*/3);
  const core::LaneStats stats = lanes.stats();
  EXPECT_GT(stats.batched_sweeps, 0u);
  EXPECT_GT(stats.crosschecks, 0u);
  EXPECT_EQ(stats.crosschecks, stats.lane_evaluations);
  EXPECT_EQ(stats.fallback_latches, 0u);
  EXPECT_EQ(stats.max_drift_s, 0.0);
}

// The pool overload spreads lane groups across threads with the same group
// boundaries, so values (and search trajectories) are bit-identical.
TEST(LaneObjective, ThreadPoolGroupsMatchSerialBitForBit) {
  const AppFixture& f = fixture("jacobi");
  const LaneObjective lanes(f.predictor, f.iterations, f.arch.cluster);
  std::vector<dist::GenBlock> batch = awkward_batch(f);
  {  // several lane groups' worth
    const std::vector<dist::GenBlock> copy = batch;
    for (int i = 0; i < 4; ++i)
      batch.insert(batch.end(), copy.begin(), copy.end());
  }
  const std::vector<double> serial = lanes.evaluate(batch);
  util::ThreadPool pool(4);
  const std::vector<double> pooled = lanes.evaluate(batch, &pool);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(bits(serial[i]), bits(pooled[i])) << "lane " << i;

  TabuOptions topts;
  topts.steps = 10;
  topts.neighbors = 5;
  const dist::GenBlock start = dist::block_dist(f.ctx);
  const SearchResult serial_res =
      tabu_search(start, BatchObjective(lanes), topts, /*seed=*/11);
  const SearchResult pooled_res =
      tabu_search(start, BatchObjective(lanes, pool), topts, /*seed=*/11);
  EXPECT_EQ(serial_res.best.counts(), pooled_res.best.counts());
  EXPECT_EQ(bits(serial_res.best_time), bits(pooled_res.best_time));
  EXPECT_EQ(serial_res.evaluations, pooled_res.evaluations);
}

// The escape hatch: a disabled evaluator serves everything through the
// scalar delta path and says so in its counters.
TEST(LaneObjective, DisabledFallsBackToScalarPath) {
  const AppFixture& f = fixture("jacobi");
  core::LaneOptions opts;
  opts.enabled = false;
  const LaneObjective lanes(f.predictor, f.iterations, f.arch.cluster, opts);
  const std::vector<dist::GenBlock> batch = awkward_batch(f);
  const std::vector<double> values = lanes.evaluate(batch);
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(bits(values[i]),
              bits(f.predictor.predict(batch[i], f.iterations).total_s));
  const core::LaneStats stats = lanes.stats();
  EXPECT_EQ(stats.batched_sweeps, 0u);
  EXPECT_EQ(stats.lane_evaluations, 0u);
  EXPECT_EQ(stats.scalar_evaluations, batch.size());
}

// Shape guard parity with make_objective: malformed candidates must be
// rejected up front (MH008) from both the scalar and the batch entry.
TEST(LaneObjective, RejectsWrongShapedCandidates) {
  const AppFixture& f = fixture("jacobi");
  const LaneObjective lanes(f.predictor, f.iterations, f.arch.cluster);
  const dist::GenBlock start = dist::block_dist(f.ctx);
  auto wrong_total = start.counts();
  wrong_total[0] += 1;
  EXPECT_THROW((void)lanes(dist::GenBlock(wrong_total)), analysis::LintError);
  EXPECT_THROW(
      (void)lanes.evaluate(std::vector<dist::GenBlock>{
          start, dist::GenBlock(wrong_total)}),
      analysis::LintError);
}

}  // namespace
}  // namespace mheta::search
