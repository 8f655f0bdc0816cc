// End-to-end coverage of run_profile: every artifact lands on disk, the
// JSON ones parse, and the headline metrics hold (plan-cache hit rate
// recorded, utilizations in [0, 1], attribution sums).
#include "obs/profile.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"
#include "search/objective.hpp"
#include "search/search.hpp"
#include "util/check.hpp"

namespace mheta::obs {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream is(p);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

class ProfileRun : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mheta_profile_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(ProfileRun, WritesAllArtifactsAndMeetsAcceptanceBounds) {
  const auto w = exp::workload_by_name("jacobi");
  ASSERT_TRUE(w.has_value());
  ProfileOptions opts;
  opts.arch = "HY1";
  opts.dist = "even";
  opts.iterations = 3;  // keep the simulated run short
  MetricsRegistry registry;
  const ProfileResult result =
      run_profile(*w, opts, registry, dir_.string());

  // Every artifact exists and is non-empty.
  for (const char* name : {"trace.json", "gantt.txt", "attribution.txt",
                           "attribution.json", "metrics.json", "metrics.prom"}) {
    const fs::path p = dir_ / name;
    ASSERT_TRUE(fs::exists(p)) << name;
    EXPECT_GT(fs::file_size(p), 0u) << name;
  }
  ASSERT_EQ(result.files.size(), 6u);  // no convergence.csv without --search

  // JSON artifacts parse.
  for (const char* name : {"trace.json", "attribution.json", "metrics.json"}) {
    std::string error;
    EXPECT_TRUE(json_valid(slurp(dir_ / name), &error)) << name << ": " << error;
  }

  // The plan cache was hit (on HY1 the attributed prediction alone reuses
  // plans) and its rate is exported.
  EXPECT_GT(result.plan_cache_hit_rate, 0.0);
  EXPECT_DOUBLE_EQ(registry.gauge("plan_cache_hit_rate").value(),
                   result.plan_cache_hit_rate);

  // Utilizations in [0, 1], one per node, also exported as gauges.
  const int nodes = result.report.nodes();
  ASSERT_EQ(result.cpu_utilization.size(), static_cast<std::size_t>(nodes));
  ASSERT_EQ(result.disk_utilization.size(), static_cast<std::size_t>(nodes));
  for (int r = 0; r < nodes; ++r) {
    const auto sr = std::to_string(r);
    EXPECT_GE(result.cpu_utilization[static_cast<std::size_t>(r)], 0.0);
    EXPECT_LE(result.cpu_utilization[static_cast<std::size_t>(r)], 1.0);
    EXPECT_GE(result.disk_utilization[static_cast<std::size_t>(r)], 0.0);
    EXPECT_LE(result.disk_utilization[static_cast<std::size_t>(r)], 1.0);
    EXPECT_DOUBLE_EQ(registry.gauge("cpu_utilization_node" + sr).value(),
                     result.cpu_utilization[static_cast<std::size_t>(r)]);
    EXPECT_DOUBLE_EQ(registry.gauge("disk_utilization_node" + sr).value(),
                     result.disk_utilization[static_cast<std::size_t>(r)]);
  }
  EXPECT_GE(result.network_utilization, 0.0);
  EXPECT_LE(result.network_utilization, 1.0);
  EXPECT_GT(registry.counter("sim_events_processed_total").value(), 0u);

  // Attribution identities: predicted terms sum to the headline prediction
  // (critical rank) and actual terms sum to each node's simulated time.
  const AttributionReport& rep = result.report;
  for (int r = 0; r < nodes; ++r) {
    EXPECT_NEAR(rep.predicted_node_total(r).total(),
                rep.predicted_node_end_s[static_cast<std::size_t>(r)], 1e-9);
    EXPECT_NEAR(rep.actual_node_total(r).total(),
                rep.actual_node_end_s[static_cast<std::size_t>(r)], 1e-9);
  }
  EXPECT_GT(rep.predicted_total_s, 0.0);
  EXPECT_GT(rep.actual_total_s, 0.0);
}

TEST_F(ProfileRun, SearchPassWritesConvergenceSeries) {
  const auto w = exp::workload_by_name("jacobi");
  ASSERT_TRUE(w.has_value());
  ProfileOptions opts;
  opts.arch = "HY1";
  opts.iterations = 2;
  opts.search = "gbs";  // cheapest of the algorithms
  MetricsRegistry registry;
  const ProfileResult result =
      run_profile(*w, opts, registry, dir_.string());
  EXPECT_TRUE(result.searched);
  EXPECT_GT(result.search_evaluations, 0);
  EXPECT_GT(result.search_best_s, 0.0);
  ASSERT_FALSE(result.convergence.empty());
  // best is monotone non-increasing.
  for (std::size_t i = 1; i < result.convergence.size(); ++i)
    EXPECT_LE(result.convergence[i].best, result.convergence[i - 1].best);
  const std::string csv = slurp(dir_ / "convergence.csv");
  EXPECT_EQ(csv.rfind("evaluation,cost,best\n", 0), 0u);
}

// The profile searches through lanes with nothing screening candidates, so
// every algorithm ends where it ends over the full model: same best, same
// evaluation count. (A screen that scores pruned candidates by their lower
// bound moves tabu, anneal and genetic elsewhere on this input.)
TEST_F(ProfileRun, SearchAnswersWhatTheFullModelAnswers) {
  const auto w = exp::workload_by_name("jacobi");
  ASSERT_TRUE(w.has_value());
  ProfileOptions opts;
  opts.arch = "HY1";
  const cluster::ArchConfig arch = cluster::find_arch(opts.arch);
  const core::Predictor predictor =
      exp::build_predictor(arch, *w, opts.experiment);
  const dist::DistContext ctx = exp::make_context(arch, *w, opts.experiment);
  for (const char* algorithm :
       {"tabu", "gbs", "anneal", "genetic", "random", "hill"}) {
    opts.search = algorithm;
    MetricsRegistry registry;
    const ProfileResult result =
        run_profile(*w, opts, registry, dir_.string());
    const search::SearchResult full = search::run_named(
        algorithm,
        search::BatchObjective(
            search::make_objective(predictor, w->iterations, arch.cluster)),
        dist_by_name(ctx, opts.dist), ctx, arch.spectrum, opts.seed);
    EXPECT_EQ(result.search_best_s, full.best_time) << algorithm;
    EXPECT_EQ(result.search_evaluations, full.evaluations) << algorithm;
    ASSERT_EQ(result.convergence.size(),
              static_cast<std::size_t>(full.evaluations))
        << algorithm;
    EXPECT_EQ(result.convergence.back().best, full.best_time) << algorithm;
  }
}

TEST_F(ProfileRun, RejectsUnknownDistributionAndSearchNames) {
  const auto w = exp::workload_by_name("jacobi");
  ASSERT_TRUE(w.has_value());
  MetricsRegistry registry;
  ProfileOptions bad_dist;
  bad_dist.dist = "nope";
  EXPECT_THROW(run_profile(*w, bad_dist, registry, dir_.string()),
               std::runtime_error);
  MetricsRegistry registry2;
  ProfileOptions bad_search;
  bad_search.search = "nope";
  bad_search.iterations = 1;
  EXPECT_THROW(run_profile(*w, bad_search, registry2, dir_.string()),
               CheckError);
}

}  // namespace
}  // namespace mheta::obs
