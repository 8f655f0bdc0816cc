// Exactness of the 2-D extension: with all unmodelled effects off,
// predict2d must match the 2-D simulated runs exactly, for every grid shape
// and every point of the 2-D candidate family.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "exp/experiment2d.hpp"

namespace mheta::exp {
namespace {

ExperimentOptions exact_options() {
  ExperimentOptions opts;
  opts.effects = cluster::SimEffects::none();
  opts.runtime.overhead_bytes = 0;
  return opts;
}

// The architecture name is a std::string, not a const char*, so the test's
// printed parameter (and hence its ctest name) carries no pointer address.
using ArchGrid = std::pair<std::string, dist::NodeGrid>;

class Exactness2D : public ::testing::TestWithParam<ArchGrid> {};

TEST_P(Exactness2D, Jacobi2dMatchesSimulator) {
  const auto [arch_name, grid] = GetParam();
  const auto arch = cluster::find_arch(arch_name);
  const auto opts = exact_options();
  const auto w = jacobi2d_workload(grid);
  const auto predictor = build_predictor_2d(arch, w, opts);
  const auto ctx = make_context_2d(arch, w);
  for (const auto& d : dist::spectrum_2d(ctx, 1)) {
    const auto point = run_point_2d(arch, w, predictor, d, opts);
    EXPECT_NEAR(point.predicted_s / point.actual_s, 1.0, 1e-4)
        << w.name << " on " << arch_name << " at " << d.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndArchs, Exactness2D,
    ::testing::Values(ArchGrid{"DC", {4, 2}}, ArchGrid{"DC", {2, 4}},
                      ArchGrid{"IO", {4, 2}}, ArchGrid{"HY1", {2, 4}},
                      ArchGrid{"HY2", {8, 1}}),
    [](const auto& info) {
      return info.param.first + "_" +
             std::to_string(info.param.second.p) + "x" +
             std::to_string(info.param.second.q);
    });

TEST(Exactness2D, DegenerateGridMatchesOneDimensional) {
  // A P x 1 grid is exactly the 1-D case: predict2d and predict must agree.
  const auto arch = cluster::find_arch("HY1");
  const auto opts = exact_options();
  const auto w = jacobi2d_workload({8, 1});
  const auto predictor = build_predictor_2d(arch, w, opts);
  const auto ctx = make_context_2d(arch, w);
  const auto d2 = dist::balanced_dist_2d(ctx);
  const auto p2 = predictor.predict2d(d2, instrumented_dist_2d(arch, w),
                                      w.iterations);
  const auto p1 = predictor.predict(d2.row_dist(), w.iterations);
  EXPECT_NEAR(p2.total_s / p1.total_s, 1.0, 1e-9);
}

TEST(Exactness2D, AccuracyWithEffectsOnStaysHigh) {
  // With the paper-default effects the 2-D model keeps ~95%+ accuracy.
  ExperimentOptions opts;
  const auto arch = cluster::find_arch("IO");
  const auto w = jacobi2d_workload({4, 2});
  const auto predictor = build_predictor_2d(arch, w, opts);
  const auto ctx = make_context_2d(arch, w);
  double worst = 0;
  for (const auto& d : dist::spectrum_2d(ctx, 0)) {
    worst = std::max(worst,
                     run_point_2d(arch, w, predictor, d, opts).pct_diff());
  }
  EXPECT_LT(worst, 0.12);
}

}  // namespace
}  // namespace mheta::exp
