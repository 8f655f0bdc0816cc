#include "apps/driver2d.hpp"

#include <gtest/gtest.h>

#include "apps/isort.hpp"
#include "apps/jacobi.hpp"
#include "apps/rna.hpp"
#include "cluster/suite.hpp"
#include "util/check.hpp"

namespace mheta::apps {
namespace {

dist::Dist2D even_2d(std::int64_t rows, std::int64_t cols, dist::NodeGrid g) {
  dist::Dist2DContext ctx;
  ctx.grid = g;
  ctx.rows = rows;
  ctx.cols = cols;
  ctx.cpu_powers.assign(static_cast<std::size_t>(g.nodes()), 1.0);
  return dist::block_dist_2d(ctx);
}

TEST(Driver2D, HaloByteHelpers) {
  core::SectionSpec section;
  section.message_bytes = 16384;  // 2048 8-byte elements
  const auto d = even_2d(4096, 2048, {4, 2});
  // NS halo: half the row on a 2-column grid.
  EXPECT_EQ(ns_halo_bytes(section, d, 0), 8192);
  // EW halo: 1024 rows x 8 bytes.
  EXPECT_EQ(ew_halo_bytes(section, d, 0), 1024 * 8);
}

TEST(Driver2D, EwHaloRequiresDivisibleMessage) {
  core::SectionSpec section;
  section.message_bytes = 1000;  // not divisible by 2048 columns
  const auto d = even_2d(4096, 2048, {4, 2});
  EXPECT_THROW(ew_halo_bytes(section, d, 0), CheckError);
}

TEST(Driver2D, RejectsPipelinedSections) {
  const auto arch = cluster::find_arch("DC");
  const auto p = rna_program({});  // pipelined
  const auto d = even_2d(p.rows(), p.arrays[0].row_bytes / 8, {4, 2});
  RunOptions run;
  run.iterations = 1;
  EXPECT_THROW(run_program_2d(arch.cluster, cluster::SimEffects::none(), p, d,
                              run),
               CheckError);
}

TEST(Driver2D, RejectsTotalExchangeSections) {
  const auto arch = cluster::find_arch("DC");
  const auto p = isort_program({});  // ring alltoall
  const auto d = even_2d(p.rows(), p.arrays[0].row_bytes / 8, {4, 2});
  RunOptions run;
  run.iterations = 1;
  EXPECT_THROW(run_program_2d(arch.cluster, cluster::SimEffects::none(), p, d,
                              run),
               CheckError);
}

TEST(Driver2D, RejectsGridClusterMismatch) {
  const auto arch = cluster::find_arch("DC");  // 8 nodes
  const auto p = jacobi_program({});
  const auto d = even_2d(p.rows(), p.arrays[0].row_bytes / 8, {2, 2});
  RunOptions run;
  run.iterations = 1;
  EXPECT_THROW(run_program_2d(arch.cluster, cluster::SimEffects::none(), p, d,
                              run),
               CheckError);
}

TEST(Driver2D, NarrowColumnsShrinkComputeAndIo) {
  // Same rows, half the columns on one side: the wide-column ranks finish
  // later than in the even split.
  const auto arch = cluster::find_arch("DC");
  const auto p = jacobi_program({});
  RunOptions run;
  run.iterations = 1;
  run.runtime.overhead_bytes = 0;
  const auto even = run_program_2d(arch.cluster, cluster::SimEffects::none(),
                                   p, even_2d(4096, 2048, {4, 2}), run);
  dist::Dist2D skewed({4, 2},
                      even_2d(4096, 2048, {4, 2}).row_dist(),
                      dist::GenBlock({512, 1536}));
  const auto skew = run_program_2d(arch.cluster, cluster::SimEffects::none(),
                                   p, skewed, run);
  // Total time is bound by the 3x-wider column block.
  EXPECT_GT(skew.seconds, even.seconds * 1.3);
}

TEST(Driver2D, GridShapeChangesRuntime) {
  // 8x1 vs 4x2 vs 2x4 produce different (deterministic) times.
  const auto arch = cluster::find_arch("HY1");
  const auto p = jacobi_program({});
  RunOptions run;
  run.iterations = 1;
  run.runtime.overhead_bytes = 0;
  std::vector<double> times;
  for (const auto g : {dist::NodeGrid{8, 1}, dist::NodeGrid{4, 2},
                       dist::NodeGrid{2, 4}}) {
    times.push_back(run_program_2d(arch.cluster, cluster::SimEffects::none(),
                                   p, even_2d(4096, 2048, g), run)
                        .seconds);
  }
  EXPECT_NE(times[0], times[1]);
  EXPECT_NE(times[1], times[2]);
}

}  // namespace
}  // namespace mheta::apps
