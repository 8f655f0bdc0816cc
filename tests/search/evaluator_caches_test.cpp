// The fast evaluators own their row caches and evaluation scratch: building,
// running and destroying an objective over and over on one thread must not
// grow the heap. (Caches kept in per-thread storage would pin every
// evaluator's state for as long as the thread lives: tens of MB over 64
// searches.)
#include <gtest/gtest.h>

#include <cstdint>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "exp/experiment.hpp"
#include "search/objective.hpp"
#include "search/search.hpp"

namespace mheta::search {
namespace {

/// Bytes the allocator has handed out and not taken back; 0 where glibc's
/// counters are unavailable (non-glibc, or a sanitizer's allocator).
std::int64_t heap_in_use() {
#if defined(__GLIBC__)
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<std::int64_t>(mi.uordblks + mi.hblkhd);
#else
  return 0;
#endif
}

TEST(LaneAndDeltaCaches, AreFreedWithTheirEvaluators) {
  const cluster::ArchConfig arch = cluster::find_arch("HY1");
  const auto w = exp::workload_by_name("jacobi");
  ASSERT_TRUE(w.has_value());
  const exp::ExperimentOptions opts;
  const core::Predictor predictor = exp::build_predictor(arch, *w, opts);
  const dist::DistContext ctx = exp::make_context(arch, *w, opts);
  const dist::GenBlock start = dist::block_dist(ctx);
  const int k = w->iterations;

  // One genetic search through lanes and one annealing chain through the
  // delta path, each on a fresh objective; same seed every time, so the
  // predictor's plan LRU sees no new keys after the warm-up.
  const auto search_once = [&] {
    {
      const LaneObjective lanes(predictor, k, arch.cluster);
      (void)genetic(ctx, BatchObjective(lanes), {}, 7);
    }
    {
      const DeltaObjective delta(predictor, k, arch.cluster);
      (void)simulated_annealing(start, Objective(delta), {}, 7);
    }
  };
  search_once();  // warm-up: plan LRU, allocator arenas
  const std::int64_t before = heap_in_use();
  if (before == 0) GTEST_SKIP() << "mallinfo2() reports nothing in use";
  for (int i = 0; i < 64; ++i) search_once();
  EXPECT_LT(heap_in_use() - before, 64 * 1024);
}

}  // namespace
}  // namespace mheta::search
