// Tests of the clock driver's reuse of its scalar clock state: one
// ClockState shared across calls with different structures and rank counts
// (growing then shrinking) must leave every prediction bit-identical to the
// fresh-state path, and the collective arrival buffers (coll_a/coll_b) must
// not alias each other under a section that runs both an alltoall and a
// reduction.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/model.hpp"
#include "core/walk.hpp"
#include "dist/genblock.hpp"

namespace mheta::core {

// Friend of Predictor (declared in model.hpp): mirrors predict() but drives
// the scalar clock over an externally owned ClockState, exactly like the
// incremental evaluator does.
struct PredictorTestPeer {
  using Scratch = ClockState;

  static Prediction predict_with_scratch(const Predictor& p,
                                         const dist::GenBlock& d,
                                         int iterations,
                                         Scratch& scratch) {
    const int n = d.nodes();
    const Predictor::FullRows rows = p.full_rows(n);
    p.build_rows(d, p.plans_for(d), 1.0, rows.data.get(), nullptr);
    Prediction pred;
    Predictor::ScalarClock clock(p, n, rows.ptr.data(), scratch, pred);
    p.drive(clock, p.comm_interned_, static_cast<std::size_t>(iterations),
            nullptr);
    clock.finish();
    return pred;
  }

  // Poisons every clock-state vector with NaNs of a mismatched size,
  // proving the driver never reads stale contents or relies on the
  // incoming sizes.
  static void poison(Scratch& s, std::size_t n) {
    const double nan = std::nan("");
    for (std::vector<double>* v :
         {&s.off, &s.start, &s.prev_off, &s.last_end, &s.base, &s.mins,
          &s.last_m, &s.arrivals, &s.coll_a, &s.coll_b})
      v->assign(n, nan);
  }
};

namespace {

using instrument::MhetaParams;
using instrument::StageCosts;

std::uint64_t bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

void expect_bit_identical(const Prediction& a, const Prediction& b) {
  EXPECT_EQ(bits(a.total_s), bits(b.total_s));
  EXPECT_EQ(bits(a.compute_s), bits(b.compute_s));
  EXPECT_EQ(bits(a.io_s), bits(b.io_s));
  ASSERT_EQ(a.node_end_s.size(), b.node_end_s.size());
  for (std::size_t i = 0; i < a.node_end_s.size(); ++i)
    EXPECT_EQ(bits(a.node_end_s[i]), bits(b.node_end_s[i]));
}

// One array, one section; optionally a neighbor exchange plus an alltoall
// and a reduction in the same section (the aliasing-sensitive mix: the
// alltoall fills coll_a, then the reduction reuses coll_a and coll_b).
ProgramStructure make_program(bool collectives) {
  ProgramStructure p;
  p.name = collectives ? "scratch-coll" : "scratch-simple";
  p.arrays = {{"A", 4000, 1024, ooc::Access::kReadWrite}};
  SectionSpec s;
  s.id = 0;
  if (collectives) {
    s.pattern = CommPattern::kNone;
    s.has_alltoall = true;
    s.alltoall_bytes_per_pair = 512;
    s.has_reduction = true;
    s.reduce_bytes = 8;
  }
  ooc::StageDef st;
  st.id = 0;
  st.read_vars = {"A"};
  st.write_vars = {"A"};
  s.stages.push_back(std::move(st));
  p.sections.push_back(std::move(s));
  return p;
}

// Mildly heterogeneous params for n nodes so per-node clocks diverge and
// the collective trees see distinct arrival times per rank.
MhetaParams make_params(int n) {
  MhetaParams params;
  params.network.latency_s = 1e-3;
  params.network.s_per_byte = 1e-6;
  params.instrumented_dist = dist::GenBlock(
      std::vector<std::int64_t>(static_cast<std::size_t>(n), 4000 / n));
  params.nodes.resize(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    auto& np = params.nodes[static_cast<std::size_t>(r)];
    np.read_seek_s = 0.010;
    np.write_seek_s = 0.020;
    np.send_overhead_s = 1e-3 * (1.0 + 0.1 * r);
    np.recv_overhead_s = 1e-3;
    StageCosts sc;
    sc.compute_s = 1.0 + 0.25 * r;  // heterogeneous compute
    sc.vars["A"] = {1e-6, 2e-6};
    np.stages[{0, 0}] = sc;
    instrument::SectionComm comm;
    comm.tiles = 1;
    np.comm[0] = comm;
  }
  return params;
}

Predictor make_predictor(int n, bool collectives,
                         std::int64_t node_memory = 512ll << 10) {
  return Predictor(
      make_program(collectives), make_params(n),
      std::vector<std::int64_t>(static_cast<std::size_t>(n), node_memory));
}

dist::GenBlock skewed(int n, std::int64_t rows) {
  std::vector<std::int64_t> counts(static_cast<std::size_t>(n), rows / n);
  counts.front() += rows - (rows / n) * n;  // remainder to rank 0
  if (n > 1) {  // skew so clocks diverge
    counts.front() += rows / (2 * n);
    counts.back() -= rows / (2 * n);
  }
  return dist::GenBlock(std::move(counts));
}

TEST(IterScratch, ReuseAcrossStructuresAndRankCounts) {
  // Grow 4 -> 8, change structure, then shrink back to 2, all through ONE
  // clock state. Every call must match predict() bit for bit.
  PredictorTestPeer::Scratch scratch;
  const struct {
    int nodes;
    bool collectives;
  } steps[] = {{4, false}, {8, false}, {8, true}, {2, true}, {2, false}};
  for (const auto& step : steps) {
    const Predictor pred = make_predictor(step.nodes, step.collectives);
    const dist::GenBlock d = skewed(step.nodes, 4000);
    const Prediction expected = pred.predict(d, 5);
    const Prediction got =
        PredictorTestPeer::predict_with_scratch(pred, d, 5, scratch);
    expect_bit_identical(expected, got);
  }
}

TEST(IterScratch, PoisonedScratchIsHarmless) {
  // The driver must fully (re)initialize every clock-state vector: NaNs of
  // the wrong size left over from a previous caller cannot leak into the
  // result.
  const Predictor pred = make_predictor(8, /*collectives=*/true);
  const dist::GenBlock d = skewed(8, 4000);
  const Prediction expected = pred.predict(d, 3);
  PredictorTestPeer::Scratch scratch;
  for (const std::size_t poison_n : {0u, 3u, 64u}) {
    PredictorTestPeer::poison(scratch, poison_n);
    const Prediction got =
        PredictorTestPeer::predict_with_scratch(pred, d, 3, scratch);
    expect_bit_identical(expected, got);
  }
}

TEST(IterScratch, CollectiveScratchNonAliasingUnderReductionAlltoallMix) {
  // A section with both collectives walks the alltoall (coll_a) and then
  // the reduce + broadcast tree (coll_a, coll_b) each iteration. If coll_a
  // and coll_b aliased, the broadcast arrivals would overwrite the reduce
  // arrivals mid-tree. Cross-check the reused state against predict()'s
  // fresh state over repeated reuse and both orderings of node count.
  PredictorTestPeer::Scratch scratch;
  for (const int n : {8, 5, 8, 3}) {
    const Predictor pred = make_predictor(n, /*collectives=*/true);
    const dist::GenBlock d = skewed(n, 4000);
    const Prediction expected = pred.predict(d, 4);
    for (int rep = 0; rep < 3; ++rep) {
      const Prediction got =
          PredictorTestPeer::predict_with_scratch(pred, d, 4, scratch);
      expect_bit_identical(expected, got);
    }
    // The collective scratch vectors must be distinct allocations sized to
    // the run; if they were merged into one buffer the mix above would
    // have corrupted the reduce tree.
    EXPECT_NE(scratch.coll_a.data(), scratch.coll_b.data());
    EXPECT_EQ(scratch.coll_a.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(scratch.coll_b.size(), static_cast<std::size_t>(n));
  }
}

}  // namespace
}  // namespace mheta::core
