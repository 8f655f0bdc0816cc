// Unit tests of the Predictor against hand-computed values of the paper's
// equations on small synthetic parameter sets.
#include "core/model.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace mheta::core {
namespace {

using instrument::MhetaParams;
using instrument::NodeParams;
using instrument::StageCosts;

// A program with one array (1000 rows x 1 KiB) and one single-stage section.
ProgramStructure simple_program(bool write_back, bool prefetch = false,
                                CommPattern pattern = CommPattern::kNone,
                                bool reduction = false) {
  ProgramStructure p;
  p.name = "synthetic";
  p.arrays = {{"A", 1000, 1024,
               write_back ? ooc::Access::kReadWrite : ooc::Access::kReadOnly}};
  SectionSpec s;
  s.id = 0;
  s.pattern = pattern;
  s.message_bytes = 1024;
  s.has_reduction = reduction;
  ooc::StageDef st;
  st.id = 0;
  st.read_vars = {"A"};
  if (write_back) st.write_vars = {"A"};
  st.prefetch = prefetch;
  s.stages.push_back(std::move(st));
  p.sections.push_back(std::move(s));
  return p;
}

// Params for n nodes: T_c = 1 s for W = 500 rows, r = 1 us/B, w = 2 us/B,
// seeks 10/20 ms, o_s = o_r = 1 ms, network 1 ms + 1 us/B.
MhetaParams simple_params(int n, double compute_s = 1.0) {
  MhetaParams params;
  params.network.latency_s = 1e-3;
  params.network.s_per_byte = 1e-6;
  params.instrumented_dist =
      dist::GenBlock(std::vector<std::int64_t>(static_cast<std::size_t>(n), 500));
  params.nodes.resize(static_cast<std::size_t>(n));
  for (auto& np : params.nodes) {
    np.read_seek_s = 0.010;
    np.write_seek_s = 0.020;
    np.send_overhead_s = 1e-3;
    np.recv_overhead_s = 1e-3;
    StageCosts sc;
    sc.compute_s = compute_s;
    sc.vars["A"] = {1e-6, 2e-6};
    np.stages[{0, 0}] = sc;
    instrument::SectionComm comm;
    comm.tiles = 1;
    np.comm[0] = comm;
  }
  return params;
}

TEST(Predictor, ComputeScalesWithWork) {
  // One in-core node: prediction is pure scaled compute.
  Predictor pred(simple_program(false), simple_params(1),
                 {10ll << 20});  // plenty of memory
  EXPECT_NEAR(pred.predict(dist::GenBlock({500})).total_s, 1.0, 1e-12);
  EXPECT_NEAR(pred.predict(dist::GenBlock({250})).total_s, 0.5, 1e-12);
  EXPECT_NEAR(pred.predict(dist::GenBlock({1000})).total_s, 2.0, 1e-12);
}

TEST(Predictor, IterationsAccumulate) {
  Predictor pred(simple_program(false), simple_params(1), {10ll << 20});
  const auto d = dist::GenBlock({500});
  EXPECT_NEAR(pred.predict(d, 7).total_s, 7 * pred.predict(d, 1).total_s,
              1e-9);
}

TEST(Predictor, InCoreStageHasNoIo) {
  Predictor pred(simple_program(true), simple_params(1), {10ll << 20});
  const auto p = pred.predict(dist::GenBlock({1000}));
  EXPECT_NEAR(p.io_s, 0.0, 1e-12);
}

TEST(Predictor, SyncOutOfCoreMatchesEquationOne) {
  // Memory 256 KiB -> 256 of 1000 rows in core per pass; NR = 4 blocks of
  // 250 rows. Exact-sum I/O: 4 seeks each way + full-OCLA latencies.
  Predictor pred(simple_program(true), simple_params(1), {256 << 10});
  const auto p = pred.predict(dist::GenBlock({1000}));
  const double ocla_bytes = 1000 * 1024;
  const double expected_io =
      4 * (0.010 + 0.020) + 1e-6 * ocla_bytes + 2e-6 * ocla_bytes;
  EXPECT_NEAR(p.io_s, expected_io, 1e-9);
  EXPECT_NEAR(p.total_s, 2.0 + expected_io, 1e-9);
}

TEST(Predictor, ReadOnlyVariableSkipsWriteTerms) {
  Predictor pred(simple_program(false), simple_params(1), {256 << 10});
  const auto p = pred.predict(dist::GenBlock({1000}));
  const double expected_io = 4 * 0.010 + 1e-6 * (1000 * 1024);
  EXPECT_NEAR(p.io_s, expected_io, 1e-9);
}

TEST(Predictor, PrefetchHidesLatencyBehindCompute) {
  // Read-only, 4 blocks. Per-block compute = 2.0/4 = 0.5 s; per-block read
  // = 10 ms + 0.256 s < 0.5 s, so blocks 2..4 are fully hidden.
  Predictor pred(simple_program(false, /*prefetch=*/true), simple_params(1),
                 {256 << 10});
  const auto p = pred.predict(dist::GenBlock({1000}));
  const double block_read = 0.010 + 1e-6 * (250 * 1024);
  EXPECT_NEAR(p.total_s, block_read + 4 * 0.5, 1e-9);
}

TEST(Predictor, PrefetchBoundByDiskWhenComputeShort) {
  // Tiny compute: the pipeline is disk-bound.
  Predictor pred(simple_program(false, /*prefetch=*/true),
                 simple_params(1, /*compute_s=*/0.004), {256 << 10});
  const auto p = pred.predict(dist::GenBlock({1000}));
  const double block_read = 0.010 + 1e-6 * (250 * 1024);
  // 4 serialized reads + the last block's compute (T_c' = 0.008 over 4
  // blocks -> 2 ms per block).
  EXPECT_NEAR(p.total_s, 4 * block_read + 0.002, 1e-9);
}

TEST(Predictor, ReductionTreeTwoNodes) {
  // Two synchronized nodes: reduce (1 send to 0) + bcast (1 send to 1).
  // t1: o_s; arrival at 0: t1 + x. t0: max(1, arrival) + o_r.
  // bcast: t0 += o_s; arrival 1: t0 + x; t1 = max(t1, arrival) + o_r.
  Predictor pred(simple_program(false, false, CommPattern::kNone, true),
                 simple_params(2), {10ll << 20, 10ll << 20});
  const auto p = pred.predict(dist::GenBlock({500, 500}));
  const double x = 1e-3 + 8e-6;  // transfer of 8 bytes
  const double t1_send = 1.0 + 1e-3;
  const double t0 = std::max(1.0, t1_send + x) + 1e-3;
  const double t0_send = t0 + 1e-3;
  const double t1 = std::max(t1_send, t0_send + x) + 1e-3;
  EXPECT_NEAR(p.node_end_s[0], t0_send, 1e-12);
  EXPECT_NEAR(p.node_end_s[1], t1, 1e-12);
}

TEST(Predictor, NearestNeighborWaitMatchesEquationThree) {
  // Node 1 has double the work; node 0 blocks waiting for its message.
  auto params = simple_params(2);
  params.nodes[1].stages[{0, 0}].compute_s = 2.0;
  // Recorded messages: each node sends one boundary to the other.
  params.nodes[0].comm[0].sends = {{1, 1024}};
  params.nodes[0].comm[0].recvs = {{1, 1024}};
  params.nodes[1].comm[0].sends = {{0, 1024}};
  params.nodes[1].comm[0].recvs = {{0, 1024}};
  Predictor pred(simple_program(false, false, CommPattern::kNearestNeighbor),
                 params, {10ll << 20, 10ll << 20});
  const auto p = pred.predict(dist::GenBlock({500, 500}));
  const double x = 1e-3 + 1024e-6;
  // Node 0: stages at 1.0, send done 1.001, msg from node 1 departs at
  // 2.001, arrives 2.001 + x; recv completes + o_r.
  EXPECT_NEAR(p.node_end_s[0], 2.001 + x + 1e-3, 1e-12);
  // Node 1: its wait for node 0's message is zero (it arrived long ago),
  // so it pays only its send overhead and the receive overhead.
  EXPECT_NEAR(p.node_end_s[1], 2.0 + 1e-3 + 1e-3, 1e-12);
}

TEST(Predictor, PipelineFirstNodeNeverBlocks) {
  // Eq. 4: E_0 has no receives; E_1 blocks per tile.
  auto params = simple_params(2);
  for (auto& np : params.nodes) np.comm[0].tiles = 4;
  ProgramStructure prog =
      simple_program(false, false, CommPattern::kPipeline);
  prog.sections[0].tiles = 4;
  Predictor pred(prog, params, {10ll << 20, 10ll << 20});
  const auto p = pred.predict(dist::GenBlock({500, 500}));
  // Node 0: 4 tiles x (0.25 compute + o_s) = 1.004.
  EXPECT_NEAR(p.node_end_s[0], 4 * (0.25 + 1e-3), 1e-12);
  // Node 1 blocks at each tile start: tile j's message departs node 0 at
  // (j+1)*(0.251); node 1 then pays o_r + 0.25 compute. The last tile
  // completes at node0_end + x + o_r + 0.25.
  const double x = 1e-3 + 1024e-6;
  EXPECT_NEAR(p.node_end_s[1], 4 * 0.251 + x + 1e-3 + 0.25, 1e-9);
}

TEST(Predictor, ZeroRowNodeContributesOnlyComm) {
  Predictor pred(simple_program(false), simple_params(2),
                 {10ll << 20, 10ll << 20});
  const auto p = pred.predict(dist::GenBlock({1000, 0}));
  EXPECT_NEAR(p.node_end_s[0], 2.0, 1e-12);
  EXPECT_NEAR(p.node_end_s[1], 0.0, 1e-12);
}

TEST(Predictor, RejectsMismatchedDistribution) {
  Predictor pred(simple_program(false), simple_params(2),
                 {10ll << 20, 10ll << 20});
  EXPECT_THROW(pred.predict(dist::GenBlock({1000})), CheckError);
}

TEST(Predictor, Predict2dRejectsOneDimensionalSections) {
  // Pipelines and total exchanges have no 2-D form; predict2d refuses them
  // instead of skipping them.
  const dist::Dist2D d({2, 1}, dist::GenBlock({500, 500}),
                       dist::GenBlock({1}));
  const Predictor plain(simple_program(false), simple_params(2),
                        {10ll << 20, 10ll << 20});
  EXPECT_NO_THROW(plain.predict2d(d, d));
  ProgramStructure pipelined = simple_program(false);
  pipelined.sections[0].pattern = CommPattern::kPipeline;
  pipelined.sections[0].tiles = 2;
  EXPECT_THROW(Predictor(pipelined, simple_params(2), {10ll << 20, 10ll << 20})
                   .predict2d(d, d),
               CheckError);
  ProgramStructure exchanged = simple_program(false);
  exchanged.sections[0].has_alltoall = true;
  exchanged.sections[0].alltoall_bytes_per_pair = 64;
  EXPECT_THROW(Predictor(exchanged, simple_params(2), {10ll << 20, 10ll << 20})
                   .predict2d(d, d),
               CheckError);
}

TEST(Predictor, LimitationTwoHeuristicIgnoresOverhead) {
  // Local array exactly fills memory; the model (no overhead) calls it in
  // core even though a runtime reserving buffers would stream it.
  Predictor pred(simple_program(true), simple_params(1), {1000 * 1024});
  const auto p = pred.predict(dist::GenBlock({1000}));
  EXPECT_NEAR(p.io_s, 0.0, 1e-12);  // model predicts no I/O
  ModelOptions opts;
  opts.planner_overhead_bytes = 64 << 10;  // an honest model would stream
  Predictor honest(simple_program(true), simple_params(1), {1000 * 1024},
                   opts);
  EXPECT_GT(honest.predict(dist::GenBlock({1000})).io_s, 0.0);
}

}  // namespace
}  // namespace mheta::core
