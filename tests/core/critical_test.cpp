// The instrumented clock sweep (core/critical.hpp): the traced prediction
// must reproduce predict() on every workload x architecture x distribution,
// every event must telescope exactly onto its causal predecessor, and the
// perturbation replay must agree bit for bit with a brute-force rebuild.
#include "core/critical.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "cluster/suite.hpp"
#include "core/model.hpp"
#include "exp/experiment.hpp"
#include "util/check.hpp"

namespace mheta::core {
namespace {

struct Triple {
  const char* workload;
  const char* arch;
  const char* dist;
};

// Prints the strings, not the struct's bytes: the bytes are pointers, which
// would put a per-process address into the test's ctest name.
void PrintTo(const Triple& t, std::ostream* os) {
  *os << t.workload << " on " << t.arch << " (" << t.dist << ")";
}

dist::GenBlock dist_for(const dist::DistContext& ctx, const std::string& d) {
  if (d == "bal") return dist::balanced_dist(ctx);
  if (d == "ic") return dist::in_core_dist(ctx);
  if (d == "icbal") return dist::in_core_balanced_dist(ctx);
  return dist::block_dist(ctx);
}

class TracedSweep : public ::testing::TestWithParam<Triple> {};

TEST_P(TracedSweep, ReproducesPredictAndTelescopes) {
  const auto [workload, arch_name, dist_name] = GetParam();
  const auto w = exp::workload_by_name(workload);
  ASSERT_TRUE(w.has_value());
  const auto arch = cluster::find_arch(arch_name);
  const core::Predictor predictor = exp::build_predictor(arch, *w, {});
  const dist::DistContext ctx = exp::make_context(arch, *w, {});
  const dist::GenBlock d = dist_for(ctx, dist_name);
  const int iterations = 3;

  const Prediction reference = predictor.predict(d, iterations);
  const SweepTrace trace = predictor.predict_traced(d, iterations);

  // Headline identity: the traced sweep is the same recurrence on absolute
  // clocks, so per-node ends agree with predict() within fp summation error.
  ASSERT_EQ(trace.prediction.node_end_s.size(),
            reference.node_end_s.size());
  EXPECT_NEAR(trace.prediction.total_s, reference.total_s, 1e-9);
  for (std::size_t r = 0; r < reference.node_end_s.size(); ++r)
    EXPECT_NEAR(trace.prediction.node_end_s[r], reference.node_end_s[r],
                1e-9)
        << "rank " << r;

  // Telescoping: every event starts exactly where its predecessor ended
  // plus the connecting wire time — bit-exact, not a tolerance.
  for (const SweepEvent& e : trace.events) {
    const double pred_end =
        e.pred >= 0 ? trace.events[static_cast<std::size_t>(e.pred)].t_end
                    : 0.0;
    EXPECT_DOUBLE_EQ(e.t_start, pred_end + e.edge_s);
    EXPECT_GE(e.t_end, e.t_start);
  }

  // Heads: each rank's final event lands exactly on its clock.
  ASSERT_EQ(trace.head.size(), reference.node_end_s.size());
  for (std::size_t r = 0; r < trace.head.size(); ++r) {
    ASSERT_GE(trace.head[r], 0) << "rank " << r << " recorded no events";
    EXPECT_DOUBLE_EQ(
        trace.events[static_cast<std::size_t>(trace.head[r])].t_end,
        trace.prediction.node_end_s[r]);
  }

  // The critical path chains from the origin to the critical rank's head.
  const std::vector<int> path = trace.critical_path();
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(trace.events[static_cast<std::size_t>(path.front())].pred, -1);
  EXPECT_EQ(path.back(), trace.head[static_cast<std::size_t>(
                             trace.critical_rank())]);
  for (std::size_t i = 1; i < path.size(); ++i)
    EXPECT_EQ(trace.events[static_cast<std::size_t>(path[i])].pred,
              path[i - 1]);

  // Stage events split into per-slot cost terms that sum to the duration.
  for (const SweepEvent& e : trace.events) {
    if (e.kind != SweepEvent::Kind::kStages) continue;
    double sum = 0;
    for (int g = 0; g < e.stage_count; ++g) {
      const CostTerms& ct =
          trace.terms[static_cast<std::size_t>(e.section_index)]
                     [static_cast<std::size_t>(e.slot_begin + g)];
      for (int term = 0; term < kCostTermCount; ++term)
        sum += cost_term_value(ct, term);
    }
    EXPECT_NEAR(sum, e.duration_s(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Coverage, TracedSweep,
    ::testing::Values(Triple{"jacobi", "DC", "blk"},
                      Triple{"jacobi", "IO", "blk"},
                      Triple{"jacobi", "HY1", "bal"},
                      Triple{"jacobi", "HY2", "icbal"},
                      Triple{"jacobi-pf", "IO", "ic"},
                      Triple{"cg", "HY1", "blk"},
                      Triple{"rna", "HY1", "bal"},
                      Triple{"lanczos", "HY2", "blk"},
                      Triple{"multigrid", "DC", "bal"},
                      Triple{"isort", "IO", "blk"}),
    [](const auto& info) {
      std::string name = std::string(info.param.workload) + "_" +
                         info.param.arch + "_" + info.param.dist;
      for (char& c : name)
        if (c == '-') c = '_';  // "jacobi-pf" is not a valid gtest name
      return name;
    });

TEST(PerturbedReplay, MatchesBruteForceBitForBit) {
  const auto w = exp::workload_by_name("jacobi");
  ASSERT_TRUE(w.has_value());
  const auto arch = cluster::find_arch("HY1");
  const core::Predictor predictor = exp::build_predictor(arch, *w, {});
  const dist::DistContext ctx = exp::make_context(arch, *w, {});
  const dist::GenBlock d = dist::block_dist(ctx);
  const int n = predictor.params().node_count();

  std::vector<Perturbation> perturbations;
  for (int r = 0; r < n; ++r)
    perturbations.push_back({Perturbation::Kind::kCompute, r, 0.9});
  for (int r = 0; r < n; ++r)
    perturbations.push_back({Perturbation::Kind::kDisk, r, 0.5});
  perturbations.push_back({Perturbation::Kind::kNetLatency, -1, 0.9});
  perturbations.push_back({Perturbation::Kind::kNetBandwidth, -1, 1.5});

  for (const Perturbation& p : perturbations) {
    // The replay path: Predictor copy with re-interned tables.
    const Prediction replay = predictor.perturbed(p).predict(d, 3);
    // Brute force: a fresh Predictor from the perturbed params.
    const core::Predictor brute(predictor.structure(),
                                perturb_params(predictor.params(), p),
                                predictor.memory_bytes(),
                                predictor.options());
    const Prediction reference = brute.predict(d, 3);
    // The interned tables are deterministic functions of the params, so
    // the two paths must agree exactly — not within a tolerance.
    EXPECT_EQ(replay.total_s, reference.total_s)
        << perturbation_kind_name(p.kind) << " rank " << p.rank;
    for (std::size_t r = 0; r < reference.node_end_s.size(); ++r)
      EXPECT_EQ(replay.node_end_s[r], reference.node_end_s[r]);
  }
}

TEST(PerturbParams, ScopesToTheNamedResource) {
  const auto w = exp::workload_by_name("jacobi");
  const auto arch = cluster::find_arch("HY1");
  const core::Predictor predictor = exp::build_predictor(arch, *w, {});
  const instrument::MhetaParams& base = predictor.params();

  // Compute on rank 0: only rank 0's stage costs move.
  const auto compute =
      perturb_params(base, {Perturbation::Kind::kCompute, 0, 0.5});
  for (const auto& [key, stage] : compute.nodes[0].stages) {
    const auto& orig = base.nodes[0].stages.at(key);
    EXPECT_DOUBLE_EQ(stage.compute_s, orig.compute_s * 0.5);
  }
  for (std::size_t r = 1; r < base.nodes.size(); ++r)
    for (const auto& [key, stage] : compute.nodes[r].stages)
      EXPECT_DOUBLE_EQ(stage.compute_s,
                       base.nodes[r].stages.at(key).compute_s);
  EXPECT_DOUBLE_EQ(compute.network.latency_s, base.network.latency_s);

  // Disk on rank 1: seeks and per-byte rates move, compute does not.
  const auto disk = perturb_params(base, {Perturbation::Kind::kDisk, 1, 2.0});
  EXPECT_DOUBLE_EQ(disk.nodes[1].read_seek_s, base.nodes[1].read_seek_s * 2);
  EXPECT_DOUBLE_EQ(disk.nodes[1].disk_read_s_per_byte,
                   base.nodes[1].disk_read_s_per_byte * 2);
  EXPECT_DOUBLE_EQ(disk.nodes[0].read_seek_s, base.nodes[0].read_seek_s);

  // Network-wide knobs touch only their own parameter.
  const auto lat =
      perturb_params(base, {Perturbation::Kind::kNetLatency, -1, 0.25});
  EXPECT_DOUBLE_EQ(lat.network.latency_s, base.network.latency_s * 0.25);
  EXPECT_DOUBLE_EQ(lat.network.s_per_byte, base.network.s_per_byte);
  const auto bw =
      perturb_params(base, {Perturbation::Kind::kNetBandwidth, -1, 0.25});
  EXPECT_DOUBLE_EQ(bw.network.s_per_byte, base.network.s_per_byte * 0.25);
  EXPECT_DOUBLE_EQ(bw.network.latency_s, base.network.latency_s);

  // Invalid inputs fail fast.
  EXPECT_THROW(
      perturb_params(base, {Perturbation::Kind::kCompute, 0, 0.0}),
      CheckError);
  EXPECT_THROW(
      perturb_params(base, {Perturbation::Kind::kCompute, 99, 0.9}),
      CheckError);
}

}  // namespace
}  // namespace mheta::core
