// The instrumented clock sweep (core/critical.hpp): the traced prediction
// must reproduce predict() bit for bit on every workload x architecture x
// distribution, every event must telescope exactly onto its causal
// predecessor (shifted by the renormalization across an iteration
// boundary), the periodic trace must expand to exactly the critical path
// and blame of the trace that records every iteration, and the
// perturbation replay must agree bit for bit with a brute-force rebuild.
#include "core/critical.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "cluster/suite.hpp"
#include "core/model.hpp"
#include "exp/experiment.hpp"
#include "obs/critical_path.hpp"
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

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_same_bits(const Prediction& a, const Prediction& b) {
  EXPECT_TRUE(same_bits(a.total_s, b.total_s))
      << a.total_s << " vs " << b.total_s;
  EXPECT_TRUE(same_bits(a.compute_s, b.compute_s));
  EXPECT_TRUE(same_bits(a.io_s, b.io_s));
  ASSERT_EQ(a.node_end_s.size(), b.node_end_s.size());
  EXPECT_EQ(std::memcmp(a.node_end_s.data(), b.node_end_s.data(),
                        a.node_end_s.size() * sizeof(double)),
            0);
}

void expect_same_bits(const obs::BlameReport& a, const obs::BlameReport& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_TRUE(same_bits(a.total_s, b.total_s));
  EXPECT_TRUE(same_bits(a.path_seconds, b.path_seconds));
  EXPECT_EQ(a.critical_rank, b.critical_rank);
  EXPECT_EQ(a.path_events, b.path_events);
  for (int term = 0; term < kCostTermCount; ++term)
    EXPECT_TRUE(same_bits(a.term_s[static_cast<std::size_t>(term)],
                          b.term_s[static_cast<std::size_t>(term)]));
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const obs::BlameCell& x = a.cells[i];
    const obs::BlameCell& y = b.cells[i];
    EXPECT_EQ(x.rank, y.rank) << "cell " << i;
    EXPECT_EQ(x.section_id, y.section_id) << "cell " << i;
    EXPECT_EQ(x.stage_id, y.stage_id) << "cell " << i;
    EXPECT_EQ(x.term, y.term) << "cell " << i;
    EXPECT_TRUE(same_bits(x.seconds, y.seconds)) << "cell " << i;
    EXPECT_TRUE(same_bits(x.pct, y.pct)) << "cell " << i;
  }
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].src, b.edges[i].src) << "edge " << i;
    EXPECT_EQ(a.edges[i].dst, b.edges[i].dst) << "edge " << i;
    EXPECT_EQ(a.edges[i].section_id, b.edges[i].section_id) << "edge " << i;
    EXPECT_EQ(a.edges[i].hops, b.edges[i].hops) << "edge " << i;
    EXPECT_TRUE(same_bits(a.edges[i].transfer_s, b.edges[i].transfer_s))
        << "edge " << i;
  }
  ASSERT_EQ(a.iteration_end_s.size(), b.iteration_end_s.size());
  ASSERT_EQ(a.iteration_term_s.size(), b.iteration_term_s.size());
  for (std::size_t it = 0; it < a.iteration_end_s.size(); ++it) {
    EXPECT_TRUE(same_bits(a.iteration_end_s[it], b.iteration_end_s[it]))
        << "iteration " << it;
    for (int term = 0; term < kCostTermCount; ++term)
      EXPECT_TRUE(
          same_bits(a.iteration_term_s[it][static_cast<std::size_t>(term)],
                    b.iteration_term_s[it][static_cast<std::size_t>(term)]))
          << "iteration " << it << " term " << term;
  }
}

// The recorded form of a trace: iterations 0..s of one shape, every event
// telescoping exactly onto its predecessor (shifted by the renormalization
// across an iteration boundary), heads in the steady iteration landing
// exactly on predict()'s node ends, and a critical path that chains from
// the origin to the critical rank's head, re-entering the steady iteration
// at a head once per repeat.
void expect_recorded_form(const SweepTrace& trace) {
  const std::size_t recorded = trace.renorm.size();
  ASSERT_GE(recorded, 1u);
  ASSERT_EQ(static_cast<int>(recorded) + trace.steady_repeats,
            trace.iterations);
  ASSERT_EQ(trace.events.size() % recorded, 0u);
  const std::size_t per = trace.events.size() / recorded;
  ASSERT_GT(per, 0u);
  EXPECT_EQ(static_cast<std::size_t>(trace.steady_begin),
            (recorded - 1) * per);
  if (trace.steady_repeats == 0) {
    EXPECT_EQ(trace.renorm.back(), 0.0);  // the final iteration is not shifted
  }

  // Every iteration records the same events in the same order, and every
  // event starts exactly where its predecessor ended plus the connecting
  // wire time — or, across an iteration boundary, where the rank's own
  // previous event ended minus that iteration's renormalization. Bit-exact,
  // not a tolerance.
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const SweepEvent& e = trace.events[i];
    const SweepEvent& shape = trace.events[i % per];
    EXPECT_EQ(e.iteration, static_cast<int>(i / per)) << "event " << i;
    EXPECT_TRUE(e.kind == shape.kind && e.rank == shape.rank &&
                e.section_index == shape.section_index &&
                e.tile == shape.tile && e.term == shape.term)
        << "event " << i << " differs in shape from event " << i % per;
    EXPECT_GE(e.t_end, e.t_start) << "event " << i;
    if (e.pred < 0) {
      EXPECT_EQ(e.iteration, 0) << "event " << i;
      EXPECT_EQ(e.t_start, 0.0) << "event " << i;
      EXPECT_EQ(e.edge_s, 0.0) << "event " << i;
      continue;
    }
    ASSERT_LT(static_cast<std::size_t>(e.pred), i);
    const SweepEvent& p = trace.events[static_cast<std::size_t>(e.pred)];
    if (p.iteration == e.iteration) {
      EXPECT_EQ(e.t_start, p.t_end + e.edge_s) << "event " << i;
    } else {
      EXPECT_EQ(p.iteration + 1, e.iteration) << "event " << i;
      EXPECT_EQ(p.rank, e.rank) << "event " << i;
      EXPECT_EQ(e.edge_s, 0.0) << "event " << i;
      EXPECT_EQ(e.t_start,
                p.t_end - trace.renorm[static_cast<std::size_t>(p.iteration)])
          << "event " << i;
    }
  }

  // Heads: each rank's last event, in the steady iteration, lands exactly
  // on its clock once the absorbed renormalization is added back.
  const std::vector<double> base = trace.iteration_base();
  ASSERT_EQ(base.size(), static_cast<std::size_t>(trace.iterations));
  std::vector<int> last(trace.head.size(), -1);
  for (std::size_t i = 0; i < trace.events.size(); ++i)
    last[static_cast<std::size_t>(trace.events[i].rank)] = static_cast<int>(i);
  ASSERT_EQ(trace.head.size(), trace.prediction.node_end_s.size());
  for (std::size_t r = 0; r < trace.head.size(); ++r) {
    ASSERT_GE(trace.head[r], 0) << "rank " << r << " recorded no events";
    EXPECT_EQ(trace.head[r], last[r]) << "rank " << r;
    EXPECT_GE(trace.head[r], trace.steady_begin) << "rank " << r;
    EXPECT_EQ(base.back() +
                  trace.events[static_cast<std::size_t>(trace.head[r])].t_end,
              trace.prediction.node_end_s[r])
        << "rank " << r;
  }

  // The critical path chains from the origin to the critical rank's head.
  const std::vector<SweepTrace::Step> steps = trace.critical_steps();
  ASSERT_FALSE(steps.empty());
  EXPECT_EQ(trace.events[static_cast<std::size_t>(steps.front().event)].pred,
            -1);
  EXPECT_EQ(steps.front().iteration, 0);
  EXPECT_EQ(steps.back().event, trace.head[static_cast<std::size_t>(
                                    trace.critical_rank())]);
  EXPECT_EQ(steps.back().iteration, trace.iterations - 1);
  int reentries = 0;
  double path_s = 0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const SweepEvent& e =
        trace.events[static_cast<std::size_t>(steps[i].event)];
    path_s += e.duration_s() + e.edge_s;
    if (i == 0) continue;
    const SweepTrace::Step& prev = steps[i - 1];
    const SweepEvent& p = trace.events[static_cast<std::size_t>(prev.event)];
    if (e.pred == prev.event) {
      // A recorded link advances the real iteration exactly as it advances
      // the recorded one.
      EXPECT_EQ(steps[i].iteration - prev.iteration,
                e.iteration - p.iteration)
          << "step " << i;
    } else {
      // A repeat: the recorded link leaves the steady iteration, and its
      // copy one real iteration back is the rank's head.
      ++reentries;
      EXPECT_GE(steps[i].event, trace.steady_begin) << "step " << i;
      EXPECT_LT(e.pred, trace.steady_begin) << "step " << i;
      EXPECT_EQ(prev.event, trace.head[static_cast<std::size_t>(e.rank)])
          << "step " << i;
      EXPECT_EQ(steps[i].iteration, prev.iteration + 1) << "step " << i;
    }
  }
  EXPECT_EQ(reentries, trace.steady_repeats);
  // Summing the path's durations and wire times adds every boundary's
  // renormalization back, so it lands on the headline.
  EXPECT_NEAR(path_s, trace.prediction.total_s, 1e-9);

  const std::vector<int> path = trace.critical_path();
  ASSERT_EQ(path.size(), steps.size());
  for (std::size_t i = 0; i < path.size(); ++i)
    EXPECT_EQ(path[i], steps[i].event) << "step " << i;
}

// The periodic trace against the same predictor with the steady-state
// shortcut off, which records all K iterations: same totals as predict(),
// the same expanded critical path step for step, the same blame — all bit
// for bit.
void expect_matches_shortcut_free(const Predictor& predictor,
                                  const dist::GenBlock& d, int iterations) {
  SCOPED_TRACE("K = " + std::to_string(iterations));
  ModelOptions options = predictor.options();
  options.steady_state_shortcut = false;
  const Predictor reference(predictor.structure(), predictor.params(),
                            predictor.memory_bytes(), options);
  const SweepTrace trace = predictor.predict_traced(d, iterations);
  const SweepTrace full = reference.predict_traced(d, iterations);
  EXPECT_EQ(full.steady_repeats, 0);
  ASSERT_EQ(full.renorm.size(), static_cast<std::size_t>(iterations));

  expect_same_bits(trace.prediction, predictor.predict(d, iterations));
  expect_same_bits(full.prediction, trace.prediction);
  expect_recorded_form(trace);
  expect_recorded_form(full);

  const std::vector<SweepTrace::Step> steps = trace.critical_steps();
  const std::vector<SweepTrace::Step> full_steps = full.critical_steps();
  ASSERT_EQ(steps.size(), full_steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const SweepEvent& a =
        trace.events[static_cast<std::size_t>(steps[i].event)];
    const SweepEvent& b =
        full.events[static_cast<std::size_t>(full_steps[i].event)];
    EXPECT_TRUE(a.kind == b.kind && a.rank == b.rank &&
                a.section_index == b.section_index && a.tile == b.tile &&
                a.term == b.term && a.src_rank == b.src_rank &&
                a.slot_begin == b.slot_begin &&
                a.stage_count == b.stage_count &&
                steps[i].iteration == full_steps[i].iteration &&
                b.iteration == full_steps[i].iteration &&
                same_bits(a.t_start, b.t_start) &&
                same_bits(a.t_end, b.t_end) && same_bits(a.edge_s, b.edge_s))
        << "step " << i << " (real iteration " << steps[i].iteration << ")";
  }
  expect_same_bits(obs::build_blame(predictor, trace),
                   obs::build_blame(reference, full));
}

class TracedSweep : public ::testing::TestWithParam<Triple> {
 protected:
  void SetUp() override {
    const auto [workload, arch_name, dist_name] = GetParam();
    const auto w = exp::workload_by_name(workload);
    ASSERT_TRUE(w.has_value());
    own_iterations_ = w->iterations;
    const auto arch = cluster::find_arch(arch_name);
    predictor_.emplace(exp::build_predictor(arch, *w, {}));
    const dist::DistContext ctx = exp::make_context(arch, *w, {});
    d_ = dist_for(ctx, dist_name);
  }

  std::optional<Predictor> predictor_;
  dist::GenBlock d_;
  int own_iterations_ = 0;
};

TEST_P(TracedSweep, ReproducesPredictAndTelescopes) {
  const int iterations = 3;
  const SweepTrace trace = predictor_->predict_traced(d_, iterations);

  // Headline identity: the traced sweep is predict()'s recurrence, with
  // its renormalization and steady-state test, so the totals are the same
  // bits.
  expect_same_bits(trace.prediction, predictor_->predict(d_, iterations));
  // Every coverage triple reaches the fixed point before the last
  // iteration, so the repeat walk is exercised here too.
  EXPECT_GT(trace.steady_repeats, 0);
  expect_recorded_form(trace);

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

TEST_P(TracedSweep, PeriodicTraceMatchesShortcutFreeTrace) {
  for (const int iterations : {1, 2, 3, own_iterations_})
    expect_matches_shortcut_free(*predictor_, d_, iterations);
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

// Hand-built programs whose iteration 0 is already steady (s = 0): every
// clock ends an iteration at the same offset, so renormalization returns
// them all to zero and iteration 1 starts where iteration 0 did. The walk
// then re-enters iteration 0 at the heads, where a recorded link leaves
// it with pred == -1.
ProgramStructure one_section_program(bool alltoall) {
  ProgramStructure p;
  p.name = alltoall ? "steady-a2a" : "steady-compute";
  p.arrays = {{"K", 100, 64, ooc::Access::kReadOnly}};
  SectionSpec s;
  s.id = 0;
  s.has_alltoall = alltoall;
  s.alltoall_bytes_per_pair = 1000;
  ooc::StageDef st;
  st.id = 0;
  s.stages.push_back(st);
  p.sections.push_back(s);
  return p;
}

instrument::MhetaParams uniform_params(int n) {
  instrument::MhetaParams params;
  params.network.latency_s = 1e-3;
  params.network.s_per_byte = 1e-6;
  params.instrumented_dist = dist::GenBlock(
      std::vector<std::int64_t>(static_cast<std::size_t>(n), 50));
  params.nodes.resize(static_cast<std::size_t>(n));
  for (auto& np : params.nodes) {
    np.send_overhead_s = 1e-3;
    np.recv_overhead_s = 2e-3;
    instrument::StageCosts sc;
    sc.compute_s = 5e-3;
    np.stages[{0, 0}] = sc;
  }
  return params;
}

TEST(TracedSweepCorners, OneNodeIsSteadyFromIterationZero) {
  const Predictor predictor(one_section_program(false), uniform_params(1),
                            {1ll << 30});
  const dist::GenBlock d({50});
  const SweepTrace trace = predictor.predict_traced(d, 5);
  ASSERT_EQ(trace.renorm.size(), 1u);
  EXPECT_GT(trace.renorm[0], 0.0);
  EXPECT_EQ(trace.steady_begin, 0);
  EXPECT_EQ(trace.steady_repeats, 4);
  ASSERT_EQ(trace.events.size(), 1u);
  EXPECT_EQ(trace.critical_path(), std::vector<int>(5, 0));
  for (const int iterations : {1, 2, 5})
    expect_matches_shortcut_free(predictor, d, iterations);
}

TEST(TracedSweepCorners, SymmetricExchangeIsSteadyFromIterationZero) {
  const Predictor predictor(one_section_program(true), uniform_params(2),
                            {1ll << 30, 1ll << 30});
  const dist::GenBlock d({50, 50});
  const SweepTrace trace = predictor.predict_traced(d, 4);
  ASSERT_EQ(trace.renorm.size(), 1u);
  EXPECT_EQ(trace.steady_repeats, 3);
  // The exchange's receives wait on the remote sends, so the path hops
  // ranks inside every repeat.
  int remote = 0;
  for (const SweepTrace::Step& step : trace.critical_steps())
    if (trace.events[static_cast<std::size_t>(step.event)].edge_s > 0)
      ++remote;
  EXPECT_EQ(remote, 4);
  for (const int iterations : {1, 2, 4})
    expect_matches_shortcut_free(predictor, d, iterations);
}

TEST(BlameCells, TiesFollowSectionAndStageIds) {
  // Sections and stages listed out of id order, every stage the same cost:
  // all cells tie on seconds, so the report must order them by key.
  ProgramStructure p = one_section_program(false);
  p.sections[0].id = 1;
  p.sections[0].stages[0].id = 3;
  ooc::StageDef second;
  second.id = 2;
  p.sections[0].stages.push_back(second);
  SectionSpec first;
  first.id = 0;
  ooc::StageDef st;
  st.id = 0;
  first.stages.push_back(st);
  p.sections.push_back(first);
  instrument::MhetaParams params = uniform_params(1);
  const instrument::StageCosts costs = params.nodes[0].stages.at({0, 0});
  params.nodes[0].stages[{1, 3}] = costs;
  params.nodes[0].stages[{1, 2}] = costs;
  const Predictor predictor(p, params, {1ll << 30});

  const obs::BlameReport blame = obs::build_blame(
      predictor, predictor.predict_traced(dist::GenBlock({50}), 3));
  ASSERT_EQ(blame.cells.size(), 3u);
  const int expected[3][2] = {{0, 0}, {1, 2}, {1, 3}};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(blame.cells[i].section_id, expected[i][0]) << "cell " << i;
    EXPECT_EQ(blame.cells[i].stage_id, expected[i][1]) << "cell " << i;
    EXPECT_EQ(blame.cells[i].seconds, blame.cells[0].seconds) << "cell " << i;
  }
}

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
