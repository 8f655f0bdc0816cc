// Blame and what-if sensitivity reports (obs/critical_path.hpp). The pinned
// identities of the blame report: residency percentages sum to 100% within
// 1e-9 and the path's seconds reproduce predict()'s total within 1e-9, on
// all four Table-1 architectures, at a short run and at the workload's own
// iteration count (where the steady iteration repeats 98 times); the
// headline itself is predict()'s total bit for bit. Every sensitivity
// replay agrees with brute-force re-prediction within 1e-9.
#include "obs/critical_path.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <tuple>

#include "cluster/suite.hpp"
#include "exp/experiment.hpp"
#include "obs/json.hpp"

namespace mheta::obs {
namespace {

struct Env {
  core::Predictor predictor;
  dist::GenBlock d;
  int iterations;
};

Env make_env(const char* workload, const char* arch_name,
                 int iterations = 3) {
  const auto w = exp::workload_by_name(workload);
  EXPECT_TRUE(w.has_value());
  const auto arch = cluster::find_arch(arch_name);
  const dist::DistContext ctx = exp::make_context(arch, *w, {});
  return Env{exp::build_predictor(arch, *w, {}), dist::block_dist(ctx),
               iterations};
}

// Cell keys: communication (send, recv_wait, collective) lands at section
// level (stage -1) and stage runs charge only their own terms; cells tied
// on seconds stay in key order (rank, section, stage, term).
void expect_cell_keys(const BlameReport& blame) {
  constexpr int kFirstCommTerm = 4;  // send, then recv_wait and collective
  ASSERT_STREQ(core::cost_term_name(kFirstCommTerm), "send");
  for (const BlameCell& c : blame.cells)
    EXPECT_EQ(c.stage_id == -1, c.term >= kFirstCommTerm)
        << core::cost_term_name(c.term) << " at stage " << c.stage_id;
  for (std::size_t i = 1; i < blame.cells.size(); ++i) {
    const BlameCell& a = blame.cells[i - 1];
    const BlameCell& b = blame.cells[i];
    if (a.seconds == b.seconds) {
      EXPECT_LT(std::tie(a.rank, a.section_id, a.stage_id, a.term),
                std::tie(b.rank, b.section_id, b.stage_id, b.term));
    }
  }
}

void expect_blame_identities(const Env& s) {
  const core::SweepTrace trace =
      s.predictor.predict_traced(s.d, s.iterations);
  const BlameReport blame = build_blame(s.predictor, trace);

  // Identity 1: residencies sum to 100% of the path.
  double pct_sum = 0;
  for (const BlameCell& c : blame.cells) pct_sum += c.pct;
  EXPECT_NEAR(pct_sum, 100.0, 1e-9);

  // Identity 2: the path's seconds reproduce the headline prediction, which
  // is predict()'s total bit for bit.
  const double reference =
      s.predictor.predict(s.d, s.iterations).total_s;
  EXPECT_NEAR(blame.path_seconds, blame.total_s, 1e-9);
  EXPECT_EQ(blame.total_s, reference);
  EXPECT_NEAR(blame.path_seconds, reference, 1e-9);

  // Per-term totals are an exact repartition of the same seconds.
  double term_sum = 0;
  for (const double t : blame.term_s) term_sum += t;
  EXPECT_NEAR(term_sum, blame.path_seconds, 1e-9);

  // Cells are sorted by seconds descending, every cell is charged.
  for (std::size_t i = 1; i < blame.cells.size(); ++i)
    EXPECT_GE(blame.cells[i - 1].seconds, blame.cells[i].seconds);
  for (const BlameCell& c : blame.cells) EXPECT_GT(c.seconds, 0.0);
  expect_cell_keys(blame);

  // The per-iteration slices repartition the path seconds once more, one
  // slice per real iteration, ending in order at the headline.
  double iter_sum = 0;
  for (const auto& terms : blame.iteration_term_s)
    for (const double t : terms) iter_sum += t;
  EXPECT_NEAR(iter_sum, blame.path_seconds, 1e-9);
  ASSERT_EQ(static_cast<int>(blame.iteration_end_s.size()),
            s.iterations);
  for (std::size_t it = 1; it < blame.iteration_end_s.size(); ++it)
    EXPECT_GT(blame.iteration_end_s[it], blame.iteration_end_s[it - 1]);
  EXPECT_EQ(blame.iteration_end_s.back(), reference);
}

class BlameIdentities : public ::testing::TestWithParam<const char*> {};

TEST_P(BlameIdentities, PctSumsTo100AndSecondsReproducePredict) {
  expect_blame_identities(make_env("jacobi", GetParam()));
}

TEST_P(BlameIdentities, HoldOverEveryRepeatAtTheWorkloadsOwnK) {
  const auto w = exp::workload_by_name("jacobi");
  ASSERT_TRUE(w.has_value());
  ASSERT_EQ(w->iterations, 100);
  const Env s = make_env("jacobi", GetParam(), w->iterations);
  // Two recorded iterations (the transient and the steady one) stand for
  // all 100: the steady iteration repeats 98 times.
  EXPECT_EQ(s.predictor.predict_traced(s.d, s.iterations).steady_repeats, 98);
  expect_blame_identities(s);
}

INSTANTIATE_TEST_SUITE_P(Table1Architectures, BlameIdentities,
                         ::testing::Values("DC", "IO", "HY1", "HY2"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(BlameReport, CoversPipelineAndCollectiveWorkloads) {
  // rna pipelines; cg reduces. Both must satisfy the same identities.
  for (const char* workload : {"rna", "cg", "multigrid"}) {
    const Env s = make_env(workload, "HY1");
    const core::SweepTrace trace =
        s.predictor.predict_traced(s.d, s.iterations);
    const BlameReport blame = build_blame(s.predictor, trace);
    double pct_sum = 0;
    for (const BlameCell& c : blame.cells) pct_sum += c.pct;
    EXPECT_NEAR(pct_sum, 100.0, 1e-9) << workload;
    EXPECT_NEAR(blame.path_seconds,
                s.predictor.predict(s.d, s.iterations).total_s, 1e-9)
        << workload;
    expect_cell_keys(blame);
  }
}

TEST(Sensitivity, ReplaysMatchBruteForceWithin1e9) {
  const Env s = make_env("jacobi", "HY1");
  const core::SweepTrace trace =
      s.predictor.predict_traced(s.d, s.iterations);
  const BlameReport blame = build_blame(s.predictor, trace);
  const SensitivityReport sens =
      what_if_sensitivity(s.predictor, s.d, s.iterations, blame, 0.1);

  // One entry per node for compute and disk, plus the two network knobs.
  const int n = s.predictor.params().node_count();
  ASSERT_EQ(static_cast<int>(sens.entries.size()), 2 * n + 2);

  EXPECT_LE(sens.max_replay_vs_brute_s, 1e-9);
  for (const WhatIfEntry& e : sens.entries) {
    EXPECT_NEAR(e.replay_s, e.brute_s, 1e-9);
    EXPECT_DOUBLE_EQ(e.factor, 0.9);
    // Shrinking any resource can only help (or leave the path unchanged).
    EXPECT_LE(e.delta_s, 1e-12)
        << core::perturbation_kind_name(e.kind) << " rank " << e.rank;
    EXPECT_LE(e.first_order_s, 1e-12);
  }
  // Sorted by delta ascending: most helpful perturbation first.
  for (std::size_t i = 1; i < sens.entries.size(); ++i)
    EXPECT_LE(sens.entries[i - 1].delta_s, sens.entries[i].delta_s);

  // The dominant entry should beat the first-order prediction's magnitude
  // only when the path shifts; in all cases the exact delta can't be more
  // negative than the first-order estimate by more than the estimate
  // itself (the residency is an upper bound on the winnable time).
  EXPECT_LE(std::abs(sens.entries.front().replay_s - sens.base_total_s),
            sens.base_total_s);
}

TEST(Writers, TextAndJsonAndTraceRenderAndParse) {
  const Env s = make_env("jacobi", "HY2");
  const core::SweepTrace trace =
      s.predictor.predict_traced(s.d, s.iterations);
  BlameReport blame = build_blame(s.predictor, trace);
  blame.workload = "jacobi";
  blame.arch = "HY2";
  blame.dist = "blk";
  const SensitivityReport sens =
      what_if_sensitivity(s.predictor, s.d, s.iterations, blame, 0.1);

  std::ostringstream text;
  write_blame_text(text, blame);
  write_sensitivity_text(text, sens);
  EXPECT_NE(text.str().find("critical path"), std::string::npos);
  EXPECT_NE(text.str().find("what-if sensitivity"), std::string::npos);

  std::ostringstream js;
  write_critical_path_json(js, blame, &sens);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(js.str(), doc, &error)) << error;
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.get("arch")->string, "HY2");
  EXPECT_EQ(static_cast<std::size_t>(doc.get("cells")->array.size()),
            blame.cells.size());
  ASSERT_NE(doc.get("sensitivity"), nullptr);
  EXPECT_EQ(doc.get("sensitivity")->get("entries")->array.size(),
            sens.entries.size());

  std::ostringstream tr;
  write_critical_path_trace(tr, blame);
  JsonValue trace_doc;
  ASSERT_TRUE(json_parse(tr.str(), trace_doc, &error)) << error;
  const JsonValue* events = trace_doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  // One metadata record plus one counter sample per iteration.
  EXPECT_EQ(events->array.size(),
            1 + blame.iteration_term_s.size());
  int counters = 0;
  for (const auto& e : events->array)
    if (e.get("ph")->string == "C") ++counters;
  EXPECT_EQ(counters, s.iterations);
}

}  // namespace
}  // namespace mheta::obs
