// Pins the daemon's payloads to the model they expose: predict totals are
// Predictor::predict verbatim, bounds certify the point prediction, whatif
// is bit-identical to the Predictor::perturbed chain, lint embeds exactly
// the mheta-lint --json document, and every payload serializes to the same
// bytes when computed twice (the property the response cache rides on).
#include "serve/ops.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/critical.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "search/objective.hpp"
#include "search/search.hpp"
#include "serve/session.hpp"

namespace mheta::serve {
namespace {

TEST(Session, BuildsForBuiltinApp) {
  const Session session("jacobi", "HY1");
  EXPECT_EQ(session.workload().name, "Jacobi");
  EXPECT_EQ(session.arch_name(), "HY1");
  EXPECT_GT(session.workload().iterations, 0);
}

TEST(Session, UnknownInputThrows) {
  EXPECT_THROW(Session("no-such-app", "HY1"), CheckError);
  EXPECT_THROW(Session("jacobi", "NO-ARCH"), CheckError);
}

TEST(SessionRegistry, InternsPerInputArchPair) {
  SessionRegistry registry;
  const auto a = registry.acquire("jacobi", "HY1");
  const auto b = registry.acquire("jacobi", "HY1");
  const auto c = registry.acquire("jacobi", "HY2");
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(registry.size(), 2u);
}

TEST(SessionRegistry, FailedBuildsAreNotCached) {
  SessionRegistry registry;
  EXPECT_THROW(registry.acquire("no-such-app", "HY1"), CheckError);
  EXPECT_EQ(registry.size(), 0u);  // a later retry starts fresh
  EXPECT_THROW(registry.acquire("no-such-app", "HY1"), CheckError);
}

TEST(SessionRegistry, ConcurrentFirstTouchBuildsOnce) {
  obs::MetricsRegistry metrics;
  SessionRegistry registry(&metrics);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const Session>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { got[t] = registry.acquire("jacobi", "HY1"); });
  }
  for (auto& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(got[0].get(), got[t].get());
  EXPECT_EQ(metrics.counter("serve_sessions_built_total").value(), 1u);
  EXPECT_EQ(metrics.counter("serve_session_hits_total").value(),
            static_cast<std::uint64_t>(kThreads) - 1);
}

TEST(Ops, PredictPayloadPinsThePredictor) {
  const Session session("jacobi", "HY1");
  const auto payload = predict_payload(session, "blk", 0);
  const auto d = session.distribution("blk");
  const auto expected =
      session.predictor().predict(d, session.workload().iterations);
  EXPECT_EQ(payload.get("total_s")->number, expected.total_s);
  EXPECT_EQ(payload.get("iterations")->number, session.workload().iterations);
  ASSERT_EQ(payload.get("node_end_s")->array.size(), expected.node_end_s.size());
  for (std::size_t i = 0; i < expected.node_end_s.size(); ++i)
    EXPECT_EQ(payload.get("node_end_s")->array[i].number,
              expected.node_end_s[i]);
}

TEST(Ops, PayloadsSerializeDeterministically) {
  const Session session("jacobi", "HY1");
  EXPECT_EQ(obs::json_serialize(predict_payload(session, "blk", 3)),
            obs::json_serialize(predict_payload(session, "blk", 3)));
  EXPECT_EQ(obs::json_serialize(bounds_payload(session, "blk", 2)),
            obs::json_serialize(bounds_payload(session, "blk", 2)));
  EXPECT_EQ(obs::json_serialize(search_payload(session, "hill", 7, 0)),
            obs::json_serialize(search_payload(session, "hill", 7, 0)));
}

TEST(Ops, BoundsPayloadCertifiesThePrediction) {
  const Session session("jacobi", "HY1");
  const auto payload = bounds_payload(session, "blk", 0);
  const double lo = payload.get("total")->get("lo")->number;
  const double hi = payload.get("total")->get("hi")->number;
  const double predicted = payload.get("predicted_total_s")->number;
  EXPECT_LE(lo, predicted);
  EXPECT_LE(predicted, hi);
  EXPECT_GT(lo, 0);
}

TEST(Ops, WhatifMatchesPerturbedChainBitForBit) {
  const Session session("jacobi", "HY1");
  std::vector<core::Perturbation> perturbs;
  perturbs.push_back({core::Perturbation::Kind::kCompute, 0, 2.0});
  perturbs.push_back({core::Perturbation::Kind::kNetBandwidth, -1, 0.5});
  const auto payload = whatif_payload(session, "blk", 0, perturbs);

  const auto d = session.distribution("blk");
  const int iters = session.workload().iterations;
  core::Predictor chained = session.predictor().perturbed(perturbs[0]);
  chained = chained.perturbed(perturbs[1]);
  const double expected = chained.predict(d, iters).total_s;
  EXPECT_EQ(payload.get("total_s")->number, expected);  // bits, not approx
  EXPECT_EQ(payload.get("base_total_s")->number,
            session.predictor().predict(d, iters).total_s);
  EXPECT_EQ(payload.get("delta_s")->number,
            payload.get("total_s")->number - payload.get("base_total_s")->number);
}

TEST(Ops, LintInputSharesTheRegistrySession) {
  obs::MetricsRegistry metrics;
  SessionRegistry registry(&metrics);
  const auto run =
      lint_input("jacobi", "HY1", "blk", /*bounds=*/true, &registry);
  EXPECT_TRUE(run.has_bounds);
  EXPECT_EQ(metrics.counter("serve_sessions_built_total").value(), 1u);
  // A predict against the registry now reuses that session.
  const auto session = registry.acquire("jacobi", "HY1");
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_LE(run.total.total.lo,
            session->predictor()
                .predict(session->distribution("blk"), run.iterations)
                .total_s);
}

TEST(Ops, LintInputMatchesStandaloneBuild) {
  // With and without a registry the run must be identical — the registry
  // only interns, it never changes results.
  const auto with_registry = [] {
    SessionRegistry registry;
    return lint_input("jacobi", "HY1", "blk", true, &registry);
  }();
  const auto standalone = lint_input("jacobi", "HY1", "blk", true, nullptr);
  std::ostringstream a, b;
  write_bounds_text(a, with_registry);
  write_bounds_text(b, standalone);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(obs::json_serialize(lint_payload(with_registry)),
            obs::json_serialize(lint_payload(standalone)));
}

TEST(Ops, LintPayloadEmbedsThePrintJsonReport) {
  const auto run = lint_input("jacobi", "HY1", "blk", false, nullptr);
  const auto payload = lint_payload(run);
  std::ostringstream report;
  run.diags.print_json(report);
  obs::JsonValue expected;
  std::string error;
  ASSERT_TRUE(obs::json_parse(report.str(), expected, &error)) << error;
  // Byte-for-byte once both sides pass through the canonical serializer.
  EXPECT_EQ(obs::json_serialize(*payload.get("report")),
            obs::json_serialize(expected));
  EXPECT_EQ(payload.get("errors")->number, run.diags.error_count());
}

TEST(Ops, SearchPayloadRunsEveryAlgorithm) {
  const Session session("jacobi", "HY1");
  for (const char* algorithm :
       {"hill", "tabu", "anneal", "genetic", "gbs", "random"}) {
    const auto payload = search_payload(session, algorithm, 42, 0);
    EXPECT_GT(payload.get("best_total_s")->number, 0) << algorithm;
    EXPECT_GT(payload.get("evaluations")->number, 0) << algorithm;
  }
  EXPECT_THROW(search_payload(session, "bogosort", 42, 0), CheckError);
}

// The daemon searches through lanes; every served (app, arch) pair must
// answer exactly what the same algorithm answers over the full model.
TEST(Ops, SearchPayloadMatchesTheFullModelOnEverySession) {
  constexpr std::uint64_t kSeed = 11;
  for (const char* arch : {"DC", "IO", "HY1", "HY2"}) {
    for (const char* app : {"jacobi", "jacobi-pf", "cg", "lanczos", "rna",
                            "multigrid", "isort"}) {
      const Session session(app, arch);
      const dist::DistContext& ctx = session.context();
      for (const char* algorithm :
           {"tabu", "gbs", "anneal", "genetic", "random", "hill"}) {
        for (const int iterations : {0, 7}) {
          const obs::JsonValue payload =
              search_payload(session, algorithm, kSeed, iterations);
          const int iters =
              static_cast<int>(payload.get("iterations")->number);
          const search::SearchResult full = search::run_named(
              algorithm,
              search::BatchObjective(search::make_objective(
                  session.predictor(), iters, session.arch().cluster)),
              dist::block_dist(ctx), ctx, session.arch().spectrum, kSeed);
          obs::JsonValue expected = payload;
          expected.object["best_total_s"].number = full.best_time;
          expected.object["evaluations"].number = full.evaluations;
          auto& counts = expected.object["best_counts"].array;
          ASSERT_EQ(counts.size(), static_cast<std::size_t>(full.best.nodes()));
          for (std::size_t i = 0; i < counts.size(); ++i)
            counts[i].number =
                static_cast<double>(full.best.count(static_cast<int>(i)));
          EXPECT_EQ(obs::json_serialize(payload),
                    obs::json_serialize(expected))
              << app << " on " << arch << ", " << algorithm
              << ", iterations " << iterations;
        }
      }
    }
  }
}

TEST(Ops, BoundsTextMentionsEveryNode) {
  const auto run = lint_input("jacobi", "HY1", "blk", true, nullptr);
  std::ostringstream os;
  write_bounds_text(os, run);
  const std::string text = os.str();
  EXPECT_EQ(text.rfind("bounds (", 0), 0u);  // starts the report
  for (std::size_t r = 0; r < run.total.node_end.size(); ++r)
    EXPECT_NE(text.find("node " + std::to_string(r) + ":"),
              std::string::npos);
}

}  // namespace
}  // namespace mheta::serve
