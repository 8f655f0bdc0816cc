// One-stop profiling orchestration behind the `mheta-profile` tool.
//
// run_profile() takes one (workload, architecture, distribution) triple and
// produces every observability artifact of ISSUE 4 in one pass:
//   - an attributed prediction (core::Predictor::predict_attributed),
//   - a traced simulated run of the same triple (instrument::TraceCollector),
//   - the prediction-error attribution report comparing the two,
//   - a Perfetto/Chrome trace of the run,
//   - an ASCII Gantt chart,
//   - a metrics snapshot (objective/plan cache hit rates, per-node CPU and
//     disk utilization, shared-network utilization, simulator event count),
//   - optionally a search-convergence series when a search algorithm is
//     requested.
// All artifacts are written under `out_dir` (created if missing); the
// metrics exports are written last so they snapshot everything.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/incremental.hpp"
#include "core/lanes.hpp"
#include "dist/generators.hpp"
#include "exp/experiment.hpp"
#include "obs/attribution.hpp"
#include "obs/convergence.hpp"
#include "obs/critical_path.hpp"
#include "obs/registry.hpp"

namespace mheta::obs {

/// Distribution-generator lookup shared with the CLI: even|blk -> Blk,
/// bal -> Bal, ic -> I-C, icbal -> I-C/Bal. Throws on unknown names.
dist::GenBlock dist_by_name(const dist::DistContext& ctx,
                            const std::string& name);

struct ProfileOptions {
  std::string arch = "HY1";
  std::string dist = "even";
  /// 0 -> the workload's default iteration count.
  int iterations = 0;
  /// Empty -> no search pass. Otherwise one of
  /// tabu | gbs | anneal | genetic | random | hill.
  std::string search;
  std::uint64_t seed = 42;
  /// Trace the clock sweep and emit the causal critical-path blame and
  /// what-if sensitivity reports (plus, with a search pass, the blame of
  /// the search's incumbent). Off by default: the instrumented sweep and
  /// the incumbent probe are only constructed when this is set, so the
  /// delta/lane fast paths pay nothing otherwise.
  bool critical_path = false;
  /// Shrink factor for the what-if replays (parameter x (1 - epsilon)).
  double sensitivity_epsilon = 0.1;
  exp::ExperimentOptions experiment;
};

struct ProfileResult {
  AttributionReport report;

  // Cache effectiveness (also exported as gauges).
  double objective_cache_hit_rate = 0;
  double plan_cache_hit_rate = 0;

  // Resource utilization over the full simulated run, in [0, 1].
  std::vector<double> cpu_utilization;   // per node
  std::vector<double> disk_utilization;  // per node
  double network_utilization = 0;

  // Search pass (when ProfileOptions::search was set).
  bool searched = false;
  std::string search_algorithm;
  double search_best_s = 0;
  int search_evaluations = 0;
  std::vector<ConvergenceRecorder::Sample> convergence;
  /// Delta-evaluation counters from the search pass: the scalar path of the
  /// lane-batched objective the search scores candidates through (also
  /// exported as delta_eval_* metrics).
  core::DeltaStats delta;
  /// Lane-batch counters from the same search pass — population algorithms
  /// route whole candidate sets through K-wide clock sweeps (also exported
  /// as lane_eval_* metrics).
  core::LaneStats lanes;

  // Critical-path pass (when ProfileOptions::critical_path was set).
  bool critical = false;
  BlameReport blame;              ///< blame of the profiled distribution
  SensitivityReport sensitivity;  ///< what-if replays of the same triple
  /// Incumbent probe (critical_path together with a search pass): blame of
  /// the best distribution the search observed.
  bool has_incumbent = false;
  double incumbent_best_s = 0;
  std::size_t incumbent_observed = 0;
  std::size_t incumbent_improvements = 0;
  BlameReport incumbent_blame;

  /// Paths of every artifact written, in write order.
  std::vector<std::string> files;
};

/// Runs the full profile and writes the artifacts into `out_dir`.
/// `registry` (caller-owned) receives every metric and is exported into
/// `out_dir` at the end — pass a fresh registry for a self-contained
/// snapshot.
ProfileResult run_profile(const exp::Workload& w, const ProfileOptions& opts,
                          MetricsRegistry& registry,
                          const std::string& out_dir);

}  // namespace mheta::obs
