// Causal critical-path blame and what-if sensitivity reports (ISSUE 9).
//
// build_blame() folds a core::SweepTrace (every clock advance of an
// evaluation with its causal predecessor — see core/critical.hpp) into the
// blame report: walk the critical rank's chain over all K iterations (the
// steady iteration once per repeat) and charge every second of it to a
// (node, section, stage, cost term) cell. Because the chain telescopes
// exactly, the cells sum to the headline prediction — residency
// percentages sum to 100% and the absolute seconds reproduce predict()'s
// total, both within 1e-9 (pinned in tests). Cross-rank hops on the path
// (a remote arrival that won a receive's max) are additionally aggregated
// into per-(src, dst) comm edges with their wire time.
//
// what_if_sensitivity() answers "what if this resource were ε faster":
// for every node's computation (C_i) and disk (S_i) and for the network's
// latency and bandwidth, the sweep is replayed with the parameter scaled by
// (1 - ε) — a Predictor copy with re-interned tables — and cross-checked
// against a brute-force re-prediction from a freshly constructed Predictor.
// The two must agree to 1e-9 (they are bit-identical by construction; the
// report carries the observed maximum). A first-order estimate from the
// blame report's on-path residencies is included for comparison — where it
// diverges from the exact delta, the path itself shifted.
//
// Rendering: a human-readable text table, a machine-readable JSON document
// (blame + sensitivity in one), and a Perfetto counter-track trace showing
// the per-iteration critical-path composition by cost term over predicted
// time.
#pragma once

#include <array>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/critical.hpp"
#include "core/model.hpp"
#include "dist/genblock.hpp"

namespace mheta::obs {

/// Critical-path residency of one (node, section, stage, term) cell.
struct BlameCell {
  int rank = -1;
  int section_id = -1;
  /// Program stage id; -1 for section-level communication (sends, receive
  /// waits, collective hops), which no single stage owns.
  int stage_id = -1;
  int term = -1;      ///< core::cost_term_name order
  double seconds = 0; ///< on-path residency
  double pct = 0;     ///< share of the path total (all cells sum to 100)
};

/// One aggregated cross-rank hop of the critical path.
struct BlameEdge {
  int src = -1;
  int dst = -1;
  int section_id = -1;
  int hops = 0;          ///< messages of this edge on the path
  double transfer_s = 0; ///< wire time they contributed to the makespan
};

/// Where the makespan's seconds live, cell by cell.
struct BlameReport {
  std::string workload;  // filled by the profiling caller; empty otherwise
  std::string arch;
  std::string dist;
  int iterations = 0;

  double total_s = 0;       ///< traced-sweep headline (== predict(), bitwise)
  double path_seconds = 0;  ///< sum over cells (== total_s to 1e-9)
  int critical_rank = -1;
  int path_events = 0;

  /// Per-term on-path seconds (sum over cells of that term).
  std::array<double, core::kCostTermCount> term_s{};

  std::vector<BlameCell> cells;  ///< sorted by seconds, descending
  std::vector<BlameEdge> edges;  ///< sorted by transfer_s, descending

  /// Per-iteration slices of the path, one per real iteration: term
  /// composition and the predicted absolute time at which the iteration's
  /// last on-path event ends (the x-axis of the Perfetto counter tracks).
  std::vector<std::array<double, core::kCostTermCount>> iteration_term_s;
  std::vector<double> iteration_end_s;
};

/// Folds the traced sweep into the blame report. `predictor` resolves
/// section/stage indices to their program ids.
BlameReport build_blame(const core::Predictor& predictor,
                        const core::SweepTrace& trace);

/// One what-if entry: a resource scaled by `factor`, with the exact replay,
/// its brute-force cross-check, and the blame-derived first-order estimate.
struct WhatIfEntry {
  core::Perturbation::Kind kind = core::Perturbation::Kind::kCompute;
  int rank = -1;             ///< -1 for the network-wide parameters
  double factor = 1;         ///< applied multiplier (1 - epsilon)
  double replay_s = 0;       ///< perturbed-table replay of the sweep
  double brute_s = 0;        ///< fresh-Predictor re-prediction
  double delta_s = 0;        ///< replay_s - base total
  double first_order_s = 0;  ///< estimate from on-path blame residencies
};

struct SensitivityReport {
  double base_total_s = 0;
  double epsilon = 0;
  /// max |replay_s - brute_s| over all entries; pinned <= 1e-9 in tests.
  double max_replay_vs_brute_s = 0;
  std::vector<WhatIfEntry> entries;  ///< sorted by delta_s, ascending
};

/// Replays the sweep with each parameter shrunk by `epsilon` (factor
/// 1 - epsilon) and cross-checks every replay against brute-force
/// re-prediction. `blame` supplies the first-order estimates.
SensitivityReport what_if_sensitivity(const core::Predictor& predictor,
                                      const dist::GenBlock& d, int iterations,
                                      const BlameReport& blame,
                                      double epsilon = 0.1);

/// Human-readable blame table: headline, per-term residencies, top cells
/// and comm edges.
void write_blame_text(std::ostream& os, const BlameReport& r);

/// Human-readable what-if table: per entry the exact delta next to the
/// first-order estimate.
void write_sensitivity_text(std::ostream& os, const SensitivityReport& r);

/// Machine-readable rendering of blame (+ sensitivity when non-null) as one
/// JSON document.
void write_critical_path_json(std::ostream& os, const BlameReport& r,
                              const SensitivityReport* sensitivity = nullptr);

/// Chrome/Perfetto counter-track trace: one multi-series counter sampled at
/// each iteration's on-path end time, showing how the critical path's term
/// composition evolves over predicted time.
void write_critical_path_trace(std::ostream& os, const BlameReport& r);

}  // namespace mheta::obs
