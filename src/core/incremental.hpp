// Incremental (delta) evaluation of the MHETA objective.
//
// Every stage cost in the model is a pure function of (rank, local rows):
// computation is T_c * W'/W over the rank's rows, and the file I/O / prefetch
// equations (Eq. 1/2) depend only on the rank's memory plan — itself keyed by
// (rank, rows). A GEN_BLOCK neighbor move changes the row counts of exactly
// two ranks, so of the n * sections * tiles * stages stage times that a full
// Predictor::predict recomputes per candidate, all but the two affected
// ranks' rows are unchanged.
//
// IncrementalEvaluator exploits that: it memoizes each rank's full stage-time
// row (every section/tile/stage, as the same SoA tables the Predictor's
// iteration cache uses) keyed by (rank, rows), assembles the iteration cache
// for a candidate by copying the cached rows, and reuses the Predictor's own
// clock-propagation loop for the globally coupled terms (send/recv waits,
// pipeline arrival chains, collectives — cheap adds and maxes over the
// per-node clocks). Because the rows are filled by the same
// Predictor::build_rank_section the full path uses and the loop is the same
// code, a delta evaluation is bit-identical to Predictor::predict — which the
// optional cross-check mode verifies every N evaluations, falling back to
// full evaluation permanently if drift above the tolerance is ever observed
// (it cannot be, by construction, but the oracle is cheap insurance).
//
// Hot-path design: rows, iteration-cache scratch and the clock loop's
// vectors live in caches the evaluator owns. Each call checks one out of a
// LIFO free list and gives it back, so a single-threaded caller always gets
// the cache it used last (and the O(changed-nodes) diff still applies),
// while concurrent callers each hold their own for the length of a call.
// Apart from that checkout an evaluation takes no locks and (steady-state)
// performs no allocations; statistics are relaxed atomics. The caches are
// freed with the evaluator. Safe to call concurrently — callers at worst
// recompute the same pure row for their own cache.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/model.hpp"
#include "dist/genblock.hpp"
#include "obs/registry.hpp"

namespace mheta::core {

/// How an IncrementalEvaluator has been serving evaluations.
struct DeltaStats {
  std::uint64_t evaluations = 0;     ///< evaluations served by the delta path
  std::uint64_t rows_reused = 0;     ///< per-(rank, rows) row-cache hits
  std::uint64_t rows_computed = 0;   ///< per-(rank, rows) row-cache misses
  std::uint64_t full_fallbacks = 0;  ///< evaluations served by full predict
  std::uint64_t crosschecks = 0;     ///< delta-vs-full oracle comparisons
  double max_drift_s = 0;            ///< worst |delta - full| observed (s)
  std::uint64_t table_ns = 0;        ///< table work (row builds + cache
                                     ///< assembly); only with time_components
  std::uint64_t loop_ns = 0;         ///< clock-propagation loop; only with
                                     ///< time_components
};

/// Tuning knobs for IncrementalEvaluator (namespace scope, like ModelOptions,
/// so it can be brace-defaulted in signatures).
struct DeltaOptions {
  /// When false every evaluation takes the full-predict path (and counts
  /// as a fallback) — the escape hatch, and the benchmark denominator.
  bool enabled = true;

  /// Entries per cache for memoized per-(rank, rows) stage-time rows; a
  /// cache is cleared wholesale when it would exceed this (rows are pure,
  /// so dropping them only costs recomputation). A search's working set is
  /// a few (rank, rows) pairs per move, so the default never clears in
  /// practice.
  std::size_t row_cache_capacity = 4096;

  /// Cross-check the delta result against a full Predictor::predict every
  /// N evaluations (0 — the default — never). Any drift above
  /// `crosscheck_tolerance_s` permanently disables the delta path.
  int crosscheck_every = 0;
  double crosscheck_tolerance_s = 1e-9;

  /// Accumulate DeltaStats::{table_ns, loop_ns} — the measured split
  /// between per-candidate table work and the shared clock loop (the
  /// Amdahl floor of DESIGN.md as numbers). Two steady_clock reads per
  /// evaluation; off by default so the hot path pays nothing.
  bool time_components = false;

  /// Optional metrics sink (not owned; must outlive the evaluator).
  /// Reports delta_eval_{evaluations,rows_reused,rows_computed,
  /// full_fallbacks,crosschecks}_total and the delta_eval_max_drift_s
  /// gauge; when null the hot path pays nothing.
  obs::MetricsRegistry* metrics = nullptr;
};

class IncrementalEvaluator {
 public:
  using Options = DeltaOptions;

  /// `predictor` is borrowed and must outlive the evaluator.
  explicit IncrementalEvaluator(const Predictor& predictor,
                                Options options = {});

  /// Predicts `iterations` uniform iterations under `d`; bit-identical to
  /// `predictor().predict(d, iterations)`. Safe to call concurrently.
  Prediction evaluate(const dist::GenBlock& d, int iterations);

  /// As evaluate(), returning only the makespan — the search hot path;
  /// skips copying the per-node end times out of scratch.
  double evaluate_total(const dist::GenBlock& d, int iterations);

  DeltaStats stats() const;
  const Predictor& predictor() const { return *predictor_; }
  const Options& options() const { return options_; }

 private:
  struct NodeRow;  // one rank's stage times over all sections, SoA
  struct Cache;    // rows + evaluation scratch, checked out per call
  struct State;    // shared stats + the free list of caches

  /// Runs the delta (or fallback) evaluation into tc.pred and returns it.
  const Prediction& evaluate_impl(const dist::GenBlock& d, int iterations,
                                  Cache& tc);

  const Predictor* predictor_;
  Options options_;
  // Flat row layout: section si occupies [section_offset_[si],
  // section_offset_[si] + section_len_[si]) of each NodeRow table.
  std::vector<std::size_t> section_offset_;
  std::vector<std::size_t> section_len_;
  std::size_t row_len_ = 0;
  std::shared_ptr<State> state_;
};

}  // namespace mheta::core
