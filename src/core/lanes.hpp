// Lane-batched evaluation of the MHETA objective: K candidates per clock
// sweep.
//
// The delta evaluator (incremental.hpp) removed nearly all equation work
// from search evaluation; what remains — the Amdahl floor measured in
// BENCH_search.json — is the exact clock walk itself, whose loop control,
// interned-table indexing, comm-term lookups and steady-state check are paid
// once per candidate. LaneEvaluator amortizes them: it runs the Predictor's
// clock walk (walk.hpp) once per block of up to 32 candidates ("lanes")
// with a lane clock compiled at a fixed width W (4, 8, 16 or 32, the
// smallest that holds the block). It keeps each rank's clocks as a
// contiguous W-wide strip (`off[rank * W + lane]`) and reads each lane's
// stage times in place from its cached row through per-(rank, lane) row
// pointers. The inner loops are fixed-trip, unit-stride passes over the
// strip, which the compiler vectorizes at -O2, and all per-step bookkeeping
// (section dispatch, send/recv slot resolution, the steady-state memcmp) is
// shared by the whole block.
//
// Bit-identity argument (pinned by tests and the crosscheck oracle): for
// one lane, the sequence of floating-point operations is exactly the scalar
// clock's — each candidate's dependent adds and maxes keep their order; only
// *independent* operations (the same step applied to different candidates)
// are interleaved across lanes. The walk is adds and maxes only (no
// multiply-add pairs exist in it, so no FMA contraction hazard), and
// cross-lane vectorization never reassociates within a lane. The
// steady-state shortcut checks a block's whole offset strip with one
// memcmp; that is conservative per lane — a lane whose own offsets reached
// their fixed point earlier simply keeps running full iterations, and by
// the fixed-point definition each of those extra iterations reproduces the
// recorded step bit for bit, so the collapsed replay still matches the
// scalar path exactly. Renormalization (min over ranks, subtract) is
// per-lane arithmetic on the same values in the same order.
//
// Batching policy: candidate sets are cut into groups of `lane_width`; a
// trailing group smaller than `min_fill` (and any single-candidate call)
// takes the scalar delta path instead — below that, lane setup costs more
// than it amortizes. Occupancy, fill rate and sweep counts are exported
// through obs::MetricsRegistry; the crosscheck oracle compares lanes
// against full Predictor::predict every N sweeps and permanently falls
// back to the scalar path if drift above the tolerance is ever observed.
//
// Hot-path design mirrors incremental.hpp: row caches (the same arena
// RowCache type, holding stage times only) and lane scratch live in caches
// the evaluator owns, checked out of a LIFO free list per call and freed
// with the evaluator (no other locks, steady-state no allocations),
// relaxed-atomic stats. Safe to call concurrently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/incremental.hpp"
#include "core/model.hpp"
#include "dist/genblock.hpp"
#include "obs/registry.hpp"

namespace mheta::core {

/// How a LaneEvaluator has been serving evaluations.
struct LaneStats {
  std::uint64_t batched_sweeps = 0;     ///< lane-batched clock-loop runs
  std::uint64_t lane_evaluations = 0;   ///< candidates scored inside lanes
  std::uint64_t scalar_evaluations = 0; ///< candidates served by the scalar
                                        ///< (delta) path instead
  std::uint64_t idle_lanes = 0;         ///< unfilled slots of partial groups
  std::uint64_t rows_reused = 0;        ///< per-(rank, rows) row-cache hits
  std::uint64_t rows_computed = 0;      ///< per-(rank, rows) row-cache misses
  std::uint64_t crosschecks = 0;        ///< per-lane lane-vs-full comparisons
  std::uint64_t fallback_latches = 0;   ///< times drift latched lanes off (0
                                        ///< or 1 in practice)
  double max_drift_s = 0;               ///< worst |lane - full| observed (s)
  std::uint64_t assemble_ns = 0;        ///< row resolution (table work);
                                        ///< only with time_components
  std::uint64_t sweep_ns = 0;           ///< batched clock loop; only with
                                        ///< time_components

  /// Occupied fraction of all lane slots swept so far (1.0 = every sweep
  /// ran at full width); 0 when nothing was batched.
  double fill_rate() const {
    const double slots =
        static_cast<double>(lane_evaluations + idle_lanes);
    return slots > 0 ? static_cast<double>(lane_evaluations) / slots : 0.0;
  }
};

/// Tuning knobs for LaneEvaluator.
struct LaneOptions {
  /// When false every candidate takes the scalar delta path — the escape
  /// hatch, and the benchmark denominator.
  bool enabled = true;

  /// Lanes per group. Candidate sets are cut into groups of this size, and
  /// each group is swept in blocks of at most 32 lanes (the widest compiled
  /// lane clock); the clock loop's working set per block is O(nodes * 32)
  /// doubles plus the lanes' rows. 32 amortizes the per-sweep bookkeeping
  /// best on the benchmarked apps while staying L1-resident; it also
  /// divides the common population sizes (32/64/128) evenly.
  int lane_width = 32;

  /// Groups smaller than this take the scalar delta path; row resolution
  /// and per-sweep setup only pay for themselves with enough lanes sharing
  /// them.
  int min_fill = 4;

  /// Entries per cache for memoized per-(rank, rows) stage-time rows
  /// (cleared wholesale between groups once reached; rows are pure).
  std::size_t row_cache_capacity = 4096;

  /// Cross-check every lane of every Nth sweep against a full
  /// Predictor::predict (0 — the default — never). Any drift above
  /// `crosscheck_tolerance_s` permanently disables lane batching.
  int crosscheck_every = 0;
  double crosscheck_tolerance_s = 1e-9;

  /// Accumulate assemble_ns / sweep_ns (two steady_clock reads per sweep);
  /// off by default so the hot path pays nothing.
  bool time_components = false;

  /// Optional metrics sink (not owned; must outlive the evaluator).
  /// Reports lane_eval_{sweeps,lanes,scalar_fallbacks,idle_lanes,
  /// crosschecks,fallback_latches}_total plus the lane_eval_fill_rate and
  /// lane_eval_max_drift_s gauges; when null the hot path pays nothing.
  obs::MetricsRegistry* metrics = nullptr;
};

class LaneEvaluator {
 public:
  using Options = LaneOptions;

  /// `predictor` is borrowed and must outlive the evaluator.
  explicit LaneEvaluator(const Predictor& predictor, Options options = {});

  /// Scores `count` candidates (uniform `iterations` each) into
  /// `totals[0..count)`, bit-identical to
  /// `predictor().predict(candidates[i], iterations).total_s`. Full groups
  /// of `lane_width` run through the lane-batched clock loop; a trailing
  /// group below `min_fill` (or everything, when disabled or latched off)
  /// is served by the scalar delta path. Safe to call concurrently.
  void evaluate_totals(const dist::GenBlock* candidates, std::size_t count,
                       int iterations, double* totals);

  /// Single-candidate evaluation via the scalar delta path (bit-identical
  /// to predict(); see IncrementalEvaluator).
  Prediction evaluate(const dist::GenBlock& d, int iterations);
  double evaluate_total(const dist::GenBlock& d, int iterations);

  LaneStats stats() const;
  /// Counters of the embedded scalar (delta) path.
  DeltaStats scalar_stats() const { return scalar_->stats(); }

  const Predictor& predictor() const { return *predictor_; }
  const Options& options() const { return options_; }

 private:
  struct Cache;  // rows, row pointers and lane clocks, checked out per call
  struct State;  // shared stats + the free list of caches

  /// One lane-batched group: resolve `count` candidates' rows, sweep them
  /// with the lane clock, write totals; runs the crosscheck oracle when due.
  void evaluate_group(const dist::GenBlock* candidates, std::size_t count,
                      int iterations, double* totals, Cache& tc);

  const Predictor* predictor_;
  Options options_;
  /// Scalar path for single candidates and below-threshold groups; shares
  /// the crosscheck cadence and metrics sink.
  std::shared_ptr<IncrementalEvaluator> scalar_;
  std::shared_ptr<State> state_;
};

}  // namespace mheta::core
