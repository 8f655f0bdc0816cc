// Building a search objective from a Predictor, with fail-fast validation.
//
// The search algorithms evaluate millions of candidate distributions; a
// predictor built from an inconsistent triple would score every one of them
// with garbage. make_objective() runs the analysis rules once up front
// (throwing analysis::LintError with the findings) and returns an objective
// that guards each candidate with an O(1) shape check — full rule runs stay
// out of the hot path.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <vector>

#include "analysis/bounds/bounds.hpp"
#include "cluster/node.hpp"
#include "core/incremental.hpp"
#include "core/lanes.hpp"
#include "core/model.hpp"
#include "search/search.hpp"

namespace mheta::search {

/// Wraps `predictor` as a minimization objective (predicted seconds for
/// `iterations` iterations). Verifies the predictor's inputs and, when a
/// cluster is given, the structure x cluster pair; each evaluated candidate
/// is shape-checked (node count, total rows) before prediction.
/// The predictor (and cluster) must outlive the returned objective.
Objective make_objective(const core::Predictor& predictor, int iterations);
Objective make_objective(const core::Predictor& predictor, int iterations,
                         const cluster::ClusterConfig& cluster);

/// Incremental-evaluation objective: same contract as make_objective()
/// (lint at construction, MH008 shape check per candidate, predicted seconds
/// out), but candidates are scored through a core::IncrementalEvaluator so a
/// neighbor move costs O(changed nodes) stage-row work instead of a full
/// Predictor::predict. Results are bit-identical to the full objective, so
/// any search algorithm — and CachingObjective / BatchObjective, which accept
/// it wherever an Objective is expected — follows the exact same trajectory.
///
/// Copies share the evaluator (row cache and statistics), so wrapping a
/// DeltaObjective in CachingObjective/BatchObjective keeps stats() coherent.
/// The predictor must outlive every copy.
class DeltaObjective {
 public:
  DeltaObjective(const core::Predictor& predictor, int iterations,
                 core::DeltaOptions options = {});
  DeltaObjective(const core::Predictor& predictor, int iterations,
                 const cluster::ClusterConfig& cluster,
                 core::DeltaOptions options = {});

  double operator()(const dist::GenBlock& d) const;

  /// Delta-path counters across every copy of this objective.
  core::DeltaStats stats() const { return evaluator_->stats(); }
  core::IncrementalEvaluator& evaluator() const { return *evaluator_; }
  int iterations() const { return iterations_; }

 private:
  DeltaObjective(const core::Predictor& predictor, int iterations,
                 const cluster::ClusterConfig* cluster,
                 core::DeltaOptions options);

  std::shared_ptr<core::IncrementalEvaluator> evaluator_;
  int iterations_ = 1;
  int nodes_ = 0;
  std::int64_t rows_ = 0;
};

/// Lane-batched objective: same contract as make_objective() (lint at
/// construction, MH008 shape check per candidate, predicted seconds out),
/// but whole candidate sets are scored K lanes per clock-propagation sweep
/// through a core::LaneEvaluator — the loop control, table indexing and
/// steady-state bookkeeping the delta path still paid per candidate are
/// paid once per batch. Results are bit-identical to the full objective
/// lane by lane; single candidates (and groups below the fill threshold)
/// take the evaluator's scalar delta path, so any search algorithm can
/// consume it as a plain Objective too. Route populations through it with
/// BatchObjective(LaneObjective) — the genetic algorithm and every other
/// batching search then sweep whole broods per clock loop.
///
/// Copies share the evaluator (row caches, statistics, the crosscheck
/// latch). The predictor must outlive every copy.
class LaneObjective {
 public:
  LaneObjective(const core::Predictor& predictor, int iterations,
                core::LaneOptions options = {});
  LaneObjective(const core::Predictor& predictor, int iterations,
                const cluster::ClusterConfig& cluster,
                core::LaneOptions options = {});

  /// Scalar path (delta evaluation); bit-identical to the batch path.
  double operator()(const dist::GenBlock& d) const;

  /// Scores every candidate lane-batched; values[i] corresponds to
  /// candidates[i]. With a pool, lane groups are spread across threads —
  /// the grouping (and therefore every sweep and every value) is identical
  /// to the serial call.
  std::vector<double> evaluate(const std::vector<dist::GenBlock>& candidates,
                               util::ThreadPool* pool = nullptr) const;

  /// Lane-path counters across every copy of this objective.
  core::LaneStats stats() const { return evaluator_->stats(); }
  /// Counters of the embedded scalar (delta) path.
  core::DeltaStats scalar_stats() const { return evaluator_->scalar_stats(); }
  core::LaneEvaluator& evaluator() const { return *evaluator_; }
  int iterations() const { return iterations_; }

 private:
  LaneObjective(const core::Predictor& predictor, int iterations,
                const cluster::ClusterConfig* cluster,
                core::LaneOptions options);

  std::shared_ptr<core::LaneEvaluator> evaluator_;
  int iterations_ = 1;
  int nodes_ = 0;
  std::int64_t rows_ = 0;
};

/// Knobs for BoundedObjective.
struct BoundedOptions {
  /// Master switch: false routes every candidate straight to the inner
  /// objective (measurement baseline; also what the latch degrades to).
  bool enabled = true;
  /// Run the lo <= value <= hi oracle on every Nth *evaluated* candidate
  /// (pruned candidates are never crosschecked — that is the point of
  /// pruning). 1 checks all of them; 0 disables the oracle.
  int crosscheck_every = 1;
  /// Oracle slack; the analyzer widens outward by ~5e-10 relative, so 1e-9
  /// leaves real violations nowhere to hide without false alarms.
  double crosscheck_tolerance_s = 1e-9;
  /// Keep at most this many PrunedSamples for post-hoc re-evaluation audits
  /// (the bench's pruned-candidate exactness check). 0 keeps none.
  std::size_t max_pruned_samples = 0;
};

/// One pruned candidate, recorded for post-hoc audits: re-evaluating
/// `candidate` through the model must land at or above `lower_bound`
/// (and therefore above the `incumbent` it was pruned against).
struct PrunedSample {
  dist::GenBlock candidate;
  double lower_bound = 0;  ///< certified lower bound that triggered the prune
  double incumbent = 0;    ///< best evaluated value at prune time
};

/// Counters across every copy of a BoundedObjective.
struct BoundedStats {
  std::size_t evaluated = 0;    ///< candidates scored by the inner objective
  std::size_t pruned = 0;       ///< candidates skipped on certified bounds
  std::size_t crosschecks = 0;  ///< oracle comparisons run
  std::size_t violations = 0;   ///< oracle failures (should stay 0)
  bool latched = false;         ///< permanent fallback engaged
  double width_rel_mean = 0;    ///< mean relative envelope width (evaluated)
  double max_violation_s = 0;   ///< worst oracle excursion seen
  double incumbent_s = std::numeric_limits<double>::infinity();

  /// Fraction of all bound-screened candidates that were pruned.
  double prune_rate() const {
    const std::size_t total = evaluated + pruned;
    return total > 0 ? static_cast<double>(pruned) / total : 0;
  }
};

/// Certified branch-and-bound objective: screens every candidate with the
/// interval-bounds analyzer (analysis/bounds) before paying for a model
/// evaluation. A candidate whose certified lower bound exceeds the best
/// value evaluated so far cannot win, so the wrapper returns that lower
/// bound without calling the inner objective at all — the search still sees
/// a value that correctly loses every comparison against the incumbent, so
/// the best-found distribution is never a pruned one.
///
/// Soundness is not taken on faith: the analyzer derives its tables from
/// MhetaParams independently of the inner objective's Predictor, and a
/// crosscheck oracle asserts lo <= value <= hi (within tolerance) on
/// evaluated candidates. Any violation trips a permanent latch that routes
/// everything to the inner objective — identical results, no pruning — and
/// is reported through stats().
///
/// No production path composes it: in front of the lanes it took 3.72x the
/// wall time of the same stack without it (layerbench scale-search; one
/// total_bounds costs about 3.5 lane evaluations). It stays for
/// bench/search_algorithms, its tests and layerbench's bounded replay.
///
/// Wraps any inner Objective (make_objective, DeltaObjective,
/// LaneObjective's scalar path); the batch constructor additionally routes
/// whole candidate sets through an inner batch function (e.g.
/// LaneObjective::evaluate) with prune decisions made against the incumbent
/// as of the start of the batch. Copies share all state (incumbent, latch,
/// counters, samples). The predictor must outlive every copy.
class BoundedObjective {
 public:
  BoundedObjective(const core::Predictor& predictor, int iterations,
                   Objective inner, BoundedOptions options = {});
  BoundedObjective(const core::Predictor& predictor, int iterations,
                   Objective inner, BatchObjective::BatchFn inner_batch,
                   BoundedOptions options = {});

  /// Scalar path: certified lower bound for pruned candidates, the inner
  /// objective's value (oracle-checked) otherwise.
  double operator()(const dist::GenBlock& d) const;

  /// Batch path; values[i] corresponds to candidates[i]. Prune decisions
  /// use the incumbent at batch start; survivors go through the inner
  /// batch function (or the scalar inner objective when none was given).
  std::vector<double> operator()(
      const std::vector<dist::GenBlock>& candidates) const;

  BoundedStats stats() const;
  /// Copies of the recorded pruned candidates (bounded by
  /// BoundedOptions::max_pruned_samples).
  std::vector<PrunedSample> pruned_samples() const;
  const analysis::bounds::CostBoundsAnalyzer& analyzer() const;
  int iterations() const { return iterations_; }

 private:
  struct State;
  std::shared_ptr<State> state_;
  int iterations_ = 1;
  int nodes_ = 0;
  std::int64_t rows_ = 0;
};

/// Observes the incumbent of a search without changing it: a transparent
/// wrapper that remembers the best (candidate, value) pair that flowed
/// through it. The profiler uses it to trace the critical path of the
/// distribution the search actually settled on — it is only inserted into
/// the objective chain when that report was requested, so the fast paths
/// pay nothing otherwise.
///
/// Values scored around the inner objective (e.g. a lane-batched candidate
/// set) are fed in through record(). Copies share state (mutex-guarded),
/// and both entry points are safe to call concurrently.
class IncumbentProbe {
 public:
  /// `metrics` (optional, not owned) reports `incumbent_improvements_total`
  /// and `incumbent_observed_total`.
  explicit IncumbentProbe(Objective inner,
                          obs::MetricsRegistry* metrics = nullptr);

  /// Evaluates the inner objective and records the result.
  double operator()(const dist::GenBlock& d) const;

  /// Records an externally produced value for `d` (batch paths).
  void record(const dist::GenBlock& d, double value) const;

  bool has_best() const;
  dist::GenBlock best_candidate() const;  ///< MHETA_CHECKs has_best()
  double best_value() const;
  std::size_t observed() const;
  std::size_t improvements() const;

 private:
  struct State;
  Objective inner_;
  std::shared_ptr<State> state_;
};

}  // namespace mheta::search
