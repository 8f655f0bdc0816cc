// Distribution-search algorithms (companion paper [26], referenced in §5.3:
// "MHETA is used as part of four different algorithms — genetic, simulated
// annealing, generalized binary search, and random — to determine an
// effective distribution").
//
// All algorithms treat the model as a black-box objective: GenBlock -> time.
// GBS and random search explore the one-dimensional distribution spectrum
// (Figure 8); simulated annealing and the genetic search work directly on
// GEN_BLOCK vectors and can reach distributions off the spectrum path.
//
// Batch evaluation: every algorithm except simulated annealing (whose
// accept/reject chain is inherently sequential) generates its candidate set
// for a round before evaluating any of them, so those sets can be handed to
// a BatchObjective backed by a thread pool. The contract is determinism:
// candidate generation consumes the RNG in exactly the serial order,
// objective values land in per-candidate slots, and the reduction walks them
// in candidate-index order — so the parallel path returns a SearchResult
// bit-identical to the serial one (same `best`, `best_time`, `evaluations`).
//
// Simulated annealing is still scalar-accelerated: each accept/reject step
// evaluates exactly one candidate, which is the shape the O(changed-nodes)
// incremental path was built for. run_named() hands it the scalar entry of
// the same BatchObjective(LaneObjective) the other algorithms batch
// through — LaneObjective's scalar path is that incremental evaluator, and
// its values are bit-identical to the full model, so the annealing
// trajectory does not change.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/suite.hpp"
#include "dist/generators.hpp"
#include "obs/registry.hpp"
#include "util/thread_pool.hpp"

namespace mheta::search {

class LaneObjective;  // objective.hpp; lane-batched candidate-set evaluation

/// Black-box objective: predicted execution time of a distribution.
using Objective = std::function<double(const dist::GenBlock&)>;

/// Memoizing objective wrapper: an LRU keyed on GenBlock::counts(). Safe to
/// call concurrently (the cache has its own lock; the wrapped objective runs
/// outside it). Because the objective is pure, hits are bit-identical to
/// recomputation, so wrapping never changes a search trajectory.
class CachingObjective {
 public:
  /// `metrics` (optional, not owned) reports `objective_cache_hits_total`,
  /// `objective_cache_misses_total` and `objective_evaluations_total`; when
  /// null — the default — lookups pay a single pointer check.
  explicit CachingObjective(Objective objective, std::size_t capacity = 4096,
                            obs::MetricsRegistry* metrics = nullptr);

  double operator()(const dist::GenBlock& d) const;

  std::size_t hits() const;
  std::size_t misses() const;
  /// Hit fraction of all lookups so far; 0 when nothing was looked up.
  double hit_rate() const;

 private:
  struct State;
  Objective objective_;
  std::shared_ptr<State> state_;
};

/// Evaluates candidate sets, either serially or on a thread pool. The batch
/// overload guarantees values[i] corresponds to candidates[i]; the pool only
/// changes evaluation order, never placement, so downstream index-order
/// reductions are deterministic.
class BatchObjective {
 public:
  /// A whole-set evaluation path: must return values[i] ==
  /// objective(candidates[i]) bit for bit (the lane-batched evaluator's
  /// contract; also what lets benches time whole candidate sets).
  using BatchFn =
      std::function<std::vector<double>(const std::vector<dist::GenBlock>&)>;

  /// Serial evaluation (explicit so lambdas keep binding to Objective
  /// overloads of the search functions).
  explicit BatchObjective(Objective objective);

  /// Parallel evaluation on `pool` (not owned; must outlive this object).
  /// The objective must be safe to call concurrently.
  BatchObjective(Objective objective, util::ThreadPool& pool);

  /// Candidate sets go through `batch`; single candidates through
  /// `objective`. Both must score identically.
  BatchObjective(Objective objective, BatchFn batch);

  /// Lane-batched evaluation: candidate sets are scored K lanes per clock
  /// sweep through `lanes` (sub-threshold groups and single candidates take
  /// its scalar delta path). The pool overload spreads lane groups across
  /// threads; grouping is identical either way, so trajectories don't
  /// change. Defined in objective.cpp.
  explicit BatchObjective(const LaneObjective& lanes);
  BatchObjective(const LaneObjective& lanes, util::ThreadPool& pool);

  double operator()(const dist::GenBlock& d) const { return objective_(d); }

  /// Evaluates every candidate; values[i] is objective(candidates[i]).
  std::vector<double> operator()(
      const std::vector<dist::GenBlock>& candidates) const;

  int threads() const { return pool_ ? pool_->threads() : 1; }

 private:
  Objective objective_;
  BatchFn batch_;
  util::ThreadPool* pool_ = nullptr;
};

/// The continuous spectrum parameterization explored by GBS and random
/// search: position t in [0,1] maps to an interpolated distribution along
/// the architecture's anchor walk.
class SpectrumSpace {
 public:
  SpectrumSpace(const dist::DistContext& ctx, cluster::SpectrumKind kind);

  /// Distribution at spectrum position t (clamped to [0,1]).
  dist::GenBlock at(double t) const;

  int segments() const { return static_cast<int>(anchors_.size()) - 1; }

 private:
  std::vector<dist::GenBlock> anchors_;
};

/// Outcome of a search.
struct SearchResult {
  dist::GenBlock best;
  double best_time = 0;
  int evaluations = 0;
};

/// Generalized Binary Search over the spectrum: each round samples the
/// current interval at `fanout` evenly spaced points, keeps the best
/// sample's neighborhood, and halves the interval until it is narrower than
/// `resolution`.
struct GbsOptions {
  int fanout = 5;
  double resolution = 1e-3;
};
SearchResult gbs(const SpectrumSpace& space, const Objective& objective,
                 const GbsOptions& opts = {});
SearchResult gbs(const SpectrumSpace& space, const BatchObjective& objective,
                 const GbsOptions& opts = {});

/// Uniform random sampling of the spectrum.
SearchResult random_search(const SpectrumSpace& space,
                           const Objective& objective, int samples,
                           std::uint64_t seed);
SearchResult random_search(const SpectrumSpace& space,
                           const BatchObjective& objective, int samples,
                           std::uint64_t seed);

/// Simulated annealing over GEN_BLOCK vectors; neighbor moves shift a
/// random number of rows between two random nodes. No batch overload: each
/// step's candidate depends on the previous accept/reject decision — but
/// the scalar chain is exactly one neighbor move per step, so hand it a
/// DeltaObjective to pay O(changed nodes) per evaluation instead of a full
/// predict. The delta path is bit-identical to the full model, so the
/// trajectory (every accept/reject and the final SearchResult) is unchanged.
struct AnnealOptions {
  int steps = 1500;
  double initial_temperature_rel = 0.03;  ///< relative to the start time
  double cooling = 0.996;
  std::int64_t max_move_rows = 0;  ///< 0 -> rows/16
};
SearchResult simulated_annealing(const dist::GenBlock& start,
                                 const Objective& objective,
                                 const AnnealOptions& opts, std::uint64_t seed);

/// Steepest-descent hill climbing over GEN_BLOCK vectors (extension):
/// repeatedly applies the best of `neighbors` sampled row-moves until no
/// sampled move improves.
struct HillClimbOptions {
  int neighbors = 16;
  int max_rounds = 200;
  std::int64_t max_move_rows = 0;  ///< 0 -> rows/16
};
SearchResult hill_climb(const dist::GenBlock& start, const Objective& objective,
                        const HillClimbOptions& opts, std::uint64_t seed);
SearchResult hill_climb(const dist::GenBlock& start,
                        const BatchObjective& objective,
                        const HillClimbOptions& opts, std::uint64_t seed);

/// Tabu search over GEN_BLOCK vectors (extension): hill climbing that may
/// accept worsening moves but never revisits a recently-seen distribution.
struct TabuOptions {
  int steps = 300;
  int neighbors = 12;
  int tabu_tenure = 50;
  std::int64_t max_move_rows = 0;  ///< 0 -> rows/16
};
SearchResult tabu_search(const dist::GenBlock& start,
                         const Objective& objective, const TabuOptions& opts,
                         std::uint64_t seed);
SearchResult tabu_search(const dist::GenBlock& start,
                         const BatchObjective& objective,
                         const TabuOptions& opts, std::uint64_t seed);

/// Genetic search over GEN_BLOCK vectors: tournament selection, blend
/// crossover (repaired to the exact total), row-move mutation, elitism.
struct GeneticOptions {
  int population = 24;
  int generations = 30;
  double mutation_rate = 0.3;
  std::int64_t max_move_rows = 0;  ///< 0 -> rows/16
};
SearchResult genetic(const dist::DistContext& ctx, const Objective& objective,
                     const GeneticOptions& opts, std::uint64_t seed);
SearchResult genetic(const dist::DistContext& ctx,
                     const BatchObjective& objective,
                     const GeneticOptions& opts, std::uint64_t seed);

/// Runs one algorithm by name — tabu | gbs | anneal | genetic | random |
/// hill — with its default options: tabu, anneal and hill start from
/// `start`; gbs and random walk the `spectrum` of `ctx` (random draws 64
/// samples). Annealing consumes the scalar entry of `objective` only.
/// Throws CheckError on an unknown name.
SearchResult run_named(const std::string& algorithm,
                       const BatchObjective& objective,
                       const dist::GenBlock& start,
                       const dist::DistContext& ctx,
                       cluster::SpectrumKind spectrum, std::uint64_t seed);

}  // namespace mheta::search
