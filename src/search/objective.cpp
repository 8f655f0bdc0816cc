#include "search/objective.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <limits>
#include <mutex>
#include <sstream>
#include <utility>

#include "analysis/lint.hpp"
#include "analysis/rules.hpp"
#include "util/check.hpp"

namespace mheta::search {

namespace {

// One full rule run over everything we can see; Predictor construction
// already verified the model inputs, this re-checks them together with
// the cluster the search is targeting.
void lint_for_search(const core::Predictor& predictor,
                     const cluster::ClusterConfig* cluster) {
  analysis::LintInput in;
  in.structure = &predictor.structure();
  in.cluster = cluster;
  in.params = &predictor.params();
  in.memory_bytes = &predictor.memory_bytes();
  in.planner_overhead_bytes = predictor.options().planner_overhead_bytes;
  in.max_blocks = predictor.options().max_blocks;
  analysis::enforce(analysis::run_rules(in), "search objective");
}

void check_candidate_shape(const core::Predictor& predictor, int nodes,
                           std::int64_t rows, const dist::GenBlock& d) {
  if (d.nodes() != nodes || d.total() != rows) {
    analysis::Diagnostics diags(predictor.structure().name);
    std::ostringstream msg;
    msg << "candidate GEN_BLOCK has " << d.nodes() << " blocks summing to "
        << d.total() << " rows; the model expects " << nodes
        << " nodes covering " << rows << " rows";
    diags.add(analysis::Severity::kError, "MH008", msg.str());
    throw analysis::LintError("search objective", std::move(diags));
  }
}

Objective make_objective_impl(const core::Predictor& predictor, int iterations,
                              const cluster::ClusterConfig* cluster) {
  lint_for_search(predictor, cluster);
  const int nodes = predictor.params().node_count();
  const std::int64_t rows = predictor.structure().rows();
  return [&predictor, iterations, nodes, rows](const dist::GenBlock& d) {
    check_candidate_shape(predictor, nodes, rows, d);
    return predictor.predict(d, iterations).total_s;
  };
}

}  // namespace

Objective make_objective(const core::Predictor& predictor, int iterations) {
  return make_objective_impl(predictor, iterations, nullptr);
}

Objective make_objective(const core::Predictor& predictor, int iterations,
                         const cluster::ClusterConfig& cluster) {
  return make_objective_impl(predictor, iterations, &cluster);
}

DeltaObjective::DeltaObjective(const core::Predictor& predictor, int iterations,
                               const cluster::ClusterConfig* cluster,
                               core::DeltaOptions options)
    : evaluator_(
          std::make_shared<core::IncrementalEvaluator>(predictor, options)),
      iterations_(iterations),
      nodes_(predictor.params().node_count()),
      rows_(predictor.structure().rows()) {
  lint_for_search(predictor, cluster);
}

DeltaObjective::DeltaObjective(const core::Predictor& predictor, int iterations,
                               core::DeltaOptions options)
    : DeltaObjective(predictor, iterations, nullptr, options) {}

DeltaObjective::DeltaObjective(const core::Predictor& predictor, int iterations,
                               const cluster::ClusterConfig& cluster,
                               core::DeltaOptions options)
    : DeltaObjective(predictor, iterations, &cluster, options) {}

double DeltaObjective::operator()(const dist::GenBlock& d) const {
  check_candidate_shape(evaluator_->predictor(), nodes_, rows_, d);
  return evaluator_->evaluate_total(d, iterations_);
}

LaneObjective::LaneObjective(const core::Predictor& predictor, int iterations,
                             const cluster::ClusterConfig* cluster,
                             core::LaneOptions options)
    : evaluator_(std::make_shared<core::LaneEvaluator>(predictor, options)),
      iterations_(iterations),
      nodes_(predictor.params().node_count()),
      rows_(predictor.structure().rows()) {
  lint_for_search(predictor, cluster);
}

LaneObjective::LaneObjective(const core::Predictor& predictor, int iterations,
                             core::LaneOptions options)
    : LaneObjective(predictor, iterations, nullptr, options) {}

LaneObjective::LaneObjective(const core::Predictor& predictor, int iterations,
                             const cluster::ClusterConfig& cluster,
                             core::LaneOptions options)
    : LaneObjective(predictor, iterations, &cluster, options) {}

double LaneObjective::operator()(const dist::GenBlock& d) const {
  check_candidate_shape(evaluator_->predictor(), nodes_, rows_, d);
  return evaluator_->evaluate_total(d, iterations_);
}

std::vector<double> LaneObjective::evaluate(
    const std::vector<dist::GenBlock>& candidates,
    util::ThreadPool* pool) const {
  for (const auto& d : candidates)
    check_candidate_shape(evaluator_->predictor(), nodes_, rows_, d);
  std::vector<double> values(candidates.size());
  if (candidates.empty()) return values;
  const std::size_t width = static_cast<std::size_t>(
      std::max(1, evaluator_->options().lane_width));
  const std::size_t groups = (candidates.size() + width - 1) / width;
  if (pool != nullptr && groups > 1) {
    // Same chunk boundaries as the serial path, spread across threads;
    // every group's sweep is independent, so values are identical.
    pool->parallel_for(
        static_cast<std::int64_t>(groups), [&](std::int64_t g) {
          const std::size_t begin = static_cast<std::size_t>(g) * width;
          const std::size_t len =
              std::min(width, candidates.size() - begin);
          evaluator_->evaluate_totals(candidates.data() + begin, len,
                                      iterations_, values.data() + begin);
        });
  } else {
    evaluator_->evaluate_totals(candidates.data(), candidates.size(),
                                iterations_, values.data());
  }
  return values;
}

struct BoundedObjective::State {
  State(const core::Predictor& p, Objective in, BatchObjective::BatchFn batch,
        BoundedOptions opts)
      : analyzer(p.structure(), p.params(), p.memory_bytes(),
                 {p.options().planner_overhead_bytes, p.options().max_blocks}),
        predictor(&p),
        inner(std::move(in)),
        inner_batch(std::move(batch)),
        options(opts) {}

  analysis::bounds::CostBoundsAnalyzer analyzer;
  const core::Predictor* predictor;
  Objective inner;
  BatchObjective::BatchFn inner_batch;
  BoundedOptions options;

  mutable std::mutex mu;
  double incumbent = std::numeric_limits<double>::infinity();
  std::vector<PrunedSample> samples;
  double width_rel_sum = 0;
  double max_violation_s = 0;

  std::atomic<bool> latched{false};
  std::atomic<std::size_t> evaluated{0};
  std::atomic<std::size_t> pruned{0};
  std::atomic<std::size_t> crosschecks{0};
  std::atomic<std::size_t> violations{0};

  // Prune bookkeeping; returns the certified lower bound as the candidate's
  // value. lb > incumbent >= every later incumbent >= the run's best_time,
  // so a pruned candidate can never win a comparison downstream.
  double record_prune(const dist::GenBlock& d, double lb,
                      double incumbent_at_prune) {
    pruned.fetch_add(1, std::memory_order_relaxed);
    if (options.max_pruned_samples > 0) {
      std::lock_guard<std::mutex> lock(mu);
      if (samples.size() < options.max_pruned_samples)
        samples.push_back({d, lb, incumbent_at_prune});
    }
    return lb;
  }

  // Post-evaluation bookkeeping for one candidate the inner objective
  // scored: oracle, width accounting, incumbent update.
  double finish(const analysis::bounds::TotalBounds& b, double value) {
    const std::size_t n = evaluated.fetch_add(1, std::memory_order_relaxed) + 1;
    const int every = options.crosscheck_every;
    if (every > 0 && (n - 1) % static_cast<std::size_t>(every) == 0) {
      crosschecks.fetch_add(1, std::memory_order_relaxed);
      const double tol = options.crosscheck_tolerance_s;
      if (value < b.total.lo - tol || value > b.total.hi + tol) {
        violations.fetch_add(1, std::memory_order_relaxed);
        latched.store(true, std::memory_order_relaxed);
        const double gap = std::max(b.total.lo - value, value - b.total.hi);
        std::lock_guard<std::mutex> lock(mu);
        if (gap > max_violation_s) max_violation_s = gap;
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      width_rel_sum += b.width_rel();
      if (value < incumbent) incumbent = value;
    }
    return value;
  }
};

BoundedObjective::BoundedObjective(const core::Predictor& predictor,
                                   int iterations, Objective inner,
                                   BatchObjective::BatchFn inner_batch,
                                   BoundedOptions options)
    : iterations_(iterations),
      nodes_(predictor.params().node_count()),
      rows_(predictor.structure().rows()) {
  lint_for_search(predictor, nullptr);
  state_ = std::make_shared<State>(predictor, std::move(inner),
                                   std::move(inner_batch), options);
}

BoundedObjective::BoundedObjective(const core::Predictor& predictor,
                                   int iterations, Objective inner,
                                   BoundedOptions options)
    : BoundedObjective(predictor, iterations, std::move(inner),
                       BatchObjective::BatchFn(), options) {}

double BoundedObjective::operator()(const dist::GenBlock& d) const {
  State& st = *state_;
  check_candidate_shape(*st.predictor, nodes_, rows_, d);
  if (!st.options.enabled || st.latched.load(std::memory_order_relaxed))
    return st.inner(d);
  const analysis::bounds::TotalBounds b =
      st.analyzer.total_bounds(d, iterations_);
  double incumbent;
  {
    std::lock_guard<std::mutex> lock(st.mu);
    incumbent = st.incumbent;
  }
  if (b.total.lo > incumbent) return st.record_prune(d, b.total.lo, incumbent);
  return st.finish(b, st.inner(d));
}

std::vector<double> BoundedObjective::operator()(
    const std::vector<dist::GenBlock>& candidates) const {
  State& st = *state_;
  for (const auto& d : candidates)
    check_candidate_shape(*st.predictor, nodes_, rows_, d);
  std::vector<double> values(candidates.size());
  if (candidates.empty()) return values;
  if (!st.options.enabled || st.latched.load(std::memory_order_relaxed)) {
    if (st.inner_batch) return st.inner_batch(candidates);
    for (std::size_t i = 0; i < candidates.size(); ++i)
      values[i] = st.inner(candidates[i]);
    return values;
  }
  double incumbent;
  {
    std::lock_guard<std::mutex> lock(st.mu);
    incumbent = st.incumbent;
  }
  // Prune decisions all use the incumbent at batch start, so the survivor
  // set does not depend on the inner batch function's evaluation order.
  std::vector<analysis::bounds::TotalBounds> bounds;
  std::vector<dist::GenBlock> kept;
  std::vector<std::size_t> kept_index;
  bounds.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    analysis::bounds::TotalBounds b =
        st.analyzer.total_bounds(candidates[i], iterations_);
    if (b.total.lo > incumbent) {
      values[i] = st.record_prune(candidates[i], b.total.lo, incumbent);
    } else {
      kept.push_back(candidates[i]);
      kept_index.push_back(i);
      bounds.push_back(std::move(b));
    }
  }
  if (kept.empty()) return values;
  std::vector<double> kept_values;
  if (st.inner_batch) {
    kept_values = st.inner_batch(kept);
  } else {
    kept_values.resize(kept.size());
    for (std::size_t j = 0; j < kept.size(); ++j)
      kept_values[j] = st.inner(kept[j]);
  }
  for (std::size_t j = 0; j < kept.size(); ++j)
    values[kept_index[j]] = st.finish(bounds[j], kept_values[j]);
  return values;
}

BoundedStats BoundedObjective::stats() const {
  const State& st = *state_;
  BoundedStats s;
  s.evaluated = st.evaluated.load(std::memory_order_relaxed);
  s.pruned = st.pruned.load(std::memory_order_relaxed);
  s.crosschecks = st.crosschecks.load(std::memory_order_relaxed);
  s.violations = st.violations.load(std::memory_order_relaxed);
  s.latched = st.latched.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(st.mu);
  s.width_rel_mean =
      s.evaluated > 0 ? st.width_rel_sum / static_cast<double>(s.evaluated) : 0;
  s.max_violation_s = st.max_violation_s;
  s.incumbent_s = st.incumbent;
  return s;
}

std::vector<PrunedSample> BoundedObjective::pruned_samples() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->samples;
}

const analysis::bounds::CostBoundsAnalyzer& BoundedObjective::analyzer() const {
  return state_->analyzer;
}

BatchObjective::BatchObjective(const LaneObjective& lanes)
    : BatchObjective(Objective(lanes),
                     [lanes](const std::vector<dist::GenBlock>& candidates) {
                       return lanes.evaluate(candidates);
                     }) {}

BatchObjective::BatchObjective(const LaneObjective& lanes,
                               util::ThreadPool& pool)
    : BatchObjective(Objective(lanes),
                     [lanes, &pool](const std::vector<dist::GenBlock>& cs) {
                       return lanes.evaluate(cs, &pool);
                     }) {
  pool_ = &pool;
}

struct IncumbentProbe::State {
  mutable std::mutex mu;
  bool has_best = false;
  dist::GenBlock best;
  double best_value = std::numeric_limits<double>::infinity();
  std::size_t observed = 0;
  std::size_t improvements = 0;
  obs::Counter* observed_total = nullptr;
  obs::Counter* improvements_total = nullptr;
};

IncumbentProbe::IncumbentProbe(Objective inner, obs::MetricsRegistry* metrics)
    : inner_(std::move(inner)), state_(std::make_shared<State>()) {
  MHETA_CHECK(static_cast<bool>(inner_));
  if (metrics != nullptr) {
    state_->observed_total = &metrics->counter("incumbent_observed_total");
    state_->improvements_total =
        &metrics->counter("incumbent_improvements_total");
  }
}

double IncumbentProbe::operator()(const dist::GenBlock& d) const {
  const double value = inner_(d);
  record(d, value);
  return value;
}

void IncumbentProbe::record(const dist::GenBlock& d, double value) const {
  State& st = *state_;
  {
    std::lock_guard<std::mutex> lock(st.mu);
    ++st.observed;
    if (!st.has_best || value < st.best_value) {
      st.has_best = true;
      st.best = d;
      st.best_value = value;
      ++st.improvements;
      if (st.improvements_total != nullptr) st.improvements_total->inc();
    }
  }
  if (st.observed_total != nullptr) st.observed_total->inc();
}

bool IncumbentProbe::has_best() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->has_best;
}

dist::GenBlock IncumbentProbe::best_candidate() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  MHETA_CHECK(state_->has_best);
  return state_->best;
}

double IncumbentProbe::best_value() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->best_value;
}

std::size_t IncumbentProbe::observed() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->observed;
}

std::size_t IncumbentProbe::improvements() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->improvements;
}

}  // namespace mheta::search
