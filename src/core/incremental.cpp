#include "core/incremental.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <utility>

#include "core/walk.hpp"
#include "util/check.hpp"
#include "util/free_list.hpp"

namespace mheta::core {

/// Everything one call needs to evaluate candidates without touching shared
/// state: a row cache plus all evaluation scratch. Checked out of the
/// evaluator's free list for the length of a call.
struct IncrementalEvaluator::Cache {
  RowCache rows;  // full rows (stage, compute, io) per (rank, rows)
  std::vector<const double*> row_ptr;  // per rank, into `rows`
  ClockState clocks;
  Prediction pred;
  // The candidate row_ptr (and pred) currently describe; empty until the
  // first delta evaluation completes, and after a row-cache reset. Lets the
  // assembly pass skip every rank whose row count is unchanged since the
  // previous candidate — the O(changed-nodes) step — and lets an exact
  // repeat skip the clock loop as well.
  std::vector<std::int64_t> last_counts;
  int last_iterations = 0;
};

/// Statistics, the permanent-fallback latch and the evaluation caches,
/// shared by every copy and every thread. All stat updates are relaxed
/// atomics except the (rare) cross-check drift bookkeeping, which takes
/// `crosscheck_mu`.
struct IncrementalEvaluator::State {
  std::atomic<std::uint64_t> evaluations{0};
  std::atomic<std::uint64_t> rows_reused{0};
  std::atomic<std::uint64_t> rows_computed{0};
  std::atomic<std::uint64_t> full_fallbacks{0};
  std::atomic<std::uint64_t> crosschecks{0};
  std::atomic<std::uint64_t> table_ns{0};
  std::atomic<std::uint64_t> loop_ns{0};
  std::atomic<bool> fallback_forever{false};
  std::mutex crosscheck_mu;
  double max_drift_s = 0;  // guarded by crosscheck_mu

  // Resolved once at construction when a registry is installed; updates are
  // atomic on the metrics themselves.
  obs::Counter* eval_counter = nullptr;
  obs::Counter* reused_counter = nullptr;
  obs::Counter* computed_counter = nullptr;
  obs::Counter* fallback_counter = nullptr;
  obs::Counter* crosscheck_counter = nullptr;
  obs::Gauge* drift_gauge = nullptr;

  // Caches not checked out by a call; freed with the evaluator.
  util::FreeList<Cache> caches;
};

IncrementalEvaluator::IncrementalEvaluator(const Predictor& predictor,
                                           Options options)
    : predictor_(&predictor),
      options_(options),
      state_(std::make_shared<State>()) {
  if (options_.metrics != nullptr) {
    auto& m = *options_.metrics;
    state_->eval_counter = &m.counter(
        "delta_eval_evaluations_total", "objective evaluations served by the "
                                        "incremental (delta) path");
    state_->reused_counter = &m.counter(
        "delta_eval_rows_reused_total", "per-(rank, rows) stage rows reused "
                                        "from the delta row cache");
    state_->computed_counter = &m.counter(
        "delta_eval_rows_computed_total", "per-(rank, rows) stage rows "
                                          "computed on a row-cache miss");
    state_->fallback_counter = &m.counter(
        "delta_eval_full_fallbacks_total", "evaluations served by a full "
                                           "(non-incremental) predict");
    state_->crosscheck_counter = &m.counter(
        "delta_eval_crosschecks_total", "delta-vs-full oracle comparisons");
    state_->drift_gauge = &m.gauge(
        "delta_eval_max_drift_s", "worst |delta - full| drift observed (s)");
  }
}

const Prediction& IncrementalEvaluator::evaluate_impl(const dist::GenBlock& d,
                                                      int iterations,
                                                      Cache& tc) {
  MHETA_CHECK(iterations >= 1);
  MHETA_CHECK(d.nodes() == predictor_->params().node_count());
  State& st = *state_;

  const bool use_delta =
      options_.enabled &&
      !st.fallback_forever.load(std::memory_order_relaxed);
  if (!use_delta) {
    st.full_fallbacks.fetch_add(1, std::memory_order_relaxed);
    if (st.fallback_counter != nullptr) st.fallback_counter->inc();
    tc.last_counts.clear();
    tc.pred = predictor_->predict(d, iterations);
    return tc.pred;
  }

  const int n = d.nodes();
  const std::size_t len = predictor_->row_len_;

  using Clock = std::chrono::steady_clock;
  Clock::time_point t0;
  if (options_.time_components) t0 = Clock::now();

  // Point each rank at its per-(rank, rows) row. The previous candidate's
  // pointers are still in place, so only ranks whose row count changed are
  // touched at all — O(changed nodes), a hash probe each. A full cache is
  // reset here, before any pointer into it is taken, and every rank is then
  // resolved afresh. Everything else is clock propagation.
  std::uint64_t reused = 0;
  std::uint64_t computed = 0;
  if (tc.rows.prepare(options_.row_cache_capacity,
                      static_cast<std::size_t>(n), 3 * len))
    tc.last_counts.clear();
  tc.row_ptr.resize(static_cast<std::size_t>(n));
  const bool assembled =
      tc.last_counts.size() == static_cast<std::size_t>(n);
  if (assembled && tc.last_iterations == iterations &&
      tc.last_counts == d.counts()) {
    // Zero changed nodes: tc.pred already holds this exact evaluation.
    st.rows_reused.fetch_add(static_cast<std::uint64_t>(n),
                             std::memory_order_relaxed);
    if (st.reused_counter != nullptr)
      st.reused_counter->inc(static_cast<std::uint64_t>(n));
    st.evaluations.fetch_add(1, std::memory_order_relaxed);
    if (st.eval_counter != nullptr) st.eval_counter->inc();
    return tc.pred;
  }
  for (int r = 0; r < n; ++r) {
    const std::int64_t rows = d.count(r);
    if (assembled && tc.last_counts[static_cast<std::size_t>(r)] == rows) {
      ++reused;
      continue;
    }
    bool built = false;
    tc.row_ptr[static_cast<std::size_t>(r)] = tc.rows.resolve(
        r, rows,
        [&](double* row) {
          predictor_->build_row(r, rows, row, row + len, row + 2 * len);
        },
        built);
    ++(built ? computed : reused);
  }
  if (reused > 0) {
    st.rows_reused.fetch_add(reused, std::memory_order_relaxed);
    if (st.reused_counter != nullptr) st.reused_counter->inc(reused);
  }
  if (computed > 0) {
    st.rows_computed.fetch_add(computed, std::memory_order_relaxed);
    if (st.computed_counter != nullptr) st.computed_counter->inc(computed);
  }

  Clock::time_point t1;
  if (options_.time_components) {
    t1 = Clock::now();
    st.table_ns.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()),
        std::memory_order_relaxed);
  }

  Predictor::ScalarClock clock(*predictor_, n, tc.row_ptr.data(), tc.clocks,
                               tc.pred);
  predictor_->drive(clock, predictor_->comm_interned_,
                    static_cast<std::size_t>(iterations), nullptr);
  clock.finish();
  if (options_.time_components) {
    st.loop_ns.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 t1)
                .count()),
        std::memory_order_relaxed);
  }
  tc.last_counts = d.counts();
  tc.last_iterations = iterations;

  const std::uint64_t ordinal =
      st.evaluations.fetch_add(1, std::memory_order_relaxed) + 1;
  if (st.eval_counter != nullptr) st.eval_counter->inc();

  if (options_.crosscheck_every > 0 &&
      ordinal % static_cast<std::uint64_t>(options_.crosscheck_every) == 0) {
    const Prediction full = predictor_->predict(d, iterations);
    double drift = std::abs(tc.pred.total_s - full.total_s);
    const std::size_t nn =
        std::min(tc.pred.node_end_s.size(), full.node_end_s.size());
    for (std::size_t r = 0; r < nn; ++r)
      drift = std::max(drift,
                       std::abs(tc.pred.node_end_s[r] - full.node_end_s[r]));
    st.crosschecks.fetch_add(1, std::memory_order_relaxed);
    if (st.crosscheck_counter != nullptr) st.crosscheck_counter->inc();
    {
      std::lock_guard<std::mutex> lock(st.crosscheck_mu);
      if (drift > st.max_drift_s) {
        st.max_drift_s = drift;
        if (st.drift_gauge != nullptr) st.drift_gauge->set(drift);
      }
    }
    if (drift > options_.crosscheck_tolerance_s) {
      // Should be impossible (same stage values, same loop); trade the
      // speedup for correctness if it ever happens.
      st.fallback_forever.store(true, std::memory_order_relaxed);
      st.full_fallbacks.fetch_add(1, std::memory_order_relaxed);
      if (st.fallback_counter != nullptr) st.fallback_counter->inc();
      tc.last_counts.clear();
      tc.pred = full;
    }
  }
  return tc.pred;
}

// A call that throws drops its cache instead of giving it back, so a
// half-assembled set of row pointers is never diffed against.
Prediction IncrementalEvaluator::evaluate(const dist::GenBlock& d,
                                          int iterations) {
  std::unique_ptr<Cache> cache = state_->caches.take();
  Prediction out = evaluate_impl(d, iterations, *cache);
  state_->caches.give(std::move(cache));
  return out;
}

double IncrementalEvaluator::evaluate_total(const dist::GenBlock& d,
                                            int iterations) {
  std::unique_ptr<Cache> cache = state_->caches.take();
  const double total = evaluate_impl(d, iterations, *cache).total_s;
  state_->caches.give(std::move(cache));
  return total;
}

DeltaStats IncrementalEvaluator::stats() const {
  State& st = *state_;
  DeltaStats out;
  out.evaluations = st.evaluations.load(std::memory_order_relaxed);
  out.rows_reused = st.rows_reused.load(std::memory_order_relaxed);
  out.rows_computed = st.rows_computed.load(std::memory_order_relaxed);
  out.full_fallbacks = st.full_fallbacks.load(std::memory_order_relaxed);
  out.crosschecks = st.crosschecks.load(std::memory_order_relaxed);
  out.table_ns = st.table_ns.load(std::memory_order_relaxed);
  out.loop_ns = st.loop_ns.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(st.crosscheck_mu);
    out.max_drift_s = st.max_drift_s;
  }
  return out;
}

}  // namespace mheta::core
