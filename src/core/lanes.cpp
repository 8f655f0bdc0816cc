#include "core/lanes.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>

#include "core/walk.hpp"
#include "util/check.hpp"
#include "util/free_list.hpp"

namespace mheta::core {

namespace {

/// A group of candidates is swept in blocks of kMaxWidth lanes; the last
/// block takes the smallest of the compiled widths (4, 8, 16, 32) that
/// holds the rest, its spare lanes repeating its first lane (their clocks
/// are computed and never read). At a compile-time width every lane loop
/// has a constant trip count, so the compiler vectorizes it with no alias
/// or remainder checks.
constexpr std::size_t kMaxWidth = 32;

std::size_t block_width(std::size_t lanes) {
  std::size_t w = 4;
  while (w < lanes) w <<= 1;
  return w;
}

/// Calls f(std::integral_constant<std::size_t, w>{}) for a compiled width.
template <typename F>
void with_width(std::size_t w, F&& f) {
  switch (w) {
    case 4:
      return f(std::integral_constant<std::size_t, 4>{});
    case 8:
      return f(std::integral_constant<std::size_t, 8>{});
    case 16:
      return f(std::integral_constant<std::size_t, 16>{});
    default:
      MHETA_CHECK(w == kMaxWidth);
      return f(std::integral_constant<std::size_t, kMaxWidth>{});
  }
}

/// W candidates' clocks per rank: lane l of rank r at off[r * W + l]. Every
/// operation is the scalar clock's, applied lane by lane — each candidate's
/// dependent adds and maxes keep their order, and only the same step of
/// different candidates is interleaved — so the lane loops vectorize
/// without reassociating within a lane. The walk works on a rank's strip in
/// place. Stage times are gathered from each lane's own row through
/// rows[r * W + l]: rows are small and shared across lanes (population
/// candidates mostly agree on most ranks' counts), so the gathers hit a
/// working set of a few KB.
template <std::size_t W>
struct LaneClock : WalkHooks {
  using V = double*;  // the rank's strip of `off`
  static constexpr bool kTileOuter = false;
  static constexpr std::size_t width() { return W; }

  LaneClock(int n, const double* const* rows, ClockState& state)
      : n(n), rows(rows), state(state) {}

  double* load(int r) const {
    return state.off.data() + static_cast<std::size_t>(r) * W;
  }
  void store(int, double*) {}
  void reserve(Buf b, std::size_t slots) {
    std::vector<double>& v = state.buffer(b);
    v.resize(slots * W);
    buf[static_cast<int>(b)] = v.data();
  }

  double* stages(double* __restrict t, int r, std::size_t first, int count,
                 int) const {
    const double* const* rp = rows + static_cast<std::size_t>(r) * W;
    // Two stages per pass (each lane still adds them one at a time, in
    // order) halve the passes over the strip and its row pointers.
    std::size_t q = first;
    const std::size_t end = first + static_cast<std::size_t>(count);
    for (; q + 2 <= end; q += 2)
#pragma GCC unroll 4
      for (std::size_t l = 0; l < W; ++l)
        t[l] = (t[l] + rp[l][q]) + rp[l][q + 1];
    if (q < end)
#pragma GCC unroll 4
      for (std::size_t l = 0; l < W; ++l) t[l] += rp[l][q];
    return t;
  }
  double* send(double* __restrict t, int, double os, double x, Buf b,
               std::size_t slot, Hop, int) {
    double* __restrict a = buf[static_cast<int>(b)] + slot * W;
#pragma GCC unroll 4
    for (std::size_t l = 0; l < W; ++l) {
      t[l] += os;
      a[l] = t[l] + x;
    }
    return t;
  }
  double* recv(double* __restrict t, int, double orr, Buf b, std::size_t slot,
               Hop, int) const {
    const double* __restrict a = buf[static_cast<int>(b)] + slot * W;
#pragma GCC unroll 4
    for (std::size_t l = 0; l < W; ++l) t[l] = std::max(t[l], a[l]) + orr;
    return t;
  }

  int n;
  const double* const* rows;
  ClockState& state;
  double* buf[3] = {};  // state.buffer(b).data(), as of the last reserve
};

/// Each lane's makespan: the largest of base + offset over the n ranks —
/// the same values, compared the same way, as the scalar clock's node_end_s
/// reduction.
template <std::size_t W>
void makespans(const ClockState& cs, std::size_t n, double* __restrict out) {
  const double* __restrict base = cs.base.data();
  const double* __restrict off = cs.off.data();
  for (std::size_t l = 0; l < W; ++l) out[l] = base[l] + off[l];
  for (std::size_t r = 1; r < n; ++r)
    for (std::size_t l = 0; l < W; ++l)
      out[l] = std::max(out[l], base[l] + off[r * W + l]);
}

}  // namespace

/// Everything one call needs to evaluate lane groups without touching
/// shared state: a row cache, the per-(rank, lane) row pointers, and the
/// lanes' clock state. Checked out of the evaluator's free list for the
/// length of a call.
struct LaneEvaluator::Cache {
  RowCache rows;  // stage-time rows per (rank, rows)

  // Per-(rank, lane) row pointers, block by block: block b's start at
  // b * n * kMaxWidth, rank-major at the block's width. They stay valid
  // for the whole group, since the arena's rows never move.
  std::vector<const double*> row_ptr;

  // Reused build targets for the compute/io splits build_row always
  // writes; the totals-only sweep reads stage durations alone, so these
  // never leave this scratch.
  std::vector<double> compute_scratch;
  std::vector<double> io_scratch;

  std::vector<ClockState> clocks;    // one per block
  std::vector<double> check_totals;  // full-predict totals, crosscheck only
};

/// Statistics, the permanent-fallback latch and the evaluation caches,
/// shared by every copy and every thread. All stat updates are relaxed
/// atomics except the (rare) cross-check drift bookkeeping, which takes
/// `crosscheck_mu`.
struct LaneEvaluator::State {
  std::atomic<std::uint64_t> batched_sweeps{0};
  std::atomic<std::uint64_t> lane_evaluations{0};
  std::atomic<std::uint64_t> scalar_evaluations{0};
  std::atomic<std::uint64_t> idle_lanes{0};
  std::atomic<std::uint64_t> rows_reused{0};
  std::atomic<std::uint64_t> rows_computed{0};
  std::atomic<std::uint64_t> crosschecks{0};
  std::atomic<std::uint64_t> fallback_latches{0};
  std::atomic<std::uint64_t> assemble_ns{0};
  std::atomic<std::uint64_t> sweep_ns{0};
  std::atomic<bool> fallback_forever{false};
  std::mutex crosscheck_mu;
  double max_drift_s = 0;  // guarded by crosscheck_mu

  // Resolved once at construction when a registry is installed; updates are
  // atomic on the metrics themselves.
  obs::Counter* sweep_counter = nullptr;
  obs::Counter* lanes_counter = nullptr;
  obs::Counter* scalar_counter = nullptr;
  obs::Counter* idle_counter = nullptr;
  obs::Counter* crosscheck_counter = nullptr;
  obs::Counter* latch_counter = nullptr;
  obs::Gauge* fill_gauge = nullptr;
  obs::Gauge* drift_gauge = nullptr;

  // Caches not checked out by a call; freed with the evaluator.
  util::FreeList<Cache> caches;

  void note_scalar(std::uint64_t count) {
    scalar_evaluations.fetch_add(count, std::memory_order_relaxed);
    if (scalar_counter != nullptr) scalar_counter->inc(count);
  }
  void refresh_fill_gauge() {
    if (fill_gauge == nullptr) return;
    const double occupied = static_cast<double>(
        lane_evaluations.load(std::memory_order_relaxed));
    const double slots =
        occupied +
        static_cast<double>(idle_lanes.load(std::memory_order_relaxed));
    fill_gauge->set(slots > 0 ? occupied / slots : 0.0);
  }
};

LaneEvaluator::LaneEvaluator(const Predictor& predictor, Options options)
    : predictor_(&predictor),
      options_(options),
      state_(std::make_shared<State>()) {
  MHETA_CHECK(options_.lane_width >= 1);
  DeltaOptions dopts;
  dopts.row_cache_capacity = options_.row_cache_capacity;
  dopts.crosscheck_every = options_.crosscheck_every;
  dopts.crosscheck_tolerance_s = options_.crosscheck_tolerance_s;
  dopts.time_components = options_.time_components;
  dopts.metrics = options_.metrics;
  scalar_ = std::make_shared<IncrementalEvaluator>(predictor, dopts);

  if (options_.metrics != nullptr) {
    auto& m = *options_.metrics;
    state_->sweep_counter = &m.counter(
        "lane_eval_sweeps_total", "lane-batched clock-propagation sweeps");
    state_->lanes_counter = &m.counter(
        "lane_eval_lanes_total", "candidates evaluated inside lane batches");
    state_->scalar_counter = &m.counter(
        "lane_eval_scalar_fallbacks_total",
        "candidates served by the scalar delta path (below the fill "
        "threshold, single calls, disabled, or latched off)");
    state_->idle_counter = &m.counter(
        "lane_eval_idle_lanes_total",
        "unfilled lane slots of partially filled sweeps");
    state_->crosscheck_counter = &m.counter(
        "lane_eval_crosschecks_total", "per-lane lane-vs-full oracle "
                                       "comparisons");
    state_->latch_counter = &m.counter(
        "lane_eval_fallback_latches_total",
        "times crosscheck drift permanently latched lane batching off");
    state_->fill_gauge = &m.gauge(
        "lane_eval_fill_rate", "occupied fraction of all lane slots swept");
    state_->drift_gauge = &m.gauge(
        "lane_eval_max_drift_s", "worst |lane - full| drift observed (s)");
  }
}

void LaneEvaluator::evaluate_totals(const dist::GenBlock* candidates,
                                    std::size_t count, int iterations,
                                    double* totals) {
  MHETA_CHECK(iterations >= 1);
  if (count == 0) return;
  State& st = *state_;
  const std::size_t width =
      static_cast<std::size_t>(std::max(1, options_.lane_width));
  const std::size_t min_fill = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::max(0, options_.min_fill)));
  std::unique_ptr<Cache> cache;  // checked out by the first lane group
  std::size_t i = 0;
  while (i < count) {
    const std::size_t group = std::min(width, count - i);
    // The latch is re-read per group so drift caught mid-batch stops all
    // remaining groups, not just the next call.
    const bool batch =
        options_.enabled && group >= min_fill &&
        !st.fallback_forever.load(std::memory_order_relaxed);
    if (batch) {
      if (cache == nullptr) cache = st.caches.take();
      evaluate_group(candidates + i, group, iterations, totals + i, *cache);
    } else {
      for (std::size_t j = 0; j < group; ++j)
        totals[i + j] = scalar_->evaluate_total(candidates[i + j], iterations);
      st.note_scalar(group);
    }
    i += group;
  }
  // A call that throws drops its cache instead of giving it back.
  if (cache != nullptr) st.caches.give(std::move(cache));
}

Prediction LaneEvaluator::evaluate(const dist::GenBlock& d, int iterations) {
  state_->note_scalar(1);
  return scalar_->evaluate(d, iterations);
}

double LaneEvaluator::evaluate_total(const dist::GenBlock& d, int iterations) {
  state_->note_scalar(1);
  return scalar_->evaluate_total(d, iterations);
}

void LaneEvaluator::evaluate_group(const dist::GenBlock* candidates,
                                   std::size_t count, int iterations,
                                   double* totals, Cache& tc) {
  State& st = *state_;
  const int n = predictor_->params().node_count();
  const int lanes = static_cast<int>(count);

  using Clock = std::chrono::steady_clock;
  Clock::time_point t0;
  if (options_.time_components) t0 = Clock::now();

  // Assemble: resolve each (rank, lane) to its per-(rank, rows) stage row.
  // Rows come from (or land in) the call's cache and are built by the
  // same Predictor::build_rank_section the full path uses, so every lane's
  // stage values are bit-identical to a fresh predict() for that candidate.
  // No lane-major copy is made — the sweep reads the rows in place through
  // tc.row_ptr.
  std::uint64_t reused = 0;
  std::uint64_t computed = 0;
  const std::size_t nz = static_cast<std::size_t>(n);
  // Blocks of kMaxWidth lanes, the last one narrower when it holds fewer.
  const std::size_t blocks = (count + kMaxWidth - 1) / kMaxWidth;
  const std::size_t tail = count - (blocks - 1) * kMaxWidth;  // its lanes
  const std::size_t tail_width = block_width(tail);
  auto width_of = [&](std::size_t b) {
    return b + 1 < blocks ? kMaxWidth : tail_width;
  };
  const std::size_t len = predictor_->row_len_;
  // The wholesale clear runs between groups, never mid-assembly (rows
  // resolved for earlier lanes stay live for the whole group); the table
  // is sized so one group's worst-case inserts (every lane of every rank
  // novel) still leave it at most half full.
  tc.rows.prepare(options_.row_cache_capacity, nz * count, len);
  if (tc.row_ptr.size() < blocks * nz * kMaxWidth)
    tc.row_ptr.resize(blocks * nz * kMaxWidth);
  if (tc.clocks.size() < blocks) tc.clocks.resize(blocks);
  if (tc.compute_scratch.size() != len) {
    tc.compute_scratch.resize(len);
    tc.io_scratch.resize(len);
  }
  for (std::size_t l = 0; l < count; ++l)
    MHETA_CHECK(candidates[l].nodes() == n);
  for (std::size_t l = 0; l < count; ++l) {
    const std::size_t b = l / kMaxWidth;
    const std::size_t w = width_of(b);
    const double** rp = tc.row_ptr.data() + b * nz * kMaxWidth + l % kMaxWidth;
    const std::int64_t* counts = candidates[l].counts().data();
    for (int r = 0; r < n; ++r) {
      const std::int64_t rows = counts[r];
      bool built = false;
      rp[static_cast<std::size_t>(r) * w] = tc.rows.resolve(
          r, rows,
          [&](double* row) {
            predictor_->build_row(r, rows, row, tc.compute_scratch.data(),
                                  tc.io_scratch.data());
          },
          built);
      ++(built ? computed : reused);
    }
  }
  for (std::size_t r = 0; r < nz; ++r) {
    const double** rp =
        tc.row_ptr.data() + (blocks - 1) * nz * kMaxWidth + r * tail_width;
    std::fill(rp + tail, rp + tail_width, rp[0]);
  }
  if (reused > 0) st.rows_reused.fetch_add(reused, std::memory_order_relaxed);
  if (computed > 0)
    st.rows_computed.fetch_add(computed, std::memory_order_relaxed);

  Clock::time_point t1;
  if (options_.time_components) {
    t1 = Clock::now();
    st.assemble_ns.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()),
        std::memory_order_relaxed);
  }

  for (std::size_t b = 0; b < blocks; ++b)
    with_width(width_of(b), [&](auto w) {
      LaneClock<decltype(w)::value> clock(
          n, tc.row_ptr.data() + b * nz * kMaxWidth, tc.clocks[b]);
      predictor_->drive(clock, predictor_->comm_interned_,
                        static_cast<std::size_t>(iterations), nullptr);
    });

  if (options_.time_components) {
    st.sweep_ns.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 t1)
                .count()),
        std::memory_order_relaxed);
  }

  for (std::size_t b = 0; b < blocks; ++b)
    with_width(width_of(b), [&](auto w) {
      constexpr std::size_t W = decltype(w)::value;
      double span[W];
      makespans<W>(tc.clocks[b], nz, span);
      std::copy_n(span, b + 1 < blocks ? kMaxWidth : tail,
                  totals + b * kMaxWidth);
    });
  // Lane l's end time on rank r, for the crosscheck below.
  auto lane_end = [&](int l, std::size_t r) {
    const std::size_t b = static_cast<std::size_t>(l) / kMaxWidth;
    const std::size_t k = static_cast<std::size_t>(l) % kMaxWidth;
    const ClockState& cs = tc.clocks[b];
    return cs.base[k] + cs.off[r * width_of(b) + k];
  };

  const std::uint64_t ordinal =
      st.batched_sweeps.fetch_add(1, std::memory_order_relaxed) + 1;
  st.lane_evaluations.fetch_add(static_cast<std::uint64_t>(lanes),
                                std::memory_order_relaxed);
  const std::uint64_t idle =
      static_cast<std::uint64_t>(std::max(0, options_.lane_width - lanes));
  if (idle > 0) st.idle_lanes.fetch_add(idle, std::memory_order_relaxed);
  if (st.sweep_counter != nullptr) st.sweep_counter->inc();
  if (st.lanes_counter != nullptr)
    st.lanes_counter->inc(static_cast<std::uint64_t>(lanes));
  if (st.idle_counter != nullptr && idle > 0) st.idle_counter->inc(idle);
  st.refresh_fill_gauge();

  if (options_.crosscheck_every > 0 &&
      ordinal % static_cast<std::uint64_t>(options_.crosscheck_every) == 0) {
    // Oracle: every lane of this sweep against a full Predictor::predict,
    // makespan and per-node end times both.
    tc.check_totals.resize(static_cast<std::size_t>(lanes));
    double worst = 0;
    for (int l = 0; l < lanes; ++l) {
      const Prediction full =
          predictor_->predict(candidates[static_cast<std::size_t>(l)],
                              iterations);
      tc.check_totals[static_cast<std::size_t>(l)] = full.total_s;
      double drift =
          std::abs(totals[static_cast<std::size_t>(l)] - full.total_s);
      for (std::size_t r = 0; r < nz; ++r)
        drift = std::max(drift,
                         std::abs(lane_end(l, r) - full.node_end_s[r]));
      worst = std::max(worst, drift);
    }
    st.crosschecks.fetch_add(static_cast<std::uint64_t>(lanes),
                             std::memory_order_relaxed);
    if (st.crosscheck_counter != nullptr)
      st.crosscheck_counter->inc(static_cast<std::uint64_t>(lanes));
    {
      std::lock_guard<std::mutex> lock(st.crosscheck_mu);
      if (worst > st.max_drift_s) {
        st.max_drift_s = worst;
        if (st.drift_gauge != nullptr) st.drift_gauge->set(worst);
      }
    }
    if (worst > options_.crosscheck_tolerance_s) {
      // Should be impossible (same stage values, same per-lane op order);
      // trade the speedup for correctness if it ever happens.
      st.fallback_forever.store(true, std::memory_order_relaxed);
      st.fallback_latches.fetch_add(1, std::memory_order_relaxed);
      if (st.latch_counter != nullptr) st.latch_counter->inc();
      for (int l = 0; l < lanes; ++l)
        totals[static_cast<std::size_t>(l)] =
            tc.check_totals[static_cast<std::size_t>(l)];
    }
  }
}

LaneStats LaneEvaluator::stats() const {
  State& st = *state_;
  LaneStats out;
  out.batched_sweeps = st.batched_sweeps.load(std::memory_order_relaxed);
  out.lane_evaluations = st.lane_evaluations.load(std::memory_order_relaxed);
  out.scalar_evaluations =
      st.scalar_evaluations.load(std::memory_order_relaxed);
  out.idle_lanes = st.idle_lanes.load(std::memory_order_relaxed);
  out.rows_reused = st.rows_reused.load(std::memory_order_relaxed);
  out.rows_computed = st.rows_computed.load(std::memory_order_relaxed);
  out.crosschecks = st.crosschecks.load(std::memory_order_relaxed);
  out.fallback_latches = st.fallback_latches.load(std::memory_order_relaxed);
  out.assemble_ns = st.assemble_ns.load(std::memory_order_relaxed);
  out.sweep_ns = st.sweep_ns.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(st.crosscheck_mu);
    out.max_drift_s = st.max_drift_s;
  }
  return out;
}

}  // namespace mheta::core
