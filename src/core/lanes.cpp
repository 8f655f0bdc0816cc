#include "core/lanes.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <utility>

#include "util/check.hpp"
#include "util/free_list.hpp"

namespace mheta::core {

namespace {

inline std::uint64_t mix_key(std::uint64_t key) {
  // splitmix64 finalizer.
  key ^= key >> 30;
  key *= 0xBF58476D1CE4E5B9ull;
  key ^= key >> 27;
  key *= 0x94D049BB133111EBull;
  key ^= key >> 31;
  return key;
}

}  // namespace

/// Open-addressed (rank, rows) -> stage-row map: power-of-two capacity,
/// linear probing, no deletion (the cache is cleared wholesale when the row
/// count would exceed the configured capacity, exactly like the delta
/// path's map). A find is one multiply-shift hash plus on average a single
/// probe — the assembly loop performs one per (lane, rank), so this lookup
/// is the lane path's hottest non-vector operation. Row storage is a
/// chunked arena: rows never move once written (pointers handed to the
/// sweep stay valid), a miss costs one bump allocation instead of a heap
/// round-trip, and a wholesale clear keeps the chunks for reuse.
struct LaneEvaluator::RowCache {
  static constexpr std::uint64_t kEmpty = ~0ull;
  static constexpr std::size_t kRowsPerChunk = 256;
  // Key and row id share one 16-byte slot so a probe touches a single cache
  // line; the table is sparse, so separate arrays would cost two misses per
  // lookup on the (random-keyed) hot path.
  struct Entry {
    std::uint64_t key;
    std::uint32_t id;
  };
  std::vector<Entry> slots;  // pow2; key == kEmpty marks a free slot
  std::vector<std::unique_ptr<double[]>> chunks;
  std::size_t row_len = 0;
  std::size_t count = 0;  // rows written into the arena
  std::size_t mask = 0;

  void reset(std::size_t capacity_hint, std::size_t len) {
    std::size_t cap = 64;
    while (cap < capacity_hint * 2) cap <<= 1;
    slots.assign(cap, Entry{kEmpty, 0});
    if (row_len != len) {
      chunks.clear();
      row_len = len;
    }
    count = 0;
    mask = cap - 1;
  }

  std::size_t slot_of(std::uint64_t key) const {
    std::size_t s = static_cast<std::size_t>(mix_key(key)) & mask;
    while (slots[s].key != key && slots[s].key != kEmpty) s = (s + 1) & mask;
    return s;
  }

  double* row(std::size_t id) const {
    return chunks[id / kRowsPerChunk].get() + (id % kRowsPerChunk) * row_len;
  }

  /// Bump-allocates the next row slot (uninitialized; the caller fills it).
  std::size_t push_row() {
    const std::size_t id = count++;
    if (id / kRowsPerChunk == chunks.size())
      chunks.push_back(
          std::make_unique_for_overwrite<double[]>(kRowsPerChunk * row_len));
    return id;
  }
};

/// Everything one call needs to evaluate lane groups without touching
/// shared state: a row cache, the lane-major stage tables, and all sweep
/// scratch. Checked out of the evaluator's free list for the length of a
/// call.
struct LaneEvaluator::Cache {
  RowCache rows;

  // Per-(rank, lane) stage-row pointers, lane-major n * lanes. The sweep
  // gathers stage durations straight out of the cached rows through these
  // — rows are small and shared across lanes (population candidates mostly
  // agree on most ranks' counts), so the gathers hit a working set of a
  // few KB instead of a freshly scattered n * row_len * lanes table. The
  // pointers stay valid for the whole group: arena chunks never move.
  std::vector<const double*> row_ptr;

  // Reused build targets for the compute/io splits build_rank_section
  // always writes; the totals-only sweep reads stage durations alone, so
  // these never leave this scratch.
  std::vector<double> compute_scratch;
  std::vector<double> io_scratch;

  // Per-(rank, lane) clock state of the sweep, all lane-major n * lanes.
  std::vector<double> off;
  std::vector<double> start;
  std::vector<double> prev_off;
  std::vector<double> last_end;
  std::vector<double> arrivals;  // pipeline / NN / collective arrival slots
  std::vector<double> coll_a;
  std::vector<double> coll_b;

  // Per-lane state, all `lanes` wide.
  std::vector<double> base;      // renormalization absorbed so far
  std::vector<double> mins;      // this iteration's renorm delta
  std::vector<double> last_m;    // previous iteration's renorm delta
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

  const auto& sections = predictor.structure().sections;
  section_offset_.reserve(sections.size());
  section_len_.reserve(sections.size());
  for (const auto& section : sections) {
    const int tiles =
        section.pattern == CommPattern::kPipeline ? section.tiles : 1;
    section_offset_.push_back(row_len_);
    section_len_.push_back(static_cast<std::size_t>(tiles) *
                           section.stages.size());
    row_len_ += section_len_.back();
  }
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
  const std::size_t nsections = section_len_.size();

  using Clock = std::chrono::steady_clock;
  Clock::time_point t0;
  if (options_.time_components) t0 = Clock::now();

  // Assemble: resolve each (rank, lane) to its per-(rank, rows) stage row.
  // Rows come from (or land in) the call's cache and are built by the
  // same Predictor::build_rank_section the full path uses, so every lane's
  // stage values are bit-identical to a fresh build_iteration_cache for
  // that candidate. No lane-major copy is made — the sweep reads the rows
  // in place through tc.row_ptr.
  std::uint64_t reused = 0;
  std::uint64_t computed = 0;
  const std::size_t wl = static_cast<std::size_t>(lanes);
  RowCache& rc = tc.rows;
  // The wholesale clear runs between groups, never mid-assembly (rows
  // resolved for earlier lanes stay live for the whole group); the table
  // is sized so one group's worst-case inserts (every lane of every rank
  // novel) still leave it at most half full.
  const std::size_t group_headroom = static_cast<std::size_t>(n) * wl;
  if (rc.slots.empty() || rc.count >= options_.row_cache_capacity ||
      rc.row_len != row_len_)
    rc.reset(options_.row_cache_capacity + group_headroom, row_len_);
  if (tc.row_ptr.size() < static_cast<std::size_t>(n) * wl)
    tc.row_ptr.resize(static_cast<std::size_t>(n) * wl);
  if (tc.compute_scratch.size() != row_len_) {
    tc.compute_scratch.resize(row_len_);
    tc.io_scratch.resize(row_len_);
  }
  for (int l = 0; l < lanes; ++l)
    MHETA_CHECK(candidates[static_cast<std::size_t>(l)].nodes() == n);
  for (int r = 0; r < n; ++r) {
    const double** rp = tc.row_ptr.data() + static_cast<std::size_t>(r) * wl;
    std::uint64_t prev_key = RowCache::kEmpty;
    const double* prev_row = nullptr;
    for (int l = 0; l < lanes; ++l) {
      const std::int64_t rows = candidates[static_cast<std::size_t>(l)].count(r);
      // Ranks and row counts both fit the packing by a wide margin (the
      // model's node counts are small; 2^44 rows is far beyond any input).
      const std::uint64_t key =
          (static_cast<std::uint64_t>(r) << 44) | static_cast<std::uint64_t>(rows);
      // Adjacent lanes frequently agree on a rank's count (elites and their
      // offspring); skip the hash probe when this lane repeats the last key.
      if (key == prev_key) {
        rp[static_cast<std::size_t>(l)] = prev_row;
        ++reused;
        continue;
      }
      const std::size_t slot = rc.slot_of(key);
      if (rc.slots[slot].key == RowCache::kEmpty) {
        const std::size_t id = rc.push_row();
        double* stage = rc.row(id);
        const auto plan = predictor_->plan_for_rank(r, rows);
        for (std::size_t si = 0; si < nsections; ++si) {
          const std::size_t off = section_offset_[si];
          predictor_->build_rank_section(
              r, static_cast<int>(si), rows, *plan, /*scale=*/1.0, stage + off,
              tc.compute_scratch.data() + off, tc.io_scratch.data() + off,
              nullptr);
        }
        rc.slots[slot] = RowCache::Entry{key, static_cast<std::uint32_t>(id)};
        ++computed;
      } else {
        ++reused;
      }
      prev_key = key;
      prev_row = rc.row(rc.slots[slot].id);
      rp[static_cast<std::size_t>(l)] = prev_row;
    }
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

  sweep(tc, n, lanes, iterations);

  if (options_.time_components) {
    st.sweep_ns.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 t1)
                .count()),
        std::memory_order_relaxed);
  }

  // Makespan per lane: max over ranks of base + offset — the same values,
  // compared the same way, as the scalar loop's node_end_s reduction.
  for (int l = 0; l < lanes; ++l) {
    double best = tc.base[static_cast<std::size_t>(l)] +
                  tc.off[static_cast<std::size_t>(l)];
    for (int r = 1; r < n; ++r) {
      const double end =
          tc.base[static_cast<std::size_t>(l)] +
          tc.off[static_cast<std::size_t>(r * lanes + l)];
      best = std::max(best, end);
    }
    totals[static_cast<std::size_t>(l)] = best;
  }

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
      for (int r = 0; r < n; ++r) {
        const double lane_end =
            tc.base[static_cast<std::size_t>(l)] +
            tc.off[static_cast<std::size_t>(r * lanes + l)];
        drift = std::max(
            drift,
            std::abs(lane_end - full.node_end_s[static_cast<std::size_t>(r)]));
      }
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

void LaneEvaluator::sweep(Cache& tc, int n, int lanes, int iterations) {
  // The K-lane mirror of Predictor::run_iterations for uniform scale-1.0
  // iterations: per-(rank, lane) clocks in offset space, per-lane base
  // absorbed by renormalization, and the steady-state shortcut taken when
  // the whole lane block repeats bitwise. Lane `l`'s slice performs exactly
  // the scalar loop's operation sequence; see lanes.hpp for the argument.
  const std::size_t block = static_cast<std::size_t>(n * lanes);
  const std::size_t wl = static_cast<std::size_t>(lanes);
  tc.off.assign(block, 0.0);
  tc.base.assign(wl, 0.0);
  tc.mins.resize(wl);
  tc.last_m.assign(wl, 0.0);
  bool prev_valid = false;

  const bool shortcut = predictor_->options().steady_state_shortcut;
  const std::size_t nsections = section_len_.size();
  const std::size_t total = static_cast<std::size_t>(iterations);
  std::size_t k = 0;
  while (k < total) {
    if (shortcut && prev_valid &&
        std::memcmp(tc.off.data(), tc.prev_off.data(),
                    block * sizeof(double)) == 0) {
      // Steady state across all lanes (uniform iterations always cover the
      // final one): replay the recorded step, leaving the final iteration
      // un-renormalized, exactly as the scalar loop does — the base sees
      // the same repeated adds, one per collapsed iteration. (The scalar
      // replay also accumulates the diagnostic compute/io sums; the lane
      // path never computes those, and the clocks don't depend on them.)
      const std::size_t full = (total - k) - 1;
      for (std::size_t i = 0; i < full; ++i)
        for (std::size_t l = 0; l < wl; ++l) tc.base[l] += tc.last_m[l];
      tc.off = tc.last_end;
      k = total;
      break;
    }

    // One full iteration across all lanes.
    tc.start.assign(tc.off.begin(), tc.off.end());
    for (std::size_t si = 0; si < nsections; ++si)
      lane_section(static_cast<int>(si), tc, n, lanes);
    ++k;
    if (k == total) break;  // the final iteration stays un-renormalized

    // Renormalize each lane: min over that lane's ranks, subtracted — the
    // same value the scalar min_element scan finds, subtracted in the same
    // per-element order.
    tc.last_end.assign(tc.off.begin(), tc.off.end());
    std::copy(tc.off.begin(), tc.off.begin() + static_cast<std::ptrdiff_t>(wl),
              tc.mins.begin());
    for (int r = 1; r < n; ++r) {
      const double* o = tc.off.data() + static_cast<std::size_t>(r) * wl;
      for (std::size_t l = 0; l < wl; ++l)
        if (o[l] < tc.mins[l]) tc.mins[l] = o[l];
    }
    for (std::size_t l = 0; l < wl; ++l) tc.base[l] += tc.mins[l];
    for (int r = 0; r < n; ++r) {
      double* o = tc.off.data() + static_cast<std::size_t>(r) * wl;
      for (std::size_t l = 0; l < wl; ++l) o[l] -= tc.mins[l];
    }
    tc.last_m = tc.mins;
    std::swap(tc.prev_off, tc.start);
    prev_valid = true;
  }
}

void LaneEvaluator::lane_section(int section_index, Cache& tc, int n,
                                 int lanes) {
  const SectionSpec& section =
      predictor_->structure_.sections[static_cast<std::size_t>(section_index)];
  // This section's slots live at [soff, soff + len) of every stage row;
  // lane l of rank r reads its own row via rows[r * lanes + l].
  const std::size_t soff =
      section_offset_[static_cast<std::size_t>(section_index)];
  const double* const* rows = tc.row_ptr.data();
  const int stages = static_cast<int>(section.stages.size());
  const auto& ic =
      predictor_->comm_interned_[static_cast<std::size_t>(section_index)];
  const std::size_t wl = static_cast<std::size_t>(lanes);
  double* t = tc.off.data();

  if (section.pattern == CommPattern::kPipeline) {
    // Eq. 4 generalized, K lanes wide: tile j of node r starts after its
    // own tile j-1 and after node r-1's tile-j boundary arrives. Arrival
    // slot r is written (by r at tile j) before rank r+1 reads it.
    const int tiles = section.tiles;
    if (tc.arrivals.size() < static_cast<std::size_t>(n) * wl)
      tc.arrivals.resize(static_cast<std::size_t>(n) * wl);
    double* arr = tc.arrivals.data();
    for (int j = 0; j < tiles; ++j) {
      for (int r = 0; r < n; ++r) {
        double* tr = t + static_cast<std::size_t>(r) * wl;
        if (r > 0) {
          const double orr = predictor_->o_r(r);
          const double* a = arr + static_cast<std::size_t>(r - 1) * wl;
          for (std::size_t l = 0; l < wl; ++l)
            tr[l] = std::max(tr[l], a[l]) + orr;
        }
        const double* const* rp = rows + static_cast<std::size_t>(r) * wl;
        const std::size_t base_idx =
            soff + static_cast<std::size_t>(j) * static_cast<std::size_t>(stages);
        for (int g = 0; g < stages; ++g) {
          const std::size_t q = base_idx + static_cast<std::size_t>(g);
          for (std::size_t l = 0; l < wl; ++l) tr[l] += rp[l][q];
        }
        if (r < n - 1) {
          const double os = predictor_->o_s(r);
          const double x =
              ic.pipeline_transfer_s[static_cast<std::size_t>(r)];
          double* a = arr + static_cast<std::size_t>(r) * wl;
          for (std::size_t l = 0; l < wl; ++l) {
            tr[l] += os;
            a[l] = tr[l] + x;
          }
        }
      }
    }
  } else {
    // Stages over the whole local array: rank r's K-wide clock strip
    // accumulates each lane's own row value for the stage (a gather over at
    // most K small, hot rows — usually far fewer, since lanes share rows).
    for (int r = 0; r < n; ++r) {
      double* tr = t + static_cast<std::size_t>(r) * wl;
      const double* const* rp = rows + static_cast<std::size_t>(r) * wl;
      for (int g = 0; g < stages; ++g) {
        const std::size_t q = soff + static_cast<std::size_t>(g);
        for (std::size_t l = 0; l < wl; ++l) tr[l] += rp[l][q];
      }
    }
    if (section.pattern == CommPattern::kNearestNeighbor) {
      // Eq. 3 generalized: recorded sends then recorded receives; the FIFO
      // send/recv matching was resolved at construction, shared by lanes.
      MHETA_CHECK_MSG(ic.matched, "recv without matching send in model");
      if (tc.arrivals.size() < static_cast<std::size_t>(ic.total_sends) * wl)
        tc.arrivals.resize(static_cast<std::size_t>(ic.total_sends) * wl);
      double* arr = tc.arrivals.data();
      for (int r = 0; r < n; ++r) {
        double* tr = t + static_cast<std::size_t>(r) * wl;
        const auto& sends = ic.sends[static_cast<std::size_t>(r)];
        const int base = ic.send_offset[static_cast<std::size_t>(r)];
        const double os = predictor_->o_s(r);
        for (std::size_t k = 0; k < sends.size(); ++k) {
          const double x = sends[k].transfer_s;
          double* a =
              arr + (static_cast<std::size_t>(base) + k) * wl;
          for (std::size_t l = 0; l < wl; ++l) {
            tr[l] += os;
            a[l] = tr[l] + x;
          }
        }
      }
      for (int r = 0; r < n; ++r) {
        double* tr = t + static_cast<std::size_t>(r) * wl;
        const double orr = predictor_->o_r(r);
        for (const auto& rv : ic.recvs[static_cast<std::size_t>(r)]) {
          const double* a =
              arr + static_cast<std::size_t>(rv.send_slot) * wl;
          for (std::size_t l = 0; l < wl; ++l)
            tr[l] = std::max(tr[l], a[l]) + orr;
        }
      }
    }
  }

  if (section.has_alltoall)
    lane_alltoall(section.alltoall_bytes_per_pair, t, n, lanes, tc.coll_a);
  if (section.has_reduction)
    lane_reduction(section.reduce_bytes, t, n, lanes, tc.coll_a, tc.coll_b);
}

void LaneEvaluator::lane_reduction(std::int64_t bytes, double* t, int n,
                                   int lanes, std::vector<double>& arrival,
                                   std::vector<double>& bcast) const {
  if (n <= 1) return;
  const double x = predictor_->params_.network.transfer_s(bytes);
  const std::size_t wl = static_cast<std::size_t>(lanes);

  // Reduce to rank 0 over the binomial tree (mirrors apply_reduction lane
  // for lane).
  arrival.assign(static_cast<std::size_t>(n) * wl, 0.0);
  for (int mask = 1; mask < n; mask <<= 1) {
    for (int r = 0; r < n; ++r) {
      if ((r & mask) != 0 && (r & (mask - 1)) == 0) {
        double* tr = t + static_cast<std::size_t>(r) * wl;
        double* a = arrival.data() + static_cast<std::size_t>(r) * wl;
        const double os = predictor_->o_s(r);
        for (std::size_t l = 0; l < wl; ++l) {
          tr[l] += os;
          a[l] = tr[l] + x;
        }
      }
    }
    for (int r = 0; r < n; ++r) {
      if ((r & mask) == 0 && (r & (mask - 1)) == 0) {
        const int partner = r | mask;
        if (partner < n) {
          double* tr = t + static_cast<std::size_t>(r) * wl;
          const double* a =
              arrival.data() + static_cast<std::size_t>(partner) * wl;
          const double orr = predictor_->o_r(r);
          for (std::size_t l = 0; l < wl; ++l)
            tr[l] = std::max(tr[l], a[l]) + orr;
        }
      }
    }
  }

  // Broadcast from rank 0.
  bcast.assign(static_cast<std::size_t>(n) * wl, 0.0);
  for (int r = 0; r < n; ++r) {
    int entry;
    if (r == 0) {
      entry = 1;
      while (entry < n) entry <<= 1;
    } else {
      double* tr = t + static_cast<std::size_t>(r) * wl;
      const double* b = bcast.data() + static_cast<std::size_t>(r) * wl;
      const double orr = predictor_->o_r(r);
      for (std::size_t l = 0; l < wl; ++l)
        tr[l] = std::max(tr[l], b[l]) + orr;
      entry = r & -r;  // lowest set bit
    }
    for (int m = entry >> 1; m >= 1; m >>= 1) {
      if (r + m < n) {
        double* tr = t + static_cast<std::size_t>(r) * wl;
        double* b = bcast.data() + static_cast<std::size_t>(r + m) * wl;
        const double os = predictor_->o_s(r);
        for (std::size_t l = 0; l < wl; ++l) {
          tr[l] += os;
          b[l] = tr[l] + x;
        }
      }
    }
  }
}

void LaneEvaluator::lane_alltoall(std::int64_t bytes_per_pair, double* t,
                                  int n, int lanes,
                                  std::vector<double>& arrival) const {
  if (n <= 1) return;
  const double x = predictor_->params_.network.transfer_s(bytes_per_pair);
  const std::size_t wl = static_cast<std::size_t>(lanes);
  // Ring-shifted pairwise exchange (mirrors apply_alltoall lane for lane).
  arrival.assign(static_cast<std::size_t>(n) * wl, 0.0);
  for (int s = 1; s < n; ++s) {
    for (int r = 0; r < n; ++r) {
      double* tr = t + static_cast<std::size_t>(r) * wl;
      double* a = arrival.data() +
                  static_cast<std::size_t>((r + s) % n) * wl;
      const double os = predictor_->o_s(r);
      for (std::size_t l = 0; l < wl; ++l) {
        tr[l] += os;
        a[l] = tr[l] + x;
      }
    }
    for (int r = 0; r < n; ++r) {
      double* tr = t + static_cast<std::size_t>(r) * wl;
      const double* a = arrival.data() + static_cast<std::size_t>(r) * wl;
      const double orr = predictor_->o_r(r);
      for (std::size_t l = 0; l < wl; ++l)
        tr[l] = std::max(tr[l], a[l]) + orr;
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
