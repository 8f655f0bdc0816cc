// The clock walk (paper §4.2), written once over a clock policy.
//
// Every way the model is evaluated advances per-rank clocks through the same
// recurrence: per section the stage runs, the Eq. 4 pipeline or the Eq. 3
// nearest-neighbour exchange, then the ring alltoall and the binomial
// reduce + broadcast; per iteration a renormalization by the minimum offset
// and the bitwise steady-state test that collapses repeated iterations.
// Predictor::walk_section and Predictor::drive hold that recurrence. What a
// clock *is* comes from the policy they are instantiated with:
//
//   - ScalarClock (below): one double per rank. predict, predict_nonuniform,
//     predict2d and IncrementalEvaluator run it.
//   - LaneClock<W> (lanes.cpp): a strip of W doubles per rank, one per
//     candidate, at a compile-time width W; LaneEvaluator runs it.
//   - TracedClock (critical.cpp): the scalar clock plus one SweepEvent per
//     advance; predict_traced runs it, and predict_attributed folds its
//     events.
//
// A policy supplies its width (lanes per rank, a compile-time constant),
// load/store of a rank's clock (a value V the walk keeps in a local while it
// works on one rank), the three advance shapes (a stage run, a send, a
// receive) and the walk's arrival buffers. Each lane of each
// policy performs the same adds and maxes on the same operands in the same
// order, so the three agree bit for bit by construction; the golden-bits,
// delta, lane and traced oracles pin it.
//
// Every clock reads stage times through per-rank row pointers in the
// Predictor's flat row layout (row_offset_): section si occupies
// [row_offset_[si], row_offset_[si] + row_span_[si]) of a rank's row, tile
// by tile and stage by stage. A *full* row of 3 * row_len_ doubles also
// carries the compute and I/O splits at offsets row_len_ and 2 * row_len_
// (the diagnostic sums need them); lane rows carry stage times only.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "core/model.hpp"
#include "util/check.hpp"

namespace mheta::core {

/// The walk's arrival buffers: point-to-point arrivals (pipeline tiles or
/// nearest-neighbour send slots), and the two collective trees'.
enum class Buf { kArrivals, kCollA, kCollB };

/// Whether a send or receive is point to point or a collective hop (only
/// the traced clock tells them apart).
enum class Hop { kPointToPoint, kCollective };

/// Per-(rank, lane) clock state of the driver plus the walk's arrival
/// scratch. off/start/prev_off/last_end hold n * width doubles, base, mins
/// and last_m one per lane. Reusable across calls of any shape: the driver
/// and the walk size and write every element before they read it.
struct ClockState {
  std::vector<double> off;       // offsets within the current iteration
  std::vector<double> start;     // this iteration's starting offsets
  std::vector<double> prev_off;  // the previous iteration's
  std::vector<double> last_end;  // offsets before the last renormalization
  std::vector<double> base;      // renormalization absorbed so far
  std::vector<double> mins;      // this iteration's renormalization
  std::vector<double> last_m;    // the previous iteration's
  std::vector<double> arrivals;
  std::vector<double> coll_a;
  std::vector<double> coll_b;

  std::vector<double>& buffer(Buf b) {
    return b == Buf::kArrivals ? arrivals : b == Buf::kCollA ? coll_a : coll_b;
  }
};

/// The driver's per-iteration hooks, all no-ops; a clock overrides those it
/// needs.
struct WalkHooks {
  /// Before each iteration at `scale`; true when the stage rows changed
  /// (which restarts the steady-state test).
  bool prepare(double /*scale*/) { return false; }
  void begin_iteration(std::size_t /*k*/) {}
  void begin_section(int /*section_index*/) {}
  void end_iteration() {}
  /// `count` iterations replayed by the steady-state shortcut.
  void replay(std::size_t /*count*/) {}
  /// After a renormalization by `mins` (one per lane).
  void renormalized(const double* /*mins*/) {}
};

/// Open-addressed (rank, rows) -> row map over a chunked arena: power-of-two
/// table, linear probing, no deletion. Rows never move once written, so the
/// row pointers a sweep holds stay valid until the next reset; a miss costs
/// one bump allocation, and a reset keeps the chunks for reuse. A cache is
/// only reset before an assembly, which then resolves every rank afresh.
class RowCache {
 public:
  /// Resets the cache when it holds `capacity` rows or more, rows of
  /// another length, or too many rows for `headroom` more inserts (one
  /// assembly's worst case) to leave the table at most half full; the table
  /// is then sized for capacity + headroom rows. True when it reset.
  bool prepare(std::size_t capacity, std::size_t headroom, std::size_t len) {
    if (!slots_.empty() && count_ < capacity && row_len_ == len &&
        (count_ + headroom) * 2 <= slots_.size())
      return false;
    std::size_t cap = 64;
    while (cap < (capacity + headroom) * 2) cap <<= 1;
    slots_.assign(cap, Entry{kEmpty, nullptr});
    if (row_len_ != len) {
      chunks_.clear();
      row_len_ = len;
    }
    count_ = 0;
    mask_ = cap - 1;
    shift_ = 64 - std::countr_zero(cap);
    return true;
  }

  /// The row of (rank, rows), built by `build(double* row)` on a miss;
  /// `built` says which. Ranks and row counts both fit the key's packing by
  /// a wide margin (2^44 rows is far beyond any input).
  template <typename Build>
  const double* resolve(int rank, std::int64_t rows, Build&& build,
                        bool& built) {
    const std::uint64_t key = (static_cast<std::uint64_t>(rank) << 44) |
                              static_cast<std::uint64_t>(rows);
    // Fibonacci hashing: the product's top bits mix every bit of the key.
    std::size_t s =
        static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
    while (slots_[s].key != key && slots_[s].key != kEmpty) s = (s + 1) & mask_;
    built = slots_[s].key == kEmpty;
    if (built) {
      const std::size_t id = count_++;
      if (id / kRowsPerChunk == chunks_.size())
        chunks_.push_back(std::make_unique_for_overwrite<double[]>(
            kRowsPerChunk * row_len_));
      double* row = chunks_[id / kRowsPerChunk].get() +
                    (id % kRowsPerChunk) * row_len_;
      build(row);
      slots_[s] = Entry{key, row};
    }
    return slots_[s].row;
  }

 private:
  static constexpr std::uint64_t kEmpty = ~0ull;
  static constexpr std::size_t kRowsPerChunk = 256;
  // Key and row share one 16-byte slot so a hit touches a single cache
  // line of the table.
  struct Entry {
    std::uint64_t key;
    const double* row;
  };

  std::vector<Entry> slots_;  // key == kEmpty marks a free slot
  std::vector<std::unique_ptr<double[]>> chunks_;
  std::size_t row_len_ = 0;
  std::size_t count_ = 0;  // rows written into the arena
  std::size_t mask_ = 0;   // table size - 1
  int shift_ = 64;         // 64 - log2(table size)
};

/// The width-1 clock: one double per rank over full rows. Accumulates the
/// diagnostic compute/io sums into `pred` once per iteration, from
/// iteration_agg over the rows. `rebuild`, when set, refills the rows for a
/// new iteration scale (non-uniform runs); without it the rows must already
/// hold scale 1.0.
struct Predictor::ScalarClock : WalkHooks {
  using V = double;
  static constexpr bool kTileOuter = false;
  static constexpr std::size_t width() { return 1; }

  ScalarClock(const Predictor& p, int n, const double* const* rows,
              ClockState& state, Prediction& pred,
              const std::function<void(double)>* rebuild = nullptr)
      : p(p), n(n), rows(rows), state(state), pred(pred), rebuild(rebuild) {
    pred.total_s = 0;
    pred.compute_s = 0;
    pred.io_s = 0;
  }

  double load(int r) const { return state.off[static_cast<std::size_t>(r)]; }
  void store(int r, double t) { state.off[static_cast<std::size_t>(r)] = t; }
  void reserve(Buf b, std::size_t slots) { state.buffer(b).resize(slots); }

  double stages(double t, int r, std::size_t first, int count, int) const {
    const double* row = rows[r] + first;
    for (int g = 0; g < count; ++g) t += row[g];
    return t;
  }
  double send(double t, int, double os, double x, Buf b, std::size_t slot,
              Hop, int) {
    t += os;
    state.buffer(b)[slot] = t + x;
    return t;
  }
  double recv(double t, int, double orr, Buf b, std::size_t slot, Hop, int) {
    return std::max(t, state.buffer(b)[slot]) + orr;
  }

  bool prepare(double scale) {
    if (agg_valid && scale == rows_scale) return false;
    if (rebuild != nullptr)
      (*rebuild)(scale);
    else
      MHETA_CHECK_MSG(scale == 1.0, "prebuilt rows must cover scale 1.0");
    rows_scale = scale;
    agg = p.iteration_agg(n, rows);
    agg_valid = true;
    return true;
  }
  void end_iteration() {
    pred.compute_s += agg.compute_s;
    pred.io_s += agg.io_s;
  }
  void replay(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) end_iteration();
  }

  /// Writes the per-rank end times and the makespan once the driver is done.
  void finish() {
    pred.node_end_s.resize(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r)
      pred.node_end_s[static_cast<std::size_t>(r)] =
          state.base[0] + state.off[static_cast<std::size_t>(r)];
    pred.total_s =
        *std::max_element(pred.node_end_s.begin(), pred.node_end_s.end());
  }

  const Predictor& p;
  int n;
  const double* const* rows;
  ClockState& state;
  Prediction& pred;
  const std::function<void(double)>* rebuild;
  IterationAgg agg;  // of the rows, at rows_scale
  double rows_scale = 0;
  bool agg_valid = false;
};

template <class Clock>
void Predictor::walk_section(int si, const InternedSectionComm& ic,
                             Clock& c) const {
  using V = typename Clock::V;
  const SectionSpec& section = structure_.sections[static_cast<std::size_t>(si)];
  const int n = c.n;
  const std::size_t soff = row_offset_[static_cast<std::size_t>(si)];
  const int stages = static_cast<int>(section.stages.size());
  c.begin_section(si);

  if (section.pattern == CommPattern::kPipeline) {
    // Eq. 4 generalized to an n-node chain: tile j of rank r starts after
    // its own tile j-1 and after rank r-1's tile-j boundary arrives. Those
    // two values are all a tile reads, so the chain can run rank-outer —
    // rank r consumes arrival slot j from rank r-1 and overwrites it for
    // rank r+1, and consecutive ranks' chains overlap — or tile-outer, with
    // one arrival slot per rank. Each rank performs the same operations on
    // the same operands either way; every slot is written before it is
    // read, so the buffer needs no clearing.
    constexpr bool tile_outer = Clock::kTileOuter;
    const int tiles = section.tiles;
    c.reserve(Buf::kArrivals,
              static_cast<std::size_t>(tile_outer ? n : tiles));
    const double* wire =
        ic.pipeline_transfer_s.data();  // per rank, the Eq. 4 boundary
    auto tile = [&](V t, int r, int j) {
      if (r > 0)
        t = c.recv(t, r, o_r(r), Buf::kArrivals,
                   static_cast<std::size_t>(tile_outer ? r - 1 : j),
                   Hop::kPointToPoint, j);
      t = c.stages(t, r,
                   soff + static_cast<std::size_t>(j) *
                              static_cast<std::size_t>(stages),
                   stages, j);
      if (r < n - 1)
        t = c.send(t, r, o_s(r), wire[r], Buf::kArrivals,
                   static_cast<std::size_t>(tile_outer ? r : j),
                   Hop::kPointToPoint, j);
      return t;
    };
    if constexpr (tile_outer) {
      for (int j = 0; j < tiles; ++j)
        for (int r = 0; r < n; ++r) c.store(r, tile(c.load(r), r, j));
    } else {
      for (int r = 0; r < n; ++r) {
        V t = c.load(r);
        for (int j = 0; j < tiles; ++j) t = tile(t, r, j);
        c.store(r, t);
      }
    }
  } else {
    for (int r = 0; r < n; ++r)
      c.store(r, c.stages(c.load(r), r, soff, stages, -1));
    if (section.pattern == CommPattern::kNearestNeighbor) {
      // Eq. 3 generalized: every rank performs its recorded sends, then
      // blocks on its recorded receives. The FIFO matching per (src, dst)
      // pair was resolved when the table was built, so this is two flat
      // passes.
      MHETA_CHECK_MSG(ic.matched, "recv without matching send in model");
      c.reserve(Buf::kArrivals, static_cast<std::size_t>(ic.total_sends));
      for (int r = 0; r < n; ++r) {
        const auto& sends = ic.sends[static_cast<std::size_t>(r)];
        const std::size_t base =
            static_cast<std::size_t>(ic.send_offset[static_cast<std::size_t>(r)]);
        V t = c.load(r);
        for (std::size_t k = 0; k < sends.size(); ++k)
          t = c.send(t, r, o_s(r), sends[k].transfer_s, Buf::kArrivals,
                     base + k, Hop::kPointToPoint, -1);
        c.store(r, t);
      }
      for (int r = 0; r < n; ++r) {
        V t = c.load(r);
        for (const auto& rv : ic.recvs[static_cast<std::size_t>(r)])
          t = c.recv(t, r, o_r(r), Buf::kArrivals,
                     static_cast<std::size_t>(rv.send_slot),
                     Hop::kPointToPoint, -1);
        c.store(r, t);
      }
    }
  }

  if (section.has_alltoall)
    alltoall(c, params_.network.transfer_s(section.alltoall_bytes_per_pair));
  if (section.has_reduction)
    reduce_broadcast(c, params_.network.transfer_s(section.reduce_bytes));
}

template <class Clock>
void Predictor::alltoall(Clock& c, double x) const {
  using V = typename Clock::V;
  const int n = c.n;
  if (n <= 1) return;
  // Ring-shifted pairwise exchange (mirrors SimMPI::alltoall): at step s
  // each rank sends to rank+s (paying o_s), then blocks receiving from
  // rank-s. Step s's sends depend only on progress through step s-1, so the
  // steps run in order with a send pass before the receive pass.
  c.reserve(Buf::kCollA, static_cast<std::size_t>(n));
  for (int s = 1; s < n; ++s) {
    for (int r = 0; r < n; ++r)
      c.store(r, c.send(c.load(r), r, o_s(r), x, Buf::kCollA,
                        static_cast<std::size_t>((r + s) % n),
                        Hop::kCollective, -1));
    for (int r = 0; r < n; ++r) {
      const V t = c.load(r);
      c.store(r, c.recv(t, r, o_r(r), Buf::kCollA, static_cast<std::size_t>(r),
                        Hop::kCollective, -1));
    }
  }
}

template <class Clock>
void Predictor::reduce_broadcast(Clock& c, double x) const {
  using V = typename Clock::V;
  const int n = c.n;
  if (n <= 1) return;
  // Reduce to rank 0 over the binomial tree (mirrors SimMPI::allreduce).
  // The senders at a level are the odd multiples of its mask, the receivers
  // the even multiples whose partner exists; only they are visited, so the
  // whole tree costs O(n), not O(n log n).
  c.reserve(Buf::kCollA, static_cast<std::size_t>(n));
  for (int mask = 1; mask < n; mask <<= 1) {
    for (int r = mask; r < n; r += 2 * mask)
      c.store(r, c.send(c.load(r), r, o_s(r), x, Buf::kCollA,
                        static_cast<std::size_t>(r), Hop::kCollective, -1));
    for (int r = 0; r + mask < n; r += 2 * mask) {
      const V t = c.load(r);
      c.store(r, c.recv(t, r, o_r(r), Buf::kCollA,
                        static_cast<std::size_t>(r + mask), Hop::kCollective,
                        -1));
    }
  }

  // Broadcast from rank 0 (the second phase of SimMPI::allreduce): each
  // rank receives from its parent, then sends to its children, largest
  // subtree first.
  c.reserve(Buf::kCollB, static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    V t = c.load(r);
    int entry;
    if (r == 0) {
      entry = 1;
      while (entry < n) entry <<= 1;
    } else {
      t = c.recv(t, r, o_r(r), Buf::kCollB, static_cast<std::size_t>(r),
                 Hop::kCollective, -1);
      entry = r & -r;  // lowest set bit
    }
    for (int m = entry >> 1; m >= 1; m >>= 1)
      if (r + m < n)
        t = c.send(t, r, o_s(r), x, Buf::kCollB,
                   static_cast<std::size_t>(r + m), Hop::kCollective, -1);
    c.store(r, t);
  }
}

namespace walk_detail {

// The driver's per-lane loops over a clock block of `block` doubles, W lanes
// per rank. Their operands never overlap and W is a compile-time constant,
// so each lane loop vectorizes with no alias or remainder checks.

/// mins = each lane's first minimum over its ranks (as std::min_element
/// finds it), added to base and subtracted from every rank's offset.
template <std::size_t W>
void renormalize(double* __restrict off, double* __restrict mins,
                 double* __restrict base, std::size_t block) {
  std::copy_n(off, W, mins);
  for (std::size_t i = W; i < block; i += W)
    for (std::size_t l = 0; l < W; ++l)
      mins[l] = off[i + l] < mins[l] ? off[i + l] : mins[l];
  for (std::size_t l = 0; l < W; ++l) base[l] += mins[l];
  for (std::size_t i = 0; i < block; i += W)
    for (std::size_t l = 0; l < W; ++l) off[i + l] -= mins[l];
}

/// `count` replayed renormalizations: base += step, one add per iteration,
/// eight lanes at a time so their running sums stay in registers.
template <std::size_t W>
void replay_base(double* __restrict base, const double* __restrict step,
                 std::size_t count) {
  constexpr std::size_t kChunk = W < 8 ? W : 8;
  static_assert(W % kChunk == 0);
  for (std::size_t c = 0; c < W; c += kChunk) {
    double sum[kChunk];
    std::copy_n(base + c, kChunk, sum);
    for (std::size_t i = 0; i < count; ++i)
#pragma GCC unroll 8
      for (std::size_t l = 0; l < kChunk; ++l) sum[l] += step[c + l];
    std::copy_n(sum, kChunk, base + c);
  }
}

}  // namespace walk_detail

template <class Clock>
void Predictor::drive(Clock& c, const std::vector<InternedSectionComm>& comm,
                      std::size_t total, const double* scales) const {
  // Clocks run in offset space: `off` carries the skews within the current
  // iteration, `base` the time absorbed by renormalization between
  // iterations. Every section operation composes adds and maxes over `off`
  // with iteration-invariant constants (the rows), so the offsets of a run
  // of equal-scale iterations reach a bitwise fixed point after a few
  // iterations, which the steady-state shortcut detects and replays
  // exactly. The check covers every lane at once; that is conservative per
  // lane, since a lane already at its fixed point reproduces its recorded
  // step in every extra iteration it runs.
  ClockState& s = c.state;
  constexpr std::size_t w = Clock::width();
  const std::size_t block = static_cast<std::size_t>(c.n) * w;
  s.off.assign(block, 0.0);
  s.base.assign(w, 0.0);
  s.last_m.assign(w, 0.0);
  s.mins.resize(w);
  bool prev_valid = false;  // prev_off holds the previous iteration's start

  std::size_t k = 0;
  while (k < total) {
    const double scale = scales != nullptr ? scales[k] : 1.0;
    MHETA_CHECK(scale >= 0);
    if (c.prepare(scale)) prev_valid = false;

    if (options_.steady_state_shortcut && prev_valid &&
        std::memcmp(s.off.data(), s.prev_off.data(), block * sizeof(double)) ==
            0) {
      // Steady state: this iteration starts from exactly the state the
      // previous one did, so it and every following iteration at this scale
      // reproduce the recorded step bit for bit. The final iteration is not
      // renormalized.
      std::size_t end = scales == nullptr ? total : k + 1;
      while (end < total && scales[end] == scale) ++end;
      const bool covers_final = end == total;
      const std::size_t full = (end - k) - (covers_final ? 1 : 0);
      walk_detail::replay_base<w>(s.base.data(), s.last_m.data(), full);
      c.replay(end - k);
      k = end;
      if (covers_final) s.off = s.last_end;
      prev_valid = false;
      continue;
    }

    // One full iteration.
    s.start.assign(s.off.begin(), s.off.end());
    c.begin_iteration(k);
    for (std::size_t si = 0; si < structure_.sections.size(); ++si)
      walk_section(static_cast<int>(si), comm[si], c);
    c.end_iteration();
    ++k;
    if (k == total) break;  // the final iteration stays un-renormalized

    // Renormalize each lane by the minimum over its ranks (the first
    // minimum, as std::min_element finds it), subtracted rank by rank.
    s.last_end.assign(s.off.begin(), s.off.end());
    walk_detail::renormalize<w>(s.off.data(), s.mins.data(), s.base.data(), block);
    std::copy(s.mins.begin(), s.mins.end(), s.last_m.begin());
    c.renormalized(s.mins.data());
    std::swap(s.prev_off, s.start);
    prev_valid = true;
  }
}

}  // namespace mheta::core
