#include "core/critical.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <utility>

#include "core/walk.hpp"
#include "util/check.hpp"

namespace mheta::core {

namespace {

// Cost-term indices in cost_term_name order.
constexpr int kTermSend = 4;
constexpr int kTermRecvWait = 5;
constexpr int kTermCollective = 6;

}  // namespace

int SweepTrace::critical_rank() const {
  int best = 0;
  for (std::size_t r = 1; r < prediction.node_end_s.size(); ++r)
    if (prediction.node_end_s[r] >
        prediction.node_end_s[static_cast<std::size_t>(best)])
      best = static_cast<int>(r);
  return best;
}

namespace {

// Walks the critical path backwards from the critical rank's head, calling
// visit(event, real iteration) for each step. While repeats remain the walk
// is inside the steady iteration; a pred link that leaves it (into the
// transient, or -1 when iteration 0 is steady) crosses into the previous
// real iteration — another copy of the steady one — whose last event on
// this rank is its head (cross-iteration links are always local).
template <typename Visit>
void walk_back(const SweepTrace& trace, Visit&& visit) {
  if (trace.head.empty()) return;
  int e = trace.head[static_cast<std::size_t>(trace.critical_rank())];
  int repeats = trace.steady_repeats;
  while (e >= 0) {
    const SweepEvent& ev = trace.events[static_cast<std::size_t>(e)];
    visit(e, ev.iteration + repeats);
    e = ev.pred;
    if (repeats > 0 && e < trace.steady_begin) {
      e = trace.head[static_cast<std::size_t>(ev.rank)];
      --repeats;
    }
  }
}

}  // namespace

std::vector<SweepTrace::Step> SweepTrace::critical_steps() const {
  std::vector<Step> steps;
  walk_back(*this, [&](int e, int it) { steps.push_back({e, it}); });
  std::reverse(steps.begin(), steps.end());
  return steps;
}

std::vector<int> SweepTrace::critical_path() const {
  std::vector<int> path;
  walk_back(*this, [&](int e, int) { path.push_back(e); });
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<double> SweepTrace::iteration_base() const {
  std::vector<double> base(static_cast<std::size_t>(iterations), 0.0);
  const std::size_t steady = renorm.size() - 1;
  for (std::size_t i = 1; i < base.size(); ++i)
    base[i] = base[i - 1] + renorm[std::min(i - 1, steady)];
  return base;
}

const char* perturbation_kind_name(Perturbation::Kind kind) {
  switch (kind) {
    case Perturbation::Kind::kCompute: return "compute";
    case Perturbation::Kind::kDisk: return "disk";
    case Perturbation::Kind::kNetLatency: return "net_latency";
    case Perturbation::Kind::kNetBandwidth: return "net_bandwidth";
  }
  return "?";
}

instrument::MhetaParams perturb_params(const instrument::MhetaParams& params,
                                       const Perturbation& p) {
  MHETA_CHECK_MSG(p.factor > 0, "perturbation factor must be positive");
  instrument::MhetaParams out = params;
  const double f = p.factor;
  switch (p.kind) {
    case Perturbation::Kind::kCompute: {
      MHETA_CHECK(p.rank >= 0 && p.rank < out.node_count());
      auto& node = out.nodes[static_cast<std::size_t>(p.rank)];
      for (auto& [key, stage] : node.stages) {
        (void)key;
        stage.compute_s *= f;
        stage.overlap_s *= f;
      }
      break;
    }
    case Perturbation::Kind::kDisk: {
      MHETA_CHECK(p.rank >= 0 && p.rank < out.node_count());
      auto& node = out.nodes[static_cast<std::size_t>(p.rank)];
      node.read_seek_s *= f;
      node.write_seek_s *= f;
      node.disk_read_s_per_byte *= f;
      node.disk_write_s_per_byte *= f;
      for (auto& [key, stage] : node.stages) {
        (void)key;
        for (auto& [name, io] : stage.vars) {
          (void)name;
          io.read_s_per_byte *= f;
          io.write_s_per_byte *= f;
        }
      }
      break;
    }
    case Perturbation::Kind::kNetLatency:
      out.network.latency_s *= f;
      break;
    case Perturbation::Kind::kNetBandwidth:
      out.network.s_per_byte *= f;
      break;
  }
  return out;
}

Predictor Predictor::perturbed(const Perturbation& p) const {
  Predictor out(*this);
  out.params_ = perturb_params(params_, p);
  // Re-intern from the perturbed params; structure, memory and options are
  // unchanged, so the construction-time lint needs no re-run (a positive
  // scale cannot invalidate a valid parameter set). The plan cache is
  // rebuilt fresh — plans depend on memory, not on costs, but sharing one
  // with the original would be harmless only by accident.
  out.intern_tables();
  return out;
}

/// The scalar clock plus one SweepEvent per advance, with the predecessor
/// link that determined its start. Arrivals carry the send event behind
/// them, so a receive the arrival wins links to it across ranks. Pipelines
/// run tile-outer: the recorded event order is part of what the trace pins.
struct Predictor::TracedClock : ScalarClock {
  static constexpr bool kTileOuter = true;

  TracedClock(const Predictor& p, int n, const double* const* rows,
              ClockState& state, SweepTrace& trace,
              const std::function<void(SweepTrace&)>* flush)
      : ScalarClock(p, n, rows, state, trace.prediction),
        trace(trace),
        flush(flush) {}

  /// A pending message: its arrival time, the send event that produced it,
  /// the sender, and the wire time it carries.
  struct Arrival {
    double value = 0;
    int event = -1;
    int src = -1;
    double edge_s = 0;
  };

  void begin_iteration(std::size_t k) {
    if (flush != nullptr && k > 0) (*flush)(trace);
    it = static_cast<int>(k);
    trace.steady_begin = static_cast<int>(trace.events.size());
  }
  void begin_section(int s) {
    si = s;
    soff = p.row_offset_[static_cast<std::size_t>(s)];
    span = p.row_span_[static_cast<std::size_t>(s)];
  }
  void renormalized(const double* mins) { trace.renorm.push_back(mins[0]); }
  void replay(std::size_t count) {
    trace.steady_repeats = static_cast<int>(count);
    ScalarClock::replay(count);
  }
  void reserve(Buf b, std::size_t slots) {
    bufs[static_cast<int>(b)].resize(slots);
  }

  // Each advance records exactly one event whose predecessor's t_end (+
  // edge, or - the renormalization when the predecessor ended the rank's
  // previous iteration) equals its t_start, so chains telescope bit for
  // bit.
  SweepEvent event(SweepEvent::Kind kind, int r, int tile, int term,
                   double t_start) const {
    SweepEvent e;
    e.kind = kind;
    e.rank = r;
    e.section_index = si;
    e.iteration = it;
    e.tile = tile;
    e.term = term;
    e.pred = trace.head[static_cast<std::size_t>(r)];
    e.t_start = t_start;
    return e;
  }
  void push(const SweepEvent& e) {
    trace.head[static_cast<std::size_t>(e.rank)] =
        static_cast<int>(trace.events.size());
    trace.events.push_back(e);
  }

  double stages(double t, int r, std::size_t first, int count, int tile) {
    SweepEvent e = event(SweepEvent::Kind::kStages, r, tile, -1, t);
    t = ScalarClock::stages(t, r, first, count, tile);
    e.t_end = t;
    e.slot_begin = static_cast<int>(static_cast<std::size_t>(r) * span +
                                    (first - soff));
    e.stage_count = count;
    push(e);
    return t;
  }
  double send(double t, int r, double os, double x, Buf b, std::size_t slot,
              Hop hop, int tile) {
    const bool p2p = hop == Hop::kPointToPoint;
    SweepEvent e = event(
        p2p ? SweepEvent::Kind::kSend : SweepEvent::Kind::kCollective, r, tile,
        p2p ? kTermSend : kTermCollective, t);
    t += os;
    e.t_end = t;
    push(e);
    bufs[static_cast<int>(b)][slot] = {
        t + x, trace.head[static_cast<std::size_t>(r)], r, x};
    return t;
  }
  double recv(double t, int r, double orr, Buf b, std::size_t slot, Hop hop,
              int tile) {
    const bool p2p = hop == Hop::kPointToPoint;
    const Arrival& a = bufs[static_cast<int>(b)][slot];
    SweepEvent e = event(
        p2p ? SweepEvent::Kind::kRecv : SweepEvent::Kind::kCollective, r, tile,
        p2p ? kTermRecvWait : kTermCollective, t);
    if (a.value > t) {
      // The remote arrival won the max: the causal predecessor is the send
      // event behind it, with the transfer carried on the edge. Ties go to
      // the local chain (the rank was busy anyway).
      e.pred = a.event;
      e.src_rank = a.src;
      e.edge_s = a.edge_s;
      e.t_start = a.value;
    }
    t = std::max(t, a.value) + orr;
    e.t_end = t;
    push(e);
    return t;
  }

  SweepTrace& trace;
  const std::function<void(SweepTrace&)>* flush;
  std::vector<Arrival> bufs[3];
  int si = -1;
  int it = -1;
  std::size_t soff = 0;
  std::size_t span = 0;
};

SweepTrace Predictor::predict_traced(const dist::GenBlock& d,
                                     int iterations) const {
  return traced_sweep(d, iterations, nullptr);
}

SweepTrace Predictor::traced_sweep(
    const dist::GenBlock& d, int iterations,
    const std::function<void(SweepTrace&)>* flush) const {
  MHETA_CHECK(iterations >= 1);
  MHETA_CHECK(d.nodes() == params_.node_count());
  const int n = d.nodes();
  const auto plans = plans_for(d);

  // Scale-1.0 rows with per-slot term splits; the traced sweep reads the
  // exact stage times predict() does.
  SweepTrace trace;
  trace.iterations = iterations;
  const FullRows rows = full_rows(n);
  build_rows(d, plans, 1.0, rows.data.get(), &trace.terms);
  for (const auto& section : structure_.sections) {
    trace.section_tiles.push_back(
        section.pattern == CommPattern::kPipeline ? section.tiles : 1);
    trace.section_stages.push_back(static_cast<int>(section.stages.size()));
  }
  trace.head.assign(static_cast<std::size_t>(n), -1);
  ClockState state;
  TracedClock clock(*this, n, rows.ptr.data(), state, trace, flush);
  drive(clock, comm_interned_, static_cast<std::size_t>(iterations), nullptr);
  // Without a steady state the final iteration was walked, and it is not
  // renormalized.
  if (trace.steady_repeats == 0) trace.renorm.push_back(0.0);
  clock.finish();
  return trace;
}

AttributedPrediction Predictor::predict_attributed(const dist::GenBlock& d,
                                                   int iterations) const {
  MHETA_CHECK(d.nodes() == params_.node_count());
  const std::size_t n = static_cast<std::size_t>(d.nodes());
  AttributedPrediction out;
  out.terms.assign(structure_.sections.size(), std::vector<CostTerms>(n));

  // Each rank's clock before its next event, and its clock when the
  // current section's collectives began (NaN outside them).
  const double none = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> clock(n, 0.0);
  std::vector<double> coll_from(n, none);
  auto close_collectives = [&](int section) {
    for (std::size_t r = 0; r < n; ++r) {
      if (std::isnan(coll_from[r])) continue;
      out.terms[static_cast<std::size_t>(section)][r].collective_s +=
          clock[r] - coll_from[r];
      coll_from[r] = none;
    }
  };
  // Folds one iteration's events, then renormalizes the clocks by `m` as
  // the sweep did. Events come section by section, and a section's
  // collectives end it.
  auto fold = [&](const SweepTrace& trace, double m) {
    int section = -1;
    bool collectives = false;
    for (const SweepEvent& e : trace.events) {
      if (e.section_index != section) {
        if (collectives) close_collectives(section);
        section = e.section_index;
        collectives = false;
      }
      const std::size_t r = static_cast<std::size_t>(e.rank);
      CostTerms& cell = out.terms[static_cast<std::size_t>(section)][r];
      switch (e.kind) {
        case SweepEvent::Kind::kStages: {
          const CostTerms* slots =
              trace.terms[static_cast<std::size_t>(section)].data() +
              e.slot_begin;
          for (int g = 0; g < e.stage_count; ++g) cell += slots[g];
          break;
        }
        case SweepEvent::Kind::kSend:
          cell.send_s += o_s(e.rank);
          break;
        case SweepEvent::Kind::kRecv:
          cell.recv_wait_s += e.t_end - clock[r];
          break;
        case SweepEvent::Kind::kCollective:
          if (std::isnan(coll_from[r])) coll_from[r] = clock[r];
          collectives = true;
          break;
      }
      clock[r] = e.t_end;
    }
    if (collectives) close_collectives(section);
    for (double& c : clock) c -= m;
  };

  // Fold each transient iteration as the next one starts, so one
  // iteration's events are held at a time; the last walked iteration (the
  // steady one, when the shortcut found it) stays in the trace and is
  // folded once, then once per repeat.
  const std::function<void(SweepTrace&)> flush = [&](SweepTrace& trace) {
    fold(trace, trace.renorm.back());
    trace.events.clear();
  };
  SweepTrace trace = traced_sweep(d, iterations, &flush);
  for (int k = 0; k <= trace.steady_repeats; ++k)
    fold(trace, trace.renorm.back());
  out.prediction = std::move(trace.prediction);
  return out;
}

}  // namespace mheta::core
