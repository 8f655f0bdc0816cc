#include "core/critical.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <utility>

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

SweepTrace Predictor::predict_traced(const dist::GenBlock& d,
                                     int iterations) const {
  MHETA_CHECK(iterations >= 1);
  MHETA_CHECK(d.nodes() == params_.node_count());
  const int n = d.nodes();
  const auto plans = plans_for(d);

  // One uniform-scale cache with per-slot term splits; the traced sweep
  // reads the exact same stage times as predict().
  IterationCache cache;
  build_iteration_cache(d, plans, 1.0, cache, /*with_terms=*/true);

  SweepTrace trace;
  trace.iterations = iterations;
  trace.terms = std::move(cache.terms);
  for (const auto& section : structure_.sections) {
    trace.section_tiles.push_back(
        section.pattern == CommPattern::kPipeline ? section.tiles : 1);
    trace.section_stages.push_back(static_cast<int>(section.stages.size()));
  }
  trace.head.assign(static_cast<std::size_t>(n), -1);
  Prediction& out = trace.prediction;

  // Per-node clock offsets within the current iteration, renormalized
  // between iterations exactly as run_iterations does: every addition and
  // max below is the one predict() performs, in the same order, so event
  // times and totals are bit-identical to it.
  std::vector<double> t(static_cast<std::size_t>(n), 0.0);
  IterationAgg agg;  // the current iteration's diagnostic sums

  /// A pending message: its arrival time, the send event that produced it,
  /// the sender, and the wire time it carries.
  struct Arrival {
    double value = 0;
    int event = -1;
    int src = -1;
    double edge_s = 0;
  };
  std::vector<Arrival> arrivals;       // pipeline: per rank
  std::vector<Arrival> slot_arrivals;  // nearest-neighbor: per send slot

  auto push = [&](SweepEvent e) {
    trace.head[static_cast<std::size_t>(e.rank)] =
        static_cast<int>(trace.events.size());
    trace.events.push_back(e);
  };

  // The three advance shapes of the recurrence. Each records exactly one
  // event whose predecessor's t_end (+ edge, or - the renormalization when
  // the predecessor ended the rank's previous iteration) equals its
  // t_start, so chains telescope bit for bit.
  auto send_event = [&](int r, int si, int it, int tile, int term,
                        SweepEvent::Kind kind) {
    SweepEvent e;
    e.kind = kind;
    e.rank = r;
    e.section_index = si;
    e.iteration = it;
    e.tile = tile;
    e.term = term;
    e.pred = trace.head[static_cast<std::size_t>(r)];
    e.t_start = t[static_cast<std::size_t>(r)];
    t[static_cast<std::size_t>(r)] += o_s(r);
    e.t_end = t[static_cast<std::size_t>(r)];
    push(e);
  };
  auto recv_event = [&](int r, const Arrival& a, int si, int it, int tile,
                        int term, SweepEvent::Kind kind) {
    SweepEvent e;
    e.kind = kind;
    e.rank = r;
    e.section_index = si;
    e.iteration = it;
    e.tile = tile;
    e.term = term;
    const double tr = t[static_cast<std::size_t>(r)];
    if (a.value > tr) {
      // The remote arrival won the max: the causal predecessor is the send
      // event behind it, with the transfer carried on the edge. Ties go to
      // the local chain (the rank was busy anyway).
      e.pred = a.event;
      e.src_rank = a.src;
      e.edge_s = a.edge_s;
      e.t_start = a.value;
    } else {
      e.pred = trace.head[static_cast<std::size_t>(r)];
      e.t_start = tr;
    }
    t[static_cast<std::size_t>(r)] = std::max(tr, a.value) + o_r(r);
    e.t_end = t[static_cast<std::size_t>(r)];
    push(e);
  };
  auto stages_event = [&](int r, int si, int it, int tile,
                          std::size_t base_idx, int stages,
                          const SectionTimes& st) {
    SweepEvent e;
    e.kind = SweepEvent::Kind::kStages;
    e.rank = r;
    e.section_index = si;
    e.iteration = it;
    e.tile = tile;
    e.pred = trace.head[static_cast<std::size_t>(r)];
    e.t_start = t[static_cast<std::size_t>(r)];
    const double* ss = st.stage_s.data() + base_idx;
    const double* cs = st.compute_s.data() + base_idx;
    const double* ios = st.io_s.data() + base_idx;
    for (int g = 0; g < stages; ++g) {
      t[static_cast<std::size_t>(r)] += ss[g];
      agg.compute_s += cs[g];
      agg.io_s += ios[g];
    }
    e.t_end = t[static_cast<std::size_t>(r)];
    e.slot_begin = static_cast<int>(base_idx);
    e.stage_count = stages;
    push(e);
  };

  // Traced replica of apply_reduction (binomial reduce to rank 0, then
  // broadcast), every hop one kCollective event.
  auto traced_reduction = [&](std::int64_t bytes, int si, int it) {
    if (n <= 1) return;
    const double x = params_.network.transfer_s(bytes);
    std::vector<Arrival> arrival(static_cast<std::size_t>(n));
    for (int mask = 1; mask < n; mask <<= 1) {
      for (int r = 0; r < n; ++r) {
        if ((r & mask) != 0 && (r & (mask - 1)) == 0) {
          send_event(r, si, it, -1, kTermCollective,
                     SweepEvent::Kind::kCollective);
          arrival[static_cast<std::size_t>(r)] = {
              t[static_cast<std::size_t>(r)] + x,
              trace.head[static_cast<std::size_t>(r)], r, x};
        }
      }
      for (int r = 0; r < n; ++r) {
        if ((r & mask) == 0 && (r & (mask - 1)) == 0) {
          const int partner = r | mask;
          if (partner < n)
            recv_event(r, arrival[static_cast<std::size_t>(partner)], si, it,
                       -1, kTermCollective, SweepEvent::Kind::kCollective);
        }
      }
    }
    std::vector<Arrival> bcast(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      int entry;
      if (r == 0) {
        entry = 1;
        while (entry < n) entry <<= 1;
      } else {
        recv_event(r, bcast[static_cast<std::size_t>(r)], si, it, -1,
                   kTermCollective, SweepEvent::Kind::kCollective);
        entry = r & -r;  // lowest set bit
      }
      for (int m = entry >> 1; m >= 1; m >>= 1) {
        if (r + m < n) {
          send_event(r, si, it, -1, kTermCollective,
                     SweepEvent::Kind::kCollective);
          bcast[static_cast<std::size_t>(r + m)] = {
              t[static_cast<std::size_t>(r)] + x,
              trace.head[static_cast<std::size_t>(r)], r, x};
        }
      }
    }
  };

  // Traced replica of apply_alltoall (ring-shifted pairwise exchange).
  auto traced_alltoall = [&](std::int64_t bytes_per_pair, int si, int it) {
    if (n <= 1) return;
    const double x = params_.network.transfer_s(bytes_per_pair);
    std::vector<Arrival> arrival(static_cast<std::size_t>(n));
    for (int s = 1; s < n; ++s) {
      for (int r = 0; r < n; ++r) {
        send_event(r, si, it, -1, kTermCollective,
                   SweepEvent::Kind::kCollective);
        arrival[static_cast<std::size_t>((r + s) % n)] = {
            t[static_cast<std::size_t>(r)] + x,
            trace.head[static_cast<std::size_t>(r)], r, x};
      }
      for (int r = 0; r < n; ++r)
        recv_event(r, arrival[static_cast<std::size_t>(r)], si, it, -1,
                   kTermCollective, SweepEvent::Kind::kCollective);
    }
  };

  const auto& sections = structure_.sections;
  std::vector<double> start;       // this iteration's start offsets
  std::vector<double> prev_start;  // the previous iteration's
  std::vector<double> last_end;    // its offsets before renormalization
  for (int it = 0; it < iterations; ++it) {
    if (options_.steady_state_shortcut && it > 0 &&
        std::memcmp(t.data(), prev_start.data(), t.size() * sizeof(double)) ==
            0) {
      // Iteration it - 1 started from exactly these offsets, so it and
      // every later iteration are the same: stop recording. `agg` still
      // holds its sums, added once per repeat as run_iterations does; the
      // final iteration is not renormalized.
      trace.steady_repeats = iterations - it;
      for (int i = 0; i < trace.steady_repeats; ++i) {
        out.compute_s += agg.compute_s;
        out.io_s += agg.io_s;
      }
      t = last_end;
      break;
    }
    start.assign(t.begin(), t.end());
    trace.steady_begin = static_cast<int>(trace.events.size());
    agg = {};
    for (std::size_t si = 0; si < sections.size(); ++si) {
      const SectionSpec& section = sections[si];
      const auto& st = cache.sections[si];
      const int stages = static_cast<int>(section.stages.size());
      const auto& ic = comm_interned_[si];
      const int sidx = static_cast<int>(si);

      if (section.pattern == CommPattern::kPipeline) {
        const int tiles = section.tiles;
        arrivals.assign(static_cast<std::size_t>(n), {});
        for (int j = 0; j < tiles; ++j) {
          for (int r = 0; r < n; ++r) {
            if (r > 0)
              recv_event(r, arrivals[static_cast<std::size_t>(r - 1)], sidx,
                         it, j, kTermRecvWait, SweepEvent::Kind::kRecv);
            const std::size_t base_idx =
                (static_cast<std::size_t>(r) * static_cast<std::size_t>(tiles) +
                 static_cast<std::size_t>(j)) *
                static_cast<std::size_t>(stages);
            stages_event(r, sidx, it, j, base_idx, stages, st);
            if (r < n - 1) {
              send_event(r, sidx, it, j, kTermSend, SweepEvent::Kind::kSend);
              const double wire =
                  ic.pipeline_transfer_s[static_cast<std::size_t>(r)];
              arrivals[static_cast<std::size_t>(r)] = {
                  t[static_cast<std::size_t>(r)] + wire,
                  trace.head[static_cast<std::size_t>(r)], r, wire};
            }
          }
        }
      } else {
        for (int r = 0; r < n; ++r)
          stages_event(r, sidx, it, -1,
                       static_cast<std::size_t>(r) *
                           static_cast<std::size_t>(stages),
                       stages, st);
        if (section.pattern == CommPattern::kNearestNeighbor) {
          MHETA_CHECK_MSG(ic.matched, "recv without matching send in model");
          slot_arrivals.assign(static_cast<std::size_t>(ic.total_sends), {});
          for (int r = 0; r < n; ++r) {
            const auto& sends = ic.sends[static_cast<std::size_t>(r)];
            const int base = ic.send_offset[static_cast<std::size_t>(r)];
            for (std::size_t k = 0; k < sends.size(); ++k) {
              send_event(r, sidx, it, -1, kTermSend, SweepEvent::Kind::kSend);
              slot_arrivals[static_cast<std::size_t>(base) + k] = {
                  t[static_cast<std::size_t>(r)] + sends[k].transfer_s,
                  trace.head[static_cast<std::size_t>(r)], r,
                  sends[k].transfer_s};
            }
          }
          for (int r = 0; r < n; ++r)
            for (const auto& rv : ic.recvs[static_cast<std::size_t>(r)])
              recv_event(r,
                         slot_arrivals[static_cast<std::size_t>(rv.send_slot)],
                         sidx, it, -1, kTermRecvWait, SweepEvent::Kind::kRecv);
        }
      }

      if (section.has_alltoall)
        traced_alltoall(section.alltoall_bytes_per_pair, sidx, it);
      if (section.has_reduction)
        traced_reduction(section.reduce_bytes, sidx, it);
    }
    out.compute_s += agg.compute_s;
    out.io_s += agg.io_s;
    if (it + 1 == iterations) {
      trace.renorm.push_back(0.0);
      break;
    }

    last_end.assign(t.begin(), t.end());
    const double m = *std::min_element(t.begin(), t.end());
    for (auto& o : t) o -= m;
    trace.renorm.push_back(m);
    std::swap(prev_start, start);
  }

  // The renormalization absorbed before the final iteration, summed in
  // run_iterations' order.
  const double base = trace.iteration_base().back();
  out.node_end_s.resize(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    out.node_end_s[static_cast<std::size_t>(r)] =
        base + t[static_cast<std::size_t>(r)];
  out.total_s = *std::max_element(out.node_end_s.begin(),
                                  out.node_end_s.end());
  return trace;
}

}  // namespace mheta::core
