#include "obs/critical_path.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <tuple>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace mheta::obs {

namespace {

// Dense index of the blame cells, laid out so that index order is the
// report's key order (rank, section id, stage id, term): per rank, the
// sections in id order, each as its sorted distinct stage ids with
// section-level communication as stage id -1, then one slot per cost term.
// Section ids and a section's stage ids are unique (the Predictor's
// construction lint rejects duplicates); a stage that is itself numbered -1
// shares the communication cell, as it would share the key.
struct CellLayout {
  std::vector<int> section_id;  // per cell group
  std::vector<int> stage_id;    // per cell group
  std::vector<int> comm_group;  // per section index
  std::vector<std::vector<int>> stage_group;  // [section index][stage index]

  explicit CellLayout(const std::vector<core::SectionSpec>& sections) {
    std::vector<std::size_t> by_id(sections.size());
    for (std::size_t si = 0; si < sections.size(); ++si) by_id[si] = si;
    std::sort(by_id.begin(), by_id.end(), [&](std::size_t a, std::size_t b) {
      return sections[a].id < sections[b].id;
    });
    comm_group.resize(sections.size());
    stage_group.resize(sections.size());
    std::vector<int> ids;
    for (const std::size_t si : by_id) {
      const core::SectionSpec& section = sections[si];
      ids.assign(1, -1);
      for (const auto& stage : section.stages) ids.push_back(stage.id);
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      const int first = static_cast<int>(stage_id.size());
      auto group_of = [&](int id) {
        return first + static_cast<int>(
                           std::lower_bound(ids.begin(), ids.end(), id) -
                           ids.begin());
      };
      comm_group[si] = group_of(-1);
      for (const auto& stage : section.stages)
        stage_group[si].push_back(group_of(stage.id));
      for (const int id : ids) {
        section_id.push_back(section.id);
        stage_id.push_back(id);
      }
    }
  }
};

}  // namespace

BlameReport build_blame(const core::Predictor& predictor,
                        const core::SweepTrace& trace) {
  const auto& sections = predictor.structure().sections;
  BlameReport r;
  r.iterations = trace.iterations;
  r.total_s = trace.prediction.total_s;
  r.critical_rank = trace.critical_rank();

  const std::vector<core::SweepTrace::Step> path = trace.critical_steps();
  const std::vector<double> base = trace.iteration_base();
  r.path_events = static_cast<int>(path.size());
  r.iteration_term_s.assign(static_cast<std::size_t>(trace.iterations), {});
  r.iteration_end_s.assign(static_cast<std::size_t>(trace.iterations), 0.0);

  // On-path seconds per (rank, section, stage or comm, term) cell, each
  // touched cell summed in path order; (src, dst, section id) -> hop count
  // and wire time. The std::map keeps the edge fold deterministic before
  // the final sort.
  const CellLayout layout(sections);
  const std::size_t row = layout.stage_id.size() *
                          static_cast<std::size_t>(core::kCostTermCount);
  std::vector<double> cell_s(trace.head.size() * row, 0.0);
  std::vector<char> touched(cell_s.size(), 0);
  std::map<std::tuple<int, int, int>, std::pair<int, double>> edges;

  auto charge = [&](int rank, int group, int term, double seconds,
                    int iteration) {
    if (seconds == 0) return;
    const std::size_t c =
        static_cast<std::size_t>(rank) * row +
        static_cast<std::size_t>(group) *
            static_cast<std::size_t>(core::kCostTermCount) +
        static_cast<std::size_t>(term);
    cell_s[c] += seconds;
    touched[c] = 1;
    r.path_seconds += seconds;
    r.term_s[static_cast<std::size_t>(term)] += seconds;
    r.iteration_term_s[static_cast<std::size_t>(iteration)]
                      [static_cast<std::size_t>(term)] += seconds;
  };

  for (const core::SweepTrace::Step& step : path) {
    const core::SweepEvent& e =
        trace.events[static_cast<std::size_t>(step.event)];
    const std::size_t si = static_cast<std::size_t>(e.section_index);
    const std::size_t it = static_cast<std::size_t>(step.iteration);
    r.iteration_end_s[it] = std::max(r.iteration_end_s[it], base[it] + e.t_end);
    if (e.kind == core::SweepEvent::Kind::kStages) {
      // Split the stage run across its per-slot terms; the slots sum to the
      // event's duration within floating summation error.
      for (int g = 0; g < e.stage_count; ++g) {
        const core::CostTerms& ct =
            trace.terms[si][static_cast<std::size_t>(e.slot_begin + g)];
        const int group = layout.stage_group[si][static_cast<std::size_t>(g)];
        for (int term = 0; term < core::kCostTermCount; ++term)
          charge(e.rank, group, term, core::cost_term_value(ct, term),
                 step.iteration);
      }
    } else {
      // Communication advances: the full causal cost of the event — its
      // duration plus the wire time back to its remote predecessor — lands
      // in one term at section level (no single stage owns it).
      charge(e.rank, layout.comm_group[si], e.term, e.duration_s() + e.edge_s,
             step.iteration);
      if (e.edge_s > 0 && e.src_rank >= 0) {
        auto& agg = edges[{e.src_rank, e.rank, sections[si].id}];
        agg.first += 1;
        agg.second += e.edge_s;
      }
    }
  }

  for (std::size_t c = 0; c < cell_s.size(); ++c) {
    if (touched[c] == 0) continue;
    const std::size_t group =
        (c % row) / static_cast<std::size_t>(core::kCostTermCount);
    BlameCell cell;
    cell.rank = static_cast<int>(c / row);
    cell.section_id = layout.section_id[group];
    cell.stage_id = layout.stage_id[group];
    cell.term = static_cast<int>(c % static_cast<std::size_t>(
                                         core::kCostTermCount));
    cell.seconds = cell_s[c];
    cell.pct = r.path_seconds > 0 ? 100.0 * cell.seconds / r.path_seconds : 0;
    r.cells.push_back(cell);
  }
  std::stable_sort(r.cells.begin(), r.cells.end(),
                   [](const BlameCell& a, const BlameCell& b) {
                     return a.seconds > b.seconds;
                   });
  for (const auto& [key, agg] : edges) {
    BlameEdge e;
    std::tie(e.src, e.dst, e.section_id) = key;
    e.hops = agg.first;
    e.transfer_s = agg.second;
    r.edges.push_back(e);
  }
  std::stable_sort(r.edges.begin(), r.edges.end(),
                   [](const BlameEdge& a, const BlameEdge& b) {
                     return a.transfer_s > b.transfer_s;
                   });
  return r;
}

SensitivityReport what_if_sensitivity(const core::Predictor& predictor,
                                      const dist::GenBlock& d, int iterations,
                                      const BlameReport& blame,
                                      double epsilon) {
  MHETA_CHECK(epsilon > 0 && epsilon < 1);
  SensitivityReport out;
  out.epsilon = epsilon;
  out.base_total_s = predictor.predict(d, iterations).total_s;
  const double factor = 1.0 - epsilon;
  const int n = predictor.params().node_count();

  // First-order inputs from the blame report: per-rank on-path compute and
  // disk seconds, and the path's network hops split into a latency portion
  // (one latency per hop) and the remainder (the bandwidth portion).
  std::vector<double> compute_s(static_cast<std::size_t>(n), 0.0);
  std::vector<double> disk_s(static_cast<std::size_t>(n), 0.0);
  for (const auto& c : blame.cells) {
    if (c.rank < 0 || c.rank >= n) continue;
    if (c.term == 0) compute_s[static_cast<std::size_t>(c.rank)] += c.seconds;
    if (c.term == 1 || c.term == 2 || c.term == 3)
      disk_s[static_cast<std::size_t>(c.rank)] += c.seconds;
  }
  int hops = 0;
  double wire_s = 0;
  for (const auto& e : blame.edges) {
    hops += e.hops;
    wire_s += e.transfer_s;
  }
  const double latency_portion_s =
      static_cast<double>(hops) * predictor.params().network.latency_s;
  const double bandwidth_portion_s = wire_s - latency_portion_s;

  auto evaluate = [&](core::Perturbation::Kind kind, int rank,
                      double first_order_base) {
    core::Perturbation p;
    p.kind = kind;
    p.rank = rank;
    p.factor = factor;
    WhatIfEntry e;
    e.kind = kind;
    e.rank = rank;
    e.factor = factor;
    // Exact replay: perturbed tables on a Predictor copy, same sweep.
    e.replay_s = predictor.perturbed(p).predict(d, iterations).total_s;
    // Brute force: a fresh Predictor built from the perturbed params (full
    // construction path, lint included). Must agree with the replay.
    const core::Predictor brute(predictor.structure(),
                                core::perturb_params(predictor.params(), p),
                                predictor.memory_bytes(),
                                predictor.options());
    e.brute_s = brute.predict(d, iterations).total_s;
    e.delta_s = e.replay_s - out.base_total_s;
    e.first_order_s = (factor - 1.0) * first_order_base;
    out.max_replay_vs_brute_s = std::max(out.max_replay_vs_brute_s,
                                         std::abs(e.replay_s - e.brute_s));
    out.entries.push_back(e);
  };

  for (int rank = 0; rank < n; ++rank)
    evaluate(core::Perturbation::Kind::kCompute, rank,
             compute_s[static_cast<std::size_t>(rank)]);
  for (int rank = 0; rank < n; ++rank)
    evaluate(core::Perturbation::Kind::kDisk, rank,
             disk_s[static_cast<std::size_t>(rank)]);
  evaluate(core::Perturbation::Kind::kNetLatency, -1, latency_portion_s);
  evaluate(core::Perturbation::Kind::kNetBandwidth, -1, bandwidth_portion_s);

  std::stable_sort(out.entries.begin(), out.entries.end(),
                   [](const WhatIfEntry& a, const WhatIfEntry& b) {
                     return a.delta_s < b.delta_s;
                   });
  return out;
}

void write_blame_text(std::ostream& os, const BlameReport& r) {
  os << "critical path";
  if (!r.workload.empty())
    os << " (" << r.workload << " on " << r.arch << ", " << r.dist << ")";
  os << ": " << r.iterations << " iteration(s), total " << r.total_s
     << " s\n  path " << r.path_seconds << " s over " << r.path_events
     << " events, critical rank " << r.critical_rank << "\n  terms:";
  for (int term = 0; term < core::kCostTermCount; ++term) {
    const double s = r.term_s[static_cast<std::size_t>(term)];
    if (s == 0) continue;
    os << "  " << core::cost_term_name(term) << " "
       << (r.path_seconds > 0 ? 100.0 * s / r.path_seconds : 0) << "%";
  }
  os << "\n  residency (top cells):\n";
  const std::size_t top = std::min<std::size_t>(r.cells.size(), 12);
  for (std::size_t i = 0; i < top; ++i) {
    const BlameCell& c = r.cells[i];
    os << "    rank " << c.rank << " section " << c.section_id;
    if (c.stage_id >= 0)
      os << " stage " << c.stage_id;
    else
      os << " (comm)";
    os << " " << core::cost_term_name(c.term) << ": " << c.seconds << " s ("
       << c.pct << "%)\n";
  }
  if (!r.edges.empty()) {
    os << "  comm edges on path:\n";
    for (const BlameEdge& e : r.edges)
      os << "    " << e.src << " -> " << e.dst << " section " << e.section_id
         << ": " << e.hops << " hop(s), " << e.transfer_s << " s wire\n";
  }
}

void write_sensitivity_text(std::ostream& os, const SensitivityReport& r) {
  os << "what-if sensitivity (factor " << (1.0 - r.epsilon) << ", base "
     << r.base_total_s << " s, max replay-vs-brute "
     << r.max_replay_vs_brute_s << " s):\n";
  for (const WhatIfEntry& e : r.entries) {
    os << "    " << core::perturbation_kind_name(e.kind);
    if (e.rank >= 0) os << " node " << e.rank;
    os << ": delta " << e.delta_s << " s (first-order " << e.first_order_s
       << " s)\n";
  }
}

namespace {

void write_terms_object(std::ostream& os,
                        const std::array<double, core::kCostTermCount>& terms) {
  os << "{";
  for (int term = 0; term < core::kCostTermCount; ++term) {
    if (term > 0) os << ", ";
    os << json_escape(core::cost_term_name(term)) << ": "
       << json_number(terms[static_cast<std::size_t>(term)]);
  }
  os << "}";
}

}  // namespace

void write_critical_path_json(std::ostream& os, const BlameReport& r,
                              const SensitivityReport* sensitivity) {
  os << "{\n  \"workload\": " << json_escape(r.workload)
     << ",\n  \"arch\": " << json_escape(r.arch)
     << ",\n  \"dist\": " << json_escape(r.dist)
     << ",\n  \"iterations\": " << r.iterations
     << ",\n  \"total_s\": " << json_number(r.total_s)
     << ",\n  \"path_seconds\": " << json_number(r.path_seconds)
     << ",\n  \"critical_rank\": " << r.critical_rank
     << ",\n  \"path_events\": " << r.path_events << ",\n  \"term_s\": ";
  write_terms_object(os, r.term_s);
  os << ",\n  \"cells\": [";
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    const BlameCell& c = r.cells[i];
    os << (i > 0 ? ",\n    " : "\n    ") << "{\"rank\": " << c.rank
       << ", \"section\": " << c.section_id << ", \"stage\": " << c.stage_id
       << ", \"term\": " << json_escape(core::cost_term_name(c.term))
       << ", \"seconds\": " << json_number(c.seconds)
       << ", \"pct\": " << json_number(c.pct) << "}";
  }
  os << "\n  ],\n  \"edges\": [";
  for (std::size_t i = 0; i < r.edges.size(); ++i) {
    const BlameEdge& e = r.edges[i];
    os << (i > 0 ? ",\n    " : "\n    ") << "{\"src\": " << e.src
       << ", \"dst\": " << e.dst << ", \"section\": " << e.section_id
       << ", \"hops\": " << e.hops
       << ", \"transfer_s\": " << json_number(e.transfer_s) << "}";
  }
  os << "\n  ],\n  \"iterations_path\": [";
  for (std::size_t it = 0; it < r.iteration_term_s.size(); ++it) {
    os << (it > 0 ? ",\n    " : "\n    ") << "{\"iteration\": " << it
       << ", \"end_s\": "
       << json_number(r.iteration_end_s[it]) << ", \"term_s\": ";
    write_terms_object(os, r.iteration_term_s[it]);
    os << "}";
  }
  os << "\n  ]";
  if (sensitivity != nullptr) {
    const SensitivityReport& s = *sensitivity;
    os << ",\n  \"sensitivity\": {\n    \"epsilon\": "
       << json_number(s.epsilon)
       << ",\n    \"base_total_s\": " << json_number(s.base_total_s)
       << ",\n    \"max_replay_vs_brute_s\": "
       << json_number(s.max_replay_vs_brute_s) << ",\n    \"entries\": [";
    for (std::size_t i = 0; i < s.entries.size(); ++i) {
      const WhatIfEntry& e = s.entries[i];
      os << (i > 0 ? ",\n      " : "\n      ") << "{\"parameter\": "
         << json_escape(core::perturbation_kind_name(e.kind))
         << ", \"node\": " << e.rank
         << ", \"factor\": " << json_number(e.factor)
         << ", \"replay_s\": " << json_number(e.replay_s)
         << ", \"brute_s\": " << json_number(e.brute_s)
         << ", \"delta_s\": " << json_number(e.delta_s)
         << ", \"first_order_s\": " << json_number(e.first_order_s) << "}";
    }
    os << "\n    ]\n  }";
  }
  os << "\n}\n";
}

void write_critical_path_trace(std::ostream& os, const BlameReport& r) {
  os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n"
     << "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
     << "\"tid\": 0, \"args\": {\"name\": \"mheta critical path\"}}";
  // One multi-series counter sample per iteration, at the predicted time
  // the iteration's last on-path event ends: a stacked view of which cost
  // terms the critical path spent that iteration on.
  for (std::size_t it = 0; it < r.iteration_term_s.size(); ++it) {
    os << ",\n    {\"name\": \"critical path terms (s)\", \"ph\": \"C\", "
       << "\"ts\": " << json_number(r.iteration_end_s[it] * 1e6)
       << ", \"pid\": 0, \"tid\": 0, \"args\": ";
    write_terms_object(os, r.iteration_term_s[it]);
    os << "}";
  }
  os << "\n  ]\n}\n";
}

}  // namespace mheta::obs
