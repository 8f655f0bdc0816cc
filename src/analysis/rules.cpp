#include "analysis/rules.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "analysis/bounds/bounds.hpp"
#include "ooc/planner.hpp"
#include "util/check.hpp"

namespace mheta::analysis {

namespace {

SourceLoc array_loc(const LintInput& in, std::size_t i) {
  return in.locations ? in.locations->array(i) : SourceLoc{};
}

SourceLoc section_loc(const LintInput& in, std::size_t i) {
  return in.locations ? in.locations->section(i) : SourceLoc{};
}

SourceLoc stage_loc(const LintInput& in, std::size_t si, std::size_t gi) {
  return in.locations ? in.locations->stage(si, gi) : SourceLoc{};
}

template <typename... Parts>
std::string cat(Parts&&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

/// Classic Levenshtein distance, for "did you mean ...?" fix-its.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t prev = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t cur = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         prev + (a[i - 1] == b[j - 1] ? 0 : 1)});
      prev = cur;
    }
  }
  return row[b.size()];
}

std::string nearest_array_name(const core::ProgramStructure& p,
                               const std::string& name) {
  std::string best;
  std::size_t best_d = 3;  // only suggest close misses
  for (const auto& a : p.arrays) {
    const std::size_t d = edit_distance(a.name, name);
    if (d < best_d) {
      best_d = d;
      best = a.name;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// Structure rules (MH001-MH007)
// ---------------------------------------------------------------------------

void mh001_empty_structure(const LintInput& in, Diagnostics& out) {
  const auto& p = *in.structure;
  if (p.arrays.empty())
    out.add(Severity::kError, "MH001",
            "program structure declares no distributed arrays",
            {in.locations ? in.locations->file : "", 0});
  if (p.sections.empty())
    out.add(Severity::kError, "MH001",
            "program structure declares no parallel sections",
            {in.locations ? in.locations->file : "", 0});
  for (std::size_t si = 0; si < p.sections.size(); ++si) {
    if (p.sections[si].stages.empty())
      out.add(Severity::kError, "MH001",
              cat("section ", p.sections[si].id, " has no stages"),
              section_loc(in, si));
  }
}

void mh002_array_geometry(const LintInput& in, Diagnostics& out) {
  const auto& p = *in.structure;
  for (std::size_t i = 0; i < p.arrays.size(); ++i) {
    const auto& a = p.arrays[i];
    if (a.rows <= 0)
      out.add(Severity::kError, "MH002",
              cat("array '", a.name, "' has non-positive row count ", a.rows),
              array_loc(in, i));
    if (a.row_bytes <= 0)
      out.add(Severity::kError, "MH002",
              cat("array '", a.name, "' has non-positive row size ",
                  a.row_bytes, " bytes"),
              array_loc(in, i));
    if (i > 0 && a.rows != p.arrays[0].rows && a.rows > 0 &&
        p.arrays[0].rows > 0)
      out.add(Severity::kError, "MH002",
              cat("array '", a.name, "' has ", a.rows, " rows but '",
                  p.arrays[0].name, "' has ", p.arrays[0].rows,
                  "; all distributed arrays share one GEN_BLOCK extent"),
              array_loc(in, i),
              cat("set '", a.name, "' to ", p.arrays[0].rows, " rows"));
  }
}

void mh003_duplicate_name(const LintInput& in, Diagnostics& out) {
  const auto& p = *in.structure;
  std::set<std::string> names;
  for (std::size_t i = 0; i < p.arrays.size(); ++i) {
    if (!names.insert(p.arrays[i].name).second)
      out.add(Severity::kError, "MH003",
              cat("duplicate array name '", p.arrays[i].name, "'"),
              array_loc(in, i),
              "rename one of the declarations; variables are keyed by name");
  }
  std::set<int> section_ids;
  for (std::size_t si = 0; si < p.sections.size(); ++si) {
    const auto& s = p.sections[si];
    if (!section_ids.insert(s.id).second)
      out.add(Severity::kError, "MH003",
              cat("duplicate section id ", s.id,
                  "; instrumented costs are keyed by (section, stage) id"),
              section_loc(in, si));
    std::set<int> stage_ids;
    for (std::size_t gi = 0; gi < s.stages.size(); ++gi) {
      if (!stage_ids.insert(s.stages[gi].id).second)
        out.add(Severity::kError, "MH003",
                cat("duplicate stage id ", s.stages[gi].id, " in section ",
                    s.id),
                stage_loc(in, si, gi));
    }
  }
}

void mh004_unknown_variable(const LintInput& in, Diagnostics& out) {
  const auto& p = *in.structure;
  std::set<std::string> declared;
  for (const auto& a : p.arrays) declared.insert(a.name);
  for (std::size_t si = 0; si < p.sections.size(); ++si) {
    const auto& s = p.sections[si];
    for (std::size_t gi = 0; gi < s.stages.size(); ++gi) {
      const auto& st = s.stages[gi];
      auto check_vars = [&](const std::vector<std::string>& vars,
                            const char* kind) {
        for (const auto& v : vars) {
          if (declared.count(v)) continue;
          const std::string near = nearest_array_name(p, v);
          out.add(Severity::kError, "MH004",
                  cat("stage ", st.id, " of section ", s.id, " ", kind, "s '",
                      v, "', which is not a declared array"),
                  stage_loc(in, si, gi),
                  near.empty() ? std::string{}
                               : cat("did you mean '", near, "'?"));
        }
      };
      check_vars(st.read_vars, "read");
      check_vars(st.write_vars, "write");
    }
  }
}

void mh005_pipeline_tiles(const LintInput& in, Diagnostics& out) {
  const auto& p = *in.structure;
  for (std::size_t si = 0; si < p.sections.size(); ++si) {
    const auto& s = p.sections[si];
    if (s.tiles < 1) {
      out.add(Severity::kError, "MH005",
              cat("section ", s.id, " has tile count ", s.tiles,
                  "; every section needs at least one tile"),
              section_loc(in, si), "set tiles to 1");
      continue;
    }
    if (s.pattern == core::CommPattern::kPipeline && s.tiles < 2)
      out.add(Severity::kError, "MH005",
              cat("pipelined section ", s.id, " has tiles=", s.tiles,
                  "; the pipeline (Eq. 4) needs more than one tile to "
                  "overlap neighbors"),
              section_loc(in, si),
              "set tiles > 1, or change the pattern to 'none'");
    if (s.pattern != core::CommPattern::kPipeline && s.tiles > 1)
      out.add(Severity::kWarning, "MH005",
              cat("section ", s.id, " (", core::to_string(s.pattern),
                  ") declares tiles=", s.tiles,
                  " but tiling only applies to pipelined sections"),
              section_loc(in, si),
              "set tiles to 1, or make the section pipelined");
  }
}

void mh006_comm_bytes(const LintInput& in, Diagnostics& out) {
  const auto& p = *in.structure;
  for (std::size_t si = 0; si < p.sections.size(); ++si) {
    const auto& s = p.sections[si];
    const SourceLoc loc = section_loc(in, si);
    if (s.message_bytes < 0)
      out.add(Severity::kError, "MH006",
              cat("section ", s.id, " has negative message_bytes ",
                  s.message_bytes),
              loc);
    if (s.alltoall_bytes_per_pair < 0)
      out.add(Severity::kError, "MH006",
              cat("section ", s.id, " has negative alltoall_bytes_per_pair ",
                  s.alltoall_bytes_per_pair),
              loc);
    if (s.reduce_bytes < 0)
      out.add(Severity::kError, "MH006",
              cat("section ", s.id, " has negative reduce_bytes ",
                  s.reduce_bytes),
              loc);
    const bool comm = s.pattern != core::CommPattern::kNone;
    if (comm && s.message_bytes == 0)
      out.add(Severity::kWarning, "MH006",
              cat("section ", s.id, " communicates (",
                  core::to_string(s.pattern),
                  ") but declares zero-byte boundary messages"),
              loc, "set message_bytes to the halo/boundary size");
    if (!comm && s.message_bytes > 0)
      out.add(Severity::kWarning, "MH006",
              cat("section ", s.id, " declares message_bytes ",
                  s.message_bytes, " but has no communication pattern"),
              loc, "set message_bytes to 0 or declare a pattern");
    if (s.has_alltoall && s.alltoall_bytes_per_pair == 0)
      out.add(Severity::kWarning, "MH006",
              cat("section ", s.id,
                  " declares a total exchange of zero bytes per pair"),
              loc);
    if (!s.has_alltoall && s.alltoall_bytes_per_pair > 0)
      out.add(Severity::kWarning, "MH006",
              cat("section ", s.id, " sets alltoall_bytes_per_pair but "
                  "has_alltoall is false; the exchange will not happen"),
              loc, "set has_alltoall to 1");
    if (s.has_reduction && s.reduce_bytes == 0)
      out.add(Severity::kWarning, "MH006",
              cat("section ", s.id, " declares a zero-byte reduction"), loc,
              "set reduce_bytes to the reduced value's size (typically 8)");
    // Boundary messages normally carry whole rows of some array; a size
    // that matches no declared row size is usually a unit error.
    if (comm && s.message_bytes > 0 && !p.arrays.empty()) {
      const bool whole_rows =
          std::any_of(p.arrays.begin(), p.arrays.end(), [&](const auto& a) {
            return a.row_bytes > 0 && s.message_bytes % a.row_bytes == 0;
          });
      if (!whole_rows)
        out.add(Severity::kWarning, "MH006",
                cat("section ", s.id, "'s message_bytes (", s.message_bytes,
                    ") is not a multiple of any declared array's row size"),
                loc,
                "halo/boundary messages normally carry whole rows; check "
                "the element-size arithmetic");
    }
  }
}

void mh007_nonuniform_row_work(const LintInput& in, Diagnostics& out) {
  const auto& p = *in.structure;
  for (std::size_t si = 0; si < p.sections.size(); ++si) {
    const auto& s = p.sections[si];
    for (std::size_t gi = 0; gi < s.stages.size(); ++gi) {
      if (s.stages[gi].row_work)
        out.add(Severity::kNote, "MH007",
                cat("stage ", s.stages[gi].id, " of section ", s.id,
                    " has a non-uniform per-row work function; MHETA "
                    "assumes uniform rows (paper §5.4, limitation 3) and "
                    "will mispredict skewed data sets"),
                stage_loc(in, si, gi));
    }
  }
}

// ---------------------------------------------------------------------------
// Triple rules (MH008-MH011): structure x cluster x distribution
// ---------------------------------------------------------------------------

void mh008_distribution_shape(const LintInput& in, Diagnostics& out) {
  if (!in.distribution) return;
  const auto& d = *in.distribution;
  const auto& p = *in.structure;
  if (in.cluster && d.nodes() != in.cluster->size())
    out.add(Severity::kError, "MH008",
            cat("GEN_BLOCK has ", d.nodes(), " blocks but cluster '",
                in.cluster->name, "' has ", in.cluster->size(), " nodes"));
  const std::int64_t rows = p.rows();
  if (rows > 0 && d.total() != rows) {
    const std::int64_t delta = rows - d.total();
    std::string fix;
    if (d.nodes() > 0)
      fix = cat(delta > 0 ? "raise" : "lower", " node ", d.nodes() - 1,
                "'s count by ", std::llabs(delta), " (to ",
                d.count(d.nodes() - 1) + delta, ")");
    out.add(Severity::kError, "MH008",
            cat("GEN_BLOCK counts sum to ", d.total(),
                " but the distributed arrays have ", rows, " rows"),
            {}, fix);
  }
}

void mh009_memory_feasibility(const LintInput& in, Diagnostics& out) {
  if (!in.distribution) return;
  const auto& d = *in.distribution;
  const auto& p = *in.structure;
  if (p.arrays.empty()) return;

  auto memory_of = [&](int i) -> std::int64_t {
    if (in.cluster && i < in.cluster->size())
      return in.cluster->node(i).memory_bytes;
    if (in.memory_bytes && i < static_cast<int>(in.memory_bytes->size()))
      return (*in.memory_bytes)[static_cast<std::size_t>(i)];
    return -1;  // unknown
  };

  const std::int64_t bytes_per_row = p.bytes_per_row();
  ooc::PlannerOptions popts;
  popts.overhead_bytes = in.planner_overhead_bytes;
  popts.max_blocks = in.max_blocks;
  for (int i = 0; i < d.nodes(); ++i) {
    if (d.count(i) == 0) continue;
    const std::int64_t mem = memory_of(i);
    if (mem < 0) continue;  // no machine knowledge for this node
    const std::int64_t usable =
        std::max<std::int64_t>(0, mem - in.planner_overhead_bytes);
    if (bytes_per_row > usable) {
      out.add(Severity::kError, "MH009",
              cat("node ", i, " cannot hold one row of every array (",
                  bytes_per_row, " B working set vs ", usable,
                  " B usable memory); no out-of-core plan can stream it"),
              {},
              cat("assign node ", i,
                  " zero rows, or raise its memory above ",
                  bytes_per_row + in.planner_overhead_bytes, " B"));
      continue;
    }
    // The block-count ceiling can force ICLAs larger than the memory
    // share the planner computed, silently overcommitting M_i.
    const ooc::NodePlan plan =
        ooc::plan_node(p.arrays, d.count(i), mem, popts);
    std::int64_t resident = plan.in_core_bytes;
    for (const auto& ap : plan.arrays)
      if (ap.out_of_core) resident += ap.icla_bytes();
    if (resident > usable)
      out.add(Severity::kWarning, "MH009",
              cat("node ", i, "'s plan holds ", resident,
                  " B resident but only ", usable,
                  " B are usable; the max_blocks ceiling (", in.max_blocks,
                  ") forces oversized ICLAs"),
              {}, "raise max_blocks or assign the node fewer rows");
  }
}

void mh010_pipeline_rows(const LintInput& in, Diagnostics& out) {
  if (!in.distribution) return;
  const auto& d = *in.distribution;
  const auto& p = *in.structure;
  for (std::size_t si = 0; si < p.sections.size(); ++si) {
    const auto& s = p.sections[si];
    if (s.pattern != core::CommPattern::kPipeline || s.tiles < 2) continue;
    for (int i = 0; i < d.nodes(); ++i) {
      const std::int64_t rows = d.count(i);
      if (rows == 0) continue;
      if (rows < s.tiles) {
        out.add(Severity::kWarning, "MH010",
                cat("node ", i, " holds ", rows, " rows but section ", s.id,
                    " pipelines ", s.tiles,
                    " tiles; some tiles are empty and stall the chain"),
                section_loc(in, si),
                cat("assign node ", i, " at least ", s.tiles, " rows"));
      } else if (rows % s.tiles != 0) {
        const std::int64_t down = rows - rows % s.tiles;
        out.add(Severity::kWarning, "MH010",
                cat("node ", i, "'s ", rows,
                    " rows are not divisible by section ", s.id, "'s ",
                    s.tiles, " tiles; tile boundaries are uneven"),
                section_loc(in, si),
                cat("move ", rows % s.tiles, " rows to make it ", down,
                    " (or ", down + s.tiles, ")"));
      }
    }
  }
}

void mh011_cluster_sanity(const LintInput& in, Diagnostics& out) {
  if (!in.cluster) return;
  const auto& c = *in.cluster;
  for (int i = 0; i < c.size(); ++i) {
    const auto& n = c.node(i);
    if (!(n.cpu_power > 0))
      out.add(Severity::kError, "MH011",
              cat("node ", i, " has non-positive CPU power C_i=", n.cpu_power,
                  "; T_c' = T_c * W'/W scaling divides by it"));
    if (n.memory_bytes <= 0)
      out.add(Severity::kError, "MH011",
              cat("node ", i, " has non-positive memory M_i=",
                  n.memory_bytes));
    if (!(n.disk_read_s_per_byte > 0) || !(n.disk_write_s_per_byte > 0))
      out.add(Severity::kError, "MH011",
              cat("node ", i, " has a non-positive disk rate S_i "
                  "(read ", n.disk_read_s_per_byte, ", write ",
                  n.disk_write_s_per_byte, " s/B)"));
    if (n.disk_read_seek_s < 0 || n.disk_write_seek_s < 0)
      out.add(Severity::kError, "MH011",
              cat("node ", i, " has negative seek overhead (O_r ",
                  n.disk_read_seek_s, ", O_w ", n.disk_write_seek_s, ")"));
    if (n.file_cache_bytes < 0)
      out.add(Severity::kError, "MH011",
              cat("node ", i, " has negative file-cache capacity"));
  }
  const auto& net = c.network;
  if (net.send_overhead_s < 0 || net.recv_overhead_s < 0 ||
      net.latency_s < 0 || net.s_per_byte < 0)
    out.add(Severity::kError, "MH011",
            "network parameters (o_s, o_r, latency, s/B) must be "
            "non-negative");
}

// ---------------------------------------------------------------------------
// Model-input rules (MH012-MH015): structure x MhetaParams x memory
// ---------------------------------------------------------------------------

void mh012_params_shape(const LintInput& in, Diagnostics& out) {
  if (!in.params) return;
  const auto& params = *in.params;
  const auto& p = *in.structure;
  const int n = params.node_count();
  if (n == 0)
    out.add(Severity::kError, "MH012",
            "MhetaParams describe zero nodes; nothing can be predicted");
  if (params.instrumented_dist.nodes() != n)
    out.add(Severity::kError, "MH012",
            cat("instrumented distribution has ",
                params.instrumented_dist.nodes(), " blocks but params "
                "describe ", n, " nodes"));
  if (in.memory_bytes && static_cast<int>(in.memory_bytes->size()) != n)
    out.add(Severity::kError, "MH012",
            cat("got ", in.memory_bytes->size(),
                " per-node memory capacities for ", n, " nodes"));
  if (in.memory_bytes) {
    for (std::size_t i = 0; i < in.memory_bytes->size(); ++i)
      if ((*in.memory_bytes)[i] < 0)
        out.add(Severity::kError, "MH012",
                cat("node ", i, " has negative memory capacity ",
                    (*in.memory_bytes)[i]));
  }
  if (in.cluster && in.cluster->size() != n)
    out.add(Severity::kError, "MH012",
            cat("cluster '", in.cluster->name, "' has ", in.cluster->size(),
                " nodes but params describe ", n));
  if (params.instrumented_dist.nodes() == n) {
    for (int i = 0; i < n; ++i)
      if (params.instrumented_dist.count(i) == 0)
        out.add(Severity::kWarning, "MH012",
                cat("the instrumented run assigned node ", i,
                    " zero rows; the model cannot scale its costs and "
                    "prediction fails if any distribution gives it rows"));
    const std::int64_t rows = p.rows();
    if (rows > 0 && params.instrumented_dist.total() != rows &&
        params.instrumented_dist.total() > 0)
      out.add(Severity::kWarning, "MH012",
              cat("the instrumented distribution covers ",
                  params.instrumented_dist.total(), " rows but the arrays "
                  "have ", rows, "; compute scaling extrapolates beyond "
                  "the measured working set"));
  }
}

void mh013_comm_matching(const LintInput& in, Diagnostics& out) {
  if (!in.params) return;
  const auto& params = *in.params;
  const int n = params.node_count();
  // Mirror the FIFO matching the Predictor interns and SimMP executes: for
  // every recorded receive there must be a same-pair send left over.
  for (const auto& section : in.structure->sections) {
    for (int r = 0; r < n; ++r) {
      const auto& comm = params.nodes[static_cast<std::size_t>(r)].comm;
      const auto it = comm.find(section.id);
      if (it == comm.end()) continue;
      for (const auto& m : it->second.sends) {
        if (m.peer < 0 || m.peer >= n)
          out.add(Severity::kError, "MH013",
                  cat("node ", r, " records a send to node ", m.peer,
                      " in section ", section.id, ", which does not exist"));
        if (m.bytes < 0)
          out.add(Severity::kError, "MH013",
                  cat("node ", r, " records a negative-size send (", m.bytes,
                      " B) in section ", section.id));
      }
      std::vector<int> consumed(static_cast<std::size_t>(std::max(n, 1)), 0);
      for (const auto& m : it->second.recvs) {
        if (m.peer < 0 || m.peer >= n) {
          out.add(Severity::kError, "MH013",
                  cat("node ", r, " records a receive from node ", m.peer,
                      " in section ", section.id, ", which does not exist"));
          continue;
        }
        const auto& peer_comm =
            params.nodes[static_cast<std::size_t>(m.peer)].comm;
        const auto pit = peer_comm.find(section.id);
        int available = 0;
        if (pit != peer_comm.end())
          for (const auto& s : pit->second.sends)
            if (s.peer == r) ++available;
        if (consumed[static_cast<std::size_t>(m.peer)]++ >= available)
          out.add(Severity::kError, "MH013",
                  cat("node ", r, " waits for a message from node ", m.peer,
                      " in section ", section.id, " that node ", m.peer,
                      " never sends; SimMP would deadlock"),
                  {},
                  cat("record the matching send on node ", m.peer,
                      " or drop the receive"));
      }
    }
  }
}

void mh014_measured_costs(const LintInput& in, Diagnostics& out) {
  if (!in.params) return;
  const auto& params = *in.params;
  const auto& p = *in.structure;
  if (params.network.latency_s < 0 || params.network.s_per_byte < 0)
    out.add(Severity::kError, "MH014",
            "measured network latency and transfer time must be "
            "non-negative");
  for (std::size_t r = 0; r < params.nodes.size(); ++r) {
    const auto& node = params.nodes[r];
    if (node.read_seek_s < 0 || node.write_seek_s < 0 ||
        node.send_overhead_s < 0 || node.recv_overhead_s < 0 ||
        node.disk_read_s_per_byte < 0 || node.disk_write_s_per_byte < 0)
      out.add(Severity::kError, "MH014",
              cat("node ", r, " has a negative measured overhead (O_r/O_w/"
                  "o_s/o_r/disk rates)"));
    for (const auto& [key, costs] : node.stages) {
      if (costs.compute_s < 0)
        out.add(Severity::kError, "MH014",
                cat("node ", r, " measured negative compute time ",
                    costs.compute_s, " s for section ", key.first, " stage ",
                    key.second));
      for (const auto& [var, io] : costs.vars)
        if (io.read_s_per_byte < 0 || io.write_s_per_byte < 0)
          out.add(Severity::kError, "MH014",
                  cat("node ", r, " measured a negative I/O latency for "
                      "variable '", var, "' in section ", key.first));
    }
  }
  // Coverage: a node the instrumented run gave rows must have costs for
  // every (section, stage) and latencies for every variable it streams —
  // prediction throws mid-evaluation otherwise.
  const auto& d = params.instrumented_dist;
  if (d.nodes() != params.node_count()) return;  // reported by MH012
  for (int r = 0; r < params.node_count(); ++r) {
    const auto& node = params.nodes[static_cast<std::size_t>(r)];
    for (const auto& s : p.sections) {
      for (const auto& st : s.stages) {
        const auto it = node.stages.find({s.id, st.id});
        if (it == node.stages.end()) {
          out.add(Severity::kWarning, "MH014",
                  cat("node ", r, " has no measured costs for section ",
                      s.id, " stage ", st.id,
                      "; prediction fails if it is assigned rows"));
          continue;
        }
        for (const auto& vars : {&st.read_vars, &st.write_vars})
          for (const auto& v : *vars)
            if (!it->second.vars.count(v))
              out.add(Severity::kWarning, "MH014",
                      cat("node ", r, " has no measured I/O latency for "
                          "variable '", v, "' streamed by section ", s.id,
                          " stage ", st.id));
      }
    }
  }
}

void mh015_steady_state(const LintInput& in, Diagnostics& out) {
  if (in.planner_overhead_bytes < 0)
    out.add(Severity::kError, "MH015",
            cat("planner overhead must be non-negative (got ",
                in.planner_overhead_bytes, " B)"));
  if (in.max_blocks < 1)
    out.add(Severity::kError, "MH015",
            cat("the block-count ceiling must be at least 1 (got ",
                in.max_blocks, ")"));
  if (!in.params) return;
  // The steady-state shortcut detects a bitwise fixed point of the per-node
  // clock offsets; a NaN never compares equal to itself, so a single
  // non-finite measurement turns the shortcut (and the plain loop) into
  // garbage-in-garbage-out. Reject it up front.
  const auto& params = *in.params;
  auto finite = [](double v) { return std::isfinite(v); };
  if (!finite(params.network.latency_s) || !finite(params.network.s_per_byte))
    out.add(Severity::kError, "MH015",
            "network parameters must be finite; non-finite values break "
            "the steady-state fixed-point detection");
  for (std::size_t r = 0; r < params.nodes.size(); ++r) {
    const auto& node = params.nodes[r];
    bool bad = !finite(node.read_seek_s) || !finite(node.write_seek_s) ||
               !finite(node.send_overhead_s) || !finite(node.recv_overhead_s);
    for (const auto& [key, costs] : node.stages) {
      (void)key;
      if (!finite(costs.compute_s)) bad = true;
      for (const auto& [var, io] : costs.vars) {
        (void)var;
        if (!finite(io.read_s_per_byte) || !finite(io.write_s_per_byte))
          bad = true;
      }
    }
    if (bad)
      out.add(Severity::kError, "MH015",
              cat("node ", r, " has a non-finite measured cost; the "
                  "steady-state shortcut's fixed point (and every "
                  "prediction) would be NaN"));
  }
}

// ---------------------------------------------------------------------------
// Numerical-safety and dominance rules (MH019-MH023). MH019-MH021 guard the
// arithmetic the cost equations perform; MH022-MH023 use the interval-bounds
// interpreter (analysis/bounds) to prove dead weight under a concrete
// distribution. MH016-MH018 are the fault-scenario rules and live in
// src/fault/scenario_lint.hpp.
// ---------------------------------------------------------------------------

void mh019_numeric_overflow(const LintInput& in, Diagnostics& out) {
  if (!in.params) return;
  const auto& params = *in.params;
  const auto& p = *in.structure;
  const std::int64_t rows = std::max<std::int64_t>(0, p.rows());
  // The worst-case derived magnitudes the equations can form from finite
  // inputs: T_c scaled to the full extent, per-byte latencies over a full
  // local array, and the network transfer of the declared messages. A
  // finite input whose product is Inf poisons every max() downstream
  // (unlike NaN, Inf survives the steady-state fixed point — MH015 cannot
  // catch it).
  auto check_product = [&](double v, const std::string& what) {
    if (!std::isfinite(v))
      out.add(Severity::kError, "MH019",
              cat(what, " overflows double precision; every prediction "
                        "containing it is +Inf"),
              {}, "rescale the measured unit (seconds, not nanoseconds)");
  };
  for (std::size_t r = 0; r < params.nodes.size(); ++r) {
    const auto& node = params.nodes[r];
    const std::int64_t w =
        params.instrumented_dist.nodes() > static_cast<int>(r)
            ? params.instrumented_dist.count(static_cast<int>(r))
            : 0;
    for (const auto& [key, costs] : node.stages) {
      if (std::isfinite(costs.compute_s) && w > 0)
        check_product(costs.compute_s * static_cast<double>(rows) /
                          static_cast<double>(w),
                      cat("node ", r, "'s compute time for section ",
                          key.first, " stage ", key.second,
                          " scaled to the full extent"));
      for (const auto& [var, io] : costs.vars) {
        double bytes = 0;
        for (const auto& a : p.arrays)
          if (a.name == var)
            bytes =
                static_cast<double>(rows) * static_cast<double>(a.row_bytes);
        if (std::isfinite(io.read_s_per_byte))
          check_product(io.read_s_per_byte * bytes,
                        cat("node ", r, "'s read latency for variable '", var,
                            "' over a full local array"));
        if (std::isfinite(io.write_s_per_byte))
          check_product(io.write_s_per_byte * bytes,
                        cat("node ", r, "'s write latency for variable '", var,
                            "' over a full local array"));
      }
    }
  }
  if (std::isfinite(params.network.s_per_byte)) {
    for (const auto& s : p.sections) {
      check_product(params.network.transfer_s(s.message_bytes),
                    cat("section ", s.id, "'s boundary-message transfer"));
      check_product(params.network.transfer_s(s.alltoall_bytes_per_pair),
                    cat("section ", s.id, "'s alltoall transfer"));
      check_product(params.network.transfer_s(s.reduce_bytes),
                    cat("section ", s.id, "'s reduction transfer"));
    }
  }
}

void mh020_accumulation_overflow(const LintInput& in, Diagnostics& out) {
  const auto& p = *in.structure;
  // Byte totals are carried in int64 (planner admission sums) and cast to
  // double (per-byte latency products). Flag extents that overflow the
  // former or exceed the latter's 2^53 integer-exact range before they
  // silently wrap or lose rows in the arithmetic.
  constexpr double kInt64Risk = 4.6e18;   // ~2^62, headroom before wrap
  constexpr double kMantissa = 9.007199254740992e15;  // 2^53
  long double total = 0;
  for (std::size_t i = 0; i < p.arrays.size(); ++i) {
    const auto& a = p.arrays[i];
    if (a.rows <= 0 || a.row_bytes <= 0) continue;  // MH002's finding
    const long double la = static_cast<long double>(a.rows) *
                           static_cast<long double>(a.row_bytes);
    total += la;
    if (la > kInt64Risk)
      out.add(Severity::kWarning, "MH020",
              cat("array '", a.name, "' spans ", a.rows, " x ", a.row_bytes,
                  " B; the planner's 64-bit byte sums are at overflow risk"),
              array_loc(in, i), "shrink the extent or split the array");
    else if (la > kMantissa)
      out.add(Severity::kWarning, "MH020",
              cat("array '", a.name, "' spans more than 2^53 bytes; "
                  "per-byte latency products lose integer precision"),
              array_loc(in, i));
  }
  if (total > kInt64Risk && !p.arrays.empty())
    out.add(Severity::kWarning, "MH020",
            "the arrays' combined byte total is at 64-bit overflow risk in "
            "the planner's admission sums",
            array_loc(in, 0), "shrink the extents");
}

void mh021_zero_measure_stage(const LintInput& in, Diagnostics& out) {
  const auto& p = *in.structure;
  for (std::size_t si = 0; si < p.sections.size(); ++si) {
    const auto& s = p.sections[si];
    for (std::size_t gi = 0; gi < s.stages.size(); ++gi) {
      const auto& st = s.stages[gi];
      if (st.work_per_row_s == 0 && !st.row_work && st.read_vars.empty() &&
          st.write_vars.empty())
        out.add(Severity::kWarning, "MH021",
                cat("stage ", st.id, " of section ", s.id,
                    " declares no work and streams no variables; it has "
                    "zero measure in every cost equation"),
                stage_loc(in, si, gi),
                cat("remove stage ", st.id, " from section ", s.id));
    }
  }
}

/// True when the full model-input triple is present and shaped well enough
/// for the bounds interpreter to evaluate (MH022/MH023 share this gate; a
/// malformed triple is already reported by MH008/MH012/MH014).
bool bounds_evaluable(const LintInput& in) {
  if (!in.params || !in.memory_bytes || !in.distribution) return false;
  const int n = in.params->node_count();
  return n >= 1 && static_cast<int>(in.memory_bytes->size()) == n &&
         in.distribution->nodes() == n;
}

void mh022_dead_weight_node(const LintInput& in, Diagnostics& out) {
  if (!bounds_evaluable(in)) return;
  const int n = in.params->node_count();
  if (n < 2) return;
  try {
    const bounds::CostBoundsAnalyzer analyzer(
        *in.structure, *in.params, *in.memory_bytes,
        {in.planner_overhead_bytes, in.max_blocks});
    const bounds::TotalBounds tb =
        analyzer.total_bounds(*in.distribution, 1);
    for (int r = 0; r < n; ++r) {
      double other_lo = 0;
      int critical = -1;
      for (int s = 0; s < n; ++s) {
        if (s == r) continue;
        if (tb.node_end[static_cast<std::size_t>(s)].lo >= other_lo) {
          other_lo = tb.node_end[static_cast<std::size_t>(s)].lo;
          critical = s;
        }
      }
      if (tb.node_end[static_cast<std::size_t>(r)].hi < other_lo)
        out.add(Severity::kNote, "MH022",
                cat("node ", r, " is provably never on the critical path "
                    "(certified end <= ",
                    tb.node_end[static_cast<std::size_t>(r)].hi,
                    " s while node ", critical, " ends >= ", other_lo,
                    " s); its slack is dead weight"),
                {},
                cat("move rows from node ", critical, " to node ", r));
    }
  } catch (const CheckError&) {
    // The triple is not evaluable (missing measured costs, zero
    // instrumented rows, ...); the coverage rules already reported why.
  }
}

void mh023_dead_weight_stage(const LintInput& in, Diagnostics& out) {
  if (!bounds_evaluable(in)) return;
  // A (section, stage) whose certified upper bound is numerically zero on
  // every rank burns a slot in every iteration's evaluation without moving
  // any clock. Strictly below any measurable time: widening alone produces
  // at most a few kWidenAbs per tile.
  constexpr double kZero = 1e-10;
  try {
    const bounds::CostBoundsAnalyzer analyzer(
        *in.structure, *in.params, *in.memory_bytes,
        {in.planner_overhead_bytes, in.max_blocks});
    const auto cells = analyzer.stage_bounds(*in.distribution);
    std::map<std::pair<int, int>, double> max_hi;
    for (const auto& c : cells) {
      auto& slot = max_hi[{c.section_id, c.stage_id}];
      slot = std::max(slot, c.time.hi);
    }
    for (const auto& [key, hi] : max_hi) {
      if (hi <= kZero)
        out.add(Severity::kNote, "MH023",
                cat("stage ", key.second, " of section ", key.first,
                    " contributes provably zero time on every node under "
                    "this distribution and these measured costs"),
                {},
                cat("remove stage ", key.second, " from section ", key.first,
                    " or re-instrument it"));
    }
  } catch (const CheckError&) {
    // Not evaluable; covered by MH012/MH014.
  }
}

}  // namespace

const std::vector<Rule>& rule_catalog() {
  static const std::vector<Rule> kCatalog = {
      {{"MH001", "empty-structure", Severity::kError,
        "a structure without arrays, sections or stages has no semantics"},
       mh001_empty_structure},
      {{"MH002", "array-geometry", Severity::kError,
        "rows/row_bytes must be positive and all arrays share one extent"},
       mh002_array_geometry},
      {{"MH003", "duplicate-name", Severity::kError,
        "variables and (section, stage) ids key the measured-cost tables"},
       mh003_duplicate_name},
      {{"MH004", "unknown-variable", Severity::kError,
        "a stage streaming an undeclared array has no plan and no costs"},
       mh004_unknown_variable},
      {{"MH005", "pipeline-tiles", Severity::kError,
        "the pipeline equation (Eq. 4) needs >1 tile; tiles are ignored "
        "elsewhere"},
       mh005_pipeline_tiles},
      {{"MH006", "comm-bytes", Severity::kError,
        "message/alltoall/reduce byte counts must match the declared "
        "communication"},
       mh006_comm_bytes},
      {{"MH007", "nonuniform-row-work", Severity::kNote,
        "MHETA assumes uniform per-row work (paper limitation 3)"},
       mh007_nonuniform_row_work},
      {{"MH008", "distribution-shape", Severity::kError,
        "GEN_BLOCK blocks must cover the array extent on the cluster's "
        "nodes"},
       mh008_distribution_shape},
      {{"MH009", "memory-feasibility", Severity::kError,
        "a node must hold one row of every array or the planner cannot "
        "stream"},
       mh009_memory_feasibility},
      {{"MH010", "pipeline-rows", Severity::kWarning,
        "uneven or empty pipeline tiles stall the chain (Eq. 4)"},
       mh010_pipeline_rows},
      {{"MH011", "cluster-sanity", Severity::kError,
        "C_i, S_i and M_i must be positive; the equations divide by them"},
       mh011_cluster_sanity},
      {{"MH012", "params-shape", Severity::kError,
        "params, memories and the instrumented distribution must agree on "
        "the node count"},
       mh012_params_shape},
      {{"MH013", "comm-matching", Severity::kError,
        "every recorded receive needs a matching send or SimMP deadlocks"},
       mh013_comm_matching},
      {{"MH014", "measured-costs", Severity::kError,
        "measured costs must be non-negative and cover every stage the "
        "model evaluates"},
       mh014_measured_costs},
      {{"MH015", "steady-state", Severity::kError,
        "model knobs must be valid and costs finite for the steady-state "
        "fixed point"},
       mh015_steady_state},
      // MH016-MH018 are the fault-scenario rules (src/fault); the IDs stay
      // reserved here so the combined catalog is gap-free and append-only.
      {{"MH019", "numeric-overflow", Severity::kError,
        "finite inputs whose derived products are Inf poison every "
        "prediction"},
       mh019_numeric_overflow},
      {{"MH020", "accumulation-overflow", Severity::kWarning,
        "byte totals beyond int64/2^53 silently wrap or lose precision"},
       mh020_accumulation_overflow},
      {{"MH021", "zero-measure-stage", Severity::kWarning,
        "a stage with no work and no variables has zero measure in every "
        "equation"},
       mh021_zero_measure_stage},
      {{"MH022", "dead-weight-node", Severity::kNote,
        "a node whose certified end never reaches another node's lower "
        "bound is dead weight"},
       mh022_dead_weight_node},
      {{"MH023", "dead-weight-stage", Severity::kNote,
        "a stage with a certified zero upper bound on every node burns "
        "evaluation for nothing"},
       mh023_dead_weight_stage},
  };
  return kCatalog;
}

const Rule* find_rule(const std::string& id) {
  for (const auto& r : rule_catalog())
    if (id == r.info.id) return &r;
  return nullptr;
}

Diagnostics run_rules(const LintInput& input) {
  MHETA_CHECK(input.structure != nullptr);
  Diagnostics out(input.structure->name.empty() ? "<structure>"
                                                : input.structure->name);
  for (const auto& rule : rule_catalog()) rule.check(input, out);
  return out;
}

}  // namespace mheta::analysis
