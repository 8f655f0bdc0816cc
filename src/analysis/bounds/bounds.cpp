#include "analysis/bounds/bounds.hpp"

#include <algorithm>
#include <cmath>

#include "ooc/planner.hpp"
#include "ooc/stage.hpp"
#include "util/check.hpp"

namespace mheta::analysis::bounds {

namespace {

/// Rounds a lower bound toward zero by the widening margins (the dual of
/// widened() for values that must stay *below* every concrete evaluation).
double lower_widened(double x) {
  return std::max(0.0, x - kWidenRel * std::abs(x) - kWidenAbs);
}

/// Per-rank unconditional o_s/o_r add counts through one allreduce
/// (binomial reduce to rank 0 + binomial broadcast), mirroring
/// the reduce + broadcast schedule of the model's clock walk
/// (Predictor::reduce_broadcast, core/walk.hpp). Pure function of n.
void reduction_add_counts(int n, std::vector<int>& os_count,
                          std::vector<int>& or_count) {
  if (n <= 1) return;
  for (int mask = 1; mask < n; mask <<= 1) {
    for (int r = 0; r < n; ++r) {
      if ((r & mask) != 0 && (r & (mask - 1)) == 0)
        ++os_count[static_cast<std::size_t>(r)];
      if ((r & mask) == 0 && (r & (mask - 1)) == 0 && (r | mask) < n)
        ++or_count[static_cast<std::size_t>(r)];
    }
  }
  for (int r = 0; r < n; ++r) {
    int entry;
    if (r == 0) {
      entry = 1;
      while (entry < n) entry <<= 1;
    } else {
      ++or_count[static_cast<std::size_t>(r)];
      entry = r & -r;
    }
    for (int m = entry >> 1; m >= 1; m >>= 1)
      if (r + m < n) ++os_count[static_cast<std::size_t>(r)];
  }
}

}  // namespace

CostBoundsAnalyzer::CostBoundsAnalyzer(
    const core::ProgramStructure& structure,
    const instrument::MhetaParams& params,
    const std::vector<std::int64_t>& memory_bytes, BoundsKnobs knobs)
    : structure_(&structure),
      params_(&params),
      memory_bytes_(&memory_bytes),
      knobs_(knobs) {
  n_ = params.node_count();
  MHETA_CHECK(n_ >= 1);
  MHETA_CHECK(memory_bytes.size() == static_cast<std::size_t>(n_));
  const auto& sections = structure.sections;
  const auto& arrays = structure.arrays;

  w_instr_.resize(static_cast<std::size_t>(n_));
  for (int r = 0; r < n_; ++r)
    w_instr_[static_cast<std::size_t>(r)] = params.instrumented_dist.count(r);

  // Flat stage slots and tile-expanded cells.
  int slots = 0;
  int cells = 0;
  for (const auto& s : sections) {
    section_stage_offset_.push_back(slots);
    section_cell_offset_.push_back(cells);
    const int tiles =
        s.pattern == core::CommPattern::kPipeline ? s.tiles : 1;
    section_tiles_.push_back(tiles);
    slots += static_cast<int>(s.stages.size());
    cells += tiles * static_cast<int>(s.stages.size());
  }
  total_stage_slots_ = slots;
  total_cells_ = cells;

  // Variable-name resolution, exactly once (mirrors the model's interning;
  // an unknown name is a malformed structure).
  stage_read_idx_.assign(static_cast<std::size_t>(slots), {});
  stage_write_idx_.assign(static_cast<std::size_t>(slots), {});
  auto array_index = [&](const std::string& name) {
    for (std::size_t ai = 0; ai < arrays.size(); ++ai)
      if (arrays[ai].name == name) return static_cast<int>(ai);
    MHETA_CHECK_MSG(false, "no array named " << name);
    return -1;  // unreachable
  };
  for (std::size_t si = 0; si < sections.size(); ++si) {
    for (std::size_t g = 0; g < sections[si].stages.size(); ++g) {
      const std::size_t flat =
          static_cast<std::size_t>(section_stage_offset_[si]) + g;
      for (const auto& name : sections[si].stages[g].read_vars)
        stage_read_idx_[flat].push_back(array_index(name));
      for (const auto& name : sections[si].stages[g].write_vars)
        stage_write_idx_[flat].push_back(array_index(name));
    }
  }

  // Dense per-(rank, stage) compute costs and per-variable latencies.
  const std::size_t nslots =
      static_cast<std::size_t>(n_) * static_cast<std::size_t>(slots);
  stage_present_.assign(nslots, 0);
  stage_compute_s_.assign(nslots, 0.0);
  var_read_spb_.assign(nslots * arrays.size(), 0.0);
  var_write_spb_.assign(nslots * arrays.size(), 0.0);
  var_present_.assign(nslots * arrays.size(), 0);
  for (int r = 0; r < n_; ++r) {
    const auto& node = params.nodes[static_cast<std::size_t>(r)];
    for (std::size_t si = 0; si < sections.size(); ++si) {
      for (std::size_t g = 0; g < sections[si].stages.size(); ++g) {
        const std::size_t slot =
            static_cast<std::size_t>(r) * static_cast<std::size_t>(slots) +
            static_cast<std::size_t>(section_stage_offset_[si]) + g;
        const auto it =
            node.stages.find({sections[si].id, sections[si].stages[g].id});
        if (it == node.stages.end()) continue;
        stage_present_[slot] = 1;
        stage_compute_s_[slot] = it->second.compute_s;
        for (std::size_t ai = 0; ai < arrays.size(); ++ai) {
          const auto vit = it->second.vars.find(arrays[ai].name);
          if (vit == it->second.vars.end()) continue;
          var_read_spb_[slot * arrays.size() + ai] =
              vit->second.read_s_per_byte;
          var_write_spb_[slot * arrays.size() + ai] =
              vit->second.write_s_per_byte;
          var_present_[slot * arrays.size() + ai] = 1;
        }
      }
    }
  }

  // Per-section comm with FIFO-matched recv slots (same matching semantics
  // as the model, derived independently from the raw records).
  comm_.assign(sections.size(), {});
  for (std::size_t si = 0; si < sections.size(); ++si) {
    auto& sc = comm_[si];
    sc.sends.resize(static_cast<std::size_t>(n_));
    sc.recvs.resize(static_cast<std::size_t>(n_));
    sc.send_offset.resize(static_cast<std::size_t>(n_));
    sc.pipeline_transfer_s.assign(static_cast<std::size_t>(n_), 0.0);
    for (int r = 0; r < n_; ++r) {
      const auto& comm = params.nodes[static_cast<std::size_t>(r)].comm;
      const auto it = comm.find(sections[si].id);
      std::int64_t pipeline_bytes = sections[si].message_bytes;
      if (it != comm.end()) {
        for (const auto& m : it->second.sends)
          sc.sends[static_cast<std::size_t>(r)].push_back(
              {m.peer, params.network.transfer_s(m.bytes)});
        if (!it->second.sends.empty())
          pipeline_bytes = it->second.sends.front().bytes;
      }
      sc.pipeline_transfer_s[static_cast<std::size_t>(r)] =
          params.network.transfer_s(pipeline_bytes);
    }
    int flat = 0;
    for (int r = 0; r < n_; ++r) {
      sc.send_offset[static_cast<std::size_t>(r)] = flat;
      flat += static_cast<int>(sc.sends[static_cast<std::size_t>(r)].size());
    }
    sc.total_sends = flat;
    for (int r = 0; r < n_ && sc.matched; ++r) {
      const auto& comm = params.nodes[static_cast<std::size_t>(r)].comm;
      const auto it = comm.find(sections[si].id);
      if (it == comm.end()) continue;
      std::vector<int> consumed(static_cast<std::size_t>(n_), 0);
      for (const auto& m : it->second.recvs) {
        if (m.peer < 0 || m.peer >= n_) {
          sc.matched = false;
          break;
        }
        const auto& peer_sends = sc.sends[static_cast<std::size_t>(m.peer)];
        int want = consumed[static_cast<std::size_t>(m.peer)]++;
        int slot = -1;
        for (std::size_t k = 0; k < peer_sends.size(); ++k) {
          if (peer_sends[k].peer == r && want-- == 0) {
            slot = sc.send_offset[static_cast<std::size_t>(m.peer)] +
                   static_cast<int>(k);
            break;
          }
        }
        if (slot < 0) {
          sc.matched = false;
          break;
        }
        sc.recvs[static_cast<std::size_t>(r)].push_back({slot});
      }
    }
  }

  // Distribution-independent comm part of w_lo: every o_s/o_r below is an
  // unconditional clock advance of that rank in every iteration (a `+= o_s`
  // or a `max(...) + o_r`, which advances by at least o_r).
  std::vector<int> os_count(static_cast<std::size_t>(n_), 0);
  std::vector<int> or_count(static_cast<std::size_t>(n_), 0);
  for (std::size_t si = 0; si < sections.size(); ++si) {
    const auto& s = sections[si];
    if (s.pattern == core::CommPattern::kPipeline) {
      for (int r = 0; r < n_; ++r) {
        if (r > 0) or_count[static_cast<std::size_t>(r)] += s.tiles;
        if (r < n_ - 1) os_count[static_cast<std::size_t>(r)] += s.tiles;
      }
    } else if (s.pattern == core::CommPattern::kNearestNeighbor) {
      for (int r = 0; r < n_; ++r) {
        os_count[static_cast<std::size_t>(r)] +=
            static_cast<int>(comm_[si].sends[static_cast<std::size_t>(r)]
                                 .size());
        or_count[static_cast<std::size_t>(r)] +=
            static_cast<int>(comm_[si].recvs[static_cast<std::size_t>(r)]
                                 .size());
      }
    }
    if (s.has_alltoall && n_ > 1) {
      for (int r = 0; r < n_; ++r) {
        os_count[static_cast<std::size_t>(r)] += n_ - 1;
        or_count[static_cast<std::size_t>(r)] += n_ - 1;
      }
    }
    if (s.has_reduction) reduction_add_counts(n_, os_count, or_count);
  }
  comm_w_lo_.resize(static_cast<std::size_t>(n_));
  for (int r = 0; r < n_; ++r) {
    comm_w_lo_[static_cast<std::size_t>(r)] = lower_widened(
        static_cast<double>(os_count[static_cast<std::size_t>(r)]) * o_s(r) +
        static_cast<double>(or_count[static_cast<std::size_t>(r)]) * o_r(r));
  }
}

double CostBoundsAnalyzer::o_s(int r) const {
  return params_->nodes[static_cast<std::size_t>(r)].send_overhead_s;
}

double CostBoundsAnalyzer::o_r(int r) const {
  return params_->nodes[static_cast<std::size_t>(r)].recv_overhead_s;
}

void CostBoundsAnalyzer::concrete_cells(int rank, std::int64_t count,
                                        RankCells& out) const {
  out.cells.assign(static_cast<std::size_t>(total_cells_), Interval{});
  out.w_lo = 0;

  ooc::PlannerOptions popts;
  popts.overhead_bytes = knobs_.planner_overhead_bytes;
  popts.max_blocks = knobs_.max_blocks;
  const ooc::NodePlan plan = ooc::plan_node(
      structure_->arrays, count,
      (*memory_bytes_)[static_cast<std::size_t>(rank)], popts);
  const auto& node = params_->nodes[static_cast<std::size_t>(rank)];
  const std::size_t narrays = structure_->arrays.size();

  ooc::StageIoLayout io;
  const auto& sections = structure_->sections;
  for (std::size_t si = 0; si < sections.size(); ++si) {
    const auto& section = sections[si];
    const int tiles = section_tiles_[si];
    const int stages = static_cast<int>(section.stages.size());
    for (int g = 0; g < stages; ++g) {
      const ooc::StageDef& stage =
          section.stages[static_cast<std::size_t>(g)];
      const std::size_t flat =
          static_cast<std::size_t>(section_stage_offset_[si]) +
          static_cast<std::size_t>(g);
      const std::size_t slot =
          static_cast<std::size_t>(rank) *
              static_cast<std::size_t>(total_stage_slots_) +
          flat;
      for (int j = 0; j < tiles; ++j) {
        const std::int64_t begin = tiles == 1 ? 0 : j * count / tiles;
        const std::int64_t end =
            tiles == 1 ? count : (j + 1) * count / tiles;
        const std::int64_t range = std::max<std::int64_t>(0, end - begin);
        Interval& cell =
            out.cells[static_cast<std::size_t>(section_cell_offset_[si]) +
                      static_cast<std::size_t>(j) *
                          static_cast<std::size_t>(stages) +
                      static_cast<std::size_t>(g)];
        if (range == 0) continue;  // the model returns exactly 0

        MHETA_CHECK_MSG(stage_present_[slot] != 0,
                        "no instrumented costs for node "
                            << rank << " section " << section.id << " stage "
                            << stage.id);
        const std::int64_t w = w_instr_[static_cast<std::size_t>(rank)];
        MHETA_CHECK_MSG(
            w > 0, "instrumented run assigned no rows to node " << rank);
        const double tc = stage_compute_s_[slot] *
                          static_cast<double>(range) / static_cast<double>(w);

        const auto& ridx = stage_read_idx_[flat];
        const auto& widx = stage_write_idx_[flat];
        ooc::stage_io_layout_into(io, plan, ridx.data(), ridx.size(),
                                  widx.data(), widx.size(), begin, end,
                                  /*force_io=*/false);
        // Every nonempty block costs one seek per streamed array, and the
        // nonempty blocks partition [begin, end): the model's block loop
        // sums to exactly blocks * seek + s_per_byte * range * row_bytes
        // per array (up to association, absorbed by the widening).
        const std::int64_t blocks =
            io.rows_per_block > 0
                ? (range + io.rows_per_block - 1) / io.rows_per_block
                : 1;
        double io_s = 0;
        auto latency = [&](const ooc::ArrayPlan* ap, const double* spb_table,
                           double seek_s) {
          const auto ai = static_cast<std::size_t>(ap - plan.arrays.data());
          MHETA_CHECK_MSG(ai < narrays && var_present_[slot * narrays + ai],
                          "no measured latency for variable " << ap->name);
          return static_cast<double>(blocks) * seek_s +
                 spb_table[slot * narrays + ai] *
                     static_cast<double>(range * ap->row_bytes);
        };
        for (const auto* ap : io.streamed_reads)
          io_s += latency(ap, var_read_spb_.data(), node.read_seek_s);
        for (const auto* ap : io.streamed_writes)
          io_s += latency(ap, var_write_spb_.data(), node.write_seek_s);

        if (!stage.prefetch || io.streamed_reads.empty() ||
            io.num_blocks <= 1) {
          // Synchronous streaming (Eq. 1): plain sum.
          cell = widened(tc + io_s, tc + io_s);
        } else {
          // Prefetching (Eq. 2): compute and disk are two serialized
          // resources with totals tc and io_s, so the unrolled loop's
          // finish time lies in [max(tc, io_s), tc + io_s] (the model
          // always waits out the last disk completion, hence >= io_s).
          cell = widened(std::max(tc, io_s), tc + io_s);
        }
        out.w_lo += cell.lo;
      }
    }
  }
  out.w_lo = lower_widened(out.w_lo) +
             comm_w_lo_[static_cast<std::size_t>(rank)];
}

void CostBoundsAnalyzer::family_cells(int rank, const NodeRowRange& range,
                                      RankCells& out) const {
  out.cells.assign(static_cast<std::size_t>(total_cells_), Interval{});
  out.w_lo = 0;

  const std::int64_t cmin = std::max<std::int64_t>(0, range.min_rows);
  const std::int64_t cmax = std::max<std::int64_t>(cmin, range.max_rows);
  const std::int64_t usable = std::max<std::int64_t>(
      0, (*memory_bytes_)[static_cast<std::size_t>(rank)] -
             knobs_.planner_overhead_bytes);
  const auto& arrays = structure_->arrays;
  const auto& node = params_->nodes[static_cast<std::size_t>(rank)];
  const std::size_t narrays = arrays.size();

  // Abstract the planner over counts in [cmin, cmax]. Admission is greedy
  // smallest-first, so an array is *certainly in core* when the full
  // ascending-order prefix through it fits at cmax (skipped predecessors
  // only free memory), and *certainly streamed* when its own local size
  // alone exceeds usable memory at cmin (with at least one local row).
  std::vector<std::size_t> order(narrays);
  for (std::size_t i = 0; i < narrays; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return arrays[a].row_bytes < arrays[b].row_bytes;
                   });
  enum class Stream { kNever, kMaybe, kAlways };
  std::vector<Stream> stream(narrays, Stream::kMaybe);
  std::int64_t prefix = 0;
  for (std::size_t idx : order) {
    prefix += cmax * arrays[idx].row_bytes;
    if (prefix <= usable || cmax == 0) stream[idx] = Stream::kNever;
    else if (cmin >= 1 && cmin * arrays[idx].row_bytes > usable)
      stream[idx] = Stream::kAlways;
  }

  const auto& sections = structure_->sections;
  for (std::size_t si = 0; si < sections.size(); ++si) {
    const auto& section = sections[si];
    const int tiles = section_tiles_[si];
    const int stages = static_cast<int>(section.stages.size());
    // Per-tile slice length over the family (model tile boundaries are
    // j*count/tiles, so every slice has floor(c/T) or ceil(c/T) rows).
    const std::int64_t tlo = cmin / tiles;
    const std::int64_t thi = (cmax + tiles - 1) / tiles;
    for (int g = 0; g < stages; ++g) {
      const ooc::StageDef& stage =
          section.stages[static_cast<std::size_t>(g)];
      const std::size_t flat =
          static_cast<std::size_t>(section_stage_offset_[si]) +
          static_cast<std::size_t>(g);
      const std::size_t slot =
          static_cast<std::size_t>(rank) *
              static_cast<std::size_t>(total_stage_slots_) +
          flat;
      if (thi == 0) continue;  // every member's slice is empty: exactly 0

      MHETA_CHECK_MSG(stage_present_[slot] != 0,
                      "no instrumented costs for node "
                          << rank << " section " << section.id << " stage "
                          << stage.id);
      const std::int64_t w = w_instr_[static_cast<std::size_t>(rank)];
      MHETA_CHECK_MSG(w > 0,
                      "instrumented run assigned no rows to node " << rank);
      const double tc_lo = stage_compute_s_[slot] *
                           static_cast<double>(tlo) / static_cast<double>(w);
      const double tc_hi = stage_compute_s_[slot] *
                           static_cast<double>(thi) / static_cast<double>(w);

      // Streamed I/O envelope: every possibly-streamed variable
      // contributes up to max_blocks seeks plus its byte latency at thi;
      // certainly-streamed variables contribute at least one seek (at
      // least one nonempty block) plus their byte latency at tlo.
      const std::int64_t blocks_hi = std::min<std::int64_t>(
          knobs_.max_blocks, std::max<std::int64_t>(1, thi));
      double d_lo = 0;
      double d_hi = 0;
      bool maybe_streamed_read = false;
      auto accumulate = [&](int ai_int, const double* spb_table,
                            double seek_s, bool is_read) {
        const auto ai = static_cast<std::size_t>(ai_int);
        if (stream[ai] == Stream::kNever) return;
        MHETA_CHECK_MSG(var_present_[slot * narrays + ai] != 0,
                        "no measured latency for variable "
                            << arrays[ai].name);
        const double spb = spb_table[slot * narrays + ai];
        d_hi += static_cast<double>(blocks_hi) * seek_s +
                spb * static_cast<double>(thi * arrays[ai].row_bytes);
        if (is_read) maybe_streamed_read = true;
        if (stream[ai] == Stream::kAlways && tlo >= 1) {
          d_lo += seek_s +
                  spb * static_cast<double>(tlo * arrays[ai].row_bytes);
        }
      };
      for (int ai : stage_read_idx_[flat])
        accumulate(ai, var_read_spb_.data(), node.read_seek_s, true);
      for (int ai : stage_write_idx_[flat])
        accumulate(ai, var_write_spb_.data(), node.write_seek_s, false);

      // Union envelope over sync and prefetch members: both cases finish
      // by tc + D; a prefetch member may overlap down to max(tc, D), and a
      // sync member's tc + io dominates that same floor.
      const double lo = stage.prefetch && maybe_streamed_read
                            ? std::max(tc_lo, d_lo)
                            : tc_lo + d_lo;
      const Interval cell = widened(lo, tc_hi + d_hi);
      for (int j = 0; j < tiles; ++j) {
        out.cells[static_cast<std::size_t>(section_cell_offset_[si]) +
                  static_cast<std::size_t>(j) *
                      static_cast<std::size_t>(stages) +
                  static_cast<std::size_t>(g)] = cell;
        out.w_lo += cell.lo;
      }
    }
  }
  out.w_lo = lower_widened(out.w_lo) +
             comm_w_lo_[static_cast<std::size_t>(rank)];
}

void CostBoundsAnalyzer::interval_section(int section_index,
                                          const std::vector<RankCells>& rows,
                                          std::vector<Interval>& t,
                                          std::vector<Interval>& arrivals)
    const {
  const auto& section =
      structure_->sections[static_cast<std::size_t>(section_index)];
  const int stages = static_cast<int>(section.stages.size());
  const int cell_base =
      section_cell_offset_[static_cast<std::size_t>(section_index)];
  const auto& sc = comm_[static_cast<std::size_t>(section_index)];
  auto cells_of = [&](int r) {
    return rows[static_cast<std::size_t>(r)].cells.data() + cell_base;
  };

  if (section.pattern == core::CommPattern::kPipeline) {
    const int tiles = section.tiles;
    if (static_cast<int>(arrivals.size()) < n_)
      arrivals.resize(static_cast<std::size_t>(n_));
    for (int j = 0; j < tiles; ++j) {
      for (int r = 0; r < n_; ++r) {
        Interval& tr = t[static_cast<std::size_t>(r)];
        if (r > 0)
          tr = max(tr, arrivals[static_cast<std::size_t>(r - 1)]) + o_r(r);
        const Interval* cs =
            cells_of(r) + static_cast<std::size_t>(j) *
                              static_cast<std::size_t>(stages);
        for (int g = 0; g < stages; ++g) tr += cs[g];
        if (r < n_ - 1) {
          tr += o_s(r);
          arrivals[static_cast<std::size_t>(r)] =
              tr + sc.pipeline_transfer_s[static_cast<std::size_t>(r)];
        }
      }
    }
  } else {
    for (int r = 0; r < n_; ++r) {
      Interval& tr = t[static_cast<std::size_t>(r)];
      const Interval* cs = cells_of(r);
      for (int g = 0; g < stages; ++g) tr += cs[g];
    }
    if (section.pattern == core::CommPattern::kNearestNeighbor) {
      MHETA_CHECK_MSG(sc.matched, "recv without matching send in bounds");
      if (static_cast<int>(arrivals.size()) < sc.total_sends)
        arrivals.resize(static_cast<std::size_t>(sc.total_sends));
      for (int r = 0; r < n_; ++r) {
        Interval& tr = t[static_cast<std::size_t>(r)];
        const auto& sends = sc.sends[static_cast<std::size_t>(r)];
        const int base = sc.send_offset[static_cast<std::size_t>(r)];
        for (std::size_t k = 0; k < sends.size(); ++k) {
          tr += o_s(r);
          arrivals[static_cast<std::size_t>(base) + k] =
              tr + sends[k].transfer_s;
        }
      }
      for (int r = 0; r < n_; ++r) {
        Interval& tr = t[static_cast<std::size_t>(r)];
        for (const auto& rv : sc.recvs[static_cast<std::size_t>(r)])
          tr = max(tr, arrivals[static_cast<std::size_t>(rv.send_slot)]) +
               o_r(r);
      }
    }
  }

  if (section.has_alltoall)
    interval_alltoall(params_->network.transfer_s(
                          section.alltoall_bytes_per_pair),
                      t);
  if (section.has_reduction)
    interval_reduction(params_->network.transfer_s(section.reduce_bytes), t);
}

void CostBoundsAnalyzer::interval_reduction(double x,
                                            std::vector<Interval>& t) const {
  const int n = n_;
  if (n <= 1) return;
  std::vector<Interval> arrival(static_cast<std::size_t>(n));
  for (int mask = 1; mask < n; mask <<= 1) {
    for (int r = 0; r < n; ++r) {
      if ((r & mask) != 0 && (r & (mask - 1)) == 0) {
        t[static_cast<std::size_t>(r)] += o_s(r);
        arrival[static_cast<std::size_t>(r)] =
            t[static_cast<std::size_t>(r)] + x;
      }
    }
    for (int r = 0; r < n; ++r) {
      if ((r & mask) == 0 && (r & (mask - 1)) == 0) {
        const int partner = r | mask;
        if (partner < n) {
          Interval& tr = t[static_cast<std::size_t>(r)];
          tr = max(tr, arrival[static_cast<std::size_t>(partner)]) + o_r(r);
        }
      }
    }
  }
  std::vector<Interval> bcast(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    int entry;
    if (r == 0) {
      entry = 1;
      while (entry < n) entry <<= 1;
    } else {
      Interval& tr = t[static_cast<std::size_t>(r)];
      tr = max(tr, bcast[static_cast<std::size_t>(r)]) + o_r(r);
      entry = r & -r;
    }
    for (int m = entry >> 1; m >= 1; m >>= 1) {
      if (r + m < n) {
        t[static_cast<std::size_t>(r)] += o_s(r);
        bcast[static_cast<std::size_t>(r + m)] =
            t[static_cast<std::size_t>(r)] + x;
      }
    }
  }
}

void CostBoundsAnalyzer::interval_alltoall(double x,
                                           std::vector<Interval>& t) const {
  const int n = n_;
  if (n <= 1) return;
  std::vector<Interval> arrival(static_cast<std::size_t>(n));
  for (int s = 1; s < n; ++s) {
    for (int r = 0; r < n; ++r) {
      Interval& tr = t[static_cast<std::size_t>(r)];
      tr += o_s(r);
      arrival[static_cast<std::size_t>((r + s) % n)] = tr + x;
    }
    for (int r = 0; r < n; ++r) {
      Interval& tr = t[static_cast<std::size_t>(r)];
      tr = max(tr, arrival[static_cast<std::size_t>(r)]) + o_r(r);
    }
  }
}

TotalBounds CostBoundsAnalyzer::sweep(const std::vector<RankCells>& rows,
                                      int iterations) const {
  // One interval sweep bounds a single iteration from zero offsets; the
  // K-iteration extension rests on the clock update F being monotone and
  // translation-invariant (see the header). Upper: clocks after k
  // iterations are <= k * max_r e_hi. Lower: rank r's clock advances by at
  // least w_lo[r] every iteration, unconditionally.
  std::vector<Interval> t(static_cast<std::size_t>(n_));
  std::vector<Interval> arrivals;
  for (std::size_t si = 0; si < structure_->sections.size(); ++si)
    interval_section(static_cast<int>(si), rows, t, arrivals);

  TotalBounds out;
  out.iteration_end.resize(static_cast<std::size_t>(n_));
  out.node_end.resize(static_cast<std::size_t>(n_));
  out.w_lo.resize(static_cast<std::size_t>(n_));
  double m_hi = 0;
  for (int r = 0; r < n_; ++r) {
    out.iteration_end[static_cast<std::size_t>(r)] =
        widened(t[static_cast<std::size_t>(r)]);
    out.w_lo[static_cast<std::size_t>(r)] =
        rows[static_cast<std::size_t>(r)].w_lo;
    m_hi = std::max(m_hi, out.iteration_end[static_cast<std::size_t>(r)].hi);
  }
  const double rest = static_cast<double>(iterations - 1);
  double total_lo = 0;
  for (int r = 0; r < n_; ++r) {
    const Interval& e = out.iteration_end[static_cast<std::size_t>(r)];
    out.node_end[static_cast<std::size_t>(r)] =
        widened(e.lo + rest * out.w_lo[static_cast<std::size_t>(r)],
                e.hi + rest * m_hi);
    total_lo = std::max(
        total_lo, e.lo + rest * out.w_lo[static_cast<std::size_t>(r)]);
  }
  out.total = widened(total_lo, static_cast<double>(iterations) * m_hi);
  return out;
}

TotalBounds CostBoundsAnalyzer::total_bounds(const dist::GenBlock& d,
                                             int iterations) const {
  MHETA_CHECK(d.nodes() == n_);
  MHETA_CHECK(iterations >= 1);
  std::vector<RankCells> rows(static_cast<std::size_t>(n_));
  for (int r = 0; r < n_; ++r)
    concrete_cells(r, d.count(r), rows[static_cast<std::size_t>(r)]);
  return sweep(rows, iterations);
}

TotalBounds CostBoundsAnalyzer::family_bounds(
    const std::vector<NodeRowRange>& ranges, int iterations) const {
  MHETA_CHECK(static_cast<int>(ranges.size()) == n_);
  MHETA_CHECK(iterations >= 1);
  for (const auto& rg : ranges) MHETA_CHECK(rg.min_rows <= rg.max_rows);
  std::vector<RankCells> rows(static_cast<std::size_t>(n_));
  for (int r = 0; r < n_; ++r)
    family_cells(r, ranges[static_cast<std::size_t>(r)],
                 rows[static_cast<std::size_t>(r)]);
  return sweep(rows, iterations);
}

std::vector<StageBound> CostBoundsAnalyzer::stage_bounds(
    const dist::GenBlock& d) const {
  MHETA_CHECK(d.nodes() == n_);
  std::vector<RankCells> rows(static_cast<std::size_t>(n_));
  for (int r = 0; r < n_; ++r)
    concrete_cells(r, d.count(r), rows[static_cast<std::size_t>(r)]);

  std::vector<StageBound> out;
  const auto& sections = structure_->sections;
  for (std::size_t si = 0; si < sections.size(); ++si) {
    const int stages = static_cast<int>(sections[si].stages.size());
    const int tiles = section_tiles_[si];
    for (int g = 0; g < stages; ++g) {
      for (int r = 0; r < n_; ++r) {
        Interval sum;
        for (int j = 0; j < tiles; ++j) {
          sum += rows[static_cast<std::size_t>(r)]
                     .cells[static_cast<std::size_t>(section_cell_offset_[si]) +
                            static_cast<std::size_t>(j) *
                                static_cast<std::size_t>(stages) +
                            static_cast<std::size_t>(g)];
        }
        out.push_back({sections[si].id,
                       sections[si].stages[static_cast<std::size_t>(g)].id, r,
                       sum});
      }
    }
  }
  return out;
}

}  // namespace mheta::analysis::bounds
