// Interval-bounds abstract interpretation of the MHETA cost model.
//
// CostBoundsAnalyzer evaluates the model's equations (computation §4.2.1,
// synchronous and prefetched I/O Eq. 1/2, the comm-wait recurrences
// Eq. 3-5, collectives) over intervals instead of points, producing
// certified [lo, hi] envelopes on per-stage, per-iteration and total time —
// with no K-iteration clock loop:
//
//   concrete distribution   per-stage closed forms in O(stages * nodes),
//                           plus ONE interval clock sweep (a single
//                           iteration's section recurrences) to capture the
//                           globally coupled comm waits;
//   distribution family     the same machinery over per-node row-count
//                           ranges, certifying whole subspaces at once.
//
// K-iteration extension (DESIGN.md carries the proof): one uniform
// iteration's clock update F is a composition of additions and maxima with
// iteration-invariant constants, hence monotone and translation-invariant
// (F(x + c*1) = F(x) + c*1). With e the end-of-iteration interval from zero
// offsets and w_lo[r] rank r's unconditional per-iteration clock advance
// (its own stage times plus its own o_s/o_r overheads),
//
//   total(K) <= K * max_r e[r].hi
//   total(K) >= max_r (e[r].lo + (K-1) * w_lo[r])
//
// The analyzer interns its own tables straight from MhetaParams — an
// independent derivation from core::Predictor's, which is exactly what
// makes the lo <= predict() <= hi crosscheck oracle in
// search::BoundedObjective a meaningful end-to-end check rather than a
// tautology. It sits below core in the layering (analysis cannot link the
// model library) and borrows its inputs: structure, params and memories
// must outlive the analyzer. All methods are const and thread-safe.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/bounds/interval.hpp"
#include "core/structure.hpp"
#include "dist/genblock.hpp"
#include "instrument/params.hpp"

namespace mheta::analysis::bounds {

/// Planner/model knobs the bounds must agree on with the Predictor
/// (mirrors ModelOptions without depending on core/model.hpp).
struct BoundsKnobs {
  std::int64_t planner_overhead_bytes = 0;
  std::int64_t max_blocks = 256;
};

/// Per-node row-count range of a distribution family: every GEN_BLOCK
/// whose count(i) lies in [min_rows[i], max_rows[i]] (and sums to the
/// array extent) is a member.
struct NodeRowRange {
  std::int64_t min_rows = 0;
  std::int64_t max_rows = 0;
};

/// Certified envelope on a prediction.
struct TotalBounds {
  Interval total;                  ///< bounds on Prediction::total_s
  std::vector<Interval> node_end;  ///< bounds on Prediction::node_end_s
  std::vector<Interval> iteration_end;  ///< per-rank one-iteration envelope e
  std::vector<double> w_lo;  ///< per-rank unconditional per-iteration advance

  /// Certified width relative to the envelope midpoint (0 when degenerate).
  double width_rel() const {
    const double mid = 0.5 * (total.lo + total.hi);
    return mid > 0 ? total.width() / mid : 0;
  }
};

/// One (section, stage, rank) envelope for a single iteration, summed over
/// the section's tiles (reporting granularity of `mheta-lint --bounds`).
struct StageBound {
  int section_id = 0;
  int stage_id = 0;
  int rank = 0;
  Interval time;
};

class CostBoundsAnalyzer {
 public:
  /// Borrows all three inputs; they must outlive the analyzer. The inputs
  /// are expected to have passed the MH001-MH015 rules (the analyzer
  /// fail-fast-checks the same invariants the Predictor would).
  CostBoundsAnalyzer(const core::ProgramStructure& structure,
                     const instrument::MhetaParams& params,
                     const std::vector<std::int64_t>& memory_bytes,
                     BoundsKnobs knobs = {});

  /// Certified envelope on predict(d, iterations).total_s (uniform
  /// iterations). O(stages * nodes) closed forms + one interval sweep.
  TotalBounds total_bounds(const dist::GenBlock& d, int iterations) const;

  /// The certified lower bound alone — the branch-and-bound entry point.
  double lower_bound(const dist::GenBlock& d, int iterations) const {
    return total_bounds(d, iterations).total.lo;
  }

  /// Envelope over the whole family: contains total_bounds(d, iterations)
  /// for every member d (the family tests sample this containment).
  TotalBounds family_bounds(const std::vector<NodeRowRange>& ranges,
                            int iterations) const;

  /// Per-(section, stage, rank) single-iteration envelopes under `d`,
  /// in section-major order.
  std::vector<StageBound> stage_bounds(const dist::GenBlock& d) const;

  int nodes() const { return n_; }
  const BoundsKnobs& knobs() const { return knobs_; }

 private:
  // One rank's per-cell envelopes for one iteration; cells are flat
  // [section offset + tile * stages + stage] (pipeline sections have
  // `tiles` tiles, everything else 1).
  struct RankCells {
    std::vector<Interval> cells;
    double w_lo = 0;  // unconditional per-iteration clock advance
  };

  // Interned comm of one section (derived independently of the model's
  // tables, same FIFO matching semantics).
  struct Send {
    int peer = -1;
    double transfer_s = 0;
  };
  struct Recv {
    int send_slot = -1;  // flat slot into the section's send list
  };
  struct SectionComm {
    std::vector<std::vector<Send>> sends;  // per rank
    std::vector<std::vector<Recv>> recvs;  // per rank
    std::vector<int> send_offset;          // per rank
    int total_sends = 0;
    bool matched = true;
    std::vector<double> pipeline_transfer_s;  // per rank
  };

  /// Fills `out` with rank `r`'s cell envelopes at `count` local rows
  /// (concrete layout via the shared ooc planner + stage_io_layout).
  void concrete_cells(int rank, std::int64_t count, RankCells& out) const;

  /// Fills `out` with rank `r`'s cell envelopes over counts in
  /// [range.min_rows, range.max_rows] (family abstraction of the planner).
  void family_cells(int rank, const NodeRowRange& range, RankCells& out) const;

  /// Runs one iteration's section recurrences over interval clocks and
  /// derives the K-iteration TotalBounds from the per-rank rows.
  TotalBounds sweep(const std::vector<RankCells>& rows, int iterations) const;

  /// One section's interval recurrence (pipeline / nearest-neighbor /
  /// collectives), mirroring the model's clock walk (Predictor::walk_section,
  /// core/walk.hpp) over Interval clocks. Derived independently of it, which
  /// is what makes the analyzer an oracle.
  void interval_section(int section_index, const std::vector<RankCells>& rows,
                        std::vector<Interval>& t,
                        std::vector<Interval>& arrivals) const;
  void interval_reduction(double transfer_s, std::vector<Interval>& t) const;
  void interval_alltoall(double transfer_s, std::vector<Interval>& t) const;

  double o_s(int r) const;
  double o_r(int r) const;

  const core::ProgramStructure* structure_;
  const instrument::MhetaParams* params_;
  const std::vector<std::int64_t>* memory_bytes_;
  BoundsKnobs knobs_;

  int n_ = 0;
  int total_stage_slots_ = 0;  // flat (section, stage) slots
  int total_cells_ = 0;        // cells per rank (tiles expanded)
  std::vector<int> section_stage_offset_;  // per section, into stage slots
  std::vector<int> section_cell_offset_;   // per section, into cells
  std::vector<int> section_tiles_;         // per section (pipeline: tiles)

  // Independently interned cost tables, flat-addressed like the model's:
  // stage slot = rank * total_stage_slots_ + section_stage_offset_ + stage,
  // variable slot = stage slot * arrays + array index.
  std::vector<std::vector<int>> stage_read_idx_;   // per flat stage
  std::vector<std::vector<int>> stage_write_idx_;  // per flat stage
  std::vector<char> stage_present_;
  std::vector<double> stage_compute_s_;
  std::vector<double> var_read_spb_;
  std::vector<double> var_write_spb_;
  std::vector<char> var_present_;
  std::vector<std::int64_t> w_instr_;  // per rank (instrumented counts)

  std::vector<SectionComm> comm_;  // per section
  // Distribution-independent per-rank, per-iteration o_s/o_r clock advances
  // (pipeline boundaries, recorded sends/recvs, collective schedules) —
  // the comm part of w_lo, rounded toward zero.
  std::vector<double> comm_w_lo_;  // per rank
};

}  // namespace mheta::analysis::bounds
