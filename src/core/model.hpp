// The MHETA model (paper §4.2).
//
// Given the program structure, the parameters measured during one
// instrumented iteration (MhetaParams), and the per-node memory capacities,
// the Predictor evaluates a system of parameterized equations for any
// candidate GEN_BLOCK distribution:
//
//   computation   T_c' = T_c * W'/W                       (§4.2.1)
//   synchronous   T_IO = NR * (O_r + L_r + O_w + L_w)      (Eq. 1)
//   prefetching   first read full, later reads pay the     (Eq. 2)
//                 effective latency L_e = max(0, L_r - T_o)
//   comm waits    nearest-neighbor (Eq. 3), pipelined per-tile (Eq. 4),
//                 section cost (Eq. 5), binomial-tree reduction, and the
//                 multi-node generalization via per-section dataflow.
//
// The stage equations are evaluated block-exactly (per-ICLA terms summed;
// identical to Eq. 1/2 when the OCLA divides evenly into ICLAs — see
// equations.hpp for the paper's closed forms and the tests proving
// equivalence).
//
// Evaluation fast path (the paper's on-line-search usability claim rests on
// per-candidate cost): at construction the string/pair-keyed parameter maps
// are interned into dense index-addressed tables so the innermost stage
// loop does no map lookups; per-(memory, rows) memory plans are memoized
// in an LRU; and repeated uniform iterations collapse through a steady-state
// shortcut once the per-node clock offsets reach a bitwise fixed point.
// Within one call, work that ranks share is done once: ranks with equal
// (memory, rows) form a group with one plan lookup and one set of stage
// I/O layouts, and equal-length tiles share one stage evaluation. The
// clock sweep (walk.hpp) is written once over a clock policy and follows
// its data dependencies: diagnostic sums are taken once per set of stage
// rows, pipelines run rank-outer, and the reduction tree visits only its
// active ranks. All knobs live in ModelOptions; disabling them reproduces
// the naive per-iteration loop bit for bit (the fast-path tests enforce
// this, and tests/core/golden_bits_test.cpp pins the bits themselves).
//
// Deliberate blind spots, matching the paper's limitations (§5.4): no
// memory-hierarchy model, a simplistic in-core/out-of-core heuristic (the
// model's planner ignores the runtime's buffer overhead), and uniform
// per-row work (sparse data sets violate it).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/structure.hpp"
#include "dist/dist2d.hpp"
#include "dist/genblock.hpp"
#include "instrument/params.hpp"
#include "obs/registry.hpp"
#include "ooc/planner.hpp"
#include "ooc/stage.hpp"

namespace mheta::core {

class IncrementalEvaluator;
class LaneEvaluator;
struct PredictorTestPeer;
struct SweepTrace;    // critical.hpp: instrumented clock-sweep trace
struct Perturbation;  // critical.hpp: what-if parameter scaling

/// Model tuning; defaults reproduce the paper's setup.
struct ModelOptions {
  /// The model's planner deliberately assumes all node memory is available
  /// for local arrays (the runtime reserves buffer/halo space) — paper
  /// limitation 2.
  std::int64_t planner_overhead_bytes = 0;

  /// Must match the runtime's block-count ceiling.
  std::int64_t max_blocks = 256;

  /// Collapse repeated uniform iterations once the per-node clock offsets
  /// reach a bitwise fixed point. Bit-identical to the per-iteration loop;
  /// disable only to benchmark or test against the naive path.
  bool steady_state_shortcut = true;

  /// LRU entries for memoized per-(memory, rows) memory plans; 0 disables
  /// plan caching entirely, and every call then builds one plan per
  /// distinct (memory, rows) key among its ranks. Sized above the unique
  /// (memory, rows) working set of a population search (a few thousand
  /// keys); below that the LRU degenerates to 0% hits under sequential
  /// re-access and every call pays plan construction per key.
  std::size_t plan_cache_capacity = 8192;

  /// Optional metrics sink (not owned; must outlive the Predictor). When
  /// set, the plan cache reports `predictor_plan_cache_{hits,misses}_total`
  /// (see PlanCacheStats); when null — the default — the hot path pays
  /// nothing.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One cell of the prediction-error attribution: the paper's cost terms
/// (computation §4.2.1, file I/O Eq. 1, prefetch waits Eq. 2, send/recv
/// waits Eq. 3-5, collectives) accumulated for one (section, node) pair.
/// Every advance of a node's clock during evaluation lands in exactly one
/// term, so total() equals the node's clock advance bit-for-bit up to
/// summation order (the attribution tests pin this to 1e-9).
struct CostTerms {
  double compute_s = 0;        ///< T_c' = T_c * W'/W
  double file_read_s = 0;      ///< synchronous reads (Eq. 1 / Eq. 2 first block)
  double file_write_s = 0;     ///< write-back streams
  double prefetch_wait_s = 0;  ///< unhidden read latency L_e (Eq. 2 waits)
  double send_s = 0;           ///< send overheads o_s
  double recv_wait_s = 0;      ///< blocking until arrival, plus o_r (Eq. 3/4)
  double collective_s = 0;     ///< reduction tree + total exchange

  double total() const {
    return compute_s + file_read_s + file_write_s + prefetch_wait_s + send_s +
           recv_wait_s + collective_s;
  }
  CostTerms& operator+=(const CostTerms& o);
};

/// Stable order used by reports and serializations.
inline constexpr int kCostTermCount = 7;
const char* cost_term_name(int term);  ///< "compute", "file_read", ...
double cost_term_value(const CostTerms& t, int term);

/// Result of evaluating one distribution.
struct Prediction {
  /// Predicted execution time of `iterations` iterations (max over nodes).
  double total_s = 0;

  /// Per-node completion time after all iterations.
  std::vector<double> node_end_s;

  /// Aggregate single-iteration breakdown, summed over nodes (diagnostic).
  double compute_s = 0;
  double io_s = 0;
};

/// A prediction with its full per-(section, node) cost decomposition.
struct AttributedPrediction {
  Prediction prediction;

  /// terms[section_index][rank], accumulated over all iterations. The sum
  /// over sections of terms[*][r].total() equals prediction.node_end_s[r]
  /// (within floating summation error), so the critical rank's terms sum to
  /// the headline prediction.
  std::vector<std::vector<CostTerms>> terms;

  /// All terms of one rank, summed over sections.
  CostTerms node_total(int rank) const;

  /// The rank whose completion time is the headline prediction.
  int critical_rank() const;
};

/// Evaluates MHETA for candidate distributions.
class Predictor {
 public:
  /// `memory_bytes` are the per-node capacities M_i (machine knowledge the
  /// model is allowed, like the CPU-power-relative instrumented costs).
  Predictor(ProgramStructure structure, instrument::MhetaParams params,
            std::vector<std::int64_t> memory_bytes, ModelOptions options = {});

  /// Predicts the execution time of `iterations` uniform iterations
  /// under `d`. Safe to call concurrently from multiple threads.
  Prediction predict(const dist::GenBlock& d, int iterations = 1) const;

  /// Non-uniform iterations (paper §3.1 notes MHETA supports them): one
  /// computation-scale factor per iteration; I/O and communication are
  /// unscaled.
  Prediction predict_nonuniform(const dist::GenBlock& d,
                                const std::vector<double>& iteration_scales) const;

  /// Like predict(), but additionally decomposes every node's predicted
  /// time into the paper's cost terms per section (see CostTerms). A fold
  /// over predict_traced()'s events: a receive adds its end minus the
  /// rank's clock before it, a send adds o_s, a stage run its slots' terms,
  /// and a section's collectives one net advance per rank; the steady
  /// iteration's events are folded once per repeat. For each rank these are
  /// the adds a per-iteration walk would make, in its order, so the terms
  /// do not depend on the steady-state shortcut, and the cost is the traced
  /// sweep's: O(transient), not O(iterations), with one iteration's events
  /// held at a time. The prediction is predict()'s, bit for bit.
  AttributedPrediction predict_attributed(const dist::GenBlock& d,
                                          int iterations = 1) const;

  /// Instrumented scalar sweep (see critical.hpp): same recurrence as
  /// predict(), every clock advance recorded with its causal predecessor so
  /// the critical path through the evaluation can be walked exactly. Same
  /// renormalization and steady-state shortcut too: it records the
  /// transient and one steady iteration plus the steady iteration's repeat
  /// count, and its totals are bit-identical to predict(). Separate entry
  /// point: the untraced paths pay nothing for its existence.
  SweepTrace predict_traced(const dist::GenBlock& d, int iterations = 1) const;

  /// Copy of this predictor with `p` applied to its measured parameters and
  /// the cost tables re-interned (structure, memory and options unchanged).
  /// Bit-identical in prediction to a Predictor constructed from
  /// perturb_params(params(), p) — the sensitivity tests pin this.
  Predictor perturbed(const Perturbation& p) const;

  /// Plan-LRU effectiveness counters (zero when caching is disabled). A
  /// prediction counts one per rank: each distinct (memory, rows) key it
  /// plans is one miss, and every other rank is a hit, served by the LRU or
  /// by its key's plan built earlier in the same call. Single-row builds
  /// (the delta and lane evaluators) count one per row.
  struct PlanCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  PlanCacheStats plan_cache_stats() const;

  /// Two-dimensional distributions (extension; §5.1 notes the model
  /// extends to them). `instrumented` must be the 2-D distribution of the
  /// instrumented run (its per-rank rows are params().instrumented_dist).
  /// Supports kNone and kNearestNeighbor sections, with reductions; rejects
  /// pipelines (1-D only) and total exchanges. The grid halos become a
  /// per-call send/recv table and the stage times per-call rows, walked
  /// like predict()'s.
  Prediction predict2d(const dist::Dist2D& d, const dist::Dist2D& instrumented,
                       int iterations = 1) const;

  const ProgramStructure& structure() const { return structure_; }
  const instrument::MhetaParams& params() const { return params_; }
  const std::vector<std::int64_t>& memory_bytes() const {
    return memory_bytes_;
  }
  const ModelOptions& options() const { return options_; }

  /// Per-(section, stage) extrema of the interned cost tables across ranks:
  /// the min/max measured compute time and the min/max per-byte latencies
  /// of the variables the stage actually streams (read extrema over its
  /// read_vars, write extrema over its write_vars, present entries only).
  /// This is the model-side view the interval-bounds interpreter
  /// (analysis/bounds) is validated against: its independently interned
  /// tables must produce cell envelopes consistent with these extrema.
  struct StageTableView {
    int section_id = 0;
    int stage_id = 0;
    int present_ranks = 0;  ///< ranks with measured costs for this stage
    double compute_s_min = 0;
    double compute_s_max = 0;
    double read_spb_min = 0;   ///< s/B over present (rank, read var) entries
    double read_spb_max = 0;
    double write_spb_min = 0;  ///< s/B over present (rank, write var) entries
    double write_spb_max = 0;
  };
  std::vector<StageTableView> stage_table_view() const;

 private:
  // The section walk and its iteration driver (walk.hpp) are written once
  // over a clock policy; predict, the delta and lane evaluators and the
  // traced sweep each instantiate them with their own clock. The evaluators
  // keep per-(rank, rows) rows in the flat row layout owned here. The test
  // peer pins the driver's reuse of its clock state directly.
  friend class IncrementalEvaluator;
  friend class LaneEvaluator;
  friend struct PredictorTestPeer;
  struct NodeSectionTime {
    double stage_s = 0;   // computation + I/O of all tiles' stages
    double compute_s = 0; // diagnostic split
    double io_s = 0;
  };

  /// Per-iteration diagnostic sums, accumulated into Prediction once per
  /// iteration (keeps the steady-state replay bit-identical to the loop).
  /// A pure function of the stage rows (see iteration_agg).
  struct IterationAgg {
    double compute_s = 0;
    double io_s = 0;
  };

  // ---- interned cost tables (built once, at construction) ----

  /// node.stages[{section,stage}] flattened struct-of-arrays: one dense
  /// double (or flag) table per field, all indexed by
  /// `rank * total_stage_slots_ + flat_stage`, with the per-variable I/O
  /// latencies further flattened by array index
  /// (`slot * arrays.size() + array_index`; NodePlan::arrays preserves the
  /// order of ProgramStructure::arrays, so an ArrayPlan's position doubles
  /// as its variable id). The SoA layout keeps the innermost stage loop on
  /// contiguous doubles, with no per-slot vectors to chase.
  struct StageCosts {
    bool present = false;
    double compute_s = 0;
    const double* read_s_per_byte = nullptr;   // by array index
    const double* write_s_per_byte = nullptr;  // by array index
    const char* var_present = nullptr;         // by array index
  };

  struct InternedSend {
    int peer = -1;
    double transfer_s = 0;  // network.transfer_s(bytes), precomputed
  };
  /// A recv resolved to the flat slot of its FIFO-matched send.
  struct InternedRecv {
    int sender = -1;
    int send_slot = -1;  // send_offset[sender] + index in sender's send list
  };
  /// One section's messages as the walk reads them: interned from the
  /// measured parameters at construction, or built per call by predict2d
  /// for its grid halos.
  struct InternedSectionComm {
    std::vector<std::vector<InternedSend>> sends;  // per rank
    std::vector<std::vector<InternedRecv>> recvs;  // per rank
    std::vector<int> send_offset;                  // per rank, into flat slots
    int total_sends = 0;
    bool matched = true;  // every recv found its matching send
    std::vector<double> pipeline_transfer_s;       // per rank (Eq. 4 boundary)

    /// Numbers the flat send slots once every rank's sends are in.
    void number_sends();
    /// Appends rank r's receives from `peers`, in order, each resolved to
    /// the next unconsumed send of that peer to r; clears `matched` when
    /// one has none.
    void match_recvs(int r, const std::vector<int>& peers);
  };

  // The walk's policies (walk.hpp, critical.cpp).
  struct ScalarClock;
  struct TracedClock;

  void intern_tables();
  StageCosts interned_stage(int rank, int section_index,
                            int stage_index) const;

  /// The I/O blocking of a stage over `rows` rows under `plan`, from the
  /// stage's pre-resolved variable indices (no name scans). Rows start at
  /// 0: stage times depend on block lengths only, never on offsets.
  void layout_stage(int flat_stage, const ooc::NodePlan& plan,
                    std::int64_t rows, ooc::StageIoLayout& io) const;

  /// One section's stage layouts at the tile lengths of `count` rows. A
  /// section's tiles have at most two lengths, floor and ceil of
  /// count / tiles, so `io` holds stages x 2 layouts ([stage * 2 + k] for
  /// length[k]). Shared by every rank with the same plan and count.
  struct SectionLayouts {
    std::int64_t length[2] = {0, 0};
    std::vector<ooc::StageIoLayout> io;
  };
  void layout_section(int section_index, std::int64_t count,
                      const ooc::NodePlan& plan, SectionLayouts& out) const;

  /// Time for one stage over the rows of `io` (a layout of `plan`) on node
  /// `rank`; `work_scale` multiplies the computation (non-uniform
  /// iterations). When `terms` is non-null the stage cost is additionally
  /// split into compute / read / write / prefetch-wait such that the parts
  /// sum to stage_s (traced runs only; the hot path passes nullptr).
  NodeSectionTime stage_time(int rank, const SectionSpec& section,
                             const ooc::StageDef& stage, const StageCosts& ist,
                             const ooc::StageIoLayout& io,
                             const ooc::NodePlan& plan, double work_scale,
                             CostTerms* terms = nullptr) const;

  /// The two compiled variants behind stage_time: WithTerms=false is the
  /// hot instantiation, with every attribution store folded away.
  template <bool WithTerms>
  NodeSectionTime stage_time_impl(int rank, const SectionSpec& section,
                                  const ooc::StageDef& stage,
                                  const StageCosts& ist,
                                  const ooc::StageIoLayout& io,
                                  const ooc::NodePlan& plan, double work_scale,
                                  CostTerms* terms) const;

  /// Rank-independent flat index of (section, stage) into the interned
  /// per-stage tables.
  int flat_stage_index(int section_index, int stage_index) const {
    return section_stage_offset_[static_cast<std::size_t>(section_index)] +
           stage_index;
  }

  /// The plans of one call: ranks with equal (memory, rows) form a group,
  /// and the call holds one plan per group. `members` lists the ranks
  /// group by group, ranks ascending; a group owns members[begin, end).
  struct PlanGroup {
    std::shared_ptr<const ooc::NodePlan> plan;
    std::int64_t rows = 0;
    int begin = 0;
    int end = 0;
  };
  struct PlanGroups {
    std::vector<PlanGroup> groups;
    std::vector<int> members;
  };

  /// Groups the ranks of `d` by (memory, rows) in O(n) and looks each
  /// group's plan up once through plan_for_rank, so the plan counters see
  /// one hit or miss per rank (PlanCacheStats).
  PlanGroups plans_for(const dist::GenBlock& d) const;

  /// Memoized (or freshly computed) plan for one node owning `count` rows.
  /// `sharers` other ranks of the same (memory, rows) are served by the
  /// returned plan without a lookup of their own; each counts as a hit.
  std::shared_ptr<const ooc::NodePlan> plan_for_rank(
      int rank, std::int64_t count, std::uint64_t sharers = 0) const;

  /// All stage times of `rank` for one section at `count` local rows,
  /// written into the rank's [tile][stage] segment of the three outputs
  /// (each tiles * stages long), and each slot's term split into `terms`
  /// when non-null. Single source of truth for the per-slot values: every
  /// row the walk reads is filled through it, so a cached row is
  /// bit-identical to a freshly built one. Each (stage, tile length) is
  /// evaluated once and copied to the other tiles of that length. `layouts`
  /// are the section's layouts for `plan` and `count` (layout_section);
  /// null lays out the section here (single-row builds).
  void build_rank_section(int rank, int section_index, std::int64_t count,
                          const ooc::NodePlan& plan, double scale,
                          double* stage_s, double* compute_s, double* io_s,
                          CostTerms* terms,
                          const SectionLayouts* layouts = nullptr) const;

  /// One rank's row at `count` rows and scale 1.0, as the evaluators cache
  /// it: stage times into `stage_s` and the compute/io splits into
  /// `compute_s`/`io_s`, each row_len_ long.
  void build_row(int rank, std::int64_t count, double* stage_s,
                 double* compute_s, double* io_s) const;

  /// Uninitialized full rows (3 * row_len_ doubles each: stage, compute,
  /// io) for n ranks in one block, rank r's at data + r * 3 * row_len_, and
  /// a pointer to each for the walk.
  struct FullRows {
    std::unique_ptr<double[]> data;
    std::vector<const double*> ptr;
  };
  FullRows full_rows(int n) const;

  /// Full rows (3 * row_len_ doubles: stage, compute, io) of every rank of
  /// `d` at `scale`, rank r's at rows + r * 3 * row_len_, and per-slot terms
  /// into terms[section][rank * row_span_[section] + slot] when non-null.
  /// Each section is laid out once per plan group and then filled rank by
  /// rank through build_rank_section.
  void build_rows(const dist::GenBlock& d, const PlanGroups& plans,
                  double scale, double* rows,
                  std::vector<std::vector<CostTerms>>* terms) const;

  /// The diagnostic sums of one iteration over full rows. The summation
  /// order is part of the result's bits: sections in order, pipelines
  /// tile-outer (tile, rank, stage), other sections (rank, stage).
  IterationAgg iteration_agg(int n, const double* const* rows) const;

  /// predict_traced(), handing the trace to `flush` (when set) at the start
  /// of every walked iteration after the first, while it holds the previous
  /// iteration's events; the flush may consume and clear them.
  SweepTrace traced_sweep(
      const dist::GenBlock& d, int iterations,
      const std::function<void(SweepTrace&)>* flush) const;

  /// predict() and predict_nonuniform(): `iterations` iterations at
  /// scales[k], or all at 1.0 when `scales` is null.
  Prediction predict_scaled(const dist::GenBlock& d, std::size_t iterations,
                            const double* scales) const;

  // ---- the walk (walk.hpp) ----

  /// Advances clock `c` through section `si`, with messages from `ic`.
  template <class Clock>
  void walk_section(int si, const InternedSectionComm& ic, Clock& c) const;
  /// The ring-shifted total exchange (mirrors SimMPI::alltoall exactly); `x`
  /// is one message's transfer time.
  template <class Clock>
  void alltoall(Clock& c, double x) const;
  /// The binomial reduce + broadcast tree (mirrors the SimMPI collective
  /// exactly).
  template <class Clock>
  void reduce_broadcast(Clock& c, double x) const;
  /// The iteration driver: `iterations` iterations of every section at
  /// scales[k] (1.0 when null), renormalized between iterations, with
  /// repeated equal-scale iterations collapsed by the steady-state shortcut.
  template <class Clock>
  void drive(Clock& c, const std::vector<InternedSectionComm>& comm,
             std::size_t iterations, const double* scales) const;

  double o_s(int rank) const {
    return send_overhead_s_[static_cast<std::size_t>(rank)];
  }
  double o_r(int rank) const {
    return recv_overhead_s_[static_cast<std::size_t>(rank)];
  }

  ProgramStructure structure_;
  instrument::MhetaParams params_;
  std::vector<std::int64_t> memory_bytes_;
  ModelOptions options_;

  // Interned tables (values only, so the Predictor stays copyable). The
  // stage tables are struct-of-arrays; see StageCosts for the indexing.
  std::vector<char> stage_present_;       // [rank * total + flat stage]
  std::vector<double> stage_compute_s_;   // same indexing
  std::vector<double> var_read_spb_;      // [slot * arrays + array_index]
  std::vector<double> var_write_spb_;     // same indexing
  std::vector<char> var_present_;         // same indexing
  std::vector<int> section_stage_offset_;        // per section
  int total_stage_slots_ = 0;
  // Per flat stage (rank-independent), each stage's read_vars/write_vars
  // resolved to ProgramStructure::arrays indices — which equal the
  // variable's position in every NodePlan, so the per-call I/O layout
  // indexes plans directly instead of scanning names.
  std::vector<std::vector<int>> stage_read_idx_;   // [flat stage]
  std::vector<std::vector<int>> stage_write_idx_;  // same indexing
  std::vector<InternedSectionComm> comm_interned_;  // per section
  // The flat row layout: section si occupies [row_offset_[si],
  // row_offset_[si] + row_span_[si]) of a rank's row, its tiles x stages
  // slots [tile][stage]; row_len_ is the sum of the spans.
  std::vector<std::size_t> row_offset_;
  std::vector<std::size_t> row_span_;
  std::size_t row_len_ = 0;
  std::vector<std::int64_t> instrumented_counts_;   // per rank
  std::vector<double> send_overhead_s_;             // per rank: o_s
  std::vector<double> recv_overhead_s_;             // per rank: o_r

  // Memoized per-(memory, rows) plans; shared (and locked) so copies of the
  // Predictor share one cache and predict() stays const and thread-safe.
  struct PlanCache;
  std::shared_ptr<PlanCache> plan_cache_;
};

}  // namespace mheta::core
