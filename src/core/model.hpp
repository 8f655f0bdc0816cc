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
// All knobs live in ModelOptions; disabling them reproduces the naive
// per-iteration loop bit for bit (the fast-path tests enforce this).
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
  /// plan caching entirely. Sized above the unique (memory, rows) working
  /// set of a population search (a few thousand keys); below that the LRU
  /// degenerates to 0% hits under sequential re-access and every path pays
  /// plan construction per row.
  std::size_t plan_cache_capacity = 8192;

  /// Optional metrics sink (not owned; must outlive the Predictor). When
  /// set, the plan cache reports `predictor_plan_cache_{hits,misses}_total`;
  /// when null — the default — the hot path pays nothing.
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
  /// time into the paper's cost terms per section (see CostTerms). Runs the
  /// plain per-iteration loop — the steady-state shortcut is bypassed so
  /// each iteration's costs are attributed — and is therefore slower than
  /// predict(); the totals are identical (the fast-path tests prove the
  /// shortcut bit-exact against this loop).
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

  /// Plan-LRU effectiveness counters (zero when caching is disabled).
  struct PlanCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  PlanCacheStats plan_cache_stats() const;

  /// Two-dimensional distributions (extension; §5.1 notes the model
  /// extends to them). `instrumented` must be the 2-D distribution of the
  /// instrumented run (its per-rank rows are params().instrumented_dist).
  /// Supports kNone and kNearestNeighbor sections (pipelines are 1-D).
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
  // The incremental (delta) evaluator reuses the interned tables, the plan
  // cache and the shared clock-propagation loop, caching per-(rank, rows)
  // stage times across candidate distributions. The lane evaluator reuses
  // the same tables but runs its own K-candidate-wide clock loop (see
  // lanes.hpp for the bit-identity argument). The test peer exists so the
  // scratch-reuse contract of run_iterations can be pinned directly.
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
  /// contiguous doubles — no per-slot vectors to chase — which is what lets
  /// it vectorize and what the incremental evaluator streams from.
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
  struct InternedSectionComm {
    std::vector<std::vector<InternedSend>> sends;  // per rank
    std::vector<std::vector<InternedRecv>> recvs;  // per rank
    std::vector<int> send_offset;                  // per rank, into flat slots
    int total_sends = 0;
    bool matched = true;  // every recv found its matching send
    std::vector<double> pipeline_transfer_s;       // per rank (Eq. 4 boundary)
  };

  /// Stage times of one full iteration at one work scale, cached per
  /// predict call, struct-of-arrays: three parallel double tables per
  /// section, each flat [rank][tile][stage] (rank-major, so one rank's
  /// segment is contiguous and can be copied in/out wholesale — the
  /// incremental evaluator assembles these tables from its per-(rank, rows)
  /// row cache). `terms` mirrors the slots and is only filled on attributed
  /// runs.
  struct SectionTimes {
    std::vector<double> stage_s;
    std::vector<double> compute_s;
    std::vector<double> io_s;

    void assign(std::size_t slots) {
      stage_s.assign(slots, 0.0);
      compute_s.assign(slots, 0.0);
      io_s.assign(slots, 0.0);
    }
  };
  struct IterationCache {
    bool valid = false;
    double scale = 0;
    std::vector<SectionTimes> sections;
    std::vector<std::vector<CostTerms>> terms;
  };

  /// Attribution sink for one evaluation: [section][rank] accumulators.
  struct Attribution {
    std::vector<std::vector<CostTerms>> terms;
  };

  void intern_tables();
  StageCosts interned_stage(int rank, int section_index,
                            int stage_index) const;

  /// Time for one stage over local rows [begin,end) on node `rank`;
  /// `work_scale` multiplies the computation (non-uniform iterations).
  /// When `terms` is non-null the stage cost is additionally split into
  /// compute / read / write / prefetch-wait such that the parts sum to
  /// stage_s (attributed runs only; the hot path passes nullptr).
  /// `flat_stage` addresses the interned per-stage tables (see
  /// flat_stage_index); it selects the pre-resolved variable indices so the
  /// per-call I/O layout never re-scans variable names.
  NodeSectionTime stage_time(int rank, const SectionSpec& section,
                             const ooc::StageDef& stage, int flat_stage,
                             const StageCosts& ist,
                             const ooc::NodePlan& plan, std::int64_t begin_row,
                             std::int64_t end_row, double work_scale,
                             CostTerms* terms = nullptr) const;

  /// The two compiled variants behind stage_time: WithTerms=false is the
  /// hot instantiation, with every attribution store folded away.
  template <bool WithTerms>
  NodeSectionTime stage_time_impl(int rank, const SectionSpec& section,
                                  const ooc::StageDef& stage, int flat_stage,
                                  const StageCosts& ist,
                                  const ooc::NodePlan& plan,
                                  std::int64_t begin_row, std::int64_t end_row,
                                  double work_scale, CostTerms* terms) const;

  /// Rank-independent flat index of (section, stage) into the interned
  /// per-stage tables.
  int flat_stage_index(int section_index, int stage_index) const {
    return section_stage_offset_[static_cast<std::size_t>(section_index)] +
           stage_index;
  }

  /// Memoized (or freshly computed) per-rank plans for `d`.
  std::vector<std::shared_ptr<const ooc::NodePlan>> plans_for(
      const dist::GenBlock& d) const;

  /// Memoized (or freshly computed) plan for one node owning `count` rows.
  std::shared_ptr<const ooc::NodePlan> plan_for_rank(int rank,
                                                     std::int64_t count) const;

  /// All stage times of `rank` for one section at `count` local rows,
  /// written into the rank's contiguous [tile][stage] segment of the three
  /// SoA output arrays (each sized tiles * stages). Single source of truth
  /// for the per-slot values: build_iteration_cache and the incremental
  /// evaluator's row cache both fill through it, so a cached row is
  /// bit-identical to a freshly built one.
  void build_rank_section(int rank, int section_index, std::int64_t count,
                          const ooc::NodePlan& plan, double scale,
                          double* stage_s, double* compute_s, double* io_s,
                          CostTerms* terms) const;

  /// Fills `cache` with every section/rank/tile/stage time for one
  /// iteration at `scale`; per-slot terms too when `with_terms` is set.
  void build_iteration_cache(
      const dist::GenBlock& d,
      const std::vector<std::shared_ptr<const ooc::NodePlan>>& plans,
      double scale, IterationCache& cache, bool with_terms = false) const;

  /// Advances per-node clocks through one section using cached stage times.
  /// When `attr` is non-null every clock advance is also attributed to a
  /// cost term in attr->terms[section_index].
  void apply_section(int section_index, const IterationCache& cache,
                     std::vector<double>& t, std::vector<double>& arrivals,
                     IterationAgg& agg, Attribution* attr = nullptr,
                     std::vector<double>* coll_a = nullptr,
                     std::vector<double>* coll_b = nullptr) const;

  /// Shared evaluation loop; `attr` selects the attributed (shortcut-free)
  /// path.
  Prediction predict_impl(const dist::GenBlock& d,
                          const std::vector<double>& iteration_scales,
                          Attribution* attr) const;

  /// Reusable per-call vectors of run_iterations. A caller evaluating many
  /// candidates (the incremental evaluator) passes one of these to keep the
  /// loop allocation-free; passing nullptr uses call-local storage.
  struct IterScratch {
    std::vector<double> off;
    std::vector<double> arrivals;
    std::vector<double> start;
    std::vector<double> prev_off;
    std::vector<double> last_end;
    std::vector<double> coll_a;  // collective arrival scratch
    std::vector<double> coll_b;  // broadcast arrival scratch
  };

  /// The clock-propagation loop shared by predict_impl and the incremental
  /// evaluator: advances per-node clocks through all sections per
  /// iteration, renormalizing between iterations and collapsing repeated
  /// uniform iterations through the steady-state shortcut. `rebuild(scale,
  /// with_terms)` must (re)fill `cache` whenever the scale changes; a
  /// caller that pre-assembled `cache` for the single scale in
  /// `iteration_scales` never sees it invoked. The result is written into
  /// `pred` (overwritten, capacity reused).
  void run_iterations(int n, const std::vector<double>& iteration_scales,
                      Attribution* attr, IterationCache& cache,
                      const std::function<void(double, bool)>& rebuild,
                      Prediction& pred, IterScratch* scratch = nullptr) const;

  /// Advances per-node clocks through the binomial reduce + broadcast tree
  /// (mirrors the SimMPI collective exactly). Optional scratch vectors
  /// avoid the two per-call allocations on the hot loop.
  void apply_reduction(std::int64_t bytes, std::vector<double>& t,
                       std::vector<double>* scratch_a = nullptr,
                       std::vector<double>* scratch_b = nullptr) const;

  /// Advances per-node clocks through the ring-shifted total exchange
  /// (mirrors SimMPI::alltoall exactly). `scratch` as in apply_reduction.
  void apply_alltoall(std::int64_t bytes_per_pair, std::vector<double>& t,
                      std::vector<double>* scratch = nullptr) const;

  double o_s(int rank) const;
  double o_r(int rank) const;

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
  std::vector<std::int64_t> instrumented_counts_;   // per rank

  // Memoized per-(memory, rows) plans; shared (and locked) so copies of the
  // Predictor share one cache and predict() stays const and thread-safe.
  struct PlanCache;
  std::shared_ptr<PlanCache> plan_cache_;
};

}  // namespace mheta::core
