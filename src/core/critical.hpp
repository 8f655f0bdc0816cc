// Instrumented clock-sweep tracing and what-if parameter perturbations.
//
// Predictor::predict_traced runs the same clock-propagation recurrence as
// predict(), but records every advance of every node's clock as a
// SweepEvent whose predecessor link names the exact event that determined
// its start time: the node's own previous event for sequential advances,
// or — when a remote arrival won the max of a receive — the sender's send
// event, with the network transfer carried on the edge. Walking the
// *critical* rank's head backwards yields the causal critical path — the
// unique chain of (node, section, stage/comm, cost term) residencies that
// bounds the makespan — which obs/critical_path.* turns into the blame and
// sensitivity reports.
//
// The traced sweep is predict()'s sweep, step for step: per-rank clock
// offsets renormalized by their minimum between iterations, and the same
// bitwise steady-state test. Once iteration k starts from exactly the
// offsets iteration k-1 started from, iteration s = k-1 is steady: every
// later iteration repeats it event for event. The trace therefore records
// iterations 0..s only (usually two) plus how often s repeats, and
// critical_steps() walks the recorded steady iteration once per repeat, so
// the path and the blame fold see all K iterations without K iterations of
// events. With ModelOptions::steady_state_shortcut off, all K iterations
// are recorded. Totals are bit-identical to predict().
//
// Event times are offsets within their iteration (the absolute time adds
// SweepTrace::iteration_base()). The chain telescopes exactly: within an
// iteration, t_start == events[pred].t_end + edge_s; across an iteration
// boundary the predecessor is always the rank's own previous event and
// t_start == events[pred].t_end - renorm[events[pred].iteration]. The hot
// paths (delta evaluation, lane batching) never touch any of this code —
// tracing is a separate entry point, so prediction stays zero-cost when
// tracing is off.
//
// Perturbation + Predictor::perturbed support the what-if side: scale one
// resource (a node's computation, a node's disk, the network latency or
// bandwidth), re-intern the cost tables, and re-predict. perturb_params is
// the single source of truth for what a perturbation touches, so the cheap
// replay (table re-intern on a copy) and the brute-force cross-check (a
// fresh Predictor built from the perturbed params) see identical inputs.
#pragma once

#include <vector>

#include "core/model.hpp"

namespace mheta::core {

/// One advance of one node's clock during a traced sweep.
struct SweepEvent {
  enum class Kind {
    kStages,      ///< the stage run of one section (or one pipeline tile)
    kSend,        ///< a send overhead o_s (nearest-neighbor or pipeline)
    kRecv,        ///< a blocking receive: max(clock, arrival) + o_r
    kCollective,  ///< one hop inside a reduction tree / total exchange
  };

  Kind kind = Kind::kStages;
  int rank = -1;
  int section_index = -1;  ///< index into ProgramStructure::sections
  /// Recorded iteration. The steady iteration's events also stand for its
  /// repeats; SweepTrace::critical_steps() carries the real iteration.
  int iteration = -1;
  int tile = -1;  ///< pipeline tile; -1 outside pipelined sections
  /// Index of the event whose t_end this event's start derives from; -1 for
  /// the origin (offset 0 of iteration 0). Within an iteration,
  /// t_start == events[pred].t_end + edge_s; when pred lies in the previous
  /// iteration (always the rank's own event, edge_s 0),
  /// t_start == events[pred].t_end - SweepTrace::renorm[that iteration].
  int pred = -1;
  /// Sender rank when a remote arrival won the max (kRecv/kCollective with
  /// edge_s > 0); -1 for purely local advances.
  int src_rank = -1;
  /// Clock offsets within the iteration, as predict() computes them.
  double t_start = 0;
  double t_end = 0;
  /// Network transfer time between the predecessor's end and this event's
  /// start (only nonzero when the predecessor is a remote send).
  double edge_s = 0;
  /// Cost term (cost_term_name order) of the advance; -1 for kStages, whose
  /// duration splits across terms via SweepTrace::terms.
  int term = -1;
  /// kStages only: first slot of this run in SweepTrace::terms[section] and
  /// the number of consecutive stage slots covered.
  int slot_begin = -1;
  int stage_count = 0;

  double duration_s() const { return t_end - t_start; }
};

/// Everything predict_traced records about one evaluation.
struct SweepTrace {
  /// Totals of the traced sweep; bit-identical to predict().
  Prediction prediction;
  int iterations = 0;  ///< K, the real iteration count

  /// Iterations 0..s in order, every one the same number of events in the
  /// same order; s = renorm.size() - 1 is the steady iteration (K - 1 when
  /// no fixed point was reached or the shortcut is off).
  std::vector<SweepEvent> events;
  /// Per rank: index of its last recorded event, i.e. its last event of the
  /// steady iteration (-1 if its clock never advanced).
  std::vector<int> head;
  /// Per recorded iteration: the minimum offset subtracted from every clock
  /// after it (0 for the final iteration, which is not renormalized).
  std::vector<double> renorm;
  /// Index of the first event of the steady iteration.
  int steady_begin = 0;
  /// How many more times the steady iteration runs after its recorded one
  /// (iterations == renorm.size() + steady_repeats).
  int steady_repeats = 0;

  /// Per-slot cost-term splits of the stage runs, mirroring the evaluation
  /// cache: terms[section][(rank * tiles + tile) * stages + g]. A kStages
  /// event's duration equals the sum over its covered slots' terms (within
  /// floating summation error).
  std::vector<std::vector<CostTerms>> terms;
  std::vector<int> section_tiles;   ///< per section (1 when not pipelined)
  std::vector<int> section_stages;  ///< per section

  /// One event of the expanded critical path and the real iteration it
  /// stands for.
  struct Step {
    int event = -1;
    int iteration = -1;
  };

  /// Rank whose final clock is the headline prediction (first of ties, like
  /// AttributedPrediction::critical_rank).
  int critical_rank() const;

  /// The critical path over all K iterations, origin first: the chain from
  /// critical_rank's head through pred links, re-entering the steady
  /// iteration at head[rank] once per repeat when a link leaves it. Summing
  /// duration_s() + edge_s over the steps reproduces prediction.total_s
  /// within floating summation error (each boundary crossing adds back its
  /// renormalization).
  std::vector<Step> critical_steps() const;

  /// critical_steps()' event indices: the steady iteration's indices recur
  /// once per repeat, so the path is as long as a full K-iteration trace's.
  std::vector<int> critical_path() const;

  /// Per real iteration: the renormalization absorbed before it, summed in
  /// predict()'s order, so iteration_base()[i] + t is an event's absolute
  /// time and iteration_base()[K - 1] + events[head[r]].t_end ==
  /// prediction.node_end_s[r] bit for bit.
  std::vector<double> iteration_base() const;
};

/// One what-if scaling of a measured resource.
struct Perturbation {
  enum class Kind {
    kCompute,       ///< node `rank`: every stage's compute_s (C_i)
    kDisk,          ///< node `rank`: seeks + every per-byte disk latency (S_i)
    kNetLatency,    ///< network latency_s (all messages)
    kNetBandwidth,  ///< network s_per_byte (all messages)
  };

  Kind kind = Kind::kCompute;
  int rank = -1;      ///< target node for kCompute/kDisk; ignored otherwise
  double factor = 1;  ///< multiplier on the targeted costs (must be > 0)
};

const char* perturbation_kind_name(Perturbation::Kind kind);

/// Returns `params` with `p` applied. Single source of truth for the
/// parameters a perturbation touches — Predictor::perturbed and any
/// brute-force re-prediction must both build from this.
instrument::MhetaParams perturb_params(const instrument::MhetaParams& params,
                                       const Perturbation& p);

}  // namespace mheta::core
