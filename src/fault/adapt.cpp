#include "fault/adapt.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "apps/driver.hpp"
#include "core/redistribution.hpp"
#include "fault/injector.hpp"
#include "fault/scenario_lint.hpp"
#include "instrument/trace.hpp"
#include "obs/attribution.hpp"
#include "search/objective.hpp"
#include "search/search.hpp"
#include "util/check.hpp"

namespace mheta::fault {

const char* to_string(Policy p) {
  switch (p) {
    case Policy::kStatic: return "static";
    case Policy::kAdaptive: return "adaptive";
    case Policy::kOracle: return "oracle";
  }
  return "?";
}

std::optional<Policy> parse_policy(const std::string& s) {
  if (s == "static") return Policy::kStatic;
  if (s == "adaptive") return Policy::kAdaptive;
  if (s == "oracle") return Policy::kOracle;
  return std::nullopt;
}

namespace {

/// Terms a redistribution can move between nodes: computation and local
/// I/O. The remaining terms (send, recv_wait, collective) ride the shared
/// network, where only *asymmetric* drift is addressable.
bool node_local_term(int term) { return term <= 3; }

}  // namespace

DriftReport measure_drift(
    const std::vector<std::vector<core::CostTerms>>& predicted,
    const std::vector<std::vector<core::CostTerms>>& actual,
    double term_share_min) {
  DriftReport report;
  MHETA_CHECK_MSG(predicted.size() == actual.size(),
                  "drift: section counts differ");
  const int ranks =
      predicted.empty() ? 0 : static_cast<int>(predicted.front().size());

  std::vector<core::CostTerms> p_tot(static_cast<std::size_t>(ranks));
  std::vector<core::CostTerms> a_tot(static_cast<std::size_t>(ranks));
  double predicted_end = 0;
  double actual_end = 0;
  for (int r = 0; r < ranks; ++r) {
    for (std::size_t sec = 0; sec < predicted.size(); ++sec) {
      p_tot[static_cast<std::size_t>(r)] +=
          predicted[sec][static_cast<std::size_t>(r)];
      a_tot[static_cast<std::size_t>(r)] +=
          actual[sec][static_cast<std::size_t>(r)];
    }
    predicted_end = std::max(predicted_end, p_tot[static_cast<std::size_t>(r)].total());
    actual_end = std::max(actual_end, a_tot[static_cast<std::size_t>(r)].total());
  }

  for (int t = 0; t < core::kCostTermCount; ++t) {
    // Signed relative errors of the qualifying nodes for this term.
    std::vector<double> rels;
    for (int r = 0; r < ranks; ++r) {
      const std::size_t i = static_cast<std::size_t>(r);
      const double p = core::cost_term_value(p_tot[i], t);
      const double a = core::cost_term_value(a_tot[i], t);
      const double hi = std::max(p, a);
      const double node_scale = std::max(p_tot[i].total(), a_tot[i].total());
      if (hi < term_share_min * node_scale) continue;
      const double rel = (a - p) / hi;
      rels.push_back(rel);
      if (std::abs(rel) > report.worst) {
        report.worst = std::abs(rel);
        report.worst_rank = r;
        report.worst_term = t;
      }
    }
    if (rels.empty()) continue;
    double term_actionable = 0;
    if (node_local_term(t)) {
      // A node computing or reading slower than modelled can always be
      // relieved by moving rows off it.
      for (double rel : rels)
        term_actionable = std::max(term_actionable, std::abs(rel));
    } else {
      // Shared-network terms: uniform inflation (every node's waits grow by
      // the same factor — global contention) cannot be rebalanced away, so
      // only the spread across nodes counts. A single drifting node is
      // maximally asymmetric.
      if (rels.size() == 1) {
        term_actionable = std::abs(rels.front());
      } else {
        const auto [lo, hi] = std::minmax_element(rels.begin(), rels.end());
        term_actionable = *hi - *lo;
      }
    }
    report.actionable = std::max(report.actionable, term_actionable);
  }

  const double lo = std::min(predicted_end, actual_end);
  report.headline = lo > 0 ? std::abs(actual_end - predicted_end) / lo : 0;
  return report;
}

namespace {

/// Best distribution for `arch_now` according to `predictor`, starting the
/// vector-space algorithms from `start`.
search::SearchResult search_best(const cluster::ArchConfig& arch_now,
                                 const exp::Workload& w,
                                 const core::Predictor& predictor,
                                 const dist::GenBlock& start,
                                 const AdaptOptions& opts,
                                 std::uint64_t seed) {
  const dist::DistContext ctx = exp::make_context(arch_now, w, opts.experiment);
  const search::LaneObjective lanes(predictor, 1, arch_now.cluster);
  return search::run_named(opts.algorithm, search::BatchObjective(lanes),
                           start, ctx, arch_now.spectrum, seed);
}

/// The architecture as the scenario leaves it in `epoch`.
cluster::ArchConfig perturbed_arch(const cluster::ArchConfig& arch,
                                   const Scenario& s, int epoch) {
  cluster::ArchConfig out = arch;
  out.cluster = perturbed_config(arch.cluster, s, epoch);
  return out;
}

/// Per-epoch simulator effects: identical across policies (keyed only on
/// the scenario), different across epochs so runtime noise never repeats.
cluster::SimEffects epoch_effects(const AdaptOptions& opts, const Scenario& s,
                                  int epoch) {
  cluster::SimEffects effects = opts.experiment.effects;
  effects.seed = effects.seed + s.seed * 1000003u +
                 static_cast<std::uint64_t>(epoch) * 7919u;
  return effects;
}

struct EpochRun {
  double seconds = 0;
  std::vector<std::vector<core::CostTerms>> actual;  ///< traced runs only
};

/// Runs one epoch's iterations under `d` with the epoch's perturbations
/// live-injected at the timed-region start; traces when `traced`.
EpochRun run_epoch(const cluster::ArchConfig& arch, const exp::Workload& w,
                   const Scenario& s, int epoch, const dist::GenBlock& d,
                   const AdaptOptions& opts, bool traced) {
  // Memory shrink feeds the out-of-core planner at construction, so it
  // rides the config; everything else is injected into the live world.
  const cluster::ClusterConfig config = memory_config(arch.cluster, s, epoch);
  const FaultInjector injector(s, epoch, config.size());

  apps::RunOptions run;
  run.iterations = s.iterations_per_epoch;
  run.runtime = opts.experiment.runtime;
  run.before_iterations = injector.callback();
  std::optional<instrument::TraceCollector> trace;
  if (traced) {
    run.setup = [&](mpi::World& world) {
      trace.emplace(world);
      trace->install();
    };
  }
  const apps::RunResult result = apps::run_program(
      config, epoch_effects(opts, s, epoch), w.program, d, run);

  EpochRun out;
  out.seconds = result.seconds;
  if (traced)
    out.actual = obs::attribute_trace(*trace, w.program, config.size(),
                                      result.timed_start_s);
  return out;
}

}  // namespace

PolicyResult run_policy(Policy policy, const cluster::ArchConfig& arch,
                        const exp::Workload& w, const Scenario& s,
                        const AdaptOptions& opts) {
  analysis::enforce(lint_scenario(s, nullptr, &arch.cluster),
                    "scenario '" + s.name + "'");
  MHETA_CHECK_MSG(opts.hysteresis >= 1, "hysteresis must be >= 1");

  // Every policy starts from the same footing: the model of the nominal
  // machine and the search's best distribution on it (the static optimum).
  core::Predictor predictor =
      exp::build_predictor(arch, w, opts.experiment);
  const dist::GenBlock blk =
      dist::block_dist(exp::make_context(arch, w, opts.experiment));
  dist::GenBlock current =
      search_best(arch, w, predictor, blk, opts, opts.search_seed).best;

  PolicyResult result;
  result.policy = policy;
  int drift_streak = 0;
  // Presumed bias of the *current* model: the actionable drift on the
  // first epoch it served, capped at the reaction threshold. Every model
  // carries some irreducible bias (e.g. the alltoall term on
  // all-to-all-heavy programs) that re-calibration cannot remove, and the
  // controller must not chase it forever — but drift far above the
  // threshold right after a calibration is a hardware change, not bias, so
  // only threshold-level bias is ever presumed. Anchoring once — not
  // min-tracking — keeps phases where the metric is transiently low (a
  // contention window swamping the biased term) from later making the
  // bias look fresh.
  std::optional<double> drift_floor;
  // Actionable level of the last reaction that concluded "stay". Drift can
  // look asymmetric (per-node wait spreads under global contention) while
  // the re-search finds nothing movable; once the controller has paid to
  // learn that, it does not pay again for the same or weaker evidence. A
  // fruitful reaction (an actual switch) clears the suppression.
  double fruitless_at = 0;

  for (int epoch = 0; epoch < s.epochs; ++epoch) {
    EpochRecord rec;
    rec.epoch = epoch;
    rec.perturbed = any_active(s, epoch);

    if (policy == Policy::kOracle) {
      // The oracle re-models each epoch's true hardware and switches for
      // free — the bound on what any reactive policy could recover. On
      // unperturbed epochs the nominal model already is the truth.
      const cluster::ArchConfig arch_now =
          rec.perturbed ? perturbed_arch(arch, s, epoch) : arch;
      const core::Predictor oracle_model =
          rec.perturbed ? exp::build_predictor(arch_now, w, opts.experiment)
                        : predictor;
      const search::SearchResult sr =
          search_best(arch_now, w, oracle_model, current, opts,
                      opts.search_seed + static_cast<std::uint64_t>(epoch) + 1);
      // Even the oracle's model has finite accuracy; only move on a
      // meaningful predicted margin, or model error alone could make the
      // oracle pick a distribution the simulation runs slower than static.
      const double stay_s = oracle_model.predict(current).total_s;
      if (sr.best_time < stay_s * (1 - opts.switch_margin) &&
          !(sr.best == current)) {
        current = sr.best;
        rec.switched = true;
        ++result.switches;
      }
      rec.predicted_s =
          oracle_model.predict(current, s.iterations_per_epoch).total_s;
    } else {
      rec.predicted_s =
          predictor.predict(current, s.iterations_per_epoch).total_s;
    }

    const bool traced = policy == Policy::kAdaptive;
    const EpochRun run = run_epoch(arch, w, s, epoch, current, opts, traced);
    rec.epoch_s = run.seconds;
    rec.dist = current.counts();

    if (traced) {
      // Drift: the model's attributed decomposition of this epoch against
      // what the traced simulation actually spent, term by term.
      const core::AttributedPrediction attributed =
          predictor.predict_attributed(current, s.iterations_per_epoch);
      const DriftReport drift =
          measure_drift(attributed.terms, run.actual, opts.term_share_min);
      rec.drift = drift.worst;
      rec.actionable = drift.actionable;
      // Streak on the *actionable* drift in excess of the model's floor:
      // uniform network contention inflates `worst` but no redistribution
      // addresses it, and a model's own persistent bias re-appears after
      // every re-calibration, so reacting to either would be pure overhead.
      if (!drift_floor)
        drift_floor = std::min(drift.actionable, opts.drift_threshold);
      drift_streak = drift.actionable - *drift_floor > opts.drift_threshold
                         ? drift_streak + 1
                         : 0;

      const int remaining = (s.epochs - epoch - 1) * s.iterations_per_epoch;
      if (drift_streak >= opts.hysteresis && remaining > 0 &&
          drift.actionable > fruitless_at) {
        // React: pay for one instrumented iteration on the machine as the
        // controller just observed it, re-search, and switch only if the
        // remaining iterations amortize the redistribution.
        const cluster::ArchConfig arch_now = perturbed_arch(arch, s, epoch);
        double instrumented_s = 0;
        core::Predictor remodel = exp::build_predictor(
            arch_now, w, opts.experiment, &instrumented_s);
        rec.overhead_s += instrumented_s;
        rec.recalibrated = true;
        ++result.recalibrations;

        const search::SearchResult sr =
            search_best(arch_now, w, remodel, current, opts,
                        opts.search_seed + static_cast<std::uint64_t>(epoch) + 1);
        if (!(sr.best == current)) {
          const core::SwitchPlan plan = core::plan_switch(
              remodel, w.program, remodel.params(), current, sr.best);
          if (plan.worthwhile(remaining)) {
            rec.overhead_s += plan.switch_cost_s;
            current = sr.best;
            rec.switched = true;
            ++result.switches;
          }
        }
        fruitless_at = rec.switched ? 0 : drift.actionable;
        // Adopt the re-measured model either way: it is the controller's
        // best description of the machine it is now running on. Its bias
        // floor is unknown until it serves an epoch.
        predictor = std::move(remodel);
        drift_streak = 0;
        drift_floor.reset();
      }
    }

    result.total_s += rec.epoch_s + rec.overhead_s;
    result.overhead_s += rec.overhead_s;
    result.epochs.push_back(std::move(rec));
  }
  return result;
}

bool ChaosRunResult::ordered(double tol_rel) const {
  return oracle.total_s <= adaptive.total_s * (1 + tol_rel) &&
         adaptive.total_s <= static_best.total_s * (1 + tol_rel);
}

ChaosRunResult run_chaos(const cluster::ArchConfig& arch,
                         const exp::Workload& w, const Scenario& s,
                         const AdaptOptions& opts) {
  ChaosRunResult result;
  result.workload = w.name;
  result.arch = arch.cluster.name;
  result.scenario = s.name;
  result.seed = s.seed;
  result.epochs = s.epochs;
  result.iterations_per_epoch = s.iterations_per_epoch;
  result.algorithm = opts.algorithm;
  result.static_best = run_policy(Policy::kStatic, arch, w, s, opts);
  result.adaptive = run_policy(Policy::kAdaptive, arch, w, s, opts);
  result.oracle = run_policy(Policy::kOracle, arch, w, s, opts);
  return result;
}

}  // namespace mheta::fault
