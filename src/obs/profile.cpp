#include "obs/profile.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <utility>

#include "apps/driver.hpp"
#include "instrument/gantt.hpp"
#include "instrument/trace.hpp"
#include "obs/perfetto.hpp"
#include "search/objective.hpp"
#include "search/search.hpp"
#include "sim/time.hpp"
#include "util/check.hpp"

namespace mheta::obs {

dist::GenBlock dist_by_name(const dist::DistContext& ctx,
                            const std::string& name) {
  if (name == "even" || name == "blk") return dist::block_dist(ctx);
  if (name == "bal") return dist::balanced_dist(ctx);
  if (name == "ic") return dist::in_core_dist(ctx);
  if (name == "icbal") return dist::in_core_balanced_dist(ctx);
  throw std::runtime_error("unknown distribution '" + name +
                           "' (expected even|blk|bal|ic|icbal)");
}

namespace {

double clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

/// Opens an artifact for writing and remembers its path.
std::ofstream open_artifact(const std::filesystem::path& dir,
                            const char* name, std::vector<std::string>& files) {
  const std::filesystem::path p = dir / name;
  std::ofstream os(p);
  MHETA_CHECK(os.good());
  files.push_back(p.string());
  return os;
}

}  // namespace

ProfileResult run_profile(const exp::Workload& w, const ProfileOptions& opts,
                          MetricsRegistry& registry,
                          const std::string& out_dir) {
  const cluster::ArchConfig arch = cluster::find_arch(opts.arch);
  const int nodes = arch.cluster.size();
  const int iterations = opts.iterations > 0 ? opts.iterations : w.iterations;

  exp::ExperimentOptions eopts = opts.experiment;
  eopts.model.metrics = &registry;  // plan-LRU counters

  const core::Predictor predictor = exp::build_predictor(arch, w, eopts);
  const dist::DistContext ctx = exp::make_context(arch, w, eopts);
  const dist::GenBlock d = dist_by_name(ctx, opts.dist);

  // Predicted side: the full per-(section, node) cost decomposition.
  const core::AttributedPrediction attributed =
      predictor.predict_attributed(d, iterations);

  // Actual side: the same triple through the simulator, traced. The
  // teardown hook harvests utilization data that dies with the World.
  ProfileResult result;
  apps::RunOptions run;
  run.iterations = iterations;
  run.runtime = eopts.runtime;
  std::optional<instrument::TraceCollector> trace;
  run.setup = [&](mpi::World& world) {
    trace.emplace(world);
    trace->install();
  };
  run.teardown = [&](mpi::World& world) {
    const double elapsed = sim::to_seconds(world.engine().now());
    for (int r = 0; r < nodes; ++r) {
      const double cpu =
          elapsed > 0 ? clamp01(world.cpu_busy_seconds(r) / elapsed) : 0;
      const double disk =
          elapsed > 0 ? clamp01(world.disk(r).busy_seconds() / elapsed) : 0;
      result.cpu_utilization.push_back(cpu);
      result.disk_utilization.push_back(disk);
      const std::string suffix = "_node" + std::to_string(r);
      registry.gauge("cpu_utilization" + suffix).set(cpu);
      registry.gauge("disk_utilization" + suffix).set(disk);
    }
    // Transfers overlap on the shared network, so this is clamped.
    result.network_utilization =
        elapsed > 0 ? clamp01(world.network_busy_seconds() / elapsed) : 0;
    registry.gauge("network_utilization").set(result.network_utilization);
    registry.counter("sim_events_processed_total")
        .inc(world.engine().events_processed());
  };
  const apps::RunResult actual =
      apps::run_program(arch.cluster, eopts.effects, w.program, d, run);
  MHETA_CHECK(trace.has_value());

  // The report: both decompositions of the same triple, side by side.
  AttributionReport& report = result.report;
  report.workload = w.name;
  report.arch = opts.arch;
  report.dist = opts.dist;
  report.iterations = iterations;
  for (const auto& section : w.program.sections)
    report.section_ids.push_back(section.id);
  report.predicted = attributed.terms;
  report.actual =
      attribute_trace(*trace, w.program, nodes, actual.timed_start_s);
  report.predicted_node_end_s = attributed.prediction.node_end_s;
  report.actual_node_end_s = actual.node_seconds;
  report.predicted_total_s = attributed.prediction.total_s;
  report.actual_total_s = actual.seconds;

  // Critical-path pass: the same prediction once more through the traced
  // sweep (predict()'s renormalized recurrence, one event per advance over
  // the transient and one steady iteration that the walk repeats), folded
  // into the blame report and replayed per parameter for the what-if
  // table. Only when requested — the traced sweep is scalar-only and the
  // fast paths stay untouched otherwise.
  if (opts.critical_path) {
    const core::SweepTrace sweep = predictor.predict_traced(d, iterations);
    result.critical = true;
    result.blame = build_blame(predictor, sweep);
    result.blame.workload = w.name;
    result.blame.arch = opts.arch;
    result.blame.dist = opts.dist;
    result.sensitivity = what_if_sensitivity(predictor, d, iterations,
                                             result.blame,
                                             opts.sensitivity_epsilon);
    registry.gauge("critical_path_total_s").set(result.blame.total_s);
    for (int term = 0; term < core::kCostTermCount; ++term) {
      const double pct =
          result.blame.path_seconds > 0
              ? 100.0 * result.blame.term_s[static_cast<std::size_t>(term)] /
                    result.blame.path_seconds
              : 0;
      registry
          .gauge(std::string("critical_path_") + core::cost_term_name(term) +
                 "_pct")
          .set(pct);
    }
    registry.gauge("sensitivity_max_crosscheck_s")
        .set(result.sensitivity.max_replay_vs_brute_s);
  }

  if (!opts.search.empty()) {
    // The search scores candidates through the lane-batched objective —
    // bit-identical to make_objective lane by lane, so the trajectory is
    // unchanged. Single candidates take its scalar (delta) path; population
    // algorithms route whole candidate sets through K-wide clock sweeps,
    // with every batch value fed into the convergence recorder. The
    // periodic cross-check keeps a live drift oracle in the metrics for
    // both paths.
    core::LaneOptions lopts;
    lopts.crosscheck_every = 16;
    lopts.metrics = &registry;
    const search::LaneObjective lanes(predictor, iterations, arch.cluster,
                                      lopts);
    // With a critical-path report requested, an incumbent probe rides along
    // so the best distribution the search observed can be blamed afterwards.
    std::optional<search::IncumbentProbe> probe;
    if (opts.critical_path) probe.emplace(search::Objective(lanes), &registry);
    const ConvergenceRecorder recorder{
        probe ? search::Objective(*probe) : search::Objective(lanes)};
    const search::IncumbentProbe* probe_p = probe ? &*probe : nullptr;
    const search::BatchObjective batched(
        search::Objective(recorder),
        [&lanes, &recorder, probe_p](const std::vector<dist::GenBlock>& cs) {
          auto values = lanes.evaluate(cs);
          for (std::size_t i = 0; i < values.size(); ++i) {
            if (probe_p != nullptr) probe_p->record(cs[i], values[i]);
            recorder.record(values[i]);
          }
          return values;
        });
    const search::SearchResult sr = search::run_named(
        opts.search, batched, d, ctx, arch.spectrum, opts.seed);
    result.searched = true;
    result.search_algorithm = opts.search;
    result.search_best_s = sr.best_time;
    result.search_evaluations = sr.evaluations;
    result.convergence = recorder.series();
    result.delta = lanes.scalar_stats();
    result.lanes = lanes.stats();
    registry.gauge("search_best_cost_s").set(sr.best_time);

    if (probe && probe->has_best()) {
      result.has_incumbent = true;
      result.incumbent_best_s = probe->best_value();
      result.incumbent_observed = probe->observed();
      result.incumbent_improvements = probe->improvements();
      const core::SweepTrace sweep =
          predictor.predict_traced(probe->best_candidate(), iterations);
      result.incumbent_blame = build_blame(predictor, sweep);
      result.incumbent_blame.workload = w.name;
      result.incumbent_blame.arch = opts.arch;
      result.incumbent_blame.dist = "incumbent(" + opts.search + ")";
      registry.gauge("incumbent_best_s").set(result.incumbent_best_s);
    }
  }

  const core::Predictor::PlanCacheStats ps = predictor.plan_cache_stats();
  result.plan_cache_hit_rate =
      ps.hits + ps.misses > 0
          ? static_cast<double>(ps.hits) /
                static_cast<double>(ps.hits + ps.misses)
          : 0;
  registry.gauge("plan_cache_hit_rate").set(result.plan_cache_hit_rate);

  // Artifacts. Metrics exports go last so they snapshot everything above.
  const std::filesystem::path dir(out_dir);
  std::filesystem::create_directories(dir);
  {
    auto os = open_artifact(dir, "trace.json", result.files);
    ChromeTraceOptions topts;
    topts.origin_s = actual.timed_start_s;
    write_chrome_trace(os, *trace, nodes, topts);
  }
  {
    auto os = open_artifact(dir, "gantt.txt", result.files);
    instrument::render_gantt(os, *trace, nodes);
  }
  {
    auto os = open_artifact(dir, "attribution.txt", result.files);
    write_attribution_text(os, report);
  }
  {
    auto os = open_artifact(dir, "attribution.json", result.files);
    write_attribution_json(os, report);
  }
  if (result.searched) {
    auto os = open_artifact(dir, "convergence.csv", result.files);
    write_convergence_csv(os, result.convergence);
  }
  if (result.critical) {
    {
      auto os = open_artifact(dir, "critical_path.txt", result.files);
      write_blame_text(os, result.blame);
      write_sensitivity_text(os, result.sensitivity);
    }
    {
      auto os = open_artifact(dir, "critical_path.json", result.files);
      write_critical_path_json(os, result.blame, &result.sensitivity);
    }
    {
      auto os = open_artifact(dir, "critical_path_trace.json", result.files);
      write_critical_path_trace(os, result.blame);
    }
    if (result.has_incumbent) {
      auto os = open_artifact(dir, "incumbent_blame.json", result.files);
      write_critical_path_json(os, result.incumbent_blame);
    }
  }
  {
    auto os = open_artifact(dir, "metrics.json", result.files);
    registry.export_json(os);
  }
  {
    auto os = open_artifact(dir, "metrics.prom", result.files);
    registry.export_prometheus(os);
  }
  return result;
}

}  // namespace mheta::obs
