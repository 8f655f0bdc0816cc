#include "serve/ops.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#include "analysis/lint.hpp"
#include "analysis/rules.hpp"
#include "core/structure_io.hpp"
#include "obs/profile.hpp"
#include "search/objective.hpp"
#include "search/search.hpp"
#include "util/check.hpp"

namespace mheta::serve {

namespace {

dist::GenBlock make_dist(const std::string& kind,
                         const dist::DistContext& ctx) {
  if (kind == "blk") return dist::block_dist(ctx);
  if (kind == "bal") return dist::balanced_dist(ctx);
  if (kind == "ic") return dist::in_core_dist(ctx);
  if (kind == "icbal") return dist::in_core_balanced_dist(ctx);
  throw CheckError("unknown distribution kind: " + kind);
}

obs::JsonValue number(double v) {
  obs::JsonValue j;
  j.kind = obs::JsonValue::Kind::kNumber;
  j.number = v;
  return j;
}

obs::JsonValue string_value(const std::string& s) {
  obs::JsonValue j;
  j.kind = obs::JsonValue::Kind::kString;
  j.string = s;
  return j;
}

obs::JsonValue object() {
  obs::JsonValue j;
  j.kind = obs::JsonValue::Kind::kObject;
  return j;
}

obs::JsonValue array() {
  obs::JsonValue j;
  j.kind = obs::JsonValue::Kind::kArray;
  return j;
}

obs::JsonValue interval_json(const analysis::bounds::Interval& iv) {
  obs::JsonValue j = object();
  j.object["lo"] = number(iv.lo);
  j.object["hi"] = number(iv.hi);
  return j;
}

obs::JsonValue counts_json(const dist::GenBlock& d) {
  obs::JsonValue arr = array();
  for (int i = 0; i < d.nodes(); ++i)
    arr.array.push_back(number(static_cast<double>(d.count(i))));
  return arr;
}

int effective_iterations(const Session& session, int iterations) {
  return iterations > 0 ? iterations : session.workload().iterations;
}

}  // namespace

LintRun lint_input(const std::string& input, const std::string& arch_name,
                   const std::string& dist_kind, bool bounds,
                   SessionRegistry* sessions) {
  LintRun run;
  core::ProgramStructure program;
  analysis::StructureLocations locations;

  if (auto w = exp::workload_by_name(input)) {
    program = std::move(w->program);
    run.diags.set_artifact(program.name);
    run.diags.merge(analysis::lint_structure(program));
  } else {
    std::ifstream file(input);
    if (!file) throw CheckError("cannot open '" + input + "'");
    locations.file = input;
    run.diags.set_artifact(input);
    // Collect rule findings instead of throwing; syntax errors still throw.
    program = core::load_structure(file, &locations, &run.diags);
  }

  if (arch_name.empty()) {
    MHETA_CHECK_MSG(!bounds, "--bounds requires an architecture");
    return run;
  }

  const cluster::ArchConfig arch = cluster::find_arch(arch_name);
  const auto ctx = dist::DistContext::from_cluster(
      arch.cluster, program.rows(), program.bytes_per_row());
  const dist::GenBlock d = make_dist(dist_kind, ctx);
  analysis::LintInput in;
  in.structure = &program;
  in.locations = locations.file.empty() ? nullptr : &locations;
  in.cluster = &arch.cluster;
  in.distribution = &d;

  // With bounds, calibrate the model on the emulated machine so the
  // model-input rules (MH012-15, MH019) and the interval-bounds rules
  // (MH022-23) see real MhetaParams and per-node memories. Reuse the
  // daemon's interned session when a registry is given; the batch tool
  // builds fresh (same code path, Session construction).
  std::shared_ptr<const Session> session;
  if (bounds) {
    if (sessions != nullptr) {
      session = sessions->acquire(input, arch_name);
    } else {
      session = std::make_shared<const Session>(input, arch_name);
    }
    const core::Predictor& predictor = session->predictor();
    in.structure = &predictor.structure();
    in.params = &predictor.params();
    in.memory_bytes = &predictor.memory_bytes();
    in.planner_overhead_bytes = predictor.options().planner_overhead_bytes;
    in.max_blocks = predictor.options().max_blocks;
  }
  // Replace the structure-only findings with the full triple run so each
  // rule reports once.
  analysis::Diagnostics full = analysis::run_rules(in);
  full.set_artifact(run.diags.artifact());
  run.diags = std::move(full);

  if (bounds) {
    const auto& analyzer = session->bounds_analyzer();
    run.iterations = session->workload().iterations;
    run.total = analyzer.total_bounds(d, run.iterations);
    run.stages = analyzer.stage_bounds(d);
    run.structure = session->predictor().structure();
    run.has_bounds = true;
  }
  return run;
}

void write_bounds_text(std::ostream& os, const LintRun& run) {
  MHETA_CHECK(run.has_bounds);
  os << "bounds (" << run.iterations << " iteration(s)): total ["
     << run.total.total.lo << ", " << run.total.total.hi << "] s, rel width "
     << run.total.width_rel() << '\n';
  for (std::size_t r = 0; r < run.total.node_end.size(); ++r)
    os << "  node " << r << ": [" << run.total.node_end[r].lo << ", "
       << run.total.node_end[r].hi << "] s\n";
  // Stage envelopes are per (section, stage, rank); fold ranks so the
  // report stays one line per stage.
  for (const auto& section : run.structure.sections) {
    for (const auto& stage : section.stages) {
      analysis::bounds::Interval folded{0, 0};
      bool first = true;
      for (const auto& sb : run.stages) {
        if (sb.section_id != section.id || sb.stage_id != stage.id) continue;
        if (first) {
          folded = sb.time;
          first = false;
        } else {
          folded.lo = std::min(folded.lo, sb.time.lo);
          folded.hi = std::max(folded.hi, sb.time.hi);
        }
      }
      if (first) continue;
      os << "  section " << section.id << " stage " << stage.id
         << " (per iteration, across ranks): [" << folded.lo << ", "
         << folded.hi << "] s\n";
    }
  }
}

obs::JsonValue bounds_to_json(const LintRun& run) {
  MHETA_CHECK(run.has_bounds);
  obs::JsonValue j = object();
  j.object["iterations"] = number(run.iterations);
  j.object["total"] = interval_json(run.total.total);
  j.object["rel_width"] = number(run.total.width_rel());
  obs::JsonValue nodes = array();
  for (const auto& iv : run.total.node_end)
    nodes.array.push_back(interval_json(iv));
  j.object["node_end"] = std::move(nodes);
  obs::JsonValue stages = array();
  for (const auto& section : run.structure.sections) {
    for (const auto& stage : section.stages) {
      analysis::bounds::Interval folded{0, 0};
      bool first = true;
      for (const auto& sb : run.stages) {
        if (sb.section_id != section.id || sb.stage_id != stage.id) continue;
        if (first) {
          folded = sb.time;
          first = false;
        } else {
          folded.lo = std::min(folded.lo, sb.time.lo);
          folded.hi = std::max(folded.hi, sb.time.hi);
        }
      }
      if (first) continue;
      obs::JsonValue entry = object();
      entry.object["section"] = number(section.id);
      entry.object["stage"] = number(stage.id);
      entry.object["per_iteration"] = interval_json(folded);
      stages.array.push_back(std::move(entry));
    }
  }
  j.object["stages"] = std::move(stages);
  return j;
}

obs::JsonValue predict_payload(const Session& session, const std::string& dist,
                               int iterations) {
  const int iters = effective_iterations(session, iterations);
  const dist::GenBlock d = session.distribution(dist);
  const core::Prediction p = session.predictor().predict(d, iters);
  obs::JsonValue j = object();
  j.object["app"] = string_value(session.workload().name);
  j.object["arch"] = string_value(session.arch_name());
  j.object["dist"] = string_value(dist);
  j.object["iterations"] = number(iters);
  j.object["total_s"] = number(p.total_s);
  obs::JsonValue ends = array();
  for (const double e : p.node_end_s) ends.array.push_back(number(e));
  j.object["node_end_s"] = std::move(ends);
  j.object["compute_s"] = number(p.compute_s);
  j.object["io_s"] = number(p.io_s);
  j.object["counts"] = counts_json(d);
  return j;
}

obs::JsonValue lint_payload(const LintRun& run) {
  obs::JsonValue j = object();
  j.object["artifact"] = string_value(run.diags.artifact());
  j.object["errors"] = number(static_cast<double>(run.diags.error_count()));
  j.object["warnings"] =
      number(static_cast<double>(run.diags.warning_count()));
  // The diagnostics themselves, exactly as mheta-lint --json prints them:
  // serialize through the same writer, then embed the parsed document.
  std::ostringstream report;
  run.diags.print_json(report);
  obs::JsonValue parsed;
  std::string error;
  MHETA_CHECK_MSG(obs::json_parse(report.str(), parsed, &error), error);
  j.object["report"] = std::move(parsed);
  if (run.has_bounds) j.object["bounds"] = bounds_to_json(run);
  return j;
}

obs::JsonValue bounds_payload(const Session& session, const std::string& dist,
                              int iterations) {
  const int iters = effective_iterations(session, iterations);
  const dist::GenBlock d = session.distribution(dist);
  const auto& analyzer = session.bounds_analyzer();
  LintRun run;
  run.has_bounds = true;
  run.iterations = iters;
  run.total = analyzer.total_bounds(d, iters);
  run.stages = analyzer.stage_bounds(d);
  run.structure = session.predictor().structure();
  obs::JsonValue j = bounds_to_json(run);
  j.object["app"] = string_value(session.workload().name);
  j.object["arch"] = string_value(session.arch_name());
  j.object["dist"] = string_value(dist);
  // The envelope must contain the point prediction — certified, not just
  // plausible: lo <= predict() <= hi by the analyzer's soundness contract.
  j.object["predicted_total_s"] =
      number(session.predictor().predict(d, iters).total_s);
  return j;
}

obs::JsonValue whatif_payload(const Session& session, const std::string& dist,
                              int iterations,
                              const std::vector<core::Perturbation>& perturbs) {
  const int iters = effective_iterations(session, iterations);
  const dist::GenBlock d = session.distribution(dist);
  const core::Predictor& base = session.predictor();
  const double base_s = base.predict(d, iters).total_s;

  // Fold every perturbation into the measured parameters, then re-intern
  // once — bit-identical to chaining Predictor::perturbed (both build from
  // perturb_params; the sensitivity tests pin that identity).
  instrument::MhetaParams params = base.params();
  for (const auto& p : perturbs) params = core::perturb_params(params, p);
  const core::Predictor perturbed(base.structure(), std::move(params),
                                  base.memory_bytes(), base.options());
  const double what_s = perturbed.predict(d, iters).total_s;

  obs::JsonValue j = object();
  j.object["app"] = string_value(session.workload().name);
  j.object["arch"] = string_value(session.arch_name());
  j.object["dist"] = string_value(dist);
  j.object["iterations"] = number(iters);
  j.object["base_total_s"] = number(base_s);
  j.object["total_s"] = number(what_s);
  j.object["delta_s"] = number(what_s - base_s);
  j.object["rel_delta"] = number(base_s != 0 ? (what_s - base_s) / base_s : 0);
  obs::JsonValue specs = array();
  for (const auto& p : perturbs) {
    obs::JsonValue spec = object();
    spec.object["param"] = string_value(core::perturbation_kind_name(p.kind));
    spec.object["rank"] = number(p.rank);
    spec.object["factor"] = number(p.factor);
    specs.array.push_back(std::move(spec));
  }
  j.object["perturbations"] = std::move(specs);
  return j;
}

obs::JsonValue search_payload(const Session& session,
                              const std::string& algorithm,
                              std::uint64_t seed, int iterations) {
  const int iters = effective_iterations(session, iterations);
  const search::LaneObjective lanes(session.predictor(), iters,
                                    session.arch().cluster);
  const dist::DistContext& ctx = session.context();
  const search::SearchResult result = search::run_named(
      algorithm, search::BatchObjective(lanes), dist::block_dist(ctx), ctx,
      session.arch().spectrum, seed);

  obs::JsonValue j = object();
  j.object["app"] = string_value(session.workload().name);
  j.object["arch"] = string_value(session.arch_name());
  j.object["algorithm"] = string_value(algorithm);
  j.object["seed"] = number(static_cast<double>(seed));
  j.object["iterations"] = number(iters);
  j.object["best_total_s"] = number(result.best_time);
  j.object["evaluations"] = number(result.evaluations);
  j.object["best_counts"] = counts_json(result.best);
  return j;
}

core::Perturbation parse_perturbation(const obs::JsonValue& spec) {
  MHETA_CHECK_MSG(spec.is_object(), "perturbation spec must be an object");
  core::Perturbation p;
  const obs::JsonValue* param = spec.get("param");
  MHETA_CHECK_MSG(param != nullptr && param->is_string(),
                  "perturbation needs a \"param\" string");
  if (param->string == "compute") {
    p.kind = core::Perturbation::Kind::kCompute;
  } else if (param->string == "disk") {
    p.kind = core::Perturbation::Kind::kDisk;
  } else if (param->string == "net_latency") {
    p.kind = core::Perturbation::Kind::kNetLatency;
  } else if (param->string == "net_bandwidth") {
    p.kind = core::Perturbation::Kind::kNetBandwidth;
  } else {
    throw CheckError("unknown perturbation param '" + param->string +
                     "' (expected compute|disk|net_latency|net_bandwidth)");
  }
  if (const obs::JsonValue* rank = spec.get("rank")) {
    MHETA_CHECK_MSG(rank->is_number(), "perturbation \"rank\" must be a number");
    p.rank = static_cast<int>(rank->number);
  }
  const obs::JsonValue* factor = spec.get("factor");
  MHETA_CHECK_MSG(factor != nullptr && factor->is_number(),
                  "perturbation needs a \"factor\" number");
  MHETA_CHECK_MSG(factor->number > 0, "perturbation factor must be > 0");
  p.factor = factor->number;
  return p;
}

}  // namespace mheta::serve
