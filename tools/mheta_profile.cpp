// mheta-profile: one-command observability for a (workload, architecture,
// distribution) triple.
//
// Runs the model and the simulator on the same triple and writes every
// artifact of the observability stack into --out:
//   trace.json        Perfetto/Chrome trace of the simulated run
//   gantt.txt         ASCII Gantt chart of the same timeline
//   attribution.txt   predicted vs. actual per cost term, per node
//   attribution.json  the same decomposition, machine-readable
//   convergence.csv   per-evaluation best-cost series (with --search)
//   critical_path.txt/.json  causal blame + what-if sensitivity
//                     (with --critical-path)
//   critical_path_trace.json Perfetto counter tracks of the same
//   incumbent_blame.json     blame of the search's best distribution
//                     (with --critical-path and --search)
//   metrics.json      metrics snapshot (plan cache hit rate, utilizations, ...)
//   metrics.prom      the same snapshot, Prometheus text format
//
// Usage: mheta-profile [options] <input>
//   <input>            structure file (*.mheta) or a built-in app name:
//                      jacobi | jacobi-pf | cg | lanczos | rna | multigrid
//                      | isort
//   --arch NAME        Table-1 architecture (default HY1)
//   --dist KIND        even (default, alias blk) | bal | ic | icbal
//   --out DIR          output directory (required; created if missing)
//   --iterations N     override the workload's iteration count
//   --search ALGO      also search for a distribution, recording
//                      convergence: tabu | gbs | anneal | genetic | random
//                      | hill
//   --seed N           search RNG seed (default 42)
//   --critical-path    trace the clock sweep: blame report (per-node,
//                      per-stage, per-term critical-path residency) and
//                      what-if sensitivity (makespan delta per parameter)
//   --epsilon E        what-if shrink factor 1-E (default 0.1)
//   --json             print the attribution report as JSON instead of text
//   --help             this text
//
// Exit status: 0 on success, 2 on usage or file problems.
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "cluster/suite.hpp"
#include "core/structure_io.hpp"
#include "exp/experiment.hpp"
#include "obs/profile.hpp"
#include "obs/registry.hpp"
#include "util/cli.hpp"

using namespace mheta;
namespace cli = mheta::util::cli;

namespace {

constexpr const char* kTool = "mheta-profile";

void print_usage(std::ostream& os) {
  os << "usage: mheta-profile [--arch NAME] [--dist even|blk|bal|ic|icbal]\n"
        "                     [--iterations N] [--search ALGO] [--seed N]\n"
        "                     [--critical-path] [--epsilon E] [--json]\n"
        "                     --out DIR <structure-file-or-app>\n"
        "apps: jacobi jacobi-pf cg lanczos rna multigrid isort\n"
        "search: tabu gbs anneal genetic random hill\n";
  cli::print_exit_status(os, /*with_input_errors=*/false);
}

std::optional<exp::Workload> load_input(const std::string& input) {
  if (auto w = exp::workload_by_name(input)) return w;
  std::ifstream file(input);
  if (!file) {
    std::cerr << kTool << ": cannot open '" << input << "'\n";
    return std::nullopt;
  }
  exp::Workload w;
  w.program = core::load_structure(file);
  w.name = w.program.name.empty() ? input : w.program.name;
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string out_dir;
  bool json = false;
  obs::ProfileOptions opts;

  cli::ArgCursor args(argc, argv, kTool);
  std::string arg;
  while (args.next(arg)) {
    const auto next = [&]() -> std::string {
      const auto v = args.value(arg);
      if (!v) std::exit(cli::kExitUsage);
      return *v;
    };
    if (auto code = cli::handle_common_flag(arg, kTool, print_usage))
      return *code;
    if (arg == "--arch") {
      opts.arch = next();
    } else if (arg == "--dist") {
      opts.dist = next();
    } else if (arg == "--out") {
      out_dir = next();
    } else if (arg == "--iterations") {
      opts.iterations = std::atoi(next().c_str());
    } else if (arg == "--search") {
      opts.search = next();
    } else if (arg == "--seed") {
      opts.seed = static_cast<std::uint64_t>(std::atoll(next().c_str()));
    } else if (arg == "--critical-path") {
      opts.critical_path = true;
    } else if (arg == "--epsilon") {
      opts.sensitivity_epsilon = std::atof(next().c_str());
    } else if (arg == "--json") {
      json = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return cli::unknown_option(kTool, arg, print_usage);
    } else if (input.empty()) {
      input = arg;
    } else {
      std::cerr << kTool << ": one input at a time (got '" << input
                << "' and '" << arg << "')\n";
      return cli::kExitUsage;
    }
  }
  if (input.empty() || out_dir.empty()) {
    print_usage(std::cerr);
    return cli::kExitUsage;
  }

  const auto workload = load_input(input);
  if (!workload) return cli::kExitUsage;

  try {
    obs::MetricsRegistry registry;
    const obs::ProfileResult result =
        obs::run_profile(*workload, opts, registry, out_dir);

    if (json) {
      obs::write_attribution_json(std::cout, result.report);
    } else {
      obs::write_attribution_text(std::cout, result.report);
      std::cout << "\nplan cache hit rate " << result.plan_cache_hit_rate
                << "   network utilization " << result.network_utilization
                << '\n';
      if (result.searched) {
        std::cout << "search (" << result.search_algorithm << "): best "
                  << result.search_best_s << " s after "
                  << result.search_evaluations << " evaluations\n";
        const core::DeltaStats& ds = result.delta;
        std::cout << "delta eval: " << ds.evaluations << " incremental, "
                  << ds.full_fallbacks << " full fallbacks, "
                  << ds.rows_reused << " rows reused / " << ds.rows_computed
                  << " computed, " << ds.crosschecks
                  << " cross-checks, max drift " << ds.max_drift_s << " s\n";
        const core::LaneStats& ls = result.lanes;
        std::cout << "lane eval: " << ls.lane_evaluations << " in "
                  << ls.batched_sweeps << " batched sweeps (fill "
                  << ls.fill_rate() << "), " << ls.scalar_evaluations
                  << " scalar, " << ls.crosschecks << " cross-checks, max "
                  << "drift " << ls.max_drift_s << " s, "
                  << ls.fallback_latches << " fallback latches\n";
      }
      if (result.critical) {
        std::cout << '\n';
        obs::write_blame_text(std::cout, result.blame);
        obs::write_sensitivity_text(std::cout, result.sensitivity);
        if (result.has_incumbent)
          std::cout << "incumbent: best " << result.incumbent_best_s
                    << " s after " << result.incumbent_observed
                    << " observations (" << result.incumbent_improvements
                    << " improvements); blame in incumbent_blame.json\n";
      }
      std::cout << "wrote:\n";
      for (const auto& f : result.files) std::cout << "  " << f << '\n';
    }
  } catch (const std::exception& e) {
    std::cerr << kTool << ": " << e.what() << '\n';
    return cli::kExitUsage;
  }
  return cli::kExitOk;
}
