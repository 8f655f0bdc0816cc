#include "apps/driver2d.hpp"

#include <algorithm>
#include <cmath>

#include "ooc/runtime.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "util/check.hpp"

namespace mheta::apps {

std::int64_t ns_halo_bytes(const core::SectionSpec& section,
                           const dist::Dist2D& d, int rank) {
  // A full halo row is section.message_bytes; this rank holds its column
  // block's share of it (the same rounding the runtime uses for row bytes).
  return static_cast<std::int64_t>(
      std::llround(static_cast<double>(section.message_bytes) *
                   d.width_fraction(rank)));
}

std::int64_t ew_halo_bytes(const core::SectionSpec& section,
                           const dist::Dist2D& d, int rank) {
  // One element column: rows * elem_bytes, where the element size follows
  // from the full-row message size over the global columns.
  MHETA_CHECK(d.total_cols() > 0);
  MHETA_CHECK_MSG(section.message_bytes % d.total_cols() == 0,
                  "2-D sections need message_bytes divisible by the columns");
  const std::int64_t elem_bytes = section.message_bytes / d.total_cols();
  return d.rows(rank) * elem_bytes;
}

namespace {

int section_tag(int section_id) { return 100 + section_id; }

sim::Process rank_iterations_2d(mpi::World& w, ooc::OocRuntime& rt,
                                const core::ProgramStructure& program,
                                const dist::Dist2D& d, int rank,
                                int iterations,
                                std::vector<sim::Time>& ends) {
  const auto& grid = d.grid();
  const int p = grid.row_of(rank);
  const int q = grid.col_of(rank);
  const double frac = d.width_fraction(rank);
  // Grid neighbors in a fixed order: north, south, west, east.
  struct Peer {
    int rank;
    bool ns;
  };
  std::vector<Peer> peers;
  if (p > 0) peers.push_back({grid.rank_of(p - 1, q), true});
  if (p + 1 < grid.p) peers.push_back({grid.rank_of(p + 1, q), true});
  if (q > 0) peers.push_back({grid.rank_of(p, q - 1), false});
  if (q + 1 < grid.q) peers.push_back({grid.rank_of(p, q + 1), false});

  for (int it = 0; it < iterations; ++it) {
    for (const auto& section : program.sections) {
      MHETA_CHECK_MSG(section.pattern != core::CommPattern::kPipeline,
                      "pipelined sections are 1-D only");
      MHETA_CHECK_MSG(!section.has_alltoall, "total exchanges are 1-D only");
      w.section_begin(rank, section.id);
      for (const auto& stage : section.stages) {
        co_await rt.run_stage(rank, stage, frac);
      }
      if (section.pattern == core::CommPattern::kNearestNeighbor) {
        for (const auto& peer : peers) {
          const std::int64_t bytes = peer.ns ? ns_halo_bytes(section, d, rank)
                                             : ew_halo_bytes(section, d, rank);
          co_await w.send(rank, peer.rank, bytes, section_tag(section.id));
        }
        for (const auto& peer : peers) {
          (void)co_await w.recv(rank, peer.rank, section_tag(section.id));
        }
      }
      if (section.has_reduction) {
        (void)co_await w.allreduce(rank, 1.0);
      }
      w.section_end(rank, section.id);
    }
  }
  ends[static_cast<std::size_t>(rank)] = w.engine().now();
}

sim::Process rank_load_2d(ooc::OocRuntime& rt, int rank) {
  co_await rt.load_arrays(rank);
}

}  // namespace

RunResult run_program_2d(const cluster::ClusterConfig& config,
                         const cluster::SimEffects& effects,
                         const core::ProgramStructure& program,
                         const dist::Dist2D& d, RunOptions opts) {
  MHETA_CHECK(d.grid().nodes() == config.size());
  MHETA_CHECK(opts.iterations >= 1);
  sim::Engine eng;
  mpi::World world(eng, config, effects);
  world.set_blocking_prefetch(opts.blocking_prefetch);
  if (opts.setup) opts.setup(world);

  // Per-rank row counts and width fractions derived from the 2-D layout.
  std::vector<std::int64_t> rank_rows;
  opts.runtime.width_fractions.clear();
  for (int r = 0; r < config.size(); ++r) {
    rank_rows.push_back(d.rows(r));
    opts.runtime.width_fractions.push_back(d.width_fraction(r));
  }
  ooc::OocRuntime rt(world, program.arrays, dist::GenBlock(rank_rows),
                     opts.runtime);

  for (int r = 0; r < config.size(); ++r) eng.spawn(rank_load_2d(rt, r));
  eng.run();

  const sim::Time start = eng.now();
  std::vector<sim::Time> ends(static_cast<std::size_t>(config.size()), start);
  for (int r = 0; r < config.size(); ++r) {
    eng.spawn(
        rank_iterations_2d(world, rt, program, d, r, opts.iterations, ends));
  }
  eng.run();

  RunResult result;
  result.node_seconds.reserve(ends.size());
  sim::Time max_end = start;
  for (sim::Time e : ends) {
    result.node_seconds.push_back(sim::to_seconds(e - start));
    max_end = std::max(max_end, e);
  }
  result.seconds = sim::to_seconds(max_end - start);
  result.events = eng.events_processed();
  return result;
}

}  // namespace mheta::apps
