// Generic application driver for two-dimensional distributions (extension).
//
// Nodes form a P x Q grid (dist::Dist2D); each rank owns a rows_p x cols_q
// tile of every array. Stages stream the tile's rows (whose width is the
// rank's column block); nearest-neighbor sections exchange row halos with
// the north/south grid neighbors and column halos with east/west.
// Pipelined sections and total exchanges are 1-D concepts and are rejected
// here.
#pragma once

#include "apps/driver.hpp"
#include "dist/dist2d.hpp"

namespace mheta::apps {

/// Runs `opts.iterations` iterations of `program` under the 2-D
/// distribution `d`. `opts.runtime.width_fractions` is filled in from `d`.
RunResult run_program_2d(const cluster::ClusterConfig& config,
                         const cluster::SimEffects& effects,
                         const core::ProgramStructure& program,
                         const dist::Dist2D& d, RunOptions opts);

/// North/south halo bytes for a rank (its width share of a full halo row).
std::int64_t ns_halo_bytes(const core::SectionSpec& section,
                           const dist::Dist2D& d, int rank);

/// East/west halo bytes for a rank (its rows times the element size).
std::int64_t ew_halo_bytes(const core::SectionSpec& section,
                           const dist::Dist2D& d, int rank);

}  // namespace mheta::apps
