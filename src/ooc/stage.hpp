// Stage definitions and the shared stage-I/O layout.
//
// StageDef describes what a stage does; stage_io_layout() computes how its
// out-of-core I/O is blocked for a node. The layout function is shared by
// the simulator runtime and the MHETA model so that the model's equations
// and the runtime's loops agree on NR(v), ICLA boundaries and block ranges
// by construction.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ooc/array.hpp"
#include "ooc/planner.hpp"

namespace mheta::ooc {

/// Per-row compute weight: seconds of baseline work for a global row index.
/// The default (uniform) weight is work_per_row_s; CG installs a sparse
/// nnz-dependent weight here, which MHETA cannot see (limitation 3, §5.4).
using RowWorkFn = std::function<double(std::int64_t global_row)>;

/// One stage of a tile (paper §3.1): computation plus the I/O it needs.
struct StageDef {
  int id = 0;

  /// Baseline seconds of computation per local row.
  double work_per_row_s = 0.0;

  /// Optional non-uniform per-row work; overrides work_per_row_s.
  RowWorkFn row_work;

  /// Distributed arrays streamed in (read) during the stage.
  std::vector<std::string> read_vars;

  /// Distributed arrays written back during the stage.
  std::vector<std::string> write_vars;

  /// Use the unrolled prefetch loop for out-of-core reads (Figure 6).
  bool prefetch = false;
};

/// How a stage's I/O is blocked over a row range on one node.
struct StageIoLayout {
  std::vector<const ArrayPlan*> streamed_reads;
  std::vector<const ArrayPlan*> streamed_writes;
  std::int64_t begin_row = 0;
  std::int64_t end_row = 0;
  std::int64_t num_blocks = 1;
  std::int64_t rows_per_block = 0;

  /// Row range [begin, end) of block b.
  std::pair<std::int64_t, std::int64_t> block_range(std::int64_t b) const {
    const std::int64_t begin = begin_row + b * rows_per_block;
    const std::int64_t end = std::min(end_row, begin + rows_per_block);
    return {begin, end};
  }
};

/// Computes the blocking of `stage` over local rows [begin_row, end_row).
/// With `force_io` (the instrumented iteration) every variable is streamed
/// through disk, even in-core ones. Resolves the stage's variable names
/// through NodePlan::array and delegates to stage_io_layout_into, the one
/// blocking implementation.
StageIoLayout stage_io_layout(const NodePlan& plan, const StageDef& stage,
                              std::int64_t begin_row, std::int64_t end_row,
                              bool force_io);

/// Index-based form for hot callers (the model): `read_idx` / `write_idx`
/// are positions in `plan.arrays` (resolved from the stage's variable names
/// once, outside the loop), and `io`'s vectors are reused instead of
/// reallocated.
void stage_io_layout_into(StageIoLayout& io, const NodePlan& plan,
                          const int* read_idx, std::size_t num_reads,
                          const int* write_idx, std::size_t num_writes,
                          std::int64_t begin_row, std::int64_t end_row,
                          bool force_io);

}  // namespace mheta::ooc
