#include "ooc/stage.hpp"

#include <algorithm>

namespace mheta::ooc {

StageIoLayout stage_io_layout(const NodePlan& plan, const StageDef& stage,
                              std::int64_t begin_row, std::int64_t end_row,
                              bool force_io) {
  // Resolve names to positions in the plan (NodePlan::array rejects a name
  // with no plan), then share the one blocking implementation.
  auto positions = [&](const std::vector<std::string>& names) {
    std::vector<int> idx;
    idx.reserve(names.size());
    for (const auto& name : names)
      idx.push_back(static_cast<int>(&plan.array(name) - plan.arrays.data()));
    return idx;
  };
  const std::vector<int> reads = positions(stage.read_vars);
  const std::vector<int> writes = positions(stage.write_vars);
  StageIoLayout io;
  stage_io_layout_into(io, plan, reads.data(), reads.size(), writes.data(),
                       writes.size(), begin_row, end_row, force_io);
  return io;
}

void stage_io_layout_into(StageIoLayout& io, const NodePlan& plan,
                          const int* read_idx, std::size_t num_reads,
                          const int* write_idx, std::size_t num_writes,
                          std::int64_t begin_row, std::int64_t end_row,
                          bool force_io) {
  io.streamed_reads.clear();
  io.streamed_writes.clear();
  io.begin_row = begin_row;
  io.end_row = end_row;
  const std::int64_t range = std::max<std::int64_t>(0, end_row - begin_row);
  auto streamed = [&](const ArrayPlan& ap) {
    return ap.out_of_core || force_io;
  };
  for (std::size_t i = 0; i < num_reads; ++i) {
    const ArrayPlan& ap = plan.arrays[static_cast<std::size_t>(read_idx[i])];
    if (streamed(ap)) io.streamed_reads.push_back(&ap);
  }
  for (std::size_t i = 0; i < num_writes; ++i) {
    const ArrayPlan& ap = plan.arrays[static_cast<std::size_t>(write_idx[i])];
    if (streamed(ap)) io.streamed_writes.push_back(&ap);
  }
  std::int64_t nb = 1;
  auto blocks_for = [&](const ArrayPlan* ap) {
    if (!ap->out_of_core || ap->icla_rows <= 0) return std::int64_t{1};
    return (range + ap->icla_rows - 1) / ap->icla_rows;
  };
  for (const ArrayPlan* ap : io.streamed_reads) nb = std::max(nb, blocks_for(ap));
  for (const ArrayPlan* ap : io.streamed_writes)
    nb = std::max(nb, blocks_for(ap));
  io.num_blocks =
      std::max<std::int64_t>(1, std::min(nb, std::max<std::int64_t>(1, range)));
  io.rows_per_block =
      range == 0 ? 0 : (range + io.num_blocks - 1) / io.num_blocks;
}

}  // namespace mheta::ooc
