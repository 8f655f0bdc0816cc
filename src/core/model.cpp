#include "core/model.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <mutex>

#include "analysis/lint.hpp"
#include "core/walk.hpp"
#include "ooc/stage.hpp"
#include "util/check.hpp"
#include "util/lru.hpp"

namespace mheta::core {

CostTerms& CostTerms::operator+=(const CostTerms& o) {
  compute_s += o.compute_s;
  file_read_s += o.file_read_s;
  file_write_s += o.file_write_s;
  prefetch_wait_s += o.prefetch_wait_s;
  send_s += o.send_s;
  recv_wait_s += o.recv_wait_s;
  collective_s += o.collective_s;
  return *this;
}

const char* cost_term_name(int term) {
  switch (term) {
    case 0: return "compute";
    case 1: return "file_read";
    case 2: return "file_write";
    case 3: return "prefetch_wait";
    case 4: return "send";
    case 5: return "recv_wait";
    case 6: return "collective";
    default: return "?";
  }
}

double cost_term_value(const CostTerms& t, int term) {
  switch (term) {
    case 0: return t.compute_s;
    case 1: return t.file_read_s;
    case 2: return t.file_write_s;
    case 3: return t.prefetch_wait_s;
    case 4: return t.send_s;
    case 5: return t.recv_wait_s;
    case 6: return t.collective_s;
    default: return 0;
  }
}

CostTerms AttributedPrediction::node_total(int rank) const {
  CostTerms out;
  for (const auto& section : terms)
    out += section[static_cast<std::size_t>(rank)];
  return out;
}

int AttributedPrediction::critical_rank() const {
  int best = 0;
  for (std::size_t r = 1; r < prediction.node_end_s.size(); ++r)
    if (prediction.node_end_s[r] >
        prediction.node_end_s[static_cast<std::size_t>(best)])
      best = static_cast<int>(r);
  return best;
}

/// Memoized per-(memory, rows) plans, shared across Predictor copies and
/// threads (guarded by `mu`; plan_node is pure, so concurrent misses at
/// worst recompute the same immutable plan). A plan depends on the arrays,
/// the row count and the node's memory only, so ranks with equal memory
/// share entries.
struct Predictor::PlanCache {
  struct KeyHash {
    std::size_t operator()(
        const std::pair<std::int64_t, std::int64_t>& k) const {
      std::uint64_t h = 0x9E3779B97F4A7C15ull ^
                        static_cast<std::uint64_t>(k.first);
      h ^= static_cast<std::uint64_t>(k.second) + 0x9E3779B97F4A7C15ull +
           (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };

  explicit PlanCache(std::size_t capacity) : cache(capacity) {}

  std::mutex mu;
  util::LruCache<std::pair<std::int64_t, std::int64_t>,
                 std::shared_ptr<const ooc::NodePlan>, KeyHash>
      cache;
  std::uint64_t hits = 0;    // guarded by mu
  std::uint64_t misses = 0;  // guarded by mu
  // Resolved once at construction when a registry is installed; updates are
  // atomic on the metric itself.
  obs::Counter* hit_counter = nullptr;
  obs::Counter* miss_counter = nullptr;
};

Predictor::Predictor(ProgramStructure structure,
                     instrument::MhetaParams params,
                     std::vector<std::int64_t> memory_bytes,
                     ModelOptions options)
    : structure_(std::move(structure)),
      params_(std::move(params)),
      memory_bytes_(std::move(memory_bytes)),
      options_(options) {
  // Fail fast on inconsistent model inputs (rules MH001-MH015): a bad
  // triple used to surface as garbage predictions or out-of-range access
  // deep in evaluation. Warnings are allowed — predict() itself stays
  // check-free for speed.
  analysis::verify_model_inputs(structure_, params_, memory_bytes_,
                                "Predictor", options_.planner_overhead_bytes,
                                options_.max_blocks);
  intern_tables();
}

void Predictor::intern_tables() {
  const int n = params_.node_count();
  const auto& sections = structure_.sections;
  const auto& arrays = structure_.arrays;

  instrumented_counts_.resize(static_cast<std::size_t>(n));
  send_overhead_s_.resize(static_cast<std::size_t>(n));
  recv_overhead_s_.resize(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    const auto& node = params_.nodes[static_cast<std::size_t>(r)];
    instrumented_counts_[static_cast<std::size_t>(r)] =
        params_.instrumented_dist.count(r);
    send_overhead_s_[static_cast<std::size_t>(r)] = node.send_overhead_s;
    recv_overhead_s_[static_cast<std::size_t>(r)] = node.recv_overhead_s;
  }

  section_stage_offset_.clear();
  int total = 0;
  for (const auto& s : sections) {
    section_stage_offset_.push_back(total);
    total += static_cast<int>(s.stages.size());
  }
  total_stage_slots_ = total;

  // Resolve every stage's variable names to array indices once; a name
  // with no array is a malformed structure (the planner would fail on it
  // at first use anyway).
  stage_read_idx_.assign(static_cast<std::size_t>(total), {});
  stage_write_idx_.assign(static_cast<std::size_t>(total), {});
  auto array_index = [&](const std::string& name) {
    for (std::size_t ai = 0; ai < arrays.size(); ++ai)
      if (arrays[ai].name == name) return static_cast<int>(ai);
    MHETA_CHECK_MSG(false, "no plan for array " << name);
    return -1;  // unreachable
  };
  for (std::size_t si = 0; si < sections.size(); ++si) {
    for (std::size_t g = 0; g < sections[si].stages.size(); ++g) {
      const std::size_t flat =
          static_cast<std::size_t>(section_stage_offset_[si]) + g;
      for (const auto& name : sections[si].stages[g].read_vars)
        stage_read_idx_[flat].push_back(array_index(name));
      for (const auto& name : sections[si].stages[g].write_vars)
        stage_write_idx_[flat].push_back(array_index(name));
    }
  }

  // Dense (rank, section, stage) -> costs as struct-of-arrays, with
  // per-variable latencies re-addressed by array index in flat
  // [slot * arrays + ai] tables. Missing entries stay absent and fail at
  // use, exactly like the map lookups they replace.
  const std::size_t slots =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(total);
  stage_present_.assign(slots, 0);
  stage_compute_s_.assign(slots, 0.0);
  var_read_spb_.assign(slots * arrays.size(), 0.0);
  var_write_spb_.assign(slots * arrays.size(), 0.0);
  var_present_.assign(slots * arrays.size(), 0);
  for (int r = 0; r < n; ++r) {
    const auto& node = params_.nodes[static_cast<std::size_t>(r)];
    for (std::size_t si = 0; si < sections.size(); ++si) {
      for (std::size_t g = 0; g < sections[si].stages.size(); ++g) {
        const std::size_t slot =
            static_cast<std::size_t>(r) * static_cast<std::size_t>(total) +
            static_cast<std::size_t>(section_stage_offset_[si]) + g;
        const auto it = node.stages.find(
            {sections[si].id, sections[si].stages[g].id});
        if (it == node.stages.end()) continue;
        stage_present_[slot] = 1;
        stage_compute_s_[slot] = it->second.compute_s;
        for (std::size_t ai = 0; ai < arrays.size(); ++ai) {
          const auto vit = it->second.vars.find(arrays[ai].name);
          if (vit == it->second.vars.end()) continue;
          var_read_spb_[slot * arrays.size() + ai] = vit->second.read_s_per_byte;
          var_write_spb_[slot * arrays.size() + ai] =
              vit->second.write_s_per_byte;
          var_present_[slot * arrays.size() + ai] = 1;
        }
      }
    }
  }

  // Per-section communication, with transfer times precomputed and every
  // recv resolved to its FIFO-matched send slot.
  comm_interned_.assign(sections.size(), {});
  std::vector<int> peers;
  for (std::size_t si = 0; si < sections.size(); ++si) {
    auto& ic = comm_interned_[si];
    ic.sends.resize(static_cast<std::size_t>(n));
    ic.recvs.resize(static_cast<std::size_t>(n));
    ic.pipeline_transfer_s.assign(static_cast<std::size_t>(n), 0.0);
    for (int r = 0; r < n; ++r) {
      const auto& comm = params_.nodes[static_cast<std::size_t>(r)].comm;
      const auto it = comm.find(sections[si].id);
      // Boundary-message size for pipelined sections: prefer the bytes
      // observed during the instrumented run, else the structural
      // declaration.
      std::int64_t pipeline_bytes = sections[si].message_bytes;
      if (it != comm.end()) {
        for (const auto& m : it->second.sends)
          ic.sends[static_cast<std::size_t>(r)].push_back(
              {m.peer, params_.network.transfer_s(m.bytes)});
        if (!it->second.sends.empty())
          pipeline_bytes = it->second.sends.front().bytes;
      }
      ic.pipeline_transfer_s[static_cast<std::size_t>(r)] =
          params_.network.transfer_s(pipeline_bytes);
    }
    ic.number_sends();
    for (int r = 0; r < n && ic.matched; ++r) {
      const auto& comm = params_.nodes[static_cast<std::size_t>(r)].comm;
      const auto it = comm.find(sections[si].id);
      if (it == comm.end()) continue;
      peers.clear();
      for (const auto& m : it->second.recvs) peers.push_back(m.peer);
      ic.match_recvs(r, peers);
    }
  }

  // The flat row layout every clock reads stage times through.
  row_offset_.clear();
  row_span_.clear();
  row_len_ = 0;
  for (const auto& section : sections) {
    const int tiles =
        section.pattern == CommPattern::kPipeline ? section.tiles : 1;
    row_offset_.push_back(row_len_);
    row_span_.push_back(static_cast<std::size_t>(tiles) *
                        section.stages.size());
    row_len_ += row_span_.back();
  }

  if (options_.plan_cache_capacity > 0) {
    plan_cache_ = std::make_shared<PlanCache>(options_.plan_cache_capacity);
    if (options_.metrics != nullptr) {
      plan_cache_->hit_counter = &options_.metrics->counter(
          "predictor_plan_cache_hits_total",
          "ranks served a memoized per-(memory, rows) OOC plan: by the LRU, "
          "or by their key's plan built earlier in the same prediction");
      plan_cache_->miss_counter = &options_.metrics->counter(
          "predictor_plan_cache_misses_total",
          "per-(memory, rows) OOC plans built on an LRU miss");
    }
  }
}

void Predictor::InternedSectionComm::number_sends() {
  send_offset.resize(sends.size());
  int flat = 0;
  for (std::size_t r = 0; r < sends.size(); ++r) {
    send_offset[r] = flat;
    flat += static_cast<int>(sends[r].size());
  }
  total_sends = flat;
}

void Predictor::InternedSectionComm::match_recvs(int r,
                                                 const std::vector<int>& peers) {
  const int n = static_cast<int>(sends.size());
  std::vector<int> consumed(static_cast<std::size_t>(n), 0);
  for (const int peer : peers) {
    if (peer < 0 || peer >= n) {
      matched = false;
      return;
    }
    const auto& peer_sends = sends[static_cast<std::size_t>(peer)];
    int want = consumed[static_cast<std::size_t>(peer)]++;
    int slot = -1;
    for (std::size_t k = 0; k < peer_sends.size(); ++k) {
      if (peer_sends[k].peer == r && want-- == 0) {
        slot = send_offset[static_cast<std::size_t>(peer)] + static_cast<int>(k);
        break;
      }
    }
    if (slot < 0) {
      matched = false;
      return;
    }
    recvs[static_cast<std::size_t>(r)].push_back({peer, slot});
  }
}

Predictor::PlanCacheStats Predictor::plan_cache_stats() const {
  PlanCacheStats stats;
  if (plan_cache_) {
    std::lock_guard<std::mutex> lock(plan_cache_->mu);
    stats.hits = plan_cache_->hits;
    stats.misses = plan_cache_->misses;
  }
  return stats;
}

Predictor::StageCosts Predictor::interned_stage(int rank, int section_index,
                                                int stage_index) const {
  const std::size_t slot =
      static_cast<std::size_t>(rank) *
          static_cast<std::size_t>(total_stage_slots_) +
      static_cast<std::size_t>(
          section_stage_offset_[static_cast<std::size_t>(section_index)]) +
      static_cast<std::size_t>(stage_index);
  StageCosts out;
  out.present = stage_present_[slot] != 0;
  out.compute_s = stage_compute_s_[slot];
  const std::size_t base = slot * structure_.arrays.size();
  out.read_s_per_byte = var_read_spb_.data() + base;
  out.write_s_per_byte = var_write_spb_.data() + base;
  out.var_present = var_present_.data() + base;
  return out;
}

Predictor::PlanGroups Predictor::plans_for(const dist::GenBlock& d) const {
  const int n = d.nodes();

  // Group ranks by (memory, rows): an open-addressing table of group ids,
  // so grouping stays O(n) however many distinct keys a candidate has. A
  // group's key is read back from its first rank.
  std::size_t capacity = 16;
  int shift = 60;  // 64 - log2(capacity)
  while (capacity < 2 * static_cast<std::size_t>(n)) {
    capacity <<= 1;
    --shift;
  }
  static thread_local std::vector<int> table;
  static thread_local std::vector<int> group_of;  // per rank
  static thread_local std::vector<int> first;     // per group: first rank
  table.assign(capacity, -1);
  group_of.resize(static_cast<std::size_t>(n));
  first.clear();
  for (int r = 0; r < n; ++r) {
    const std::int64_t memory = memory_bytes_[static_cast<std::size_t>(r)];
    const std::int64_t rows = d.count(r);
    // Fibonacci hashing: the top bits of the scrambled key pick the slot.
    std::size_t h = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(PlanCache::KeyHash{}({memory, rows})) *
         0x9E3779B97F4A7C15ull) >>
        shift);
    int g = table[h];
    while (g >= 0) {
      const int f = first[static_cast<std::size_t>(g)];
      if (memory_bytes_[static_cast<std::size_t>(f)] == memory &&
          d.count(f) == rows)
        break;
      h = (h + 1) & (capacity - 1);
      g = table[h];
    }
    if (g < 0) {
      g = static_cast<int>(first.size());
      table[h] = g;
      first.push_back(r);
    }
    group_of[static_cast<std::size_t>(r)] = g;
  }

  // Members group by group, ranks ascending (a counting sort).
  PlanGroups out;
  out.groups.resize(first.size());
  for (std::size_t g = 0; g < first.size(); ++g)
    out.groups[g].rows = d.count(first[g]);
  for (const int g : group_of) ++out.groups[static_cast<std::size_t>(g)].end;
  int offset = 0;
  for (PlanGroup& g : out.groups) {
    g.begin = offset;
    offset += g.end;
    g.end = g.begin;  // the placement cursor until every rank is placed
  }
  out.members.resize(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    const int g = group_of[static_cast<std::size_t>(r)];
    PlanGroup& group = out.groups[static_cast<std::size_t>(g)];
    out.members[static_cast<std::size_t>(group.end++)] = r;
  }

  // One plan lookup per group, through its first rank; the group's other
  // ranks are served by that plan.
  for (PlanGroup& g : out.groups)
    g.plan = plan_for_rank(out.members[static_cast<std::size_t>(g.begin)],
                           g.rows,
                           static_cast<std::uint64_t>(g.end - g.begin - 1));
  return out;
}

std::shared_ptr<const ooc::NodePlan> Predictor::plan_for_rank(
    int rank, std::int64_t count, std::uint64_t sharers) const {
  // The model's memory plans: same planner as the runtime, but blind to the
  // runtime's buffer overhead (limitation 2).
  ooc::PlannerOptions popts;
  popts.overhead_bytes = options_.planner_overhead_bytes;
  popts.max_blocks = options_.max_blocks;
  const std::int64_t memory = memory_bytes_[static_cast<std::size_t>(rank)];
  if (!plan_cache_) {
    return std::make_shared<const ooc::NodePlan>(
        ooc::plan_node(structure_.arrays, count, memory, popts));
  }
  const std::pair<std::int64_t, std::int64_t> key{memory, count};
  {
    std::lock_guard<std::mutex> lock(plan_cache_->mu);
    if (auto* hit = plan_cache_->cache.get(key)) {
      plan_cache_->hits += 1 + sharers;
      if (plan_cache_->hit_counter != nullptr)
        plan_cache_->hit_counter->inc(1 + sharers);
      return *hit;
    }
  }
  // Plan outside the lock; plan_node is pure, so a concurrent miss on the
  // same key at worst recomputes the same immutable plan.
  auto plan = std::make_shared<const ooc::NodePlan>(
      ooc::plan_node(structure_.arrays, count, memory, popts));
  std::lock_guard<std::mutex> lock(plan_cache_->mu);
  ++plan_cache_->misses;
  plan_cache_->hits += sharers;
  if (plan_cache_->miss_counter != nullptr) plan_cache_->miss_counter->inc();
  if (plan_cache_->hit_counter != nullptr && sharers > 0)
    plan_cache_->hit_counter->inc(sharers);
  plan_cache_->cache.put(key, plan);
  return plan;
}

void Predictor::layout_stage(int flat_stage, const ooc::NodePlan& plan,
                             std::int64_t rows, ooc::StageIoLayout& io) const {
  // The model never forces I/O and, per limitation 2, its plan ignored the
  // runtime's buffer overhead.
  const auto& ridx = stage_read_idx_[static_cast<std::size_t>(flat_stage)];
  const auto& widx = stage_write_idx_[static_cast<std::size_t>(flat_stage)];
  ooc::stage_io_layout_into(io, plan, ridx.data(), ridx.size(), widx.data(),
                            widx.size(), 0, rows, /*force_io=*/false);
}

void Predictor::layout_section(int section_index, std::int64_t count,
                               const ooc::NodePlan& plan,
                               SectionLayouts& out) const {
  const SectionSpec& section =
      structure_.sections[static_cast<std::size_t>(section_index)];
  const std::int64_t tiles =
      section.pattern == CommPattern::kPipeline ? section.tiles : 1;
  // Tile j has (j+1)c/T - jc/T rows: floor(c/T) or, with a remainder,
  // one more.
  out.length[0] = count / tiles;
  out.length[1] = out.length[0] + (count % tiles != 0 ? 1 : 0);
  const std::size_t stages = section.stages.size();
  if (out.io.size() < 2 * stages) out.io.resize(2 * stages);
  for (std::size_t g = 0; g < stages; ++g) {
    const int flat = flat_stage_index(section_index, static_cast<int>(g));
    layout_stage(flat, plan, out.length[0], out.io[2 * g]);
    if (out.length[1] != out.length[0])
      layout_stage(flat, plan, out.length[1], out.io[2 * g + 1]);
  }
}

Predictor::NodeSectionTime Predictor::stage_time(
    int rank, const SectionSpec& section, const ooc::StageDef& stage,
    const StageCosts& ist, const ooc::StageIoLayout& io,
    const ooc::NodePlan& plan, double work_scale, CostTerms* terms) const {
  return terms != nullptr
             ? stage_time_impl<true>(rank, section, stage, ist, io, plan,
                                     work_scale, terms)
             : stage_time_impl<false>(rank, section, stage, ist, io, plan,
                                      work_scale, nullptr);
}

template <bool WithTerms>
Predictor::NodeSectionTime Predictor::stage_time_impl(
    int rank, const SectionSpec& section, const ooc::StageDef& stage,
    const StageCosts& ist, const ooc::StageIoLayout& io,
    const ooc::NodePlan& plan, double work_scale,
    [[maybe_unused]] CostTerms* terms) const {
  NodeSectionTime out;
  const std::int64_t range =
      std::max<std::int64_t>(0, io.end_row - io.begin_row);
  if (range == 0) return out;

  const auto& node = params_.nodes[static_cast<std::size_t>(rank)];
  MHETA_CHECK_MSG(ist.present,
                  "no instrumented costs for node " << rank << " section "
                                                    << section.id << " stage "
                                                    << stage.id);
  const std::int64_t w_instr =
      instrumented_counts_[static_cast<std::size_t>(rank)];
  MHETA_CHECK_MSG(w_instr > 0,
                  "instrumented run assigned no rows to node " << rank);

  // T_c' = T_c * W'/W, applied to the rows of this tile and scaled for
  // non-uniform iterations.
  const double tc = work_scale * ist.compute_s * static_cast<double>(range) /
                    static_cast<double>(w_instr);
  out.compute_s = tc;

  // I/O: mirror the runtime's blocked streaming (Eq. 1/2, evaluated
  // block-exactly) over the layout's blocks.
  //
  // An ArrayPlan's position in the plan equals its index in
  // ProgramStructure::arrays, which is how the interned SoA latency tables
  // are addressed — no string hashing in this loop.
  const std::size_t narrays = structure_.arrays.size();
  auto var_index = [&](const ooc::ArrayPlan* ap) -> std::size_t {
    const auto idx = static_cast<std::size_t>(ap - plan.arrays.data());
    MHETA_CHECK_MSG(idx < narrays && ist.var_present[idx],
                    "no measured latency for variable " << ap->name);
    return idx;
  };
  auto read_dur = [&](const ooc::ArrayPlan* ap, std::int64_t rows) {
    return node.read_seek_s + ist.read_s_per_byte[var_index(ap)] *
                                  static_cast<double>(rows * ap->row_bytes);
  };
  auto write_dur = [&](const ooc::ArrayPlan* ap, std::int64_t rows) {
    return node.write_seek_s + ist.write_s_per_byte[var_index(ap)] *
                                   static_cast<double>(rows * ap->row_bytes);
  };
  if (!stage.prefetch || io.streamed_reads.empty() || io.num_blocks <= 1) {
    // Synchronous streaming (Eq. 1): reads, compute and writes are strictly
    // sequential on one node, so the stage time is the plain sum.
    double io_s = 0;
    for (std::int64_t b = 0; b < io.num_blocks; ++b) {
      const auto [bb, be] = io.block_range(b);
      if (be <= bb) break;
      for (const auto* ap : io.streamed_reads) {
        const double dur = read_dur(ap, be - bb);
        io_s += dur;
        if constexpr (WithTerms) terms->file_read_s += dur;
      }
      for (const auto* ap : io.streamed_writes) {
        const double dur = write_dur(ap, be - bb);
        io_s += dur;
        if constexpr (WithTerms) terms->file_write_s += dur;
      }
    }
    if constexpr (WithTerms) terms->compute_s += tc;
    out.io_s = io_s;
    out.stage_s = tc + io_s;
    return out;
  }

  // Prefetching (Eq. 2): mirror the unrolled loop of Figure 6, including
  // the disk's request serialization. `disk` is the time the disk frees up.
  // For attribution every advance of `t` lands in exactly one term, so the
  // terms sum to stage_s bit-for-bit.
  const double tc_per_row = tc / static_cast<double>(range);
  double t = 0;
  double disk = 0;
  auto disk_op = [&](double dur) {
    const double start = std::max(t, disk);
    disk = start + dur;
    return disk;
  };
  {  // Read ICLA(1) synchronously.
    const auto [bb, be] = io.block_range(0);
    for (const auto* ap : io.streamed_reads) {
      const double before = t;
      t = disk_op(read_dur(ap, be - bb));
      if constexpr (WithTerms) terms->file_read_s += t - before;
    }
  }
  for (std::int64_t b = 1; b < io.num_blocks; ++b) {
    const auto [bb, be] = io.block_range(b);
    const auto [pb, pe] = io.block_range(b - 1);
    if (be <= bb) break;
    // Prefetch issues (asynchronous; disk serves them in order).
    double completion = t;
    for (const auto* ap : io.streamed_reads) {
      const double start = std::max(t, disk);
      disk = start + read_dur(ap, be - bb);
      completion = disk;
    }
    // Overlapped compute T_o, then the wait, then the write-back.
    const double compute_add = tc_per_row * static_cast<double>(pe - pb);
    t += compute_add;
    if constexpr (WithTerms) {
      terms->compute_s += compute_add;
      if (completion > t) terms->prefetch_wait_s += completion - t;
    }
    t = std::max(t, completion);
    for (const auto* ap : io.streamed_writes) {
      const double before = t;
      t = disk_op(write_dur(ap, pe - pb));
      if constexpr (WithTerms) terms->file_write_s += t - before;
    }
  }
  {  // Last block: compute and write back.
    const auto [bb, be] = io.block_range(io.num_blocks - 1);
    const double compute_add = tc_per_row * static_cast<double>(be - bb);
    t += compute_add;
    if constexpr (WithTerms) terms->compute_s += compute_add;
    for (const auto* ap : io.streamed_writes) {
      const double before = t;
      t = disk_op(write_dur(ap, be - bb));
      if constexpr (WithTerms) terms->file_write_s += t - before;
    }
  }
  out.stage_s = t;
  out.io_s = std::max(0.0, t - tc);
  return out;
}

void Predictor::build_rank_section(int rank, int section_index,
                                   std::int64_t count,
                                   const ooc::NodePlan& plan, double scale,
                                   double* stage_s, double* compute_s,
                                   double* io_s, CostTerms* terms,
                                   const SectionLayouts* layouts) const {
  const SectionSpec& section =
      structure_.sections[static_cast<std::size_t>(section_index)];
  if (layouts == nullptr) {
    static thread_local SectionLayouts local;
    layout_section(section_index, count, plan, local);
    layouts = &local;
  }
  const int tiles =
      section.pattern == CommPattern::kPipeline ? section.tiles : 1;
  const int stages = static_cast<int>(section.stages.size());
  // Stage-outer so the per-stage interned costs are resolved once, not per
  // tile; the [tile][stage] output indexing is unchanged.
  for (int g = 0; g < stages; ++g) {
    const ooc::StageDef& stage = section.stages[static_cast<std::size_t>(g)];
    const StageCosts ist = interned_stage(rank, section_index, g);
    // A stage time depends on the tile's length, not its offset, and the
    // tiles have at most two lengths: evaluate the first tile of each
    // length and copy it to the others.
    std::size_t first[2] = {SIZE_MAX, SIZE_MAX};
    for (int j = 0; j < tiles; ++j) {
      const std::int64_t begin = tiles == 1 ? 0 : j * count / tiles;
      const std::int64_t end = tiles == 1 ? count : (j + 1) * count / tiles;
      const int k = end - begin == layouts->length[0] ? 0 : 1;
      const std::size_t idx = static_cast<std::size_t>(j) *
                                  static_cast<std::size_t>(stages) +
                              static_cast<std::size_t>(g);
      const std::size_t src = first[k];
      if (src != SIZE_MAX) {
        stage_s[idx] = stage_s[src];
        compute_s[idx] = compute_s[src];
        io_s[idx] = io_s[src];
        if (terms != nullptr) terms[idx] = terms[src];
        continue;
      }
      first[k] = idx;
      CostTerms* slot_terms = nullptr;
      if (terms != nullptr) {
        terms[idx] = CostTerms{};
        slot_terms = terms + idx;
      }
      const NodeSectionTime st = stage_time(
          rank, section, stage, ist,
          layouts->io[2 * static_cast<std::size_t>(g) +
                      static_cast<std::size_t>(k)],
          plan, scale, slot_terms);
      stage_s[idx] = st.stage_s;
      compute_s[idx] = st.compute_s;
      io_s[idx] = st.io_s;
    }
  }
}

std::vector<Predictor::StageTableView> Predictor::stage_table_view() const {
  const int n = params_.node_count();
  const std::size_t narrays = structure_.arrays.size();
  std::vector<StageTableView> out;
  out.reserve(static_cast<std::size_t>(total_stage_slots_));
  for (std::size_t si = 0; si < structure_.sections.size(); ++si) {
    const auto& section = structure_.sections[si];
    for (std::size_t g = 0; g < section.stages.size(); ++g) {
      StageTableView v;
      v.section_id = section.id;
      v.stage_id = section.stages[g].id;
      const std::size_t flat =
          static_cast<std::size_t>(section_stage_offset_[si]) + g;
      bool first_compute = true;
      bool first_read = true;
      bool first_write = true;
      auto fold = [](bool& first, double& mn, double& mx, double value) {
        if (first) {
          mn = mx = value;
          first = false;
        } else {
          mn = std::min(mn, value);
          mx = std::max(mx, value);
        }
      };
      for (int r = 0; r < n; ++r) {
        const std::size_t slot =
            static_cast<std::size_t>(r) *
                static_cast<std::size_t>(total_stage_slots_) +
            flat;
        if (stage_present_[slot] == 0) continue;
        ++v.present_ranks;
        fold(first_compute, v.compute_s_min, v.compute_s_max,
             stage_compute_s_[slot]);
        for (int ai : stage_read_idx_[flat]) {
          const std::size_t vslot = slot * narrays + static_cast<std::size_t>(ai);
          if (var_present_[vslot] != 0)
            fold(first_read, v.read_spb_min, v.read_spb_max,
                 var_read_spb_[vslot]);
        }
        for (int ai : stage_write_idx_[flat]) {
          const std::size_t vslot = slot * narrays + static_cast<std::size_t>(ai);
          if (var_present_[vslot] != 0)
            fold(first_write, v.write_spb_min, v.write_spb_max,
                 var_write_spb_[vslot]);
        }
      }
      out.push_back(v);
    }
  }
  return out;
}

void Predictor::build_row(int rank, std::int64_t count, double* stage_s,
                          double* compute_s, double* io_s) const {
  const auto plan = plan_for_rank(rank, count);
  for (std::size_t si = 0; si < structure_.sections.size(); ++si) {
    const std::size_t off = row_offset_[si];
    build_rank_section(rank, static_cast<int>(si), count, *plan,
                       /*scale=*/1.0, stage_s + off, compute_s + off,
                       io_s + off, nullptr);
  }
}

Predictor::FullRows Predictor::full_rows(int n) const {
  const std::size_t stride = 3 * row_len_;
  FullRows out;
  out.data = std::make_unique_for_overwrite<double[]>(
      static_cast<std::size_t>(n) * stride);
  out.ptr.resize(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    out.ptr[static_cast<std::size_t>(r)] =
        out.data.get() + static_cast<std::size_t>(r) * stride;
  return out;
}

void Predictor::build_rows(const dist::GenBlock& d, const PlanGroups& plans,
                           double scale, double* rows,
                           std::vector<std::vector<CostTerms>>* terms) const {
  const std::size_t n = static_cast<std::size_t>(d.nodes());
  const std::size_t stride = 3 * row_len_;
  if (terms != nullptr) {
    terms->resize(structure_.sections.size());
    for (std::size_t si = 0; si < terms->size(); ++si)
      (*terms)[si].resize(n * row_span_[si]);
  }
  static thread_local SectionLayouts layouts;
  for (std::size_t si = 0; si < structure_.sections.size(); ++si) {
    // Lay the section out once per plan group, then fill its ranks;
    // build_rank_section writes every slot, so nothing needs clearing.
    for (const PlanGroup& g : plans.groups) {
      layout_section(static_cast<int>(si), g.rows, *g.plan, layouts);
      for (int m = g.begin; m < g.end; ++m) {
        const int r = plans.members[static_cast<std::size_t>(m)];
        double* row = rows + static_cast<std::size_t>(r) * stride + row_offset_[si];
        build_rank_section(
            r, static_cast<int>(si), g.rows, *g.plan, scale, row,
            row + row_len_, row + 2 * row_len_,
            terms != nullptr ? (*terms)[si].data() +
                                   static_cast<std::size_t>(r) * row_span_[si]
                             : nullptr,
            &layouts);
      }
    }
  }
}

Predictor::IterationAgg Predictor::iteration_agg(
    int n, const double* const* rows) const {
  IterationAgg agg;
  const std::size_t cs = row_len_;
  const std::size_t ios = 2 * row_len_;
  for (std::size_t si = 0; si < structure_.sections.size(); ++si) {
    const SectionSpec& section = structure_.sections[si];
    const std::size_t stages = section.stages.size();
    const std::size_t soff = row_offset_[si];
    const std::size_t tiles =
        section.pattern == CommPattern::kPipeline
            ? static_cast<std::size_t>(section.tiles)
            : 1;
    for (std::size_t j = 0; j < tiles; ++j) {
      for (int r = 0; r < n; ++r) {
        const double* row = rows[r] + soff + j * stages;
        for (std::size_t g = 0; g < stages; ++g) {
          agg.compute_s += row[cs + g];
          agg.io_s += row[ios + g];
        }
      }
    }
  }
  return agg;
}

Prediction Predictor::predict(const dist::GenBlock& d, int iterations) const {
  MHETA_CHECK(iterations >= 1);
  return predict_scaled(d, static_cast<std::size_t>(iterations), nullptr);
}

Prediction Predictor::predict_nonuniform(
    const dist::GenBlock& d, const std::vector<double>& iteration_scales) const {
  MHETA_CHECK(!iteration_scales.empty());
  return predict_scaled(d, iteration_scales.size(), iteration_scales.data());
}

Prediction Predictor::predict_scaled(const dist::GenBlock& d,
                                     std::size_t iterations,
                                     const double* scales) const {
  MHETA_CHECK(d.nodes() == params_.node_count());
  const int n = d.nodes();
  const auto plans = plans_for(d);
  const FullRows rows = full_rows(n);
  const std::function<void(double)> rebuild = [&](double scale) {
    build_rows(d, plans, scale, rows.data.get(), nullptr);
  };
  ClockState state;
  Prediction pred;
  ScalarClock clock(*this, n, rows.ptr.data(), state, pred, &rebuild);
  drive(clock, comm_interned_, iterations, scales);
  clock.finish();
  return pred;
}

Prediction Predictor::predict2d(const dist::Dist2D& d,
                                const dist::Dist2D& instrumented,
                                int iterations) const {
  const int n = d.grid().nodes();
  MHETA_CHECK(n == params_.node_count());
  MHETA_CHECK(instrumented.grid().nodes() == n);
  MHETA_CHECK(iterations >= 1);
  const auto& sections = structure_.sections;
  for (const auto& section : sections) {
    MHETA_CHECK_MSG(section.pattern != CommPattern::kPipeline,
                    "pipelined sections are 1-D only");
    MHETA_CHECK_MSG(!section.has_alltoall,
                    "total exchanges are 1-D only");
  }

  // Per-call rows: rank r's plan covers its tile, rows_p rows whose width
  // is the rank's column block (the same rounding the runtime applies), and
  // compute scales with the tile area relative to the instrumented tile.
  // Without pipelines every section is one tile, so the flat row layout is
  // the rank's stages section by section.
  ooc::PlannerOptions popts;
  popts.overhead_bytes = options_.planner_overhead_bytes;
  popts.max_blocks = options_.max_blocks;
  const FullRows rows = full_rows(n);
  ooc::StageIoLayout io;
  for (int r = 0; r < n; ++r) {
    std::vector<ooc::ArraySpec> rank_arrays = structure_.arrays;
    for (auto& a : rank_arrays) {
      a.row_bytes = static_cast<std::int64_t>(std::llround(
          static_cast<double>(a.row_bytes) * d.width_fraction(r)));
    }
    const ooc::NodePlan plan = ooc::plan_node(
        rank_arrays, d.rows(r), memory_bytes_[static_cast<std::size_t>(r)],
        popts);
    const double frac_instr = instrumented.width_fraction(r);
    MHETA_CHECK(frac_instr > 0);
    const double work_scale = d.width_fraction(r) / frac_instr;
    double* row =
        rows.data.get() + static_cast<std::size_t>(r) * 3 * row_len_;
    for (std::size_t si = 0; si < sections.size(); ++si) {
      for (std::size_t g = 0; g < sections[si].stages.size(); ++g) {
        layout_stage(flat_stage_index(static_cast<int>(si), static_cast<int>(g)),
                     plan, d.rows(r), io);
        const NodeSectionTime st = stage_time(
            r, sections[si], sections[si].stages[g],
            interned_stage(r, static_cast<int>(si), static_cast<int>(g)), io,
            plan, work_scale);
        const std::size_t q = row_offset_[si] + g;
        row[q] = st.stage_s;
        row[row_len_ + q] = st.compute_s;
        row[2 * row_len_ + q] = st.io_s;
      }
    }
  }

  // Per-call messages: the grid halos of the 2-D driver, sent north, south,
  // west, east and received in the same order.
  const auto& grid = d.grid();
  std::vector<InternedSectionComm> comm(sections.size());
  std::vector<int> peers;
  for (std::size_t si = 0; si < sections.size(); ++si) {
    const SectionSpec& section = sections[si];
    InternedSectionComm& ic = comm[si];
    ic.sends.resize(static_cast<std::size_t>(n));
    ic.recvs.resize(static_cast<std::size_t>(n));
    if (section.pattern == CommPattern::kNearestNeighbor) {
      for (int r = 0; r < n; ++r) {
        const int p = grid.row_of(r);
        const int q = grid.col_of(r);
        // North-south halos carry a row of the rank's column block,
        // east-west halos one element column of its rows.
        const double ns = params_.network.transfer_s(
            static_cast<std::int64_t>(std::llround(
                static_cast<double>(section.message_bytes) *
                d.width_fraction(r))));
        double ew = 0;
        if (grid.q > 1) {
          MHETA_CHECK(d.total_cols() > 0);
          MHETA_CHECK(section.message_bytes % d.total_cols() == 0);
          ew = params_.network.transfer_s(
              d.rows(r) * (section.message_bytes / d.total_cols()));
        }
        auto& sends = ic.sends[static_cast<std::size_t>(r)];
        if (p > 0) sends.push_back({grid.rank_of(p - 1, q), ns});
        if (p + 1 < grid.p) sends.push_back({grid.rank_of(p + 1, q), ns});
        if (q > 0) sends.push_back({grid.rank_of(p, q - 1), ew});
        if (q + 1 < grid.q) sends.push_back({grid.rank_of(p, q + 1), ew});
      }
    }
    ic.number_sends();
    for (int r = 0; r < n; ++r) {
      peers.clear();
      for (const InternedSend& s : ic.sends[static_cast<std::size_t>(r)])
        peers.push_back(s.peer);
      ic.match_recvs(r, peers);
    }
  }

  ClockState state;
  Prediction pred;
  ScalarClock clock(*this, n, rows.ptr.data(), state, pred);
  drive(clock, comm, static_cast<std::size_t>(iterations), nullptr);
  clock.finish();
  return pred;
}

}  // namespace mheta::core
