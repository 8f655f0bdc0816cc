#include "core/model.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>

#include "analysis/lint.hpp"
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
  for (std::size_t si = 0; si < sections.size(); ++si) {
    auto& ic = comm_interned_[si];
    ic.sends.resize(static_cast<std::size_t>(n));
    ic.recvs.resize(static_cast<std::size_t>(n));
    ic.send_offset.resize(static_cast<std::size_t>(n));
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
    int flat = 0;
    for (int r = 0; r < n; ++r) {
      ic.send_offset[static_cast<std::size_t>(r)] = flat;
      flat += static_cast<int>(ic.sends[static_cast<std::size_t>(r)].size());
    }
    ic.total_sends = flat;
    for (int r = 0; r < n && ic.matched; ++r) {
      const auto& comm = params_.nodes[static_cast<std::size_t>(r)].comm;
      const auto it = comm.find(sections[si].id);
      if (it == comm.end()) continue;
      std::vector<int> consumed(static_cast<std::size_t>(n), 0);
      for (const auto& m : it->second.recvs) {
        if (m.peer < 0 || m.peer >= n) {
          ic.matched = false;
          break;
        }
        const auto& peer_sends = ic.sends[static_cast<std::size_t>(m.peer)];
        int want = consumed[static_cast<std::size_t>(m.peer)]++;
        int slot = -1;
        for (std::size_t k = 0; k < peer_sends.size(); ++k) {
          if (peer_sends[k].peer == r && want-- == 0) {
            slot = ic.send_offset[static_cast<std::size_t>(m.peer)] +
                   static_cast<int>(k);
            break;
          }
        }
        if (slot < 0) {
          ic.matched = false;
          break;
        }
        ic.recvs[static_cast<std::size_t>(r)].push_back({m.peer, slot});
      }
    }
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

void Predictor::build_iteration_cache(const dist::GenBlock& d,
                                      const PlanGroups& plans, double scale,
                                      IterationCache& cache,
                                      bool with_terms) const {
  const std::size_t n = static_cast<std::size_t>(d.nodes());
  const auto& sections = structure_.sections;
  cache.sections.resize(sections.size());
  if (with_terms) cache.terms.resize(sections.size());
  static thread_local SectionLayouts layouts;
  for (std::size_t si = 0; si < sections.size(); ++si) {
    const SectionSpec& section = sections[si];
    const int tiles =
        section.pattern == CommPattern::kPipeline ? section.tiles : 1;
    const std::size_t per_rank = static_cast<std::size_t>(tiles) *
                                 section.stages.size();
    // build_rank_section writes every slot, so nothing needs clearing.
    auto& slot = cache.sections[si];
    slot.stage_s.resize(n * per_rank);
    slot.compute_s.resize(n * per_rank);
    slot.io_s.resize(n * per_rank);
    if (with_terms) cache.terms[si].resize(n * per_rank);
    // Lay the section out once per plan group, then fill its ranks.
    for (const PlanGroup& g : plans.groups) {
      layout_section(static_cast<int>(si), g.rows, *g.plan, layouts);
      for (int m = g.begin; m < g.end; ++m) {
        const int r = plans.members[static_cast<std::size_t>(m)];
        const std::size_t seg = static_cast<std::size_t>(r) * per_rank;
        build_rank_section(
            r, static_cast<int>(si), g.rows, *g.plan, scale,
            slot.stage_s.data() + seg, slot.compute_s.data() + seg,
            slot.io_s.data() + seg,
            with_terms ? cache.terms[si].data() + seg : nullptr, &layouts);
      }
    }
  }
  cache.scale = scale;
  cache.valid = true;
}

Predictor::IterationAgg Predictor::iteration_agg(
    int n, const IterationCache& cache) const {
  IterationAgg agg;
  const std::size_t nr = static_cast<std::size_t>(n);
  for (std::size_t si = 0; si < structure_.sections.size(); ++si) {
    const SectionSpec& section = structure_.sections[si];
    const std::size_t stages = section.stages.size();
    const double* cs = cache.sections[si].compute_s.data();
    const double* ios = cache.sections[si].io_s.data();
    if (section.pattern == CommPattern::kPipeline) {
      const std::size_t tiles = static_cast<std::size_t>(section.tiles);
      for (std::size_t j = 0; j < tiles; ++j) {
        for (std::size_t r = 0; r < nr; ++r) {
          const std::size_t base = (r * tiles + j) * stages;
          for (std::size_t g = 0; g < stages; ++g) {
            agg.compute_s += cs[base + g];
            agg.io_s += ios[base + g];
          }
        }
      }
    } else {
      for (std::size_t i = 0; i < nr * stages; ++i) {
        agg.compute_s += cs[i];
        agg.io_s += ios[i];
      }
    }
  }
  return agg;
}

void Predictor::apply_section(int section_index, const IterationCache& cache,
                              std::vector<double>& t,
                              std::vector<double>& arrivals,
                              Attribution* attr, std::vector<double>* coll_a,
                              std::vector<double>* coll_b) const {
  const SectionSpec& section =
      structure_.sections[static_cast<std::size_t>(section_index)];
  const int n = static_cast<int>(t.size());
  const auto& st = cache.sections[static_cast<std::size_t>(section_index)];
  const int stages = static_cast<int>(section.stages.size());
  const auto& ic = comm_interned_[static_cast<std::size_t>(section_index)];

  // Attribution sinks (attributed runs only; the hot path passes nullptr).
  // `at[r]` accumulates this section's terms for rank r; `ct` mirrors `st`
  // slot-for-slot with each stage's cost split.
  CostTerms* at = nullptr;
  const CostTerms* ct = nullptr;
  if (attr != nullptr) {
    at = attr->terms[static_cast<std::size_t>(section_index)].data();
    ct = cache.terms[static_cast<std::size_t>(section_index)].data();
  }

  if (section.pattern == CommPattern::kPipeline) {
    // Eq. 4 generalized to an n-node chain: tile j of node i starts after
    // its own tile j-1 and after node i-1's tile-j boundary arrives. Those
    // two values are all it reads, so the chain runs rank-outer: rank r
    // consumes arrivals[j] from rank r-1 and then overwrites it with its
    // own tile-j arrival for rank r+1. Each rank performs the same
    // operations on the same operands as in tile order, but consecutive
    // ranks' chains can overlap instead of forming one n * tiles chain.
    // Every slot is written (by rank r-1) before rank r reads it, so the
    // scratch needs no clearing between sections.
    const std::size_t tiles = static_cast<std::size_t>(section.tiles);
    if (arrivals.size() < tiles) arrivals.resize(tiles);
    const std::size_t row = tiles * static_cast<std::size_t>(stages);
    for (int r = 0; r < n; ++r) {
      double tr = t[static_cast<std::size_t>(r)];
      const double orr = o_r(r);
      const double os = o_s(r);
      const double wire = ic.pipeline_transfer_s[static_cast<std::size_t>(r)];
      const std::size_t rank_base = static_cast<std::size_t>(r) * row;
      for (std::size_t j = 0; j < tiles; ++j) {
        if (r > 0) {
          const double before = tr;
          tr = std::max(tr, arrivals[j]) + orr;
          if (at != nullptr) at[r].recv_wait_s += tr - before;
        }
        const std::size_t base_idx =
            rank_base + j * static_cast<std::size_t>(stages);
        const double* ss = st.stage_s.data() + base_idx;
        for (int g = 0; g < stages; ++g) {
          tr += ss[g];
          if (at != nullptr) at[r] += ct[base_idx + static_cast<std::size_t>(g)];
        }
        if (r < n - 1) {
          tr += os;
          if (at != nullptr) at[r].send_s += os;
          arrivals[j] = tr + wire;
        }
      }
      t[static_cast<std::size_t>(r)] = tr;
    }
  } else {
    // Stages over the whole local array; each rank's segment is a
    // contiguous run of doubles.
    for (int r = 0; r < n; ++r) {
      auto& tr = t[static_cast<std::size_t>(r)];
      const std::size_t base_idx =
          static_cast<std::size_t>(r) * static_cast<std::size_t>(stages);
      const double* ss = st.stage_s.data() + base_idx;
      for (int g = 0; g < stages; ++g) {
        tr += ss[g];
        if (at != nullptr) at[r] += ct[base_idx + static_cast<std::size_t>(g)];
      }
    }
    if (section.pattern == CommPattern::kNearestNeighbor) {
      // Eq. 3 generalized: every node performs its recorded sends, then
      // blocks on its recorded receives. The FIFO matching per (src, dst)
      // pair was resolved at construction, so this is two flat passes.
      MHETA_CHECK_MSG(ic.matched, "recv without matching send in model");
      if (static_cast<int>(arrivals.size()) < ic.total_sends)
        arrivals.resize(static_cast<std::size_t>(ic.total_sends));
      for (int r = 0; r < n; ++r) {
        auto& tr = t[static_cast<std::size_t>(r)];
        const auto& sends = ic.sends[static_cast<std::size_t>(r)];
        const int base = ic.send_offset[static_cast<std::size_t>(r)];
        for (std::size_t k = 0; k < sends.size(); ++k) {
          tr += o_s(r);
          if (at != nullptr) at[r].send_s += o_s(r);
          arrivals[static_cast<std::size_t>(base) + k] =
              tr + sends[k].transfer_s;
        }
      }
      for (int r = 0; r < n; ++r) {
        auto& tr = t[static_cast<std::size_t>(r)];
        for (const auto& rv : ic.recvs[static_cast<std::size_t>(r)]) {
          const double before = tr;
          tr = std::max(tr, arrivals[static_cast<std::size_t>(rv.send_slot)]) +
               o_r(r);
          if (at != nullptr) at[r].recv_wait_s += tr - before;
        }
      }
    }
  }

  if (section.has_alltoall || section.has_reduction) {
    // Collectives advance every clock internally; attribute each node's net
    // advance through the tree/ring as one collective term.
    std::vector<double> before;
    if (at != nullptr) before = t;
    if (section.has_alltoall)
      apply_alltoall(section.alltoall_bytes_per_pair, t, coll_a);
    if (section.has_reduction)
      apply_reduction(section.reduce_bytes, t, coll_a, coll_b);
    if (at != nullptr) {
      for (int r = 0; r < n; ++r)
        at[r].collective_s +=
            t[static_cast<std::size_t>(r)] - before[static_cast<std::size_t>(r)];
    }
  }
}

void Predictor::apply_reduction(std::int64_t bytes, std::vector<double>& t,
                                std::vector<double>* scratch_a,
                                std::vector<double>* scratch_b) const {
  const int n = static_cast<int>(t.size());
  if (n <= 1) return;
  const double x = params_.network.transfer_s(bytes);

  // Reduce to rank 0 over the binomial tree (mirrors SimMPI::allreduce).
  std::vector<double> local_a;
  std::vector<double>& arrival = scratch_a != nullptr ? *scratch_a : local_a;
  arrival.assign(static_cast<std::size_t>(n), 0.0);
  for (int mask = 1; mask < n; mask <<= 1) {
    // Senders at this level: lowest set bit == mask, i.e. the odd
    // multiples of mask. Only they and the receivers are visited, so the
    // whole tree costs O(n), not O(n log n).
    for (int r = mask; r < n; r += 2 * mask) {
      t[static_cast<std::size_t>(r)] += o_s(r);
      arrival[static_cast<std::size_t>(r)] = t[static_cast<std::size_t>(r)] + x;
    }
    // Receivers still active at this level: the even multiples of mask
    // whose partner r + mask exists.
    for (int r = 0; r + mask < n; r += 2 * mask) {
      auto& tr = t[static_cast<std::size_t>(r)];
      tr = std::max(tr, arrival[static_cast<std::size_t>(r + mask)]) + o_r(r);
    }
  }

  // Broadcast from rank 0 (mirrors the second phase of SimMPI::allreduce).
  std::vector<double> local_b;
  std::vector<double>& bcast_arrival =
      scratch_b != nullptr ? *scratch_b : local_b;
  bcast_arrival.assign(static_cast<std::size_t>(n), 0.0);
  for (int r = 0; r < n; ++r) {
    int entry;
    if (r == 0) {
      entry = 1;
      while (entry < n) entry <<= 1;
    } else {
      auto& tr = t[static_cast<std::size_t>(r)];
      tr = std::max(tr, bcast_arrival[static_cast<std::size_t>(r)]) + o_r(r);
      entry = r & -r;  // lowest set bit
    }
    for (int m = entry >> 1; m >= 1; m >>= 1) {
      if (r + m < n) {
        t[static_cast<std::size_t>(r)] += o_s(r);
        bcast_arrival[static_cast<std::size_t>(r + m)] =
            t[static_cast<std::size_t>(r)] + x;
      }
    }
  }
}

void Predictor::apply_alltoall(std::int64_t bytes_per_pair,
                               std::vector<double>& t,
                               std::vector<double>* scratch) const {
  const int n = static_cast<int>(t.size());
  if (n <= 1) return;
  const double x = params_.network.transfer_s(bytes_per_pair);
  // Ring-shifted pairwise exchange: at step s each rank sends to rank+s
  // (paying o_s), then blocks receiving from rank-s (arrival + o_r). All of
  // step s's sends depend only on progress through step s-1, so steps are
  // evaluated in order with a send pass before the receive pass.
  std::vector<double> local;
  std::vector<double>& arrival = scratch != nullptr ? *scratch : local;
  arrival.assign(static_cast<std::size_t>(n), 0.0);
  for (int s = 1; s < n; ++s) {
    for (int r = 0; r < n; ++r) {
      auto& tr = t[static_cast<std::size_t>(r)];
      tr += o_s(r);
      arrival[static_cast<std::size_t>((r + s) % n)] = tr + x;
    }
    for (int r = 0; r < n; ++r) {
      auto& tr = t[static_cast<std::size_t>(r)];
      tr = std::max(tr, arrival[static_cast<std::size_t>(r)]) + o_r(r);
    }
  }
}

Prediction Predictor::predict(const dist::GenBlock& d, int iterations) const {
  MHETA_CHECK(iterations >= 1);
  return predict_nonuniform(
      d, std::vector<double>(static_cast<std::size_t>(iterations), 1.0));
}

Prediction Predictor::predict_nonuniform(
    const dist::GenBlock& d, const std::vector<double>& iteration_scales) const {
  return predict_impl(d, iteration_scales, nullptr);
}

AttributedPrediction Predictor::predict_attributed(const dist::GenBlock& d,
                                                   int iterations) const {
  MHETA_CHECK(iterations >= 1);
  Attribution attr;
  AttributedPrediction out;
  out.prediction = predict_impl(
      d, std::vector<double>(static_cast<std::size_t>(iterations), 1.0), &attr);
  out.terms = std::move(attr.terms);
  return out;
}

Prediction Predictor::predict_impl(const dist::GenBlock& d,
                                   const std::vector<double>& iteration_scales,
                                   Attribution* attr) const {
  MHETA_CHECK(d.nodes() == params_.node_count());
  MHETA_CHECK(!iteration_scales.empty());
  const int n = d.nodes();
  const auto plans = plans_for(d);
  if (attr != nullptr)
    attr->terms.assign(structure_.sections.size(),
                       std::vector<CostTerms>(static_cast<std::size_t>(n)));
  IterationCache cache;
  Prediction pred;
  run_iterations(n, iteration_scales, attr, cache,
                 [&](double scale, bool with_terms) {
                   build_iteration_cache(d, plans, scale, cache, with_terms);
                 },
                 pred);
  return pred;
}

void Predictor::run_iterations(
    int n, const std::vector<double>& iteration_scales, Attribution* attr,
    IterationCache& cache, const std::function<void(double, bool)>& rebuild,
    Prediction& pred, IterScratch* scratch) const {
  // The per-node clocks are evaluated in offset space: `off` carries the
  // clock skews within the current iteration, `base` the time already
  // absorbed by renormalization between iterations. Because every section
  // operation is a composition of adds and maxes over `off` with
  // iteration-invariant constants (the cached stage times), the offsets of
  // a uniform run reach a bitwise fixed point after a few iterations —
  // which the steady-state shortcut detects and replays exactly.
  pred.total_s = 0;
  pred.compute_s = 0;
  pred.io_s = 0;
  IterScratch local;
  IterScratch& s = scratch != nullptr ? *scratch : local;
  s.off.assign(static_cast<std::size_t>(n), 0.0);
  std::vector<double>& off = s.off;
  double base = 0.0;
  std::vector<double>& arrivals = s.arrivals;  // reused across sections

  std::vector<double>& prev_off = s.prev_off;  // start-of-iteration offsets,
  bool prev_valid = false;                     // one behind
  std::vector<double>& last_end = s.last_end;  // pre-renormalization offsets
  double last_m = 0;  // of the previous iteration, and its renorm delta

  // The diagnostic sums are a pure function of the stage table: computed
  // once per (re)built or pre-assembled table, then added per iteration.
  IterationAgg agg;
  bool agg_valid = false;

  const std::size_t total = iteration_scales.size();
  std::size_t k = 0;
  while (k < total) {
    const double scale = iteration_scales[k];
    MHETA_CHECK(scale >= 0);
    if (!cache.valid || cache.scale != scale) {
      rebuild(scale, attr != nullptr);
      prev_valid = false;
      agg_valid = false;
    }
    if (!agg_valid) {
      agg = iteration_agg(n, cache);
      agg_valid = true;
    }

    // Attributed runs take the plain per-iteration loop: the shortcut's
    // replayed iterations would bypass apply_section, losing their terms.
    if (attr == nullptr && options_.steady_state_shortcut && prev_valid &&
        std::memcmp(off.data(), prev_off.data(),
                    off.size() * sizeof(double)) == 0) {
      // Steady state: this iteration starts from exactly the state the
      // previous one did, so it (and every following iteration at this
      // scale) reproduces the recorded step bit for bit.
      std::size_t end = k;
      while (end < total && iteration_scales[end] == scale) ++end;
      const bool covers_final = end == total;
      const std::size_t full = (end - k) - (covers_final ? 1 : 0);
      for (std::size_t i = 0; i < full; ++i) {
        pred.compute_s += agg.compute_s;
        pred.io_s += agg.io_s;
        base += last_m;
      }
      k += full;
      if (covers_final) {
        pred.compute_s += agg.compute_s;
        pred.io_s += agg.io_s;
        off = last_end;  // the final iteration is not renormalized
        ++k;
      }
      prev_valid = false;
      continue;
    }

    // One full iteration.
    s.start.assign(off.begin(), off.end());
    for (std::size_t si = 0; si < structure_.sections.size(); ++si)
      apply_section(static_cast<int>(si), cache, off, arrivals, attr,
                    &s.coll_a, &s.coll_b);
    pred.compute_s += agg.compute_s;
    pred.io_s += agg.io_s;
    ++k;
    if (k == total) break;  // the final iteration stays un-renormalized

    // Renormalize between iterations so offsets stay small and can repeat.
    last_end.assign(off.begin(), off.end());
    const double m = *std::min_element(off.begin(), off.end());
    base += m;
    for (auto& o : off) o -= m;
    last_m = m;
    std::swap(prev_off, s.start);
    prev_valid = true;
  }

  pred.node_end_s.resize(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    pred.node_end_s[static_cast<std::size_t>(r)] =
        base + off[static_cast<std::size_t>(r)];
  pred.total_s = *std::max_element(pred.node_end_s.begin(),
                                   pred.node_end_s.end());
}

Prediction Predictor::predict2d(const dist::Dist2D& d,
                                const dist::Dist2D& instrumented,
                                int iterations) const {
  const int n = d.grid().nodes();
  MHETA_CHECK(n == params_.node_count());
  MHETA_CHECK(instrumented.grid().nodes() == n);
  MHETA_CHECK(iterations >= 1);

  // Per-rank plans over the rank's tile: rows_p rows whose width is the
  // rank's column block (the same rounding the runtime applies).
  ooc::PlannerOptions popts;
  popts.overhead_bytes = options_.planner_overhead_bytes;
  popts.max_blocks = options_.max_blocks;
  std::vector<ooc::NodePlan> plans;
  plans.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    std::vector<ooc::ArraySpec> rank_arrays = structure_.arrays;
    for (auto& a : rank_arrays) {
      a.row_bytes = static_cast<std::int64_t>(std::llround(
          static_cast<double>(a.row_bytes) * d.width_fraction(r)));
    }
    plans.push_back(ooc::plan_node(rank_arrays, d.rows(r),
                                   memory_bytes_[static_cast<std::size_t>(r)],
                                   popts));
  }

  const auto& grid = d.grid();
  Prediction pred;
  std::vector<double> t(static_cast<std::size_t>(n), 0.0);
  ooc::StageIoLayout io;
  for (int it = 0; it < iterations; ++it) {
    for (std::size_t si = 0; si < structure_.sections.size(); ++si) {
      const auto& section = structure_.sections[si];
      MHETA_CHECK_MSG(section.pattern != CommPattern::kPipeline,
                      "pipelined sections are 1-D only");
      // Stages: compute scales with the tile area relative to the
      // instrumented tile; I/O follows the scaled plans.
      for (int r = 0; r < n; ++r) {
        const double frac_instr = instrumented.width_fraction(r);
        MHETA_CHECK(frac_instr > 0);
        const double work_scale = d.width_fraction(r) / frac_instr;
        const ooc::NodePlan& plan = plans[static_cast<std::size_t>(r)];
        for (std::size_t g = 0; g < section.stages.size(); ++g) {
          layout_stage(
              flat_stage_index(static_cast<int>(si), static_cast<int>(g)),
              plan, d.rows(r), io);
          const auto st = stage_time(
              r, section, section.stages[g],
              interned_stage(r, static_cast<int>(si), static_cast<int>(g)),
              io, plan, work_scale);
          t[static_cast<std::size_t>(r)] += st.stage_s;
          pred.compute_s += st.compute_s;
          pred.io_s += st.io_s;
        }
      }
      if (section.pattern == CommPattern::kNearestNeighbor) {
        // Mirror the 2-D driver: sends north, south, west, east, then
        // receives in the same order.
        std::map<std::pair<int, int>, std::deque<double>> arrivals;
        auto peers_of = [&](int r) {
          const int p = grid.row_of(r);
          const int q = grid.col_of(r);
          std::vector<std::pair<int, bool>> peers;  // (rank, is_ns)
          if (p > 0) peers.push_back({grid.rank_of(p - 1, q), true});
          if (p + 1 < grid.p) peers.push_back({grid.rank_of(p + 1, q), true});
          if (q > 0) peers.push_back({grid.rank_of(p, q - 1), false});
          if (q + 1 < grid.q) peers.push_back({grid.rank_of(p, q + 1), false});
          return peers;
        };
        auto halo_bytes = [&](int r, bool ns) -> std::int64_t {
          if (ns) {
            return static_cast<std::int64_t>(
                std::llround(static_cast<double>(section.message_bytes) *
                             d.width_fraction(r)));
          }
          MHETA_CHECK(d.total_cols() > 0);
          MHETA_CHECK(section.message_bytes % d.total_cols() == 0);
          return d.rows(r) * (section.message_bytes / d.total_cols());
        };
        for (int r = 0; r < n; ++r) {
          auto& tr = t[static_cast<std::size_t>(r)];
          for (const auto& [peer, ns] : peers_of(r)) {
            tr += o_s(r);
            arrivals[{r, peer}].push_back(
                tr + params_.network.transfer_s(halo_bytes(r, ns)));
          }
        }
        for (int r = 0; r < n; ++r) {
          auto& tr = t[static_cast<std::size_t>(r)];
          for (const auto& [peer, ns] : peers_of(r)) {
            (void)ns;
            auto& queue = arrivals[{peer, r}];
            MHETA_CHECK(!queue.empty());
            tr = std::max(tr, queue.front()) + o_r(r);
            queue.pop_front();
          }
        }
      }
      if (section.has_reduction) apply_reduction(section.reduce_bytes, t);
    }
  }
  pred.node_end_s = t;
  pred.total_s = *std::max_element(t.begin(), t.end());
  return pred;
}

}  // namespace mheta::core
