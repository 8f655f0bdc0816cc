// Golden bits: the model's outputs on synthetic inputs, pinned to the exact
// IEEE-754 bit patterns the evaluation produced before the cold-path rework
// (per-call plan groups, shared tile evaluations, in-core rows computed
// inline, rank-outer pipeline sweeps, an O(n) reduction walk). The other
// oracles (fast vs naive, delta, lanes, traced) compare two paths of the
// same build; this one compares against the previous version of the model.
//
// The inputs are synthetic MhetaParams, so no simulator runs and no libm
// call shapes the numbers. Every case is checked twice: with the default
// fast path and with the steady-state shortcut and the plan cache disabled.
// A mismatch here means the arithmetic changed; regenerating the constants
// is only right for a deliberate change of the model's equations.
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/critical.hpp"
#include "core/model.hpp"
#include "ooc/planner.hpp"

namespace mheta::core {
namespace {

using instrument::MhetaParams;

constexpr int kIterationCounts[] = {1, 2, 3, 25};

std::uint64_t bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Observed values in a fixed order, each with a label for failure output.
struct Observed {
  std::vector<std::string> labels;
  std::vector<std::uint64_t> values;

  void add(std::string label, std::uint64_t v) {
    labels.push_back(std::move(label));
    values.push_back(v);
  }
  void add_prediction(const std::string& prefix, const Prediction& p) {
    add(prefix + "total_s", bits(p.total_s));
    add(prefix + "compute_s", bits(p.compute_s));
    add(prefix + "io_s", bits(p.io_s));
    for (std::size_t r = 0; r < p.node_end_s.size(); ++r)
      add(prefix + "node_end_s[" + std::to_string(r) + "]",
          bits(p.node_end_s[r]));
  }
};

/// Every pinned field of `d` under `p`, for each iteration count: the
/// prediction, every attributed term, and the traced sweep (its prediction
/// must equal predict()'s bits; its events and per-slot terms are folded
/// into one digest each).
Observed observe(const Predictor& p, const dist::GenBlock& d) {
  Observed out;
  for (const int k : kIterationCounts) {
    const std::string at = "K=" + std::to_string(k) + " ";
    const Prediction pred = p.predict(d, k);
    out.add_prediction(at, pred);

    const AttributedPrediction attr = p.predict_attributed(d, k);
    EXPECT_EQ(bits(attr.prediction.total_s), bits(pred.total_s)) << at;
    for (std::size_t s = 0; s < attr.terms.size(); ++s)
      for (std::size_t r = 0; r < attr.terms[s].size(); ++r)
        for (int term = 0; term < kCostTermCount; ++term)
          out.add(at + "terms[" + std::to_string(s) + "][" +
                      std::to_string(r) + "]." + cost_term_name(term),
                  bits(cost_term_value(attr.terms[s][r], term)));

    const SweepTrace trace = p.predict_traced(d, k);
    out.add_prediction(at + "traced ", trace.prediction);
    std::uint64_t events = 0xCBF29CE484222325ull;
    for (const SweepEvent& e : trace.events) {
      events = fnv(events, static_cast<std::uint64_t>(e.kind));
      events = fnv(events, static_cast<std::uint64_t>(e.rank));
      events = fnv(events, static_cast<std::uint64_t>(e.pred));
      events = fnv(events, static_cast<std::uint64_t>(e.src_rank));
      events = fnv(events, bits(e.t_start));
      events = fnv(events, bits(e.t_end));
      events = fnv(events, bits(e.edge_s));
    }
    for (const double m : trace.renorm) events = fnv(events, bits(m));
    events = fnv(events, static_cast<std::uint64_t>(trace.steady_repeats));
    out.add(at + "traced events digest", events);
    std::uint64_t slots = 0xCBF29CE484222325ull;
    for (const auto& section : trace.terms)
      for (const CostTerms& t : section)
        for (int term = 0; term < kCostTermCount; ++term)
          slots = fnv(slots, bits(cost_term_value(t, term)));
    out.add(at + "traced slot-terms digest", slots);
  }
  return out;
}

/// With the shortcut off the traced sweep records all K iterations, so its
/// event list (but not its prediction or slot terms) differs by design; the
/// naive runs skip the event digests.
void expect_pinned(const Observed& got, const std::vector<std::uint64_t>& want,
                   bool with_event_digests = true) {
  ASSERT_EQ(got.values.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (!with_event_digests &&
        got.labels[i].find("events digest") != std::string::npos)
      continue;
    EXPECT_EQ(got.values[i], want[i]) << got.labels[i];
  }
}

ooc::StageDef stage(int id, std::vector<std::string> reads,
                    std::vector<std::string> writes, bool prefetch) {
  ooc::StageDef st;
  st.id = id;
  st.read_vars = std::move(reads);
  st.write_vars = std::move(writes);
  st.prefetch = prefetch;
  return st;
}

constexpr std::int64_t kSmallMemory = 256ll << 10;  // A and B out of core
constexpr std::int64_t kLargeMemory = 64ll << 20;   // everything in core

// Three sections over three arrays:
//  0: a 4-tile pipeline; stage 0 streams A synchronously, stage 1
//     prefetches B;
//  1: a nearest-neighbor exchange after a prefetch stage over A and B and
//     a stage over C, which always fits in core;
//  2: one synchronous stage over all three arrays, then a reduction.
ProgramStructure mixed_program() {
  ProgramStructure p;
  p.name = "golden-mixed";
  p.arrays = {{"A", 4000, 1024, ooc::Access::kReadWrite},
              {"B", 4000, 512, ooc::Access::kReadOnly},
              {"C", 4000, 128, ooc::Access::kReadOnly}};
  SectionSpec pipe;
  pipe.id = 0;
  pipe.pattern = CommPattern::kPipeline;
  pipe.tiles = 4;
  pipe.message_bytes = 2048;
  pipe.stages = {stage(0, {"A"}, {"A"}, false), stage(1, {"B"}, {}, true)};
  SectionSpec nn;
  nn.id = 1;
  nn.pattern = CommPattern::kNearestNeighbor;
  nn.message_bytes = 4096;
  nn.stages = {stage(0, {"A", "B"}, {"A"}, true), stage(1, {"C"}, {}, false)};
  SectionSpec red;
  red.id = 2;
  red.has_reduction = true;
  red.reduce_bytes = 64;
  red.stages = {stage(0, {"A", "B", "C"}, {"A"}, false)};
  p.sections = {std::move(pipe), std::move(nn), std::move(red)};
  return p;
}

// Heterogeneous per-rank costs, so no two ranks' clocks coincide.
MhetaParams mixed_params(int n, const ProgramStructure& program) {
  MhetaParams params;
  params.network.latency_s = 2e-4;
  params.network.s_per_byte = 3e-8;
  std::vector<std::int64_t> instrumented(static_cast<std::size_t>(n),
                                         program.rows() / n);
  instrumented.front() += program.rows() % n;
  params.instrumented_dist = dist::GenBlock(std::move(instrumented));
  params.nodes.resize(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    auto& np = params.nodes[static_cast<std::size_t>(r)];
    np.read_seek_s = 4e-3 + 1e-3 * (r % 3);
    np.write_seek_s = 6e-3 - 5e-4 * (r % 2);
    np.send_overhead_s = 1e-4 * (1.0 + 0.1 * r);
    np.recv_overhead_s = 2e-4 * (1.0 + 0.05 * r);
    for (const auto& section : program.sections) {
      for (const auto& st : section.stages) {
        instrument::StageCosts sc;
        sc.compute_s = 0.5 + 0.1 * r + 0.03 * st.id + 0.07 * section.id;
        for (std::size_t a = 0; a < program.arrays.size(); ++a)
          sc.vars[program.arrays[a].name] = {2e-8 * (1.0 + 0.1 * r + 0.3 * a),
                                             3e-8 * (1.0 + 0.02 * r)};
        np.stages[{section.id, st.id}] = sc;
      }
      instrument::SectionComm comm;
      comm.tiles = section.tiles;
      if (section.pattern == CommPattern::kPipeline) {
        if (r + 1 < n) comm.sends.push_back({r + 1, 2048 + 64 * r});
        if (r > 0) comm.recvs.push_back({r - 1, 2048 + 64 * (r - 1)});
      } else if (section.pattern == CommPattern::kNearestNeighbor) {
        if (r > 0) comm.sends.push_back({r - 1, section.message_bytes});
        if (r + 1 < n) comm.sends.push_back({r + 1, section.message_bytes});
        if (r > 0) comm.recvs.push_back({r - 1, section.message_bytes});
        if (r + 1 < n) comm.recvs.push_back({r + 1, section.message_bytes});
      }
      comm.has_reduction = section.has_reduction;
      comm.reduce_bytes = section.has_reduction ? section.reduce_bytes : 0;
      np.comm[section.id] = comm;
    }
  }
  return params;
}

// n = 7. Ranks 0-3 have little memory, 4-6 plenty. Rank 0 and ranks 2 and 3
// (which share (memory, rows)) stream A and B in several blocks per tile;
// rank 1 has 2 rows, fewer than the 4 tiles, so two of its tiles are empty;
// ranks 4 and 5 share an in-core key; 1003, 995 and 5 rows leave a
// remainder over 4 tiles, so those ranks' tiles have two lengths.
constexpr int kMixedNodes = 7;
const std::vector<std::int64_t> kMixedCounts = {1003, 2, 995, 995, 500, 500, 5};
const std::vector<std::int64_t> kMixedMemory = {
    kSmallMemory, kSmallMemory, kSmallMemory, kSmallMemory,
    kLargeMemory, kLargeMemory, kLargeMemory};

// A read-only array that is out of core on even ranks; section 0 streams
// it, then runs a total exchange and a reduction; section 1 is compute
// only, then another reduction.
ProgramStructure collective_program() {
  ProgramStructure p;
  p.name = "golden-collectives";
  p.arrays = {{"K", 1200, 2048, ooc::Access::kReadOnly}};
  SectionSpec s0;
  s0.id = 0;
  s0.has_alltoall = true;
  s0.alltoall_bytes_per_pair = 1024;
  s0.has_reduction = true;
  s0.reduce_bytes = 8;
  s0.stages = {stage(0, {"K"}, {}, false)};
  SectionSpec s1;
  s1.id = 1;
  s1.has_reduction = true;
  s1.reduce_bytes = 256;
  s1.stages = {stage(0, {}, {}, false)};
  p.sections = {std::move(s0), std::move(s1)};
  return p;
}

MhetaParams collective_params(int n, const ProgramStructure& program) {
  MhetaParams params;
  params.network.latency_s = 1e-4;
  params.network.s_per_byte = 2e-8;
  std::vector<std::int64_t> instrumented(static_cast<std::size_t>(n),
                                         program.rows() / n);
  instrumented.front() += program.rows() % n;
  params.instrumented_dist = dist::GenBlock(std::move(instrumented));
  params.nodes.resize(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    auto& np = params.nodes[static_cast<std::size_t>(r)];
    np.read_seek_s = 3e-3 + 5e-4 * (r % 4);
    np.write_seek_s = 5e-3;
    np.send_overhead_s = 5e-5 * (1.0 + 0.07 * r);
    np.recv_overhead_s = 8e-5 * (1.0 + 0.03 * (n - r));
    instrument::StageCosts s0;
    s0.compute_s = 0.2 + 0.05 * (r % 5);
    s0.vars["K"] = {1e-8 * (1.0 + 0.2 * (r % 3)), 0.0};
    np.stages[{0, 0}] = s0;
    instrument::StageCosts s1;
    s1.compute_s = 0.05 + 0.01 * r;
    np.stages[{1, 0}] = s1;
    for (const auto& section : program.sections) {
      instrument::SectionComm comm;
      comm.has_reduction = true;
      comm.reduce_bytes = section.reduce_bytes;
      np.comm[section.id] = comm;
    }
  }
  return params;
}

// Uneven counts summing to the array's 1200 rows; every third rank repeats
// its predecessor's count, and memory alternates, so some keys are shared.
std::vector<std::int64_t> collective_counts(int n) {
  std::vector<std::int64_t> counts(static_cast<std::size_t>(n));
  std::int64_t total = 0;
  for (int r = 1; r < n; ++r) {
    counts[static_cast<std::size_t>(r)] =
        r % 3 == 2 ? counts[static_cast<std::size_t>(r - 2)]
                   : 1200 / n + 9 * (r % 3) - 6;
    total += counts[static_cast<std::size_t>(r)];
  }
  counts.front() = 1200 - total;
  return counts;
}

std::vector<std::int64_t> collective_memory(int n) {
  std::vector<std::int64_t> memory(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    memory[static_cast<std::size_t>(r)] =
        r % 2 == 0 ? 96ll << 10 : kLargeMemory;
  return memory;
}

ModelOptions naive_options() {
  ModelOptions o;
  o.steady_state_shortcut = false;
  o.plan_cache_capacity = 0;
  return o;
}

ooc::NodePlan plan(const ProgramStructure& program, std::int64_t rows,
                   std::int64_t memory) {
  return ooc::plan_node(program.arrays, rows, memory, ooc::PlannerOptions{});
}

// ---- pinned constants (generated before the cold-path rework) ----

const std::vector<std::uint64_t> kMixedBits = {
    0x40229219b0b6637dull, 0x403c31976bc6232aull, 0x3ffb734aea22e2ccull,
    0x4022919a0c107c4dull, 0x402291d009ce57baull, 0x402291d3f8706166ull,
    0x4022920c9544edf0ull, 0x402291de74cb25d7ull, 0x40229219b0b6637dull,
    0x40229208a6a2e445ull, 0x3ffccc03da771914ull, 0x3fb6c9a3ab1e03ffull,
    0x3fba51e5d0d4c43cull, 0x0000000000000000ull, 0x3f3a36e2eb1c432dull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3f71a581ffe47448ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3f3cd5f99c38b04cull, 0x3fffd7216ee7cf41ull, 0x0000000000000000ull,
    0x4003ef526779db98ull, 0x3fc0121be15cfcb0ull, 0x3fba91eb6933e4f9ull,
    0x0000000000000000ull, 0x3f3f75104d551d69ull, 0x3fdfe4f460a82715ull,
    0x0000000000000000ull, 0x4006b912bd8e7b34ull, 0x3fb88ee48140d4aaull,
    0x3fb930c47f319f9cull, 0x0000000000000000ull, 0x3f410a137f38c544ull,
    0x3ff2d6857ebab7fcull, 0x0000000000000000ull, 0x3ff9a3a48a166ab4ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3f42599ed7c6fbd2ull, 0x400816336a2825e6ull, 0x0000000000000000ull,
    0x3ffc70fb117c306cull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3f43a92a30553262ull, 0x400a3ef15fb36339ull,
    0x0000000000000000ull, 0x3f93feec8ace0e2bull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x401430e0984e4ccdull, 0x0000000000000000ull, 0x40005b04ac8bb880ull,
    0x3f8632829a5fce58ull, 0x3fba51e5d0d4c440ull, 0x0000000000000000ull,
    0x3f1a36e2eb1c432dull, 0x3f2a36e2eb1c8000ull, 0x0000000000000000ull,
    0x3f73a7b218db1334ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3f2cd5f99c38b04cull, 0x40104da0fafa8c11ull,
    0x0000000000000000ull, 0x4005e2f2a3bb7e86ull, 0x3f8f5d4ea0de17b4ull,
    0x3fba91eb6933e512ull, 0x0000000000000000ull, 0x3f2f75104d551d69ull,
    0x3ff551689613d594ull, 0x0000000000000000ull, 0x4008acb2f9d01e22ull,
    0x3f87b1d6040bb0ecull, 0x3fb930c47f319fa0ull, 0x0000000000000000ull,
    0x3f310a137f38c544ull, 0x3f3e2584f4c70000ull, 0x0000000000000000ull,
    0x3ffb99c7827741e8ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3f32599ed7c6fbd2ull, 0x3ff119b387f12b8cull,
    0x0000000000000000ull, 0x3ffe671e09dd079full, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3f33a92a30553262ull,
    0x3f40624dd2f1c000ull, 0x0000000000000000ull, 0x3f95404a9a683180ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3f24f8b588e368f1ull, 0x3ffdf2e7c0d754b4ull, 0x0000000000000000ull,
    0x3ff1e4ab676f48c0ull, 0x3fc0a0589cf18a3eull, 0x3fba51e5d0d4c43dull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x400e436a2d03d146ull, 0x3f653bb3510a9014ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x4009a71deb3c6a14ull, 0x3ff76b82d313a31aull,
    0x3fc784abf6be62d3ull, 0x3fba91eb6933e4faull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fc02053b2058c00ull,
    0x3ffa3543292842b7ull, 0x3fc1c3f7bc0eb982ull, 0x3fb930c47f319f9dull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3f640d2831a28000ull, 0x3fed2450b355a1d9ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3feeeba82c2d8910ull, 0x3feff1a73abb6793ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3ff53c420bf1fb78ull,
    0x3f863ccb5d85df8bull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x400283de6d053734ull, 0x40229219b0b6637dull, 0x403c31976bc6232aull,
    0x3ffb734aea22e2ccull, 0x4022919a0c107c4dull, 0x402291d009ce57baull,
    0x402291d3f8706166ull, 0x4022920c9544edf0ull, 0x402291de74cb25d7ull,
    0x40229219b0b6637dull, 0x40229208a6a2e445ull, 0xa82bbb74a481361bull,
    0xe0b8c4e95ef6d86bull, 0x403291d9de636fe5ull, 0x404c31976bc6232aull,
    0x400b734aea22e2ccull, 0x4032919a0c107c4dull, 0x403291b50aef6a04ull,
    0x403291b702406edaull, 0x403291d350aab51eull, 0x403291bc406dd112ull,
    0x403291d9de636fe5ull, 0x403291d15959b049ull, 0x400ccc03da771914ull,
    0x3fc6c9a3ab1e0402ull, 0x3fca51e5d0d4c43cull, 0x0000000000000000ull,
    0x3f4a36e2eb1c432eull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3f81a581ffe47448ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3f4cd5f99c38b04eull, 0x400fd64977f0618eull,
    0x0000000000000000ull, 0x4013ef526779db99ull, 0x3fd0121be15cfcb1ull,
    0x3fca91eb6933e4f9ull, 0x0000000000000000ull, 0x3f4f75104d551d69ull,
    0x3fefe1559aa9d585ull, 0x0000000000000000ull, 0x4016b912bd8e7b33ull,
    0x3fc88ee48140d4a8ull, 0x3fc930c47f319f9cull, 0x0000000000000000ull,
    0x3f510a137f38c544ull, 0x4002d4bb59e8f170ull, 0x0000000000000000ull,
    0x4009a3a48a166ab2ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3f52599ed7c6fbd1ull, 0x401815aa98b2d2d2ull,
    0x0000000000000000ull, 0x400c70fb117c306dull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3f53a92a30553261ull,
    0x401a3df2166794daull, 0x0000000000000000ull, 0x3fa3feec8ace0e2bull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x40243071fdbbe4d5ull, 0x0000000000000000ull,
    0x40105b04ac8bb880ull, 0x3f9632829a5fce58ull, 0x3fca51e5d0d4c440ull,
    0x0000000000000000ull, 0x3f2a36e2eb1c432dull, 0x3f3a36e2eb1c8000ull,
    0x0000000000000000ull, 0x3f83a7b218db1334ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3f3cd5f99c38b04cull,
    0x40204da0fafa8c11ull, 0x0000000000000000ull, 0x4015e2f2a3bb7e85ull,
    0x3f9f5d4ea0de17b4ull, 0x3fca91eb6933e512ull, 0x0000000000000000ull,
    0x3f3f75104d551d69ull, 0x400551689613d594ull, 0x0000000000000000ull,
    0x4018acb2f9d01e22ull, 0x3f97b1d6040bb0ecull, 0x3fc930c47f319fa0ull,
    0x0000000000000000ull, 0x3f410a137f38c544ull, 0x3f4e2584f4c70000ull,
    0x0000000000000000ull, 0x400b99c7827741e8ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3f42599ed7c6fbd2ull,
    0x400119b387f12b8cull, 0x0000000000000000ull, 0x400e671e09dd079full,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3f43a92a30553262ull, 0x3f50624dd2f1c000ull, 0x0000000000000000ull,
    0x3fa5404a9a683180ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3f34f8b588e368f1ull, 0x400df2e7c0d754b4ull,
    0x0000000000000000ull, 0x4001e4ab676f48c0ull, 0x3fd0a0589cf18a3eull,
    0x3fca51e5d0d4c43dull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x401e436a2d03d146ull, 0x3f753bb3510a9014ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x4019a71deb3c6a14ull,
    0x40076b82d313a31aull, 0x3fd784abf6be62d3ull, 0x3fca91eb6933e4faull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fd02053b2058c00ull, 0x400a3543292842b7ull, 0x3fd1c3f7bc0eb982ull,
    0x3fc930c47f319f9dull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3f740d2831a28000ull, 0x3ffd2450b355a1d9ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3ffeeba82c2d8910ull,
    0x3ffff1a73abb6793ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x40053c420bf1fb78ull, 0x3f963ccb5d85df8bull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x401283de6d053734ull, 0x403291d9de636fe5ull,
    0x404c31976bc6232aull, 0x400b734aea22e2ccull, 0x4032919a0c107c4dull,
    0x403291b50aef6a04ull, 0x403291b702406edaull, 0x403291d350aab51eull,
    0x403291bc406dd112ull, 0x403291d9de636fe5ull, 0x403291d15959b049ull,
    0xa686fa21671729caull, 0xe0b8c4e95ef6d86bull, 0x403bdaa6e46bae0cull,
    0x4055253190d49a60ull, 0x401496782f9a2a19ull, 0x403bda671218ba74ull,
    0x403bda8210f7a82aull, 0x403bda840848ad00ull, 0x403bdaa056b2f345ull,
    0x403bda8946760f38ull, 0x403bdaa6e46bae0cull, 0x403bda9e5f61ee70ull,
    0x40159902e3d952cfull, 0x3fd1173ac0568302ull, 0x3fd3bd6c5c9f932eull,
    0x0000000000000000ull, 0x3f53a92a30553263ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3f8a7842ffd6ae6cull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3f55a07b352a843bull,
    0x4017e0811c366dbeull, 0x0000000000000000ull, 0x401de6fb9b36c966ull,
    0x3fd81b29d20b7b08ull, 0x3fd3ed708ee6ebbaull, 0x0000000000000000ull,
    0x3f5797cc39ffd610ull, 0x3ff7e818827fcbc0ull, 0x0000000000000000ull,
    0x40210ace0e2adc66ull, 0x3fd26b2b60f09f7eull, 0x3fd2e4935f6537b6ull,
    0x0000000000000000ull, 0x3f598f1d3ed527e4ull, 0x400c3e33f47486e2ull,
    0x0000000000000000ull, 0x40133abb6790d007ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3f5b866e43aa79b9ull,
    0x4022101dbe28c958ull, 0x0000000000000000ull, 0x401554bc4d1d2450ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3f5d7dbf487fcb91ull, 0x4023ae35be7abc0bull, 0x0000000000000000ull,
    0x3fadfe62d035153full, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x402e4873af50a343ull,
    0x0000000000000000ull, 0x4018888702d194c0ull, 0x3fa0a5e1f3c7dac2ull,
    0x3fd3bd6c5c9f9330ull, 0x0000000000000000ull, 0x3f33a92a30553262ull,
    0x3f43a92a30556000ull, 0x0000000000000000ull, 0x3f8d7b8b25489ccfull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3f45a07b352a843aull, 0x402874717877d21aull, 0x0000000000000000ull,
    0x40206a35facc9ee4ull, 0x3fa785faf8a691c7ull, 0x3fd3ed708ee6ebceull,
    0x0000000000000000ull, 0x3f4797cc39ffd60full, 0x400ffa1ce11dc05eull,
    0x0000000000000000ull, 0x402281863b5c1699ull, 0x3fa1c5608308c4b1ull,
    0x3fd2e4935f6537b8ull, 0x0000000000000000ull, 0x3f498f1d3ed527e6ull,
    0x3f569c23b7954000ull, 0x0000000000000000ull, 0x4014b355a1d9716eull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3f4b866e43aa79baull, 0x4009a68d4be9c152ull, 0x0000000000000000ull,
    0x4016cd568765c5b7ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3f4d7dbf487fcb92ull, 0x3f589374bc6aa000ull,
    0x0000000000000000ull, 0x3fafe06fe79c4a40ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3f3f75104d551d6aull,
    0x4016762dd0a17f87ull, 0x0000000000000000ull, 0x400ad7011b26ed20ull,
    0x3fd8f084eb6a4f5dull, 0x3fd3bd6c5c9f932eull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x4026b28fa1c2dcf4ull,
    0x3f7fd98cf98fd81eull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x40233d56706d4f8full, 0x401190a21e4eba54ull, 0x3fe1a380f90eca1eull,
    0x3fd3ed708ee6ebbcull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fd8307d8b085200ull, 0x4013a7f25ede3209ull,
    0x3fdaa5f39a161643ull, 0x3fd2e4935f6537b6ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3f7e13bc4a73c000ull,
    0x4005db3c86803963ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x400730be212226ccull, 0x4007f53d6c0c8daeull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x400fda6311eaf934ull, 0x3fa0ad98862467a8ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x401bc5cda387d2ceull,
    0x403bdaa6e46bae0cull, 0x4055253190d49a60ull, 0x401496782f9a2a19ull,
    0x403bda671218ba74ull, 0x403bda8210f7a82aull, 0x403bda840848ad00ull,
    0x403bdaa056b2f345ull, 0x403bda8946760f38ull, 0x403bdaa6e46bae0cull,
    0x403bda9e5f61ee70ull, 0x798ecf7d9ab6c4e1ull, 0xe0b8c4e95ef6d86bull,
    0x406d0388ad2420aeull, 0x408606be4c32cb78ull, 0x4045721286eb412full,
    0x406d0380b2d9c23bull, 0x406d038412b59ff2ull, 0x406d0384519fc08cull,
    0x406d0387db6d0955ull, 0x406d0384f9656cd3ull, 0x406d0388ad2420aeull,
    0x406d03879c82e8baull, 0x40467f6302ad0ba0ull, 0x4001cd87ddaf731dull,
    0x40048ffb8b263952ull, 0x0000000000000000ull, 0x3f847ae147ae1478ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fbb929b1fd4f5afull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3f86872b020c49c2ull, 0x4048dece2c31f560ull, 0x0000000000000000ull,
    0x404f25f0c1ae671cull, 0x40091c4b90214addull, 0x4004c1ffea308ae9ull,
    0x0000000000000000ull, 0x3f889374bc6a7f05ull, 0x4028e570c285e437ull,
    0x0000000000000000ull, 0x4051c096a4175048ull, 0x40032fa284faa630ull,
    0x4003ae19835ec4abull, 0x0000000000000000ull, 0x3f8a9fbe76c8b435ull,
    0x403d69d2278e6bd4ull, 0x0000000000000000ull, 0x404407d88be1835aull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3f8cac083126e971ull, 0x4052d08af0bf60fdull, 0x0000000000000000ull,
    0x4046384425a905cfull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3f8eb851eb851eceull, 0x40547fada4d26ff4ull,
    0x0000000000000000ull, 0x3fdf3e5198e1f629ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x405f8b131e43201full, 0x0000000000000000ull, 0x40498e374d9a5048ull,
    0x3fd15776089ad938ull, 0x40048ffb8b263952ull, 0x0000000000000000ull,
    0x3f647ae147ae147aull, 0x3f747ae147ae4400ull, 0x0000000000000000ull,
    0x3fbeb60646d64dfdull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3f76872b020c49b6ull, 0x4059794b88277ad9ull,
    0x0000000000000000ull, 0x4051194d8fea7ad6ull, 0x3fd880e56dad8286ull,
    0x4004c1ffea308af8ull, 0x0000000000000000ull, 0x3f789374bc6a7effull,
    0x4040a799b53f7edaull, 0x0000000000000000ull, 0x405346ebd32a978aull,
    0x3fd282ef33292239ull, 0x4003ae19835ec4b5ull, 0x0000000000000000ull,
    0x3f7a9fbe76c8b435ull, 0x3f878d4fdf3b7800ull, 0x0000000000000000ull,
    0x40459023dded2b80ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3f7cac083126e981ull, 0x403ab8288468d404ull,
    0x0000000000000000ull, 0x4047c08f77b4adf5ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3f7eb851eb851eb7ull,
    0x3f8999999999bc00ull, 0x0000000000000000ull, 0x3fe09a3a48a166acull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3f70624dd2f1a9fcull, 0x404765c50ea83a2eull, 0x0000000000000000ull,
    0x403bf54bd19de1acull, 0x4009fa8a75396803ull, 0x40048ffb8b263951ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x4057a4aaf32afb7cull, 0x3fb096a41750408eull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x40540a8f5fc732e0ull, 0x40424bfe34e7576eull,
    0x40125fa658c4bd35ull, 0x4004c1ffea308ae6ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x40093282c628aac0ull,
    0x4044799c7827741eull, 0x400bc23315d701d9ull, 0x4003ae19835ec4b4ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3faf548ecd8de800ull, 0x4036c45f0c1ae675ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x4038281b62839310ull, 0x4038f4caa5e268edull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x4040971399550c79ull,
    0x3fd15f7ee11096a5ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x404cee0b8a58263dull, 0x406d0388ad2420aeull, 0x408606be4c32cb78ull,
    0x4045721286eb412full, 0x406d0380b2d9c23bull, 0x406d038412b59ff2ull,
    0x406d0384519fc08cull, 0x406d0387db6d0955ull, 0x406d0384f9656cd3ull,
    0x406d0388ad2420aeull, 0x406d03879c82e8baull, 0x231bea448b4723b7ull,
    0xe0b8c4e95ef6d86bull,
};

const std::vector<std::uint64_t> kNonuniformBits = {
    0x40550d97737e1254ull, 0x406fb7ca593ee78eull, 0x4031280ed255cdbeull,
    0x40550d877ee9556eull, 0x40550d8e3ea110dbull, 0x40550d8ebc755211ull,
    0x40550d95d00fe3a2ull, 0x40550d900c00aa9full, 0x40550d97737e1254ull,
    0x40550d95523ba26dull,
};

const std::vector<std::uint64_t> kCollective5Bits = {
    0x3fe15aa1d755bcc8ull, 0x3ffbab020c49ba5full, 0x3fb0555a1bf7a4b4ull,
    0x3fe157718bb37ceeull, 0x3fe15909e7348211ull, 0x3fe159138ccfb1acull,
    0x3fe15aa1d755bcc8ull, 0x3fe1582916a4b225ull, 0x3fd999999999999aull,
    0x3fa464a672c5f03aull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3f5b538309e02700ull,
    0x3fd0333333333333ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fc822d54211477aull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fdc44b11f723627ull, 0x3fd5d70a3d70a3d7ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fb9c2baa52cf5a8ull,
    0x3fd9eb851eb851ecull, 0x3f988c1b8a52b25dull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3f89d2ab77d740a0ull, 0x3fb999999999999aull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3f3beb18116eb800ull, 0x3faf1a9fbe76c8b5ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fa4511012f2a0e0ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fb9b5d7e8b4b4c4ull, 0x3fb3f7ced916872bull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3f96f9711a9f6840ull, 0x3fb753f7ced91686ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3f830f00cedcf240ull,
    0x3fe15aa1d755bcc8ull, 0x3ffbab020c49ba5full, 0x3fb0555a1bf7a4b4ull,
    0x3fe157718bb37ceeull, 0x3fe15909e7348211ull, 0x3fe159138ccfb1acull,
    0x3fe15aa1d755bcc8ull, 0x3fe1582916a4b225ull, 0xee14f88b8f41c248ull,
    0x8201e7bcd30a9999ull, 0x3ff15909b1849cdbull, 0x400bab020c49ba5full,
    0x3fc0555a1bf7a4b4ull, 0x3ff157718bb37ceeull, 0x3ff1583db973ff80ull,
    0x3ff158428c41974dull, 0x3ff15909b1849cdbull, 0x3ff157cd512c178aull,
    0x3fe999999999999aull, 0x3fb464a672c5f03aull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3f6b538309e02700ull, 0x3fe0333333333333ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fd81fa48b0f3d34ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fec430f1e560169ull,
    0x3fe5d70a3d70a3d7ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fc9b5f976a3f640ull, 0x3fe9eb851eb851ecull, 0x3fa88c1b8a52b25dull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3f99bbba19b099c0ull, 0x3fc999999999999aull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3f4beb18116eb800ull,
    0x3fbf1a9fbe76c8b5ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fb4511012f2a0e0ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fc9b5d7e8b4b4c4ull, 0x3fc3f7ced916872bull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fa6f9711a9f6840ull,
    0x3fc753f7ced91686ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3f930f00cedcf240ull, 0x3ff15909b1849cdbull, 0x400bab020c49ba5full,
    0x3fc0555a1bf7a4b4ull, 0x3ff157718bb37ceeull, 0x3ff1583db973ff80ull,
    0x3ff158428c41974dull, 0x3ff15909b1849cdbull, 0x3ff157cd512c178aull,
    0xf8e43a5e6f7d9ea3ull, 0x8201e7bcd30a9999ull, 0x3ffa04c2775e5b52ull,
    0x4014c04189374bc7ull, 0x3fc8800729f3770eull, 0x3ffa032a518d3b65ull,
    0x3ffa03f67f4dbdf6ull, 0x3ffa03fb521b55c4ull, 0x3ffa04c2775e5b52ull,
    0x3ffa03861705d600ull, 0x3ff3333333333334ull, 0x3fbe96f9ac28e857ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3f747ea247681d40ull, 0x3fe84cccccccccccull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fe216ef3a8aeb56ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3ff531e2d67973dfull, 0x3ff06147ae147ae1ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fd3454acd58b8d6ull, 0x3ff370a3d70a3d71ull,
    0x3fb26914a7be05c6ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fa3470f3bbac998ull,
    0x3fd3333333333334ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3f54f0520d130a00ull, 0x3fc753f7ced91688ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fbe79981c6bf150ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fd34861ee878793ull,
    0x3fcdf3b645a1cac0ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fb13b14d3f78e30ull, 0x3fd17ef9db22d0e4ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3f9c9681364b6b60ull, 0x3ffa04c2775e5b52ull,
    0x4014c04189374bc7ull, 0x3fc8800729f3770eull, 0x3ffa032a518d3b65ull,
    0x3ffa03f67f4dbdf6ull, 0x3ffa03fb521b55c4ull, 0x3ffa04c2775e5b52ull,
    0x3ffa03861705d600ull, 0xc67e30e335a267feull, 0x8201e7bcd30a9999ull,
    0x402b18d46f029734ull, 0x40459d999999999aull, 0x3ff9855ccbb2f155ull,
    0x402b18a16a487336ull, 0x402b18baf0008388ull, 0x402b18bb8a5a3682ull,
    0x402b18d46f029734ull, 0x402b18ace2f78689ull, 0x4024000000000002ull,
    0x3fefdd441355475eull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fa5593e5fb71e78ull,
    0x40194ffffffffffdull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x4012d66d891a706eull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x402613375ee6eb30ull, 0x40210ffffffffffeull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x40040d000b3da0d3ull,
    0x4024400000000000ull, 0x3fe32d7584109b5aull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fd40a2be866302dull, 0x4004000000000002ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3f85cfaacd9e7fc0ull, 0x3ff84ccccccccccfull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fefbea91d9b1b5eull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x40041610adcd2d37ull, 0x3fff333333333336ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fe1f2e05ccc8972ull, 0x4002399999999997ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fcdc77143393a84ull,
    0x402b18d46f029734ull, 0x40459d999999999aull, 0x3ff9855ccbb2f155ull,
    0x402b18a16a487336ull, 0x402b18baf0008388ull, 0x402b18bb8a5a3682ull,
    0x402b18d46f029734ull, 0x402b18ace2f78689ull, 0x1cf1161c45120928ull,
    0x8201e7bcd30a9999ull,
};

const std::vector<std::uint64_t> kCollective7Bits = {
    0x3fe1a5a74328fde6ull, 0x4003079e9e27368bull, 0x3fb124bc3332c388ull,
    0x3fe1a24aed3cb82full, 0x3fe1a3ed59b8b759ull, 0x3fe1a3f6ff53e6f4ull,
    0x3fe1a58f5ad4ec17ull, 0x3fe1a418f8a2f2caull, 0x3fe1a5a74328fde6ull,
    0x3fe1a51c02ee7b34ull, 0x3fda4316f3a43170ull, 0x3fa0080ae662f5efull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3f627191e8a03c00ull, 0x3fd047dc11f7047eull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fc8489edb00bebaull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fdc6c3ecaadc312ull, 0x3fd59d31674c59d4ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fbb48a532842198ull, 0x3fda0c934ff1a0caull,
    0x3f90aab6e72125aeull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3f95543fee8279c0ull,
    0x3fc8b3a62ce98b3aull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fd015b76e20c03eull, 0x3fcee08fb823ee09ull, 0x3f93d82418e3fc95ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fc78153cd00934eull, 0x3fba4316f3a43170ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3f72b52a53a4d700ull,
    0x3faf424a5feec0f3ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fa79b2f3fe195c0ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fbb6ebccfe82b58ull, 0x3fb3c2eb57213c2full,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3f9eb092bf426e80ull,
    0x3fb771b7c7f310b5ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3f8fe8283fa8d4c0ull, 0x3fb8b3a62ce98b3aull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3f85db4ed0426440ull, 0x3fbb2c0397cdb2c0ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3f50c31bc9094400ull,
    0x3fe1a5a74328fde6ull, 0x4003079e9e27368bull, 0x3fb124bc3332c388ull,
    0x3fe1a24aed3cb82full, 0x3fe1a3ed59b8b759ull, 0x3fe1a3f6ff53e6f4ull,
    0x3fe1a58f5ad4ec17ull, 0x3fe1a418f8a2f2caull, 0x3fe1a5a74328fde6ull,
    0x3fe1a51c02ee7b34ull, 0x10681ed80ce136ebull, 0xffa24917e2faf49eull,
    0x3ff1a3f91832db0aull, 0x4013079e9e27368bull, 0x3fc124bc3332c388ull,
    0x3ff1a24aed3cb82full, 0x3ff1a31c237ab7c4ull, 0x3ff1a320f6484f92ull,
    0x3ff1a3ed2408d223ull, 0x3ff1a331f2efd57cull, 0x3ff1a3f91832db0aull,
    0x3ff1a3b3781599b2ull, 0x3fea4316f3a43170ull, 0x3fb0080ae662f5efull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3f727191e8a03c00ull, 0x3fe047dc11f7047eull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fd8455a0208c066ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fec6a92b896944dull, 0x3fe59d31674c59d4ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fcb3b937c2351f8ull, 0x3fea0c934ff1a0caull,
    0x3fa0aab6e72125aeull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fa5375f381ed010ull,
    0x3fd8b3a62ce98b3aull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fe0125b18347a87ull, 0x3fdee08fb823ee09ull, 0x3fa3d82418e3fc95ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fd77bb1a19d0d44ull, 0x3fca4316f3a43170ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3f82b52a53a4d700ull,
    0x3fbf424a5feec0f3ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fb79b2f3fe195c0ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fcb6ebccfe82b58ull, 0x3fc3c2eb57213c2full,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3faeb092bf426e80ull,
    0x3fc771b7c7f310b5ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3f9fe8283fa8d4c0ull, 0x3fc8b3a62ce98b3aull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3f95db4ed0426440ull, 0x3fcb2c0397cdb2c0ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3f60c31bc9094400ull,
    0x3ff1a3f91832db0aull, 0x4013079e9e27368bull, 0x3fc124bc3332c388ull,
    0x3ff1a24aed3cb82full, 0x3ff1a31c237ab7c4ull, 0x3ff1a320f6484f92ull,
    0x3ff1a3ed2408d223ull, 0x3ff1a331f2efd57cull, 0x3ff1a3f91832db0aull,
    0x3ff1a3b3781599b2ull, 0xf3c62ba376ad93cbull, 0xffa24917e2faf49eull,
    0x3ffa751e8ed13722ull, 0x401c8b6ded3ad1d0ull, 0x3fc9b71a4ccc254cull,
    0x3ffa737063db1446ull, 0x3ffa74419a1913dcull, 0x3ffa74466ce6aba9ull,
    0x3ffa75129aa72e3aull, 0x3ffa7457698e3194ull, 0x3ffa751e8ed13722ull,
    0x3ffa74d8eeb3f5c9ull, 0x3ff3b25136bb2514ull, 0x3fb80c10599470e6ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3f7baa5adcf05a00ull, 0x3fe86bca1af286bdull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fe233324b4890b8ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3ff54f8305eb2388ull, 0x3ff035e50d79435full, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fd4696a2f824992ull, 0x3ff3896e7bf53898ull,
    0x3fa900125ab1b885ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fafc49e78fc6340ull,
    0x3fe286bca1af286cull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fe819da795894efull, 0x3fe7286bca1af287ull, 0x3fadc4362555fae0ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fe19b5cae5ce870ull, 0x3fd3b25136bb2514ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3f8c0fbf7d774280ull,
    0x3fc771b7c7f310b6ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fc1b4636fe93050ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fd4930d9bee2082ull, 0x3fcda46102b1da46ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fb7046e0f71d2e0ull,
    0x3fd19549d5f64c88ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fa7ee1e2fbe9f90ull, 0x3fd286bca1af286cull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fa0647b1c31cb30ull, 0x3fd46102b1da4610ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3f6924a9ad8de600ull,
    0x3ffa751e8ed13722ull, 0x401c8b6ded3ad1d0ull, 0x3fc9b71a4ccc254cull,
    0x3ffa737063db1446ull, 0x3ffa74419a1913dcull, 0x3ffa74466ce6aba9ull,
    0x3ffa75129aa72e3aull, 0x3ffa7457698e3194ull, 0x3ffa751e8ed13722ull,
    0x3ffa74d8eeb3f5c9ull, 0x62e9844294404cfeull, 0xffa24917e2faf49eull,
    0x402b8dcad80da425ull, 0x404dbbe7d71d453cull, 0x3ffac9660fff5180ull,
    0x402b8d9512aedfcaull, 0x402b8daf39769fbdull, 0x402b8dafd3d052b6ull,
    0x402b8dc959886308ull, 0x402b8db1f3654374ull, 0x402b8dcad80da425ull,
    0x402b8dc22409fbfaull, 0x40248469ee5846a2ull, 0x3fe90c9107faa046ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3facd173fb7a5dc0ull, 0x40197047dc11f707ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x4012f3d4d5a49784ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x4026320ef334fa3bull, 0x4020e2ce98b3a62cull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x40053d267de602d2ull, 0x402459d31674c59eull,
    0x3fda0abdc923cae2ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fe07e80e0c07096ull,
    0x40134c59d31674c7ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x401917d99a4e5b3cull, 0x40181f7047dc11f6ull, 0x3fdf01b866e43aa6ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x4012549637132a08ull, 0x40048469ee5846a2ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fbd3b1222b18ff0ull,
    0x3ff86bca1af286c0ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3ff2713ce9e83cfeull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x40056e83826d61e0ull, 0x3ffee08fb823ee0aull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fe7f9f2a56be654ull,
    0x400250d79435e50dull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fd8ed5f71bbe636ull, 0x40034c59d31674c7ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fd1135592b3de52ull, 0x40053a62ce98b3a6ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3f9a30db6a1e7a40ull,
    0x402b8dcad80da425ull, 0x404dbbe7d71d453cull, 0x3ffac9660fff5180ull,
    0x402b8d9512aedfcaull, 0x402b8daf39769fbdull, 0x402b8dafd3d052b6ull,
    0x402b8dc959886308ull, 0x402b8db1f3654374ull, 0x402b8dcad80da425ull,
    0x402b8dc22409fbfaull, 0xb95c697ba3afee28ull, 0xffa24917e2faf49eull,
};

const std::vector<std::uint64_t> kCollective12Bits = {
    0x3fe4193cf2a4a2b6ull, 0x40122f0068db8bacull, 0x3fb0740774fa8f0eull,
    0x3fe414073e37c91aull, 0x3fe415c2d5273954ull, 0x3fe415cc7ac268f0ull,
    0x3fe4177e00b6df24ull, 0x3fe415ee741174c6ull, 0x3fe41795e90af0f3ull,
    0x3fe4179f8ea62090ull, 0x3fe4193cf2a4a2b6ull, 0x3fe415ac2ef286c6ull,
    0x3fe4173f81f60ee5ull, 0x3fe4174927913e81ull, 0x3fe418d26999cc9aull,
    0x3fdcac083126e97aull, 0x3f940ec0373d2e09ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3f70d8fb59522b00ull, 0x3fd07ae147ae147bull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fcb71b274dccbc6ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fde33cdcd52d995ull,
    0x3fd50e5604189376ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fc2518c0ec18ed0ull, 0x3fda5e353f7ced92ull, 0x3f879dbca51d977cull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fa8c774da58b7b0ull, 0x3fc810624dd2f1aaull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fd22f1ab53805abull,
    0x3fce147ae147ae14ull, 0x3f84539f0e7893bbull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fcd15097c80841eull, 0x3fd3c6a7ef9db22eull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fc4e7ba63e9896eull, 0x3fd50e5604189376ull,
    0x3f81cec5b18bb9eeull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fc12d82081c47f8ull,
    0x3fd810624dd2f1aaull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fb898f3009322e0ull, 0x3fca5e353f7ced92ull, 0x3f8dc299d438373bull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fd01982eacde116ull, 0x3fce147ae147ae14ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fce5ee53db1e744ull,
    0x3fbcac083126e97aull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fa665a2712e9670ull, 0x3fafa43fe5c91d16ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fb80d0cade352a0ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fc3ef965063f096ull,
    0x3fb3404ea4a8c155ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fb49f313328cc50ull, 0x3fb7bb2fec56d5cfull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fb023fcb4710b50ull, 0x3fb810624dd2f1aaull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3faf9e3b13fd37e0ull,
    0x3fba786c226809d4ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3faace276ad307a0ull, 0x3fbfa43fe5c91d16ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fa0772652243a10ull, 0x3fbf487fcb923a2aull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fa12d59aa6b4e00ull,
    0x3fc0d844d013a92bull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3f98bbd8dea8ed20ull, 0x3fc3c6a7ef9db22eull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3f548bfe258a5200ull, 0x3fc3404ea4a8c155ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3f75f35c589b7780ull,
    0x3fe4193cf2a4a2b6ull, 0x40122f0068db8bacull, 0x3fb0740774fa8f0eull,
    0x3fe414073e37c91aull, 0x3fe415c2d5273954ull, 0x3fe415cc7ac268f0ull,
    0x3fe4177e00b6df24ull, 0x3fe415ee741174c6ull, 0x3fe41795e90af0f3ull,
    0x3fe4179f8ea62090ull, 0x3fe4193cf2a4a2b6ull, 0x3fe415ac2ef286c6ull,
    0x3fe4173f81f60ee5ull, 0x3fe4174927913e81ull, 0x3fe418d26999cc9aull,
    0x15b0a0d88ffc85f8ull, 0xa62f340c20a773f6ull, 0x3ff416a2186e35e8ull,
    0x40222f0068db8bacull, 0x3fc0740774fa8f0eull, 0x3ff414073e37c91aull,
    0x3ff414e509af8137ull, 0x3ff414e9dc7d1905ull, 0x3ff415c29f77541full,
    0x3ff414fad9249ef0ull, 0x3ff415ce93a15d06ull, 0x3ff415d3666ef4d5ull,
    0x3ff416a2186e35e8ull, 0x3ff414d9b69527f0ull, 0x3ff415a36016ec00ull,
    0x3ff415a832e483ceull, 0x3ff4166cd3e8cadaull, 0x3fecac083126e97aull,
    0x3fa40ec0373d2e09ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3f80d8fb59522b00ull,
    0x3fe07ae147ae147bull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fdb6e3b46fdeb52ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fee320890c839bfull, 0x3fe50e5604189376ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fd24a9e89c362bcull,
    0x3fea5e353f7ced92ull, 0x3f979dbca51d977cull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fb8b83b2b8b5a50ull, 0x3fd810624dd2f1aaull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fe22b8c0a64ddd2ull, 0x3fde147ae147ae14ull,
    0x3f94539f0e7893bbull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fdd0dd8dba3d532ull,
    0x3fe3c6a7ef9db22eull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fd4dd4efb0fd636ull, 0x3fe50e5604189376ull, 0x3f91cec5b18bb9eeull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fd12a3826a6cca0ull, 0x3fe810624dd2f1aaull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fc88c11f19a0bb4ull,
    0x3fda5e353f7ced92ull, 0x3f9dc299d438373bull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fe0164101746bafull, 0x3fde147ae147ae14ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fde554ee6ede044ull, 0x3fccac083126e97aull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fb665a2712e9670ull,
    0x3fbfa43fe5c91d16ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fc80d0cade352a0ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fd3ef965063f096ull, 0x3fc3404ea4a8c155ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fc49f313328cc50ull,
    0x3fc7bb2fec56d5cfull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fc023fcb4710b50ull, 0x3fc810624dd2f1aaull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fbf9e3b13fd37e0ull, 0x3fca786c226809d4ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fbace276ad307a0ull,
    0x3fcfa43fe5c91d16ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fb0772652243a10ull, 0x3fcf487fcb923a2aull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fb12d59aa6b4e00ull, 0x3fd0d844d013a92bull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fa8bbd8dea8ed20ull,
    0x3fd3c6a7ef9db22eull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3f648bfe258a5200ull, 0x3fd3404ea4a8c155ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3f85f35c589b7780ull, 0x3ff416a2186e35e8ull,
    0x40222f0068db8bacull, 0x3fc0740774fa8f0eull, 0x3ff414073e37c91aull,
    0x3ff414e509af8137ull, 0x3ff414e9dc7d1905ull, 0x3ff415c29f77541full,
    0x3ff414fad9249ef0ull, 0x3ff415ce93a15d06ull, 0x3ff415d3666ef4d5ull,
    0x3ff416a2186e35e8ull, 0x3ff414d9b69527f0ull, 0x3ff415a36016ec00ull,
    0x3ff415a832e483ceull, 0x3ff4166cd3e8cadaull, 0x5c56d43846ffa1eeull,
    0xa62f340c20a773f6ull, 0x3ffe20a5b78a1a75ull, 0x402b46809d495182ull,
    0x3fc8ae0b2f77d695ull, 0x3ffe1e0add53ada7ull, 0x3ffe1ee8a8cb65c4ull,
    0x3ffe1eed7b98fd92ull, 0x3ffe1fc63e9338acull, 0x3ffe1efe7840837dull,
    0x3ffe1fd232bd4194ull, 0x3ffe1fd7058ad962ull, 0x3ffe20a5b78a1a75ull,
    0x3ffe1edd55b10c7dull, 0x3ffe1fa6ff32d08cull, 0x3ffe1fabd200685aull,
    0x3ffe20707304af67ull, 0x3ff5810624dd2f1cull, 0x3fae162052dbc50eull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3f89457905fb4080ull, 0x3fe8b851eb851eb8ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fe491cea9c6b860ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3ff6a5151d73835aull, 0x3fef95810624dd31ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fdb6c770c25fe10ull, 0x3ff3c6a7ef9db22eull,
    0x3fa1b64d7bd6319dull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fc2865df4f52c64ull,
    0x3fe20c49ba5e3540ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3feb3f8aba2db8ceull, 0x3fe68f5c28f5c28full, 0x3f9e7d6e95b4dd98ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fe5c8967c83b42aull, 0x3feda9fbe76c8b45ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fdf46c0c42ae7b5ull,
    0x3fef95810624dd31ull, 0x3f9ab6288a5196e5ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fd9bdaf493f7544ull, 0x3ff20c49ba5e3540ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fd265d5317542fcull, 0x3fe3c6a7ef9db22eull,
    0x3fa651f35f2a296cull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fe81fc08d81e6d3ull,
    0x3fe68f5c28f5c28full, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fe6bd9597816673ull, 0x3fd5810624dd2f1cull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fc0cc39d4e2f0d4ull, 0x3fc7bb2fec56d5d0ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fd209c9826a7df8ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fdde7617895e8e1ull, 0x3fcce075f6fd2200ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fceeec9ccbd3278ull, 0x3fd1cc63f141205bull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fc835fb0ea990f8ull,
    0x3fd20c49ba5e3540ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fc7b6ac4efde9e8ull, 0x3fd3da5119ce075full, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fc41a9d901e45b8ull, 0x3fd7bb2fec56d5d0ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fb8b2b97b365718ull,
    0x3fd7765fd8adaba0ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fb9c4067fa0f500ull, 0x3fd94467381d7dc0ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fb28ce2a6feb1d8ull, 0x3fdda9fbe76c8b45ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3f6ed1fd384f7b00ull,
    0x3fdce075f6fd2200ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3f907685427499a0ull, 0x3ffe20a5b78a1a75ull, 0x402b46809d495182ull,
    0x3fc8ae0b2f77d695ull, 0x3ffe1e0add53ada7ull, 0x3ffe1ee8a8cb65c4ull,
    0x3ffe1eed7b98fd92ull, 0x3ffe1fc63e9338acull, 0x3ffe1efe7840837dull,
    0x3ffe1fd232bd4194ull, 0x3ffe1fd7058ad962ull, 0x3ffe20a5b78a1a75ull,
    0x3ffe1edd55b10c7dull, 0x3ffe1fa6ff32d08cull, 0x3ffe1fabd200685aull,
    0x3ffe20707304af67ull, 0xf00d2012c7194ff1ull, 0xa62f340c20a773f6ull,
    0x402f5f9eac7df7d5ull, 0x405c6970a3d70a41ull, 0x3ff9b54ba6c77f88ull,
    0x402f5f4b51372a3cull, 0x402f5f670aa6213full, 0x402f5f67a4ffd439ull,
    0x402f5f82bd5f1b9cull, 0x402f5f69c494c4f6ull, 0x402f5f843be45cb9ull,
    0x402f5f84d63e0fb3ull, 0x402f5f9eac7df7d5ull, 0x402f5f65a042d616ull,
    0x402f5f7ed5730e98ull, 0x402f5f7f6fccc192ull, 0x402f5f9803ed4a74ull,
    0x402666666666666aull, 0x3fdf570c564f97f3ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fba5308bb906330ull, 0x4019c00000000002ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x40156ba0a67e2e86ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x402795d0ed98ca3bull,
    0x4020733333333333ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x400c8aa24813eae4ull, 0x402499999999999cull, 0x3fd2733b60ff1e5bull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3ff344fcc4614374ull, 0x4012cccccccccccdull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x401c5eedbaae1154ull,
    0x4017800000000001ull, 0x3fcfc2a8869c66d7ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x4016ada677f960d3ull, 0x401ee6666666666aull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x4010456880c7e68bull, 0x4020733333333333ull,
    0x3fcbd314e56a5286ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x400acd3d884bbe66ull,
    0x4022cccccccccccdull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x4003242c41fd507aull, 0x401499999999999cull, 0x3fd740082dcbeb28ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x40191e16d2d54f7aull, 0x4017800000000001ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x4017abc1960cf22bull,
    0x400666666666666aull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3ff17f66e86c6588ull, 0x3ff8b851eb851ebbull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x4002ca31e7d9988dull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x400f265add9c27e7ull,
    0x3ffe147ae147ae12ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x40001c5e6ff7df9eull, 0x40028a3d70a3d708ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3ff9383ad9f0a1adull, 0x4002cccccccccccdull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3ff8b39e279dd3a7ull,
    0x4004ae147ae147aeull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3ff4f10ecb74ddf5ull, 0x4008b851eb851ebbull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fe9ba2be0589ab9ull, 0x400870a3d70a3d6full,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fead6dc1a47a9e0ull,
    0x400a51eb851eb855ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x3fe352c16df3f941ull, 0x400ee6666666666aull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x3fa00d5e8d541010ull, 0x400e147ae147ae12ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
    0x0000000000000000ull, 0x0000000000000000ull, 0x3fc126202539755cull,
    0x402f5f9eac7df7d5ull, 0x405c6970a3d70a41ull, 0x3ff9b54ba6c77f88ull,
    0x402f5f4b51372a3cull, 0x402f5f670aa6213full, 0x402f5f67a4ffd439ull,
    0x402f5f82bd5f1b9cull, 0x402f5f69c494c4f6ull, 0x402f5f843be45cb9ull,
    0x402f5f84d63e0fb3ull, 0x402f5f9eac7df7d5ull, 0x402f5f65a042d616ull,
    0x402f5f7ed5730e98ull, 0x402f5f7f6fccc192ull, 0x402f5f9803ed4a74ull,
    0xba4159b859c06aa7ull, 0xa62f340c20a773f6ull,
};

TEST(GoldenBits, MixedSectionsCoverTheirCases) {
  const ProgramStructure program = mixed_program();
  // Out of core in several blocks per pipeline tile and per whole stage.
  for (const int r : {0, 2}) {
    const ooc::NodePlan np = plan(program, kMixedCounts[r], kSmallMemory);
    EXPECT_TRUE(np.array("A").out_of_core);
    EXPECT_TRUE(np.array("B").out_of_core);
    EXPECT_FALSE(np.array("C").out_of_core);
    EXPECT_GT(kMixedCounts[r] / 4, np.array("A").icla_rows);
    EXPECT_GT(kMixedCounts[r] / 4, np.array("B").icla_rows);
  }
  // In core despite little memory, and fewer rows than tiles.
  EXPECT_FALSE(plan(program, kMixedCounts[1], kSmallMemory).any_out_of_core());
  EXPECT_LT(kMixedCounts[1], 4);
  for (const int r : {4, 5, 6})
    EXPECT_FALSE(
        plan(program, kMixedCounts[r], kLargeMemory).any_out_of_core());
}

TEST(GoldenBits, MixedSections) {
  const ProgramStructure program = mixed_program();
  const dist::GenBlock d(kMixedCounts);
  for (const ModelOptions& options : {ModelOptions{}, naive_options()}) {
    const Predictor p(program, mixed_params(kMixedNodes, program),
                      kMixedMemory, options);
    const Observed got = observe(p, d);
    expect_pinned(got, kMixedBits, options.steady_state_shortcut);
  }
}

TEST(GoldenBits, NonuniformScales) {
  // Scale changes rebuild the stage tables mid-run; runs of equal scales
  // take the shortcut, the final run included.
  const ProgramStructure program = mixed_program();
  const dist::GenBlock d(kMixedCounts);
  const std::vector<double> scales = {1, 1, 1, 0.5, 0.5, 0.5, 0.5, 2, 1, 1};
  for (const ModelOptions& options : {ModelOptions{}, naive_options()}) {
    const Predictor p(program, mixed_params(kMixedNodes, program),
                      kMixedMemory, options);
    Observed got;
    got.add_prediction("", p.predict_nonuniform(d, scales));
    expect_pinned(got, kNonuniformBits);
  }
}

TEST(GoldenBits, CollectivesAtUnevenNodeCounts) {
  const ProgramStructure program = collective_program();
  const std::pair<int, const std::vector<std::uint64_t>*> cases[] = {
      {5, &kCollective5Bits}, {7, &kCollective7Bits}, {12, &kCollective12Bits}};
  for (const auto& [n, want] : cases) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto counts = collective_counts(n);
    const auto memory = collective_memory(n);
    EXPECT_TRUE(plan(program, counts[0], memory[0]).any_out_of_core());
    EXPECT_FALSE(plan(program, counts[1], memory[1]).any_out_of_core());
    const dist::GenBlock d(counts);
    for (const ModelOptions& options : {ModelOptions{}, naive_options()}) {
      const Predictor p(program, collective_params(n, program), memory,
                        options);
      const Observed got = observe(p, d);
      expect_pinned(got, *want, options.steady_state_shortcut);
    }
  }
}

}  // namespace
}  // namespace mheta::core
