#include "search/search.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "util/check.hpp"
#include "util/lru.hpp"
#include "util/rng.hpp"

namespace mheta::search {

namespace {

/// FNV-1a over the raw count words; collisions only cost a (correct) probe
/// of the unordered_map's equality check.
struct CountsHash {
  std::size_t operator()(const std::vector<std::int64_t>& counts) const {
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const std::int64_t c : counts) {
      auto v = static_cast<std::uint64_t>(c);
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFFu;
        h *= 0x100000001B3ull;
      }
    }
    return static_cast<std::size_t>(h);
  }
};

}  // namespace

struct CachingObjective::State {
  explicit State(std::size_t capacity) : cache(capacity) {}

  std::mutex mu;
  util::LruCache<std::vector<std::int64_t>, double, CountsHash> cache;
  std::size_t hits = 0;
  std::size_t misses = 0;
  // Resolved once at construction when a registry is installed; the metric
  // updates themselves are atomic.
  obs::Counter* hit_counter = nullptr;
  obs::Counter* miss_counter = nullptr;
  obs::Counter* eval_counter = nullptr;
};

CachingObjective::CachingObjective(Objective objective, std::size_t capacity,
                                   obs::MetricsRegistry* metrics)
    : objective_(std::move(objective)),
      state_(std::make_shared<State>(capacity)) {
  MHETA_CHECK(objective_ != nullptr);
  if (metrics != nullptr) {
    state_->hit_counter = &metrics->counter("objective_cache_hits_total",
                                            "memoized objective cache hits");
    state_->miss_counter = &metrics->counter("objective_cache_misses_total",
                                             "memoized objective cache misses");
    state_->eval_counter =
        &metrics->counter("objective_evaluations_total",
                          "underlying model evaluations (cache misses)");
  }
}

double CachingObjective::operator()(const dist::GenBlock& d) const {
  auto key = d.counts();
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (const double* hit = state_->cache.get(key)) {
      ++state_->hits;
      if (state_->hit_counter != nullptr) state_->hit_counter->inc();
      return *hit;
    }
  }
  // Evaluate outside the lock; concurrent misses on one key recompute the
  // same pure value, which is cheaper than serializing every evaluation.
  const double v = objective_(d);
  std::lock_guard<std::mutex> lock(state_->mu);
  ++state_->misses;
  if (state_->miss_counter != nullptr) state_->miss_counter->inc();
  if (state_->eval_counter != nullptr) state_->eval_counter->inc();
  state_->cache.put(std::move(key), v);
  return v;
}

double CachingObjective::hit_rate() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  const std::size_t total = state_->hits + state_->misses;
  return total == 0 ? 0.0
                    : static_cast<double>(state_->hits) /
                          static_cast<double>(total);
}

std::size_t CachingObjective::hits() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->hits;
}

std::size_t CachingObjective::misses() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->misses;
}

BatchObjective::BatchObjective(Objective objective)
    : objective_(std::move(objective)) {
  MHETA_CHECK(objective_ != nullptr);
}

BatchObjective::BatchObjective(Objective objective, util::ThreadPool& pool)
    : objective_(std::move(objective)), pool_(&pool) {
  MHETA_CHECK(objective_ != nullptr);
}

BatchObjective::BatchObjective(Objective objective, BatchFn batch)
    : objective_(std::move(objective)), batch_(std::move(batch)) {
  MHETA_CHECK(objective_ != nullptr);
  MHETA_CHECK(batch_ != nullptr);
}

std::vector<double> BatchObjective::operator()(
    const std::vector<dist::GenBlock>& candidates) const {
  if (batch_ != nullptr && candidates.size() > 1) return batch_(candidates);
  std::vector<double> values(candidates.size());
  if (pool_ != nullptr && candidates.size() > 1) {
    pool_->parallel_for(
        static_cast<std::int64_t>(candidates.size()), [&](std::int64_t i) {
          values[static_cast<std::size_t>(i)] =
              objective_(candidates[static_cast<std::size_t>(i)]);
        });
  } else {
    for (std::size_t i = 0; i < candidates.size(); ++i)
      values[i] = objective_(candidates[i]);
  }
  return values;
}

SpectrumSpace::SpectrumSpace(const dist::DistContext& ctx,
                             cluster::SpectrumKind kind) {
  switch (kind) {
    case cluster::SpectrumKind::kFull:
      anchors_ = {dist::block_dist(ctx), dist::in_core_dist(ctx),
                  dist::in_core_balanced_dist(ctx), dist::balanced_dist(ctx),
                  dist::block_dist(ctx)};
      break;
    case cluster::SpectrumKind::kBlkBal:
      anchors_ = {dist::block_dist(ctx), dist::balanced_dist(ctx)};
      break;
    case cluster::SpectrumKind::kBlkIC:
      anchors_ = {dist::block_dist(ctx), dist::in_core_dist(ctx)};
      break;
  }
}

dist::GenBlock SpectrumSpace::at(double t) const {
  t = std::clamp(t, 0.0, 1.0);
  const double scaled = t * segments();
  const int seg = std::min(segments() - 1, static_cast<int>(scaled));
  const double alpha = scaled - seg;
  return dist::interpolate(anchors_[static_cast<std::size_t>(seg)],
                           anchors_[static_cast<std::size_t>(seg) + 1], alpha);
}

SearchResult gbs(const SpectrumSpace& space, const BatchObjective& objective,
                 const GbsOptions& opts) {
  MHETA_CHECK(opts.fanout >= 3);
  SearchResult result;
  double lo = 0.0, hi = 1.0;
  double best_t = 0.0;
  bool have_best = false;
  double best_time = 0.0;
  std::vector<double> ts;
  std::vector<dist::GenBlock> candidates;
  while (hi - lo > opts.resolution) {
    ts.clear();
    candidates.clear();
    for (int i = 0; i < opts.fanout; ++i) {
      const double t =
          lo + (hi - lo) * static_cast<double>(i) /
                   static_cast<double>(opts.fanout - 1);
      ts.push_back(t);
      candidates.push_back(space.at(t));
    }
    const auto values = objective(candidates);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      ++result.evaluations;
      if (!have_best || values[i] < best_time) {
        have_best = true;
        best_time = values[i];
        best_t = ts[i];
        result.best = candidates[i];
      }
    }
    // Halve the interval around the best position seen so far.
    const double width = (hi - lo) / 2.0;
    lo = std::max(0.0, best_t - width / 2.0);
    hi = std::min(1.0, best_t + width / 2.0);
  }
  result.best_time = best_time;
  return result;
}

SearchResult gbs(const SpectrumSpace& space, const Objective& objective,
                 const GbsOptions& opts) {
  return gbs(space, BatchObjective(objective), opts);
}

SearchResult random_search(const SpectrumSpace& space,
                           const BatchObjective& objective, int samples,
                           std::uint64_t seed) {
  MHETA_CHECK(samples >= 1);
  Rng rng(seed, 0x7A17u);
  SearchResult result;
  std::vector<dist::GenBlock> candidates;
  candidates.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i)
    candidates.push_back(space.at(rng.uniform01()));
  const auto values = objective(candidates);
  bool have_best = false;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    ++result.evaluations;
    if (!have_best || values[i] < result.best_time) {
      have_best = true;
      result.best_time = values[i];
      result.best = candidates[i];
    }
  }
  return result;
}

SearchResult random_search(const SpectrumSpace& space,
                           const Objective& objective, int samples,
                           std::uint64_t seed) {
  return random_search(space, BatchObjective(objective), samples, seed);
}

namespace {

/// Moves up to max_move rows from a random donor to a distinct random
/// receiver. Always produces a distribution different from `d` — the donor
/// is the first node with rows at or after a uniformly drawn rank, and the
/// receiver is drawn uniformly from the remaining nodes — or returns
/// nullopt when no move exists (fewer than two nodes, or zero total rows)
/// so callers skip the objective evaluation instead of burning it on a
/// duplicate.
std::optional<dist::GenBlock> neighbor_move(const dist::GenBlock& d,
                                            std::int64_t max_move, Rng& rng) {
  const int n = d.nodes();
  if (n < 2 || d.total() == 0) return std::nullopt;
  auto counts = d.counts();
  int from = static_cast<int>(rng.uniform_int(0, n - 1));
  while (counts[static_cast<std::size_t>(from)] == 0) from = (from + 1) % n;
  int to = static_cast<int>(rng.uniform_int(0, n - 2));
  if (to >= from) ++to;
  const std::int64_t amount = rng.uniform_int(
      1, std::max<std::int64_t>(
             1, std::min(max_move, counts[static_cast<std::size_t>(from)])));
  counts[static_cast<std::size_t>(from)] -= amount;
  counts[static_cast<std::size_t>(to)] += amount;
  return dist::GenBlock(counts);
}

std::int64_t default_move(std::int64_t rows, std::int64_t configured) {
  if (configured > 0) return configured;
  return std::max<std::int64_t>(1, rows / 16);
}

}  // namespace

SearchResult simulated_annealing(const dist::GenBlock& start,
                                 const Objective& objective,
                                 const AnnealOptions& opts,
                                 std::uint64_t seed) {
  Rng rng(seed, 0xA22a1u);
  SearchResult result;
  dist::GenBlock current = start;
  double current_time = objective(current);
  ++result.evaluations;
  result.best = current;
  result.best_time = current_time;

  const std::int64_t max_move = default_move(start.total(), opts.max_move_rows);
  const double initial_temperature =
      std::max(1e-300, current_time * opts.initial_temperature_rel);
  double temperature = initial_temperature;
  for (int step = 0; step < opts.steps; ++step) {
    // Move size anneals with the temperature: coarse exploration first,
    // single-row refinement at the end.
    const double scale = std::sqrt(temperature / initial_temperature);
    const std::int64_t move = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(static_cast<double>(max_move) * scale));
    const auto candidate = neighbor_move(current, move, rng);
    if (candidate) {
      const double v = objective(*candidate);
      ++result.evaluations;
      const double delta = v - current_time;
      if (delta <= 0 || (temperature > 0 &&
                         rng.uniform01() < std::exp(-delta / temperature))) {
        current = *candidate;
        current_time = v;
        if (v < result.best_time) {
          result.best_time = v;
          result.best = current;
        }
      }
    }
    temperature *= opts.cooling;
  }
  return result;
}

SearchResult hill_climb(const dist::GenBlock& start,
                        const BatchObjective& objective,
                        const HillClimbOptions& opts, std::uint64_t seed) {
  MHETA_CHECK(opts.neighbors >= 1);
  Rng rng(seed, 0x41C1u);
  SearchResult result;
  result.best = start;
  result.best_time = objective(start);
  ++result.evaluations;
  // Variable-neighborhood descent: exhaust improvements at a coarse move
  // scale, then refine; a plain fixed-scale climber stalls on the
  // discontinuous I/O landscape.
  const std::int64_t max_move = default_move(start.total(), opts.max_move_rows);
  std::vector<dist::GenBlock> candidates;
  int rounds = 0;
  for (std::int64_t scale = max_move; scale >= 1; scale /= 4) {
    bool improving = true;
    while (improving && rounds < opts.max_rounds) {
      ++rounds;
      improving = false;
      candidates.clear();
      for (int k = 0; k < opts.neighbors; ++k) {
        if (auto candidate = neighbor_move(result.best, scale, rng))
          candidates.push_back(std::move(*candidate));
      }
      const auto values = objective(candidates);
      dist::GenBlock best_neighbor = result.best;
      double best_time = result.best_time;
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        ++result.evaluations;
        if (values[i] < best_time) {
          best_time = values[i];
          best_neighbor = candidates[i];
        }
      }
      if (best_time < result.best_time) {
        result.best = best_neighbor;
        result.best_time = best_time;
        improving = true;
      }
    }
    if (scale == 1) break;
  }
  return result;
}

SearchResult hill_climb(const dist::GenBlock& start, const Objective& objective,
                        const HillClimbOptions& opts, std::uint64_t seed) {
  return hill_climb(start, BatchObjective(objective), opts, seed);
}

SearchResult tabu_search(const dist::GenBlock& start,
                         const BatchObjective& objective,
                         const TabuOptions& opts, std::uint64_t seed) {
  MHETA_CHECK(opts.neighbors >= 1 && opts.tabu_tenure >= 1);
  Rng rng(seed, 0x7ABu);
  SearchResult result;
  dist::GenBlock current = start;
  double current_time = objective(current);
  ++result.evaluations;
  result.best = current;
  result.best_time = current_time;
  const std::int64_t max_move = default_move(start.total(), opts.max_move_rows);

  // Tenure-bounded ring of recently accepted distributions with a hashed
  // O(1) membership test: the ring orders evictions, the map (keyed on the
  // full counts vector under the FNV-1a digest, so equality stays exact)
  // answers is_tabu without the old O(tenure * nodes) linear scan. Values
  // count ring occurrences — re-accepting a distribution inside its tenure
  // must not un-tabu it when the older ring entry expires.
  std::deque<std::vector<std::int64_t>> tabu_ring;
  std::unordered_map<std::vector<std::int64_t>, int, CountsHash> tabu_set;
  auto is_tabu = [&](const dist::GenBlock& d) {
    return tabu_set.find(d.counts()) != tabu_set.end();
  };
  auto tabu_insert = [&](std::vector<std::int64_t> counts) {
    ++tabu_set[counts];
    tabu_ring.push_back(std::move(counts));
    if (static_cast<int>(tabu_ring.size()) > opts.tabu_tenure) {
      auto it = tabu_set.find(tabu_ring.front());
      if (--it->second == 0) tabu_set.erase(it);
      tabu_ring.pop_front();
    }
  };
  tabu_insert(current.counts());

  std::vector<dist::GenBlock> candidates;
  for (int step = 0; step < opts.steps; ++step) {
    candidates.clear();
    for (int k = 0; k < opts.neighbors; ++k) {
      auto candidate = neighbor_move(current, max_move, rng);
      // Skipped, not evaluated.
      if (!candidate || is_tabu(*candidate)) continue;
      candidates.push_back(std::move(*candidate));
    }
    const auto values = objective(candidates);
    bool found = false;
    dist::GenBlock best_neighbor = current;
    double best_time = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      ++result.evaluations;
      if (!found || values[i] < best_time) {
        found = true;
        best_time = values[i];
        best_neighbor = candidates[i];
      }
    }
    if (!found) break;  // every sampled neighbor tabu
    current = best_neighbor;  // accept even if worse (tabu escape)
    current_time = best_time;
    tabu_insert(current.counts());
    if (current_time < result.best_time) {
      result.best_time = current_time;
      result.best = current;
    }
  }
  return result;
}

SearchResult tabu_search(const dist::GenBlock& start,
                         const Objective& objective, const TabuOptions& opts,
                         std::uint64_t seed) {
  return tabu_search(start, BatchObjective(objective), opts, seed);
}

SearchResult genetic(const dist::DistContext& ctx,
                     const BatchObjective& objective,
                     const GeneticOptions& opts, std::uint64_t seed) {
  MHETA_CHECK(opts.population >= 4);
  Rng rng(seed, 0x6E6Eu);
  const std::int64_t max_move = default_move(ctx.rows, opts.max_move_rows);

  struct Individual {
    dist::GenBlock d;
    double time = 0;
  };
  SearchResult result;

  // Seed the population with the four anchors plus random perturbations.
  // Candidate generation never consumes objective values, so the whole seed
  // population is generated first and evaluated as one batch.
  std::vector<dist::GenBlock> seeds = {
      dist::block_dist(ctx), dist::balanced_dist(ctx), dist::in_core_dist(ctx),
      dist::in_core_balanced_dist(ctx)};
  while (static_cast<int>(seeds.size()) < opts.population) {
    const auto& base = seeds[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(seeds.size()) - 1))];
    if (auto moved = neighbor_move(base, max_move, rng))
      seeds.push_back(std::move(*moved));
    else
      seeds.push_back(base);  // degenerate context; keep the population full
  }
  std::vector<Individual> pop;
  pop.reserve(seeds.size());
  {
    const auto values = objective(seeds);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      ++result.evaluations;
      pop.push_back({std::move(seeds[i]), values[i]});
    }
  }

  auto tournament = [&]() -> const Individual& {
    const auto n = static_cast<std::int64_t>(pop.size()) - 1;
    const auto& a = pop[static_cast<std::size_t>(rng.uniform_int(0, n))];
    const auto& b = pop[static_cast<std::size_t>(rng.uniform_int(0, n))];
    return a.time <= b.time ? a : b;
  };
  auto crossover = [&](const dist::GenBlock& a, const dist::GenBlock& b) {
    std::vector<double> shares(static_cast<std::size_t>(a.nodes()));
    for (int i = 0; i < a.nodes(); ++i) {
      const double w = rng.uniform01();
      shares[static_cast<std::size_t>(i)] =
          w * static_cast<double>(a.count(i)) +
          (1 - w) * static_cast<double>(b.count(i));
    }
    return dist::GenBlock(dist::apportion(shares, a.total()));
  };

  std::vector<dist::GenBlock> children;
  for (int gen = 0; gen < opts.generations; ++gen) {
    std::sort(pop.begin(), pop.end(),
              [](const Individual& a, const Individual& b) {
                return a.time < b.time;
              });
    std::vector<Individual> next(pop.begin(), pop.begin() + 2);  // elitism
    // Offspring depend only on the current generation's fitness, so the
    // whole brood is generated first and evaluated as one batch.
    children.clear();
    while (static_cast<int>(next.size() + children.size()) < opts.population) {
      auto child = crossover(tournament().d, tournament().d);
      if (rng.uniform01() < opts.mutation_rate) {
        if (auto mutated = neighbor_move(child, max_move, rng))
          child = std::move(*mutated);
      }
      children.push_back(std::move(child));
    }
    const auto values = objective(children);
    for (std::size_t i = 0; i < children.size(); ++i) {
      ++result.evaluations;
      next.push_back({std::move(children[i]), values[i]});
    }
    pop = std::move(next);
  }
  const auto best = std::min_element(
      pop.begin(), pop.end(),
      [](const Individual& a, const Individual& b) { return a.time < b.time; });
  result.best = best->d;
  result.best_time = best->time;
  return result;
}

SearchResult genetic(const dist::DistContext& ctx, const Objective& objective,
                     const GeneticOptions& opts, std::uint64_t seed) {
  return genetic(ctx, BatchObjective(objective), opts, seed);
}

SearchResult run_named(const std::string& algorithm,
                       const BatchObjective& objective,
                       const dist::GenBlock& start,
                       const dist::DistContext& ctx,
                       cluster::SpectrumKind spectrum, std::uint64_t seed) {
  if (algorithm == "tabu") return tabu_search(start, objective, {}, seed);
  if (algorithm == "anneal") {
    // Inherently sequential (each candidate depends on the previous
    // accept/reject), so it consumes the scalar entry only.
    const Objective scalar = [&objective](const dist::GenBlock& d) {
      return objective(d);
    };
    return simulated_annealing(start, scalar, {}, seed);
  }
  if (algorithm == "hill") return hill_climb(start, objective, {}, seed);
  if (algorithm == "genetic") return genetic(ctx, objective, {}, seed);
  if (algorithm == "gbs") return gbs(SpectrumSpace(ctx, spectrum), objective);
  if (algorithm == "random")
    return random_search(SpectrumSpace(ctx, spectrum), objective, 64, seed);
  throw CheckError("unknown search algorithm '" + algorithm +
                   "' (expected tabu|gbs|anneal|genetic|random|hill)");
}

}  // namespace mheta::search
