#include "core/walk_engine.h"

#include <algorithm>
#include <future>

#include "util/thread_pool.h"

namespace voteopt::core {

void WalkEngine::Extend(graph::NodeId start, uint32_t horizon, Rng* rng,
                        std::vector<graph::NodeId>* nodes) const {
  graph::NodeId current = start;
  for (uint32_t step = 0; step < horizon; ++step) {
    current = WalkStep(*campaign_, *alias_, current, 0, rng);
    if (current == kWalkStops) break;
    nodes->push_back(current);
  }
}

void WalkEngine::Generate(graph::NodeId start, uint32_t horizon, Rng* rng,
                          std::vector<graph::NodeId>* out) const {
  out->clear();
  out->push_back(start);
  Extend(start, horizon, rng, out);
}

void WalkEngine::GenerateSeeded(uint64_t first_walk, uint64_t count,
                                uint32_t horizon, uint64_t master_seed,
                                WalkBuffer* out) const {
  const uint64_t n = graph_->num_nodes();
  for (uint64_t j = 0; j < count; ++j) {
    Rng rng = SketchWalkRng(master_seed, first_walk + j);
    const auto start = static_cast<graph::NodeId>(rng.UniformInt(n));
    const size_t before = out->nodes.size();
    out->nodes.push_back(start);
    Extend(start, horizon, &rng, &out->nodes);
    out->lengths.push_back(static_cast<uint32_t>(out->nodes.size() - before));
  }
}

double WalkEngine::GenerateWithSeeds(graph::NodeId start, uint32_t horizon,
                                     const std::vector<bool>& is_seed,
                                     Rng* rng) const {
  graph::NodeId current = start;
  // d[S] = 1: the walk is absorbed on reaching a seed, before any draw.
  for (uint32_t step = 0; step < horizon && !is_seed[current]; ++step) {
    const graph::NodeId next = WalkStep(*campaign_, *alias_, current, 0, rng);
    if (next == kWalkStops) break;
    current = next;
  }
  return is_seed[current] ? 1.0 : campaign_->initial_opinions[current];
}

namespace {

/// Both GenerateWalks overloads: the i-th walk of the list is walk
/// walk_index(i).
template <typename IndexFn>
std::vector<WalkBuffer> GenerateChunked(const WalkEngine& engine,
                                        uint32_t horizon, uint64_t master_seed,
                                        uint64_t count, IndexFn walk_index,
                                        uint32_t num_threads) {
  uint32_t threads =
      num_threads == 0 ? ThreadPool::DefaultThreadCount() : num_threads;
  threads = std::max<uint32_t>(threads, 1);
  const uint64_t chunk_size =
      threads > 1 ? std::max<uint64_t>(64, count / (threads * 4) + 1)
                  : std::max<uint64_t>(count, 1);
  const uint64_t num_chunks = (count + chunk_size - 1) / chunk_size;

  std::vector<WalkBuffer> chunks(num_chunks);
  auto run_chunk = [&](uint64_t c) {
    const uint64_t begin = c * chunk_size;
    const uint64_t end = std::min(count, begin + chunk_size);
    WalkBuffer& out = chunks[c];
    out.lengths.reserve(end - begin);
    out.nodes.reserve((end - begin) * (horizon / 4 + 1));
    for (uint64_t i = begin; i < end; ++i) {
      engine.GenerateSeeded(walk_index(i), 1, horizon, master_seed, &out);
    }
  };
  threads = static_cast<uint32_t>(std::min<uint64_t>(threads, num_chunks));
  if (threads <= 1) {
    for (uint64_t c = 0; c < num_chunks; ++c) run_chunk(c);
  } else {
    ThreadPool pool(threads);
    std::vector<std::future<void>> done;
    done.reserve(num_chunks);
    for (uint64_t c = 0; c < num_chunks; ++c) {
      done.push_back(pool.Submit([&run_chunk, c] { run_chunk(c); }));
    }
    for (auto& f : done) f.get();
  }
  return chunks;
}

}  // namespace

std::vector<WalkBuffer> GenerateWalks(const WalkEngine& engine,
                                      uint32_t horizon, uint64_t master_seed,
                                      uint64_t count, uint32_t num_threads) {
  return GenerateChunked(
      engine, horizon, master_seed, count, [](uint64_t i) { return i; },
      num_threads);
}

std::vector<WalkBuffer> GenerateWalks(const WalkEngine& engine,
                                      uint32_t horizon, uint64_t master_seed,
                                      std::span<const uint64_t> walk_indices,
                                      uint32_t num_threads) {
  return GenerateChunked(
      engine, horizon, master_seed, walk_indices.size(),
      [walk_indices](uint64_t i) { return walk_indices[i]; }, num_threads);
}

}  // namespace voteopt::core
