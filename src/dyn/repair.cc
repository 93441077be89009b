#include "dyn/repair.h"

#include <utility>
#include <vector>

#include "core/sketch.h"
#include "core/walk_engine.h"
#include "util/timer.h"

namespace voteopt::dyn {

Result<RepairOutcome> SketchRepairer::Repair(
    const core::WalkSet& base, const graph::Graph& patched,
    const opinion::Campaign& campaign, const store::SketchMeta& meta,
    std::span<const graph::NodeId> dirty_nodes,
    const graph::AliasSampler* base_alias, const RepairOptions& options) {
  WallTimer timer;
  const uint32_t n = patched.num_nodes();
  if (base.num_nodes() != n) {
    return Status::InvalidArgument(
        "repair: sketch and patched graph disagree on node count");
  }
  if (meta.master_seed == 0) {
    return Status::FailedPrecondition(
        "repair: sketch has no master seed (unknown provenance); "
        "its walks cannot be replayed per-index");
  }
  if (meta.theta != base.num_walks()) {
    return Status::InvalidArgument("repair: meta.theta != sketch walk count");
  }
  VOTEOPT_RETURN_IF_ERROR(campaign.Validate(n));
  for (graph::NodeId v : dirty_nodes) {
    if (v >= n) return Status::InvalidArgument("repair: dirty node out of range");
  }

  // Dirty-walk set: the inverted index maps each dirty node to every walk
  // whose trajectory contains it. Flags (not a set) keep the sweep O(theta)
  // and the resulting index list ascending — the deterministic order the
  // regeneration and reassembly below both use.
  const uint64_t theta = base.num_walks();
  std::vector<uint8_t> dirty_walk(theta, 0);
  for (graph::NodeId v : dirty_nodes) {
    for (const core::WalkSet::Posting& p : base.PostingsOf(v)) {
      dirty_walk[p.walk] = 1;
    }
  }
  std::vector<uint64_t> dirty_indices;
  for (uint64_t j = 0; j < theta; ++j) {
    if (dirty_walk[j]) dirty_indices.push_back(j);
  }

  RepairOutcome outcome;
  outcome.stats.walks_total = theta;
  outcome.stats.walks_repaired = dirty_indices.size();
  outcome.stats.dirty_nodes = dirty_nodes.size();

  // Alias tables over the patched graph, rebuilt at row granularity when
  // the pre-mutation tables are available. They are built even when no
  // walk is dirty (rare: mutated nodes unvisited by every walk) if base
  // tables exist, so the next repair's row-level reuse tracks the patch.
  if (!dirty_indices.empty() || base_alias != nullptr) {
    outcome.alias =
        base_alias != nullptr
            ? std::make_shared<const graph::AliasSampler>(patched, *base_alias,
                                                          dirty_nodes)
            : std::make_shared<const graph::AliasSampler>(patched);
  }

  // Regenerate exactly the dirty walks from their seeded streams.
  core::WalkBuffer regen;
  if (!dirty_indices.empty()) {
    const core::WalkEngine engine(patched, campaign, *outcome.alias);
    for (const core::WalkBuffer& chunk :
         core::GenerateWalks(engine, meta.horizon, meta.master_seed,
                             dirty_indices, options.num_threads)) {
      regen.nodes.insert(regen.nodes.end(), chunk.nodes.begin(),
                         chunk.nodes.end());
      regen.lengths.insert(regen.lengths.end(), chunk.lengths.begin(),
                           chunk.lengths.end());
    }
  }

  // Reassemble the full sketch in walk-index order: clean walks splice
  // their bytes from the base's frozen layer, dirty walks take the next
  // regenerated row. One AddWalks + Finalize + ApplySketchWeights — the
  // exact construction sequence of both from-scratch builders, which is
  // what makes bit-identity hold by construction rather than by audit.
  const core::WalkSet::Frozen& frozen = base.frozen();
  core::WalkBuffer assembled;
  assembled.lengths.reserve(theta);
  uint64_t clean_nodes = 0;
  for (uint64_t j = 0; j < theta; ++j) {
    if (!dirty_walk[j]) clean_nodes += frozen.offsets[j + 1] - frozen.offsets[j];
  }
  assembled.nodes.reserve(clean_nodes + regen.nodes.size());
  size_t next_regen = 0;
  uint64_t regen_begin = 0;
  for (uint64_t j = 0; j < theta; ++j) {
    std::span<const graph::NodeId> walk;
    if (dirty_walk[j]) {
      const uint32_t len = regen.lengths[next_regen++];
      walk = std::span<const graph::NodeId>(regen.nodes).subspan(regen_begin,
                                                                 len);
      regen_begin += len;
    } else {
      walk = frozen.nodes.subspan(frozen.offsets[j],
                                  frozen.offsets[j + 1] - frozen.offsets[j]);
    }
    assembled.nodes.insert(assembled.nodes.end(), walk.begin(), walk.end());
    assembled.lengths.push_back(static_cast<uint32_t>(walk.size()));
  }

  auto repaired = std::make_unique<core::WalkSet>(n);
  repaired->AddWalks(assembled);
  repaired->Finalize(campaign.initial_opinions);
  core::ApplySketchWeights(repaired.get(), n, theta);
  outcome.sketch = std::move(repaired);
  outcome.stats.seconds = timer.Seconds();
  return outcome;
}

}  // namespace voteopt::dyn
