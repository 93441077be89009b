#include "api/registry.h"

#include <atomic>
#include <filesystem>
#include <utility>

#include "core/sketch.h"
#include "dyn/journal.h"
#include "dyn/repair.h"
#include "sketch_ooc/ooc_builder.h"
#include "store/format.h"
#include "util/timer.h"

namespace voteopt::api {

std::string EvaluatorSpecKey(const voting::ScoreSpec& spec) {
  std::string key = voting::ScoreKindName(spec.kind);
  key += "/p=" + std::to_string(spec.p);
  if (!spec.omega.empty()) {
    key += "/omega=" + std::to_string(store::Fnv1a64(
                           spec.omega.data(),
                           spec.omega.size() * sizeof(double)));
  }
  return key;
}

/// A regenerated bundle with the same node count but different
/// edges/opinions would otherwise silently serve wrong answers from a
/// stale sketch. (The bundle's default target is deliberately excluded:
/// the sketch pins its own target in SketchMeta.)
uint64_t BundleFingerprint(const datasets::Dataset& dataset) {
  std::vector<uint64_t> digests;
  auto add = [&digests](const void* data, size_t size) {
    digests.push_back(store::Fnv1a64(data, size));
  };
  const graph::Graph& g = dataset.influence;
  add(g.OutOffsets().data(), g.OutOffsets().size_bytes());
  add(g.OutTargets().data(), g.OutTargets().size_bytes());
  add(g.OutWeightsRaw().data(), g.OutWeightsRaw().size_bytes());
  add(g.InOffsets().data(), g.InOffsets().size_bytes());
  add(g.InSources().data(), g.InSources().size_bytes());
  add(g.InWeightsRaw().data(), g.InWeightsRaw().size_bytes());
  for (const opinion::Campaign& campaign : dataset.state.campaigns) {
    add(campaign.initial_opinions.data(),
        campaign.initial_opinions.size() * sizeof(double));
    add(campaign.stubbornness.data(),
        campaign.stubbornness.size() * sizeof(double));
  }
  return store::Fnv1a64(digests.data(), digests.size() * sizeof(uint64_t));
}

Result<SuccessorEntry> BuildSuccessor(const DatasetEntry& base,
                                      std::span<const dyn::Mutation> mutations,
                                      uint32_t num_threads) {
  auto patched = dyn::ApplyMutations(base.dataset.influence,
                                     base.dataset.state, mutations);
  if (!patched.ok()) return patched.status();

  SuccessorEntry successor;
  successor.entry = std::make_shared<DatasetEntry>();
  DatasetEntry& next = *successor.entry;
  next.name = base.name;
  next.dataset.name = base.dataset.name;
  next.dataset.counts = base.dataset.counts;
  next.dataset.default_target = base.dataset.default_target;
  // The patched instance moves into its final home BEFORE any alias table
  // is built over it: a sampler holds a pointer to the graph it serves.
  next.dataset.influence = std::move(patched->graph);
  next.dataset.state = std::move(patched->state);
  next.meta = base.meta;
  next.sketch_built = base.sketch_built;
  next.bundle_prefix = base.bundle_prefix;
  next.base_fingerprint = base.base_fingerprint;
  next.mutation_log = base.mutation_log;
  next.mutation_log.Append(mutations);

  successor.repair.walks_total = base.sketch->num_walks();
  if (patched->dirty_nodes.empty()) {
    // Opinion-only batch: walk trajectories depend on graph + stubbornness
    // alone, and every query rebuilds the sketch's value layer from
    // target_opinions() per selection — sharing the frozen WalkSet with
    // the predecessor is exact. The alias tables are NOT shared: the
    // predecessor's graph dies with its entry, so they are re-bound by
    // incremental copy (empty dirty set — a straight table copy).
    next.sketch = base.sketch;
    if (base.alias != nullptr) {
      next.alias = std::make_shared<const graph::AliasSampler>(
          next.dataset.influence, *base.alias,
          std::span<const graph::NodeId>{});
    }
  } else {
    dyn::RepairOptions repair_options;
    repair_options.num_threads = num_threads;
    auto repaired = dyn::SketchRepairer::Repair(
        *base.sketch, next.dataset.influence,
        next.dataset.state.campaigns[next.meta.target], base.meta,
        patched->dirty_nodes, base.alias.get(), repair_options);
    if (!repaired.ok()) return repaired.status();
    successor.repair = repaired->stats;
    next.sketch =
        std::shared_ptr<const core::WalkSet>(std::move(repaired->sketch));
    next.alias = std::move(repaired->alias);
  }
  next.model = std::make_unique<opinion::FJModel>(next.dataset.influence);
  next.meta.bundle_fingerprint = BundleFingerprint(next.dataset);
  // build_evaluator stays null: the base's evaluator propagated the
  // pre-mutation graph and would seed worker LRUs with stale horizon rows.
  return successor;
}

namespace {

/// A collision-free scratch prefix for one OOC build: concurrent loads may
/// share a base prefix, so each build gets a unique numbered sibling.
std::string UniqueScratchPrefix(std::string base) {
  static std::atomic<uint64_t> scratch_counter{0};
  if (base.empty()) {
    base = (std::filesystem::temp_directory_path() / "voteopt_ooc").string();
  }
  return base + "." + std::to_string(scratch_counter.fetch_add(1));
}

/// The inline sketch build shared by Load's build fallback and Host: fills
/// the entry's meta/sketch/build_evaluator from the recipe. The evaluator's
/// horizon propagation is the expensive part, so it is retained on the
/// entry and seeds every worker state's LRU. When `block_budget_bytes > 0`
/// the walks are generated out of core (sketch_ooc/) — bit-identical to
/// the in-memory path by determinism ledger entry #7, so callers cannot
/// tell the difference except in peak memory.
Status BuildSketchInline(DatasetEntry* entry, uint64_t theta, uint32_t horizon,
                         uint32_t target, uint32_t num_threads,
                         uint64_t rng_seed, uint64_t fingerprint,
                         uint64_t block_budget_bytes = 0,
                         const std::string& ooc_scratch_prefix = "",
                         obs::Registry* metrics = nullptr) {
  if (rng_seed == 0) {
    // SketchMeta reads master_seed 0 as "unknown provenance", and a sketch
    // with no replayable walk streams cannot be repaired after a mutation.
    return Status::InvalidArgument("rng_seed must be nonzero");
  }
  if (target >= entry->dataset.state.num_candidates()) {
    return Status::InvalidArgument(
        "target candidate " + std::to_string(target) +
        " not in the dataset (r = " +
        std::to_string(entry->dataset.state.num_candidates()) + ")");
  }
  entry->meta.theta = theta;
  entry->meta.horizon = horizon;
  entry->meta.target = target;
  entry->meta.master_seed = rng_seed;
  entry->meta.bundle_fingerprint = fingerprint;
  const voting::ScoreSpec build_spec = voting::ScoreSpec::Cumulative();
  auto build_evaluator = std::make_shared<const voting::ScoreEvaluator>(
      *entry->model, entry->dataset.state, entry->meta.target,
      entry->meta.horizon, build_spec);
  WallTimer build_timer;
  if (block_budget_bytes > 0) {
    sketch_ooc::OocBuildOptions ooc_options;
    ooc_options.num_threads = num_threads;
    sketch_ooc::OocBuildStats ooc_stats;
    auto built = sketch_ooc::BuildSketchSetOocFromGraph(
        entry->dataset.influence, entry->dataset.state.campaigns[target],
        horizon, theta, rng_seed, block_budget_bytes,
        UniqueScratchPrefix(ooc_scratch_prefix), ooc_options, &ooc_stats);
    if (!built.ok()) return built.status();
    entry->sketch = std::move(built).value();
    if (metrics != nullptr) {
      metrics
          ->GetCounter("voteopt_ooc_block_loads_total", {},
                       "OOC sketch-build block loads (file map + validate + "
                       "alias-table compile)")
          ->Increment(ooc_stats.block_loads);
      metrics
          ->GetCounter("voteopt_ooc_boundary_hops_total", {},
                       "OOC sketch-build walk suspensions at partition "
                       "boundaries")
          ->Increment(ooc_stats.boundary_hops);
      metrics
          ->GetGauge("voteopt_ooc_blocks", {{"dataset", entry->name}},
                     "Blocks of the last OOC sketch build for this dataset")
          ->Set(static_cast<double>(ooc_stats.num_blocks));
    }
  } else {
    core::SketchBuildOptions build_options;
    build_options.num_threads = num_threads;
    entry->sketch =
        core::BuildSketchSet(*build_evaluator, theta, rng_seed, build_options);
  }
  if (metrics != nullptr) {
    const double seconds = build_timer.Seconds();
    metrics
        ->GetCounter("voteopt_sketch_builds_total",
                     {{"mode", block_budget_bytes > 0 ? "ooc" : "inline"}},
                     "Inline sketch builds (load fallback or Host)")
        ->Increment();
    metrics
        ->GetGauge("voteopt_sketch_build_seconds",
                   {{"dataset", entry->name}},
                   "Wall seconds of this dataset's last inline sketch build")
        ->Set(seconds);
    metrics
        ->GetGauge("voteopt_sketch_build_walks_per_second",
                   {{"dataset", entry->name}},
                   "Walk-generation throughput of this dataset's last "
                   "inline sketch build")
        ->Set(seconds > 0 ? static_cast<double>(theta) / seconds : 0.0);
  }
  entry->sketch_built = true;
  entry->build_evaluator = std::move(build_evaluator);
  entry->build_evaluator_key = EvaluatorSpecKey(build_spec);
  return Status::OK();
}

}  // namespace

Result<std::shared_ptr<const DatasetEntry>> DatasetRegistry::Load(
    const std::string& name, const DatasetLoadOptions& options) {
  if (name.empty()) {
    return Status::InvalidArgument("dataset name must be non-empty");
  }
  {
    MutexLock lock(&mutex_);
    if (entries_.count(name) != 0) {
      return Status::FailedPrecondition(
          "dataset '" + name + "' is already loaded — unload it first");
    }
  }

  // The expensive part — bundle I/O, sketch load or build — runs outside
  // the lock so concurrent queries against other datasets keep flowing.
  auto entry = std::make_shared<DatasetEntry>();
  entry->name = name;
  auto bundle = datasets::LoadDatasetBundle(options.bundle_prefix);
  if (!bundle.ok()) return bundle.status();
  entry->dataset = std::move(bundle).value();
  entry->model = std::make_unique<opinion::FJModel>(entry->dataset.influence);

  const uint64_t fingerprint = BundleFingerprint(entry->dataset);
  const std::string sketch_path =
      options.sketch_path.empty()
          ? datasets::BundleSketchPath(options.bundle_prefix)
          : options.sketch_path;
  auto loaded = store::LoadSketch(sketch_path, options.sketch_load_mode);
  if (loaded.ok()) {
    entry->sketch =
        std::shared_ptr<const core::WalkSet>(std::move(loaded->walks));
    entry->meta = loaded->meta;
    if (entry->meta.bundle_fingerprint != 0 &&
        entry->meta.bundle_fingerprint != fingerprint) {
      return Status::FailedPrecondition(
          sketch_path +
          ": sketch was built from a different bundle (fingerprint "
          "mismatch) — rebuild it against the current data");
    }
  } else if (loaded.status().code() == Status::Code::kIOError &&
             options.build_theta > 0) {
    // No persisted sketch: fall back to the offline build, inline.
    const std::string scratch = options.ooc_scratch_prefix.empty()
                                    ? options.bundle_prefix + ".oocblk"
                                    : options.ooc_scratch_prefix;
    if (Status st = BuildSketchInline(
            entry.get(), options.build_theta, options.build_horizon,
            entry->dataset.default_target, options.build_threads,
            options.rng_seed, fingerprint, options.block_budget_bytes,
            scratch, metrics_);
        !st.ok()) {
      return st;
    }
    if (options.save_built_sketch) {
      // Protocol-level loads run concurrently and may name the same bundle
      // prefix; the store writes a unique temp sibling and renames it into
      // place, so the artifact is never a torn mix of two writers.
      VOTEOPT_RETURN_IF_ERROR(
          store::SaveSketch(*entry->sketch, entry->meta, sketch_path));
    }
  } else {
    return loaded.status();
  }

  if (entry->sketch->num_nodes() != entry->dataset.influence.num_nodes()) {
    return Status::FailedPrecondition(
        sketch_path + ": sketch node universe disagrees with the bundle");
  }
  if (entry->meta.target >= entry->dataset.state.num_candidates()) {
    return Status::FailedPrecondition(
        sketch_path + ": sketch target candidate not in the bundle");
  }

  entry->bundle_prefix = options.bundle_prefix;
  entry->base_fingerprint = fingerprint;

  // Crash recovery for dynamic graphs: a committed mutation journal next
  // to the bundle means the process last served a mutated instance —
  // replay it on top of the base bundle through BuildSuccessor, the step a
  // live commit runs, so the hosted entry is bit-identical to the
  // pre-crash one (ledger entry 10).
  const std::string journal_path =
      options.bundle_prefix + dyn::kMutationLogSuffix;
  if (std::filesystem::exists(journal_path)) {
    auto journal = dyn::LoadMutationLog(journal_path);
    if (!journal.ok()) return journal.status();
    if (journal->base_fingerprint != fingerprint) {
      return Status::FailedPrecondition(
          journal_path +
          ": mutation journal was recorded against a different base bundle "
          "(fingerprint mismatch) — remove it or restore the bundle");
    }
    if (!journal->mutations.empty()) {
      auto successor =
          BuildSuccessor(*entry, journal->mutations, options.build_threads);
      if (!successor.ok()) return successor.status();
      entry = std::move(successor->entry);
    }
  }

  return Publish(std::move(entry));
}

Result<std::shared_ptr<const DatasetEntry>> DatasetRegistry::Host(
    const std::string& name, datasets::Dataset dataset,
    const HostOptions& options) {
  if (name.empty()) {
    return Status::InvalidArgument("dataset name must be non-empty");
  }
  if (options.theta == 0) {
    return Status::InvalidArgument("hosting requires theta > 0 sketch walks");
  }
  auto entry = std::make_shared<DatasetEntry>();
  entry->name = name;
  entry->dataset = std::move(dataset);
  entry->model = std::make_unique<opinion::FJModel>(entry->dataset.influence);
  const uint32_t target =
      options.target.value_or(entry->dataset.default_target);
  if (Status st = BuildSketchInline(
          entry.get(), options.theta, options.horizon, target,
          options.num_threads, options.rng_seed,
          BundleFingerprint(entry->dataset), options.block_budget_bytes,
          options.ooc_scratch_prefix, metrics_);
      !st.ok()) {
    return st;
  }
  return Publish(std::move(entry));
}

Result<std::shared_ptr<const DatasetEntry>> DatasetRegistry::Publish(
    std::shared_ptr<DatasetEntry> entry) {
  MutexLock lock(&mutex_);
  if (entries_.count(entry->name) != 0) {  // also catches a lost Load race
    return Status::FailedPrecondition(
        "dataset '" + entry->name + "' is already loaded — unload it first");
  }
  entry->generation = next_generation_++;
  entries_[entry->name] = entry;
  if (metrics_ != nullptr) {
    metrics_
        ->GetCounter("voteopt_dataset_loads_total",
                     {{"source", entry->sketch_built ? "built" : "file"}},
                     "Datasets published into the registry, by sketch "
                     "provenance (file = persisted sketch, built = inline "
                     "build incl. Host)")
        ->Increment();
    metrics_
        ->GetGauge("voteopt_datasets_hosted", {},
                   "Datasets currently hosted by the registry")
        ->Set(static_cast<double>(entries_.size()));
    metrics_
        ->GetGauge("voteopt_dataset_generation", {{"dataset", entry->name}},
                   "Generation stamp of this dataset's current entry "
                   "(bumps on every re-load under the same name)")
        ->Set(static_cast<double>(entry->generation));
  }
  return std::shared_ptr<const DatasetEntry>(entry);
}

Result<std::shared_ptr<const DatasetEntry>> DatasetRegistry::Replace(
    std::shared_ptr<DatasetEntry> entry) {
  MutexLock lock(&mutex_);
  auto it = entries_.find(entry->name);
  if (it == entries_.end()) {
    return Status::NotFound("dataset '" + entry->name +
                            "' is not loaded (unloaded mid-mutation?)");
  }
  std::shared_ptr<const DatasetEntry> replaced = std::move(it->second);
  entry->generation = next_generation_++;
  it->second = entry;
  if (metrics_ != nullptr) {
    metrics_
        ->GetGauge("voteopt_dataset_generation", {{"dataset", entry->name}},
                   "Generation stamp of this dataset's current entry "
                   "(bumps on every re-load under the same name)")
        ->Set(static_cast<double>(entry->generation));
  }
  return replaced;
}

Result<std::shared_ptr<const DatasetEntry>> DatasetRegistry::Unload(
    const std::string& name) {
  MutexLock lock(&mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("dataset '" + name + "' is not loaded");
  }
  std::shared_ptr<const DatasetEntry> removed = std::move(it->second);
  entries_.erase(it);
  if (metrics_ != nullptr) {
    metrics_
        ->GetCounter("voteopt_dataset_unloads_total", {},
                     "Datasets removed from the registry")
        ->Increment();
    metrics_
        ->GetGauge("voteopt_datasets_hosted", {},
                   "Datasets currently hosted by the registry")
        ->Set(static_cast<double>(entries_.size()));
  }
  return removed;
}

Result<std::shared_ptr<const DatasetEntry>> DatasetRegistry::Resolve(
    const std::string& name) const {
  MutexLock lock(&mutex_);
  if (name.empty()) {
    if (entries_.size() == 1) return entries_.begin()->second;
    return entries_.empty()
               ? Status::NotFound("no dataset is loaded")
               : Status::InvalidArgument(
                     "several datasets are loaded — name one in 'dataset'");
  }
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("dataset '" + name + "' is not loaded");
  }
  return it->second;
}

std::vector<std::shared_ptr<const DatasetEntry>> DatasetRegistry::List()
    const {
  MutexLock lock(&mutex_);
  std::vector<std::shared_ptr<const DatasetEntry>> entries;
  entries.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) entries.push_back(entry);
  return entries;  // std::map iterates name-sorted
}

size_t DatasetRegistry::size() const {
  MutexLock lock(&mutex_);
  return entries_.size();
}

}  // namespace voteopt::api
