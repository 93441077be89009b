// api::Engine: the single query-dispatch component. Every front door —
// the JSON wire protocol (serve/ is a pure codec over it), the
// voteopt_serve CLI, the examples, and the bench drivers — funnels
// typed api::Requests into Engine::Execute, so an embedded C++ answer and
// a served answer are the same bytes by construction, not by parallel
// maintenance of two code paths.
//
// The engine owns the multi-tenant substrate:
//   * a DatasetRegistry of named immutable problem instances (bundle +
//     diffusion model + frozen sketch), manageable at runtime via the
//     Load/Unload/List requests or directly (registry(), Host());
//   * a StatePool of per-worker mutable query state (working WalkSet views
//     + per-voting-rule evaluator LRUs);
//   * a util::ThreadPool for ExecuteBatch fan-out.
//
// Concurrency model (docs/ARCHITECTURE.md): everything reachable from a
// published DatasetEntry is immutable and shared across workers; all
// per-query mutable state lives in pooled QueryStates. Each query is
// deterministic in isolation, so answers are bit-identical whatever the
// worker count. Admin requests act as ordering barriers inside a batch,
// which preserves exact serial semantics.
//
// Method dispatch: the RS method (the default) answers from the hosted
// frozen sketch — selection is a zero-copy working view whose dynamic
// state returns to its baseline by undo log. The other eight roster
// methods (DM, RW, IC, LT, GED-T, PR, RWR, DC) build their own substrate
// per query via baselines::SelectWithMethod; they are deterministic in
// QueryOptions::methods.rng_seed but cost what the offline algorithm
// costs. MethodCompare runs the whole roster on one instance; RuleSweep
// scores one budget under all five voting rules.
#ifndef VOTEOPT_API_ENGINE_H_
#define VOTEOPT_API_ENGINE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "api/query.h"
#include "api/registry.h"
#include "api/state_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace voteopt::api {

struct EngineOptions {
  /// Bootstrap dataset registered at Open under `dataset_name`. Its
  /// bundle_prefix may be left empty to start with an empty registry —
  /// datasets then arrive via Load requests or Host(). These options are
  /// also the defaults inherited by protocol-level loads.
  DatasetLoadOptions load;
  std::string dataset_name = "default";

  /// Worker threads for ExecuteBatch fan-out (0 = one per hardware
  /// thread). Answers are identical for every value; this only sets how
  /// many independent queries run at once.
  uint32_t num_worker_threads = 1;

  /// Capacity of each worker state's per-voting-rule evaluator LRU. The
  /// default holds RuleSweep's five specs plus one client-chosen rule —
  /// any smaller and a repeated sweep's sequential rule order would evict
  /// each evaluator just before reusing it, rebuilding all five horizon
  /// propagations per sweep.
  uint32_t evaluator_cache_capacity = 6;

  /// Record engine/registry/state-pool metrics into the engine's
  /// obs::Registry. Metrics are a strictly additive side channel — they
  /// never feed back into execution, so answers are bit-identical on or
  /// off; the toggle exists so bench_serve can price the instrumentation
  /// (gated at <= 2% on the serve batch).
  bool enable_metrics = true;

  /// Slow-query log threshold in wall milliseconds: a query whose
  /// handling time reaches it emits one structured JSON line to stderr
  /// (obs::MaybeLogSlowQuery) carrying its stage spans. Negative disables
  /// the log (the default).
  double slow_query_millis = -1.0;
};

class Engine {
 public:
  /// Monotonic engine-wide counters (a point-in-time snapshot; the live
  /// counters are atomics updated from every worker).
  struct Stats {
    uint64_t queries = 0;
    uint64_t errors = 0;
    uint64_t evaluator_cache_hits = 0;
    uint64_t evaluator_cache_misses = 0;
    uint64_t sketch_resets = 0;
    /// QueryStates ever constructed — the worker-state churn; stays at the
    /// worker count in steady single-dataset operation.
    uint64_t worker_states = 0;
    bool sketch_built = false;  // the bootstrap Open had to build (no file)
  };

  /// Creates the engine and, when options.load.bundle_prefix is set, loads
  /// the bootstrap dataset. Fails with a clean Status on any inconsistency
  /// (see DatasetRegistry::Load).
  static Result<std::unique_ptr<Engine>> Open(const EngineOptions& options);

  /// Hosts an in-memory dataset (no disk round trip) under `name` — the
  /// embedded-caller bootstrap. See DatasetRegistry::Host.
  Status Host(const std::string& name, datasets::Dataset dataset,
              const HostOptions& host_options = {});

  /// Answers one request inline on the calling thread. Never throws;
  /// failures come back as error responses so a stream keeps flowing.
  /// Thread-safe: any number of client threads may call concurrently.
  Response Execute(const Request& request);

  /// Answers a batch with responses in request order. Query requests run
  /// concurrently on the worker pool; admin requests (load/unload/list)
  /// are ordering barriers, so the result is identical to serial
  /// execution.
  std::vector<Response> ExecuteBatch(const std::vector<Request>& batch);

  DatasetRegistry& registry() { return registry_; }
  const StatePool& state_pool() const { return states_; }
  uint32_t num_worker_threads() const { return pool_->num_threads(); }

  /// The engine's metrics registry: what the `stats` verb snapshots and
  /// voteopt_serve's --metrics_out renders as Prometheus text. Always
  /// present; empty when EngineOptions::enable_metrics is false.
  obs::Registry& metrics() { return metrics_; }
  const obs::Registry& metrics() const { return metrics_; }

  // Single-tenant conveniences: the sole hosted dataset (precondition:
  // the registry hosts exactly one, e.g. right after a bootstrap Open).
  const datasets::Dataset& dataset() const;
  const store::SketchMeta& sketch_meta() const;
  const core::WalkSet& walks() const;

  Stats stats() const;

 private:
  explicit Engine(const EngineOptions& options);

  /// Routes one request (query → pooled state, admin → registry). The
  /// trace rides along the whole query (never null; disabled unless the
  /// request set `trace`) collecting stage spans and work counts.
  Response Dispatch(const Request& request, obs::Trace* trace);
  Response ExecuteQuery(const Request& request, obs::Trace* trace);

  Response HandleTopK(const Request& request, const DatasetEntry& entry,
                      QueryState& state, obs::Trace* trace);
  Response HandleMinSeed(const Request& request, const DatasetEntry& entry,
                         QueryState& state, obs::Trace* trace);
  Response HandleEvaluate(const Request& request, const DatasetEntry& entry,
                          QueryState& state, obs::Trace* trace);
  Response HandleMethodCompare(const Request& request,
                               const DatasetEntry& entry, QueryState& state,
                               obs::Trace* trace);
  Response HandleRuleSweep(const Request& request, const DatasetEntry& entry,
                           QueryState& state, obs::Trace* trace);
  Response HandleLoad(const Request& request);
  Response HandleUnload(const Request& request);
  Response HandleList(const Request& request);
  Response HandleStats(const Request& request);
  /// All four mutation verbs (edge_add / edge_del / set_opinion / mutate):
  /// patches the graph+opinions, repairs the sketch incrementally
  /// (dyn::SketchRepairer — bit-identical to a from-scratch rebuild by
  /// determinism ledger entry #10), persists the mutation journal, and
  /// commits via DatasetRegistry::Replace + StatePool::Evict.
  Response HandleMutate(const Request& request);

  /// One method's selection on the shared instance: the hosted sketch for
  /// RS, baselines::SelectWithMethod for everything else. Wraps itself in
  /// the trace's `selection` span.
  core::SelectionResult SelectSeeds(baselines::Method method,
                                    const voting::ScoreEvaluator& evaluator,
                                    uint32_t k, const QueryOptions& options,
                                    const DatasetEntry& entry,
                                    QueryState& state, obs::Trace* trace);

  /// Cached evaluator from the leased state, with hit/miss accounting
  /// (engine atomics, metrics counters, and trace work counts; a miss's
  /// construction time lands in the `evaluation` stage span).
  const voting::ScoreEvaluator* EvaluatorFor(const voting::ScoreSpec& spec,
                                             QueryState& state,
                                             obs::Trace* trace);
  /// Returns the leased working sketch to its baseline for a selection:
  /// an undo-log restore of the previous selection's truncations, or a
  /// full ResetValues on the state's first selection (and after the log
  /// overflowed). The state is bound to one entry generation, so its
  /// baseline opinions never change under it.
  void ResetSketch(const DatasetEntry& entry, QueryState& state,
                   obs::Trace* trace);

  /// Folds the trace into the response's diagnostics and flags it for
  /// serialization; promotes selector work counts into the `work.` schema
  /// (keeping `gain_evaluations` as its one-version legacy alias).
  static void AttachTrace(const obs::Trace& trace, Response* response);

  EngineOptions options_;
  /// Declared before the components that hold a pointer to it (registry,
  /// state pool): members destroy in reverse order, so the instruments
  /// outlive every writer.
  obs::Registry metrics_;
  DatasetRegistry registry_;
  StatePool states_;
  std::unique_ptr<ThreadPool> pool_;
  bool bootstrap_built_ = false;

  /// Serializes mutation commits: each is a read-modify-write of one
  /// registry entry (resolve → patch → repair → Replace), and Replace
  /// itself checks no lineage. Queries never take this mutex — they keep
  /// resolving entries through the registry's own lock and finish on
  /// whatever instance they resolved.
  Mutex mutate_mutex_;

  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> evaluator_cache_hits_{0};
  std::atomic<uint64_t> evaluator_cache_misses_{0};
  std::atomic<uint64_t> sketch_resets_{0};

  // Cached instrument pointers (stable for the registry's lifetime);
  // null when EngineOptions::enable_metrics is false.
  obs::Registry* mx_ = nullptr;  // &metrics_ when enabled
  obs::Counter* m_evaluator_hits_ = nullptr;
  obs::Counter* m_evaluator_misses_ = nullptr;
  obs::Counter* m_sketch_resets_ = nullptr;
  obs::Histogram* m_batch_size_ = nullptr;
  obs::Gauge* m_batch_inflight_ = nullptr;
  obs::Counter* m_dyn_commits_ = nullptr;
  obs::Counter* m_dyn_walks_repaired_ = nullptr;
  obs::Histogram* m_dyn_repair_seconds_ = nullptr;
};

}  // namespace voteopt::api

#endif  // VOTEOPT_API_ENGINE_H_
