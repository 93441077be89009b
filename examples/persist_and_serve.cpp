// Scenario: the offline-build -> persist -> serve split, end to end in one
// file. An offline job builds the expensive sketch artifact once with the
// sharded builder and persists it into the dataset bundle; the online side
// opens an api::Engine over the persisted store (mmap, zero-copy) and
// answers a mixed batch of typed queries — different budgets, voting
// rules, and selection methods — from that single artifact, fanned out
// over a small worker pool (answers are identical whatever the thread
// count, and identical to what the voteopt_serve wire protocol returns:
// both run Engine::Execute).
//
//   $ ./example_persist_and_serve
//   $ ./example_persist_and_serve --theta=500000 --k=25
#include <iostream>

#include "api/engine.h"
#include "core/sketch.h"
#include "datasets/io.h"
#include "datasets/synthetic.h"
#include "opinion/fj_model.h"
#include "store/sketch_store.h"
#include "util/options.h"
#include "util/timer.h"

using namespace voteopt;

int main(int argc, char** argv) {
  Options options(argc, argv);
  const auto theta = static_cast<uint64_t>(options.GetInt("theta", 100000));
  const uint32_t k = static_cast<uint32_t>(options.GetInt("k", 10));
  const uint32_t horizon = static_cast<uint32_t>(options.GetInt("t", 20));
  const std::string prefix = options.GetString("prefix", "./persist_demo");

  // --- offline: synthesize a bundle, build the sketch once, persist both.
  const datasets::Dataset dataset = datasets::MakeDataset(
      datasets::DatasetName::kYelp, /*scale=*/0.1, /*seed=*/5);
  if (Status st = datasets::SaveDatasetBundle(dataset, prefix); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  opinion::FJModel model(dataset.influence);
  voting::ScoreEvaluator build_evaluator(model, dataset.state,
                                         dataset.default_target, horizon,
                                         voting::ScoreSpec::Cumulative());
  WallTimer timer;
  core::SketchBuildOptions build_options;  // sharded fast path
  auto walks =
      core::BuildSketchSet(build_evaluator, theta, /*master_seed=*/42,
                           build_options);
  const store::SketchMeta meta{theta, horizon, dataset.default_target, 42};
  const std::string sketch_path = datasets::BundleSketchPath(prefix);
  if (Status st = store::SaveSketch(*walks, meta, sketch_path); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  std::cout << "offline: built " << theta << " walks and persisted "
            << sketch_path << " in " << timer.Seconds() << " s\n";

  // --- online: a fresh engine loads the store and answers everything
  //     from it. No walk is ever regenerated.
  api::EngineOptions engine_options;
  engine_options.load.bundle_prefix = prefix;
  engine_options.load.build_theta = 0;  // must load, never rebuild
  engine_options.num_worker_threads = 2;
  timer.Restart();
  auto engine = api::Engine::Open(engine_options);
  if (!engine.ok()) {
    std::cerr << engine.status().ToString() << "\n";
    return 1;
  }
  std::cout << "online: store loaded in " << timer.Seconds() << " s (mmap)\n\n";

  std::vector<api::Request> batch;
  for (const auto& spec :
       {voting::ScoreSpec::Cumulative(), voting::ScoreSpec::Plurality(),
        voting::ScoreSpec::Copeland()}) {
    batch.push_back(api::Request::TopK(k, spec));
  }
  // The degree heuristic over the same wire-visible query surface.
  batch.push_back(api::Request::TopK(k, voting::ScoreSpec::Plurality(),
                                     baselines::Method::kDegree));
  batch.push_back(
      api::Request::MinSeed(100, voting::ScoreSpec::Cumulative()));
  {
    api::Request evaluate =
        api::Request::Evaluate({1, 2, 3}, voting::ScoreSpec::Cumulative());
    evaluate.overrides = {{0, 1.0}};
    batch.push_back(evaluate);
  }
  batch.push_back(api::Request::RuleSweep(k));
  for (const api::Response& response : (*engine)->ExecuteBatch(batch)) {
    std::cout << response.ToJson() << "\n";
  }

  const auto stats = (*engine)->stats();
  std::cout << "\n" << stats.queries << " queries, "
            << stats.evaluator_cache_misses << " evaluator builds, "
            << stats.sketch_resets << " sketch resets — one "
            << (static_cast<double>((*engine)->walks().memory_bytes()) /
                (1024.0 * 1024.0))
            << " MiB artifact served them all\n";
  return 0;
}
