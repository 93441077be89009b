// BuildSketchSet: determinism across runs and thread counts, and
// statistical agreement of its score estimates across master seeds.
#include <gtest/gtest.h>

#include <memory>

#include "core/estimated_greedy.h"
#include "core/rs_greedy.h"
#include "core/sketch.h"
#include "opinion/fj_model.h"
#include "test_fixtures.h"

namespace voteopt::core {
namespace {

using test::MakePaperExample;
using test::MakeRandomInstance;

// Exhaustive structural equality of two finalized walk sets.
void ExpectIdenticalWalkSets(const WalkSet& a, const WalkSet& b) {
  ASSERT_EQ(a.num_walks(), b.num_walks());
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (uint32_t w = 0; w < a.num_walks(); ++w) {
    EXPECT_EQ(a.StartOf(w), b.StartOf(w)) << "walk " << w;
    EXPECT_EQ(a.EffectiveLen(w), b.EffectiveLen(w)) << "walk " << w;
    EXPECT_EQ(a.Value(w), b.Value(w)) << "walk " << w;
  }
  for (graph::NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_EQ(a.Lambda(v), b.Lambda(v)) << "node " << v;
    EXPECT_EQ(a.StartWeight(v), b.StartWeight(v)) << "node " << v;
    EXPECT_EQ(a.PostingsOf(v).size(), b.PostingsOf(v).size()) << "node " << v;
  }
}

TEST(ParallelSketchTest, BitIdenticalAcrossRuns) {
  auto inst = MakeRandomInstance(50, 250, 2, 23);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 6, voting::ScoreSpec::Cumulative());
  SketchBuildOptions options;
  options.num_threads = 4;
  const auto first = BuildSketchSet(ev, 5000, /*master_seed=*/99, options);
  const auto second = BuildSketchSet(ev, 5000, /*master_seed=*/99, options);
  ExpectIdenticalWalkSets(*first, *second);
}

TEST(ParallelSketchTest, OutputIndependentOfThreadCount) {
  auto inst = MakeRandomInstance(50, 250, 2, 29);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 6, voting::ScoreSpec::Cumulative());
  SketchBuildOptions serial_options;
  serial_options.num_threads = 1;
  SketchBuildOptions parallel_options;
  parallel_options.num_threads = 3;
  const auto inline_build = BuildSketchSet(ev, 3000, 7, serial_options);
  const auto pooled_build = BuildSketchSet(ev, 3000, 7, parallel_options);
  ExpectIdenticalWalkSets(*inline_build, *pooled_build);
}

TEST(ParallelSketchTest, DifferentSeedsDiffer) {
  auto inst = MakeRandomInstance(50, 250, 2, 31);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 6, voting::ScoreSpec::Cumulative());
  SketchBuildOptions options;
  options.num_threads = 2;
  const auto a = BuildSketchSet(ev, 2000, 1, options);
  const auto b = BuildSketchSet(ev, 2000, 2, options);
  // Start nodes are resampled per seed; a collision of all 2000 is
  // practically impossible.
  bool any_difference = false;
  for (uint32_t w = 0; w < a->num_walks() && !any_difference; ++w) {
    any_difference = a->StartOf(w) != b->StartOf(w);
  }
  EXPECT_TRUE(any_difference);
}

TEST(ParallelSketchTest, WeightsAreNLambdaOverTheta) {
  // Eq. 35 / 42 / 47: a start sampled lambda_v times weighs n * lambda_v /
  // theta.
  auto inst = MakeRandomInstance(30, 150, 2, 3);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 4, voting::ScoreSpec::Cumulative());
  SketchBuildOptions options;
  options.num_threads = 2;
  const auto walks = BuildSketchSet(ev, 500, 5, options);
  EXPECT_EQ(walks->num_walks(), 500u);
  double total = 0.0;
  for (graph::NodeId v = 0; v < 30; ++v) {
    total += walks->StartWeight(v);
    EXPECT_NEAR(walks->StartWeight(v), 30.0 * walks->Lambda(v) / 500.0,
                1e-12);
  }
  EXPECT_NEAR(total, 30.0, 1e-9);
}

TEST(ParallelSketchTest, GreedyEstimateWithinEpsilonAcrossSeeds) {
  // Thm. 13-style agreement on the paper's running example: with a healthy
  // theta, the estimated greedy scores of two independently seeded sketches
  // (one built inline, one on a pool) must agree within epsilon * OPT, and
  // both with the exact best single-seed score (Table I row {1}: 3.30 at
  // t = 1).
  constexpr double kEpsilon = 0.1;
  constexpr double kExactBest = 3.30;
  auto ex = MakePaperExample();
  opinion::FJModel model(ex.graph);
  ScoreEvaluator ev(model, ex.state, 0, 1, voting::ScoreSpec::Cumulative());
  const uint64_t theta = 20000;

  SketchBuildOptions inline_options;
  inline_options.num_threads = 1;
  auto first_walks = BuildSketchSet(ev, theta, /*master_seed=*/123,
                                    inline_options);
  SketchBuildOptions options;
  options.num_threads = 4;
  auto second_walks = BuildSketchSet(ev, theta, /*master_seed=*/124, options);

  EstimatedGreedyOptions greedy_options;
  greedy_options.evaluate_exact = false;
  const SelectionResult first =
      EstimatedGreedySelect(ev, 1, first_walks.get(), greedy_options);
  const SelectionResult second =
      EstimatedGreedySelect(ev, 1, second_walks.get(), greedy_options);

  const double bound = kEpsilon * kExactBest;
  EXPECT_NEAR(first.score, kExactBest, bound);
  EXPECT_NEAR(second.score, kExactBest, bound);
  EXPECT_NEAR(second.score, first.score, bound);
  EXPECT_EQ(second.seeds, first.seeds);  // both must pick user 1 (node 0)
}

TEST(ParallelSketchTest, RSGreedySeedsInvariantAcrossThreadCounts) {
  // Regression: RSGreedySelect used to take a separate serial-stream builder
  // when num_threads == 1 and the sharded builder otherwise, so
  // --threads=1 and --threads=N answered from DIFFERENT sketches and could
  // return different seed sets. Every thread count (including the
  // hardware-default 0) must now produce identical seeds and scores.
  auto inst = MakeRandomInstance(60, 320, 2, 37);
  opinion::FJModel model(inst.graph);
  for (const auto kind :
       {voting::ScoreKind::kCumulative, voting::ScoreKind::kPlurality,
        voting::ScoreKind::kCopeland}) {
    voting::ScoreSpec spec;
    spec.kind = kind;
    ScoreEvaluator ev(model, inst.state, 0, 5, spec);

    RSOptions base;
    base.theta_override = 4096;
    base.rng_seed = 77;
    base.num_threads = 1;
    const SelectionResult reference = RSGreedySelect(ev, 6, base);
    ASSERT_EQ(reference.seeds.size(), 6u) << voting::ScoreKindName(kind);

    for (const uint32_t threads : {2u, 4u, 0u}) {
      RSOptions options = base;
      options.num_threads = threads;
      const SelectionResult result = RSGreedySelect(ev, 6, options);
      EXPECT_EQ(result.seeds, reference.seeds)
          << voting::ScoreKindName(kind) << " threads=" << threads;
      EXPECT_DOUBLE_EQ(result.score, reference.score)
          << voting::ScoreKindName(kind) << " threads=" << threads;
    }
  }

  // With theta estimated rather than given, the estimation's own sketches
  // (the convergence doublings for plurality, the OPT lower-bound tests
  // for cumulative) run on the same thread count; theta, seeds and score
  // must still not depend on it.
  for (const auto kind :
       {voting::ScoreKind::kPlurality, voting::ScoreKind::kCumulative}) {
    voting::ScoreSpec spec;
    spec.kind = kind;
    ScoreEvaluator ev(model, inst.state, 0, 5, spec);
    RSOptions base;
    base.theta_override = 0;
    base.theta_cap = 1 << 16;
    base.refine_opt_bound = kind == voting::ScoreKind::kCumulative;
    base.rng_seed = 77;
    base.num_threads = 1;
    const SelectionResult reference = RSGreedySelect(ev, 6, base);
    ASSERT_EQ(reference.seeds.size(), 6u) << voting::ScoreKindName(kind);

    RSOptions options = base;
    options.num_threads = 4;
    const SelectionResult result = RSGreedySelect(ev, 6, options);
    EXPECT_EQ(result.diagnostics.at("theta"),
              reference.diagnostics.at("theta"))
        << voting::ScoreKindName(kind);
    EXPECT_EQ(result.seeds, reference.seeds) << voting::ScoreKindName(kind);
    EXPECT_DOUBLE_EQ(result.score, reference.score)
        << voting::ScoreKindName(kind);
  }
}

}  // namespace
}  // namespace voteopt::core
