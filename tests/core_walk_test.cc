#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <optional>

#include "core/accuracy.h"
#include "core/estimated_greedy.h"
#include "core/greedy_dm.h"
#include "core/rw_greedy.h"
#include "core/sketch.h"
#include "core/walk_engine.h"
#include "core/walk_set.h"
#include "graph/alias_table.h"
#include "test_fixtures.h"
#include "util/stats.h"

namespace voteopt::core {
namespace {

using test::MakePaperExample;
using test::MakeRandomInstance;

// ---------------------------------------------------------------------------
// WalkSet storage and truncation semantics.
// ---------------------------------------------------------------------------

TEST(WalkSetTest, PostingsRecordFirstOccurrenceOnly) {
  WalkSet walks(5);
  walks.AddWalk({0, 1, 2, 1, 3});  // node 1 appears twice
  walks.Finalize({0.1, 0.2, 0.3, 0.4, 0.5});
  const auto postings = walks.PostingsOf(1);
  ASSERT_EQ(postings.size(), 1u);
  EXPECT_EQ(postings[0].walk, 0u);
  EXPECT_EQ(postings[0].pos, 1u);
}

TEST(WalkSetTest, ValueIsInitialOpinionOfEndNode) {
  WalkSet walks(4);
  walks.AddWalk({0, 2, 3});
  walks.AddWalk({1});
  walks.Finalize({0.9, 0.8, 0.7, 0.25});
  EXPECT_DOUBLE_EQ(walks.Value(0), 0.25);  // ends at node 3
  EXPECT_DOUBLE_EQ(walks.Value(1), 0.8);   // single-node walk
  EXPECT_DOUBLE_EQ(walks.EstimatedOpinion(0), 0.25);
  EXPECT_DOUBLE_EQ(walks.EstimatedOpinion(1), 0.8);
}

TEST(WalkSetTest, LambdaCountsWalksPerStart) {
  WalkSet walks(3);
  walks.AddWalk({0, 1});
  walks.AddWalk({0, 2});
  walks.AddWalk({1});
  walks.Finalize({0.0, 0.5, 1.0});
  EXPECT_EQ(walks.Lambda(0), 2u);
  EXPECT_EQ(walks.Lambda(1), 1u);
  EXPECT_EQ(walks.Lambda(2), 0u);
  EXPECT_DOUBLE_EQ(walks.EstimatedOpinion(0), 0.75);  // (0.5 + 1.0)/2
  EXPECT_DOUBLE_EQ(walks.EstimatedOpinion(2, 0.123), 0.123);  // fallback
}

TEST(WalkSetTest, ShareFrozenClonesDynamicStateIndependently) {
  auto owner = std::make_shared<WalkSet>(4);
  owner->AddWalk({0, 2, 3});
  owner->AddWalk({1, 2});
  owner->AddWalk({0, 1});
  const std::vector<double> opinions{0.9, 0.8, 0.7, 0.25};
  owner->Finalize(opinions);

  // The clone aliases the frozen arrays (zero-copy) ...
  auto clone = owner->ShareFrozen(owner);
  EXPECT_TRUE(clone->adopted());
  EXPECT_EQ(clone->frozen().nodes.data(), owner->frozen().nodes.data());
  EXPECT_EQ(clone->num_walks(), owner->num_walks());

  // ... but owns its dynamic state: truncating in the clone must leave the
  // owner's values untouched (the concurrent-serving contract).
  clone->ResetValues(opinions);
  clone->Truncate(2, [](uint32_t, double) {});
  EXPECT_DOUBLE_EQ(clone->Value(0), 1.0);
  EXPECT_DOUBLE_EQ(clone->Value(1), 1.0);
  EXPECT_DOUBLE_EQ(owner->Value(0), 0.25);
  EXPECT_DOUBLE_EQ(owner->Value(1), 0.7);  // {1, 2} ends at node 2
  EXPECT_DOUBLE_EQ(owner->EstimatedOpinion(0), (0.25 + 0.8) / 2);

  // A second clone resets from the pristine frozen data, unaffected by the
  // first clone's truncations.
  auto other = owner->ShareFrozen(owner);
  other->ResetValues(opinions);
  EXPECT_DOUBLE_EQ(other->Value(0), 0.25);

  // The keep-alive pins the owner: clones outlive the caller's handle.
  owner.reset();
  EXPECT_DOUBLE_EQ(other->Value(0), 0.25);
  other->Truncate(0, [](uint32_t, double) {});
  EXPECT_DOUBLE_EQ(other->Value(0), 1.0);
}

TEST(WalkSetTest, TruncationSetsValueToOneAndShortens) {
  WalkSet walks(4);
  walks.AddWalk({0, 1, 2, 3});
  walks.Finalize({0.1, 0.2, 0.3, 0.4});
  int changed = 0;
  walks.Truncate(2, [&](uint32_t walk, double old_value) {
    ++changed;
    EXPECT_EQ(walk, 0u);
    EXPECT_DOUBLE_EQ(old_value, 0.4);
  });
  EXPECT_EQ(changed, 1);
  EXPECT_DOUBLE_EQ(walks.Value(0), 1.0);
  EXPECT_EQ(walks.EffectiveLen(0), 3u);
  EXPECT_DOUBLE_EQ(walks.EstimatedOpinion(0), 1.0);
}

TEST(WalkSetTest, TruncationAtFirstSeedOccurrenceWins) {
  WalkSet walks(5);
  walks.AddWalk({0, 1, 2, 3, 4});
  walks.Finalize({0.1, 0.2, 0.3, 0.4, 0.5});
  walks.Truncate(3, [](uint32_t, double) {});
  EXPECT_EQ(walks.EffectiveLen(0), 4u);
  // Truncating at an earlier node shortens further...
  walks.Truncate(1, [](uint32_t, double) {});
  EXPECT_EQ(walks.EffectiveLen(0), 2u);
  // ...but a later node is now beyond the effective end: no change.
  int changed = 0;
  walks.Truncate(2, [&](uint32_t, double) { ++changed; });
  EXPECT_EQ(changed, 0);
  EXPECT_EQ(walks.EffectiveLen(0), 2u);
}

TEST(WalkSetTest, TruncationAtStartPosition) {
  WalkSet walks(3);
  walks.AddWalk({1, 2});
  walks.Finalize({0.0, 0.5, 0.25});
  walks.Truncate(1, [](uint32_t, double) {});
  EXPECT_EQ(walks.EffectiveLen(0), 1u);
  EXPECT_DOUBLE_EQ(walks.Value(0), 1.0);  // seeding the start itself
}

// ---------------------------------------------------------------------------
// Undo-log restore to the ResetValues baseline.
// ---------------------------------------------------------------------------

/// Every dynamic field of `a` and `b`, compared as raw bytes.
void ExpectSameDynamicState(const WalkSet& a, const WalkSet& b) {
  ASSERT_EQ(a.num_walks(), b.num_walks());
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  std::vector<uint32_t> len_a, len_b;
  std::vector<double> value_a, value_b, sum_a, sum_b;
  for (uint32_t w = 0; w < a.num_walks(); ++w) {
    len_a.push_back(a.EffectiveLen(w));
    len_b.push_back(b.EffectiveLen(w));
    value_a.push_back(a.Value(w));
    value_b.push_back(b.Value(w));
  }
  for (graph::NodeId v = 0; v < a.num_nodes(); ++v) {
    sum_a.push_back(a.EstimateSum(v));
    sum_b.push_back(b.EstimateSum(v));
  }
  EXPECT_EQ(std::memcmp(len_a.data(), len_b.data(),
                        len_a.size() * sizeof(uint32_t)), 0);
  EXPECT_EQ(std::memcmp(value_a.data(), value_b.data(),
                        value_a.size() * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(sum_a.data(), sum_b.data(),
                        sum_a.size() * sizeof(double)), 0);
}

/// The walk changes Truncate(v) would log now: v's postings not yet cut.
size_t PendingChanges(const WalkSet& walks, graph::NodeId v) {
  size_t changes = 0;
  for (const WalkSet::Posting& posting : walks.PostingsOf(v)) {
    changes += posting.pos < walks.EffectiveLen(posting.walk);
  }
  return changes;
}

struct RestoreFixture {
  test::RandomInstance inst = MakeRandomInstance(400, 2400, 2, 601, 0.6);
  opinion::FJModel model{inst.graph};
  ScoreEvaluator ev{model, inst.state, 0, 6, voting::ScoreSpec::Cumulative()};
  const std::vector<double>& opinions = ev.target_campaign().initial_opinions;
  std::unique_ptr<WalkSet> walks;
  WalkSet fresh{1};

  RestoreFixture() {
    SketchBuildOptions build;
    build.num_threads = 1;
    walks = BuildSketchSet(ev, 8000, /*master_seed=*/11, build);
    fresh = *walks;
    fresh.ResetValues(opinions);
  }
};

TEST(WalkSetRestoreTest, RandomTruncationsRestoreToTheFreshReset) {
  RestoreFixture f;
  const uint32_t n = f.walks->num_nodes();
  const size_t bound = f.walks->undo_log_bound();
  ASSERT_GT(bound, 0u);
  Rng rng(5);
  size_t restored_rounds = 0;
  for (int round = 0; round < 30; ++round) {
    // Random seeds, as many as fit in the log.
    size_t logged = 0;
    const auto count = static_cast<uint32_t>(1 + rng.UniformInt(8));
    for (uint32_t i = 0; i < count; ++i) {
      const auto v = static_cast<graph::NodeId>(rng.UniformInt(n));
      const size_t changes = PendingChanges(*f.walks, v);
      if (logged + changes > bound) continue;
      f.walks->Truncate(v, [](uint32_t, double) {});
      logged += changes;
    }
    EXPECT_EQ(f.walks->at_baseline(), logged == 0);
    const std::optional<size_t> replayed = f.walks->RestoreBaseline();
    ASSERT_TRUE(replayed.has_value()) << "round " << round;
    EXPECT_EQ(*replayed, logged);
    restored_rounds += logged > 0;
    EXPECT_TRUE(f.walks->at_baseline());
    ExpectSameDynamicState(*f.walks, f.fresh);
  }
  EXPECT_GT(restored_rounds, 20u);
  // Nothing to undo: a restore on the baseline replays no entry.
  EXPECT_EQ(f.walks->RestoreBaseline(), std::optional<size_t>(0));
}

TEST(WalkSetRestoreTest, LogPastItsBoundFallsBackToResetValues) {
  RestoreFixture f;
  const uint32_t n = f.walks->num_nodes();
  // Seeding every node in a shuffled order shortens walks repeatedly: far
  // more changes than the log's bound.
  std::vector<graph::NodeId> order(n);
  for (graph::NodeId v = 0; v < n; ++v) order[v] = v;
  Rng rng(9);
  rng.Shuffle(&order);
  size_t changes = 0;
  for (const graph::NodeId v : order) {
    changes += PendingChanges(*f.walks, v);
    f.walks->Truncate(v, [](uint32_t, double) {});
  }
  ASSERT_GT(changes, f.walks->undo_log_bound());

  // The dropped log cannot restore; the state is left as it was, and the
  // log's memory is released.
  const WalkSet before = *f.walks;
  EXPECT_FALSE(f.walks->RestoreBaseline().has_value());
  EXPECT_FALSE(f.walks->at_baseline());
  ExpectSameDynamicState(*f.walks, before);
  EXPECT_EQ(f.walks->memory_bytes(), f.fresh.memory_bytes());

  // The fallback ResetValues re-arms the log.
  f.walks->ResetValues(f.opinions);
  ExpectSameDynamicState(*f.walks, f.fresh);
  f.walks->Truncate(order[0], [](uint32_t, double) {});
  ASSERT_TRUE(f.walks->RestoreBaseline().has_value());
  ExpectSameDynamicState(*f.walks, f.fresh);
}

TEST(WalkSetRestoreTest, NoBaselineBeforeTheFirstReset) {
  RestoreFixture f;
  std::shared_ptr<const WalkSet> owner = std::move(f.walks);
  auto clone = owner->ShareFrozen(owner);
  EXPECT_FALSE(clone->RestoreBaseline().has_value());
  EXPECT_FALSE(clone->at_baseline());
  clone->ResetValues(f.opinions);
  EXPECT_TRUE(clone->at_baseline());
  ExpectSameDynamicState(*clone, f.fresh);
}

TEST(WalkSetRestoreTest, BaselineGainsLiveOnlyAtTheBaseline) {
  RestoreFixture f;
  const uint32_t n = f.walks->num_nodes();
  EXPECT_TRUE(f.walks->baseline_gains().empty());
  f.walks->set_baseline_gains(std::vector<double>(n, 0.5));
  EXPECT_EQ(f.walks->baseline_gains().size(), n);
  f.walks->Truncate(0, [](uint32_t, double) {});
  EXPECT_TRUE(f.walks->baseline_gains().empty());  // not at baseline
  ASSERT_TRUE(f.walks->RestoreBaseline().has_value());
  EXPECT_EQ(f.walks->baseline_gains().size(), n);  // same baseline again
  f.walks->ResetValues(f.opinions);
  EXPECT_TRUE(f.walks->baseline_gains().empty());  // a reset drops it
}

// ---------------------------------------------------------------------------
// Walk engine: unbiasedness (Thms. 8 and 9).
// ---------------------------------------------------------------------------

TEST(WalkEngineTest, WalkLengthBoundedByHorizon) {
  auto inst = MakeRandomInstance(30, 150, 2, 5);
  graph::AliasSampler alias(inst.graph);
  WalkEngine engine(inst.graph, inst.state.campaigns[0], alias);
  Rng rng(6);
  std::vector<graph::NodeId> walk;
  for (uint32_t t : {0u, 1u, 5u}) {
    for (int i = 0; i < 50; ++i) {
      engine.Generate(static_cast<graph::NodeId>(i % 30), t, &rng, &walk);
      EXPECT_GE(walk.size(), 1u);
      EXPECT_LE(walk.size(), t + 1);
    }
  }
}

TEST(WalkEngineTest, FullyStubbornStartNeverMoves) {
  auto inst = MakeRandomInstance(20, 100, 2, 7);
  inst.state.campaigns[0].stubbornness[4] = 1.0;
  graph::AliasSampler alias(inst.graph);
  WalkEngine engine(inst.graph, inst.state.campaigns[0], alias);
  Rng rng(8);
  std::vector<graph::NodeId> walk;
  for (int i = 0; i < 20; ++i) {
    engine.Generate(4, 10, &rng, &walk);
    EXPECT_EQ(walk, std::vector<graph::NodeId>{4});
  }
}

// Thm. 8/9 on the paper example, where exact opinions are known in closed
// form: the mean estimate over many walks must approach the exact opinion.
TEST(WalkEngineTest, EstimateIsUnbiasedOnPaperExample) {
  auto ex = MakePaperExample();
  opinion::FJModel model(ex.graph);
  graph::AliasSampler alias(ex.graph);
  WalkEngine engine(ex.graph, ex.state.campaigns[0], alias);
  Rng rng(9);
  const uint32_t t = 3;
  const auto exact = model.Propagate(ex.state.campaigns[0], t);
  std::vector<graph::NodeId> walk;
  for (graph::NodeId start = 0; start < 4; ++start) {
    RunningStat stat;
    for (int i = 0; i < 60000; ++i) {
      engine.Generate(start, t, &rng, &walk);
      stat.Add(ex.state.campaigns[0].initial_opinions[walk.back()]);
    }
    EXPECT_NEAR(stat.mean(), exact[start], 0.01) << "start " << start;
  }
}

TEST(WalkEngineTest, PostGenerationTruncationMatchesDirectGeneration) {
  // Thm. 9: E[Y[S]] = b[S] = E[X[S]] (Thm. 8). Compare both estimators
  // against the exact seeded opinion.
  auto inst = MakeRandomInstance(25, 140, 2, 11, /*max_stubbornness=*/0.6);
  opinion::FJModel model(inst.graph);
  graph::AliasSampler alias(inst.graph);
  WalkEngine engine(inst.graph, inst.state.campaigns[0], alias);
  const std::vector<graph::NodeId> seeds = {2, 7};
  std::vector<bool> is_seed(25, false);
  for (auto s : seeds) is_seed[s] = true;
  const uint32_t t = 4;
  const auto exact = model.PropagateWithSeeds(inst.state.campaigns[0], seeds, t);

  Rng rng(13);
  std::vector<graph::NodeId> walk;
  for (graph::NodeId start : {0u, 5u, 12u, 24u}) {
    RunningStat direct, truncated;
    for (int i = 0; i < 40000; ++i) {
      direct.Add(engine.GenerateWithSeeds(start, t, is_seed, &rng));
      engine.Generate(start, t, &rng, &walk);
      // Post-generation truncation at the first seed occurrence.
      double value = inst.state.campaigns[0].initial_opinions[walk.back()];
      for (graph::NodeId v : walk) {
        if (is_seed[v]) {
          value = 1.0;
          break;
        }
      }
      truncated.Add(value);
    }
    EXPECT_NEAR(direct.mean(), exact[start], 0.015) << "start " << start;
    EXPECT_NEAR(truncated.mean(), exact[start], 0.015) << "start " << start;
  }
}

TEST(WalkEngineTest, DirectGenerationEqualsTruncationPerWalk) {
  // Both generators take the same WalkStep, so on one stream Direct
  // Generation with seed set S (Thm. 8) must equal Post-Generation
  // Truncation of the empty-seed-set walk (Thm. 9) walk by walk, not just
  // in expectation: the two consume identical draws up to the first seed.
  auto inst = MakeRandomInstance(25, 140, 2, 11, /*max_stubbornness=*/0.6);
  graph::AliasSampler alias(inst.graph);
  const opinion::Campaign& campaign = inst.state.campaigns[0];
  WalkEngine engine(inst.graph, campaign, alias);
  const uint64_t master_seed = 31;
  std::vector<graph::NodeId> walk;
  for (const std::vector<graph::NodeId>& seeds :
       std::vector<std::vector<graph::NodeId>>{{}, {2, 7}, {0, 5, 12, 24}}) {
    std::vector<bool> is_seed(25, false);
    for (auto s : seeds) is_seed[s] = true;
    for (const uint32_t t : {0u, 1u, 4u}) {
      for (uint64_t j = 0; j < 2000; ++j) {
        Rng generate_rng = SketchWalkRng(master_seed, j);
        const auto start = static_cast<graph::NodeId>(
            generate_rng.UniformInt(inst.graph.num_nodes()));
        engine.Generate(start, t, &generate_rng, &walk);
        double truncated = campaign.initial_opinions[walk.back()];
        for (graph::NodeId v : walk) {
          if (is_seed[v]) {
            truncated = 1.0;
            break;
          }
        }

        Rng direct_rng = SketchWalkRng(master_seed, j);
        ASSERT_EQ(direct_rng.UniformInt(inst.graph.num_nodes()), start);
        EXPECT_EQ(engine.GenerateWithSeeds(start, t, is_seed, &direct_rng),
                  truncated)
            << "walk " << j << " t=" << t << " |S|=" << seeds.size();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Per-walk RNG streams (GenerateSeeded): the walk definition both the
// in-memory sharded builder and the out-of-core block engine reproduce.
// These pins are load-bearing for determinism-ledger entry #7 — a change
// here silently breaks OOC == in-memory bit-identity.
// ---------------------------------------------------------------------------

TEST(WalkEngineTest, GenerateSeededMatchesManualPerWalkStreams) {
  auto inst = MakeRandomInstance(40, 200, 2, 3);
  graph::AliasSampler alias(inst.graph);
  WalkEngine engine(inst.graph, inst.state.campaigns[0], alias);
  const uint32_t horizon = 5;
  const uint64_t master_seed = 77;
  const uint64_t count = 500;

  WalkBuffer batch;
  engine.GenerateSeeded(0, count, horizon, master_seed, &batch);
  ASSERT_EQ(batch.lengths.size(), count);

  // Walk j must equal: draw start from SketchWalkRng(seed, j), then the
  // single-walk Generate() on the SAME stream.
  size_t cursor = 0;
  std::vector<graph::NodeId> walk;
  for (uint64_t j = 0; j < count; ++j) {
    Rng rng = SketchWalkRng(master_seed, j);
    const auto start =
        static_cast<graph::NodeId>(rng.UniformInt(inst.graph.num_nodes()));
    engine.Generate(start, horizon, &rng, &walk);
    ASSERT_EQ(batch.lengths[j], walk.size()) << "walk " << j;
    for (size_t i = 0; i < walk.size(); ++i) {
      ASSERT_EQ(batch.nodes[cursor + i], walk[i]) << "walk " << j;
    }
    cursor += walk.size();
  }
  EXPECT_EQ(cursor, batch.nodes.size());
}

TEST(WalkEngineTest, GenerateSeededIsBatchSplitInvariant) {
  // Splitting the walk range across calls (any scheduling) concatenates to
  // the same bytes: the property that lets sketch shards and OOC waves
  // carve up walks arbitrarily.
  auto inst = MakeRandomInstance(30, 160, 2, 13);
  graph::AliasSampler alias(inst.graph);
  WalkEngine engine(inst.graph, inst.state.campaigns[0], alias);
  const uint64_t master_seed = 4242;

  WalkBuffer whole;
  engine.GenerateSeeded(0, 300, 6, master_seed, &whole);

  WalkBuffer pieces;
  for (const auto& [first, n] :
       std::vector<std::pair<uint64_t, uint64_t>>{
           {0, 1}, {1, 99}, {100, 150}, {250, 50}}) {
    engine.GenerateSeeded(first, n, 6, master_seed, &pieces);
  }
  EXPECT_EQ(pieces.nodes, whole.nodes);
  EXPECT_EQ(pieces.lengths, whole.lengths);
}

TEST(WalkEngineTest, GenerateSeededPinnedTrajectories) {
  // Golden pin on the paper example: exact trajectories for a fixed
  // (master_seed, horizon). If this changes, every persisted sketch and
  // the OOC equivalence guarantee changed with it — do not re-pin without
  // bumping the sketch store's compatibility story.
  auto ex = MakePaperExample();
  graph::AliasSampler alias(ex.graph);
  WalkEngine engine(ex.graph, ex.state.campaigns[0], alias);
  WalkBuffer out;
  engine.GenerateSeeded(0, 6, 4, /*master_seed=*/1, &out);
  const std::vector<uint32_t> kGoldenLengths = {2, 2, 1, 1, 2, 1};
  const std::vector<graph::NodeId> kGoldenNodes = {3, 2, 2, 0, 3, 1, 2, 1, 3};
  EXPECT_EQ(out.lengths, kGoldenLengths);
  EXPECT_EQ(out.nodes, kGoldenNodes);
}

// ---------------------------------------------------------------------------
// Accuracy bounds (Thms. 10-12).
// ---------------------------------------------------------------------------

TEST(AccuracyTest, LambdaFormulasMatchPaper) {
  // Thm. 10 with delta = 0.1, rho = 0.9: ln(20)/(2*0.01) ~ 149.8 -> 150.
  EXPECT_EQ(LambdaForCumulative(0.1, 0.9), 150u);
  // Plurality (two-sided) needs more walks than Copeland (one-sided).
  EXPECT_GT(LambdaFromGamma(0.1, 0.9, false),
            LambdaFromGamma(0.1, 0.9, true));
  // Smaller margins need more walks.
  EXPECT_GT(LambdaFromGamma(0.05, 0.9, false),
            LambdaFromGamma(0.1, 0.9, false));
  // Higher confidence needs more walks.
  EXPECT_GT(LambdaForCumulative(0.1, 0.95), LambdaForCumulative(0.1, 0.75));
}

TEST(AccuracyTest, LogBinomial) {
  EXPECT_NEAR(LogBinomial(5, 2), std::log(10.0), 1e-9);
  EXPECT_NEAR(LogBinomial(10, 0), 0.0, 1e-9);
  EXPECT_EQ(LogBinomial(3, 5), -std::numeric_limits<double>::infinity());
}

TEST(AccuracyTest, GammaStarRespectsFloorAndShrinks) {
  auto inst = MakeRandomInstance(30, 150, 3, 17);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 4, voting::ScoreSpec::Plurality());
  GammaOptions options;
  options.gamma_floor = 0.05;
  const auto gamma = EstimateGammaStar(ev, 3, options);
  ASSERT_EQ(gamma.size(), 30u);
  for (uint32_t v = 0; v < 30; ++v) {
    EXPECT_GE(gamma[v], 0.05);
    EXPECT_LE(gamma[v], 1.0);
  }
}

TEST(AccuracyTest, LambdasFromGammaClamped) {
  const std::vector<double> gamma = {0.001, 0.5, 1.0};
  const auto lambdas = LambdasFromGammaStar(gamma, 0.9, false, 100);
  EXPECT_EQ(lambdas[0], 100u);  // capped
  EXPECT_GE(lambdas[1], 1u);
  EXPECT_LE(lambdas[2], 100u);
}

// ---------------------------------------------------------------------------
// Estimated greedy (Algorithm 4 loop).
// ---------------------------------------------------------------------------

TEST(EstimatedGreedyTest, PaperExampleCumulativePicksNodeZero) {
  auto ex = MakePaperExample();
  opinion::FJModel model(ex.graph);
  ScoreEvaluator ev(model, ex.state, 0, 1, voting::ScoreSpec::Cumulative());

  // Exact walks: enough per node that the estimates are sharp.
  graph::AliasSampler alias(ex.graph);
  WalkEngine engine(ex.graph, ex.state.campaigns[0], alias);
  Rng rng(19);
  WalkSet walks(4);
  std::vector<graph::NodeId> scratch;
  for (graph::NodeId v = 0; v < 4; ++v) {
    for (int j = 0; j < 4000; ++j) {
      engine.Generate(v, 1, &rng, &scratch);
      walks.AddWalk(scratch);
    }
  }
  walks.Finalize(ex.state.campaigns[0].initial_opinions);
  const auto result = EstimatedGreedySelect(ev, 1, &walks);
  EXPECT_EQ(result.seeds, std::vector<graph::NodeId>{0});
  EXPECT_NEAR(result.score, 3.30, 1e-9);  // exact score of chosen set
  EXPECT_NEAR(result.diagnostics.at("estimated_score"), 3.30, 0.05);
}

TEST(RWGreedyTest, CumulativeCloseToExactGreedy) {
  auto inst = MakeRandomInstance(60, 300, 2, 23, /*max_stubbornness=*/0.8);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 5, voting::ScoreSpec::Cumulative());
  const auto exact = GreedyDMSelect(ev, 4);
  RWOptions options;
  options.rho = 0.9;
  options.delta = 0.05;
  const auto rw = RWGreedySelect(ev, 4, options);
  EXPECT_EQ(rw.seeds.size(), 4u);
  // The RW greedy achieves at least 90% of exact greedy on this instance.
  EXPECT_GE(rw.score, 0.9 * exact.score);
  EXPECT_GT(rw.diagnostics.at("walks"), 0.0);
}

TEST(RWGreedyTest, PluralityAndCopelandProduceValidResults) {
  auto inst = MakeRandomInstance(40, 220, 3, 29, /*max_stubbornness=*/0.8);
  opinion::FJModel model(inst.graph);
  for (auto spec :
       {voting::ScoreSpec::Plurality(), voting::ScoreSpec::Copeland()}) {
    ScoreEvaluator ev(model, inst.state, 0, 4, spec);
    RWOptions options;
    options.lambda_cap = 64;  // keep the test fast
    const auto result = RWGreedySelect(ev, 3, options);
    EXPECT_EQ(result.seeds.size(), 3u);
    EXPECT_GE(result.score, ev.EvaluateSeeds({}));
  }
}

TEST(RWGreedyTest, LambdaOverrideControlsWalkCount) {
  auto inst = MakeRandomInstance(20, 100, 2, 31);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 3, voting::ScoreSpec::Cumulative());
  RWOptions options;
  options.lambda_override = 7;
  const auto result = RWGreedySelect(ev, 2, options);
  EXPECT_DOUBLE_EQ(result.diagnostics.at("walks"), 140.0);  // 20 * 7
  EXPECT_DOUBLE_EQ(result.diagnostics.at("lambda_mean"), 7.0);
}

TEST(EstimatedGreedyTest, MoreSeedsNeverLowerEstimatedCumulative) {
  auto inst = MakeRandomInstance(30, 160, 2, 37);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 4, voting::ScoreSpec::Cumulative());
  RWOptions options;
  options.lambda_override = 32;
  double previous = -1.0;
  for (uint32_t k : {1u, 3u, 6u}) {
    RWOptions o = options;
    const auto result = RWGreedySelect(ev, k, o);
    EXPECT_GE(result.score, previous - 1e-9);
    previous = result.score;
  }
}

}  // namespace
}  // namespace voteopt::core
