// The unified typed query API, pinned four ways:
//  * engine equivalence — api::Engine answers TopK / MinSeed / Evaluate
//    byte-identically to a 1-worker engine across worker thread counts
//    1/2/4 (and to the direct core selection path), so the worker count
//    changes the plumbing, not one answer;
//  * the full nine-method roster is invocable through the engine AND
//    through parsed wire requests (the protocol's "method" field);
//  * the new MethodCompare / RuleSweep scenarios return one scored entry
//    per method (paper plotting order) resp. per voting rule;
//  * QueryOptions toggles (lazy, single_pass, evaluate_exact) and the
//    rule/version validation behave as documented.
#include "api/engine.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>

#include "core/estimated_greedy.h"
#include "core/sketch.h"
#include "serve/protocol.h"
#include "util/rng.h"

namespace voteopt::api {
namespace {

class ApiEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prefix_ = ::testing::TempDir() + "/api_engine_bundle";
    dataset_ = datasets::MakeDataset(datasets::DatasetName::kTwitterMask,
                                     0.05, /*seed=*/7);
    ASSERT_TRUE(datasets::SaveDatasetBundle(dataset_, prefix_).ok());
  }
  void TearDown() override {
    for (const char* suffix : {".influence.edges", ".counts.edges",
                               ".campaigns.tsv", ".meta", ".sketch"}) {
      std::remove((prefix_ + suffix).c_str());
    }
  }

  EngineOptions Options(uint32_t worker_threads = 1) const {
    EngineOptions options;
    options.load.bundle_prefix = prefix_;
    options.load.build_theta = 20000;
    options.load.build_horizon = 10;
    options.load.save_built_sketch = true;
    options.load.build_threads = 2;
    options.num_worker_threads = worker_threads;
    return options;
  }

  /// The mixed batch the equivalence test pins: every PR-4 query verb,
  /// several voting rules, and one deliberate error.
  static std::vector<Request> Pr4Batch() {
    std::vector<Request> batch;
    batch.push_back(Request::TopK(5, voting::ScoreSpec::Cumulative()));
    batch.push_back(Request::TopK(4, voting::ScoreSpec::Plurality()));
    batch.push_back(Request::TopK(3, voting::ScoreSpec::Copeland()));
    batch.push_back(Request::MinSeed(24, voting::ScoreSpec::Cumulative()));
    batch.push_back(Request::Evaluate({1, 2, 3},
                                      voting::ScoreSpec::Cumulative()));
    {
      Request evaluate =
          Request::Evaluate({4, 5}, voting::ScoreSpec::Plurality());
      evaluate.rule = "borda";
      evaluate.overrides = {{0, 1.0}, {1, 0.25}};
      batch.push_back(evaluate);
    }
    batch.push_back(Request::TopK(0, voting::ScoreSpec::Cumulative()));
    for (size_t i = 0; i < batch.size(); ++i) {
      // Appended, not "q" + to_string: GCC 12 misreports that as -Wrestrict.
      batch[i].id = "q";
      batch[i].id += std::to_string(i);
    }
    return batch;
  }

  std::string prefix_;
  datasets::Dataset dataset_;
};

TEST_F(ApiEngineTest, AnswersIdenticalAcrossWorkerCounts) {
  const std::vector<Request> batch = Pr4Batch();

  // Reference: a 1-worker engine.
  auto reference = api::Engine::Open(Options(1));
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  std::vector<std::string> expected;
  for (const Response& response : (*reference)->ExecuteBatch(batch)) {
    expected.push_back(response.ToStableJson());
  }

  for (const uint32_t threads : {1u, 2u, 4u}) {
    auto engine = Engine::Open(Options(threads));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    const std::vector<Response> responses = (*engine)->ExecuteBatch(batch);
    ASSERT_EQ(responses.size(), expected.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      EXPECT_EQ(responses[i].ToStableJson(), expected[i])
          << "request " << i << " diverged at --threads " << threads;
    }
  }
}

TEST_F(ApiEngineTest, TopKMatchesDirectCoreSelection) {
  auto engine = Engine::Open(Options());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const Response response = (*engine)->Execute(
      Request::TopK(6, voting::ScoreSpec::Cumulative()));
  ASSERT_TRUE(response.ok) << response.error;

  // Reference: the same sketch built directly from the persisted recipe
  // and consumed by the same greedy loop — the PR-4 semantics.
  opinion::FJModel model(dataset_.influence);
  voting::ScoreEvaluator evaluator(model, dataset_.state,
                                   dataset_.default_target, /*horizon=*/10,
                                   voting::ScoreSpec::Cumulative());
  core::SketchBuildOptions build_options;
  build_options.num_threads = 2;
  auto walks = core::BuildSketchSet(evaluator, 20000, /*master_seed=*/42,
                                    build_options);
  const core::SelectionResult expected =
      core::EstimatedGreedySelect(evaluator, 6, walks.get());
  EXPECT_EQ(response.seeds, expected.seeds);
  EXPECT_DOUBLE_EQ(response.exact_score, expected.score);
}

TEST_F(ApiEngineTest, AllNineMethodsInvocableOverTheWire) {
  auto engine = Engine::Open(Options());
  ASSERT_TRUE(engine.ok());
  for (const baselines::Method method : baselines::AllMethods()) {
    // Lower-case method spelling: the codec parses case-insensitively.
    std::string name = baselines::MethodName(method);
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    const std::string line = std::string("{\"op\": \"topk\", \"v\": 2, ") +
                             "\"k\": 3, \"rule\": \"plurality\", " +
                             "\"method\": \"" + name + "\"}";
    auto request = serve::ParseRequest(line);
    ASSERT_TRUE(request.ok()) << line << ": " << request.status().ToString();
    EXPECT_EQ(request->method, method);
    const Response response = (*engine)->Execute(*request);
    ASSERT_TRUE(response.ok)
        << baselines::MethodName(method) << ": " << response.error;
    EXPECT_EQ(response.seeds.size(), 3u) << baselines::MethodName(method);
    EXPECT_GT(response.exact_score, 0.0) << baselines::MethodName(method);
    // Non-RS answers name the method; the RS default stays off the wire.
    if (method == baselines::Method::kRS) {
      EXPECT_TRUE(response.method.empty());
      EXPECT_EQ(response.ToJson().find("\"method\""), std::string::npos);
    } else {
      EXPECT_EQ(response.method, baselines::MethodName(method));
      EXPECT_NE(response.ToJson().find("\"method\""), std::string::npos);
    }
  }
}

TEST_F(ApiEngineTest, MethodCompareReturnsRosterInPaperOrder) {
  auto engine = Engine::Open(Options());
  ASSERT_TRUE(engine.ok());
  const Response response = (*engine)->Execute(
      Request::MethodCompare(2, voting::ScoreSpec::Plurality()));
  ASSERT_TRUE(response.ok) << response.error;
  const auto roster = baselines::AllMethods();
  ASSERT_EQ(response.method_scores.size(), roster.size());
  for (size_t i = 0; i < roster.size(); ++i) {
    const MethodScore& entry = response.method_scores[i];
    EXPECT_EQ(entry.method, baselines::MethodName(roster[i]))
        << "entry " << i << " out of paper order";
    EXPECT_EQ(entry.seeds.size(), 2u) << entry.method;
    EXPECT_GT(entry.exact_score, 0.0) << entry.method;
  }
  // The wire form carries one object per method.
  const std::string json = response.ToJson();
  for (const baselines::Method method : roster) {
    EXPECT_NE(json.find("{\"method\": \"" +
                        std::string(baselines::MethodName(method)) + "\""),
              std::string::npos);
  }
}

TEST_F(ApiEngineTest, MethodCompareHonorsExplicitRoster) {
  auto engine = Engine::Open(Options());
  ASSERT_TRUE(engine.ok());
  Request request = Request::MethodCompare(3, voting::ScoreSpec::Cumulative());
  request.methods = {baselines::Method::kDegree, baselines::Method::kRS};
  const Response response = (*engine)->Execute(request);
  ASSERT_TRUE(response.ok) << response.error;
  ASSERT_EQ(response.method_scores.size(), 2u);
  EXPECT_EQ(response.method_scores[0].method, "DC");
  EXPECT_EQ(response.method_scores[1].method, "RS");
  // The RS entry must equal a plain RS topk on the same instance.
  const Response topk = (*engine)->Execute(
      Request::TopK(3, voting::ScoreSpec::Cumulative()));
  EXPECT_EQ(response.method_scores[1].seeds, topk.seeds);
  EXPECT_DOUBLE_EQ(response.method_scores[1].exact_score, topk.exact_score);
}

TEST_F(ApiEngineTest, RuleSweepScoresAllFiveRules) {
  auto engine = Engine::Open(Options());
  ASSERT_TRUE(engine.ok());
  const Response response = (*engine)->Execute(Request::RuleSweep(4));
  ASSERT_TRUE(response.ok) << response.error;
  ASSERT_EQ(response.rule_scores.size(), 5u);
  const char* expected_order[] = {"cumulative", "plurality", "papproval",
                                  "positional", "copeland"};
  const uint32_t r = dataset_.state.num_candidates();
  for (size_t i = 0; i < 5; ++i) {
    const RuleScore& entry = response.rule_scores[i];
    EXPECT_EQ(entry.rule, expected_order[i]);
    EXPECT_EQ(entry.seeds.size(), 4u) << entry.rule;
    EXPECT_LT(entry.winner, r) << entry.rule;
  }
  // Each rule's entry pins the same answer a dedicated topk returns.
  const Response cumulative = (*engine)->Execute(
      Request::TopK(4, voting::ScoreSpec::Cumulative()));
  EXPECT_EQ(response.rule_scores[0].seeds, cumulative.seeds);
  EXPECT_DOUBLE_EQ(response.rule_scores[0].exact_score,
                   cumulative.exact_score);
}

TEST_F(ApiEngineTest, QueryOptionTogglesPreserveAnswers) {
  auto engine = Engine::Open(Options());
  ASSERT_TRUE(engine.ok());

  // CELF lazy vs exhaustive: bit-identical seeds and estimate.
  Request topk = Request::TopK(8, voting::ScoreSpec::Cumulative());
  const Response lazy = (*engine)->Execute(topk);
  topk.options.lazy = false;
  const Response exhaustive = (*engine)->Execute(topk);
  ASSERT_TRUE(lazy.ok && exhaustive.ok);
  EXPECT_EQ(lazy.seeds, exhaustive.seeds);
  EXPECT_DOUBLE_EQ(lazy.estimated_score, exhaustive.estimated_score);
  EXPECT_GT(exhaustive.diagnostics.at("gain_evaluations"),
            lazy.diagnostics.at("gain_evaluations"));

  // Single-pass vs binary-search min-seed: identical k*, seeds, outcome.
  Request minseed = Request::MinSeed(24, voting::ScoreSpec::Cumulative());
  const Response single = (*engine)->Execute(minseed);
  minseed.options.single_pass = false;
  const Response searched = (*engine)->Execute(minseed);
  ASSERT_TRUE(single.ok && searched.ok);
  EXPECT_EQ(single.achievable, searched.achievable);
  EXPECT_EQ(single.k_star, searched.k_star);
  EXPECT_EQ(single.seeds, searched.seeds);
  EXPECT_LE(single.selector_calls, 1u);
  EXPECT_GE(searched.selector_calls, single.selector_calls);

  // evaluate_exact=false skips the final exact propagation.
  topk.options.lazy = true;
  topk.options.evaluate_exact = false;
  const Response estimated_only = (*engine)->Execute(topk);
  ASSERT_TRUE(estimated_only.ok);
  EXPECT_EQ(estimated_only.seeds, lazy.seeds);
  EXPECT_DOUBLE_EQ(estimated_only.exact_score, 0.0);
}

TEST_F(ApiEngineTest, ResolveRuleValidatesBordaAndEnumeratesRules) {
  // Borda weights are undefined for a single-candidate walkover.
  const auto walkover = ResolveRule("borda", 1, {}, /*num_candidates=*/1);
  ASSERT_FALSE(walkover.ok());
  EXPECT_EQ(walkover.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(walkover.status().message().find("borda"), std::string::npos);

  const auto two = ResolveRule("borda", 1, {}, /*num_candidates=*/2);
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(two->kind, voting::ScoreKind::kPositionalPApproval);
  EXPECT_EQ(two->omega, (std::vector<double>{1.0, 0.0}));

  // Unknown rules enumerate the vocabulary.
  const auto unknown = ResolveRule("frobnicate", 1, {}, 4);
  ASSERT_FALSE(unknown.ok());
  for (const char* rule : {"cumulative", "plurality", "papproval",
                           "positional", "copeland", "borda"}) {
    EXPECT_NE(unknown.status().message().find(rule), std::string::npos);
  }
}

TEST_F(ApiEngineTest, BordaOverTheWireUsesTheDatasetCandidateCount) {
  auto engine = Engine::Open(Options());
  ASSERT_TRUE(engine.ok());
  auto request = serve::ParseRequest(
      R"({"op": "topk", "k": 3, "rule": "borda"})");
  ASSERT_TRUE(request.ok());
  const Response response = (*engine)->Execute(*request);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.seeds.size(), 3u);
  // r = 2 here, so borda == plurality: identical selections.
  const Response plurality = (*engine)->Execute(
      Request::TopK(3, voting::ScoreSpec::Plurality()));
  EXPECT_EQ(response.seeds, plurality.seeds);
}

TEST_F(ApiEngineTest, UnsupportedVersionFailsCleanly) {
  auto engine = Engine::Open(Options());
  ASSERT_TRUE(engine.ok());
  Request request = Request::TopK(2, voting::ScoreSpec::Cumulative());
  request.v = kProtocolVersion + 1;
  const Response response = (*engine)->Execute(request);
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("unsupported protocol version"),
            std::string::npos);
  request.v = kProtocolVersion;
  EXPECT_TRUE((*engine)->Execute(request).ok);
}

TEST_F(ApiEngineTest, TraceIsAnAdditiveSideChannel) {
  auto engine = Engine::Open(Options());
  ASSERT_TRUE(engine.ok());

  // The determinism ledger: a traced request and its untraced twin return
  // byte-identical stable answers — tracing observes, it never perturbs.
  for (Request request : Pr4Batch()) {
    request.trace = false;
    const Response untraced = (*engine)->Execute(request);
    request.trace = true;
    const Response traced = (*engine)->Execute(request);
    EXPECT_EQ(traced.ToStableJson(), untraced.ToStableJson())
        << "request " << request.id << " diverged under trace";
    EXPECT_FALSE(untraced.traced);
    EXPECT_EQ(untraced.ToJson().find("diagnostics"), std::string::npos);
    if (traced.ok) {
      EXPECT_TRUE(traced.traced);
    }
  }

  // A traced RS topk reports the stage schema and the work counts.
  Request topk = Request::TopK(5, voting::ScoreSpec::Cumulative());
  topk.trace = true;
  const Response response = (*engine)->Execute(topk);
  ASSERT_TRUE(response.ok) << response.error;
  for (const char* stage :
       {"stage.dispatch_ms", "stage.state_lease_ms", "stage.selection_ms",
        "stage.evaluation_ms"}) {
    ASSERT_TRUE(response.diagnostics.count(stage)) << stage;
    EXPECT_GE(response.diagnostics.at(stage), 0.0) << stage;
  }
  EXPECT_TRUE(response.diagnostics.count("work.sketch_resets"));
  EXPECT_TRUE(response.diagnostics.count("work.gain_evaluations"));
  // The bare pre-v3 alias was retired at v4: work counts carry `work.`.
  EXPECT_FALSE(response.diagnostics.count("gain_evaluations"));

  // A traced minseed reports its selector-call work count.
  Request minseed = Request::MinSeed(24, voting::ScoreSpec::Cumulative());
  minseed.trace = true;
  const Response min_response = (*engine)->Execute(minseed);
  ASSERT_TRUE(min_response.ok) << min_response.error;
  EXPECT_EQ(min_response.diagnostics.at("work.selector_calls"),
            static_cast<double>(min_response.selector_calls));
}

TEST_F(ApiEngineTest, SlowQueryLogFiresAtThresholdWithStages) {
  EngineOptions options = Options();
  options.slow_query_millis = 0.0;  // every query is "slow"
  auto engine = Engine::Open(options);
  ASSERT_TRUE(engine.ok());

  ::testing::internal::CaptureStderr();
  Request request = Request::TopK(3, voting::ScoreSpec::Cumulative());
  request.id = "slowq";
  const Response response = (*engine)->Execute(request);
  const std::string log = ::testing::internal::GetCapturedStderr();
  ASSERT_TRUE(response.ok) << response.error;

  // One structured line: identity, timing, and the stage breakdown — even
  // though the client did not opt into wire-level tracing.
  EXPECT_NE(log.find("\"slow_query\": true"), std::string::npos) << log;
  EXPECT_NE(log.find("\"op\": \"topk\""), std::string::npos);
  EXPECT_NE(log.find("\"id\": \"slowq\""), std::string::npos);
  EXPECT_NE(log.find("\"threshold_millis\": 0"), std::string::npos);
  EXPECT_NE(log.find("stage.selection_ms"), std::string::npos);
  EXPECT_FALSE(response.traced);  // the log is not the wire side channel

  // Disarmed (the default -1): silence.
  auto quiet = Engine::Open(Options());
  ASSERT_TRUE(quiet.ok());
  ::testing::internal::CaptureStderr();
  ASSERT_TRUE((*quiet)->Execute(request).ok);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST_F(ApiEngineTest, HostsInMemoryDatasetsWithTargetOverride) {
  auto engine = Engine::Open({});  // empty registry, no bootstrap
  ASSERT_TRUE(engine.ok());
  HostOptions host;
  host.theta = 5000;
  host.horizon = 10;
  host.target = 1;
  ASSERT_TRUE((*engine)->Host("mem", dataset_, host).ok());
  EXPECT_EQ((*engine)->sketch_meta().target, 1u);
  EXPECT_EQ((*engine)->sketch_meta().theta, 5000u);

  const Response response = (*engine)->Execute(
      Request::TopK(3, voting::ScoreSpec::Cumulative()));
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.dataset, "mem");
  EXPECT_EQ(response.seeds.size(), 3u);

  // Same name twice: FailedPrecondition, like a double protocol load.
  EXPECT_FALSE((*engine)->Host("mem", dataset_, host).ok());
  // Out-of-range target override: clean error, no assert.
  host.target = 99;
  EXPECT_FALSE((*engine)->Host("mem2", dataset_, host).ok());
}

TEST_F(ApiEngineTest, HostBuildsIdenticalSketchThroughOocPath) {
  // block_budget_bytes routes the inline build through sketch_ooc/; every
  // answer must match the in-memory build bit-for-bit (ledger entry 7
  // surfaced at the api layer).
  auto mem_engine = Engine::Open({});
  auto ooc_engine = Engine::Open({});
  ASSERT_TRUE(mem_engine.ok() && ooc_engine.ok());
  HostOptions host;
  host.theta = 8000;
  host.horizon = 8;
  ASSERT_TRUE((*mem_engine)->Host("mem", dataset_, host).ok());
  host.block_budget_bytes = 4096;  // forces several blocks at this scale
  host.ooc_scratch_prefix = ::testing::TempDir() + "/api_ooc_scratch";
  ASSERT_TRUE((*ooc_engine)->Host("mem", dataset_, host).ok());

  // Server-side timing is the one legitimately nondeterministic field.
  const auto strip_millis = [](std::string json) {
    const size_t at = json.find(", \"millis\":");
    if (at != std::string::npos) json.resize(at);
    return json;
  };
  for (const auto& request : Pr4Batch()) {
    const Response a = (*mem_engine)->Execute(request);
    const Response b = (*ooc_engine)->Execute(request);
    EXPECT_EQ(strip_millis(a.ToJson()), strip_millis(b.ToJson()))
        << "request " << request.id;
  }
}

TEST_F(ApiEngineTest, ReusedWorkerStateAnswersLikeAFreshEngine) {
  // One single-worker engine answers a shuffled mix of selections under
  // every rule, evaluates and one commit, all on one reused worker state:
  // undo-log restores, memoized baseline gains, cached evaluators. A fresh
  // engine per request has none of that history. Every answer must be the
  // same bytes: a state's answers do not depend on what it answered before.
  HostOptions host;
  host.theta = 6000;
  host.horizon = 8;
  const uint32_t n = dataset_.influence.num_nodes();
  voting::ScoreSpec papproval;
  papproval.kind = voting::ScoreKind::kPApproval;
  papproval.p = 2;

  std::vector<Request> mix;
  for (int copy = 0; copy < 2; ++copy) {
    mix.push_back(Request::TopK(5, voting::ScoreSpec::Cumulative()));
    mix.push_back(Request::TopK(12, voting::ScoreSpec::Cumulative()));
    mix.push_back(Request::TopK(4, voting::ScoreSpec::Plurality()));
    mix.push_back(Request::TopK(3, voting::ScoreSpec::Copeland()));
    mix.push_back(Request::TopK(6, papproval));
    Request borda = Request::TopK(5, voting::ScoreSpec::Plurality());
    borda.rule = "borda";
    mix.push_back(borda);
    mix.push_back(Request::MinSeed(32, voting::ScoreSpec::Cumulative()));
    mix.push_back(Request::MinSeed(0, voting::ScoreSpec::Plurality()));
    mix.push_back(Request::Evaluate({1, 2, 3},
                                    voting::ScoreSpec::Cumulative()));
    mix.push_back(Request::Evaluate({4}, voting::ScoreSpec::Plurality()));
  }
  // Seeds every node: more truncations than the undo log holds.
  mix.push_back(Request::TopK(n, voting::ScoreSpec::Cumulative()));
  Rng rng(2024);
  rng.Shuffle(&mix);
  mix.insert(mix.begin() + static_cast<ptrdiff_t>(mix.size() / 2),
             Request::Mutate({dyn::Mutation::EdgeAdd(0, 5, 1.0),
                              dyn::Mutation::SetOpinion(
                                  dataset_.default_target, 7, 0.95)}));
  for (size_t i = 0; i < mix.size(); ++i) {
    mix[i].id = "r";
    mix[i].id += std::to_string(i);
    mix[i].trace = true;  // a side channel: ToStableJson strips it
  }

  auto reused = Engine::Open({});
  ASSERT_TRUE(reused.ok());
  ASSERT_TRUE((*reused)->Host("mem", dataset_, host).ok());
  uint32_t restores = 0, full_resets = 0;
  for (size_t i = 0; i < mix.size(); ++i) {
    const Response answer = (*reused)->Execute(mix[i]);
    ASSERT_TRUE(answer.ok) << answer.error;
    if (const auto it = answer.diagnostics.find("work.walks_restored");
        it != answer.diagnostics.end()) {
      ++(it->second < host.theta ? restores : full_resets);
    }

    auto fresh = Engine::Open({});
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE((*fresh)->Host("mem", dataset_, host).ok());
    for (size_t j = 0; j < i; ++j) {
      if (mix[j].op == Request::Op::kMutate) (*fresh)->Execute(mix[j]);
    }
    EXPECT_EQ(answer.ToStableJson(), (*fresh)->Execute(mix[i]).ToStableJson())
        << "request " << i << " (" << OpName(mix[i].op) << ")";
  }
  // The mix exercised both reset paths: undo-log restores, and full
  // resets (first selection per state, and after the log overflowed).
  EXPECT_GT(restores, 0u);
  EXPECT_GE(full_resets, 2u);
}

TEST_F(ApiEngineTest, MinSeedCheckScheduleFollowsTheSelector) {
  // A lazy cumulative round is cheap next to an exact winning check, so
  // that minseed gallops (O(log k*) checks); a plurality or Copeland round
  // scans every candidate, so those check every prefix and stop at k*.
  auto engine = Engine::Open({});
  ASSERT_TRUE(engine.ok());
  HostOptions host;
  host.theta = 8000;
  host.horizon = 8;
  ASSERT_TRUE((*engine)->Host("mem", dataset_, host).ok());
  for (const voting::ScoreSpec& spec :
       {voting::ScoreSpec::Cumulative(), voting::ScoreSpec::Plurality(),
        voting::ScoreSpec::Copeland()}) {
    Request request = Request::MinSeed(0, spec);
    request.trace = true;
    const Response answer = (*engine)->Execute(request);
    const std::string rule = voting::ScoreKindName(spec.kind);
    ASSERT_TRUE(answer.ok) << rule << ": " << answer.error;
    ASSERT_TRUE(answer.achievable) << rule;
    ASSERT_GT(answer.k_star, 4u) << rule;
    const double checks = answer.diagnostics.at("work.target_wins_checks");
    if (spec.kind == voting::ScoreKind::kCumulative) {
      EXPECT_LE(checks, 2 * std::bit_width(answer.k_star) + 1) << rule;
    } else {
      EXPECT_EQ(checks, answer.k_star) << rule;
    }
  }
}

TEST_F(ApiEngineTest, RejectsZeroRngSeedForBuiltSketches) {
  // master_seed 0 is SketchMeta's "unknown provenance" sentinel: a sketch
  // built under it could never be repaired, so every later edge commit
  // would fail. Both build paths refuse the seed up front.
  auto engine = Engine::Open({});
  ASSERT_TRUE(engine.ok());
  HostOptions host;
  host.theta = 2000;
  host.horizon = 6;
  host.rng_seed = 0;
  EXPECT_EQ((*engine)->Host("mem", dataset_, host).code(),
            Status::Code::kInvalidArgument);

  EngineOptions options = Options();
  options.load.rng_seed = 0;
  options.load.save_built_sketch = false;
  const auto loaded = Engine::Open(options);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kInvalidArgument);

  // Any other seed hosts, and an edge commit repairs its sketch.
  host.rng_seed = 1;
  ASSERT_TRUE((*engine)->Host("mem", dataset_, host).ok());
  const Response commit = (*engine)->Execute(Request::EdgeAdd(0, 1, 1.0));
  EXPECT_TRUE(commit.ok) << commit.error;
}

}  // namespace
}  // namespace voteopt::api
