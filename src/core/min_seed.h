// Problem 2 (FJ-Vote-Win, paper Algorithm 2): the smallest seed budget k*
// for which the target candidate's score at the horizon strictly exceeds
// every competitor's.
//
// Two drivers share the result type:
//  * MinSeedsToWin — the paper's binary search over k. It treats the
//    selector as a black box and relies only on the winning predicate being
//    monotone in the budget: if the selector's k-budget set wins, its
//    k'-budget set for k' > k must win too. For the greedy selectors this
//    holds because greedy is PREFIX-NESTED — the seed set at budget k is a
//    prefix of the seed set at budget k' > k when both selections run over
//    the same frozen evaluation substrate (the exact evaluator, or one
//    fixed sketch reset between probes) — and scores are non-decreasing in
//    the seed set. tests/core_min_seed_test.cc pins the nesting invariant.
//  * MinSeedsToWinSinglePass — the fast path that makes the invariant
//    explicit: because greedy budgets nest, ONE selection at k_max visits
//    every candidate budget as a prefix, so one selector call replaces the
//    search's 1 + O(log k_max) full reselections. Each prefix it checks
//    costs one exact t-step propagation, and a CheckSchedule says which
//    prefixes it checks: every one (the selection stops at k*, and the
//    answer is the first winning prefix with no monotonicity assumed), or
//    the galloping checkpoints 1, 2, 4, ... and k_max followed by a
//    bisection of the last gap (O(log k*) checks, but the selection may
//    run on to 2k* - 1 seeds). Galloping is only as right as the monotone
//    winning predicate MinSeedsToWin assumes. That holds in exact
//    arithmetic, since a seed only raises target opinions, but rounding
//    does not guarantee it bit for bit: FJModel::Step computes
//    (1 - d) * aggregated + d * initial, and seeding v replaces v's value
//    by exactly 1.0 even where rounding had put it an ulp above.
//    tests/core_min_seed_test.cc pins the galloping answer to the
//    every-prefix one on random instances.
#ifndef VOTEOPT_CORE_MIN_SEED_H_
#define VOTEOPT_CORE_MIN_SEED_H_

#include "core/problem.h"

namespace voteopt::core {

struct MinSeedResult {
  /// Smallest budget found for which the target wins (0 when it wins with
  /// no seeds). Meaningful only when `achievable`.
  uint32_t k_star = 0;
  /// The winning seed set (empty when k_star == 0).
  std::vector<graph::NodeId> seeds;
  /// False when even the maximum budget cannot make the target win.
  bool achievable = false;
  /// Number of selector invocations spent: 1 + O(log k_max) for the binary
  /// search, at most 1 for the single-pass driver.
  uint32_t selector_calls = 0;
  /// Exact winning-criterion checks on non-empty seed sets (one t-step
  /// propagation each); the seedless check is free and not counted.
  uint32_t target_wins_checks = 0;
};

/// Algorithm 2. `selector` produces the (approximately optimal) seed set of
/// a given size; since it is approximate, k* may exceed the true minimum
/// (paper § III-C Remark 2). `k_max` bounds the search (0 means n).
MinSeedResult MinSeedsToWin(const ScoreEvaluator& evaluator,
                            const SeedSelector& selector, uint32_t k_max = 0);

/// Invoked by a PrefixSelector after each greedy iteration with the 1-based
/// prefix length and the seed prefix in selection order; returning true
/// stops the selection with exactly that prefix.
using PrefixCallback =
    std::function<bool(uint32_t, const std::vector<graph::NodeId>&)>;

/// A selection driver for the single-pass fast path: runs ONE greedy
/// selection at budget `k`, reporting every prefix through `on_prefix`
/// (e.g. EstimatedGreedySelect with EstimatedGreedyOptions::on_prefix).
using PrefixSelector = std::function<SelectionResult(
    const ScoreEvaluator&, uint32_t k, const PrefixCallback& on_prefix)>;

class WalkSet;

/// Adapts a PrefixCallback to the (iteration, prefix, walks) signature of
/// EstimatedGreedyOptions::on_prefix, dropping the walk-set argument — the
/// one-line glue every sketch-backed PrefixSelector needs.
inline std::function<bool(uint32_t, const std::vector<graph::NodeId>&,
                          const WalkSet&)>
ToGreedyPrefixHook(const PrefixCallback& on_prefix) {
  return [on_prefix](uint32_t len, const std::vector<graph::NodeId>& prefix,
                     const WalkSet&) { return on_prefix(len, prefix); };
}

/// Which prefixes MinSeedsToWinSinglePass checks with TargetWins. The
/// right one depends on what a selection round costs next to a check.
enum class CheckSchedule {
  /// Every prefix, stopping the selection at the first winning one: k*
  /// checks and k* rounds. For selectors whose rounds cost a full gain
  /// scan (rank-sensitive rules, Copeland, the exhaustive cumulative
  /// scan), where each extra round costs more than the checks saved.
  kEveryPrefix,
  /// Prefixes 1, 2, 4, ... and k_max, stopping at the first winning one,
  /// then a bisection between it and the last losing checkpoint: O(log k*)
  /// checks, up to 2k* - 1 rounds. For the lazy (CELF) cumulative
  /// selector, whose rounds re-evaluate a few gains and cost far less than
  /// a check.
  kGalloping,
};

/// Single-pass Algorithm 2 for prefix-nested (greedy) selectors: one
/// selection at the k_max budget, checking TargetWins at the prefixes
/// `schedule` names. Returns the same k* and seeds as MinSeedsToWin over
/// the equivalent per-budget selector, with selector_calls <= 1 (0 when
/// the target already wins seedless).
MinSeedResult MinSeedsToWinSinglePass(
    const ScoreEvaluator& evaluator, const PrefixSelector& selector,
    uint32_t k_max = 0, CheckSchedule schedule = CheckSchedule::kEveryPrefix);

/// True when the target's score strictly exceeds every competitor's score
/// under the given seed set. Free for the empty set (the evaluator's
/// cached no-seed row); one exact propagation otherwise.
bool TargetWins(const ScoreEvaluator& evaluator,
                const std::vector<graph::NodeId>& seeds);

}  // namespace voteopt::core

#endif  // VOTEOPT_CORE_MIN_SEED_H_
