#include "core/min_seed.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace voteopt::core {

bool TargetWins(const ScoreEvaluator& evaluator,
                const std::vector<graph::NodeId>& seeds) {
  const std::vector<double> scores =
      evaluator.ScoresAllCandidates(evaluator.TargetHorizonOpinions(seeds));
  const double target_score = scores[evaluator.target()];
  for (opinion::CandidateId x = 0; x < scores.size(); ++x) {
    if (x == evaluator.target()) continue;
    if (scores[x] >= target_score) return false;
  }
  return true;
}

namespace {

/// TargetWins on a non-empty prefix, counted as one exact check.
bool CountedWins(const ScoreEvaluator& evaluator,
                 const std::vector<graph::NodeId>& seeds,
                 MinSeedResult* result) {
  ++result->target_wins_checks;
  return TargetWins(evaluator, seeds);
}

}  // namespace

MinSeedResult MinSeedsToWin(const ScoreEvaluator& evaluator,
                            const SeedSelector& selector, uint32_t k_max) {
  MinSeedResult result;
  if (TargetWins(evaluator, {})) {
    result.achievable = true;
    result.k_star = 0;
    return result;
  }

  const uint32_t n = evaluator.num_users();
  const uint32_t upper = (k_max == 0 || k_max > n) ? n : k_max;

  // Check feasibility at the maximum budget first.
  SelectionResult at_upper = selector(evaluator, upper);
  ++result.selector_calls;
  if (!CountedWins(evaluator, at_upper.seeds, &result)) {
    result.achievable = false;
    result.k_star = upper;
    result.seeds = std::move(at_upper.seeds);
    return result;
  }
  result.achievable = true;
  result.k_star = upper;
  result.seeds = std::move(at_upper.seeds);

  // Binary search: invariant — target loses at `lower`, wins with
  // result.seeds of size result.k_star <= upper. Correct exactly when the
  // winning predicate is monotone in the budget, which the greedy
  // selectors guarantee through prefix nesting (see min_seed.h).
  uint32_t lower = 0;
  while (result.k_star - lower > 1) {
    const uint32_t mid = lower + (result.k_star - lower) / 2;
    SelectionResult attempt = selector(evaluator, mid);
    ++result.selector_calls;
    if (CountedWins(evaluator, attempt.seeds, &result)) {
      result.k_star = mid;
      result.seeds = std::move(attempt.seeds);
    } else {
      lower = mid;
    }
  }
  return result;
}

MinSeedResult MinSeedsToWinSinglePass(const ScoreEvaluator& evaluator,
                                      const PrefixSelector& selector,
                                      uint32_t k_max, CheckSchedule schedule) {
  MinSeedResult result;
  if (TargetWins(evaluator, {})) {
    result.achievable = true;
    result.k_star = 0;
    return result;
  }

  const uint32_t n = evaluator.num_users();
  const uint32_t upper = (k_max == 0 || k_max > n) ? n : k_max;

  // One selection at the full budget; prefix nesting means the budget-j
  // greedy set IS the length-j prefix. The winning predicate is checked at
  // the schedule's checkpoints, and the selection stops at the first
  // winning one. The winning prefix is captured here rather than taken
  // from the returned result, so a selector that keeps selecting after the
  // stop signal still yields the right seed set.
  const bool galloping = schedule == CheckSchedule::kGalloping;
  uint32_t losing_len = 0;  // longest checked prefix that loses
  std::vector<graph::NodeId> winning;
  const PrefixCallback on_prefix =
      [&](uint32_t len, const std::vector<graph::NodeId>& prefix) {
        if (!winning.empty()) return true;
        if (galloping && !std::has_single_bit(len) && len != upper) {
          return false;
        }
        if (!CountedWins(evaluator, prefix, &result)) {
          losing_len = len;
          return false;
        }
        winning = prefix;
        return true;  // stop selecting: this checkpoint already wins
      };
  SelectionResult full = selector(evaluator, upper, on_prefix);
  ++result.selector_calls;
  // A selector that ran out of candidates before `upper` ends on a prefix
  // that may not be a checkpoint; it is the last one to check.
  if (winning.empty() && full.seeds.size() > losing_len &&
      CountedWins(evaluator, full.seeds, &result)) {
    winning = full.seeds;
  }

  if (winning.empty()) {
    result.achievable = false;
    result.k_star = upper;  // reports the exhausted budget, like the search
    result.seeds = std::move(full.seeds);
    return result;
  }
  // k* lies in (losing_len, |winning|]: bisect on the recorded prefixes
  // (an empty gap unless galloping). The assumed monotonicity of the
  // winning predicate (see min_seed.h) makes the first winning prefix the
  // one an every-prefix scan would stop at.
  auto winning_len = static_cast<uint32_t>(winning.size());
  std::vector<graph::NodeId> probe;
  while (winning_len - losing_len > 1) {
    const uint32_t mid = losing_len + (winning_len - losing_len) / 2;
    probe.assign(winning.begin(), winning.begin() + mid);
    if (CountedWins(evaluator, probe, &result)) {
      winning_len = mid;
    } else {
      losing_len = mid;
    }
  }
  winning.resize(winning_len);
  result.achievable = true;
  result.k_star = winning_len;
  result.seeds = std::move(winning);
  return result;
}

}  // namespace voteopt::core
