#include "voting/evaluator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace voteopt::voting {

ScoreEvaluator::ScoreEvaluator(const opinion::FJModel& model,
                               const opinion::MultiCampaignState& state,
                               CandidateId target, uint32_t horizon,
                               ScoreSpec spec)
    : ScoreEvaluator(
          std::vector<const opinion::FJModel*>(state.num_candidates(),
                                               &model),
          state, target, horizon, std::move(spec)) {}

ScoreEvaluator::ScoreEvaluator(
    const std::vector<const opinion::FJModel*>& models,
    const opinion::MultiCampaignState& state, CandidateId target,
    uint32_t horizon, ScoreSpec spec)
    : models_(models),
      state_(&state),
      target_(target),
      horizon_(horizon),
      spec_(std::move(spec)) {
  assert(models_.size() == state.num_candidates());
  assert(target < state.num_candidates());
  assert(state.Validate(models_[target]->graph().num_nodes()).ok());
  assert(spec_.Validate(state.num_candidates()).ok());

  const uint32_t r = state.num_candidates();
  const uint32_t n = models_[target]->graph().num_nodes();
  horizon_opinions_.resize(r);
  for (CandidateId x = 0; x < r; ++x) {
    assert(models_[x]->graph().num_nodes() == n);
    horizon_opinions_[x] = models_[x]->Propagate(state.campaigns[x], horizon_);
  }
  sorted_competitors_.assign(n, {});
  for (uint32_t v = 0; v < n; ++v) {
    auto& row = sorted_competitors_[v];
    row.reserve(r - 1);
    for (CandidateId x = 0; x < r; ++x) {
      if (x != target_) row.push_back(horizon_opinions_[x][v]);
    }
    std::sort(row.begin(), row.end());
  }
}

std::vector<double> ScoreEvaluator::TargetHorizonOpinions(
    const std::vector<graph::NodeId>& seeds) const {
  // ApplySeeds with no seeds is a copy, so the cached row is bit-identical.
  if (seeds.empty()) return horizon_opinions_[target_];
  return model().PropagateWithSeeds(state_->campaigns[target_], seeds,
                                    horizon_);
}

double ScoreEvaluator::EvaluateSeeds(
    const std::vector<graph::NodeId>& seeds) const {
  return ScoreFromTargetOpinions(TargetHorizonOpinions(seeds));
}

uint32_t ScoreEvaluator::UserRank(uint32_t v, double x) const {
  const auto& row = sorted_competitors_[v];
  // #competitors with value >= x.
  const auto it = std::lower_bound(row.begin(), row.end(), x);
  return 1 + static_cast<uint32_t>(row.end() - it);
}

double ScoreEvaluator::UserRankWeight(uint32_t v, double x) const {
  return spec_.RankWeight(UserRank(v, x));
}

double ScoreEvaluator::UserGamma(uint32_t v, double value) const {
  const auto& row = sorted_competitors_[v];
  assert(!row.empty());
  const auto it = std::lower_bound(row.begin(), row.end(), value);
  double best = std::numeric_limits<double>::infinity();
  if (it != row.end()) best = std::min(best, std::fabs(*it - value));
  if (it != row.begin()) best = std::min(best, std::fabs(*(it - 1) - value));
  return best;
}

double ScoreEvaluator::ScoreFromTargetOpinions(
    const std::vector<double>& target_row) const {
  const uint32_t n = num_users();
  assert(target_row.size() == n);
  switch (spec_.kind) {
    case ScoreKind::kCumulative: {
      double sum = 0.0;
      for (double b : target_row) sum += b;
      return sum;
    }
    case ScoreKind::kPlurality:
    case ScoreKind::kPApproval:
    case ScoreKind::kPositionalPApproval: {
      double total = 0.0;
      for (uint32_t v = 0; v < n; ++v) {
        total += UserRankWeight(v, target_row[v]);
      }
      return total;
    }
    case ScoreKind::kCopeland: {
      double wins_total = 0.0;
      for (CandidateId x = 0; x < num_candidates(); ++x) {
        if (x == target_) continue;
        const auto& other = horizon_opinions_[x];
        int64_t wins = 0, losses = 0;
        for (uint32_t v = 0; v < n; ++v) {
          if (target_row[v] > other[v]) {
            ++wins;
          } else if (target_row[v] < other[v]) {
            ++losses;
          }
        }
        if (wins > losses) wins_total += 1.0;
      }
      return wins_total;
    }
  }
  return 0.0;
}

std::vector<double> ScoreEvaluator::ScoresAllCandidates(
    const std::vector<double>& target_row) const {
  OpinionMatrix matrix = horizon_opinions_;
  matrix[target_] = target_row;
  return AllScores(matrix, spec_);
}

}  // namespace voteopt::voting
