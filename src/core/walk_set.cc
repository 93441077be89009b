#include "core/walk_set.h"

#include <cassert>

namespace voteopt::core {

WalkSet::WalkSet(uint32_t num_nodes)
    : num_nodes_(num_nodes),
      lambda_(num_nodes, 0),
      start_weight_(num_nodes, 1.0) {
  offsets_.push_back(0);
}

WalkSet::WalkSet(const WalkSet& other)
    : num_nodes_(other.num_nodes_),
      finalized_(other.finalized_),
      adopted_(other.adopted_),
      nodes_(other.nodes_),
      offsets_(other.offsets_),
      starts_(other.starts_),
      lambda_(other.lambda_),
      start_weight_(other.start_weight_),
      index_offsets_(other.index_offsets_),
      index_entries_(other.index_entries_),
      keep_alive_(other.keep_alive_),
      eff_len_(other.eff_len_),
      values_(other.values_),
      est_sum_(other.est_sum_),
      undo_(other.undo_),
      undo_valid_(other.undo_valid_),
      baseline_gains_(other.baseline_gains_) {
  if (adopted_) {
    frozen_ = other.frozen_;  // shared immutable storage, pinned above
  } else if (finalized_) {
    FreezeOwned();  // re-point the views at this copy's vectors
  }
}

WalkSet& WalkSet::operator=(const WalkSet& other) {
  if (this != &other) *this = WalkSet(other);  // copy, then safe move
  return *this;
}

std::unique_ptr<WalkSet> WalkSet::AdoptFrozen(
    uint32_t num_nodes, const Frozen& frozen,
    std::shared_ptr<const void> keep_alive) {
  assert(frozen.offsets.size() == frozen.starts.size() + 1);
  assert(frozen.lambda.size() == num_nodes);
  assert(frozen.start_weight.size() == num_nodes);
  assert(frozen.index_offsets.size() == num_nodes + size_t{1});
  auto set = std::unique_ptr<WalkSet>(new WalkSet(num_nodes));
  // Drop the owned build-path storage allocated by the constructor; every
  // accessor routes through the frozen views from here on.
  set->offsets_.clear();
  set->offsets_.shrink_to_fit();
  set->lambda_.clear();
  set->lambda_.shrink_to_fit();
  set->start_weight_.clear();
  set->start_weight_.shrink_to_fit();
  set->frozen_ = frozen;
  set->keep_alive_ = std::move(keep_alive);
  set->finalized_ = true;
  set->adopted_ = true;
  return set;
}

std::unique_ptr<WalkSet> WalkSet::ShareFrozen(
    std::shared_ptr<const void> keep_alive) const {
  assert(finalized_);
  assert((adopted_ || keep_alive != nullptr) &&
         "owned frozen data must be pinned by the caller");
  return AdoptFrozen(num_nodes_, frozen_,
                     adopted_ ? keep_alive_ : std::move(keep_alive));
}

void WalkSet::AddWalk(const std::vector<graph::NodeId>& walk_nodes) {
  assert(!finalized_);
  assert(!walk_nodes.empty());
  nodes_.insert(nodes_.end(), walk_nodes.begin(), walk_nodes.end());
  offsets_.push_back(nodes_.size());
  starts_.push_back(walk_nodes.front());
  ++lambda_[walk_nodes.front()];
}

void WalkSet::AddWalks(const WalkBuffer& buffer) {
  assert(!finalized_);
  nodes_.insert(nodes_.end(), buffer.nodes.begin(), buffer.nodes.end());
  uint64_t pos = offsets_.back();
  for (const uint32_t len : buffer.lengths) {
    assert(len >= 1);
    const graph::NodeId start = nodes_[pos];
    pos += len;
    offsets_.push_back(pos);
    starts_.push_back(start);
    ++lambda_[start];
  }
  assert(pos == nodes_.size());
}

void WalkSet::FreezeOwned() {
  frozen_.nodes = nodes_;
  frozen_.offsets = offsets_;
  frozen_.starts = starts_;
  frozen_.lambda = lambda_;
  frozen_.start_weight = start_weight_;
  frozen_.index_offsets = index_offsets_;
  frozen_.index_entries = index_entries_;
}

void WalkSet::BuildIndex() {
  // Inverted index with first-occurrence dedup per walk: counting pass,
  // then fill. `last_seen[v]` stamps the walk that last recorded v.
  const size_t walks = starts_.size();
  constexpr uint32_t kNone = static_cast<uint32_t>(-1);
  std::vector<uint32_t> last_seen(num_nodes_, kNone);
  std::vector<uint64_t> counts(num_nodes_ + 1, 0);
  for (uint32_t w = 0; w < walks; ++w) {
    for (uint64_t i = offsets_[w]; i < offsets_[w + 1]; ++i) {
      const graph::NodeId v = nodes_[i];
      if (last_seen[v] == w) continue;
      last_seen[v] = w;
      ++counts[v + 1];
    }
  }
  index_offsets_.assign(num_nodes_ + 1, 0);
  for (uint32_t v = 0; v < num_nodes_; ++v) {
    index_offsets_[v + 1] = index_offsets_[v] + counts[v + 1];
  }
  index_entries_.resize(index_offsets_[num_nodes_]);
  std::vector<uint64_t> cursor(index_offsets_.begin(),
                               index_offsets_.end() - 1);
  std::fill(last_seen.begin(), last_seen.end(), kNone);
  for (uint32_t w = 0; w < walks; ++w) {
    for (uint64_t i = offsets_[w]; i < offsets_[w + 1]; ++i) {
      const graph::NodeId v = nodes_[i];
      if (last_seen[v] == w) continue;
      last_seen[v] = w;
      index_entries_[cursor[v]++] = {
          w, static_cast<uint32_t>(i - offsets_[w])};
    }
  }
}

void WalkSet::Finalize(const std::vector<double>& initial_opinions) {
  assert(!finalized_);
  BuildIndex();
  FreezeOwned();
  finalized_ = true;
  ResetValues(initial_opinions);
}

void WalkSet::ResetValues(const std::vector<double>& initial_opinions) {
  assert(finalized_);
  assert(initial_opinions.size() == num_nodes_);
  const size_t walks = frozen_.starts.size();
  values_.resize(walks);
  eff_len_.resize(walks);
  est_sum_.assign(num_nodes_, 0.0);
  for (size_t w = 0; w < walks; ++w) {
    const uint64_t begin = frozen_.offsets[w];
    const uint64_t end = frozen_.offsets[w + 1];
    eff_len_[w] = static_cast<uint32_t>(end - begin);
    values_[w] = initial_opinions[frozen_.nodes[end - 1]];
    est_sum_[frozen_.starts[w]] += values_[w];
  }
  undo_.clear();
  undo_valid_ = true;
  baseline_gains_.clear();
}

std::optional<size_t> WalkSet::RestoreBaseline() {
  if (!undo_valid_) return std::nullopt;
  const size_t replayed = undo_.size();
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    eff_len_[it->walk] = it->eff_len;
    values_[it->walk] = it->value;
    est_sum_[frozen_.starts[it->walk]] = it->est_sum;
  }
  undo_.clear();
  return replayed;
}

void WalkSet::set_baseline_gains(std::vector<double> gains) {
  assert(at_baseline());
  assert(gains.size() == num_nodes_);
  baseline_gains_ = std::move(gains);
}

void WalkSet::SetStartWeight(graph::NodeId v, double weight) {
  assert(!adopted_ && "persisted sketches carry immutable start weights");
  // Defensive no-op in release builds: the adopted frozen data (possibly an
  // mmap) is immutable and the owned vector was released by AdoptFrozen.
  if (adopted_) return;
  start_weight_[v] = weight;
  baseline_gains_.clear();
}

size_t WalkSet::memory_bytes() const {
  const Frozen& f = frozen_;
  return f.nodes.size_bytes() + f.offsets.size_bytes() +
         f.starts.size_bytes() + f.lambda.size_bytes() +
         f.start_weight.size_bytes() + f.index_offsets.size_bytes() +
         f.index_entries.size_bytes() + eff_len_.size() * sizeof(uint32_t) +
         values_.size() * sizeof(double) + est_sum_.size() * sizeof(double) +
         undo_.capacity() * sizeof(UndoEntry) +
         baseline_gains_.size() * sizeof(double);
}

void WalkSet::Truncate(
    graph::NodeId w, const std::function<void(uint32_t, double)>& on_change) {
  assert(finalized_);
  const size_t undo_bound = undo_log_bound();
  for (const Posting& posting : PostingsOf(w)) {
    if (posting.pos >= eff_len_[posting.walk]) continue;  // already cut
    const double old_value = values_[posting.walk];
    const graph::NodeId start = frozen_.starts[posting.walk];
    if (undo_valid_) {
      if (undo_.size() < undo_bound) {
        undo_.push_back({posting.walk, eff_len_[posting.walk], old_value,
                         est_sum_[start]});
      } else {
        // Past the bound the next ResetValues is cheaper than a replay.
        std::vector<UndoEntry>().swap(undo_);
        undo_valid_ = false;
      }
    }
    eff_len_[posting.walk] = posting.pos + 1;
    if (old_value < 1.0) {
      values_[posting.walk] = 1.0;
      est_sum_[start] += 1.0 - old_value;
      on_change(posting.walk, old_value);
    }
  }
}

}  // namespace voteopt::core
