// The paper's RS method (§ VI, Algorithm 5) — its recommended algorithm:
// theta reverse walks from uniformly sampled start nodes, greedy selection
// on the sketch estimates. theta follows Thm. 13 (cumulative, via an OPT
// lower bound) or the § VI-E convergence heuristic (plurality variants /
// Copeland).
#ifndef VOTEOPT_CORE_RS_GREEDY_H_
#define VOTEOPT_CORE_RS_GREEDY_H_

#include "core/problem.h"

namespace voteopt::core {

struct RSOptions {
  /// Approximation slack of Thm. 13 (paper default 0.1).
  double epsilon = 0.1;
  /// Failure exponent: success probability 1 - n^-l (paper uses l = 1).
  double l = 1.0;
  /// If > 0, skip theta estimation and use exactly this many sketches.
  uint64_t theta_override = 0;
  /// Hard cap on theta (sketching only beats RW when theta << n * lambda;
  /// at bench scale the Thm. 13 value can exceed it).
  uint64_t theta_cap = 1u << 22;
  /// Run the statistical OPT lower-bound refinement (cumulative only).
  bool refine_opt_bound = false;
  /// Convergence heuristic knobs (plurality variants / Copeland).
  uint64_t theta_start = 256;
  double convergence_tol = 0.02;
  uint64_t rng_seed = 42;
  /// Worker threads for sketch construction AND the per-iteration gain
  /// scan of the rank-sensitive / Copeland selection paths: 0 = one per
  /// hardware thread, N = exactly N workers (1 runs inline). All counts go
  /// through the seeded sketch builder and the deterministic chunked scan,
  /// so seeds and scores are identical for every value.
  uint32_t num_threads = 1;
};

/// Algorithm 5. Diagnostics: "theta", "opt_lower_bound", "walks",
/// "walk_memory_mb", "estimated_score".
SelectionResult RSGreedySelect(const ScoreEvaluator& evaluator, uint32_t k,
                               const RSOptions& options = RSOptions());

}  // namespace voteopt::core

#endif  // VOTEOPT_CORE_RS_GREEDY_H_
