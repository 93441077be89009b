// Paper Table VI: minimum seed-set size for the target candidate to win
// w.r.t. the plurality score (Problem 2 / Algorithm 2), on the two Twitter
// COVID datasets, for DM, RW and RS.
//
// Shape to reproduce: the more approximate the method, the larger the
// minimum winning budget (DM <= RW <= RS, usually).
#include "bench_common.h"

#include "core/min_seed.h"

using namespace voteopt;
using namespace voteopt::bench;

int main(int argc, char** argv) {
  Options options(argc, argv);
  baselines::MethodOptions method_options = DefaultMethodOptions(options);
  if (!options.Has("theta")) {
    // Skip RS's theta-convergence heuristic inside the binary search: a
    // fixed sketch budget keeps Algorithm 2's ~log n selector calls cheap.
    method_options.rs.theta_override = 1u << 14;
  }
  const bool csv = options.GetBool("csv", false);
  const double scale = options.GetDouble("scale", 0.06);
  const uint32_t horizon = static_cast<uint32_t>(options.GetInt("t", 10));

  Table table({"Dataset", "DM", "RW", "RS"});
  for (const char* ds_name : {"tw-mask", "tw-dist"}) {
    Options per_ds = options;  // copy: reuse shared flags
    datasets::Dataset ds = datasets::MakeDataset(
        ParseDatasetOrDie(ds_name), scale,
        static_cast<uint64_t>(options.GetInt("seed", 1)),
        options.GetDouble("mu", 10.0));
    opinion::FJModel model(ds.influence);
    // The paper's scenario has the target trailing at the horizon (it needs
    // 17-69 seeds to win). The synthetic campaigns are symmetric, so pick
    // the underdog candidate as the target.
    opinion::CandidateId target = ds.default_target;
    {
      voting::ScoreEvaluator probe(model, ds.state, 0, horizon,
                                   voting::ScoreSpec::Plurality());
      const auto scores =
          probe.ScoresAllCandidates(probe.HorizonOpinions(0));
      for (opinion::CandidateId q = 1; q < scores.size(); ++q) {
        if (scores[q] < scores[target]) target = q;
      }
    }
    voting::ScoreEvaluator ev(model, ds.state, target, horizon,
                              voting::ScoreSpec::Plurality());

    std::vector<std::string> row = {ds_name};
    for (baselines::Method method :
         {baselines::Method::kDM, baselines::Method::kRW,
          baselines::Method::kRS}) {
      const auto selector = baselines::MakeSelector(method, method_options);
      const auto result = core::MinSeedsToWin(
          ev, selector,
          static_cast<uint32_t>(options.GetInt("k_max", 0)));
      // Appended, not ">" + to_string: GCC 12 misreports that as
      // -Wrestrict.
      std::string cell = result.achievable ? "" : ">";
      cell += std::to_string(result.k_star);
      row.push_back(cell);
    }
    table.AddRow(row);
  }
  if (csv) {
    table.PrintCsv(std::cout);
  } else {
    std::cout << "\n== Table VI: minimum seeds for the target to win "
                 "(plurality, t="
              << horizon << ", scale=" << scale << ") ==\n\n";
    table.Print(std::cout);
    std::cout << "\n(paper at full scale: tw-mask 17/21/24, tw-dist "
                 "69/71/74)\n";
  }
  return 0;
}
