// Scenario: a restaurant category ("Chinese") competes with nine others on
// a Yelp-like review network (the paper's Yelp setting with r = 10). Users
// hold memberships on several platforms, so the operator cares about being
// in each user's top-p, weighted by position — the p-approval and
// positional-p-approval scores. Selections run through the typed query API
// with method=DM (exact greedy + sandwich bounds for these non-submodular
// objectives); the sandwich diagnostics ride back on the response.
//
//   $ ./restaurant_rivalry [--scale=0.15] [--k=40]
#include <iostream>

#include "api/engine.h"
#include "datasets/synthetic.h"
#include "util/options.h"
#include "util/table.h"

using namespace voteopt;

int main(int argc, char** argv) {
  Options options(argc, argv);
  const double scale = options.GetDouble("scale", 0.08);
  const uint32_t k = static_cast<uint32_t>(options.GetInt("k", 40));
  const uint32_t horizon = static_cast<uint32_t>(options.GetInt("t", 15));

  datasets::Dataset ds =
      datasets::MakeDataset(datasets::DatasetName::kYelp, scale, /*seed=*/21);
  std::cout << "Yelp-like network: " << ds.influence.num_nodes()
            << " users, " << ds.influence.num_edges() << " friendships, "
            << ds.state.num_candidates()
            << " restaurant categories. Target category = "
            << ds.default_target << ".\n\n";

  auto engine = api::Engine::Open({});
  if (!engine.ok()) {
    std::cerr << engine.status().ToString() << "\n";
    return 1;
  }
  api::HostOptions host;
  host.theta = 1u << 12;  // the DM selections below never touch the sketch
  host.horizon = horizon;
  if (Status st = (*engine)->Host("yelp", std::move(ds), host); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }

  // One topk query per objective, all with the exact DM method; the
  // baseline ("without seeds") is an Evaluate of the empty seed set.
  auto run = [&engine, k](const voting::ScoreSpec& spec)
      -> std::pair<api::Response, api::Response> {
    const api::Response baseline =
        (*engine)->Execute(api::Request::Evaluate({}, spec));
    const api::Response selected = (*engine)->Execute(
        api::Request::TopK(k, spec, baselines::Method::kDM));
    if (!baseline.ok || !selected.ok) {
      std::cerr << (baseline.ok ? selected.error : baseline.error) << "\n";
      std::exit(1);
    }
    return {baseline, selected};
  };

  // Sweep the approval depth p: "how many memberships does a user hold?"
  Table table({"objective", "users approving w/o seeds",
               "users approving w/ seeds", "gain"});
  // Appended, not "+" + Num(...): GCC 12 misreports that as -Wrestrict.
  const auto gain_cell = [](double gain, int precision) {
    std::string cell = "+";
    cell += Table::Num(gain, precision);
    return cell;
  };
  for (uint32_t p : {1u, 2u, 3u}) {
    const voting::ScoreSpec spec = p == 1 ? voting::ScoreSpec::Plurality()
                                          : voting::ScoreSpec::PApproval(p);
    const auto [baseline, selected] = run(spec);
    table.Add(p == 1 ? "plurality (top-1)"
                     : std::to_string(p) + "-approval (top-" +
                           std::to_string(p) + ")",
              Table::Num(baseline.score, 0),
              Table::Num(selected.exact_score, 0),
              gain_cell(selected.exact_score - baseline.score, 0));
  }
  // Positional: a rank-2 membership is worth half a rank-1 one.
  {
    const auto [baseline, selected] =
        run(voting::ScoreSpec::PositionalPApproval({1.0, 0.5}));
    table.Add("positional-2-approval (1.0, 0.5)",
              Table::Num(baseline.score, 1),
              Table::Num(selected.exact_score, 1),
              gain_cell(selected.exact_score - baseline.score, 1));
    std::cout << "Sandwich diagnostics for the positional objective: "
              << "F(SU)/UB(SU) = "
              << selected.diagnostics.at("sandwich_ratio") << " (empirical "
              << "approximation factor of Fig. 2)\n\n";
  }
  table.Print(std::cout);
  std::cout << "\nTakeaway: relaxing the rank constraint (p > 1) changes "
               "which users are worth courting — seeds shift from contested "
               "users to broadly-reachable ones.\n";
  return 0;
}
