// perfbench_probe: the compiled half of the perfbench benchmark
// (perfbench/README.md). perfbench/run.py generates the request scripts
// and drives these subcommands; the program under test only ever sees the
// generated requests.
//
//   perfbench_probe prepare   --prefix=P --scale=S
//       Writes the tw-mask synthetic analog (scale S, fixed dataset seed)
//       as a dataset bundle at prefix P. No sketch.
//   perfbench_probe reference --prefix=P --requests=F --out=O
//       Answers every request line of F in order on a single-thread
//       in-process api::Engine over bundle P and writes one
//       Response::ToStableJson line per request to O: the answer gate's
//       reference. Mutation lines commit, so a script of mutations
//       followed by queries replays a churn run.
//   perfbench_probe client    --dir=D --conns=N [--trace=1] [--stats=1]
//       The closed-loop TCP load generator (see RunClient).
//   perfbench_probe layers    --prefix=P --out=O [...]
//       The traced per-layer run (see RunLayers).
//   perfbench_probe host
//       Prints the build type and compiler as one JSON object.
//   perfbench_probe yardstick --reps=N
//       Times N passes of the host-speed yardstick (see Yardstick); prints
//       them as one JSON list of nanoseconds.
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <latch>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "core/estimated_greedy.h"
#include "core/min_seed.h"
#include "core/sketch.h"
#include "datasets/io.h"
#include "datasets/synthetic.h"
#include "dyn/journal.h"
#include "dyn/mutation.h"
#include "dyn/repair.h"
#include "graph/alias_table.h"
#include "net/client.h"
#include "opinion/fj_model.h"
#include "serve/protocol.h"
#include "sketch_ooc/ooc_builder.h"
#include "store/sketch_store.h"
#include "util/options.h"
#include "voting/evaluator.h"

using namespace voteopt;

namespace {

/// The dataset generator's seed is part of the workload definition, not
/// of the run: every run of a workload serves the same instance, and the
/// run's --seed varies only the request scripts.
constexpr uint64_t kDatasetSeed = 1;

/// CLOCK_MONOTONIC in nanoseconds: the clock Python's time.monotonic_ns()
/// reads too, so run.py can subtract a timestamp taken here from one
/// taken before it started the server.
int64_t MonotonicNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// The host-speed yardstick: a fixed unit of graph work that shares no
/// code with the program under test, timed beside it to tell how fast
/// the shared host runs at the moment. It does what the program's
/// answers are made of, on a fixed random graph of 8000 nodes: 160000
/// Friedkin-Johnsen-style averaging updates of strided nodes over a CSR
/// graph (20 sweeps), then 32000 random walks of 20 steps. Its working
/// set stays in the core's own caches: a larger, cache-missing yardstick
/// slowed two to three times as much as the program in the host's slow
/// spells.
class Yardstick {
 public:
  Yardstick()
      : offsets_(kNodes + 1),
        targets_(static_cast<size_t>(kNodes) * kDegree),
        innate_(kNodes) {
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (uint32_t v = 0; v <= kNodes; ++v) offsets_[v] = v * kDegree;
    for (uint32_t& t : targets_) t = static_cast<uint32_t>(Next(&x) % kNodes);
    for (double& o : innate_) o = static_cast<double>(Next(&x) % 1000) / 1e3;
  }

  /// One timed pass, in nanoseconds.
  int64_t TimeNs() {
    const int64_t start = MonotonicNs();
    std::vector<double> z = innate_;
    for (uint64_t update = 0; update < kUpdates; ++update) {
      const uint32_t v = static_cast<uint32_t>(update * 7919 % kNodes);
      double sum = 0;
      for (uint32_t e = offsets_[v]; e < offsets_[v + 1]; ++e) {
        sum += z[targets_[e]];
      }
      z[v] = 0.5 * innate_[v] + 0.5 * sum / kDegree;
    }
    uint64_t x = 12345;
    uint64_t visits = 0;
    for (uint32_t walk = 0; walk < kWalks; ++walk) {
      uint32_t at = walk % kNodes;
      for (int step = 0; step < 20; ++step) {
        at = targets_[offsets_[at] + Next(&x) % kDegree];
        visits += at;
      }
    }
    const int64_t end = MonotonicNs();
    sink_ = sink_ + visits + static_cast<uint64_t>(z[0] * 1e6);
    return end - start;
  }

 private:
  static constexpr uint32_t kDegree = 10;
  static constexpr uint64_t kUpdates = 160000;
  static constexpr uint32_t kWalks = 32000;
  static uint64_t Next(uint64_t* x) {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    return *x;
  }
  static constexpr uint32_t kNodes = 8000;
  std::vector<uint32_t> offsets_, targets_;
  std::vector<double> innate_;
  volatile uint64_t sink_ = 0;
};

int Fail(const std::string& message) {
  std::cerr << "perfbench_probe: " << message << "\n";
  return 1;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Response::ToStableJson applied to a response line read off the wire:
/// drops the volatile tail from `, "millis": ` up to the closing brace.
std::string StableOf(const std::string& json) {
  const size_t millis_at = json.rfind(", \"millis\": ");
  if (millis_at == std::string::npos) return json;
  return json.substr(0, millis_at) + json.substr(json.size() - 1);
}

// ---------------------------------------------------------------------------
// prepare / reference
// ---------------------------------------------------------------------------

int RunPrepare(const Options& options) {
  const std::string prefix = options.GetString("prefix", "");
  if (prefix.empty()) return Fail("prepare needs --prefix");
  const datasets::Dataset dataset = datasets::MakeDataset(
      datasets::DatasetName::kTwitterMask, options.GetDouble("scale", 1.0),
      kDatasetSeed);
  if (Status st = datasets::SaveDatasetBundle(dataset, prefix); !st.ok()) {
    return Fail(st.ToString());
  }
  std::cout << "{\"n\": " << dataset.influence.num_nodes()
            << ", \"m\": " << dataset.influence.num_edges()
            << ", \"r\": " << dataset.state.num_candidates() << "}\n";
  return 0;
}

Result<std::unique_ptr<api::Engine>> OpenEngine(const std::string& prefix) {
  api::EngineOptions engine_options;
  engine_options.load.bundle_prefix = prefix;
  engine_options.load.build_theta = 0;  // the sketch must already exist
  engine_options.num_worker_threads = 1;
  return api::Engine::Open(engine_options);
}

int RunReference(const Options& options) {
  auto engine = OpenEngine(options.GetString("prefix", ""));
  if (!engine.ok()) return Fail(engine.status().ToString());
  std::ofstream out(options.GetString("out", ""));
  if (!out) return Fail("reference needs a writable --out");
  for (const std::string& line :
       ReadLines(options.GetString("requests", ""))) {
    auto request = serve::ParseRequest(line);
    if (!request.ok()) return Fail("bad request line: " + line);
    out << (*engine)->Execute(*request).ToStableJson() << "\n";
  }
  return out ? 0 : Fail("write failed");
}

// ---------------------------------------------------------------------------
// client: the closed-loop TCP load generator
// ---------------------------------------------------------------------------

/// One script line: `<class>\t<request json>\t<expected stable json | ->`.
struct ScriptLine {
  std::string op_class;
  std::string request;
  std::string expected;  // "-" = no reference; the answer must be ok
};

std::vector<ScriptLine> ReadScript(const std::string& path) {
  std::vector<ScriptLine> script;
  for (const std::string& line : ReadLines(path)) {
    const size_t a = line.find('\t');
    const size_t b = line.find('\t', a + 1);
    if (a == std::string::npos || b == std::string::npos) continue;
    script.push_back({line.substr(0, a), line.substr(a + 1, b - a - 1),
                      line.substr(b + 1)});
  }
  return script;
}

/// One answered request: a client-side span around the round trip.
struct Sample {
  uint32_t conn = 0;
  uint32_t seq = 0;
  const ScriptLine* line = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  const char* status = "ok";
  std::string diagnostics;  // traced runs: the server's stage spans
};

/// Adds `"trace": true` to a request object (traced runs only).
std::string WithTrace(const std::string& request) {
  return request.substr(0, request.size() - 1) + ", \"trace\": true}";
}

const char* Classify(const ScriptLine& line, const std::string& response) {
  if (response.find("\"ok\": true") == std::string::npos) {
    return response.find("Overloaded") != std::string::npos ? "shed"
                                                            : "error";
  }
  if (line.expected != "-" && StableOf(response) != line.expected) {
    return "mismatch";
  }
  return "ok";
}

/// Runs `script` on one connection, appending one Sample per request.
/// A line of class `yardstick` sends nothing: it times one Yardstick pass
/// in this thread, between two requests, and records it as a sample.
/// Returns false when the transport itself failed.
bool RunScript(net::BlockingClient* client, uint32_t conn,
               const std::vector<ScriptLine>& script, bool trace,
               std::vector<Sample>* samples) {
  std::string response;
  std::optional<Yardstick> yardstick;
  for (const ScriptLine& line : script) {
    Sample sample;
    sample.conn = conn;
    sample.seq = static_cast<uint32_t>(samples->size());
    sample.line = &line;
    if (line.op_class == "yardstick") {
      if (!yardstick) {
        yardstick.emplace();
        yardstick->TimeNs();  // first touch of its arrays, untimed
      }
      sample.start_ns = MonotonicNs();
      sample.end_ns = sample.start_ns + yardstick->TimeNs();
      samples->push_back(std::move(sample));
      continue;
    }
    sample.start_ns = MonotonicNs();
    if (!client->SendLine(trace ? WithTrace(line.request) : line.request)
             .ok() ||
        !client->ReadLine(&response, 120000).ok()) {
      return false;
    }
    sample.end_ns = MonotonicNs();
    sample.status = Classify(line, response);
    if (trace) {
      const size_t at = response.find("\"diagnostics\": ");
      if (at != std::string::npos) {
        sample.diagnostics =
            response.substr(at + 15, response.size() - at - 16);
      }
    }
    samples->push_back(std::move(sample));
  }
  return true;
}

/// Reads the port from stdin, opens --conns connections, answers each
/// connection's warm-up script (dir/conn<i>.warm), prints `warm <ns>` —
/// the CLOCK_MONOTONIC instant the last warm-up answer arrived — then
/// releases every connection into its timed script (dir/conn<i>.run) at
/// once. After all connections finish it runs dir/final.run (if present)
/// on a fresh connection and, with --stats=1, saves one `stats` response
/// to dir/stats.json. Every timed and final request becomes one line of
/// dir/samples.tsv (times in ns from the release); stdout ends with a
/// JSON summary.
int RunClient(const Options& options) {
  const std::string dir = options.GetString("dir", "");
  const uint32_t conns = static_cast<uint32_t>(options.GetInt("conns", 1));
  const bool trace = options.GetBool("trace", false);
  uint16_t port = 0;
  if (!(std::cin >> port) || port == 0) return Fail("no port on stdin");

  std::vector<std::vector<ScriptLine>> warm(conns), run(conns);
  for (uint32_t i = 0; i < conns; ++i) {
    warm[i] = ReadScript(dir + "/conn" + std::to_string(i) + ".warm");
    run[i] = ReadScript(dir + "/conn" + std::to_string(i) + ".run");
  }
  const std::vector<ScriptLine> final_script = ReadScript(dir + "/final.run");

  std::vector<std::vector<Sample>> warm_samples(conns), samples(conns);
  std::atomic<bool> transport_ok{true};
  std::atomic<int64_t> warm_done_ns{0};
  std::latch warmed(conns);
  std::latch go(1);
  std::vector<std::thread> threads;
  for (uint32_t i = 0; i < conns; ++i) {
    threads.emplace_back([&, i] {
      net::BlockingClient client;
      bool ok = client.Connect("127.0.0.1", port).ok() &&
                RunScript(&client, i, warm[i], false, &warm_samples[i]);
      int64_t now = MonotonicNs();
      int64_t seen = warm_done_ns.load();
      while (now > seen && !warm_done_ns.compare_exchange_weak(seen, now)) {
      }
      warmed.count_down();
      go.wait();
      ok = ok && RunScript(&client, i, run[i], trace, &samples[i]);
      if (!ok) transport_ok = false;
    });
  }
  warmed.wait();
  std::cout << "warm " << warm_done_ns.load() << std::endl;
  const int64_t start_ns = MonotonicNs();
  go.count_down();
  for (std::thread& thread : threads) thread.join();

  std::vector<Sample> final_samples;
  net::BlockingClient tail;
  if (!tail.Connect("127.0.0.1", port).ok() ||
      !RunScript(&tail, conns, final_script, false, &final_samples)) {
    transport_ok = false;
  }
  if (options.GetBool("stats", false)) {
    std::string response;
    if (!tail.SendLine("{\"op\": \"stats\", \"v\": 3}").ok() ||
        !tail.ReadLine(&response, 120000).ok()) {
      transport_ok = false;
    }
    std::ofstream(dir + "/stats.json") << response << "\n";
  }
  tail.Close();

  uint64_t warm_failed = 0;
  for (const auto& conn : warm_samples) {
    for (const Sample& sample : conn) {
      warm_failed += std::string(sample.status) != "ok";
    }
  }
  std::ofstream out(dir + "/samples.tsv");
  auto write = [&](const Sample& sample, const char* phase) {
    out << phase << '\t' << sample.conn << '\t' << sample.seq << '\t'
        << sample.line->op_class << '\t' << sample.start_ns - start_ns
        << '\t' << sample.end_ns - start_ns << '\t' << sample.status << '\t'
        << (sample.diagnostics.empty() ? "-" : sample.diagnostics) << '\n';
  };
  for (const auto& conn : samples) {
    for (const Sample& sample : conn) write(sample, "run");
  }
  for (const Sample& sample : final_samples) write(sample, "final");
  out.close();
  std::cout << "{\"transport_ok\": " << (transport_ok ? "true" : "false")
            << ", \"warm_failed\": " << warm_failed << "}" << std::endl;
  return transport_ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// layers: the traced per-layer run
// ---------------------------------------------------------------------------

/// In-memory span recorder for the benchmark's own calls into each layer. A
/// span records its name, start, end, parent span and the request id its
/// spans share; work counts ride on the span. Written out once, at the
/// end, as JSON lines.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;
    int64_t request = -1;
    std::vector<std::pair<std::string, double>> counts;
  };

  /// RAII span: opened as a child of the innermost open span.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, int64_t request = -1)
        : tracer_(tracer), index_(tracer->Open(std::move(name), request)) {}
    ~Scope() { tracer_->Close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void Count(const std::string& name, double value) {
      tracer_->spans_[index_].counts.emplace_back(name, value);
    }

   private:
    Tracer* tracer_;
    size_t index_;
  };

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out.precision(17);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out << "{\"id\": " << i << ", \"name\": \"" << span.name
          << "\", \"start_ns\": " << span.start_ns
          << ", \"end_ns\": " << span.end_ns
          << ", \"parent\": " << span.parent
          << ", \"request\": " << span.request << ", \"counts\": {";
      for (size_t c = 0; c < span.counts.size(); ++c) {
        out << (c == 0 ? "" : ", ") << "\"" << span.counts[c].first
            << "\": " << span.counts[c].second;
      }
      out << "}}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  size_t Open(std::string name, int64_t request) {
    Span span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    span.request = request >= 0 || open_.empty()
                       ? request
                       : spans_[open_.back()].request;
    span.start_ns = MonotonicNs();
    spans_.push_back(std::move(span));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void Close(size_t index) {
    spans_[index].end_ns = MonotonicNs();
    open_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

struct RuleCase {
  const char* name;
  voting::ScoreSpec spec;
};

std::vector<RuleCase> Rules(uint32_t num_candidates) {
  return {{"cumulative", voting::ScoreSpec::Cumulative()},
          {"plurality", voting::ScoreSpec::Plurality()},
          {"papproval", voting::ScoreSpec::PApproval(2)},
          {"borda", voting::ScoreSpec::Borda(num_candidates)},
          {"copeland", voting::ScoreSpec::Copeland()}};
}

/// Calls each layer's public functions on the workload's instance, with
/// every call wrapped in a span:
///   --prefix      bundle with its persisted sketch (read-only here)
///   --theta       walk count for the build probes
///   --block_budget_bytes  OOC build budget
///   --mutations   mutate request lines, replayed as commits
///   --requests    `class\trequest` lines, executed in-process
///   --scratch     directory for files the probes write
///   --repeats     calls per build/load probe
///   --out         spans.jsonl
int RunLayers(const Options& options) {
  const std::string prefix = options.GetString("prefix", "");
  const std::string scratch = options.GetString("scratch", "");
  const uint64_t theta = static_cast<uint64_t>(options.GetInt("theta", 0));
  const int repeats = static_cast<int>(options.GetInt("repeats", 3));
  const uint32_t nproc = std::max(1u, std::thread::hardware_concurrency());
  Tracer tracer;

  // datasets
  datasets::Dataset dataset;
  for (int r = 0; r < repeats; ++r) {
    Tracer::Scope span(&tracer, "datasets.load_bundle", r);
    auto loaded = datasets::LoadDatasetBundle(prefix);
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    dataset = std::move(loaded).value();
  }
  const uint32_t target = dataset.default_target;
  const opinion::Campaign& campaign = dataset.state.campaigns[target];
  const uint32_t horizon = 20;

  // store
  store::LoadedSketch sketch;
  for (int r = 0; r < repeats; ++r) {
    Tracer::Scope span(&tracer, "store.load_sketch", r);
    auto loaded = store::LoadSketch(datasets::BundleSketchPath(prefix),
                                    store::SketchLoadMode::kMmap);
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    sketch = std::move(loaded).value();
  }
  for (int r = 0; r < repeats; ++r) {
    const std::string path = scratch + "/probe.sketch";
    Tracer::Scope span(&tracer, "store.save_sketch", r);
    if (Status st = store::SaveSketch(*sketch.walks, sketch.meta, path);
        !st.ok()) {
      return Fail(st.ToString());
    }
    std::remove(path.c_str());
  }

  // graph + opinion + voting
  for (int r = 0; r < repeats; ++r) {
    Tracer::Scope span(&tracer, "graph.alias_build", r);
    graph::AliasSampler alias(dataset.influence);
  }
  const opinion::FJModel model(dataset.influence);
  const uint32_t n = dataset.influence.num_nodes();
  for (int r = 0; r < 5 * repeats; ++r) {
    std::vector<graph::NodeId> seeds;
    for (uint32_t s = 0; s < 5; ++s) {
      seeds.push_back((r * 7919 + s * 104729) % n);
    }
    Tracer::Scope span(&tracer, "opinion.propagate", r);
    model.PropagateWithSeeds(campaign, seeds, horizon);
  }
  std::vector<std::unique_ptr<voting::ScoreEvaluator>> evaluators;
  for (const RuleCase& rule : Rules(dataset.state.num_candidates())) {
    for (int r = 0; r < repeats; ++r) {
      Tracer::Scope span(
          &tracer, std::string("voting.evaluator_build.") + rule.name, r);
      auto evaluator = std::make_unique<voting::ScoreEvaluator>(
          model, dataset.state, target, horizon, rule.spec);
      if (r == 0) evaluators.push_back(std::move(evaluator));
    }
  }
  const voting::ScoreEvaluator& cumulative = *evaluators[0];
  const voting::ScoreEvaluator& plurality = *evaluators[1];

  // core: build at 1 and nproc threads, then the per-query paths
  for (uint32_t threads : {1u, nproc}) {
    for (int r = 0; r < repeats; ++r) {
      core::SketchBuildOptions build_options;
      build_options.num_threads = threads;
      Tracer::Scope span(&tracer,
                         threads == 1 ? "core.build.threads_1"
                                      : "core.build.threads_nproc",
                         r);
      span.Count("walks", static_cast<double>(theta));
      core::BuildSketchSet(cumulative, theta, sketch.meta.master_seed,
                           build_options);
    }
  }
  std::unique_ptr<core::WalkSet> working;
  for (int r = 0; r < 5 * repeats; ++r) {
    Tracer::Scope span(&tracer, "core.reset", r);
    working = sketch.walks->ShareFrozen();
    working->ResetValues(campaign.initial_opinions);
  }
  for (int r = 0; r < 3 * repeats; ++r) {
    core::EstimatedGreedyOptions greedy;
    greedy.evaluate_exact = false;
    working->ResetValues(campaign.initial_opinions);
    Tracer::Scope span(&tracer, "core.select_cumulative", r);
    const core::SelectionResult result =
        core::EstimatedGreedySelect(cumulative, 25, working.get(), greedy);
    span.Count("gain_evaluations", result.diagnostics.at("gain_evaluations"));
  }
  for (int r = 0; r < repeats; ++r) {
    core::EstimatedGreedyOptions greedy;
    greedy.evaluate_exact = false;
    working->ResetValues(campaign.initial_opinions);
    Tracer::Scope span(&tracer, "core.select_rank", r);
    const core::SelectionResult result =
        core::EstimatedGreedySelect(plurality, 10, working.get(), greedy);
    span.Count("gain_evaluations", result.diagnostics.at("gain_evaluations"));
  }
  for (int r = 0; r < repeats; ++r) {
    const core::PrefixSelector selector =
        [&](const voting::ScoreEvaluator& evaluator, uint32_t budget,
            const core::PrefixCallback& on_prefix) {
          working->ResetValues(campaign.initial_opinions);
          core::EstimatedGreedyOptions greedy;
          greedy.evaluate_exact = false;
          greedy.on_prefix = core::ToGreedyPrefixHook(on_prefix);
          return core::EstimatedGreedySelect(evaluator, budget, working.get(),
                                             greedy);
        };
    Tracer::Scope span(&tracer, "core.minseed", r);
    core::MinSeedsToWinSinglePass(cumulative, selector, 32);
  }
  working.reset();  // a view of sketch.walks, which the dyn probe consumes

  // sketch_ooc
  for (int r = 0; r < repeats; ++r) {
    sketch_ooc::OocBuildStats ooc_stats;
    Tracer::Scope span(&tracer, "sketch_ooc.build", r);
    auto built = sketch_ooc::BuildSketchSetOocFromGraph(
        dataset.influence, campaign, horizon, theta, sketch.meta.master_seed,
        static_cast<uint64_t>(options.GetInt("block_budget_bytes", 0)),
        scratch + "/ooc", sketch_ooc::OocBuildOptions{}, &ooc_stats);
    if (!built.ok()) return Fail(built.status().ToString());
    span.Count("blocks", ooc_stats.num_blocks);
    span.Count("rounds", static_cast<double>(ooc_stats.rounds));
    span.Count("block_loads", static_cast<double>(ooc_stats.block_loads));
    span.Count("boundary_hops", static_cast<double>(ooc_stats.boundary_hops));
  }

  // dyn: the commit path the engine runs per mutate batch, stage by stage
  {
    graph::Graph graph = dataset.influence;
    opinion::MultiCampaignState state = dataset.state;
    std::shared_ptr<const core::WalkSet> current(std::move(sketch.walks));
    std::shared_ptr<const graph::AliasSampler> alias;
    std::vector<dyn::Mutation> journal;
    const std::string journal_path = scratch + "/probe.dynlog";
    int64_t batch = 0;
    for (const std::string& line :
         ReadLines(options.GetString("mutations", ""))) {
      auto request = serve::ParseRequest(line);
      if (!request.ok()) return Fail("bad mutation line: " + line);
      Tracer::Scope commit(&tracer, "dyn.commit", batch++);
      std::optional<dyn::PatchResult> patched;
      {
        Tracer::Scope span(&tracer, "dyn.patch");
        auto result = dyn::ApplyMutations(graph, state, request->mutations);
        if (!result.ok()) return Fail(result.status().ToString());
        patched.emplace(std::move(result).value());
      }
      graph = std::move(patched->graph);
      state = std::move(patched->state);
      if (!patched->dirty_nodes.empty()) {
        Tracer::Scope span(&tracer, "dyn.repair");
        auto outcome = dyn::SketchRepairer::Repair(
            *current, graph, state.campaigns[target], sketch.meta,
            patched->dirty_nodes, alias.get(), dyn::RepairOptions{});
        if (!outcome.ok()) return Fail(outcome.status().ToString());
        span.Count("walks_repaired",
                   static_cast<double>(outcome->stats.walks_repaired));
        span.Count("walks_total",
                   static_cast<double>(outcome->stats.walks_total));
        current = std::move(outcome->sketch);
        alias = std::move(outcome->alias);
      }
      journal.insert(journal.end(), request->mutations.begin(),
                     request->mutations.end());
      Tracer::Scope span(&tracer, "dyn.journal");
      if (Status st = dyn::SaveMutationLog(journal_path, 1, journal);
          !st.ok()) {
        return Fail(st.ToString());
      }
      span.Count("bytes", static_cast<double>(
                              std::filesystem::file_size(journal_path)));
    }
    std::remove(journal_path.c_str());
  }

  // api + serve: the in-process request path, one thread
  {
    auto engine = OpenEngine(prefix);
    if (!engine.ok()) return Fail(engine.status().ToString());
    int64_t request_id = 0;
    for (const ScriptLine& line :
         ReadScript(options.GetString("requests", ""))) {
      // An untimed first execution warms the evaluator cache for the
      // request's rule; the measured one is the warm floor.
      auto warm = serve::ParseRequest(line.request);
      if (!warm.ok()) return Fail("bad request line: " + line.request);
      (*engine)->Execute(*warm);
      Tracer::Scope whole(&tracer, "api.request", request_id++);
      std::optional<api::Request> request;
      {
        Tracer::Scope span(&tracer, "serve.parse");
        auto parsed = serve::ParseRequest(line.request);
        if (!parsed.ok()) return Fail("bad request line: " + line.request);
        request.emplace(std::move(parsed).value());
      }
      std::optional<api::Response> response;
      {
        Tracer::Scope span(&tracer, "api.execute." + line.op_class);
        response.emplace((*engine)->Execute(*request));
      }
      if (!response->ok) return Fail("request failed: " + line.request);
      Tracer::Scope span(&tracer, "serve.render");
      span.Count("bytes", static_cast<double>(response->ToJson().size()));
    }
  }

  return tracer.Write(options.GetString("out", "")) ? 0 : Fail("write failed");
}

int RunHost() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::cout << "{\"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"compiler\": \"" << compiler << "\"}\n";
  return 0;
}

}  // namespace

int RunYardstick(const Options& options) {
  Yardstick yardstick;
  yardstick.TimeNs();
  const int reps = static_cast<int>(options.GetInt("reps", 3));
  std::cout << "[";
  for (int i = 0; i < reps; ++i) {
    std::cout << (i ? ", " : "") << yardstick.TimeNs();
  }
  std::cout << "]\n";
  return 0;
}

int main(int argc, char** argv) {
  if (argc < 2) return Fail("usage: perfbench_probe <subcommand> [--flags]");
  const std::string command = argv[1];
  Options options(argc - 1, argv + 1);
  if (command == "prepare") return RunPrepare(options);
  if (command == "reference") return RunReference(options);
  if (command == "client") return RunClient(options);
  if (command == "layers") return RunLayers(options);
  if (command == "host") return RunHost();
  if (command == "yardstick") return RunYardstick(options);
  return Fail("unknown subcommand '" + command + "'");
}
