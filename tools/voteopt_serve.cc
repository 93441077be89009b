// voteopt_serve: the concurrent multi-dataset campaign query service — a
// JSON-line transport in front of api::Engine, the single query-dispatch
// component (embedded C++ callers execute the identical code path).
//
// Reads newline-delimited JSON requests (docs/PROTOCOL.md) from a file or
// stdin and writes one JSON response per line, in request order — the
// scaffold a real RPC frontend plugs into later. One process hosts any
// number of dataset bundles with their persisted sketches (loadable and
// evictable at runtime via the load/unload/list verbs) and fans
// independent queries out onto a worker pool; answers are bit-identical
// whatever the thread count.
//
//   # offline: build the sketch once and persist it into the bundle
//   $ voteopt_serve --bundle=/data/yelp --theta=1048576 --build_only
//
//   # online: serve mixed query batches from several persisted stores
//   $ voteopt_serve --bundle=/data/yelp --load=dblp=/data/dblp
//       --threads=8 --requests=batch.jsonl
//   where batch.jsonl holds lines like (with several datasets hosted,
//   every query names the one it targets)
//       {"op": "topk", "k": 10, "rule": "plurality", "dataset": "default"}
//       {"op": "topk", "k": 10, "method": "DC", "dataset": "default"}
//       {"op": "minseed", "k_max": 200, "dataset": "dblp"}
//       {"op": "evaluate", "seeds": [3, 17], "override": [[5, 0.9]],
//        "dataset": "default"}
//       {"op": "methodcompare", "v": 2, "k": 10, "dataset": "default"}
//       {"op": "rulesweep", "v": 2, "k": 10, "dataset": "dblp"}
//       {"op": "list"}
#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "datasets/io.h"
#include "datasets/synthetic.h"
#include "net/server.h"
#include "serve/protocol.h"
#include "util/atomic_file.h"
#include "util/options.h"
#include "util/timer.h"

using namespace voteopt;

namespace {

constexpr char kUsage[] = R"(usage: voteopt_serve [flags]

Serves topk / minseed / evaluate / methodcompare / rulesweep and the
load / unload / list / stats admin verbs (newline-delimited JSON; see
docs/PROTOCOL.md) against one or more hosted dataset bundles and their
persisted sketches. Every request dispatches through api::Engine, the same
code path embedded C++ callers use.

Queries take "rule" = cumulative | plurality | papproval | positional |
copeland | borda (borda derives its weights from the loaded dataset's
candidate count) and "method" = DM | RW | RS | IC | LT | GED-T | PR | RWR |
DC (case-insensitive; default RS, the sketch-backed recommendation).

Datasets:
  --bundle=<prefix>      bundle hosted as "default" (required unless --demo
                         or --load is given)
  --load=<n>=<p>[,...]   additional datasets: comma-separated name=prefix
                         pairs, e.g. --load=yelp=/data/yelp,dblp=/data/dblp
  --demo                 synthesize a demo bundle + sketch in ./ and serve it
  --sketch=<path>        sketch file for --bundle (default <prefix>.sketch)
  --mmap=0|1             mmap sketches instead of copying (default 1)

Sketch build fallback (when a bundle has no persisted sketch):
  --theta=<N>            walks to build (default 2^18; 0 = fail instead)
  --t=<N>                horizon for a freshly built sketch (default 20)
  --build_threads=<N>    sketch-builder threads (0 = one per core)
  --save_sketch=0|1      persist a freshly built sketch (default 1)
  --build_only           build + persist the sketch(es), then exit
  --block_budget_bytes=<N>  build out of core: partition the graph into
                         node-range blocks of at most N resident bytes and
                         stream walks block-at-a-time (0 = in-memory build;
                         the sketch is bit-identical either way; mutation
                         commits always repair in memory)

Serving:
  --threads=<N>          query worker threads (0 = one per core; default 1;
                         answers are identical for every value)
  --batch=<N>            dispatch window: requests read before fanning out
                         (responses stay in request order; default 128 for
                         --requests files, 1 — answer every line as it
                         arrives — when reading stdin, so interactive and
                         pipe-connected clients never wait on a full window)
  --cache=<N>            per-worker evaluator LRU capacity (default 6 —
                         holds rulesweep's five rules plus one more)
  --requests=<path|->    request file (default "-": stdin)
  --out=<path|->         response file (default "-": stdout)
  --help                 print this message and exit

Network serving (docs/PROTOCOL.md "Transports"; the protocol over a
socket is the same newline-JSON, answers bit-identical to the stdin path):
  --listen=<port>        serve TCP instead of stdin: accept connections and
                         answer one response line per request line, per
                         connection in request order (0 = kernel-assigned
                         ephemeral port; the bound port is printed to
                         stderr as "listening on <host>:<port>")
  --listen_host=<addr>   bind address (default 127.0.0.1; use 0.0.0.0 to
                         accept non-local clients)
  --net_queue_depth=<N>  per-dataset admission-queue cap; requests beyond
                         it are shed with an `overloaded` error response
                         (default 256)
  --net_batch_max=<N>    largest engine batch window assembled from one
                         dataset's queue (default 64); a window dispatches
                         as soon as an executor is free, so batching
                         emerges under load
  --net_executors=<N>    engine batch windows in flight at once (default 2)
  --net_read_timeout_ms=<N>  drop a connection holding an unterminated
                         request line longer than this (slow-loris
                         defense; default 30000, 0 = off)
  --net_max_line_bytes=<N>  longest accepted request line; longer ones get
                         an error response and the connection is closed
                         (default 1048576)
  --net_max_conns=<N>    connection cap; excess accepts are refused with a
                         best-effort `overloaded` line (default 1024)
  SIGINT/SIGTERM stop accepting, drain in-flight requests, dump metrics
  (if --metrics_out is set), and exit 0.

Observability (docs/OBSERVABILITY.md):
  --metrics=0|1          record engine/registry/state-pool metrics
                         (default 1; answers are bit-identical either way)
  --metrics_out=<path>   dump the metrics registry in Prometheus text
                         exposition format to <path> (written atomically,
                         temp + rename) every --metrics_interval_sec while
                         serving and once more at exit
  --metrics_interval_sec=<N>  dump period in seconds (default 60)
  --slow_query_ms=<N>    slow-query log: a query whose handling time
                         reaches N ms emits one structured JSON line to
                         stderr with its stage timings (default -1 = off)
)";

/// Atomic metrics dump: a scraper never reads a torn file.
bool DumpMetricsFile(const std::string& path, const std::string& text) {
  return WriteFileAtomic(path, [&](std::ostream& out) { out << text; }).ok();
}

/// SIGINT/SIGTERM request a graceful network-server shutdown.
volatile std::sig_atomic_t g_shutdown = 0;
void HandleShutdownSignal(int) { g_shutdown = 1; }

}  // namespace

int main(int argc, char** argv) {
  Options options(argc, argv);
  if (options.GetBool("help", false)) {
    std::cout << kUsage;
    return 0;
  }

  std::string bundle = options.GetString("bundle", "");
  const std::string extra_loads = options.GetString("load", "");
  if (bundle.empty() && extra_loads.empty() &&
      !options.GetBool("demo", false)) {
    std::cerr << kUsage;
    return 2;
  }
  if (bundle.empty() && options.GetBool("demo", false)) {
    bundle = "./voteopt_demo";
    const datasets::Dataset demo = datasets::MakeDataset(
        datasets::DatasetName::kTwitterElection, 0.05, /*seed=*/3);
    if (Status st = datasets::SaveDatasetBundle(demo, bundle); !st.ok()) {
      std::cerr << "demo bootstrap failed: " << st.ToString() << "\n";
      return 1;
    }
    std::cerr << "wrote a demo bundle to " << bundle << ".*\n";
  }

  api::EngineOptions engine_options;
  engine_options.load.bundle_prefix = bundle;
  engine_options.load.sketch_path = options.GetString("sketch", "");
  engine_options.load.build_theta =
      static_cast<uint64_t>(options.GetInt("theta", 1 << 18));
  engine_options.load.build_horizon =
      static_cast<uint32_t>(options.GetInt("t", 20));
  engine_options.load.build_threads =
      static_cast<uint32_t>(options.GetInt("build_threads", 0));
  engine_options.load.save_built_sketch =
      options.GetBool("save_sketch", true);
  engine_options.load.block_budget_bytes =
      static_cast<uint64_t>(options.GetInt("block_budget_bytes", 0));
  engine_options.load.sketch_load_mode = options.GetBool("mmap", true)
                                             ? store::SketchLoadMode::kMmap
                                             : store::SketchLoadMode::kCopy;
  engine_options.num_worker_threads =
      static_cast<uint32_t>(options.GetInt("threads", 1));
  engine_options.evaluator_cache_capacity = static_cast<uint32_t>(
      options.GetInt("cache", engine_options.evaluator_cache_capacity));
  engine_options.enable_metrics = options.GetBool("metrics", true);
  engine_options.slow_query_millis =
      static_cast<double>(options.GetInt("slow_query_ms", -1));

  auto engine = api::Engine::Open(engine_options);
  if (!engine.ok()) {
    std::cerr << "cannot open engine: " << engine.status().ToString() << "\n";
    return 1;
  }

  // Additional datasets from --load=name=prefix[,name=prefix...]. They
  // inherit the build-fallback defaults (but never an explicit --sketch,
  // which names one file for one bundle).
  if (!extra_loads.empty()) {
    api::DatasetLoadOptions extra = engine_options.load;
    extra.sketch_path.clear();
    std::stringstream items(extra_loads);
    std::string item;
    while (std::getline(items, item, ',')) {
      const size_t eq = item.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == item.size()) {
        std::cerr << "bad --load item '" << item
                  << "' (expected name=prefix)\n";
        return 2;
      }
      extra.bundle_prefix = item.substr(eq + 1);
      auto entry =
          (*engine)->registry().Load(item.substr(0, eq), extra);
      if (!entry.ok()) {
        std::cerr << "cannot load '" << item
                  << "': " << entry.status().ToString() << "\n";
        return 1;
      }
    }
  }

  std::cerr << "hosting " << (*engine)->registry().size()
            << " dataset(s) on " << (*engine)->num_worker_threads()
            << " worker thread(s):\n";
  for (const auto& entry : (*engine)->registry().List()) {
    std::cerr << "  '" << entry->name << "' (" << entry->dataset.name
              << "): n=" << entry->dataset.influence.num_nodes()
              << " r=" << entry->dataset.state.num_candidates()
              << " | sketch: theta=" << entry->meta.theta
              << " t=" << entry->meta.horizon
              << " target=" << entry->meta.target
              << (entry->sketch_built ? " (built now)"
                  : entry->sketch->adopted() ? " (loaded, mmap zero-copy)"
                                             : " (loaded, copied)")
              << "\n";
  }
  if (options.GetBool("build_only", false)) return 0;

  const std::string metrics_out_path = options.GetString("metrics_out", "");
  const double metrics_dump_interval_sec =
      static_cast<double>(options.GetInt("metrics_interval_sec", 60));

  // ---- Network serving: --listen=<port> replaces the stdin transport ----
  // (the stdin path below stays the default; both speak the identical
  // protocol through the identical engine, so answers are bit-identical).
  if (const int64_t listen_port = options.GetInt("listen", -1);
      listen_port >= 0) {
    if (listen_port > 65535) {
      std::cerr << "--listen=" << listen_port << " is not a TCP port\n";
      return 2;
    }
    net::ServerOptions server_options;
    server_options.host = options.GetString("listen_host", "127.0.0.1");
    server_options.port = static_cast<uint16_t>(listen_port);
    server_options.max_connections =
        static_cast<size_t>(options.GetInt("net_max_conns", 1024));
    server_options.max_line_bytes =
        static_cast<size_t>(options.GetInt("net_max_line_bytes", 1 << 20));
    server_options.read_timeout_ms =
        static_cast<uint32_t>(options.GetInt("net_read_timeout_ms", 30000));
    server_options.batch.queue_depth =
        static_cast<size_t>(options.GetInt("net_queue_depth", 256));
    server_options.batch.batch_max =
        static_cast<size_t>(options.GetInt("net_batch_max", 64));
    server_options.batch.num_executors =
        static_cast<uint32_t>(options.GetInt("net_executors", 2));
    if (engine_options.enable_metrics) {
      server_options.batch.metrics = &(*engine)->metrics();
    }

    net::Server server(engine->get(), server_options);
    if (Status st = server.Start(); !st.ok()) {
      std::cerr << "cannot listen: " << st.ToString() << "\n";
      return 1;
    }
    std::cerr << "listening on " << server_options.host << ":"
              << server.port() << "\n";

    std::signal(SIGINT, HandleShutdownSignal);
    std::signal(SIGTERM, HandleShutdownSignal);
    WallTimer since_net_dump;
    auto dump_net_metrics = [&] {
      if (metrics_out_path.empty()) return;
      if (!DumpMetricsFile(metrics_out_path,
                           (*engine)->metrics().ToPrometheusText())) {
        std::cerr << "cannot write metrics to " << metrics_out_path << "\n";
      }
    };
    while (g_shutdown == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      if (!metrics_out_path.empty() &&
          since_net_dump.Seconds() >= metrics_dump_interval_sec) {
        dump_net_metrics();
        since_net_dump.Restart();
      }
    }
    std::cerr << "shutdown signal received; draining\n";
    server.Stop();
    dump_net_metrics();
    const auto stats = (*engine)->stats();
    std::cerr << "served " << stats.queries << " requests (" << stats.errors
              << " errors) on " << (*engine)->num_worker_threads()
              << " worker(s)\n";
    return 0;
  }

  const std::string requests_path = options.GetString("requests", "-");
  const std::string out_path = options.GetString("out", "-");
  std::ifstream request_file;
  if (requests_path != "-") {
    request_file.open(requests_path);
    if (!request_file) {
      std::cerr << "cannot open " << requests_path << "\n";
      return 1;
    }
  }
  std::istream& in = requests_path == "-" ? std::cin : request_file;
  std::ofstream out_file;
  if (out_path != "-") {
    out_file.open(out_path);
    if (!out_file) {
      std::cerr << "cannot open " << out_path << " for writing\n";
      return 1;
    }
  }
  std::ostream& out = out_path == "-" ? std::cout : out_file;

  // Observability wiring: the transport owns the stages the engine cannot
  // see — wire parse (handed to the engine's trace via parse_millis) and
  // response serialization (metrics-only: the response bytes are final by
  // then) — plus the periodic Prometheus dump.
  const std::string& metrics_out = metrics_out_path;
  const double metrics_interval_sec = metrics_dump_interval_sec;
  obs::Registry& metrics = (*engine)->metrics();
  obs::Histogram* parse_seconds = nullptr;
  obs::Histogram* serialize_seconds = nullptr;
  if (engine_options.enable_metrics) {
    parse_seconds = metrics.GetHistogram(
        "voteopt_parse_seconds", {},
        "Wall seconds parsing one request line into its typed form");
    serialize_seconds = metrics.GetHistogram(
        "voteopt_serialize_seconds", {},
        "Wall seconds rendering one dispatch window's responses to JSON");
  }
  WallTimer since_dump;
  auto dump_metrics = [&] {
    if (metrics_out.empty()) return;
    if (!DumpMetricsFile(metrics_out, metrics.ToPrometheusText())) {
      std::cerr << "cannot write metrics to " << metrics_out << "\n";
    }
  };

  // Requests are read into a dispatch window and answered as one parallel
  // batch; responses are emitted in request order, with lines that failed
  // to parse answered in place. On stdin the window defaults to 1 so a
  // request-response conversation over a pipe never deadlocks waiting for
  // a full window.
  const size_t window_size = static_cast<size_t>(std::max<int64_t>(
      1, options.GetInt("batch", requests_path == "-" ? 1 : 128)));
  struct Slot {
    bool parsed = false;
    api::Request request;
    api::Response error;
  };
  std::vector<Slot> window;
  auto flush = [&] {
    std::vector<api::Request> requests;
    requests.reserve(window.size());
    for (const Slot& slot : window) {
      if (slot.parsed) requests.push_back(slot.request);
    }
    std::vector<api::Response> answers = (*engine)->ExecuteBatch(requests);
    WallTimer serialize_timer;
    size_t next = 0;
    for (const Slot& slot : window) {
      out << (slot.parsed ? answers[next++] : slot.error).ToJson() << "\n";
    }
    if (serialize_seconds != nullptr) {
      serialize_seconds->Observe(serialize_timer.Seconds());
    }
    window.clear();
    if (!metrics_out.empty() && since_dump.Seconds() >= metrics_interval_sec) {
      dump_metrics();
      since_dump.Restart();
    }
  };

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    Slot slot;
    WallTimer parse_timer;
    auto request = serve::ParseRequest(line);
    const double parse_millis = parse_timer.Millis();
    if (parse_seconds != nullptr) {
      parse_seconds->Observe(parse_millis * 1e-3);
    }
    if (request.ok()) {
      slot.parsed = true;
      slot.request = *request;
      slot.request.parse_millis = parse_millis;
    } else {
      slot.error.op = "?";
      slot.error.ok = false;
      slot.error.error = request.status().ToString();
    }
    window.push_back(std::move(slot));
    if (window.size() >= window_size) {
      flush();
      out.flush();
    }
  }
  flush();
  dump_metrics();

  const auto stats = (*engine)->stats();
  std::cerr << "served " << stats.queries << " requests (" << stats.errors
            << " errors) on " << (*engine)->num_worker_threads()
            << " worker(s), " << stats.worker_states
            << " worker states, evaluator cache "
            << stats.evaluator_cache_hits << " hits / "
            << stats.evaluator_cache_misses << " misses, "
            << stats.sketch_resets << " sketch resets\n";
  return 0;
}
