#!/usr/bin/env python3
"""perfbench: one end-to-end run of one workload.

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 10 \
        --trace 0

Run from the repository root. It builds the voteopt library, the shipped
voteopt_serve server and perfbench_probe from source into .bench_build
(or $CARGO_TARGET_DIR), prepares the workload's instance under
.bench_work/, generates the request scripts from --seed, drives the
server over loopback TCP (or the library, for cold_start), checks every
answer, and prints one JSON object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(README.md has the catalog). Exit code 0 means the run completed; a
failed answer gate still prints a result, with "correct": false.
"""

import argparse
import filecmp
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = os.path.dirname(HERE)
HORIZON = 20

# Fixed work per second of --seconds, per connection. The counts are
# constants so that both sides of a comparison run identical scripts.
INTERACTIVE_CONNS = 1
INTERACTIVE_PER_CONN_PER_S = 220
RANK_CONNS = 2
RANK_PER_CONN_PER_S = 19
# churn runs on one connection: every commit follows a fixed block of
# interactive reads, so both sides of a comparison interleave reads and
# commits in the same order.
CHURN_COMMITS_PER_S = 4
CHURN_READS_PER_COMMIT = 40
COLD_READS_PER_S = 20
COLD_OOC_BUILDS = 7
COLD_SETUPS = 7
SERVE_SETUPS = 15
# Timed phases are summarized over WINDOW_S windows; a figure is the
# WINDOW_QUANTILE quantile, from the fast end, over windows holding at
# least WINDOW_MIN samples of the class (see host_adjusted_ms).
WINDOW_S = 2.0
WINDOW_QUANTILE = 0.25
WINDOW_MIN = 5
# The host-speed yardstick (Yardstick in probe.cc): every time figure is
# scaled by YARDSTICK_REF_MS over the yardstick's time beside it. The
# reference is a pass's time on a 4-vCPU Xeon VM when it ran fast, so
# adjusted figures read as times on that host. Client scripts time one
# pass every YARDSTICK_EVERY[workload] requests.
YARDSTICK_REF_MS = 5.2
YARDSTICK_REPS = 3
YARDSTICK_EVERY = {"interactive": 100, "churn": 82, "rank_sweep": 10,
                   "cold_start": 20}
# Block budget for the cold_start OOC build: small enough that the
# tw100k influence graph splits into at least four blocks.
COLD_BLOCK_BUDGET = 600000


READ_CLASSES = ("evaluate", "topk", "minseed", "rank_topk", "rulesweep")


class BenchError(Exception):
    """A run that cannot produce a result (build or process failure)."""


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    """Configures and builds the package; incremental after the first run."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    logfile = os.path.join(out, "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                  "--target", "voteopt_serve", "perfbench_probe"])
    with open(logfile, "w") as log_out:
        for step in steps:
            if subprocess.call(step, stdout=log_out,
                               stderr=subprocess.STDOUT) != 0:
                with open(logfile) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(step))


def serve_binary():
    return os.path.join(build_dir(), "voteopt", "voteopt_serve")


def probe_binary():
    return os.path.join(build_dir(), "perfbench_probe")


def probe(*args):
    """Runs perfbench_probe to completion and returns its stdout."""
    proc = subprocess.run([probe_binary()] + list(args), text=True,
                          stdout=subprocess.PIPE)
    if proc.returncode != 0:
        raise BenchError("perfbench_probe %s failed" % args[0])
    return proc.stdout


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def wait_rusage(proc):
    """Reaps `proc` and returns its peak RSS in MiB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


_SERVING_CPU = []  # chosen once per run


def spin_seconds():
    """Times a fixed pure-Python loop: how fast the calling CPU runs."""
    start = time.perf_counter()
    total = 0
    for i in range(100000):
        total += i * i
    return time.perf_counter() - start


def serving_cpu():
    """The one CPU the pinned parts of a run use: the fastest allowed one.

    Pinned, the client's and the server's thread hand-offs are context
    switches on one CPU. Unpinned, each is a cross-CPU wake-up, whose cost
    on a shared virtual host moves with the host's load: an `evaluate`
    round trip then flips between two modes about 1.5x apart within one
    run. The CPUs of such a host are not equal either (one can run at
    half the speed of the others for minutes), so each CPU is timed with
    a short loop, best of three, and the fastest is chosen.
    """
    if not _SERVING_CPU:
        allowed = os.sched_getaffinity(0)
        speeds = []
        try:
            for cpu in sorted(allowed):
                os.sched_setaffinity(0, {cpu})
                speeds.append((min(spin_seconds() for _ in range(3)), cpu))
        finally:
            os.sched_setaffinity(0, allowed)
        _SERVING_CPU.append(min(speeds)[1])
        log("serving CPU %d (loop times %s ms)" % (_SERVING_CPU[0], ", ".join(
            "cpu%d %.1f" % (cpu, sec * 1e3) for sec, cpu in speeds)))
    return _SERVING_CPU[0]


def yardstick_ms(cpu):
    """The median of YARDSTICK_REPS yardstick passes on `cpu`, in ms."""
    proc = subprocess.run(
        [probe_binary(), "yardstick", "--reps=%d" % YARDSTICK_REPS],
        text=True, stdout=subprocess.PIPE, preexec_fn=pinned_to(cpu))
    if proc.returncode != 0:
        raise BenchError("perfbench_probe yardstick failed")
    return stats.median(json.loads(proc.stdout)) / 1e6


def host_adjusted(value, yard_ms):
    """`value` (a time) at the reference speed, given the yardstick's
    time `yard_ms` beside it."""
    return value * YARDSTICK_REF_MS / yard_ms


def pinned_to(cpu):
    """A Popen preexec_fn that pins the child to `cpu` (None: no pin)."""
    if cpu is None:
        return None
    return lambda: os.sched_setaffinity(0, {cpu})


class Server:
    """One voteopt_serve --listen process on an ephemeral port."""

    def __init__(self, prefix, extra_args=(), cpu=None):
        self.proc = subprocess.Popen(
            [serve_binary(), "--bundle=" + prefix, "--listen=0",
             "--theta=0"] + list(extra_args),
            stderr=subprocess.PIPE, stdout=subprocess.DEVNULL, text=True,
            preexec_fn=pinned_to(cpu))
        while True:
            line = self.proc.stderr.readline()
            if not line:
                self.proc.wait()
                raise BenchError("voteopt_serve exited before listening")
            if "listening on" in line:
                self.port = int(line.strip().rsplit(":", 1)[1])
                return

    def stop(self):
        """SIGTERM (graceful drain), reap; returns peak RSS in MiB."""
        self.proc.send_signal(signal.SIGTERM)
        self.proc.stderr.read()
        rss = wait_rusage(self.proc)
        if self.proc.returncode != 0:
            raise BenchError("voteopt_serve exited with %d"
                             % self.proc.returncode)
        return rss

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


class Client:
    """perfbench_probe client: started before the server it will drive."""

    def __init__(self, script_dir, conns, trace=False, want_stats=False,
                 cpu=None):
        self.proc = subprocess.Popen(
            [probe_binary(), "client", "--dir=" + script_dir,
             "--conns=%d" % conns, "--trace=%d" % int(trace),
             "--stats=%d" % int(want_stats)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            preexec_fn=pinned_to(cpu))

    def connect(self, port):
        """Hands over the port; returns the warm-up completion instant."""
        self.proc.stdin.write("%d\n" % port)
        self.proc.stdin.close()
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "warm":
            raise BenchError("client failed during warm-up")
        return int(line[1])

    def finish(self):
        out = self.proc.stdout.read()
        self.proc.wait()
        lines = out.strip().splitlines()
        if self.proc.returncode != 0 or not lines:
            raise BenchError("client failed")
        return json.loads(lines[-1])

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def serve_session(prefix, setup_dir, run_dir, conns, repeats,
                  before_start=None, server_args=(), trace=False,
                  want_stats=False, cpu=None):
    """Starts a fresh server `repeats` times; the last one runs the timed
    scripts. `cpu` pins the server and the client to one CPU.

    Each start is timed from just before the server process is spawned
    until the last warm-up answer arrives (setup), and host-adjusted by a
    yardstick timed on `cpu` (or the serving CPU) just before. Returns the
    setup times, the client summary and the serving process's peak RSS.
    """
    setups, raw = [], []
    for i in range(repeats):
        last = i == repeats - 1
        if before_start is not None:
            before_start()
        yard = yardstick_ms(serving_cpu() if cpu is None else cpu)
        client = Client(run_dir if last else setup_dir, conns,
                        trace=trace and last, want_stats=want_stats and last,
                        cpu=cpu)
        server = None
        try:
            start_ns = time.monotonic_ns()
            server = Server(prefix, server_args, cpu=cpu)
            raw.append((client.connect(server.port) - start_ns) / 1e9)
            setups.append(host_adjusted(raw[-1], yard))
            summary = client.finish()
            rss = server.stop()
        finally:
            client.kill()
            if server is not None:
                server.kill()
        if not summary["transport_ok"]:
            raise BenchError("lost a connection to the server")
    log("set-up times (s), as measured: %s; host-adjusted: %s" % (
        " ".join("%.4f" % t for t in raw),
        " ".join("%.4f" % t for t in setups)))
    return setups, summary, rss


# ---------------------------------------------------------------------------
# scripts and answers
# ---------------------------------------------------------------------------

def copy_bundle(prefix, dest_prefix, with_sketch=True):
    """Copies a bundle's member files (never a mutation journal)."""
    base = os.path.basename(prefix)
    src_dir = os.path.dirname(prefix)
    for name in os.listdir(src_dir):
        if not name.startswith(base + "."):
            continue
        suffix = name[len(base):]
        if suffix == ".dynlog" or (suffix == ".sketch" and not with_sketch):
            continue
        shutil.copyfile(os.path.join(src_dir, name), dest_prefix + suffix)


def reference_answers(prefix, lines, work, tag):
    """Stable reference answers for `lines`, answered in order by a
    single-thread in-process engine on a private copy of the bundle."""
    ref_dir = os.path.join(work, "ref-" + tag)
    os.makedirs(ref_dir)
    ref_prefix = os.path.join(ref_dir, "bundle")
    copy_bundle(prefix, ref_prefix)
    requests = os.path.join(ref_dir, "requests.jsonl")
    answers = os.path.join(ref_dir, "answers.jsonl")
    with open(requests, "w") as f:
        f.writelines(line + "\n" for line in lines)
    probe("reference", "--prefix=" + ref_prefix, "--requests=" + requests,
          "--out=" + answers)
    with open(answers) as f:
        out = [line.rstrip("\n") for line in f]
    if len(out) != len(lines):
        raise BenchError("reference answered %d of %d requests"
                         % (len(out), len(lines)))
    return out


def distinct_answers(prefix, lines, work, tag):
    """Reference answers keyed by request line, for independent reads."""
    unique = sorted(set(lines))
    return dict(zip(unique, reference_answers(prefix, unique, work, tag)))


def write_script(path, script, expected=None):
    """Script lines: class, request, expected stable answer (or -)."""
    with open(path, "w") as f:
        for op_class, line in script:
            want = expected.get(line, "-") if expected else "-"
            f.write("%s\t%s\t%s\n" % (op_class, line, want))


def write_conn_scripts(script_dir, warm, runs, expected=None):
    os.makedirs(script_dir, exist_ok=True)
    for i, run in enumerate(runs):
        write_script(os.path.join(script_dir, "conn%d.warm" % i), warm[i],
                     expected)
        write_script(os.path.join(script_dir, "conn%d.run" % i), run,
                     expected)


def read_samples(script_dir):
    """The client's spans: one dict per timed or final request."""
    samples = []
    with open(os.path.join(script_dir, "samples.tsv")) as f:
        for line in f:
            phase, conn, seq, op_class, start, end, status, diag = \
                line.rstrip("\n").split("\t")
            samples.append({
                "phase": phase, "conn": int(conn), "seq": int(seq),
                "class": op_class, "start_ns": int(start),
                "end_ns": int(end), "status": status,
                "diagnostics": None if diag == "-" else json.loads(diag)})
    return samples


class Tally:
    """Operations attempted and failed, by outcome."""

    def __init__(self):
        self.counts = {"sent": 0, "ok": 0, "failed": 0, "shed": 0,
                       "mismatch": 0, "error": 0}

    def add_samples(self, samples):
        for s in samples:
            if s["class"] != "yardstick":  # not an operation
                self.add(s["status"])

    def add(self, status):
        self.counts["sent"] += 1
        if status == "ok":
            self.counts["ok"] += 1
        else:
            self.counts["failed"] += 1
            self.counts[status] = self.counts.get(status, 0) + 1

    def add_summary(self, summary, warm_requests):
        """Warm-up requests are sent and checked too."""
        self.counts["sent"] += warm_requests
        self.counts["failed"] += summary["warm_failed"]
        self.counts["error"] += summary["warm_failed"]
        self.counts["ok"] += warm_requests - summary["warm_failed"]


def latencies_ms(samples, op_class):
    return [(s["end_ns"] - s["start_ns"]) / 1e6 for s in samples
            if s["class"] == op_class and s["phase"] == "run"]


def windows(samples):
    """Groups the timed phase's samples into WINDOW_S windows by start
    time (from the release): a list, one per complete window."""
    run = [s for s in samples if s["phase"] == "run"]
    width = int(WINDOW_S * 1e9)
    count = max(s["start_ns"] for s in run) // width if run else 0
    out = [[] for _ in range(count)]
    for s in run:
        if s["start_ns"] // width < count:
            out[s["start_ns"] // width].append(s)
    return out


def yardstick_passes_ms(samples):
    return latencies_ms(samples, "yardstick")


def host_adjusted_ms(samples, op_class):
    """The round-trip time of `op_class`, host-adjusted, in ms.

    Each WINDOW_S window with at least WINDOW_MIN requests of the class
    gives its trimmed-mean round trip, scaled by the median yardstick pass
    timed in that window (host_adjusted); the figure is the
    WINDOW_QUANTILE quantile of those, from the fast end.

    The shared host's speed swings by up to 2x, in bursts of seconds and
    in spells of minutes. The yardstick, timed on the same CPU between
    requests, slows with it, so the ratio cancels most of the swing; the
    low quantile drops the windows where a burst hit the program harder
    than the yardstick. Falls back to the whole run when no window holds
    enough requests (very short runs).
    """
    per_window = []
    for window in windows(samples):
        times = [(s["end_ns"] - s["start_ns"]) / 1e6 for s in window
                 if s["class"] == op_class]
        yard = yardstick_passes_ms(window)
        if len(times) >= WINDOW_MIN and yard:
            per_window.append(host_adjusted(stats.trimmed_mean(times),
                                            stats.median(yard)))
    if per_window:
        return stats.quantile(per_window, WINDOW_QUANTILE)
    yard = yardstick_passes_ms(samples)
    if not yard:
        raise BenchError("no yardstick passes in the timed phase")
    return host_adjusted(stats.trimmed_mean(latencies_ms(samples, op_class)),
                         stats.median(yard))


def read_qps(samples, read_classes):
    """Reads answered per second on one connection at host-adjusted
    speed: the timed phase's reads over the time its requests of every
    class (reads and, on churn, commits) take at their host-adjusted
    round trips. The script fixes how many requests of each class there
    are, so this moves only with the round trips."""
    counts = {}
    for s in samples:
        if s["phase"] == "run" and s["class"] != "yardstick":
            counts[s["class"]] = counts.get(s["class"], 0) + 1
    reads = sum(n for c, n in counts.items() if c in read_classes)
    if not reads:
        raise BenchError("no reads answered")
    busy_ms = sum(n * host_adjusted_ms(samples, c) for c, n in counts.items())
    return reads / (busy_ms / 1e3)


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Context:
    def __init__(self, args, trace):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = trace
        self.work = os.path.join(ROOT, ".bench_work", args.workload)
        self.tally = Tally()
        self.gates = []  # (name, passed)

    def rng(self, stream):
        return wl.make_rng(self.seed, stream)

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def gate(self, name, passed):
        self.gates.append((name, bool(passed)))
        if not passed:
            log("answer gate failed: " + name)


def prepare_instance(ctx, instance, with_sketch=True):
    """Writes the instance's bundle (and, untimed, its persisted sketch);
    returns (prefix, num_nodes)."""
    spec = wl.INSTANCES[instance]
    os.makedirs(ctx.path("data"))
    prefix = ctx.path("data", instance)
    info = json.loads(probe("prepare", "--prefix=" + prefix,
                            "--scale=%g" % spec["scale"]))
    if with_sketch:
        build_sketch(prefix, spec["theta"])
    ctx.instance, ctx.prefix, ctx.n = instance, prefix, info["n"]
    return prefix, info["n"]


def build_sketch(prefix, theta, extra_args=(), cpu=None):
    """voteopt_serve --build_only; returns (seconds, peak RSS MiB)."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [serve_binary(), "--bundle=" + prefix, "--theta=%d" % theta,
         "--t=%d" % HORIZON, "--build_only"] + list(extra_args),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        preexec_fn=pinned_to(cpu))
    rss = wait_rusage(proc)
    seconds = time.monotonic() - start
    if proc.returncode != 0:
        raise BenchError("sketch build failed for " + prefix)
    return seconds, rss


def run_read_workload(ctx, prefix, conns, warm, runs, read_class,
                      heavy_class, final=None, expected=None,
                      before_start=None, repeats=SERVE_SETUPS,
                      server_args=(), cpu=None):
    """The shared serving flow: scripts, fresh-start setups, timed run."""
    setup_dir, run_dir = ctx.path("setup"), ctx.path("run")
    write_conn_scripts(setup_dir, warm, [[] for _ in range(conns)], expected)
    every = YARDSTICK_EVERY[ctx.workload]
    runs = [wl.with_yardstick(run, every) for run in runs]
    write_conn_scripts(run_dir, warm, runs, expected)
    final_script, final_expected = final if final is not None else ([], None)
    if ctx.trace:
        # Each probe request runs twice; the first warms the server's
        # evaluator cache for its rule, the second is measured.
        final_script = final_script + [
            (phase + op_class, line) for op_class, line in layer_requests(ctx)
            if op_class in TRANSPORT_CLASSES for phase in ("warm.", "probe.")]
    write_script(os.path.join(run_dir, "final.run"), final_script,
                 final_expected)
    setups, summary, rss = serve_session(
        prefix, setup_dir, run_dir, conns, repeats,
        before_start=before_start,
        server_args=server_args, trace=ctx.trace, want_stats=ctx.trace,
        cpu=cpu)
    samples = read_samples(run_dir)
    ctx.samples = samples  # the traced run's per-layer figures read these
    ctx.tally.add_samples(samples)
    ctx.tally.add_summary(summary, sum(len(w) for w in warm))
    ctx.read_class = read_class  # the traced run reports its p95
    metrics = {
        "setup_s": metric(stats.median(setups), "s"),
        "query_qps": metric(read_qps(samples, READ_CLASSES), "1/s"),
        "read_ms": metric(host_adjusted_ms(samples, read_class), "ms"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    if heavy_class is not None:
        metrics["heavy_ms"] = metric(
            host_adjusted_ms(samples, heavy_class), "ms")
    return metrics


def interactive(ctx):
    prefix, n = prepare_instance(ctx, "tw8k")
    pool = wl.evaluate_pool(ctx.rng("pool"), n)
    count = INTERACTIVE_PER_CONN_PER_S * ctx.seconds
    runs = [wl.interactive_script(ctx.rng("conn%d" % i), pool, count)
            for i in range(INTERACTIVE_CONNS)]
    warm = [wl.interactive_warmup()] * INTERACTIVE_CONNS
    lines = [line for script in runs + warm for _, line in script]
    expected = distinct_answers(prefix, lines, ctx.work, "reads")
    return run_read_workload(ctx, prefix, INTERACTIVE_CONNS, warm, runs,
                             "evaluate", "topk", expected=expected,
                             cpu=serving_cpu())


def rank_sweep(ctx):
    prefix, _ = prepare_instance(ctx, "tw4k")
    count = RANK_PER_CONN_PER_S * ctx.seconds
    runs = [wl.rank_script(ctx.rng("conn%d" % i), count)
            for i in range(RANK_CONNS)]
    warm = [wl.rank_warmup()] * RANK_CONNS
    lines = [line for script in runs + warm for _, line in script]
    expected = distinct_answers(prefix, lines, ctx.work, "reads")
    return run_read_workload(ctx, prefix, RANK_CONNS, warm, runs,
                             "rank_topk", "rulesweep", expected=expected,
                             cpu=serving_cpu())


def churn(ctx):
    prefix, n = prepare_instance(ctx, "tw8k")
    base_edges = wl.read_edges(prefix + ".influence.edges")
    writer = wl.MutationGenerator(ctx.rng("writer"), n, base_edges)
    commits = [("commit", writer.request())
               for _ in range(CHURN_COMMITS_PER_S * ctx.seconds + 1)]
    pool = wl.evaluate_pool(ctx.rng("pool"), n)
    reads = wl.interactive_script(
        ctx.rng("reads"), pool, CHURN_READS_PER_COMMIT * (len(commits) - 1))
    final = wl.churn_final_queries(pool)
    # The replay reference: a fresh engine commits the writer's batches in
    # order (the first is the writer's warm-up), then answers the final
    # query set.
    lines = [line for _, line in commits + final]
    answers = reference_answers(prefix, lines, ctx.work, "replay")
    commit_expected = {line: answers[i] for i, (_, line) in
                       enumerate(commits)}
    final_expected = {line: answers[len(commits) + i]
                      for i, (_, line) in enumerate(final)}
    warm = [commits[:1] + wl.interactive_warmup()]
    run = []
    for i, commit in enumerate(commits[1:]):
        run += reads[i * CHURN_READS_PER_COMMIT:
                     (i + 1) * CHURN_READS_PER_COMMIT]
        run.append(commit)

    def reset_journal():
        # Every fresh start serves the base instance.
        if os.path.exists(prefix + ".dynlog"):
            os.remove(prefix + ".dynlog")

    metrics = run_read_workload(
        ctx, prefix, 1, warm, [run], "evaluate", "commit",
        final=(final, final_expected), expected=commit_expected,
        before_start=reset_journal, cpu=serving_cpu())
    finals = [s for s in ctx.samples if s["phase"] == "final" and
              not s["class"].startswith(("warm.", "probe."))]
    ctx.gate("churn replay", len(finals) == len(final) and
             all(s["status"] == "ok" for s in finals))
    return metrics


def cold_start(ctx):
    theta = wl.INSTANCES["tw100k"]["theta"]
    prefix, n = prepare_instance(ctx, "tw100k", with_sketch=False)
    # Untimed reference: the same recipe built once, on its own copy.
    os.makedirs(ctx.path("ref-sketch"))
    ref_prefix = ctx.path("ref-sketch", "bundle")
    copy_bundle(prefix, ref_prefix)
    build_sketch(ref_prefix, theta)

    def same_sketch(gate, sketch_prefix):
        same = filecmp.cmp(sketch_prefix + ".sketch", ref_prefix + ".sketch",
                           shallow=False)
        ctx.gate(gate, same)
        ctx.tally.add("ok" if same else "mismatch")

    pool = wl.evaluate_pool(ctx.rng("pool"), n, size=48)
    runs = [[("evaluate", ctx.rng("reads").choice(pool))
             for _ in range(COLD_READS_PER_S * ctx.seconds)]]
    warm = [[("evaluate", wl.render({"op": "evaluate", "seeds": [0]}))]]
    expected = distinct_answers(ref_prefix,
                                [line for _, line in runs[0] + warm[0]],
                                ctx.work, "reads")

    def drop_sketch():
        if os.path.exists(prefix + ".sketch"):
            os.remove(prefix + ".sketch")

    # Setup = bundle parse + in-memory build (on every CPU: it is
    # parallel) + persist + first answer, from a fresh start each time.
    cold_dir = ctx.path("cold")
    write_conn_scripts(cold_dir, warm, [[]], expected)
    setups, summary, build_rss = serve_session(
        prefix, cold_dir, cold_dir, 1, COLD_SETUPS,
        before_start=drop_sketch,
        server_args=["--theta=%d" % theta, "--t=%d" % HORIZON])
    ctx.tally.add_summary(summary, len(warm[0]))
    same_sketch("in-memory build == reference sketch", prefix)

    # The reads: a restart on the sketch the cold start persisted, pinned
    # like the other serving sessions.
    metrics = run_read_workload(
        ctx, prefix, 1, warm, runs, "evaluate", None, expected=expected,
        repeats=1, cpu=serving_cpu())
    metrics["setup_s"] = metric(stats.median(setups), "s")
    metrics["peak_rss_mb"] = metric(
        max(build_rss, metrics["peak_rss_mb"]["value"]), "MB")

    # The OOC builds run pinned too: block scheduling is mostly serial,
    # and unpinned their times spread twice as wide.
    ooc_seconds = []
    for i in range(COLD_OOC_BUILDS):
        os.makedirs(ctx.path("ooc%d" % i))
        ooc_prefix = ctx.path("ooc%d" % i, "bundle")
        copy_bundle(prefix, ooc_prefix, with_sketch=False)
        yard = yardstick_ms(serving_cpu())
        seconds, _ = build_sketch(
            ooc_prefix, theta,
            ["--block_budget_bytes=%d" % COLD_BLOCK_BUDGET],
            cpu=serving_cpu())
        ooc_seconds.append(host_adjusted(seconds, yard))
        same_sketch("OOC build %d == reference sketch" % i, ooc_prefix)
        shutil.rmtree(ctx.path("ooc%d" % i))
    # The fast end of the builds, like the windows of a timed phase.
    metrics["heavy_ms"] = metric(
        stats.quantile(ooc_seconds, WINDOW_QUANTILE) * 1e3, "ms")
    return metrics


# ---------------------------------------------------------------------------
# the traced run (--trace 1)
# ---------------------------------------------------------------------------

# Requests per class in the per-layer probes (in process, and as one
# uncontended connection after the traced session).
LAYER_REQUESTS = {"tw8k": 8, "tw4k": 8, "tw100k": 1}
LAYER_REPEATS = {"tw8k": 5, "tw4k": 5, "tw100k": 3}
LAYER_COMMITS = 32
LAYER_BLOCK_BUDGET = {"tw8k": 60000, "tw4k": 30000,
                      "tw100k": COLD_BLOCK_BUDGET}
# Transport is priced on the cheap classes only: for rank_topk and
# rulesweep (0.1-5 s) it sits far below their run-to-run spread.
TRANSPORT_CLASSES = ("evaluate", "topk", "minseed")
RULE_NAMES = ("cumulative", "plurality", "papproval", "borda", "copeland")


def layer_requests(ctx):
    """`count` requests of every read class, whatever the workload's mix,
    so every per-layer metric exists on every workload's instance."""
    count = LAYER_REQUESTS[ctx.instance]
    pool = wl.evaluate_pool(ctx.rng("layers"), ctx.n, size=count)
    topk = [wl.render({"op": "topk", "k": k}) for k in (10, 25, 50)]
    rank = wl.rank_requests()
    out = []
    for i in range(count):
        out += [("evaluate", pool[i]), ("topk", topk[i % len(topk)]),
                ("minseed", wl.render({"op": "minseed", "k_max": 32})),
                ("rank_topk", rank[i % len(rank)]),
                ("rulesweep", wl.rulesweep_request())]
    return out


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


def self_times_ms(spans):
    """Per span id: duration minus the union of its children's intervals."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        covered, reach = 0, span["start_ns"]
        for child in sorted(children.get(span["id"], []),
                            key=lambda c: c["start_ns"]):
            start = max(child["start_ns"], reach)
            if child["end_ns"] > start:
                covered += child["end_ns"] - start
                reach = child["end_ns"]
        out[span["id"]] = (span["end_ns"] - span["start_ns"] - covered) / 1e6
    return out


def histogram_quantile(snapshot, name, q):
    """Upper bound of the bucket holding the q-quantile of a flattened
    obs::Histogram in a `stats` snapshot (seconds)."""
    buckets = []
    for key, value in snapshot.items():
        prefix = name + '_bucket{le="'
        if key.startswith(prefix):
            bound = key[len(prefix):-2]
            buckets.append((float("inf") if bound == "+Inf" else float(bound),
                            value))
    buckets.sort()
    total = snapshot.get(name + "_count", 0)
    if total == 0:
        return 0.0
    for bound, cumulative in buckets:
        if cumulative >= q * total:
            return bound
    return buckets[-1][0]


def layer_metrics(ctx, untraced_qps):
    """Runs perfbench_probe layers on the workload's instance and folds
    its spans, the traced session's spans and the server's `stats`
    snapshot into the per-layer metrics."""
    prefix = ctx.prefix
    theta = wl.INSTANCES[ctx.instance]["theta"]
    if os.path.exists(prefix + ".dynlog"):
        os.remove(prefix + ".dynlog")  # probe the base instance
    layer_dir = ctx.path("layers")
    os.makedirs(layer_dir)
    writer = wl.MutationGenerator(ctx.rng("layers-writer"), ctx.n,
                                  wl.read_edges(prefix + ".influence.edges"))
    mutations = os.path.join(layer_dir, "mutations.jsonl")
    with open(mutations, "w") as f:
        f.writelines(writer.request() + "\n" for _ in range(LAYER_COMMITS))
    requests = os.path.join(layer_dir, "requests.tsv")
    write_script(requests, layer_requests(ctx))
    spans_path = os.path.join(layer_dir, "spans.jsonl")
    probe("layers", "--prefix=" + prefix, "--theta=%d" % theta,
          "--block_budget_bytes=%d" % LAYER_BLOCK_BUDGET[ctx.instance],
          "--mutations=" + mutations, "--requests=" + requests,
          "--scratch=" + layer_dir, "--out=" + spans_path,
          "--repeats=%d" % LAYER_REPEATS[ctx.instance])
    spans = read_spans(spans_path)
    selfs = self_times_ms(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def ms(name):
        return stats.median([(s["end_ns"] - s["start_ns"]) / 1e6
                             for s in by_name[name]])

    def count(name, key):
        return stats.median([s["counts"][key] for s in by_name[name]])

    m = {}

    def put(name, value, unit):
        m[name] = metric(value, unit)

    put("datasets.load_bundle_ms", ms("datasets.load_bundle"), "ms")
    put("store.load_sketch_ms", ms("store.load_sketch"), "ms")
    put("store.save_sketch_ms", ms("store.save_sketch"), "ms")
    put("graph.alias_build_ms", ms("graph.alias_build"), "ms")
    put("opinion.propagate_ms", ms("opinion.propagate"), "ms")
    for rule in RULE_NAMES:
        put("voting.evaluator_build_ms." + rule,
            ms("voting.evaluator_build." + rule), "ms")
    t1, tn = ms("core.build.threads_1"), ms("core.build.threads_nproc")
    put("core.build_ms.threads_1", t1, "ms")
    put("core.build_ms.threads_nproc", tn, "ms")
    put("core.build_walks_per_s", theta / (tn / 1e3), "1/s")
    put("core.build_scaling", t1 / tn, "x")
    put("core.reset_ms", ms("core.reset"), "ms")
    put("core.select_cumulative_ms", ms("core.select_cumulative"), "ms")
    put("core.gain_evals_cumulative",
        count("core.select_cumulative", "gain_evaluations"), "count")
    put("core.select_rank_ms", ms("core.select_rank"), "ms")
    put("core.gain_evals_rank", count("core.select_rank", "gain_evaluations"),
        "count")
    put("core.minseed_ms", ms("core.minseed"), "ms")
    put("sketch_ooc.build_ms", ms("sketch_ooc.build"), "ms")
    for key in ("blocks", "rounds", "block_loads", "boundary_hops"):
        put("sketch_ooc." + key, count("sketch_ooc.build", key), "count")
    ooc_prefix = os.path.join(layer_dir, "ooc")
    copy_bundle(prefix, ooc_prefix, with_sketch=False)
    _, ooc_rss = build_sketch(ooc_prefix, theta, [
        "--block_budget_bytes=%d" % LAYER_BLOCK_BUDGET[ctx.instance]])
    put("sketch_ooc.peak_rss_mb", ooc_rss, "MB")

    repairs = by_name.get("dyn.repair", [])
    repaired = sum(s["counts"]["walks_repaired"] for s in repairs)
    walks = sum(s["counts"]["walks_total"] for s in repairs)
    put("dyn.patch_ms", ms("dyn.patch"), "ms")
    put("dyn.repair_ms", ms("dyn.repair"), "ms")
    put("dyn.walks_repaired", count("dyn.repair", "walks_repaired"), "count")
    put("dyn.repair_selectivity", repaired / walks if walks else 0.0,
        "ratio")
    put("dyn.journal_ms", ms("dyn.journal"), "ms")
    put("dyn.journal_bytes", by_name["dyn.journal"][-1]["counts"]["bytes"],
        "bytes")
    put("dyn.commit_self_ms", stats.median(
        [selfs[s["id"]] for s in by_name["dyn.commit"]]), "ms")

    execute = {}
    for op_class in READ_CLASSES:
        execute[op_class] = ms("api.execute." + op_class)
        put("api.execute_ms." + op_class, execute[op_class], "ms")
    put("api.request_self_us", 1e3 * stats.median(
        [selfs[s["id"]] for s in by_name["api.request"]]), "us")
    put("serve.parse_us", 1e3 * ms("serve.parse"), "us")
    put("serve.render_us", 1e3 * ms("serve.render"), "us")

    # The traced session: uncontended round trips of the probe pass, the
    # server's own stage spans, and its metrics snapshot.
    for op_class in TRANSPORT_CLASSES:
        rtt = stats.median([(s["end_ns"] - s["start_ns"]) / 1e6
                            for s in ctx.samples
                            if s["class"] == "probe." + op_class])
        put("net.transport_ms." + op_class, rtt - execute[op_class], "ms")
    uncovered = []
    for s in ctx.samples:
        if s["phase"] == "run" and s["diagnostics"]:
            stages = sum(v for k, v in s["diagnostics"].items()
                         if k.startswith("stage."))
            uncovered.append((s["end_ns"] - s["start_ns"]) / 1e6 - stages)
    put("net.roundtrip_self_ms", stats.median(uncovered), "ms")
    with open(ctx.path("run", "stats.json")) as f:
        snapshot = json.loads(f.read())["stats"]
    for q in (50, 90):
        put("net.queue_wait_ms_p%d" % q, 1e3 * histogram_quantile(
            snapshot, "net_queue_wait_seconds", q / 100.0), "ms")
    batches = snapshot.get("net_batch_requests_count", 0)
    put("net.batch_requests_mean",
        snapshot.get("net_batch_requests_sum", 0) / batches if batches else 0,
        "count")
    put("net.admin_barriers", snapshot.get("net_admin_barriers_total", 0),
        "count")
    hits = snapshot.get("voteopt_evaluator_cache_hits_total", 0)
    misses = snapshot.get("voteopt_evaluator_cache_misses_total", 0)
    put("api.evaluator_cache_hit_ratio",
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    put("api.worker_states", snapshot.get("voteopt_worker_states_total", 0),
        "count")
    reads = latencies_ms(ctx.samples, ctx.read_class)
    if stats.supports(len(reads), 95):
        put("net.read_p95_ms", stats.percentile(reads, 95), "ms")
    else:
        log("net.read_p95_ms dropped: %d samples cannot support a p95"
            % len(reads))
    put("host.yardstick_ms",
        stats.median(yardstick_passes_ms(ctx.samples)), "ms")
    traced_qps = read_qps(ctx.samples, READ_CLASSES)
    put("obs.trace_overhead_pct",
        100.0 * (untraced_qps - traced_qps) / untraced_qps, "%")
    return m


WORKLOADS = {
    "interactive": interactive,
    "rank_sweep": rank_sweep,
    "churn": churn,
    "cold_start": cold_start,
}


def run_workload(args, trace, finish=None):
    """One session of the workload in a fresh work directory; `finish`
    (traced runs) replaces its metrics before the directory goes."""
    ctx = Context(args, trace)
    shutil.rmtree(ctx.work, ignore_errors=True)
    os.makedirs(ctx.work)
    ctx.metrics = WORKLOADS[args.workload](ctx)
    if finish is not None:
        ctx.metrics = finish(ctx)
    shutil.rmtree(ctx.work, ignore_errors=True)
    return ctx


def merge_counts(a, b):
    return {k: a.get(k, 0) + b.get(k, 0) for k in set(a) | set(b)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        build()
        ctx = run_workload(args, trace=False)
        metrics = ctx.metrics
        if args.trace:
            # Per-layer figures come from a second, traced session of the
            # same workload; the untraced one above prices the tracing.
            untraced_qps = metrics["query_qps"]["value"]
            traced = run_workload(args, trace=True,
                                  finish=lambda c: layer_metrics(
                                      c, untraced_qps))
            traced.tally.counts = merge_counts(ctx.tally.counts,
                                               traced.tally.counts)
            traced.gates += ctx.gates
            ctx, metrics = traced, traced.metrics
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("run failed: %r" % (e,))
        return 1
    counts = ctx.tally.counts
    log("operations: " + json.dumps(counts))
    print(json.dumps({
        "correct": counts["failed"] == 0 and all(p for _, p in ctx.gates),
        "attempted": counts["sent"],
        "failed": counts["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
