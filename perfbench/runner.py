#!/usr/bin/env python3
"""One-command runner: every workload, N runs each, summarized.

    python3 perfbench/runner.py --runs 10 [--workloads interactive,churn]
        [--seconds 15] [--first-seed 1] [--trace 0] [--json out.json]

Run from the repository root. Each run is one `perfbench/run.py` call
with its own seed (first-seed, first-seed + 1, ...). The report names the
host (nproc, build type, compiler), then prints every metric by name with
its unit: median, quartiles, max-min spread, and the interquartile spread
as a share of the median. An end-to-end metric whose runs spread by more
than a tenth of the median (max-min) is flagged, and so is one whose
quartile spread exceeds a third of its bound in BENCHMARK.json. Exits 1
if any run fails or answers incorrectly.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import stats  # noqa: E402


def load_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def host_info():
    bench.build()
    info = json.loads(bench.probe("host"))
    info["nproc"] = os.cpu_count()
    return info


def one_run(workload, seed, seconds, trace):
    """One run.py call: (its result, or None on failure; wall seconds)."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, wall
    return json.loads(lines[-1]), wall


def main():
    config = load_config()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in config["workloads"]))
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write the summary here")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    host = host_info()
    print("host: nproc=%(nproc)s build_type=%(build_type)s "
          "compiler=%(compiler)s" % host)
    report = {"host": host, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        results, walls = [], []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, wall = one_run(workload, seed, args.seconds, args.trace)
            walls.append(wall)
            if result is None or not result["correct"]:
                ok = False
                print("%s seed %d: %s" % (workload, seed,
                                          "FAILED" if result is None
                                          else "INCORRECT"))
            if result is not None:
                results.append(result)
        if not results:
            continue
        print("\n== %s: %d runs, %d ops attempted, %d failed, "
              "%.1f s per run (max %.1f s)" % (
                  workload, len(results),
                  sum(r["attempted"] for r in results),
                  sum(r["failed"] for r in results),
                  sum(walls) / len(walls), max(walls)))
        summary = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            s = stats.summarize(values)
            s["unit"] = unit
            s["values"] = values
            summary[name] = s
            flags = []
            if args.trace == 0 and s["range_rel"] > 0.10:
                flags.append("SPREAD>10%")
            bound = bounds.get(name)
            if args.trace == 0 and bound and name != "setup_s" and \
                    s["iqr_rel"] > bound / 3.0:
                flags.append("IQR>bound/3")
            print("  %-34s %12.4f %-6s q1 %10.4f q3 %10.4f "
                  "range %6.1f%% iqr %5.1f%% %s" % (
                      name, s["median"], unit, s["q1"], s["q3"],
                      100 * s["range_rel"], 100 * s["iqr_rel"],
                      " ".join(flags)))
        report["workloads"][workload] = summary
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
