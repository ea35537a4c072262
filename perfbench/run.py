#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload replay_write --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --table --seconds 20
    python3 perfbench/run.py --write-digests

The first form builds perfbench/ into .bench_build/ at the repository root
and runs one workload; the benchmark's last stdout line is its JSON
result. The second runs the traced pass on every workload and prints the
layer-cost table: each layer's share of CPU side by side, with the
traced/untraced CPU-time ratio. The third reruns every workload once at
seed 0 and rewrites perfbench/digests.json, the report digests the
benchmark checks its outputs against. Every file the build and the runs leave
behind goes under .bench_build/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
CPU_SHARES = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "fraction" and m["name"].startswith("cpu.")]


def go_env():
    """Keep the Go caches, temporaries and config inside .bench_build."""
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "XDG_CACHE_HOME": os.path.join(BUILD, "cache"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    return env


def build():
    go = shutil.which("go") or "/usr/local/go/bin/go"
    for d in ("gocache", "gopath", "tmp", "config", "cache"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    proc = subprocess.run([go, "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                          stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    return proc.returncode == 0


def bench_args(workload, seed, seconds, trace):
    return [BINARY, "-workload", workload, "-seed", str(seed), "-seconds", str(seconds),
            "-trace", str(trace), "-out", os.path.join(BUILD, "trace"),
            "-scratch", os.path.join(BUILD, "journal")]


def table(seconds):
    cols = {}
    for w in WORKLOADS:
        proc = subprocess.run(bench_args(w, 0, seconds, 1), stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=175)
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
        if not res.get("correct"):
            print("perfbench: %s failed" % w, file=sys.stderr)
            return 1
        cols[w] = res["metrics"]
    print("%-16s" % "layer" + "".join("%14s" % w for w in WORKLOADS))
    for name in CPU_SHARES:
        print("%-16s" % name + "".join("%13.1f%%" % (100 * cols[w][name]["value"]) for w in WORKLOADS))
    print("%-16s" % "trace_overhead" +
          "".join("%14.3f" % cols[w]["trace_overhead"]["value"] for w in WORKLOADS))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--table", action="store_true", help="print the layer-cost table for every workload")
    ap.add_argument("--write-digests", action="store_true", help="record the seed-0 report digests")
    args = ap.parse_args()
    if not (args.table or args.write_digests) and args.workload is None:
        ap.error("--workload, --table or --write-digests is required")
    try:
        if not build():
            print("perfbench: build failed", file=sys.stderr)
            return 1
        if args.table:
            return table(args.seconds)
        if args.write_digests:
            return subprocess.run([BINARY, "-write-digests", os.path.join(HERE, "digests.json"),
                                   "-scratch", os.path.join(BUILD, "journal")], timeout=600).returncode
        # The benchmark's stdout passes straight through: its last line is
        # the result.
        proc = subprocess.run(bench_args(args.workload, args.seed, args.seconds, args.trace),
                              timeout=175)
        return proc.returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
