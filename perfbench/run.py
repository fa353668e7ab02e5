#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload or the self-check.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload pim-build --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck

The first form builds perfbench/bench.exe with dune into .bench_build/ and
runs it; its standard output is the benchmark's, whose last line is the
JSON result. A traced run (--trace 1) also writes its spans to
.bench_out/spans-<workload>.jsonl. Everything the build and the run write
stays inside the checkout.

--selfcheck runs a few operations of every workload in BENCHMARK.json, on
the default seed and on the held-out seed, traced and untraced, and fails
unless every metric BENCHMARK.json names prints with its unit and no output
check fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_bounded(cmd, timeout, **kw):
    """Run cmd to completion; on timeout kill it, wait for it, and die."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die("%s did not finish within %d s" % (cmd[0], timeout), 3)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no program to build: run from the root of a checkout "
            "(dune-project and lib/ next to perfbench/)")
    tmp = os.path.join(ROOT, BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "./perfbench/bench.exe"]
    try:
        code = run_bounded(cmd, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    except FileNotFoundError:
        die("dune is not installed")
    if code != 0 or not os.path.isfile(EXE):
        die("build failed (exit %d)" % code)


def bench(workload, seed, seconds, trace, **kw):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", os.path.join(ROOT, ".bench_out",
                                        "spans-%s.jsonl" % workload)]
    return run_bounded(cmd, RUN_TIMEOUT_S, **kw)


def selfcheck(seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    out_path = os.path.join(ROOT, ".bench_out", "selfcheck.out")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    for w in spec["workloads"]:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for trace in (0, 1):
                tag = "%s seed %d trace %d" % (w["name"], seed, trace)
                with open(out_path, "w") as out:
                    code = bench(w["name"], seed, seconds, trace, stdout=out)
                with open(out_path) as out:
                    lines = out.read().splitlines()
                if code != 0 or not lines:
                    problems.append("%s: exit %d" % (tag, code))
                    continue
                result = json.loads(lines[-1])
                metrics = result["metrics"]
                for name, unit in wanted[trace].items():
                    if name not in metrics:
                        problems.append("%s: %s missing" % (tag, name))
                    elif metrics[name]["unit"] != unit:
                        problems.append("%s: %s in %s, not %s" % (
                            tag, name, metrics[name]["unit"], unit))
                for name in metrics:
                    if name not in wanted[trace]:
                        problems.append("%s: unexpected %s" % (tag, name))
                if not result["correct"] or result["failed"] != 0:
                    problems.append("%s: %d of %d operations failed" % (
                        tag, result["failed"], result["attempted"]))
                print("%-40s %5d ops, %d failed" % (
                    tag, result["attempted"], result["failed"]))
    for p in problems:
        print("FAIL " + p)
    print("selfcheck: %s" % ("ok" if not problems else
                             "%d problem(s)" % len(problems)))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not args.selfcheck and not args.workload:
        ap.error("--workload is required")
    build()
    sys.stdout.flush()
    if args.selfcheck:
        return selfcheck(min(args.seconds, 1))
    return bench(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
