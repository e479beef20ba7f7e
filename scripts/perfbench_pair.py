#!/usr/bin/env python3
"""Runs perfbench on a base and a head checkout, interleaved on one host,
and fails when the head is worse than the base by more than a bound.

    python3 scripts/perfbench_pair.py --base DIR --head DIR [--pairs N]

Both sides run the head's perfbench/ and BENCHMARK.json: they are copied
over the base tree first (so DIR given as --base is modified), and only
src/, examples/, tools/ and bench/ differ. Each side builds into its own
temporary directory (CARGO_TARGET_DIR).

Pair i of N (--pairs, default 5) runs `run.py --workload W --seed 7919+i
--trace 0` for every workload on both sides back to back, the side that goes
first alternating from pair to pair, then a layer run (`--trace 1`) of
uniform128_steady on both sides.
After the pairs, the other workloads' layer runs run on the head only, at
seeds 7919-7921: a layer check reads the median of three runs, since one
slow stretch of the host moves a single run's ratio by a tenth.

Checks (exit 1 if any fails):
  - per workload and end-to-end metric: the head's median is worse than the
    base's by more than the metric's BENCHMARK.json bound (`better` gives
    the direction);
  - a head run is not `correct`, or its failed/attempted share exceeds the
    base's;
  - the layer runs, each on the median of a workload's runs:
    obs.profile.coverage_frac >= 0.9 on every workload,
    obs.profile.overhead_frac < 0.05 on paper16_traced (a traced workload),
    physical.placement.us_per_call on uniform128_steady under 64x that on
    paper16_chaos (quadratic in the 8x site ratio), and exec.t4_over_t1 on
    uniform128_steady at least 0.8x the base's.
Every row also says in how many pairs the head's run beat the base's on
that metric (a tie counts for neither side); the checks do not read it.
Every sim_* value that differs between the sides is printed with both
values; the simulated metrics repeat exactly for a seed.

Every parsed run.py result, plain and layer runs of both sides, is written
with its side, workload, seed and place in the run order to one JSON file
(--results, default perfbench_pair_results.json in the working directory),
also when a run fails part-way; the build trees are temporary.

The comparison (`compare`, `layer_checks`) is a pure function of parsed
run.py results; tests/perfbench_pair_test.py drives it with canned results.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# The default of --pairs. Three pairs failed an A/A run (identical code on
# both sides) when two runs of one side hit a slow stretch of the host; five
# need three.
PAIRS = 5
SEED = 7919
PAIR_LAYER_WORKLOAD = "uniform128_steady"
HEAD_LAYER_RUNS = 3  # per other workload, at seeds SEED .. SEED + 2

COVERAGE_MIN = 0.9
OVERHEAD_MAX = 0.05
OVERHEAD_WORKLOAD = "paper16_traced"
PLACEMENT_GROWTH_MAX = 64.0  # (128 / 16 sites) ** 2
T4_KEEP = 0.8


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def quartiles(values):
    """(q1, median, q3) of the runs (statistics.quantiles, exclusive)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(better, base, head):
    """The fraction of `base` by which `head` is worse (< 0: better)."""
    if head == base:
        return 0.0
    if base == 0:
        return math.inf if (head > base) == (better == "lower") else -math.inf
    change = (head - base) / abs(base)
    return change if better == "lower" else -change


def head_wins(better, base_vals, head_vals):
    """In how many pairs the head's value beat the base's; a tie counts for
    neither side."""
    return sum(1 for b, h in zip(base_vals, head_vals)
               if worse_by(better, b, h) < 0)


def head_layer_runs(workloads):
    """(workload, seed) of the head-only layer runs after the pairs: every
    workload but the pairs' own layer workload, HEAD_LAYER_RUNS times."""
    return [(w, SEED + i) for w in workloads if w != PAIR_LAYER_WORKLOAD
            for i in range(HEAD_LAYER_RUNS)]


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / max(attempted, 1)


def compare(contract, base, head):
    """Plain-run verdict. `base` and `head` map workload -> run.py results
    in pair order (pair i ran seed SEED + i on both sides). Returns
    {"rows", "sim_changes", "failures"}: one row per workload and metric,
    one sim change per (workload, metric, pair) whose values differ, and
    one message per failed check."""
    rows, sim_changes, failures = [], [], []
    for name in sorted(head):
        b_runs, h_runs = base[name], head[name]
        bad = sum(1 for r in h_runs if not r["correct"])
        if bad:
            failures.append("%s: %d of %d head runs not correct" % (
                name, bad, len(h_runs)))
        b_share, h_share = failed_share(b_runs), failed_share(h_runs)
        if h_share > b_share:
            failures.append("%s: failed share %.4g > base %.4g" % (
                name, h_share, b_share))
        for m in contract["end_to_end"]:
            key = m["name"]
            b_vals = [r["metrics"][key]["value"] for r in b_runs]
            h_vals = [r["metrics"][key]["value"] for r in h_runs]
            b_q, h_q = quartiles(b_vals), quartiles(h_vals)
            worse = worse_by(m["better"], b_q[1], h_q[1])
            ok = worse <= m["bound"]
            rows.append({"workload": name, "metric": key, "unit": m["unit"],
                         "base": b_q, "head": h_q, "worse": worse,
                         "bound": m["bound"], "ok": ok,
                         "wins": head_wins(m["better"], b_vals, h_vals),
                         "pairs": len(h_vals)})
            if not ok:
                failures.append(
                    "%s %s: head median %.6g is %.1f%% worse than base "
                    "%.6g (bound %.0f%%)" % (name, key, h_q[1], 100 * worse,
                                             b_q[1], 100 * m["bound"]))
            if key.startswith("sim_"):
                for i, (bv, hv) in enumerate(zip(b_vals, h_vals)):
                    if bv != hv:
                        sim_changes.append({"workload": name, "metric": key,
                                            "pair": i, "base": bv,
                                            "head": hv})
    return {"rows": rows, "sim_changes": sim_changes, "failures": failures}


def layer_checks(base, head):
    """Layer-run verdict. `base` and `head` map workload -> run.py results
    of --trace 1 runs. Returns [(check, ok, detail)]."""
    def median(runs, workload, key):
        return statistics.median(
            r["metrics"][key]["value"] for r in runs[workload])

    checks = []
    for name in sorted(head):
        bad = sum(1 for r in head[name] if not r["correct"])
        checks.append(("%s layer runs correct" % name, bad == 0,
                       "%d of %d not correct" % (bad, len(head[name]))))
        cov = median(head, name, "obs.profile.coverage_frac")
        checks.append(("%s obs.profile.coverage_frac >= %g" % (
            name, COVERAGE_MIN), cov >= COVERAGE_MIN, "%.4f" % cov))
    over = median(head, OVERHEAD_WORKLOAD, "obs.profile.overhead_frac")
    checks.append(("%s obs.profile.overhead_frac < %g" % (
        OVERHEAD_WORKLOAD, OVERHEAD_MAX), over < OVERHEAD_MAX,
        "%.4f" % over))
    key = "physical.placement.us_per_call"
    big = median(head, "uniform128_steady", key)
    small = median(head, "paper16_chaos", key)
    growth = big / small if small > 0 else math.inf
    checks.append(("%s uniform128_steady / paper16_chaos < %gx" % (
        key, PLACEMENT_GROWTH_MAX), growth < PLACEMENT_GROWTH_MAX,
        "%.4g / %.4g us = %.1fx" % (big, small, growth)))
    key = "exec.t4_over_t1"
    h_t4 = median(head, PAIR_LAYER_WORKLOAD, key)
    b_t4 = median(base, PAIR_LAYER_WORKLOAD, key)
    checks.append(("%s %s >= %g x base" % (PAIR_LAYER_WORKLOAD, key, T4_KEEP),
                   h_t4 >= T4_KEEP * b_t4,
                   "head %.4f, base %.4f" % (h_t4, b_t4)))
    return checks


def report(plain, layer, seeds):
    """Prints both verdicts; returns the number of failed checks."""
    print("%-18s %-20s %-32s %-32s %8s %9s %6s" % (
        "workload", "metric", "base median [q1, q3]", "head median [q1, q3]",
        "head/base", "head wins", "bound"))
    for r in plain["rows"]:
        b, h = r["base"], r["head"]
        ratio = h[1] / b[1] if b[1] else math.nan
        print("%-18s %-20s %-32s %-32s %8.3f %9s %5.0f%%%s" % (
            r["workload"], r["metric"],
            "%.5g [%.5g, %.5g]" % (b[1], b[0], b[2]),
            "%.5g [%.5g, %.5g]" % (h[1], h[0], h[2]),
            ratio, "%d of %d" % (r["wins"], r["pairs"]), 100 * r["bound"],
            "" if r["ok"] else "  FAIL"))
    for c in plain["sim_changes"]:
        print("sim change: %s %s seed %d: base %.17g head %.17g" % (
            c["workload"], c["metric"], seeds[c["pair"]], c["base"],
            c["head"]))
    if not plain["sim_changes"]:
        print("sim_* metrics: identical on every workload and seed")
    failed = len(plain["failures"])
    for f in plain["failures"]:
        print("FAIL: " + f)
    for check, ok, detail in layer:
        print("%s layer: %s (%s)" % ("ok  " if ok else "FAIL", check, detail))
        failed += not ok
    return failed


def record(runs, side, workload, seed, trace, result):
    """Appends one parsed run.py result to `runs` with where it came from;
    its place in `runs` is its place in the run order."""
    runs.append({"order": len(runs), "side": side,
                 "kind": "layer" if trace else "plain",
                 "workload": workload, "seed": seed, "result": result})
    return result


def write_results(path, base, head, seeds, runs):
    """Writes every recorded run, in run order, to the JSON file `path`."""
    with open(path, "w") as f:
        json.dump({"base": str(base), "head": str(head), "seeds": seeds,
                   "runs": runs}, f, indent=1)
        f.write("\n")


def run_side(side, tree, target_dir, workload, seed, trace):
    """One run.py invocation on one side; returns its parsed result."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s failed (%d) in %s:\n%s" % (
            " ".join(cmd[1:]), proc.returncode, tree, proc.stderr[-3000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    log("  %-4s %-18s seed %d trace %d correct=%s" % (
        side, workload, seed, trace, result["correct"]))
    return result


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1: %r" % text)
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", required=True, type=Path)
    p.add_argument("--head", required=True, type=Path)
    p.add_argument("--pairs", type=positive_int, default=PAIRS,
                   help="interleaved pairs, at seeds %d, %d, ... "
                   "(default: %%(default)s)" % (SEED, SEED + 1))
    p.add_argument("--results", type=Path,
                   default=Path("perfbench_pair_results.json"),
                   help="JSON file for every run's result (default: "
                   "%(default)s in the working directory)")
    return p.parse_args(argv)


def main():
    args = parse_args(sys.argv[1:])
    base, head = args.base.resolve(), args.head.resolve()
    results_path = args.results.resolve()
    if base != head:
        shutil.rmtree(base / "perfbench", ignore_errors=True)
        shutil.copytree(head / "perfbench", base / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(head / "BENCHMARK.json", base / "BENCHMARK.json")
    with open(head / "BENCHMARK.json") as f:
        contract = json.load(f)
    workloads = [w["name"] for w in contract["workloads"]]
    seeds = [SEED + i for i in range(args.pairs)]
    log("perfbench pair: %d pairs, seeds %s, %d cores" % (
        args.pairs, seeds, os.cpu_count() or 1))

    runs = []
    with tempfile.TemporaryDirectory(prefix="perfbench_pair_") as tmp:
        sides = {"base": (base, Path(tmp) / "base"),
                 "head": (head, Path(tmp) / "head")}

        def run(side, workload, seed, trace):
            result = run_side(side, *sides[side], workload, seed, trace)
            return record(runs, side, workload, seed, trace, result)

        plain = {s: {w: [] for w in workloads} for s in sides}
        layer = {s: {PAIR_LAYER_WORKLOAD: []} for s in sides}
        try:
            for i, seed in enumerate(seeds):
                order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
                log("pair %d of %d (%s first)" % (i + 1, len(seeds), order[0]))
                for w in workloads:
                    for s in order:
                        plain[s][w].append(run(s, w, seed, 0))
                for s in order:
                    layer[s][PAIR_LAYER_WORKLOAD].append(
                        run(s, PAIR_LAYER_WORKLOAD, seed, 1))
            for w, seed in head_layer_runs(workloads):
                layer["head"].setdefault(w, []).append(run("head", w, seed, 1))
        finally:
            write_results(results_path, base, head, seeds, runs)
            log("perfbench pair: %d run results in %s" % (
                len(runs), results_path))

    failed = report(compare(contract, plain["base"], plain["head"]),
                    layer_checks(layer["base"], layer["head"]), seeds)
    print("perfbench pair: %s" % ("PASS" if failed == 0 else
                                  "FAIL (%d checks)" % failed))
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, RuntimeError, OSError,
            ValueError) as e:
        log("perfbench pair: %s" % e)
        sys.exit(1)
