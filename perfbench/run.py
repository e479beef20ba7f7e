#!/usr/bin/env python3
"""WASP benchmark: build the driver, run one workload, check, report.

One invocation (the benchmark contract):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds perfbench/ (and the repo's libraries from src/) into .bench_build,
runs the driver's jobs for the workload, checks the simulated outputs, and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json (a plain run),
--trace 1 the per-layer metrics (a layer run). The line before it holds the
provenance, every check, and each metric's sample count.

Other modes:

    python3 perfbench/run.py --all [--seconds S] [--seed N]
        every workload, plain and layer runs, as a table
    python3 perfbench/run.py --repeat N [--seconds S] [--trace 0|1]
        N interleaved passes over the workloads (seeds N0, N0+1, ...), then
        each metric's median and quartiles per workload
    python3 perfbench/run.py --self-test
        the benchmark's own unit tests
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_contract():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(target="wasp_perfbench"):
    """Configures (once) and builds `target`; returns the build directory."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr)
    return out


def git_sha():
    """HEAD's commit from .git, read directly; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_job(exe, runs_dir, job, workload, seed, seconds):
    cmd = [str(exe), "--job=" + job, "--workload=" + workload,
           "--seed=" + str(seed), "--seconds=" + str(seconds),
           "--out-dir=" + str(runs_dir)]
    # A job overruns --seconds by its last round and its untimed checks.
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(170, 2 * seconds + 60))
    if proc.returncode != 0:
        raise RuntimeError("%s job failed (%d): %s" % (
            job, proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def jobs_for(workload, trace):
    if trace:
        return ["layer"]
    jobs = ["plain"]
    if not workload["traced"]:
        jobs.append("probe")
    if workload["reference"]:
        jobs.append("reference")
    return jobs


def invoke(exe, contract, workloads, name, seed, seconds, trace):
    """Runs one benchmark invocation; returns (result, detail)."""
    w = workloads[name]
    runs_dir = build_dir() / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    # Tracing jobs share the time budget with the measured job.
    out = {job: run_job(exe, runs_dir, job, name, seed,
                        seconds if job in ("plain", "layer") else 0)
           for job in jobs_for(w, trace)}

    checks, attempted, failed = [], 0, 0
    for job, res in out.items():
        attempted += int(res.get("episodes", 1))
        failed += int(res["failed"])
        checks += [dict(c, job=job) for c in res["checks"]]

    main = out["layer" if trace else "plain"]
    metrics = dict(main["metrics"])
    if not trace:
        if "probe" in out:
            probe = out["probe"]
            metrics["trace_bytes_per_tick"] = {
                "value": probe["trace_bytes"] / probe["ticks"],
                "unit": "B/tick", "samples": probe["episodes"]}
        if "reference" in out:
            ref = out["reference"]["digests"]
            own = main["digests"][:len(ref)]
            bad = sum(1 for a, b in zip(own, ref) if a != b)
            if len(own) != len(ref):
                bad = max(bad, 1)
            failed += bad
            checks.append({
                "name": "equals_" + w["reference"], "ok": bad == 0,
                "job": "reference",
                "detail": "%d of %d instances differ from %s over the same "
                          "ticks" % (bad, len(ref), w["reference"])})

    wanted = contract["per_layer" if trace else "end_to_end"]
    reported = {}
    for m in wanted:
        got = metrics.get(m["name"])
        ok = got is not None and got["unit"] == m["unit"]
        if not ok:
            failed += 1
            checks.append({"name": "metric_" + m["name"], "ok": False,
                           "job": "run.py",
                           "detail": "missing or unit differs from "
                                     "BENCHMARK.json"})
            continue
        reported[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    correct = all(c["ok"] for c in checks) and failed == 0
    result = {"correct": correct, "attempted": max(attempted, 1),
              "failed": failed, "metrics": reported}
    detail = {
        "workload": name, "spec": main["spec"], "seed": seed,
        "seconds": seconds, "trace": int(trace),
        "git_sha": git_sha(), "build_type": main["build_type"],
        "compiler": main["compiler"], "nproc": os.cpu_count(),
        "ticks": main["ticks"],
        "samples": {k: v["samples"] for k, v in metrics.items()},
        "checks": checks,
    }
    if trace:
        detail["spans_file"] = main["spans_file"]
        detail["spans_dropped"] = main["spans_dropped"]
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / ("%s-seed%d-trace%d.json" % (name, seed, trace)),
              "w") as f:
        json.dump({"result": result, "detail": detail}, f, indent=1)
    return result, detail


def list_workloads(exe):
    proc = subprocess.run([str(exe), "--list"], capture_output=True,
                          text=True, check=True)
    listing = json.loads(proc.stdout)
    return {w["name"]: dict(w, traced="trace=full" in w["spec"])
            for w in listing["workloads"]}


def print_table(rows, samples, contract_metrics):
    """rows: {workload: {metric: [values]}} -> per-metric spread table;
    samples: {workload: {metric: samples behind the last value}}."""
    for name, per_metric in rows.items():
        print("%s" % name)
        for m in contract_metrics:
            vals = per_metric.get(m["name"], [])
            if not vals:
                continue
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("nan")
                bound = m.get("bound")
                print("  %-36s median %-14.6g q1 %-12.6g q3 %-12.6g "
                      "iqr/median %.4f%s  n=%d %s" % (
                          m["name"], med, q1, q3, spread,
                          "" if bound is None else " (bound %.2f)" % bound,
                          len(vals), m["unit"]))
            else:
                print("  %-36s %-14.6g %-14s samples=%s" % (
                    m["name"], med, m["unit"],
                    samples[name].get(m["name"], "?")))


def repeat_mode(exe, contract, workloads, args):
    traces = [0, 1] if args.all else [args.trace]
    names = [w["name"] for w in contract["workloads"]]
    rows = {(n, t): {} for t in traces for n in names}
    samples = {(n, t): {} for t in traces for n in names}
    all_ok = True
    for i in range(args.repeat):
        for t in traces:
            for n in names:
                seed = args.seed + i
                result, detail = invoke(exe, contract, workloads, n, seed,
                                        args.seconds, t)
                all_ok &= result["correct"]
                bad = [c for c in detail["checks"] if not c["ok"]]
                log("pass %d %s trace=%d seed=%d correct=%s%s" % (
                    i + 1, n, t, seed, result["correct"],
                    "" if not bad else " failed: %s" % bad))
                for k, v in result["metrics"].items():
                    rows[(n, t)].setdefault(k, []).append(v["value"])
                samples[(n, t)].update(detail["samples"])
    for t in traces:
        print("== %s metrics, %d passes, %g s per run" % (
            "per-layer" if t else "end-to-end", args.repeat, args.seconds))
        print_table({n: rows[(n, t)] for n in names},
                    {n: samples[(n, t)] for n in names},
                    contract["per_layer" if t else "end_to_end"])
    return 0 if all_ok else 1


def self_test():
    build()  # the driver-backed tests run the current driver
    out = build("perfbench_test")
    rc = subprocess.run([str(out / "perfbench_test")]).returncode
    rc |= subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                          str(BENCH_DIR / "tests"), "-p", "test_*.py"],
                         cwd=str(ROOT)).returncode
    return 1 if rc else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true",
                   help="every workload, plain and layer runs")
    p.add_argument("--repeat", type=int, default=0,
                   help="interleaved passes over the workloads")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()

    if args.self_test:
        return self_test()
    contract = load_contract()
    if args.seconds is None:
        args.seconds = contract["run_seconds"]
    exe = build() / "wasp_perfbench"
    workloads = list_workloads(exe)
    if args.all or args.repeat:
        args.repeat = max(args.repeat, 1)
        return repeat_mode(exe, contract, workloads, args)
    if args.workload not in workloads:
        log("unknown workload %r; known: %s" % (args.workload,
                                                ", ".join(workloads)))
        return 2
    result, detail = invoke(exe, contract, workloads, args.workload,
                            args.seed, args.seconds, args.trace)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, ValueError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
