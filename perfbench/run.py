#!/usr/bin/env python3
"""Benchmark for pqcent: cold-process passes over three fixed workloads.

    python3 perfbench/run.py --workload suite --seed 0 --seconds 40 --trace 0

Each pass runs in a new interpreter (child.py), one at a time, so every
pass builds fresh algebras and solves cold. Passes are started until the
next one would end past --seconds; at least one always runs. In an
untraced run each pass is preceded by SETUP_PROBES children that stop once
their inputs are ready, so setup_s is a median over several set-ups spread
across the run even when only one pass fits.

--trace 0 reports the end-to-end metrics, each the median over the passes:
  wall_s       the pass's job list, excluding set-up
  cpu_s        user + sys CPU of the same span, from the child's own rusage
  setup_s      interpreter start until the inputs are ready (probes too)
  peak_rss_mb  peak RSS of the pass's process, from wait4's rusage
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (see tracing.py), plus trace.overhead_ratio,
traced over untraced median wall_s.

Every output is checked against known answers (workloads.py). The last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the lines before it print each metric by name with its unit,
the failure ratio, and the Python version, CPU count and commit, which are
also appended with every result to perfbench/out/results.jsonl. The exit
code is 0 when every check passed, 1 when one failed, 2 on a usage error
or when the checkout holds no pqcent source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracing import metric_names

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("suite", "solve_ladder", "structure")
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
# a run must end within 180 s; no pass may outlive this share of it
RUN_LIMIT_S = 170.0
POLL_S = 0.02
SETUP_PROBES = 2


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap the child with wait4 (its own rusage), killing it at `deadline`."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return None, usage
        time.sleep(POLL_S)


def run_pass(workload: str, seed: int, mode: str, deadline: float) -> dict:
    out = os.path.join(OUT, f"pass-{os.getpid()}.json")
    log = os.path.join(OUT, f"{workload}.log")
    if os.path.exists(out):
        os.remove(out)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
           mode, out]
    # fixed hash seed: the same inputs take the same code path in every pass
    env = dict(os.environ, PYTHONHASHSEED="0")
    with open(log, "wb") as log_file:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=log_file, stderr=subprocess.STDOUT)
        try:
            code, usage = _wait(proc, deadline)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    if code != 0 or not os.path.exists(out):
        with open(log, encoding="utf-8", errors="replace") as handle:
            tail = handle.read()[-2000:]
        reason = "timed out" if code is None else f"exited with {code}"
        return {"error": f"{workload} {mode} pass {reason}:\n{tail}"}
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    os.remove(out)
    result["setup_s"] = result.pop("ready") - spawned
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    runs: dict[str, list] = {"setup": [], "plain": [], "traced": [], "errors": []}

    def one(mode: str) -> None:
        result = run_pass(workload, seed, mode, start + RUN_LIMIT_S)
        if "error" in result:
            runs["errors"].append(result["error"])
        else:
            runs[mode].append(result)

    unit = ("plain", "traced") if trace else ("setup",) * SETUP_PROBES + ("plain",)
    unit_times: list[float] = []
    while not runs["errors"]:
        began = time.monotonic()
        for mode in unit:
            one(mode)
        unit_times.append(time.monotonic() - began)
        if time.monotonic() + max(unit_times) > start + seconds:
            break
    return runs


def summarize(workload: str, runs: dict, trace: bool) -> dict:
    passes = runs["plain"] + runs["traced"]
    attempted = sum(p["attempted"] for p in passes) + len(runs["errors"])
    failures = [f for p in passes for f in p["failures"]] + runs["errors"]
    if workload == "suite":
        # the report is byte-identical across passes and with tracing on
        shas = {p["report_sha"] for p in passes}
        attempted += 1
        if len(shas) != 1:
            failures.append(f"suite report differs between passes: {sorted(shas)}")
    metrics = {}
    if not runs["errors"]:
        if trace:
            for name, unit in metric_names():
                metrics[name] = (statistics.median(
                    p["layers"][name] for p in runs["traced"]), unit)
            metrics["trace.overhead_ratio"] = (
                statistics.median(p["wall_s"] for p in runs["traced"])
                / statistics.median(p["wall_s"] for p in runs["plain"]), "ratio")
        else:
            for name, unit in END_TO_END:
                pool = runs["plain"] + (runs["setup"] if name == "setup_s" else [])
                metrics[name] = (statistics.median(p[name] for p in pool), unit)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "pqcent", "__init__.py")):
        print(f"error: no pqcent source under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    trace = bool(args.trace)
    runs = measure(args.workload, args.seed, args.seconds, trace)
    summary = summarize(args.workload, runs, trace)
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": _commit()}
    record = {**meta, **summary, "passes": {
        k: [{m: p[m] for m in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
             if m in p} for p in runs[k]] for k in ("setup", "plain", "traced")}}
    with open(os.path.join(OUT, "results.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")

    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    print(f"passes: {len(runs['plain'])} untraced, {len(runs['traced'])} traced, "
          f"{len(runs['setup'])} set-up only")
    for missing in sorted({m for p in runs["traced"] for m in p["missing"]}):
        print(f"warning: not traced, no such function: {missing}", file=sys.stderr)
    for failure in summary["failures"][:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, metric in summary["metrics"].items():
        print(f"{name:36s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'fail_ratio':36s} {summary['failed'] / summary['attempted']:.6g} "
          f"({summary['failed']}/{summary['attempted']} operations)")
    print(json.dumps({k: summary[k] for k in ("correct", "attempted", "failed",
                                              "metrics")}))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
