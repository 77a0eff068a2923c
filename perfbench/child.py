"""One cold pass of a workload: set up, run the job list, check, report.

Started by run.py in a fresh interpreter for every pass, because the solvers
cache results per algebra object for the life of the process; a repeat in
the same process would time cache lookups instead of solves.

    python3 perfbench/child.py WORKLOAD SEED MODE OUT_JSON

MODE is `plain`, `traced` (spans around pqcent's public functions) or
`setup` (stop once the inputs are ready). Writes one JSON object to
OUT_JSON: the monotonic time at which the inputs were ready and, unless
MODE is `setup`, the pass's wall and CPU time, the operations and their
outcomes, and when traced the per-layer figures.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(workload: str, seed: int, mode: str, out_path: str) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pqcent
    if not os.path.abspath(pqcent.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"pqcent imported from {pqcent.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    from tracing import Tracer
    from workloads import WORKLOADS

    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install()
    out_dir = os.path.dirname(out_path)
    state = WORKLOADS[workload](pqcent, seed, out_dir)
    result = {"ready": time.monotonic()}
    if mode == "setup":
        return _write(out_path, result)

    cpu0, t0 = _cpu(), time.perf_counter()
    state.run()
    wall, cpu = time.perf_counter() - t0, _cpu() - cpu0

    result.update(wall_s=wall, cpu_s=cpu)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["missing"] = tracer.missing
        tracer.write(os.path.join(out_dir, f"spans-{workload}-{seed}.jsonl"))
    ops = state.check()
    result["attempted"] = len(ops)
    result["failures"] = [f"{op.name}: {op.detail}" for op in ops if not op.ok]
    result["report_sha"] = getattr(state, "report_sha", None)
    return _write(out_path, result)


def _write(path: str, result: dict) -> int:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    name, seed, mode, out = sys.argv[1:5]
    sys.exit(main(name, int(seed), mode, out))
