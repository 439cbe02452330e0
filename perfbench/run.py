"""Benchmark of the nskoszul Koszulness pipelines.

    python3 perfbench/run.py --workload grid3 --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the program is imported from ./src.  A run
repeats passes over the workload's case list, one case at a time in this one
process, until --seconds are used up.  Each pass starts with every cache of
the program cleared, as a fresh command-line invocation would, and visits the
cases in an order shuffled by --seed.  Every output is checked (see
workloads.py).  Every time is scaled to a reference speed (calibration.py).

With --trace 0 the last line of standard output reports the end-to-end
metrics: the time to certify every case (each case at its median latency
over the passes), the 90th percentile of those latencies, peak resident
memory after a first pass in the sweep's own case order, and the set-up
time.  With --trace 1 the run
spends half its time on untraced passes and half on traced ones, and reports
the per-layer metrics of the traced passes (medians over passes) and the
tracing overhead.  The line before it records the environment and the run's
details.  The exit code is 1 when any output check failed, 2 when the
program is not found.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from calibration import gauge_seconds, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
MAX_PROBLEMS_SHOWN = 20


def clear_program_caches():
    """Empty every functools cache in the program's modules."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("nskoszul") and mod is not None:
            for value in vars(mod).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def construct_cache_hit_ratio() -> float:
    """Hit ratio of the construction recursion's cache since it was cleared."""
    from nskoszul import construction

    info_fn = getattr(getattr(construction, "_construct", None), "cache_info", None)
    if info_fn is None:
        return 0.0
    info = info_fn()
    total = info.hits + info.misses
    return info.hits / total if total else 0.0


class Pass:
    """One closed-loop pass over the cases, in the given order."""

    def __init__(self, workload, order, tracer=None):
        clear_program_caches()
        gc.collect()
        self.latencies = {}
        self.problems = []
        self.raw_latencies = {}
        gauge = gauge_seconds()
        with tracer or nullcontext():
            for case in order:
                key = workload.key(case)
                start = perf_counter()
                try:
                    out = workload.run(case)
                except Exception:
                    out = None
                    self.problems.append(f"{key}: raised\n{traceback.format_exc()}")
                took = perf_counter() - start
                gauge_after = gauge_seconds()
                self.raw_latencies[key] = took
                self.latencies[key] = scaled(took, gauge, gauge_after)
                if tracer is not None:
                    tracer.end_case(scaled(1.0, gauge, gauge_after))
                gauge = gauge_after
                problem = out is not None and workload.problem(case, out)
                if problem:
                    self.problems.append(problem)
        self.cache_hit_ratio = construct_cache_hit_ratio()
        # the program's time only: checks, gauges and shuffling are left out
        self.wall_s = sum(self.latencies.values())
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_passes(workload, cases, rng, seconds, traced=False):
    """Passes in shuffled order until the next one would overrun `seconds`;
    at least one."""
    from tracing import Tracer

    deadline = perf_counter() + seconds
    passes, tracers, durations = [], [], []
    while True:
        start = perf_counter()
        order = list(cases)
        rng.shuffle(order)
        tracer = Tracer() if traced else None
        passes.append(Pass(workload, order, tracer))
        tracers.append(tracer)
        durations.append(perf_counter() - start)
        if deadline - perf_counter() < statistics.median(durations):
            return passes, tracers


def case_latencies(passes, raw=False) -> list:
    """Each case's median latency over the passes of a run."""
    keys = passes[0].latencies
    return [
        statistics.median((p.raw_latencies if raw else p.latencies)[k] for p in passes)
        for k in keys
    ]


def setup_seconds(workload_name: str) -> float:
    """Median set-up time over fresh interpreters; see setup_probe.py."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload_name],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def environment() -> dict:
    import numpy

    from nskoszul import modp
    from workloads import CHAR

    backend = getattr(modp, "default_backend", None)
    return {
        "rank_backend": backend() if backend else "numpy",
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "char": CHAR,
    }


def median_metrics(tracers, passes) -> dict:
    per_pass = []
    for tracer, p in zip(tracers, passes):
        m = tracer.metrics()
        m["construction.cache_hit_ratio"] = p.cache_hit_ratio
        per_pass.append(m)
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (ROOT / "src" / "nskoszul" / "__init__.py").is_file():
        print(f"perfbench: the program is missing: no {ROOT / 'src' / 'nskoszul'}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    cases = workload.cases()
    workload.golden()
    warm = workload.warmup_case()
    problems = []
    warm_problem = workload.problem(warm, workload.run(warm))
    if warm_problem is not None:
        problems.append(f"warm-up: {warm_problem}")

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    info["environment"] = environment()
    info["cases_per_pass"] = len(cases)
    if args.trace:
        plain, _ = run_passes(workload, cases, rng, args.seconds / 2)
        traced, tracers = run_passes(workload, cases, rng, args.seconds / 2, traced=True)
        passes = plain + traced
        layer = median_metrics(tracers, traced)
        layer["trace_overhead_s"] = sum(case_latencies(traced)) - sum(case_latencies(plain))
        metrics = {k: {"value": v, "unit": per_layer_units(k)} for k, v in layer.items()}
        info["untraced_passes"] = len(plain)
        info["traced_passes"] = len(traced)
    else:
        setup_s = setup_seconds(args.workload)
        start = perf_counter()
        # The first pass takes the cases in the order the sweep runs them, so
        # that its memory high-water mark is what a command-line sweep of
        # these cases needs; in shuffled orders it moves with the allocator's
        # fragmentation, and later passes only add to it.
        first = Pass(workload, cases)
        passes, _ = run_passes(workload, cases, rng, args.seconds - (perf_counter() - start))
        passes.insert(0, first)
        latencies = case_latencies(passes)
        metrics = {
            "wall_s": {"value": sum(latencies), "unit": "s"},
            "case_p90_s": {"value": statistics.quantiles(latencies, n=10)[-1], "unit": "s"},
            "peak_rss_mb": {"value": first.peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        info["passes"] = len(passes)
        info["latency_samples"] = sum(len(p.latencies) for p in passes)
        info["case_median_s"] = statistics.median(latencies)
        info["unscaled_wall_s"] = sum(case_latencies(passes, raw=True))
    info["pass_wall_s"] = [p.wall_s for p in passes]
    info["unscaled_pass_wall_s"] = [sum(p.raw_latencies.values()) for p in passes]

    for p in passes:
        problems.extend(p.problems)
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.problems) for p in passes)
    info["failed_ratio"] = failed / attempted
    for problem in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
