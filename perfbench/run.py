"""Benchmark of submax on three fixed workloads.

Run from the repository root:

    python3 perfbench/run.py --workload ls-coverage --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (README.md says why each one was chosen):

    ls-coverage  fastsolve.solve_main on coverage-diversity, n=1000, k=100, eps=0.1
    ls-facility  fastsolve.solve_main on facility-diversity, n=1000, k=20, eps=0.25
    grid-cut     bench.run_experiment over five algorithms on graph-cut,
                 n=4000, density 0.02, k=63, eps=0.25, with two workers
    all          every workload in turn, one subprocess each, as a table

`--seed` makes the instance and the solver seeds; the program only sees the
generated instance. `--trace 0` measures the end-to-end metrics without
instrumentation. `--trace 1` is a separate run that wraps submax's public
functions (see tracer.py) and reports the per-layer metrics. The metric
names and units are the ones listed in BENCHMARK.json at the repository
root. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the exit code is 1 when an
output check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
# The ls-* workloads run in this one process and grid-cut adds two pool
# workers: keep numpy's BLAS from adding threads beyond that.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

try:
    import submax
    from submax import SolverConfig, bench, fastsolve, make_handle
    from submax.objectives import objective_value
except ImportError as exc:
    sys.exit(f"perfbench: cannot import submax from {SRC}: {exc}")
if not os.path.abspath(submax.__file__).startswith(SRC + os.sep):
    sys.exit(f"perfbench: submax was imported from {submax.__file__}, not from {SRC}")

from tracer import Tracer  # noqa: E402  (needs submax on the path)


@dataclass(frozen=True)
class Workload:
    kind: str
    n: int
    k: int
    eps: float
    density: float = 0.5
    algos: tuple = ("main",)
    workers: int = 0  # pool workers of run_experiment; 0 calls solve_main directly


WORKLOADS = {
    "ls-coverage": Workload("coverage-diversity", 1000, 100, 0.1),
    "ls-facility": Workload("facility-diversity", 1000, 20, 0.25),
    "grid-cut": Workload("graph-cut", 4000, 63, 0.25, density=0.02,
                         algos=("main", "randomgreedy", "samplegreedy", "localsearch", "warmup"),
                         workers=2),
}
LAM = 0.75
GRID_REPS = 2        # repetitions per run_experiment call: 10 cells
DISTINCT_SOLVES = 2  # ls-*: solver seeds per run; later solves repeat them
SETUP_PROBES = 5

# Documented query counts per solve: ROADMAP (coverage, k=100) and the
# README's criterion 4 (graph-cut, n=4000, k=63). Differences are reported.
ANCHORS = {
    "ls-coverage": {"main": 3_263_092},
    "grid-cut": {"main": 1_479_705, "randomgreedy": 257_985},
}

SPAN_DIR = os.path.join(HERE, "out")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Set-up and output checks
# ---------------------------------------------------------------------------


def build(w: Workload, seed: int):
    """The instance for `seed`, through the harness's own materialisation."""
    spec = bench.ExperimentSpec(
        instance=bench.SyntheticSpec(kind=w.kind, n=w.n, density=w.density, lam=LAM,
                                     instance_seed=seed),
        algos=list(w.algos), ks=[w.k], eps=w.eps, reps=GRID_REPS, master_seed=seed,
    )
    t0 = time.perf_counter()
    inst = bench.materialize_instance(spec)
    materialize_s = time.perf_counter() - t0
    if not w.workers:
        make_handle(inst, w.k)
    return replace(spec, instance=inst), materialize_s


def setup_seconds(name: str, seed: int) -> float:
    """Median over fresh processes of the time from process start, through
    `import submax`, until the instance is built and a handle is ready."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--probe", "--workload", name,
           "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return statistics.median(times)


class Checker:
    """Output check on every solve. A solve fails when its ids repeat, fall
    outside [0, n) or number more than k, when its reference value is not
    finite and >= 0, or when the same seed gave another result before."""

    def __init__(self, w: Workload):
        self.w = w
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[tuple, list] = {}

    def problem(self, what: str, text: str) -> None:
        """Any failed check; the run is then not correct."""
        self.problems.append(f"{what}: {text}")
        log(f"check failed: {what}: {text}")

    def ids_ok(self, ids: tuple) -> bool:
        """Sorted ids are distinct, lie in [0, n) and number at most k."""
        return (len(set(ids)) == len(ids) and len(ids) <= self.w.k
                and (not ids or (ids[0] >= 0 and ids[-1] < self.w.n)))

    def solve(self, key: tuple, ids, value: float, queries: int) -> None:
        """`ids` is None for pool cells, whose sets stay in the workers."""
        self.attempted += 1
        problem = None if ids is None or self.ids_ok(ids) else f"ids {ids} are not a valid set"
        if problem is None and not (math.isfinite(value) and value >= 0.0):
            problem = f"value {value!r} is not finite and >= 0"
        ref = self.first.setdefault(key, [ids, value, queries])
        if problem is None and (ref[1:] != [value, queries]
                                or None not in (ids, ref[0]) and ids != ref[0]):
            problem = f"seed repeated with another result: {ref} then {[ids, value, queries]}"
        if ref[0] is None:
            ref[0] = ids
        if problem is not None:
            self.failed += 1
            self.problem(str(key), problem)

    def error(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problem(what, traceback.format_exc())


@contextmanager
def scored_sets():
    """Collect the id list of every cell that run_experiment scores in this
    process (the harness scores each cell through `objective_value`)."""
    sets: list[tuple] = []
    original = bench.objective_value

    def scoring(inst, sel):
        sets.append(tuple(sorted(int(u) for u in sel)))
        return original(inst, sel)

    bench.objective_value = scoring
    try:
        yield sets
    finally:
        bench.objective_value = original


def timed_loop(seconds: float, minimum: int, step) -> list[float]:
    """Call step(i) until `minimum` calls are done and one more call, at
    the median length so far, would end after `seconds`. A step that
    returns a false value raised, and ends the loop."""
    t0 = time.perf_counter()
    walls: list[float] = []
    while len(walls) < minimum or time.perf_counter() - t0 + statistics.median(walls) <= seconds:
        s = time.perf_counter()
        if not step(len(walls)):
            break
        walls.append(time.perf_counter() - s)
    return walls


# ---------------------------------------------------------------------------
# The two kinds of workload
# ---------------------------------------------------------------------------


@dataclass
class Solve:
    algo: str
    wall_s: float
    value: float
    queries: int
    ls_failed: bool


class Bench:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.check = Checker(self.w)
        self.spec, self.materialize_s = build(self.w, seed)
        self.inst = self.spec.instance
        self.solves: list[Solve] = []

    # -- ls-*: solve_main in this process ---------------------------------

    def solve_main(self, i: int) -> bool:
        w = self.w
        seed = bench.derive_cell_seed(self.seed, 0, w.k, i % DISTINCT_SOLVES)
        handle = make_handle(self.inst, w.k)
        try:
            t0 = time.perf_counter()
            sol = fastsolve.solve_main(handle, SolverConfig(k=w.k, eps=w.eps, seed=seed))
            wall = time.perf_counter() - t0
            ids = tuple(sorted(sol.elements))
            # The reference formula indexes by id, so score only valid sets.
            value = objective_value(self.inst, list(ids)) if self.check.ids_ok(ids) else math.nan
        except Exception:  # counted as a failed solve; the run goes on
            self.check.error(f"solve_main seed {seed}")
            return False
        # solve_main returns the empty set exactly when every local-search
        # attempt failed certification.
        self.solves.append(Solve("main", wall, value, handle.ledger.queries, not ids))
        self.check.solve(("main", seed), ids, value, handle.ledger.queries)
        return True

    # -- grid-cut: run_experiment -----------------------------------------

    def experiment(self, workers: int) -> list:
        """One run_experiment call; returns its records and adds its cells."""
        try:
            if workers > 1:
                records = bench.run_experiment(self.spec, workers=workers)
                sets = [None] * len(records)
            else:
                with scored_sets() as sets:
                    records = bench.run_experiment(self.spec, workers=1)
        except Exception:
            self.check.error(f"run_experiment workers={workers}")
            return []
        for rec, ids in zip(records, sets):
            self.solves.append(Solve(rec.algo, rec.wall_ms / 1000.0, rec.value, rec.queries,
                                     rec.algo == "main" and rec.failed))
            self.check.solve((rec.algo, rec.seed), ids, rec.value, rec.queries)
        return records

    def step(self, workers: int):
        if self.w.workers:
            return lambda i: self.experiment(workers)
        return self.solve_main

    def report_anchors(self, solves: list[Solve]) -> None:
        for algo, documented in ANCHORS.get(self.name, {}).items():
            counts = [s.queries for s in solves if s.algo == algo]
            if counts:
                mean = statistics.mean(counts)
                log(f"anchor {self.name} {algo}: queries per solve {mean:.1f}, "
                    f"documented {documented}, difference {mean - documented:+.1f}")

    # -- the two runs -----------------------------------------------------

    def end_to_end(self, seconds: float) -> dict | None:
        w = self.w
        if w.workers:
            minimum, exact = 2, len(w.algos) * GRID_REPS  # the first call's cells
        else:
            minimum, exact = DISTINCT_SOLVES + 1, DISTINCT_SOLVES
        walls = timed_loop(seconds, minimum, self.step(w.workers))
        if not self.solves:
            return None
        # Read before the set-up probes start: at this point the pool's
        # workers are this process's only children, and RUSAGE_CHILDREN
        # reports the largest of them.
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        first = self.solves[:exact]
        self.report_anchors(first)
        return {
            "setup_s": setup_seconds(self.name, self.seed),
            "solve_s.p50": statistics.median(s.wall_s for s in self.solves),
            "cells_per_s": len(self.solves) / sum(walls),
            "queries_per_solve": statistics.mean(s.queries for s in first),
            "value_mean": statistics.mean(s.value for s in first),
            "peak_rss_mb": (own + w.workers * child) / 1024.0,
        }

    def traced(self, seconds: float) -> dict | None:
        w = self.w
        t0 = time.perf_counter()
        m = {"bench.materialize_s": self.materialize_s, "bench.dispatch_s": 0.0,
             "bench.dispatch_mb": 0.0, "bench.worker_busy_ratio": 0.0}
        if w.workers:
            t = time.perf_counter()
            cells = self.experiment(w.workers)
            wall = time.perf_counter() - t
            busy = sum(r.wall_ms for r in cells) / 1000.0
            m["bench.dispatch_s"] = wall - busy / w.workers
            # Computed, not measured: each cell ships one pickled instance.
            m["bench.dispatch_mb"] = self.inst.data.nbytes * len(cells) / 1e6
            m["bench.worker_busy_ratio"] = busy / (w.workers * wall)
            self.solves.clear()
            timed_loop(0.0, 1, self.step(1))
        else:
            timed_loop(seconds / 3.0, 1, self.step(1))
        untraced = [s.wall_s for s in self.solves]
        if not untraced:
            return None
        self.solves.clear()
        tracer = Tracer()
        tracer.install()
        try:
            def step(i: int):
                tracer.repeats.forget()
                with tracer.root("solve"):
                    return self.step(1)(i)
            timed_loop(max(seconds - (time.perf_counter() - t0), 0.0), 1, step)
        finally:
            tracer.uninstall()
        if not self.solves:
            return None
        os.makedirs(SPAN_DIR, exist_ok=True)
        tracer.save(os.path.join(SPAN_DIR, f"spans-{self.name}.npz"))
        layers, budget = tracer.per_layer(len(self.solves), w.n + 2 * w.k, w.k, w.eps)
        for i, (measured, expected) in enumerate(budget):
            if measured != expected:
                self.check.problem(f"attempt {i}", f"ls_iter + certify queries {measured} "
                                   f"!= attempt_query_budget {expected}")
        log(f"budget cross-check: {len(budget)} attempts, "
            f"{sum(a == b for a, b in budget)} equal to attempt_query_budget")
        traced_p50 = statistics.median(s.wall_s for s in self.solves)
        mains = [s for s in self.solves if s.algo == "main"]
        m.update(layers)
        m.update({
            "fastsolve.ls_fail_rate": sum(s.ls_failed for s in mains) / len(mains),
            "trace.solve_s.p50": traced_p50,
            "trace.untraced_solve_s.p50": statistics.median(untraced),
            "trace.overhead_s": traced_p50 - statistics.median(untraced),
        })
        return m


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def declared_metrics() -> dict[str, dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    units = declared_metrics()["per_layer" if trace else "end_to_end"]
    b = Bench(name, seed)
    values = b.traced(seconds) if trace else b.end_to_end(seconds)
    if values is None:  # no solve completed, so there is nothing to measure
        print(json.dumps({"correct": False, "attempted": b.check.attempted,
                          "failed": b.check.failed, "metrics": {}}))
        return 1
    if set(values) != set(units):
        differ = sorted(set(values) ^ set(units))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {differ}")
    for metric, unit in units.items():
        print(f"{name:12s} {metric:40s} {values[metric]:>16.6f} {unit}")
    correct = not b.check.problems
    print(json.dumps({
        "correct": correct,
        "attempted": b.check.attempted,
        "failed": b.check.failed,
        # A value made from a failed solve (NaN) is printed as null.
        "metrics": {metric: {"value": values[metric] if math.isfinite(values[metric]) else None,
                             "unit": unit} for metric, unit in units.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; exit 1 if any of them failed."""
    status, summary = 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            status = 1
        summary[name] = json.loads(lines[-1]) if lines else None
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.probe:
        build(WORKLOADS[args.workload], args.seed)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
