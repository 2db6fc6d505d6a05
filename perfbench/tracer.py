"""Span tracer for the benchmark's traced run.

The tracer measures submax from the outside. It replaces public functions
and methods with wrappers that record one span per call:

- fastsolve: the solver phases (`init_solution`, `fast_local_search`,
  `check_local_opt_condition`, `guided_stochastic_greedy`);
- baselines: the five public solvers;
- OracleHandle: `marginal_many`, `removal_losses`, `value`, `marginal`;
- each evaluator state class: `gain_many`, `loss_many`, `add`, `remove`,
  `reset`.

A span is (name, start, end, parent, count). `count` is the number of
ledger queries the call spent for solver and oracle spans, and the number
of elements handled for evaluator spans. Spans live in flat arrays in
memory and are written out once, by `save`. A span's self time is its
duration minus the durations of its direct children; calls are sequential
in one thread, so children never overlap.

`OracleHandle.value` gets two span names: `oracle.value_swap` when a drop
or add element is given (the swap evaluation of a local-search iteration)
and `oracle.value` otherwise. Both are reported together as `oracle.value`.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

from submax import baselines, fastsolve, objectives
from submax.config import iteration_count
from submax.oracle import OracleHandle

FASTSOLVE = ("init_solution", "fast_local_search", "check_local_opt_condition",
             "guided_stochastic_greedy")
BASELINES = ("random_greedy", "sample_greedy", "local_search", "guided_random_greedy",
             "warmup_solve")
ORACLE = ("marginal_many", "removal_losses", "marginal")
EVALUATOR = ("gain_many", "loss_many", "add", "remove", "reset")

# Rows of 8-byte values gathered per element by `gain_many`, before the
# extra row `s[drop, us]` that a drop element adds. Facility gathers a full
# column `s[:, us]` per element; the other two gather per-element vectors.
GATHER_ROWS = {
    objectives.CoverageDiversityState: lambda state: 3,   # col, in_row, diag
    objectives.GraphCutState: lambda state: 2,            # total_row, in_row
    objectives.FacilityDiversityState: lambda state: state.s.shape[0] + 2,  # s[:, us], in_row, diag
}


class RepeatCounter:
    """Counts element queries already asked against the same
    (Solution.serial, Solution.version, drop).

    A Solution's version only grows, so once it changes the older keys of
    that serial can never be asked again and are dropped. Removal losses
    f(v | S - v) are kept under the drop key "self".
    """

    def __init__(self):
        self._seen: dict[int, tuple[int, dict]] = {}
        self.asked = 0
        self.repeated = 0

    def record(self, us, sol, drop, n_total: int) -> None:
        entry = self._seen.get(sol.serial)
        if entry is None or entry[0] != sol.version:
            entry = (sol.version, {})
            self._seen[sol.serial] = entry
        seen = entry[1].get(drop)
        if seen is None:
            seen = entry[1][drop] = np.zeros(n_total, dtype=bool)
        us = np.asarray(us, dtype=np.int64)
        self.asked += len(us)
        self.repeated += int(seen[us].sum())
        seen[us] = True

    def forget(self) -> None:
        """Start a new solve: Solutions of earlier solves are not asked again."""
        self._seen.clear()


class Tracer:
    def __init__(self):
        self.table: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("h")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self.current = -1
        self.certified: dict[int, bool] = {}
        self.gathered_bytes = 0
        self.repeats = RepeatCounter()
        self._undo: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.table)
            self.table.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.current)
        self.end.append(0.0)
        self.count.append(0)
        self.current = i
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int, count: int) -> None:
        self.end[i] = time.perf_counter()
        self.count[i] = count
        self.current = self.parent[i]

    @contextmanager
    def root(self, name: str):
        """Span opened by the benchmark itself around one solve or one call."""
        i = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(i, 0)

    # -- wrappers ---------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, wrapper)

    def _ledger_span(self, name: str, fn, on_result=None):
        """Wrapper for a callable whose first argument is an OracleHandle."""
        nid = self._intern(name)
        tr = self

        def traced(handle, *args, **kwargs):
            i = tr._open(nid)
            q0 = handle.ledger.queries
            try:
                result = fn(handle, *args, **kwargs)
                if on_result is not None:
                    on_result(i, result)
                return result
            finally:
                tr._close(i, handle.ledger.queries - q0)

        return traced

    def _oracle_span(self, attr: str, fn):
        """OracleHandle method wrapper that also feeds the repeat counter."""
        nid = self._intern(f"oracle.{attr}")
        tr = self

        def traced(handle, *args, **kwargs):
            if attr == "removal_losses":
                sol = args[0]
                tr.repeats.record(sol.elements, sol, "self", handle.ground.total)
            else:
                us, sol = args[0], args[1]
                drop = args[2] if len(args) > 2 else kwargs.get("drop")
                tr.repeats.record(np.atleast_1d(us), sol, drop, handle.ground.total)
            i = tr._open(nid)
            q0 = handle.ledger.queries
            try:
                return fn(handle, *args, **kwargs)
            finally:
                tr._close(i, handle.ledger.queries - q0)

        return traced

    def _value_span(self, fn):
        plain, swap = self._intern("oracle.value"), self._intern("oracle.value_swap")
        tr = self

        def traced(handle, sol, drop=None, add=None):
            i = tr._open(plain if drop is None and add is None else swap)
            q0 = handle.ledger.queries
            try:
                return fn(handle, sol, drop, add)
            finally:
                tr._close(i, handle.ledger.queries - q0)

        return traced

    def _sized_span(self, cls, attr: str, fn):
        """Evaluator method wrapper; the span counts the elements handled."""
        nid = self._intern(f"objectives.{attr}")
        tr = self
        rows = GATHER_ROWS[cls]

        def traced(state, *args, **kwargs):
            if attr in ("add", "remove"):
                size = 1
            else:
                size = len(args[0])
            if attr == "gain_many":
                drop = args[1] if len(args) > 1 else kwargs.get("drop")
                tr.gathered_bytes += 8 * size * (rows(state) + (drop is not None))
            i = tr._open(nid)
            try:
                return fn(state, *args, **kwargs)
            finally:
                tr._close(i, size)

        return traced

    def install(self) -> None:
        for attr in FASTSOLVE:
            on_result = self._certified if attr == "check_local_opt_condition" else None
            fn = getattr(fastsolve, attr)
            self._patch(fastsolve, attr, self._ledger_span(f"fastsolve.{attr}", fn, on_result))
        for attr in BASELINES:
            fn = getattr(baselines, attr)
            self._patch(baselines, attr, self._ledger_span(f"baselines.{attr}", fn))
        for attr in ORACLE:
            self._patch(OracleHandle, attr, self._oracle_span(attr, getattr(OracleHandle, attr)))
        self._patch(OracleHandle, "value", self._value_span(OracleHandle.value))
        for cls in GATHER_ROWS:
            for attr in EVALUATOR:
                self._patch(cls, attr, self._sized_span(cls, attr, getattr(cls, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)  # the attribute was inherited
            else:
                setattr(owner, attr, original)

    def _certified(self, i: int, report) -> None:
        self.certified[i] = bool(report.satisfied)

    # -- output -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.table),
            "name": np.frombuffer(self.name, dtype=np.int16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "count": np.frombuffer(self.count, dtype=np.int64).copy(),
        }

    def save(self, path: str) -> None:
        """Write every span to one .npz file (arrays as in `arrays`)."""
        np.savez(path, **self.arrays())

    def per_layer(self, solves: int, n_total: int, k: int, eps: float):
        """Per-layer metrics averaged per solve, and the per-attempt budget
        cross-check as a list of (measured, expected) query counts.

        Oracle and evaluator figures are per solve. `fastsolve.init`,
        `certify` and `guided` are per call, `fastsolve.ls_iter` is per
        local-search attempt, and `baselines.*` are per call.
        """
        a = self.arrays()
        name, parent, count = a["name"].astype(np.int64), a["parent"], a["count"]
        dur = a["end"] - a["start"]
        t = len(self.table)
        has_parent = parent >= 0
        children_s = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = dur - children_s
        calls = np.bincount(name, minlength=t)
        counts = np.bincount(name, weights=count, minlength=t)
        selfs = np.bincount(name, weights=self_s, minlength=t)
        incl = np.bincount(name, weights=dur, minlength=t)
        parent_name = np.full(len(dur), -1)
        parent_name[has_parent] = name[parent[has_parent]]

        def ids(*names):
            return [self._ids[x] for x in names if x in self._ids]

        def total(arr, *names):
            return float(sum(arr[i] for i in ids(*names)))

        def per(num, den):
            return num / den if den else 0.0

        oracle_names = ("oracle.marginal_many", "oracle.removal_losses", "oracle.marginal",
                        "oracle.value", "oracle.value_swap")
        under_oracle = np.isin(parent_name, ids(*oracle_names))
        m: dict[str, float] = {}
        for meth in ("marginal_many", "removal_losses", "value"):
            group = [f"oracle.{meth}"] + (["oracle.value_swap"] if meth == "value" else [])
            m[f"oracle.{meth}.calls"] = total(calls, *group) / solves
            m[f"oracle.{meth}.queries"] = total(counts, *group) / solves
            m[f"oracle.{meth}.self_s"] = total(selfs, *group) / solves
        oracle_queries = total(counts, *oracle_names)
        m["oracle.self_s"] = total(selfs, *oracle_names) / solves
        m["oracle.us_per_query"] = per(total(incl, *oracle_names), oracle_queries) * 1e6
        m["oracle.batch_mean"] = per(oracle_queries, total(calls, *oracle_names))
        m["oracle.repeat_query_ratio"] = per(self.repeats.repeated, self.repeats.asked)

        for meth in ("gain_many", "loss_many"):
            m[f"objectives.{meth}.calls"] = total(calls, f"objectives.{meth}") / solves
            m[f"objectives.{meth}.elements"] = total(counts, f"objectives.{meth}") / solves
            m[f"objectives.{meth}.self_s"] = total(selfs, f"objectives.{meth}") / solves
        asked = np.isin(name, ids("objectives.gain_many", "objectives.loss_many")) & under_oracle
        m["objectives.ns_per_element"] = per(
            total(selfs, "objectives.gain_many", "objectives.loss_many"), count[asked].sum()) * 1e9
        m["objectives.gain_many.mb_computed"] = self.gathered_bytes / 1e6 / solves
        syncing = np.isin(name, ids("objectives.reset", "objectives.add", "objectives.remove"))
        m["objectives.sync_s"] = float(dur[syncing & under_oracle].sum()) / solves
        m["objectives.reset.calls"] = total(calls, "objectives.reset") / solves
        m["objectives.incremental.calls"] = (
            total(calls, "objectives.add", "objectives.remove") / solves)

        for phase, fn in (("init", "init_solution"), ("certify", "check_local_opt_condition"),
                          ("guided", "guided_stochastic_greedy")):
            n_calls = total(calls, f"fastsolve.{fn}")
            m[f"fastsolve.{phase}.s"] = per(total(incl, f"fastsolve.{fn}"), n_calls)
            m[f"fastsolve.{phase}.queries"] = per(total(counts, f"fastsolve.{fn}"), n_calls)
        budget = self._ls_iter(m, name, parent, dur, count, n_total, k, eps)
        m["fastsolve.certify.pass_ratio"] = per(sum(self.certified.values()), len(self.certified))

        for fn in BASELINES:
            n_calls = total(calls, f"baselines.{fn}")
            m[f"baselines.{fn}.s"] = per(total(incl, f"baselines.{fn}"), n_calls)
            m[f"baselines.{fn}.queries"] = per(total(counts, f"baselines.{fn}"), n_calls)
        return m, budget

    def _ls_iter(self, m, name, parent, dur, count, n_total, k, eps):
        """The swap iterations of `fast_local_search`: its own time plus its
        direct marginal_many, removal_losses and swap-value calls, per
        attempt. An attempt ends at its certification call; the sum of the
        two must equal `fastsolve.attempt_query_budget`."""
        iteration = [self._ids[x] for x in
                     ("oracle.marginal_many", "oracle.removal_losses", "oracle.value_swap")
                     if x in self._ids]
        certify = self._ids.get("fastsolve.check_local_opt_condition", -1)
        expected = fastsolve.attempt_query_budget(n_total, k, iteration_count(k, eps))
        budget, iter_s, iter_q = [], 0.0, 0
        for f in np.flatnonzero(name == self._ids.get("fastsolve.fast_local_search", -1)):
            kids = np.flatnonzero(parent == f)
            is_iter = np.isin(name[kids], iteration)
            iter_s += dur[f] - dur[kids[~is_iter]].sum()
            spent = np.where(is_iter, count[kids], 0).cumsum()
            before = 0
            for end in np.flatnonzero(name[kids] == certify):
                attempt = int(spent[end]) - before
                before = int(spent[end])
                budget.append((attempt + int(count[kids[end]]), expected))
                iter_q += attempt
        attempts = len(budget)
        m["fastsolve.ls_iter.s"] = iter_s / attempts if attempts else 0.0
        m["fastsolve.ls_iter.queries"] = iter_q / attempts if attempts else 0.0
        return budget
