"""The benchmark's span tracer wraps public names of submax by hand
(`perfbench/tracer.py`): installing it must replace each one and
uninstalling it must restore the very same object. A rename or deletion
of a wrapped name then fails here instead of in the traced benchmark.

The traced benchmark also checks, per local-search attempt, that the
queries of the swap iterations and the certification sum to
`fastsolve.attempt_query_budget`. It finds the iterations by the oracle
calls that `fast_local_search` makes directly (`marginal_many`,
`removal_losses` and the swap `value`), so a loop that stops making those
calls fails that check, and the same check runs here on a small solve."""

import importlib.util
import os

import numpy as np

from submax import baselines, fastsolve
from submax.config import SolverConfig
from submax.objectives import gen_synthetic, make_handle
from submax.oracle import OracleHandle

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_names(tracer):
    """(owner, attribute) for every name `Tracer.install` replaces."""
    names = [(fastsolve, a) for a in tracer.FASTSOLVE]
    names += [(baselines, a) for a in tracer.BASELINES]
    names += [(OracleHandle, a) for a in (*tracer.ORACLE, "value")]
    names += [(cls, a) for cls in tracer.GATHER_ROWS for a in tracer.EVALUATOR]
    return names


def test_install_replaces_and_uninstall_restores_every_wrapped_name():
    tracer = load_tracer()
    names = wrapped_names(tracer)
    before = [getattr(owner, attr) for owner, attr in names]
    t = tracer.Tracer()
    t.install()
    try:
        during = [getattr(owner, attr) for owner, attr in names]
    finally:
        t.uninstall()
    after = [getattr(owner, attr) for owner, attr in names]
    for (owner, attr), old, new in zip(names, before, during):
        assert new is not old, f"{owner.__name__}.{attr} was not wrapped"
    for (owner, attr), old, back in zip(names, before, after):
        assert back is old, f"{owner.__name__}.{attr} was not restored"


def test_every_local_search_attempt_spends_its_query_budget():
    tracer = load_tracer()
    inst = gen_synthetic("coverage-diversity", 40, np.random.default_rng(7))
    cfg = SolverConfig(k=4, eps=0.1, seed=8)
    handle = make_handle(inst, cfg.k)
    t = tracer.Tracer()
    t.install()
    try:
        with t.root("solve"):
            fastsolve.fast_local_search(handle, cfg)
    finally:
        t.uninstall()
    _, budget = t.per_layer(1, handle.ground.total, cfg.k, cfg.eps)
    assert budget
    for measured, expected in budget:
        assert measured == expected
