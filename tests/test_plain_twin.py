"""Whole solver runs through OracleHandle against a twin without its fast
paths: every algorithm, every kind, a few seeds, and a graph with 0/1
weights whose marginals tie. The twin answers every question with a fresh
`gain_many` over the live ids and sorts `top_marginals` eagerly, so any
difference in a set, a query count or a value bit comes from the memo,
the lazy bounds or the incremental sync."""

import numpy as np
import pytest

from submax.bench import ALGORITHMS
from submax.config import SolverConfig
from submax.objectives import CUT, KINDS, gen_synthetic, make_evaluator
from submax.oracle import OracleHandle, Solution, make_ground_set


class PlainHandle(OracleHandle):
    """OracleHandle with no memo and no bounds: held members and dummies
    answer 0.0, every other id is computed afresh on every question."""

    def _answers(self, us: np.ndarray, sol: Solution, drop: int | None) -> np.ndarray:
        live = np.array([u < self.ground.n_real and (u not in sol or u == drop) for u in us],
                        dtype=bool)
        out = np.zeros(len(us))
        if live.any():
            out[live] = self.objective.gain_many(us[live], drop)
            self.ledger.evaluated += int(live.sum())
        return out

    def _answer(self, u: int, sol: Solution, drop: int | None) -> float:
        return self._answers(np.array([u]), sol, drop).item(0)

    def top_marginals(self, us, sol: Solution, r: int) -> tuple[np.ndarray, np.ndarray]:
        us = self._charged_ids(us, sol)
        gains = self._answers(us, sol, None)
        top = np.lexsort((us, -gains))[:r]
        return top, gains[top]

    def removal_losses(self, sol: Solution) -> np.ndarray:
        self.ledger.charge(len(sol))
        if (sol.serial, sol.version) != self._token:
            self._sync(sol)
        elems = np.array(sol.elements, dtype=np.int64)
        losses = np.zeros(len(elems))
        real = elems < self.ground.n_real
        if real.any():
            losses[real] = self.objective.loss_many(elems[real])
            self.ledger.evaluated += int(real.sum())
        return losses


INSTANCES = {
    **{kind: gen_synthetic(kind, 80, np.random.default_rng(19), density=0.3) for kind in KINDS},
    "cut-0/1": gen_synthetic(CUT, 80, np.random.default_rng(20), density=0.3,
                             weight_range=(1.0, 1.0)),
}


def run(handle_cls, name: str, algo: str, seed: int):
    inst = INSTANCES[name]
    cfg = SolverConfig(k=7, eps=0.25, seed=seed)
    handle = handle_cls(make_evaluator(inst, cfg.k), make_ground_set(inst.n_real, cfg.k))
    sol, failed = ALGORITHMS[algo](handle, cfg)
    queries, evaluated = handle.ledger.queries, handle.ledger.evaluated
    return (sol.elements, queries, repr(handle.value(sol)), failed), evaluated


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(INSTANCES))
@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_a_run_matches_the_plain_twin(algo, name, seed):
    fast, fast_evaluated = run(OracleHandle, name, algo, seed)
    plain, plain_evaluated = run(PlainHandle, name, algo, seed)
    assert fast == plain
    assert fast_evaluated <= plain_evaluated


def test_the_tie_instance_ties():
    w = INSTANCES["cut-0/1"].data.weights
    assert len(w) and (w == 1.0).all()
