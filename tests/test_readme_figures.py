"""The `evaluated` figures the README quotes, reproduced by the method it
names: `SolverConfig(seed=1)` on `gen_synthetic(kind, n, default_rng(1))`.
The figures are read from the README itself, so a change to the count or
to the text that lets the two drift apart fails here."""

import os
import re

import numpy as np
import pytest

from submax import SolverConfig, baselines, fastsolve
from submax.objectives import COVERAGE, CUT, FACILITY, gen_synthetic, make_handle

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")

# kind, n, k, eps, solver, and the README phrase that quotes its figures
CASES = {
    "facility": (FACILITY, 1000, 20, 0.25, fastsolve.solve_main,
                 r"`solve_main` evaluates ([\d,]+) of its ([\d,]+) queries at the facility size"),
    "coverage": (COVERAGE, 1000, 100, 0.1, fastsolve.solve_main,
                 r"and ([\d,]+) of ([\d,]+) at the coverage size"),
    "random_greedy": (CUT, 4000, 63, 0.25, baselines.random_greedy,
                      r"samples nothing, evaluates ([\d,]+) of ([\d,]+)"),
}


def quoted(pattern: str) -> tuple[int, int]:
    with open(README, encoding="utf-8") as fh:
        text = " ".join(fh.read().split())
    found = re.search(pattern, text)
    assert found, pattern
    return tuple(int(g.replace(",", "")) for g in found.groups())


@pytest.mark.parametrize("case", CASES)
def test_readme_evaluated_figures(case):
    kind, n, k, eps, solve, pattern = CASES[case]
    h = make_handle(gen_synthetic(kind, n, np.random.default_rng(1)), k)
    solve(h, SolverConfig(k=k, eps=eps, seed=1))
    assert (h.ledger.evaluated, h.ledger.queries) == quoted(pattern)
