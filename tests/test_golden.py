"""Golden outputs: every algorithm on every objective kind, pinned exactly.

Each entry of `golden.json` holds, for one (kind, algorithm, seed) case at
n=200, k=8, eps=0.25: the sorted real elements of the returned set, `repr`
of the reference-formula value, `repr` of the oracle's own value of the
set, the ledger count the solver spent, and the failure flag. A refactor
that changes any of them changes a seeded result.

Regenerate (only for an intended change of behaviour) with

    PYTHONPATH=src python tests/test_golden.py --write

which prints each case whose entry changed, the names of its changed
fields, and the number of changed cases.
"""

import json
import os
import sys

import numpy as np
import pytest

from submax.bench import ALGORITHMS
from submax.config import SolverConfig
from submax.objectives import COVERAGE, CUT, FACILITY, gen_synthetic, make_handle, objective_value

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
N, K, EPS = 200, 8, 0.25
SEEDS = (3, 4)
INSTANCES = {
    COVERAGE: gen_synthetic(COVERAGE, N, np.random.default_rng(10)),
    FACILITY: gen_synthetic(FACILITY, N, np.random.default_rng(11)),
    CUT: gen_synthetic(CUT, N, np.random.default_rng(12), density=0.1),
}
CASES = [f"{kind}/{algo}/{seed}" for kind in INSTANCES for algo in ALGORITHMS for seed in SEEDS]


def run_case(case: str) -> dict:
    kind, algo, seed = case.split("/")
    inst = INSTANCES[kind]
    h = make_handle(inst, K)
    sol, failed = ALGORITHMS[algo](h, SolverConfig(k=K, eps=EPS, seed=int(seed)))
    queries = h.ledger.queries
    real = sorted(sol.strip_dummies(h.ground))
    return {
        "set": real,
        "reference": repr(objective_value(inst, real)),
        "oracle": repr(h.value(sol)),
        "queries": queries,
        "failed": failed,
    }


def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.replace("/", "-"))
def test_golden(case):
    assert run_case(case) == load_golden()[case]


def write_golden() -> None:
    old = load_golden() if os.path.exists(GOLDEN) else {}
    entries = {case: run_case(case) for case in CASES}
    changed = 0
    for case, entry in entries.items():
        fields = [f for f in entry if old.get(case, {}).get(f) != entry[f]]
        if fields:
            changed += 1
            print(f"{case}: {', '.join(fields)}")
    print(f"{changed}/{len(CASES)} cases changed")
    lines = [f"  {json.dumps(case)}: {json.dumps(entry)}" for case, entry in entries.items()]
    with open(GOLDEN, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    write_golden()
