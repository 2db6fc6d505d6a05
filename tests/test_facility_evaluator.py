"""Facility-diversity evaluator: property checks of its fast paths against
the per-element and row-major formulas, and agreement of the oracle with
the reference formula on every solver's output."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submax.bench import ALGORITHMS
from submax.config import SolverConfig
from submax.errors import ConfigError
from submax.objectives import (
    FACILITY,
    FacilityDiversityState,
    Instance,
    gen_synthetic,
    make_handle,
    objective_value,
)

# A handful of levels makes ties in the per-row maxima common; the free
# floats make rounding visible, so a change in summation order fails the
# exact comparisons once n exceeds numpy's 8-wide pairwise unroll.
LEVELS = (0.0, 0.25, 0.5, 1.0, 2.0)
CELLS = st.one_of(st.sampled_from(LEVELS), st.floats(0.0, 10.0))


@st.composite
def facility_matrices(draw):
    n = draw(st.integers(2, 20))
    mat = np.array(draw(st.lists(CELLS, min_size=n * n, max_size=n * n))).reshape(n, n)
    zero = draw(st.lists(st.integers(0, n - 1), max_size=n // 2))
    mat = np.triu(mat) + np.triu(mat, 1).T
    mat[:, zero] = 0.0
    mat[zero] = 0.0
    return mat


@st.composite
def walks(draw):
    mat = draw(facility_matrices())
    ids = st.integers(0, mat.shape[0] - 1)
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("add"), ids),
            st.tuples(st.just("remove"), ids),
            st.tuples(st.just("reset"), st.frozensets(ids)),
        ),
        max_size=12,
    ))
    return mat, ops


def row_major_gain(state, us, drop):
    """gain_many as written against the row-major matrix, gathering s[:, us]."""
    s = np.ascontiguousarray(state.s)
    eff = state.max1 if drop is None else np.where(state.amax == drop, state.max2, state.max1)
    cover = np.maximum(s[:, us] - eff[:, None], 0.0).sum(axis=0)
    base = state.in_row[us]
    if drop is not None:
        base = base - s[drop, us]
    # The pairwise term with c = 1/n and the diagonal folded into a.
    c = 1.0 / s.shape[0]
    a = 0.0 - c * np.diag(s)[us]
    return cover + (a - 2.0 * c * base)


def check_state(state):
    n = state.s.shape[0]
    members = sorted(state.ids)
    if members:
        vs = np.array(members)
        one_by_one = np.array([state.gain_many(np.array([v]), v)[0] for v in vs])
        assert np.array_equal(state.loss_many(vs), one_by_one)
    us = np.concatenate([np.arange(n), np.arange(n)[::-1]])
    for drop in [None, *members]:
        assert np.array_equal(state.gain_many(us, drop), row_major_gain(state, us, drop))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(walks())
def test_fast_paths_match_reference_over_walks(walk):
    mat, ops = walk
    state = FacilityDiversityState(Instance(kind=FACILITY, data=mat))
    check_state(state)
    for op, arg in ops:
        if op == "add" and arg not in state.ids:
            state.add(arg)
        elif op == "remove" and arg in state.ids:
            state.remove(arg)
        elif op == "reset":
            state.reset(arg)
        check_state(state)


@pytest.mark.parametrize("block", [None, 2 * 90])
def test_answers_do_not_depend_on_the_batch(block, monkeypatch):
    # With a block of 2 * n entries a batch is cut into pairs of columns.
    if block is not None:
        monkeypatch.setattr("submax.objectives.BLOCK", block)
    n = 90
    state = FacilityDiversityState(gen_synthetic(FACILITY, n, np.random.default_rng(4)), depth=5)
    state.reset([5, 17, 40, 63])
    us = np.random.default_rng(5).permutation(n)
    for drop in (None, 17, np.random.default_rng(6).choice([5, 17, 40, 63], n)):
        full = state.gain_many(us, drop)
        if np.ndim(drop):
            alone = [state.gain_many(us[j:j + 1], drop[j:j + 1])[0] for j in range(n)]
            head = state.gain_many(us[:3], drop[:3])
        else:
            alone = [state.gain_many(us[j:j + 1], drop)[0] for j in range(n)]
            head = state.gain_many(us[:3], drop)
        assert np.array_equal(full, alone)
        assert np.array_equal(full[:3], head)


# Every solver's set must have the same value through the oracle as through
# the reference formula; exact outputs on one facility instance are pinned
# in tests/golden.json. The asymmetric matrix used to be accepted, and the
# oracle then answered another function than the reference formula (for
# fastls, seed 3: 185.0528 against 185.0659). It is now rejected, and its
# symmetric part stands in for it.
MATRICES = {
    "symmetric": gen_synthetic(FACILITY, 200, np.random.default_rng(13)).data,
    "asymmetric": np.random.default_rng(12).random((200, 200)),
}
CASES = [(name, algo, seed) for name in MATRICES for algo in ALGORITHMS for seed in (3, 4)]


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_pinned_solver_outputs(case):
    name, algo, seed = case
    data = MATRICES[name]
    if name == "asymmetric":
        with pytest.raises(ConfigError, match="symmetric"):
            Instance(kind=FACILITY, data=data)
        data = (data + data.T) / 2.0
    inst = Instance(kind=FACILITY, data=data)
    h = make_handle(inst, 8)
    sol, failed = ALGORITHMS[algo](h, SolverConfig(k=8, eps=0.25, seed=seed))
    real = sol.strip_dummies(h.ground)
    assert not failed and 0 < len(real) <= 8
    assert h.value(sol) == pytest.approx(objective_value(inst, real), rel=1e-12, abs=0.0)
