"""Facility-diversity evaluator: property checks of its fast paths against
the per-element and row-major formulas, and seeded pins of every solver on
facility instances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submax.bench import ALGORITHMS
from submax.config import SolverConfig
from submax.objectives import (
    FACILITY,
    FacilityDiversityState,
    Instance,
    gen_synthetic,
    make_handle,
    objective_value,
)
from submax.oracle import RngStream

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
    if draw(st.booleans()):
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
    return cover - state.inv_n * (2.0 * base + state.diag[us])


def check_state(state):
    n = state.s.shape[0]
    members = sorted(state.members)
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
        if op == "add" and arg not in state.members:
            state.add(arg)
        elif op == "remove" and arg in state.members:
            state.remove(arg)
        elif op == "reset":
            state.reset(arg)
        check_state(state)


def test_column_layout():
    sym = gen_synthetic(FACILITY, 12, RngStream.from_seed(0))
    state = FacilityDiversityState(sym)
    assert np.shares_memory(state.cols, sym.data)
    assert state.cols.flags["F_CONTIGUOUS"]
    asym = Instance(kind=FACILITY, data=RngStream.from_seed(1).random((12, 12)))
    state = FacilityDiversityState(asym)
    assert not np.shares_memory(state.cols, asym.data)
    assert state.cols.flags["F_CONTIGUOUS"]
    assert np.array_equal(state.cols, asym.data)


# Sorted set, repr of the reference value, ledger count and repr of the
# oracle's own value of the returned set, per (instance, algorithm, seed),
# with k=8 and eps=0.25. The oracle value differs from the reference on the
# asymmetric instance because the evaluators' diversity term is written for
# symmetric similarities.
PINNED = {
    ('symmetric', 'main', 3): ((49, 68, 89, 109, 141, 168, 182, 187), '1666.925503874808', 34456, '1666.925503874808'),
    ('symmetric', 'main', 4): ((49, 68, 89, 109, 141, 168, 182, 187), '1666.925503874808', 34456, '1666.925503874808'),
    ('symmetric', 'warmup', 3): ((7, 66, 68, 89, 109, 141, 187, 194), '1657.468657093697', 6630, '1657.468657093697'),
    ('symmetric', 'warmup', 4): ((49, 68, 89, 109, 141, 164, 182, 187), '1663.5264899754716', 6630, '1663.5264899754716'),
    ('symmetric', 'localsearch', 3): ((7, 66, 68, 89, 109, 141, 187, 194), '1657.468657093697', 4952, '1657.468657093697'),
    ('symmetric', 'localsearch', 4): ((49, 68, 89, 109, 141, 164, 182, 187), '1663.5264899754716', 4952, '1663.5264899754716'),
    ('symmetric', 'fastls', 3): ((49, 68, 89, 109, 141, 168, 182, 187), '1666.925503874808', 32778, '1666.9255038748083'),
    ('symmetric', 'fastls', 4): ((49, 68, 89, 109, 141, 168, 182, 187), '1666.925503874808', 32778, '1666.925503874808'),
    ('symmetric', 'randomgreedy', 3): ((20, 89, 90, 109, 123, 168, 182, 187), '1657.7932345650318', 1700, '1657.7932345650313'),
    ('symmetric', 'randomgreedy', 4): ((7, 49, 66, 68, 89, 111, 162, 187), '1647.297009467065', 1700, '1647.2970094670648'),
    ('symmetric', 'samplegreedy', 3): ((49, 68, 89, 109, 141, 164, 169, 182), '1647.8164597729674', 1700, '1647.8164597729676'),
    ('symmetric', 'samplegreedy', 4): ((38, 49, 66, 68, 89, 90, 141, 168), '1648.3589873189535', 1700, '1648.3589873189537'),
    ('symmetric', 'guidedrg', 3): ((49, 66, 89, 90, 162, 169, 182, 187), '1649.511274250645', 6628, '1649.511274250645'),
    ('symmetric', 'guidedrg', 4): ((7, 66, 85, 90, 111, 162, 168, 187), '1637.9411348812046', 6628, '1637.9411348812048'),
    ('symmetric', 'guidedsg', 3): ((49, 89, 90, 109, 162, 164, 182, 194), '1637.859022087156', 34454, '1637.8590220871558'),
    ('symmetric', 'guidedsg', 4): ((38, 49, 66, 111, 141, 169, 182, 194), '1635.444712215108', 34454, '1635.4447122151075'),
    ('asymmetric', 'main', 3): ((0, 26, 46, 47, 77, 81, 154, 165), '185.06594277663785', 34456, '185.06594277663785'),
    ('asymmetric', 'main', 4): ((26, 48, 62, 67, 89, 102, 139, 192), '184.45336539401694', 34456, '184.45336539401694'),
    ('asymmetric', 'warmup', 3): ((25, 47, 77, 81, 102, 110, 116, 165), '183.85247756102083', 6630, '183.85247756102083'),
    ('asymmetric', 'warmup', 4): ((36, 48, 62, 65, 67, 89, 102, 147), '183.41909679202473', 6630, '183.41909679202473'),
    ('asymmetric', 'localsearch', 3): ((25, 47, 77, 81, 102, 110, 116, 165), '183.85247756102083', 4952, '183.85247756102083'),
    ('asymmetric', 'localsearch', 4): ((36, 48, 62, 65, 67, 89, 102, 147), '183.41909679202473', 4952, '183.41909679202473'),
    ('asymmetric', 'fastls', 3): ((0, 26, 46, 47, 77, 81, 154, 165), '185.06594277663785', 32778, '185.05282069884547'),
    ('asymmetric', 'fastls', 4): ((26, 48, 62, 67, 89, 102, 139, 192), '184.45336539401694', 32778, '184.45052909158767'),
    ('asymmetric', 'randomgreedy', 3): ((14, 36, 46, 84, 96, 132, 145, 162), '182.7373652243861', 1700, '182.74493241909119'),
    ('asymmetric', 'randomgreedy', 4): ((55, 81, 137, 154, 165, 169, 189, 196), '183.22765149110862', 1700, '183.22906056324786'),
    ('asymmetric', 'samplegreedy', 3): ((25, 26, 46, 47, 89, 165, 195, 199), '184.1931765272216', 1700, '184.19203785622864'),
    ('asymmetric', 'samplegreedy', 4): ((25, 27, 47, 72, 103, 137, 145, 192), '182.7575570563523', 1700, '182.76452909136555'),
    ('asymmetric', 'guidedrg', 3): ((17, 25, 77, 98, 113, 147, 152, 191), '183.44125799334532', 6628, '183.4308547077984'),
    ('asymmetric', 'guidedrg', 4): ((21, 61, 77, 134, 145, 160, 195, 197), '182.8335867461188', 6628, '182.82395789012304'),
    ('asymmetric', 'guidedsg', 3): ((54, 98, 103, 118, 137, 147, 169, 192), '183.8249177790238', 34454, '183.81868580475208'),
    ('asymmetric', 'guidedsg', 4): ((27, 46, 59, 63, 65, 77, 165, 196), '183.57899731212808', 34454, '183.5875863172276'),
}

INSTANCES = {
    "symmetric": gen_synthetic(FACILITY, 200, RngStream.from_seed(11)),
    "asymmetric": Instance(kind=FACILITY, data=RngStream.from_seed(12).random((200, 200))),
}


@pytest.mark.parametrize("case", sorted(PINNED), ids=lambda c: "-".join(map(str, c)))
def test_pinned_solver_outputs(case):
    name, algo, seed = case
    inst = INSTANCES[name]
    cfg = SolverConfig(k=8, eps=0.25, seed=seed)
    h = make_handle(inst, cfg.k)
    sol, _failed = ALGORITHMS[algo](h, cfg)
    real = tuple(sorted(sol.strip_dummies(h.ground)))
    got = (real, repr(objective_value(inst, real)), h.ledger.queries, repr(h.value(sol)))
    assert got == PINNED[case]
