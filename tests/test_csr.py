"""Graph-cut instances held as CSR arrays: the container's checks, and the
CSR evaluator and reference formula against the dense pairwise formula
evaluated here from ``data.toarray()``, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submax.csr import CSRMatrix
from submax.errors import ConfigError
from submax.objectives import (
    COVERAGE,
    CUT,
    GraphCutState,
    Instance,
    cut_value,
    gen_synthetic,
)


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


@st.composite
def graphs(draw):
    """A small symmetric weight matrix with a zero diagonal: float weights
    that round in the last bit, or weights in {0, 1, 2} that tie often,
    with some rows left empty."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = rng.integers(0, 3, (n, n)).astype(float) if draw(st.booleans()) else rng.random((n, n))
    mat *= rng.random((n, n)) < draw(st.sampled_from([0.2, 0.6, 1.0]))
    mat = np.triu(mat, 1) + np.triu(mat, 1).T
    empty = rng.random(n) < 0.3
    mat[empty, :] = mat[:, empty] = 0.0
    return mat


class DensePairwise:
    """The dense pairwise formula, written out: in_row is the sum of the
    rows of the ids in order, f the sum of each id's gain when added."""

    def __init__(self, w: np.ndarray, ids: list[int]):
        self.w = w
        self.a = w.sum(axis=1) - 1.0 * np.diag(w)
        self.in_row = np.zeros(len(w))
        self.f = 0.0
        for u in ids:
            self.f += float(self.gain_many(np.array([u]))[0])
            self.in_row = self.in_row + w[u]

    def gain_many(self, us, drop=None):
        base = self.in_row[us]
        if drop is not None:
            base = base - self.w[drop, us]
        return self.a[us] - 2.0 * 1.0 * base


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graphs(), st.data())
def test_csr_state_answers_as_the_dense_formula(w, data):
    n = len(w)
    inst = Instance(kind=CUT, data=w)
    assert isinstance(inst.data, CSRMatrix)
    assert np.array_equal(inst.data.toarray(), w)
    dense = inst.data.toarray()
    assert bits(inst.a) == bits(DensePairwise(dense, []).a)
    state = GraphCutState(inst, depth=data.draw(st.integers(0, n)))
    for _ in range(data.draw(st.integers(1, 6))):
        if data.draw(st.booleans()) and len(state.ids) < n:
            state.add(data.draw(st.sampled_from([u for u in range(n) if u not in state.ids])))
        else:
            state.reset(data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))])
        ref = DensePairwise(dense, state.ids)
        assert bits(state.value()) == bits(ref.f)
        us = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
        drop = data.draw(st.integers(0, n - 1))
        aligned = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=len(us),
                                              max_size=len(us))))
        for d in (None, drop, aligned):
            assert bits(state.gain_many(us, d)) == bits(ref.gain_many(us, d))
        if state.ids:
            vs = np.array(state.ids)
            assert bits(state.loss_many(vs)) == bits(ref.gain_many(vs, vs))
        ids = state.ids or [drop]
        inside = float(dense[np.ix_(ids, ids)].sum())
        assert bits(cut_value(inst, ids)) == bits(float(dense[ids, :].sum()) - inside)


def test_the_scratch_row_is_left_zero():
    inst = gen_synthetic(CUT, 40, np.random.default_rng(3), density=0.5)
    state = GraphCutState(inst, depth=3)
    state.reset([4, 9])
    state.gain_many(np.arange(40), 17)
    assert not state._row.any()


def test_row_sums_span_several_blocks(monkeypatch):
    monkeypatch.setattr("submax.csr.BLOCK", 64)
    w = gen_synthetic(CUT, 50, np.random.default_rng(5), density=0.3).data
    assert bits(w.row_sums()) == bits(w.toarray().sum(axis=1))


def test_dense_and_csr_input_give_the_same_instance():
    dense = gen_synthetic(CUT, 30, np.random.default_rng(6), density=0.4).data.toarray()
    one, two = Instance(kind=CUT, data=dense), Instance(kind=CUT, data=CSRMatrix.from_dense(dense))
    for name in ("indptr", "indices", "weights"):
        assert np.array_equal(getattr(one.data, name), getattr(two.data, name))
    assert bits(one.a) == bits(two.a)
    assert one.data.shape == (30, 30)
    assert one.data.nbytes == 8 * (31 + 2 * len(one.data.weights))


def csr(rows: list[list[tuple[int, float]]]) -> CSRMatrix:
    """A CSR matrix from (column, weight) lists, one per row, as given."""
    indptr = np.cumsum([0] + [len(r) for r in rows])
    return CSRMatrix(indptr, [c for r in rows for c, _ in r], [x for r in rows for _, x in r])


@pytest.mark.parametrize("rows, what", [
    ([[(1, 1.0)], [(0, 2.0)]], "symmetric, but max |d - d.T| = 1"),
    ([[(1, 1.0)], []], "symmetric, but max |d - d.T| = 1"),
    ([[(0, 1.0)], []], "zero diagonal"),
    ([[(1, -1.0)], [(0, -1.0)]], "non-negative"),
    ([[(1, np.nan)], [(0, np.nan)]], "finite"),
    ([[(1, np.inf)], [(0, np.inf)]], "finite"),
    ([], "must not be empty"),
], ids=["asymmetric", "no-mirror", "diagonal", "negative", "nan", "inf", "empty"])
def test_bad_csr_values_are_refused(rows, what):
    with pytest.raises(ConfigError, match=what.replace("|", r"\|")):
        Instance(kind=CUT, data=csr(rows))


@pytest.mark.parametrize("args, what", [
    (([1, 1], [0], [1.0]), "start at 0"),
    (([0, 2, 1], [1, 0], [1.0, 1.0]), "never decrease"),
    (([0, 1], [0, 0], [1.0]), "end at the number"),
    (([0, 1, 1], [2], [1.0]), r"lie in \[0, 2\)"),
    (([0, 2, 2], [1, 1], [1.0, 1.0]), "strictly ascending"),
], ids=["start", "decreasing", "length", "column-range", "repeated-column"])
def test_bad_csr_structure_is_refused(args, what):
    with pytest.raises(ConfigError, match=what):
        CSRMatrix(*args)


def test_a_stored_zero_counts_as_absent():
    inst = Instance(kind=CUT, data=csr([[(1, 0.0), (2, 1.0)], [], [(0, 1.0)]]))
    assert cut_value(inst, [0]) == 1.0


def test_only_graph_cut_takes_csr():
    with pytest.raises(ConfigError, match="needs a dense matrix"):
        Instance(kind=COVERAGE, data=csr([[(1, 1.0)], [(0, 1.0)]]))
