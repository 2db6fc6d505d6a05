"""Graph-cut instances held as CSR arrays: the container's checks, and the
CSR evaluator and reference formula, bit for bit against sums over the
stored entries written out here, and against the dense pairwise formula
evaluated from ``data.toarray()`` up to the order of summation."""

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


def stored_row_sums(w: CSRMatrix) -> np.ndarray:
    """Each row's stored weights added one by one, in column order."""
    out = np.zeros(w.shape[0])
    for u in range(w.shape[0]):
        for x in w.weights[w.indptr[u]:w.indptr[u + 1]]:
            out[u] += x
    return out


def stored_cut(w: CSRMatrix, ids: list[int]) -> float:
    """The numpy sums over the stored entries of the rows `ids`, in order:
    all of them, less those whose column is in `ids`."""
    members = set(ids)
    pos = np.array([p for u in ids for p in range(w.indptr[u], w.indptr[u + 1])], dtype=np.int64)
    weights = w.weights[pos]
    inside = np.array([int(c) in members for c in w.indices[pos]], dtype=bool)
    return float(weights.sum()) - float(weights[inside].sum())


def sums_agree(got, want, total, n: int) -> bool:
    """Equal up to the order of summation: summing up to n^2 non-negative
    entries in any order errs by at most n^2 ulps of their total, and `got`
    and `want` are each at most two such sums apart from the exact value."""
    gap = np.abs(np.asarray(got) - np.asarray(want))
    return bool((gap <= 2 * n * n * np.finfo(float).eps * np.asarray(total)).all())


class DensePairwise:
    """The dense pairwise formula, written out: in_row is the sum of the
    rows of the ids in order, f the sum of each id's gain when added. `a`
    defaults to the dense row sums."""

    def __init__(self, w: np.ndarray, ids: list[int], a: np.ndarray | None = None):
        self.w = w
        self.a = (w.sum(axis=1) if a is None else a) - 1.0 * np.diag(w)
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
    a = stored_row_sums(inst.data)
    assert bits(inst.a) == bits(DensePairwise(dense, [], a).a)
    assert sums_agree(inst.a, dense.sum(axis=1), dense.sum(axis=1), n)
    state = GraphCutState(inst, depth=data.draw(st.integers(0, n)))
    for _ in range(data.draw(st.integers(1, 6))):
        if data.draw(st.booleans()) and len(state.ids) < n:
            state.add(data.draw(st.sampled_from([u for u in range(n) if u not in state.ids])))
        else:
            state.reset(data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))])
        ref = DensePairwise(dense, state.ids, a)
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
        assert bits(cut_value(inst, ids)) == bits(stored_cut(inst.data, ids))
        inside, total = float(dense[np.ix_(ids, ids)].sum()), float(dense[ids, :].sum())
        assert sums_agree(cut_value(inst, ids), total - inside, total, n)


def test_the_scratch_row_is_left_zero():
    inst = gen_synthetic(CUT, 40, np.random.default_rng(3), density=0.5)
    state = GraphCutState(inst, depth=3)
    state.reset([4, 9])
    state.gain_many(np.arange(40), 17)
    assert not state._row.any()


def test_row_sums_leave_empty_rows_zero():
    w = csr([[], [(2, 0.1), (3, 0.2), (4, 0.3)], [(1, 0.1)], [(1, 0.2)], [(1, 0.3)], []])
    assert bits(w.row_sums()) == bits([0.0, (0.1 + 0.2) + 0.3, 0.1, 0.2, 0.3, 0.0])
    assert bits(csr([[], []]).row_sums()) == bits([0.0, 0.0])


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
    ([[(1, 1.0)], [(2, 1.0)], [(0, 1.0)]], "symmetric, but max |d - d.T| = 1"),
    ([[(0, 1.0)], []], "zero diagonal"),
    ([[(1, -1.0)], [(0, -1.0)]], "non-negative"),
    ([[(1, np.nan)], [(0, np.nan)]], "finite"),
    ([[(1, np.inf)], [(0, np.inf)]], "finite"),
    ([], "must not be empty"),
], ids=["asymmetric", "no-mirror", "cycle", "diagonal", "negative", "nan", "inf", "empty"])
def test_bad_csr_values_are_refused(rows, what):
    with pytest.raises(ConfigError, match=what.replace("|", r"\|")):
        Instance(kind=CUT, data=csr(rows))


@pytest.mark.parametrize("args, what", [
    (([1, 1], [0], [1.0]), "start at 0"),
    (([0, 2, 1], [1, 0], [1.0, 1.0]), "never decrease"),
    (([0, 1], [0, 0], [1.0]), "end at the number"),
    (([0, 1, 1], [2], [1.0]), r"lie in \[0, 2\)"),
    (([0, 2, 2], [1, 1], [1.0, 1.0]), "strictly ascending"),
    (([0, 1, 3], [1, 1, 0], [1.0, 1.0, 1.0]), "strictly ascending"),
], ids=["start", "decreasing", "length", "column-range", "repeated-column", "descending-column"])
def test_bad_csr_structure_is_refused(args, what):
    with pytest.raises(ConfigError, match=what):
        CSRMatrix(*args)


def test_validation_builds_no_pair_keys():
    dense = gen_synthetic(CUT, 30, np.random.default_rng(8), density=0.4).data.toarray()
    for inst in (gen_synthetic(CUT, 30, np.random.default_rng(8), density=0.4),
                 Instance(kind=CUT, data=dense),
                 Instance(kind=CUT, data=CSRMatrix.from_dense(dense))):
        assert "keys" not in inst.data.__dict__
    inst.data.entries([0], [1])
    assert "keys" in inst.data.__dict__


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 9), st.integers(0, 2**32 - 1), st.booleans())
def test_checks_agree_with_the_pair_keys(n, seed, mirror):
    """The order check, `diagonal` and `largest_asymmetry` answer as the
    row * n + col keys and their lookup do, on any column lists, with or
    without a mirrored pattern."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, n + 1, n)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    cols = np.concatenate([np.sort(rng.choice(n, c, replace=False)) for c in counts] + [np.zeros(0, int)])
    if rng.random() < 0.3 and len(cols) > 1:
        cols = rng.integers(0, n, len(cols))  # columns in any order, repeats allowed
    rows = np.repeat(np.arange(n), counts)
    keys = rows * n + cols
    if (np.diff(keys) <= 0).any():
        with pytest.raises(ConfigError, match="strictly ascending"):
            CSRMatrix(indptr, cols, rng.random(len(cols)))
        return
    if mirror:
        w = rng.integers(0, 3, (n, n)).astype(float) * rng.random((n, n))
        w = CSRMatrix.from_dense(w + w.T)
        if rng.random() < 0.5:  # the same pattern, with values that need not mirror
            w = CSRMatrix(w.indptr, w.indices, w.weights * rng.integers(1, 3, len(w.weights)))
    else:
        w = CSRMatrix(indptr, cols, rng.integers(0, 3, len(cols)).astype(float))
    want = w.entries(np.arange(n), np.arange(n))
    gap = 0.0 if not len(w.weights) else np.abs(w.weights - w.entries(w.indices, w.entry_rows())).max()
    fresh = CSRMatrix(w.indptr, w.indices, w.weights)
    assert bits(fresh.diagonal()) == bits(want)
    assert fresh.largest_asymmetry() == gap


def test_a_stored_zero_counts_as_absent():
    inst = Instance(kind=CUT, data=csr([[(1, 0.0), (2, 1.0)], [], [(0, 1.0)]]))
    assert cut_value(inst, [0]) == 1.0


def test_only_graph_cut_takes_csr():
    with pytest.raises(ConfigError, match="needs a dense matrix"):
        Instance(kind=COVERAGE, data=csr([[(1, 1.0)], [(0, 1.0)]]))
