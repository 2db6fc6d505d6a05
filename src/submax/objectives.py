"""Application objectives, synthetic instance generators, and the
brute-force optimum oracle.

Three objective families are supported over a shared Instance container:

- coverage-diversity: sum_{u in N} sum_{v in S} s_uv - lam * sum_{u,v in S} s_uv
- facility-diversity: sum_u max_{v in S} s_uv - (1/n) * sum_{u,v in S} s_uv
  (the max over an empty S is 0, which keeps f(0) = 0)
- graph-cut: total weight of edges crossing (S, V \\ S)

Each objective exists twice: as a plain formula evaluator (the functions
below, used as the independent reference in tests and for ledger-free
bookkeeping) and as an incremental state class used by OracleHandle, which
answers marginals from per-element running sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .csr import MAX_N, CSRMatrix
from .errors import ConfigError, EnumerationGuardError, ObjectiveError
from .oracle import OracleHandle, Solution, make_ground_set

COVERAGE = "coverage-diversity"
FACILITY = "facility-diversity"
CUT = "graph-cut"
KINDS = (COVERAGE, FACILITY, CUT)


@dataclass(frozen=True, eq=False)
class Instance:
    """One concrete objective: a kind plus the square matrix backing it.

    For similarity kinds `data` is the dense similarity matrix. For
    graph-cut it is the weight matrix, with zero diagonal, held as a
    `CSRMatrix`: a dense array given here is checked and then converted,
    so no graph-cut path keeps an n x n array. Every kind needs a finite,
    non-negative and exactly symmetric matrix: the incremental states
    count the pair terms m_uv + m_vu as twice the one entry they add to
    `in_row`, and the facility state reads the matrix through its
    transpose. `lam` is only meaningful for coverage-diversity.

    The constants of the pairwise form (see `_PairwiseState`) are built
    here, once per instance, so that every handle (and every forked pool
    worker) shares them: `c`, the pair weight (lam for coverage, 1 for cut,
    1/n for facility), and `a`, the per-element weight with the diagonal
    term folded in, a_u - c * m_uu. Before the fold a_u is the column sum
    for coverage, the row sum for cut and 0 for facility. Coverage sums
    columns and cut sums rows: on a symmetric matrix the two agree only up
    to rounding, and seeded solver outputs depend on the last bit.
    """

    kind: str
    data: np.ndarray | CSRMatrix
    lam: float = 0.75
    c: float = field(init=False)
    a: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown objective kind {self.kind!r}")
        d = self.data
        sparse = isinstance(d, CSRMatrix)
        if sparse and self.kind != CUT:
            raise ConfigError(f"{self.kind} needs a dense matrix")
        if not sparse and (d.ndim != 2 or d.shape[0] != d.shape[1]):
            raise ConfigError(f"matrix must be square, got shape {d.shape}")
        if d.shape[0] == 0:
            raise ConfigError("matrix must not be empty")
        if not (0.0 <= self.lam <= 1.0):
            raise ConfigError(f"lambda must lie in [0, 1], got {self.lam}")
        # min and max propagate nan and expose +-inf without a temporary
        # the size of the matrix; 0.0 stands for the entries CSR leaves out.
        values = d.weights if sparse else d
        lo, hi = values.min(initial=0.0), values.max(initial=0.0)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ConfigError("matrix entries must be finite")
        if lo < 0:
            raise ConfigError("matrix entries must be non-negative")
        worst = d.largest_asymmetry() if sparse else _largest_asymmetry(d)
        if worst > 0:
            raise ConfigError(f"matrix must be symmetric, but max |d - d.T| = {worst:.3g}")
        if self.kind == CUT and np.abs(d.diagonal()).max() > 0:
            raise ConfigError("graph must have a zero diagonal")
        if self.kind == COVERAGE:
            c, a = self.lam, d.sum(axis=0)
        elif self.kind == CUT:
            if not sparse:
                d = CSRMatrix.from_dense(d)
                object.__setattr__(self, "data", d)
            c, a = 1.0, d.row_sums()
        else:
            c, a = 1.0 / d.shape[0], np.zeros(d.shape[0])
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a", a - c * d.diagonal())

    @property
    def n_real(self) -> int:
        return self.data.shape[0]


def _largest_asymmetry(d: np.ndarray) -> float:
    """max |d - d.T|, over blocks of rows of the upper triangle so that no
    temporary holds more than about 2**16 entries."""
    n = d.shape[0]
    step = max(1, (1 << 16) // n)
    worst = 0.0
    for i in range(0, n, step):
        j = min(i + step, n)
        diff = d[i:j, i:] - d[i:, i:j].T
        worst = max(worst, float(np.abs(diff, out=diff).max()))
    return worst


# ---------------------------------------------------------------------------
# Plain formula evaluators (reference route, no incremental state)
# ---------------------------------------------------------------------------


def _ids(sel) -> list[int]:
    return [int(u) for u in sel]


def coverage_diversity_value(inst: Instance, sel) -> float:
    """Coverage minus lam-weighted pairwise similarity, by direct summation."""
    if inst.kind != COVERAGE:
        raise ObjectiveError(f"expected {COVERAGE} instance, got {inst.kind}")
    ids = _ids(sel)
    if not ids:
        return 0.0
    s = inst.data
    cover = float(s[:, ids].sum())
    pair = float(s[np.ix_(ids, ids)].sum())
    return cover - inst.lam * pair


def facility_diversity_value(inst: Instance, sel) -> float:
    """Facility-location coverage with a (1/n)-scaled diversity penalty."""
    if inst.kind != FACILITY:
        raise ObjectiveError(f"expected {FACILITY} instance, got {inst.kind}")
    ids = _ids(sel)
    if not ids:
        return 0.0
    s = inst.data
    cover = float(s[:, ids].max(axis=1).sum())
    pair = float(s[np.ix_(ids, ids)].sum())
    return cover - pair / s.shape[0]


def cut_value(inst: Instance, sel) -> float:
    """Total weight of edges with exactly one endpoint inside the set."""
    if inst.kind != CUT:
        raise ObjectiveError(f"expected {CUT} instance, got {inst.kind}")
    ids = _ids(sel)
    if not ids:
        return 0.0
    # The set's rows, densified as one block: each sum is then the one
    # numpy reduction over the dense rows, w[ids, :] and w[np.ix_(ids, ids)].
    rows = inst.data.rows(ids)
    inside = float(rows[:, ids].sum())
    return float(rows.sum()) - inside


def objective_value(inst: Instance, sel) -> float:
    if inst.kind == COVERAGE:
        return coverage_diversity_value(inst, sel)
    if inst.kind == FACILITY:
        return facility_diversity_value(inst, sel)
    return cut_value(inst, sel)


# ---------------------------------------------------------------------------
# Incremental evaluator states (oracle route)
# ---------------------------------------------------------------------------


class _BaseState:
    """Shared plumbing for the incremental objective states.

    A state is a function of `ids`, the ordered list of real ids it was
    given, and of nothing else. `add(u)` appends one id, `rewind(p)` cuts
    the list back to its first p ids, and `reset(ids)` syncs to any list
    by a rewind to the longest common prefix and adds of the rest. The
    running sums of every position up to `depth` stay as checkpoints, one
    row per position: `add` writes position p + 1 from position p into
    its row, so a rewind to p <= depth only points the live sums at row p,
    in O(1). Past `depth` the sums live in one spill row per array, so the
    checkpoints never exceed (depth + 1) * n entries per array, and a
    rewind past `depth` goes back to the last checkpoint and replays `add`
    from there. `remove(v)` is `reset` of the list without v. Every route
    to one list therefore ends in the same bits.

    Each subclass names its running-sum arrays in `SUMS`, and writes
    `_advance`, which fills position p + 1 of those arrays from the live
    ones, and `gain_many`, which answers from the live sums without
    touching the whole set. Removal losses are `gain_many` with each
    member dropped, so both questions share one formula.
    """

    # name -> (dtype, value in the zero state) of each running-sum array
    SUMS: dict = {}

    def __init__(self, n: int, depth: int):
        self.depth = depth
        # Pages of np.empty rows are touched only when an add reaches them.
        self._marks = [np.empty((depth + 1, n), dtype) for dtype, _ in self.SUMS.values()]
        self._spill = [np.empty(n, dtype) for dtype, _ in self.SUMS.values()]
        for rows, (_, zero) in zip(self._marks, self.SUMS.values()):
            rows[0] = zero
        self._values = [0.0] * (depth + 1)
        self.ids: list[int] = []
        self.rewind(0)

    def value(self) -> float:
        return self.f

    def rewind(self, p: int) -> None:
        """Cut the id list back to its first p ids."""
        if p > self.depth:
            tail = self.ids[self.depth:p]
            self.rewind(self.depth)
            for u in tail:
                self.add(u)
            return
        del self.ids[p:]
        self.f = self._values[p]
        for name, rows in zip(self.SUMS, self._marks):
            setattr(self, name, rows[p])

    def add(self, u: int) -> None:
        p = len(self.ids)
        self.f += float(self.gain_many(np.array([u]))[0])
        if p < self.depth:
            self._values[p + 1] = self.f
            outs = [rows[p + 1] for rows in self._marks]
        else:
            outs = self._spill
        self._advance(u, outs)
        for name, out in zip(self.SUMS, outs):
            setattr(self, name, out)
        self.ids.append(u)

    def reset(self, ids) -> bool:
        """Sync to the ids in the order given: rewind to their longest
        common prefix with the current list, then add the rest. True when
        the list was cut."""
        ids = [int(u) for u in ids]
        p = _common_prefix(self.ids, ids)
        cut = p < len(self.ids)
        if cut:
            self.rewind(p)
        for u in ids[p:]:
            self.add(u)
        return cut

    def remove(self, v: int) -> None:
        # Only perfbench/tracer.py uses this: OracleHandle syncs through `reset`.
        self.reset([u for u in self.ids if u != v])

    def loss_many(self, vs: np.ndarray) -> np.ndarray:
        """f(v_j | S - v_j) for each member v_j: element j drops vs[j]."""
        return self.gain_many(vs, vs)


def _common_prefix(a: list, b: list) -> int:
    """Length of the longest common prefix of two lists."""
    n = min(len(a), len(b))
    if a[:n] == b[:n]:
        return n
    return next(i for i in range(n) if a[i] != b[i])


class _PairwiseState(_BaseState):
    """f(S) = sum_{v in S} a_v - c * sum_{u,v in S} m_uv for a symmetric m.

    `in_row[u]` holds sum_{v in S} m_uv, so the marginal of u against
    S - drop is a_u - c * m_uu - 2c * (in_row[u] - m_{drop,u}). The
    instance holds c and `a` with the diagonal term folded in (see
    `Instance`), so every kind answers by the same formula.
    """

    SUMS = {"in_row": (np.float64, 0.0)}

    def __init__(self, inst: Instance, depth: int | None = None):
        self.s = inst.data
        self.a = inst.a
        self.inst = inst
        super().__init__(inst.n_real, inst.n_real if depth is None else depth)

    def _advance(self, u: int, outs: list) -> None:
        np.add(self.in_row, self.s[u], out=outs[0])

    def _pair_entries(self, drop: int | np.ndarray, us: np.ndarray) -> np.ndarray:
        """m[drop, us]: one row gathered, or pairs when `drop` is aligned with `us`."""
        return self.s[drop, us]

    def gain_many(self, us: np.ndarray, drop: int | np.ndarray | None = None) -> np.ndarray:
        base = self.in_row[us]
        if drop is not None:
            base = base - self._pair_entries(drop, us)
        return self.a[us] - 2.0 * self.inst.c * base


class CoverageDiversityState(_PairwiseState):
    """The pairwise form with c = lam and a_u the column sum of s."""


class GraphCutState(_PairwiseState):
    """cut(S) = sum_{v in S} deg(v) - sum_{u,v in S} w_uv: the pairwise
    form with c = 1 and a zero diagonal, over CSR weights. A row is
    scattered where the dense code added or gathered it; the entries
    left out are zeros, and adding or subtracting 0.0 leaves the
    non-negative running sums unchanged, so the answers keep the bits."""

    def __init__(self, inst: Instance, depth: int | None = None):
        # A dense row of zeros that a scalar drop's row is scattered into
        # and cleared from again.
        self._row = np.zeros(inst.n_real)
        super().__init__(inst, depth)

    def _advance(self, u: int, outs: list) -> None:
        w, out = self.s, outs[0]
        lo, hi = w.indptr[u], w.indptr[u + 1]
        np.copyto(out, self.in_row)
        out[w.indices[lo:hi]] += w.weights[lo:hi]

    def _pair_entries(self, drop: int | np.ndarray, us: np.ndarray) -> np.ndarray:
        w = self.s
        if np.ndim(drop):
            return w.entries(drop, us)
        lo, hi = w.indptr[drop], w.indptr[drop + 1]
        cols = w.indices[lo:hi]
        self._row[cols] = w.weights[lo:hi]
        pair = self._row[us]
        self._row[cols] = 0.0
        return pair


class FacilityDiversityState(_PairwiseState):
    """The cover term sum_r max_{v in S} s_rv plus the pairwise term with
    c = 1/n and a_u = -c * s_uu. It keeps the two largest similarities per
    row so that dropping the current best facility of a row falls back to
    the runner-up.

    Marginals gather whole columns s[:, us], so they read from `cols`, the
    transpose view of s: column-major, and equal to s because s is
    symmetric.
    """

    SUMS = {**_PairwiseState.SUMS, "max1": (np.float64, 0.0), "max2": (np.float64, 0.0),
            "amax": (np.int64, -1)}

    def __init__(self, inst: Instance, depth: int | None = None):
        self.cols = inst.data.T
        super().__init__(inst, depth)

    def gain_many(self, us: np.ndarray, drop: int | np.ndarray | None = None) -> np.ndarray:
        # `eff` is a column, one entry per row, or one column per element
        # when `drop` is an id array aligned with `us`.
        if drop is None:
            eff = self.max1[:, None]
        else:
            eff = np.where(self.amax[:, None] == drop, self.max2[:, None], self.max1[:, None])
        cols = self.cols[:, us]
        cols -= eff
        np.maximum(cols, 0.0, out=cols)
        return cols.sum(axis=0) + super().gain_many(us, drop)

    def _advance(self, u: int, outs: list) -> None:
        # Past the last checkpoint `outs` are the live arrays themselves, so
        # each output is written only after the inputs it still needs.
        super()._advance(u, outs)
        max1, max2, amax = outs[1:]
        col = self.cols[:, u]
        promote = col > self.max1
        np.maximum(self.max2, col, out=max2)
        np.copyto(max2, self.max1, where=promote)
        np.copyto(max1, self.max1)
        np.copyto(max1, col, where=promote)
        np.copyto(amax, self.amax)
        np.copyto(amax, u, where=promote)


def make_evaluator(inst: Instance, depth: int | None = None):
    """Incremental state over `inst` with checkpoints for the first `depth`
    positions (default: every real id)."""
    if inst.kind == COVERAGE:
        return CoverageDiversityState(inst, depth)
    if inst.kind == FACILITY:
        return FacilityDiversityState(inst, depth)
    return GraphCutState(inst, depth)


def make_handle(inst: Instance, k: int) -> OracleHandle:
    """Fresh oracle handle over `inst` with a ground set sized for bound k;
    its evaluator keeps checkpoints for sets of up to k real ids."""
    ground = make_ground_set(inst.n_real, k)
    return OracleHandle(make_evaluator(inst, k), ground)


# ---------------------------------------------------------------------------
# Synthetic instances
# ---------------------------------------------------------------------------

FEATURE_DIM = 25


def gen_synthetic(
    kind: str,
    n: int,
    rng: np.random.Generator,
    density: float = 0.5,
    lam: float = 0.75,
    weight_range: tuple[float, float] = (0.0, 1.0),
) -> Instance:
    """Random instance of the requested kind.

    Graph-cut draws Erdos-Renyi edges with uniform weights; the similarity
    kinds build the Gram matrix of random non-negative feature vectors
    (FEATURE_DIM-dimensional), which keeps all inner products >= 0.
    """
    if kind not in KINDS:
        raise ConfigError(f"unknown objective kind {kind!r}")
    if n < 2:
        raise ConfigError(f"need n >= 2, got {n}")
    lo, hi = weight_range
    if not 0.0 <= lo <= hi < np.inf:  # also False for nan
        raise ConfigError(f"bad weight range {weight_range}")
    if not (0.0 <= density <= 1.0):
        raise ConfigError(f"density must lie in [0, 1], got {density}")
    if not (0.0 <= lam <= 1.0):
        raise ConfigError(f"lambda must lie in [0, 1], got {lam}")
    if kind == CUT:
        try:
            if n > MAX_N:
                raise MemoryError  # row * n + col would not fit in an int64
            data = _random_graph(n, rng, density, lo, hi)
        except (ValueError, MemoryError):
            raise ConfigError(
                f"n={n} needs per-node arrays of {8 * n} bytes, which cannot be allocated"
            ) from None
        return Instance(kind=kind, data=data, lam=lam)
    try:
        feats = rng.random((n, FEATURE_DIM))
        gram = feats @ feats.T
        data = (gram + gram.T) / 2.0
    except (ValueError, MemoryError):
        raise ConfigError(
            f"n={n} needs a dense {n} x {n} matrix of {8 * n * n} bytes, which cannot be allocated"
        ) from None
    return Instance(kind=kind, data=data, lam=lam)


# Uniform draws per chunk of `_random_graph`'s two streams.
DRAW_CHUNK = 1 << 18


def _random_graph(n: int, rng: np.random.Generator, density: float,
                  lo: float, hi: float) -> CSRMatrix:
    """Erdos-Renyi graph on the m node pairs of the upper triangle, row by
    row (the order of triu_indices). The first m uniforms of `rng` decide
    the edges (a pair is one when its draw is below `density`), and the
    next m give the weights, lo + u * (hi - lo). Both streams are drawn in
    chunks and only the edges are kept, so `rng` ends where one draw of m
    and then another would leave it."""
    # Row i's pairs (i, i + 1), ..., (i, n - 1) start at position starts[i].
    rows = np.arange(n)
    starts = rows * (2 * n - 1 - rows) // 2
    m = n * (n - 1) // 2
    chunks = range(0, m, DRAW_CHUNK)
    edges = np.concatenate([np.empty(0, dtype=np.int64)] + [
        np.flatnonzero(rng.random(min(DRAW_CHUNK, m - s)) < density) + s for s in chunks])
    bounds = np.searchsorted(edges, [*chunks, m])
    w = np.empty(len(edges))
    for c, s in enumerate(chunks):
        vals = rng.random(min(DRAW_CHUNK, m - s))[edges[bounds[c]:bounds[c + 1]] - s]
        vals *= hi - lo
        vals += lo
        w[bounds[c]:bounds[c + 1]] = vals
    i = np.searchsorted(starts, edges, side="right") - 1
    return CSRMatrix.symmetric(n, i, edges - starts[i] + i + 1, w)


# ---------------------------------------------------------------------------
# Brute-force optimum
# ---------------------------------------------------------------------------

ENUMERATION_LIMIT = 24


@dataclass
class OptCertificate:
    """Exhaustively verified optimum over all subsets of size <= k."""

    opt_set: Solution
    opt_value: float
    enumerated: int


def brute_force_opt(handle: OracleHandle, k: int) -> OptCertificate:
    """Enumerate every subset of at most k real elements through `handle`.

    Ties are broken toward the lexicographically smallest sorted id tuple,
    so the certificate is deterministic.
    """
    from itertools import combinations

    n = handle.ground.n_real
    if n > ENUMERATION_LIMIT:
        raise EnumerationGuardError(f"n_real={n} exceeds enumeration limit {ENUMERATION_LIMIT}")
    if k < 0:
        raise ConfigError(f"k must be >= 0, got {k}")
    cap = max(k, 1)
    best_ids: tuple = ()
    best_val = handle.value(Solution(cap))
    count = 1
    for size in range(1, min(k, n) + 1):
        for ids in combinations(range(n), size):
            val = handle.value(Solution(cap, ids))
            count += 1
            if val > best_val or (val == best_val and ids < best_ids):
                best_val = val
                best_ids = ids
    return OptCertificate(
        opt_set=Solution(cap, best_ids),
        opt_value=float(best_val),
        enumerated=count,
    )
