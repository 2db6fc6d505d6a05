"""A square matrix in compressed sparse row (CSR) form, in numpy alone.

Graph-cut instances keep their weights in this form: O(n + nnz) memory
where the dense matrix takes n^2. Every sum that the dense code took over
a row of the matrix is still taken over that row densified, so the
reductions see the same values in the same layout and give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError

# Entries per dense block of rows that `row_sums` densifies at a time.
BLOCK = 1 << 18

# Largest n whose pair keys row * n + col fit in an int64.
MAX_N = 3_037_000_499


@dataclass(frozen=True, eq=False)
class CSRMatrix:
    """n x n matrix: row i stores the columns ``indices[indptr[i]:indptr[i + 1]]``,
    strictly ascending, and their ``weights``; every other entry is 0.0.

    The constructor checks this structure; `Instance` checks the values.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name, dtype in (("indptr", np.int64), ("indices", np.int64), ("weights", np.float64)):
            object.__setattr__(self, name, np.ascontiguousarray(getattr(self, name), dtype=dtype))
        ptr, cols = self.indptr, self.indices
        if ptr.ndim != 1 or len(ptr) < 1 or ptr[0] != 0 or (np.diff(ptr) < 0).any():
            raise ConfigError("CSR indptr must start at 0 and never decrease")
        if not ptr[-1] == len(cols) == len(self.weights):
            raise ConfigError("CSR indptr must end at the number of indices and weights")
        n = len(ptr) - 1
        if n > MAX_N:
            raise ConfigError(f"n={n} is above the {MAX_N} nodes a CSR matrix can index")
        if len(cols) and (cols.min() < 0 or cols.max() >= n):
            raise ConfigError(f"CSR column indices must lie in [0, {n})")
        if (np.diff(self.keys) <= 0).any():
            raise ConfigError("CSR columns must be strictly ascending in each row")

    @classmethod
    def from_dense(cls, d: np.ndarray) -> CSRMatrix:
        """The nonzero entries of a square array."""
        rows, cols = np.nonzero(d)
        indptr = np.zeros(d.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=d.shape[0]), out=indptr[1:])
        return cls(indptr, cols, d[rows, cols])

    @classmethod
    def symmetric(cls, n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> CSRMatrix:
        """w at (i, j) and at (j, i) for the distinct pairs i < j; zero
        weights are left out."""
        keep = w != 0.0
        i, j, w = i[keep], j[keep], w[keep]
        rows, cols = np.concatenate((i, j)), np.concatenate((j, i))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        order = np.argsort(rows * n + cols)
        return cls(indptr, cols[order], np.concatenate((w, w))[order])

    @property
    def shape(self) -> tuple[int, int]:
        n = len(self.indptr) - 1
        return n, n

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.weights.nbytes

    def entry_rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    @cached_property
    def keys(self) -> np.ndarray:
        """row * n + col of each stored entry, strictly ascending."""
        return self.entry_rows() * self.shape[0] + self.indices

    def rows(self, ids) -> np.ndarray:
        """The rows `ids` as one dense (len(ids), n) array."""
        ids = np.asarray(ids, dtype=np.int64)
        lo, hi = self.indptr[ids], self.indptr[ids + 1]
        counts = hi - lo
        # Positions of every stored entry of those rows, row after row.
        pos = np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
        out = np.zeros((len(ids), self.shape[0]))
        out[np.repeat(np.arange(len(ids)), counts), self.indices[pos]] = self.weights[pos]
        return out

    def toarray(self) -> np.ndarray:
        return self.rows(np.arange(self.shape[0]))

    def diagonal(self) -> np.ndarray:
        n = self.shape[0]
        return self.entries(np.arange(n), np.arange(n))

    def entries(self, rows, cols) -> np.ndarray:
        """The entries at (rows[j], cols[j]), 0.0 where none is stored."""
        keys = self.keys
        want = np.asarray(rows, dtype=np.int64) * self.shape[0] + cols
        if not len(keys):
            return np.zeros(np.shape(want))
        pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        return np.where(keys[pos] == want, self.weights[pos], 0.0)

    def row_sums(self) -> np.ndarray:
        """``toarray().sum(axis=1)`` bit for bit, over blocks of densified
        rows of about BLOCK entries; a row with no stored entry sums to 0.0."""
        n = self.shape[0]
        out = np.zeros(n)
        busy = np.flatnonzero(np.diff(self.indptr))
        step = max(1, BLOCK // n)
        for s in range(0, len(busy), step):
            ids = busy[s:s + step]
            out[ids] = self.rows(ids).sum(axis=1)
        return out

    def largest_asymmetry(self) -> float:
        """max |d - d.T| over the stored entries and their mirrors."""
        if not len(self.weights):
            return 0.0
        mirror = self.entries(self.indices, self.entry_rows())
        return float(np.abs(self.weights - mirror).max())
