"""Ground set with dummy elements, evaluation surface, and query accounting.

Every solver in this package talks to the objective exclusively through an
OracleHandle. The handle strips dummy elements before the objective ever
sees a set, counts one query per value-or-marginal invocation (batched
calls count once per element), and answers swap-local variants of a set
(drop one element, add one element) without mutating evaluator state, so
the local-search inner loops stay cheap.

While the set it last synced is unchanged (same `Solution` serial and
version), the handle remembers its answers: the marginals f(u | S), the
marginals f(u | S - v) for the most recent real drop v, and the removal
losses. A repeated question is answered from that memo and only new ones
reach the evaluator. `QueryLedger.queries` stays the logical count, one
per element asked whether or not it was remembered, so query budgets do
not depend on the memo; `QueryLedger.evaluated` counts the element
answers the evaluator actually computed.

Greedy stages ask only for the top r marginals of a batch
(`top_marginals`). Within one greedy run the set only grows, so under
submodularity every plain marginal the handle computed is an upper bound
on the current one, also for a non-monotone f. The handle keeps these
bounds across appends and drops them when the evaluator is rewound, and
evaluates only the candidates whose bound, widened by `BOUND_SLACK`, can
still reach the top r (the lazy greedy of Minoux 1978). The answer and
the query charge are those of `marginal_many` followed by a sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

import numpy as np

from .errors import ConstraintError, ElementError, SubmaxError

# Relative widening of a stale upper bound before it is compared with a
# fresh answer, so that a rounding error in a running sum cannot hide a
# candidate. A fresh answer above its widened bound means f is not
# submodular; `top_marginals` then evaluates every candidate.
BOUND_SLACK = 1e-9


def widen(bounds: np.ndarray) -> np.ndarray:
    """Stale bounds plus BOUND_SLACK of their magnitude; inf stays inf."""
    return bounds + BOUND_SLACK * np.abs(bounds)


@dataclass(frozen=True)
class GroundSet:
    """Dense id space [0, n_real + n_dummy); dummies occupy the suffix."""

    n_real: int
    n_dummy: int

    @property
    def total(self) -> int:
        return self.n_real + self.n_dummy

    def dummy_ids(self):
        return range(self.n_real, self.total)

    def check_id(self, u: int) -> None:
        if not 0 <= u < self.total:
            raise ElementError(f"element id {u} outside [0, {self.total})")


def make_ground_set(n_real: int, k: int) -> GroundSet:
    """Ground set for a cardinality bound k, with exactly 2k dummies appended."""
    if n_real < 1:
        raise ConstraintError(f"need at least one real element, got {n_real}")
    if k < 1 or k > n_real:
        raise ConstraintError(f"k={k} outside [1, {n_real}]")
    return GroundSet(n_real=n_real, n_dummy=2 * k)


class Solution:
    """Duplicate-free ordered subset of element ids with a capacity bound.

    Each instance carries a process-unique serial, and mutations bump a
    version counter, so oracle handles can detect "same set as the last
    query" in O(1) without being fooled by recycled object addresses.
    """

    __slots__ = ("capacity", "elements", "_members", "version", "serial")

    _serials = count()

    def __init__(self, capacity: int, elements=()):
        self.capacity = capacity
        self.elements: list[int] = []
        self._members: set[int] = set()
        self.version = 0
        self.serial = next(Solution._serials)
        for u in elements:
            self.add(u)

    def add(self, u: int) -> None:
        u = int(u)
        if u in self._members:
            raise SubmaxError(f"duplicate element {u}")
        if len(self.elements) >= self.capacity:
            raise SubmaxError(f"solution already at capacity {self.capacity}")
        self.elements.append(u)
        self._members.add(u)
        self.version += 1

    def remove(self, u: int) -> None:
        u = int(u)
        if u not in self._members:
            raise SubmaxError(f"element {u} not in solution")
        self.elements.remove(u)
        self._members.discard(u)
        self.version += 1

    def __contains__(self, u) -> bool:
        return u in self._members

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def copy(self) -> "Solution":
        out = Solution.__new__(Solution)
        out.capacity = self.capacity
        out.elements = list(self.elements)
        out._members = set(self._members)
        out.version = 0
        out.serial = next(Solution._serials)
        return out

    def strip_dummies(self, ground: GroundSet) -> list[int]:
        return [u for u in self.elements if u < ground.n_real]

    def sorted_tuple(self) -> tuple:
        return tuple(sorted(self.elements))


@dataclass
class QueryLedger:
    """Counts oracle invocations; one value-or-marginal call costs exactly 1.

    `evaluated` counts the element answers (marginals, removal losses and
    swap terms) that the evaluator computed rather than the handle's memo
    supplied; `value` reads the evaluator's running total and adds none.
    `top_marginals` charges every candidate it is given but evaluates only
    those whose bound can still reach the top r, so in a greedy stage
    `evaluated` is a small fraction of `queries`.
    """

    queries: int = 0
    evaluated: int = 0

    def charge(self, n: int = 1) -> None:
        self.queries += n


class OracleHandle:
    """Evaluation surface over one objective, with query accounting.

    `evaluator` follows the incremental-state protocol implemented by the
    objective classes in :mod:`submax.objectives`. A state is a function of
    the ordered list of real ids it was given, so the same list answers
    with the same bits however the handle reached it:

    - ``ids``: that list
    - ``rewind(p)``: cut the list back to its first p ids
    - ``add(u)``: append one id
    - ``value()``: objective value of the synced set
    - ``gain_many(us, drop)``: vector of f(u_j | S - drop) for each u_j;
      ``drop`` is None (plain marginals against the synced set), one id,
      or an id array aligned with ``us`` (element j drops ``drop[j]``).
      u may equal its drop, which yields the removal loss f(v | S - v)
    - ``loss_many(vs)``: removal losses f(v | S - v) for members v, written
      once as ``gain_many(vs, vs)``, so both routes give the same bits

    One handle is owned by one run: evaluations are pure with respect to
    the instance data but mutate the ledger, the evaluator's synced set,
    the memo of answers for that set and the upper bounds of
    `top_marginals`.
    """

    def __init__(self, evaluator, ground: GroundSet):
        self.objective = evaluator
        self.ground = ground
        self._total = ground.total
        self.ledger = QueryLedger()
        self._token = None  # (serial, version) of the synced set
        # The last plain marginal computed per id, an upper bound on f(u | S)
        # while the evaluator's id list only grows; inf where none is known.
        self._bound = np.full(ground.total, np.inf)
        self._clear_memo()

    def _clear_memo(self) -> None:
        # Per-id answers for the synced set, nan where not yet computed:
        # f(u | S) in `_plain`, f(u | S - _drop) in `_dropped`.
        self._plain = None
        self._dropped = None
        self._drop = None
        self._losses = None  # removal_losses of the synced set

    # -- internal sync ---------------------------------------------------

    def _sync(self, sol: Solution) -> None:
        """Bring the evaluator to `sol`; callers call it only when
        ``(sol.serial, sol.version)`` differs from the synced token.

        The evaluator's state is a function of its id list, so the handle
        rewinds it to the longest common prefix of that list and the set's
        real ids, then appends the rest: the same bits as a replay from
        the empty set. A rewind that cuts the list drops the upper bounds
        of `top_marginals`, which hold only while the list grows.
        """
        # A new token means a set not yet checked, so ids are checked once
        # per (serial, version) rather than on every query.
        elems = sol.elements
        if elems and not (0 <= min(elems) and max(elems) < self._total):
            for u in elems:
                self.ground.check_id(u)  # raises for the first bad id
        real = sol.strip_dummies(self.ground)
        state = self.objective
        p = _common_prefix(state.ids, real)
        if p < len(state.ids):
            state.rewind(p)
            self._bound.fill(np.inf)
        for u in real[p:]:
            state.add(u)
        self._token = (sol.serial, sol.version)
        self._clear_memo()

    def _real_drop(self, drop: int | None, sol: Solution) -> int | None:
        """`drop` when it is a real member of `sol`; otherwise dropping it
        changes nothing, so None."""
        if drop is not None and drop < self.ground.n_real and drop in sol:
            return drop
        return None

    def _memo(self, sol: Solution, drop: int | None) -> np.ndarray:
        """Answer array of the synced set for `drop` (None or a real
        member), built on first use with dummies and held members at 0.0;
        the dropped element itself stays unknown."""
        if drop is None:
            memo = self._plain
        else:
            memo = self._dropped if drop == self._drop else None
        if memo is None:
            memo = np.full(self.ground.total, np.nan)
            memo[self.ground.n_real:] = 0.0
            memo[sol.elements] = 0.0
            if drop is None:
                self._plain = memo
            else:
                memo[drop] = np.nan
                self._dropped, self._drop = memo, drop
        return memo

    def _evaluate(self, memo: np.ndarray, ids: np.ndarray, drop: int | None) -> np.ndarray:
        """Compute f(u | S - drop) for `ids` into `memo`; plain answers,
        widened, also become the bounds of their ids."""
        vals = self.objective.gain_many(ids, drop)
        memo[ids] = vals
        if drop is None:
            self._bound[ids] = widen(vals)
        self.ledger.evaluated += len(ids)
        return vals

    def _answers(self, us: np.ndarray, sol: Solution, drop: int | None) -> np.ndarray:
        """f(u | S - drop) for each id in `us`; only ids not in the memo
        reach the evaluator."""
        memo = self._memo(sol, drop)
        out = memo[us]
        miss = np.isnan(out)
        if np.count_nonzero(miss):  # `miss.any()`, a ufunc reduction, costs more than a hit
            out[miss] = self._evaluate(memo, us[miss], drop)
        return out

    def _answer(self, u: int, sol: Solution, drop: int | None) -> float:
        """Scalar `_answers`."""
        memo = self._memo(sol, drop)
        val = memo.item(u)
        if val != val:  # nan: not yet computed
            val = self._evaluate(memo, np.array([u]), drop).item(0)
        return val

    def _charged_ids(self, us, sol: Solution) -> np.ndarray:
        """`us` as an id array, charged one query each, checked, with the
        evaluator synced to `sol`."""
        us = np.asarray(us, dtype=np.int64)
        self.ledger.charge(len(us))
        n = self._total
        # Seen as unsigned, a negative id is above every valid one, so the
        # largest unsigned id is out of range whenever any id is. `argmax`
        # skips the call overhead of a ufunc reduction such as `max`.
        unsigned = us.view(np.uint64)
        if len(us) and unsigned[unsigned.argmax()] >= n:
            self.ground.check_id(int(us[(us < 0) | (us >= n)][0]))  # raises
        if (sol.serial, sol.version) != self._token:
            self._sync(sol)
        return us

    # -- public surface --------------------------------------------------

    def value(self, sol: Solution, drop: int | None = None, add: int | None = None) -> float:
        """f of the dummy-stripped set, optionally with one element dropped
        and/or one added. Costs one query."""
        self.ledger.charge(1)
        n = self._total
        if add is not None and not 0 <= add < n:
            self.ground.check_id(add)  # raises
        if drop is not None and not 0 <= drop < n:
            self.ground.check_id(drop)  # raises
        if add is not None and add == drop and add in sol:
            add = drop = None  # dropping and re-adding a member gives S
        if (sol.serial, sol.version) != self._token:
            self._sync(sol)
        val = self.objective.value()
        real_drop = self._real_drop(drop, sol)
        if real_drop is not None:
            val -= self._answer(real_drop, sol, real_drop)
        if add is not None and add < self.ground.n_real and not (add in sol and add != real_drop):
            val += self._answer(add, sol, real_drop)
        return val

    def marginal(self, u: int, sol: Solution, drop: int | None = None) -> float:
        """f(u | S - drop) for the dummy-stripped S; exactly 0 when u is a
        dummy or already present. Costs one query."""
        return float(self.marginal_many([u], sol, drop)[0])

    def marginal_many(self, us, sol: Solution, drop: int | None = None) -> np.ndarray:
        """Vector of marginals f(u | S - drop); costs len(us) queries."""
        us = self._charged_ids(us, sol)
        # Dummies and already-held elements have zero marginal by contract;
        # the memo holds those zeros from the start.
        return self._answers(us, sol, self._real_drop(drop, sol))

    def top_marginals(self, us, sol: Solution, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Positions in `us` of the r largest marginals f(u | S), by gain
        descending and then id ascending, and their gains: the first r of
        ``np.lexsort((us, -marginal_many(us, sol)))``. Costs len(us)
        queries, like `marginal_many`.

        A candidate is fresh when its answer is in the memo (dummies and
        held members are, as exact zeros) and stale otherwise; a stale
        candidate's key is its stored, already widened bound. The stale
        candidates among the 2r largest keys are evaluated first. Then,
        with f_r the r-th largest fresh gain, every stale candidate whose
        key is >= f_r is evaluated: a tie may still win on its lower id. No
        other candidate can reach the top r, so only the fresh gains >= f_r
        are sorted.

        Each pass writes its answers into the gathered gains. A repeated id
        shares one answer, so when the first pass may have evaluated an id
        that repeats outside the 2r largest keys (ties at the smallest of
        them), the gains are gathered from the memo again.
        """
        us = self._charged_ids(us, sol)
        m = len(us)
        r = min(r, m)
        if r < 1:
            return np.empty(0, dtype=np.int64), np.empty(0)
        memo = self._memo(sol, None)
        gains = memo[us]
        stale = np.isnan(gains)
        n_stale = np.count_nonzero(stale)
        wrong = False
        if n_stale:
            keys = np.where(stale, self._bound[us], gains)
            head = np.argpartition(keys, m - 2 * r)[m - 2 * r:] if 2 * r < m else np.arange(m)
            pos = head[stale[head]]
            wrong = self._lazy_pass(us, pos, keys, memo, gains, stale)
            n_stale -= len(pos)
            if n_stale and len(pos):
                least = keys[head[0]]  # the smallest of the 2r largest keys
                if np.count_nonzero(keys == least) > np.count_nonzero(keys[head] == least):
                    gains = memo[us]
                    stale = np.isnan(gains)
                    n_stale = np.count_nonzero(stale)
        # nan sorts last, so this is the r-th largest of the known gains, of
        # which there are at least r.
        known = m - n_stale
        f_r = np.partition(gains, known - r)[known - r]
        if n_stale and not wrong:
            pos = np.flatnonzero(stale & (keys >= f_r))
            wrong = self._lazy_pass(us, pos, keys, memo, gains, stale)
        if wrong:  # f is not submodular, so no bound can be trusted
            gains = memo[us]
            pos = np.flatnonzero(np.isnan(gains))
            gains[pos] = self._evaluate(memo, us[pos], None)
        # Every candidate still stale has a key below f_r, so it is not among
        # the top r, and neither is a gain below f_r.
        cand = np.flatnonzero(gains >= f_r)
        top = cand[np.lexsort((us[cand], -gains[cand]))[:r]]
        return top, gains[top]

    def _lazy_pass(self, us: np.ndarray, pos: np.ndarray, keys: np.ndarray,
                   memo: np.ndarray, gains: np.ndarray, stale: np.ndarray) -> bool:
        """Evaluate the candidates at `pos` into `gains` and mark them
        fresh; True when an answer exceeds its key, which for a submodular
        f never happens."""
        if not len(pos):
            return False
        vals = self._evaluate(memo, us[pos], None)
        gains[pos] = vals
        stale[pos] = False
        return bool((vals > keys[pos]).any())

    def removal_losses(self, sol: Solution) -> np.ndarray:
        """f(v | S - v) for every v in the solution, in element order.

        Batch form of ``marginal(v, sol, drop=v)``; costs len(sol) queries.
        """
        self.ledger.charge(len(sol))
        if (sol.serial, sol.version) != self._token:
            self._sync(sol)
        if self._losses is None:
            elems = np.array(sol.elements, dtype=np.int64)
            self._losses = np.zeros(len(elems), dtype=np.float64)
            real = elems < self.ground.n_real
            if real.any():
                self._losses[real] = self.objective.loss_many(elems[real])
                self.ledger.evaluated += int(real.sum())
        return self._losses.copy()


def _common_prefix(a: list, b: list) -> int:
    """Length of the longest common prefix of two lists."""
    n = min(len(a), len(b))
    if a[:n] == b[:n]:
        return n
    return next(i for i in range(n) if a[i] != b[i])


def submodularity_probe(handle: OracleHandle, trials: int, rng: np.random.Generator) -> bool:
    """Sample random chains S subset of T and u outside T; true iff the
    diminishing-returns inequality held (within 1e-9) in every trial."""
    if trials < 1:
        raise SubmaxError(f"trials must be >= 1, got {trials}")
    n = handle.ground.n_real
    cap = handle.ground.total
    for _ in range(trials):
        size_t = int(rng.integers(0, n))  # |T| in [0, n-1] so some u remains
        perm = rng.permutation(n)
        t_ids = perm[:size_t]
        u = int(perm[size_t])
        size_s = int(rng.integers(0, size_t + 1))
        s_ids = t_ids[:size_s]
        sol_t = Solution(cap, t_ids)
        sol_s = Solution(cap, s_ids)
        gain_t = handle.marginal(u, sol_t)
        gain_s = handle.marginal(u, sol_s)
        if gain_s < gain_t - 1e-9:
            return False
    return True
