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
answers the evaluator actually computed. When the set grows by one
`Solution.add`, the handle appends that element to the evaluator; any
other change hands the evaluator the whole list of real ids, and the
evaluator keeps what that list shares with its own. Either way the
handle forgets only the plain answers it wrote for the old set, unless
the evaluator had to cut its list, which makes every answer unknown.

Greedy stages ask only for the top r marginals of a batch
(`top_marginals`). Within one greedy run the set only grows, so under
submodularity every plain marginal the handle computed is an upper bound
on the current one, also for a non-monotone f. The handle keeps one key
per id, the answer where the memo knows it and otherwise that bound
widened by `BOUND_SLACK`, keeps the bounds while the evaluator's list
grows and drops them when the evaluator cuts it. It evaluates the stale
candidates among the 2r largest keys; when the r-th best gain among
those 2r is above their smallest key, no other candidate can reach the
top r and the call ends there. Otherwise it falls back to evaluating every other candidate
whose key can still reach the top r (the lazy greedy of Minoux 1978).
The answer and the query charge are those of `marginal_many` followed by
a sort.
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

    Each instance carries a process-unique serial, and `add`, its only
    mutation, bumps a version counter, so oracle handles can detect "same
    set as the last query" in O(1) without being fooled by recycled object
    addresses. A set with an element taken out is a new `Solution`.
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

    def __contains__(self, u) -> bool:
        return u in self._members

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

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

    - ``reset(ids)``: sync to the list `ids`, keeping the longest common
      prefix with the current list; True when it cut the list
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
    the memo of answers for that set and the keys of `top_marginals`.
    """

    def __init__(self, evaluator, ground: GroundSet):
        self.objective = evaluator
        self.ground = ground
        self._total = ground.total
        self.ledger = QueryLedger()
        self._token = None  # (serial, version) of the synced set
        # f(u | S) for the synced set, nan where not yet computed; dummies
        # and held members are exact zeros. One buffer, refilled in place.
        self._plain = np.full(ground.total, np.nan)
        self._plain[ground.n_real:] = 0.0
        # One key per id for `top_marginals`: the answer where `_plain`
        # knows it, and otherwise the last plain marginal computed, widened
        # (inf when there is none), an upper bound on f(u | S) while the
        # evaluator's id list only grows.
        self._bound = np.full(ground.total, np.inf)
        self._bound[ground.n_real:] = 0.0
        # The id arrays evaluated into `_plain` for the synced set, each
        # owned by the handle: the only answers a new set makes unknown.
        self._written: list[np.ndarray] = []
        # f(u | S - _drop) for the most recent real drop, and the removal
        # losses; built on first use for each synced set.
        self._dropped = self._drop = self._losses = None

    # -- internal sync ---------------------------------------------------

    def _sync(self, sol: Solution) -> None:
        """Bring the evaluator and the memo to `sol`; callers call it only
        when ``(sol.serial, sol.version)`` differs from the synced token.

        `add` is the only mutation of a `Solution`, so a token of the same
        serial and version - 1 means one `add`: the new element is
        appended. Any other set goes to the evaluator's `reset`, with the
        same bits as a replay from the empty set. A reset that cuts the
        evaluator's list makes every plain answer unknown and drops every
        bound, which holds only while the list grows. Otherwise only the
        answers written for the old set are forgotten, their keys their
        widened bounds. The set's members become held zeros.
        """
        n_real = self.ground.n_real
        if self._token == (sol.serial, sol.version - 1):
            held = sol.elements[-1]
            if not 0 <= held < self._total:
                self.ground.check_id(held)  # raises
            if held < n_real:
                self.objective.add(held)
        else:
            # A new token means a set not yet checked, so ids are checked
            # once per (serial, version) rather than on every query.
            held = sol.elements
            if held and not (0 <= min(held) and max(held) < self._total):
                for u in held:
                    self.ground.check_id(u)  # raises for the first bad id
            if self.objective.reset(sol.strip_dummies(self.ground)):
                self._bound[:n_real] = np.inf
                self._plain[:n_real] = np.nan
                self._written.clear()
        written = self._written
        if written:
            ids = written[0] if len(written) == 1 else np.concatenate(written)
            self._bound[ids] = widen(self._plain[ids])
            self._plain[ids] = np.nan
            written.clear()
        self._plain[held] = 0.0
        self._bound[held] = 0.0
        self._token = (sol.serial, sol.version)
        self._dropped = self._drop = self._losses = None

    def _real_drop(self, drop: int | None, sol: Solution) -> int | None:
        """`drop` when it is a real member of `sol`; otherwise dropping it
        changes nothing, so None."""
        if drop is not None and drop < self.ground.n_real and drop in sol:
            return drop
        return None

    def _memo(self, sol: Solution, drop: int | None) -> np.ndarray:
        """Answer array of the synced set for `drop` (None or a real
        member), with dummies and held members at 0.0; the dropped element
        itself stays unknown. The drop's array is built on first use."""
        if drop is None:
            return self._plain
        if drop != self._drop:
            memo = np.full(self.ground.total, np.nan)
            memo[self.ground.n_real:] = 0.0
            memo[sol.elements] = 0.0
            memo[drop] = np.nan
            self._dropped, self._drop = memo, drop
        return self._dropped

    def _evaluate(self, memo: np.ndarray, ids: np.ndarray, drop: int | None) -> np.ndarray:
        """Compute f(u | S - drop) for `ids` into `memo`. Plain answers
        also become the keys of their ids, and `ids` is kept as written
        for the synced set, so the caller must not change it later."""
        vals = self.objective.gain_many(ids, drop)
        memo[ids] = vals
        if drop is None:
            self._bound[ids] = vals
            self._written.append(ids)
        self.ledger.evaluated += len(ids)
        return vals

    def _answers(self, us: np.ndarray, sol: Solution, drop: int | None) -> np.ndarray:
        """f(u | S - drop) for each id in `us`; only ids not in the memo
        reach the evaluator."""
        memo = self._memo(sol, drop)
        out = memo[us]
        miss = np.isnan(out)
        n_miss = np.count_nonzero(miss)  # not `miss.any()`: a ufunc reduction costs more
        if n_miss == len(us) and n_miss:  # nothing known: no compress, no scatter
            return self._evaluate(memo, us.copy() if drop is None else us, drop)
        if n_miss:
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
        held members are, as exact zeros) and stale otherwise. Its key is
        its answer when fresh and its widened bound when stale; one gather
        of the key array gives them all. The stale candidates among the 2r
        largest keys (the head) are evaluated first. When the r-th largest
        gain in the head, h_r, is above the head's smallest key, no
        candidate outside the head can reach the top r, since its gain is
        at most its key, and the head alone is sorted. Otherwise the rule
        goes on over all candidates: with f_r the r-th largest fresh gain,
        every stale candidate whose key is >= f_r is evaluated (a tie may
        still win on its lower id), and the fresh gains >= f_r are sorted.
        Both branches evaluate the same candidates.
        """
        us = self._charged_ids(us, sol)
        m = len(us)
        r = min(r, m)
        if r < 1:
            return np.empty(0, dtype=np.int64), np.empty(0)
        keys = self._bound[us]
        head = np.argpartition(keys, m - 2 * r)[m - 2 * r:] if 2 * r < m else np.arange(m)
        ids = us[head]
        gains = self._plain[ids]
        wrong = self._lazy_pass(ids, np.flatnonzero(np.isnan(gains)), keys[head], gains)
        order = np.lexsort((head, ids, -gains))[:r]
        # head[0] holds the smallest key of the head.
        if 2 * r >= m or (not wrong and gains[order[-1]] > keys[head[0]]):
            return head[order], gains[order]
        # A repeated id shares one answer, so gather the gains again.
        gains = self._plain[us]
        stale = np.isnan(gains)
        known = m - np.count_nonzero(stale)
        # nan sorts last, so this is the r-th largest of the known gains, of
        # which there are at least r.
        f_r = np.partition(gains, known - r)[known - r]
        if known < m and not wrong:
            wrong = self._lazy_pass(us, np.flatnonzero(stale & (keys >= f_r)), keys, gains)
        if wrong:  # f is not submodular, so no bound can be trusted
            gains = self._plain[us]
            pos = np.flatnonzero(np.isnan(gains))
            gains[pos] = self._evaluate(self._plain, us[pos], None)
        # Every candidate still stale has a key below f_r, so it is not among
        # the top r, and neither is a gain below f_r.
        cand = np.flatnonzero(gains >= f_r)
        top = cand[np.lexsort((us[cand], -gains[cand]))[:r]]
        return top, gains[top]

    def _lazy_pass(self, ids: np.ndarray, pos: np.ndarray, keys: np.ndarray,
                   gains: np.ndarray) -> bool:
        """Evaluate the candidates ``ids[pos]`` into ``gains[pos]``; True
        when an answer exceeds its key, which for a submodular f never
        happens."""
        if not len(pos):
            return False
        vals = self._evaluate(self._plain, ids[pos], None)
        gains[pos] = vals
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
