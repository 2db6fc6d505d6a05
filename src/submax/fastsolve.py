"""The accelerated solver family: a swap-based local search that certifies
an approximate local optimum from prefix sums of sorted gain lists, a
rank-sampled stochastic greedy that can be guided away from a given set,
and the combined driver that returns the better of the two outputs.

Every greedy solver, the baselines' random greedy included, runs one loop,
`greedy_rounds`. Solvers differ only in the sample a round ranks and in
how the rank of its pick is drawn.

Query pattern of one local-search attempt is fixed by construction:
every iteration spends ceil(n/k) sampled marginals, k removal losses, and
one swap evaluation; the certification check adds n + 1 more. The exact
per-attempt count is exposed by `attempt_query_budget` and asserted by the
test suite against the ledger. An iteration's sample does not depend on
the set, so an attempt's samples are drawn by `draw_rows` in blocks before
any of them is evaluated, and arrive sorted.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .config import (
    INIT_ACCURACY,
    SolverConfig,
    attempts_count,
    iteration_count,
    sample_rate,
)
from .errors import ConfigError, SolutionSizeError
from .oracle import OracleHandle, Solution


@dataclass
class LocalOptReport:
    """Outcome of the approximate-local-optimality check.

    `add_gains` holds f(u | S) for all u outside S sorted descending;
    `removal_losses` holds f(v | S - v) for v in S sorted ascending. The
    set is accepted when, for every t in [0, k], the sum of the t largest
    add gains stays below the sum of the t smallest removal losses plus
    eps * f(S). `worst_t` is the t with the largest violation margin.
    """

    add_gains: np.ndarray
    removal_losses: np.ndarray
    f_value: float
    satisfied: bool
    worst_t: int


@dataclass
class BoundParams:
    """Convex-combination weights and flip point with the guarantee value
    they certify for the combined solver."""

    p1: float
    p2: float
    p3: float
    t_s: float
    bound_value: float


def swap_sample_size(n_total: int, k: int) -> int:
    """q = min(ceil(n/k), n), the ids one swap iteration samples."""
    return min(-(-n_total // k), n_total)


def attempt_query_budget(n_total: int, k: int, L: int) -> int:
    """Exact oracle-query cost of one local-search attempt."""
    return L * (swap_sample_size(n_total, k) + k + 1) + (n_total + 1)


# ---------------------------------------------------------------------------
# Swap samples
# ---------------------------------------------------------------------------

# Most rows * q entries in one block of swap samples. The redraws take more
# random numbers than the entries they return. Block boundaries are part of
# the seeded stream, so this is a constant.
DRAW_ENTRIES = 1 << 18


def _by_rejection(n: int, q: int) -> bool:
    """Whether `draw_rows` redraws tuples with a repeat (else one
    `Generator.choice` per row). A uniform q-tuple is distinct with
    probability prod(1 - i/n) over i < q; for q much smaller than n that
    is about exp(-q(q - 1) / 2n), at least e^-2 here, but it is lower for
    small n (0.038 at q = n = 5)."""
    return q * (q - 1) <= 4 * n


def draw_rows(rng: np.random.Generator, rows: int, n: int, q: int) -> np.ndarray:
    """`rows` independent uniform q-subsets of range(n), one per row, each
    sorted ascending.

    By rejection, a row is a uniform ordered q-tuple of range(n), drawn
    again while it holds a repeat; a uniform tuple with distinct entries
    gives a uniform subset. Otherwise too many tuples repeat, and each row
    is drawn by `rng.choice` without replacement and, since it is sorted
    next, without the shuffle of its subset."""
    if _by_rejection(n, q):
        out = rng.integers(0, n, (rows, q))
        out.sort(axis=1)
        redo = np.flatnonzero((out[:, 1:] == out[:, :-1]).any(axis=1))
        while redo.size:
            again = rng.integers(0, n, (redo.size, q))
            again.sort(axis=1)
            out[redo] = again
            redo = redo[(out[redo, 1:] == out[redo, :-1]).any(axis=1)]
        return out
    out = np.empty((rows, q), dtype=np.int64)
    for i in range(rows):
        row = rng.choice(n, size=q, replace=False, shuffle=False)
        row.sort()  # while it is in cache; a block sort after the loop is slower
        out[i] = row
    return out


def sample_rows(rng: np.random.Generator, L: int, n: int, q: int) -> Iterator[np.ndarray]:
    """The L sampled rows of one local-search attempt, yielded in order
    from `draw_rows` blocks of at most DRAW_ENTRIES entries (one row per
    block when a single row is wider)."""
    per_block = max(1, DRAW_ENTRIES // q)
    for start in range(0, L, per_block):
        yield from draw_rows(rng, min(per_block, L - start), n, q)


# ---------------------------------------------------------------------------
# Greedy rounds
# ---------------------------------------------------------------------------


def candidate_pool(mask: np.ndarray, sol: Solution) -> np.ndarray:
    """Ids outside `sol`, in increasing order. `mask` is a boolean scratch
    array over the ground set and is overwritten."""
    mask[:] = True
    mask[sol.elements] = False
    return np.flatnonzero(mask)


def greedy_rounds(
    handle: OracleHandle,
    guide: list[int],
    k: int,
    t_flip: int,
    draw: Callable[[np.ndarray, bool], tuple[np.ndarray, int]],
) -> tuple[Solution, float]:
    """The loop of every greedy solver. Each of k rounds asks
    ``draw(pool, guided)`` for its candidates and a rank r, and adds the
    r-th best candidate by `top_marginals` when its gain is >= 0; r is
    drawn before any gain is known, so only candidates that can still
    reach it are evaluated. The pool is one mask for the run: a pick
    leaves it, and `guide` sits out of the first `t_flip` rounds
    (`guided`). Returns the set and the sum of the accepted gains, which
    is f of the set since f(empty) = 0. Every solver runs this loop
    first, so here a handle sized for another bound is refused: the
    solvers and their query budgets assume exactly 2k dummies."""
    if handle.ground.n_dummy != 2 * k:
        raise ConfigError(f"handle has {handle.ground.n_dummy} dummies, sized for "
                          f"k={handle.ground.n_dummy // 2}, but the solver runs with k={k}")
    sol = Solution(k)
    total = 0.0
    mask = np.ones(handle.ground.total, dtype=bool)
    if t_flip:
        mask[guide] = False
    for i in range(1, k + 1):
        if i == t_flip + 1:
            mask[guide] = True  # the flip; no guide id was picked before it
        pool = np.flatnonzero(mask)
        if len(pool) == 0:
            continue
        sampled, rank = draw(pool, i <= t_flip)
        top, gains = handle.top_marginals(sampled, sol, rank)
        gain = float(gains[-1])
        if gain >= 0.0:
            u = int(sampled[top[-1]])
            sol.add(u)
            mask[u] = False
            total += gain
    return sol, total


def stochastic_greedy_core(
    handle: OracleHandle,
    z_ids: list[int],
    k: int,
    eps: float,
    t_s: float,
    p_mode: str,
    rng: np.random.Generator,
) -> tuple[Solution, float]:
    """`greedy_rounds` on a p-fraction sample of the pool, for sample
    greedy, its guided variant (`z_ids` sit out of the first ceil(k * t_s)
    rounds) and the initialization repetitions. A round draws its sample,
    then its rank uniformly from a window of the sample. The pick does not
    depend on the sample's order, so a whole-pool sample draws only its
    rank, and a smaller one is drawn without the shuffle of
    `Generator.choice`: the same subset from fewer random numbers."""
    n_total = handle.ground.total
    p = sample_rate(k, eps, p_mode)
    free = n_total - len(z_ids)
    s1 = k / free if free > 0 else 0.0
    s2 = k / n_total

    def draw(pool: np.ndarray, guided: bool) -> tuple[np.ndarray, int]:
        m = len(pool)
        size = min(math.ceil(p * m), m)
        sampled = pool if size == m else rng.choice(pool, size=size, replace=False, shuffle=False)
        window = min(max(1.0, (s1 if guided else s2) * size), float(size))
        d = window * (1.0 - rng.random())  # uniform over (0, window]
        return sampled, min(math.ceil(d), size)

    return greedy_rounds(handle, z_ids, k, math.ceil(k * t_s), draw)


def guided_stochastic_greedy(
    handle: OracleHandle,
    guide: Solution,
    cfg: SolverConfig,
    rng: np.random.Generator | None = None,
) -> Solution:
    """Rank-sampled greedy that ignores the elements of `guide` during the
    first ceil(k * t_s) iterations."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    sol, _ = stochastic_greedy_core(
        handle, guide.elements, cfg.k, cfg.eps, cfg.t_s, cfg.p_mode, rng
    )
    return sol


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def best_initial_run(
    handle: OracleHandle, cfg: SolverConfig, rng: np.random.Generator
) -> tuple[Solution, float]:
    """Best of ceil(log2(1/eps)) independent stochastic-greedy runs at the
    fixed internal accuracy, compared by tracked value."""
    best = None
    best_val = -math.inf
    for _ in range(attempts_count(cfg.eps)):
        child = rng.spawn(1)[0]
        sol, val = stochastic_greedy_core(
            handle, [], cfg.k, INIT_ACCURACY, 0.0, cfg.p_mode, child
        )
        if val > best_val:
            best, best_val = sol, val
    return best, best_val


def init_solution(
    handle: OracleHandle, cfg: SolverConfig, rng: np.random.Generator | None = None
) -> Solution:
    """Constant-factor starting point, padded with dummies to size exactly k."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    sol, _ = best_initial_run(handle, cfg, rng)
    _pad_with_dummies(sol, handle, cfg.k)
    return sol


def _pad_with_dummies(sol: Solution, handle: OracleHandle, k: int) -> None:
    while len(sol) < k:
        sol.add(_fresh_dummy(sol, handle))


def _fresh_dummy(sol: Solution, handle: OracleHandle) -> int:
    for d in handle.ground.dummy_ids():
        if d not in sol:
            return d
    raise SolutionSizeError("no dummy element available outside the solution")


# ---------------------------------------------------------------------------
# Local-optimality certification
# ---------------------------------------------------------------------------


def check_local_opt_condition(handle: OracleHandle, sol: Solution, eps: float) -> LocalOptReport:
    """Evaluate the prefix-sum form of the approximate local-opt condition.

    The max over size-t outside sets of total add gain equals the sum of
    the t largest per-element gains, and the min over size-t inside sets of
    total removal loss equals the sum of the t smallest losses, so the
    check reduces to comparing prefix sums of two sorted lists.
    """
    k = sol.capacity
    if len(sol) != k:
        raise SolutionSizeError(f"expected |S| = {k} including dummies, got {len(sol)}")
    f_value = handle.value(sol)
    outside = candidate_pool(np.empty(handle.ground.total, dtype=bool), sol)
    add_gains = np.sort(handle.marginal_many(outside, sol))[::-1]
    losses = np.sort(handle.removal_losses(sol))
    t_max = min(k, len(add_gains))
    lhs = np.concatenate(([0.0], np.cumsum(add_gains[:t_max])))
    rhs = np.concatenate(([0.0], np.cumsum(losses[:t_max]))) + eps * f_value
    margins = lhs - rhs
    worst_t = int(np.argmax(margins))
    return LocalOptReport(
        add_gains=add_gains,
        removal_losses=losses,
        f_value=f_value,
        satisfied=bool((lhs <= rhs).all()),
        worst_t=worst_t,
    )


# ---------------------------------------------------------------------------
# Fast local search
# ---------------------------------------------------------------------------


def fast_local_search(
    handle: OracleHandle, cfg: SolverConfig, rng: np.random.Generator | None = None
) -> Solution | None:
    """Swap-based local search over sampled candidates.

    Runs ceil(log2(1/eps)) attempts of L iterations each; every iteration
    samples ceil(n/k) ids, takes the best sampled marginal (or a fresh
    dummy when nothing improves), pairs it with the cheapest removal, and
    swaps on strict improvement. Ties go to the lowest id on both sides.
    The samples come from `sample_rows`: drawn in blocks before they are
    evaluated, and sorted, so the first maximum gain is at the lowest id.
    The removal v is a function of the set alone, so it is chosen again
    only after a swap; the removal losses are still asked (and charged)
    every iteration.

    Sets are values: an attempt starts on the initial set itself, and a
    swap makes a new `Solution`, the old elements minus v and then u. The
    attempt keeps each set it held with the number of iterations done when
    it took it. After L iterations it draws i* uniformly from 0..L-1 and
    certifies S_{i*}, the last set it held after at most i* iterations.
    Failure of every attempt returns None, which is a normal outcome
    rather than an error.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    n_total = handle.ground.total
    k = cfg.k
    L = iteration_count(k, cfg.eps)
    q = swap_sample_size(n_total, k)

    start = init_solution(handle, cfg, rng)
    f_start = handle.value(start)

    for _ in range(attempts_count(cfg.eps)):
        sol, f_sol, v = start, f_start, None  # v: the removal chosen for sol
        visited = [(0, start)]  # (iterations done, set) at each swap
        for done, sampled in enumerate(sample_rows(rng, L, n_total, q), start=1):
            gains = handle.marginal_many(sampled, sol)
            best = gains.argmax()
            u = int(sampled[best])
            if gains[best] <= 0.0:
                u = _fresh_dummy(sol, handle)
            losses = handle.removal_losses(sol)
            if v is None:
                elems = np.array(sol.elements)
                v = int(elems[np.lexsort((elems, losses))[0]])
            f_new = handle.value(sol, drop=v, add=u)
            if f_new > f_sol:
                sol = Solution(sol.capacity, [w for w in sol.elements if w != v] + [u])
                f_sol, v = f_new, None
                visited.append((done, sol))
        i_star = int(rng.integers(L))
        candidate = next(held for at, held in reversed(visited) if at <= i_star)
        if check_local_opt_condition(handle, candidate, cfg.eps).satisfied:
            return candidate
    return None


# ---------------------------------------------------------------------------
# Combined driver
# ---------------------------------------------------------------------------


def better_of(handle: OracleHandle, guide: Solution, improved: Solution) -> Solution:
    """Dummy-stripped copy of the set with the higher value, evaluating
    `guide` first; exact ties go to the lower sorted id tuple."""
    f_guide = handle.value(guide)
    f_improved = handle.value(improved)
    a, b = (Solution(s.capacity, s.strip_dummies(handle.ground)) for s in (guide, improved))
    if f_guide > f_improved:
        return a
    if f_improved > f_guide:
        return b
    return min(a, b, key=Solution.sorted_tuple)


def run_main(
    handle: OracleHandle, cfg: SolverConfig, rng: np.random.Generator | None = None
) -> tuple[Solution, bool]:
    """Local-search guide followed by guided stochastic greedy. Returns the
    better of the two sets and False, or the empty set and True when the
    local search fails every attempt."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    guide = fast_local_search(handle, cfg, rng)
    if guide is None:
        return Solution(cfg.k), True
    improved = guided_stochastic_greedy(handle, guide, cfg, rng)
    return better_of(handle, guide, improved), False


def solve_main(
    handle: OracleHandle, cfg: SolverConfig, rng: np.random.Generator | None = None
) -> Solution:
    """`run_main` without the failure flag."""
    return run_main(handle, cfg, rng)[0]


# ---------------------------------------------------------------------------
# Guarantee-coefficient optimization
# ---------------------------------------------------------------------------


def optimize_bound_params(k: int, eps: float) -> BoundParams:
    """Maximize the guarantee coefficient of the combined solver over the
    flip point and the convex-combination weights.

    For every flip point t on a grid of step 1/1000, the best weights are found over
    the (p1, p2, p3) simplex grid: the two side constraints (non-negative
    coefficients for the union and intersection terms) pin the minimal
    feasible p1 for each p3, and since the second constraint only tightens
    as p1 grows, checking it at that minimal p1 is equivalent to scanning
    the whole grid row. The evaluated coefficient is the large-k limit.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if not 0.0 < eps < 1.0:  # also False for nan
        raise ConfigError(f"eps must lie in (0, 1), got {eps}")
    steps = 1000
    grid = np.arange(steps + 1) / steps
    p3 = grid  # candidate weights for the greedy-route bound
    best = BoundParams(p1=0.0, p2=0.0, p3=0.0, t_s=0.0, bound_value=0.0)
    for t in grid:
        e_t = math.exp(t - 1.0)
        gain_coef = (2.0 - t - math.exp(-t)) * e_t
        a_coef = e_t * (2.0 - t - 2.0 * math.exp(-t))
        b_coef = e_t * (1.0 - math.exp(-t))
        p1_min = np.ceil(np.maximum(a_coef, 0.0) * (2.0 + eps) * p3 * steps) / steps
        feasible = p1_min + p3 <= 1.0 + 1e-12
        p2 = 1.0 - p1_min - p3
        c2 = p2 / (1.0 + eps) + p1_min / (2.0 + eps) - p3 * b_coef
        feasible &= c2 >= -1e-12
        if not feasible.any():
            continue
        idx = np.flatnonzero(feasible)
        j = idx[np.argmax(p3[idx])]
        value = gain_coef * p3[j]
        if value > best.bound_value:
            best = BoundParams(
                p1=float(p1_min[j]),
                p2=float(1.0 - p1_min[j] - p3[j]),
                p3=float(p3[j]),
                t_s=float(t),
                bound_value=float(value),
            )
    return best
