"""Baseline solvers: the classical add/swap/delete local search, guided
random greedy, the two prior-art greedy baselines, and the warmup
combination of local search with guided random greedy.

Both greedy baselines run `fastsolve.greedy_rounds`, the loop of the main
solver's greedy stage. Random greedy ranks the whole pool and draws its
rank uniformly from 1..min(k, m); sample greedy ranks a p-fraction sample
and draws its rank from a window of it. Local search treats sets as
values: each move builds a new `Solution`."""

from __future__ import annotations

import math

import numpy as np

from .config import SolverConfig
from .fastsolve import (
    best_initial_run,
    better_of,
    candidate_pool,
    greedy_rounds,
    stochastic_greedy_core,
)
from .oracle import OracleHandle, Solution


def _improves(new_vals: np.ndarray, f_sol: float, eps: float, k: int) -> np.ndarray:
    # Elementwise. A zero-value solution accepts any strictly positive move;
    # otherwise the move must beat the multiplicative threshold.
    if f_sol <= 0.0:
        return new_vals > 0.0
    return new_vals >= (1.0 + eps / k) * f_sol


def local_search(
    handle: OracleHandle, cfg: SolverConfig, rng: np.random.Generator | None = None
) -> Solution:
    """Classical local search: repeatedly apply the first add (when below
    capacity), swap (at capacity), or delete that improves the value by a
    factor of at least 1 + eps/k, starting from a constant-factor solution.

    Termination is guaranteed because every accepted move multiplies the
    value by at least that factor. Dummy moves never qualify (their delta
    is zero), so only real elements are scanned.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    k, eps = cfg.k, cfg.eps
    init, f_sol = best_initial_run(handle, cfg, rng)
    sol = Solution(k, init.strip_dummies(handle.ground))
    mask = np.empty(handle.ground.n_real, dtype=bool)
    while True:
        outside = candidate_pool(mask, sol)
        moved = False
        if len(sol) < k and len(outside):
            gains = handle.marginal_many(outside, sol)
            ok = np.flatnonzero(_improves(f_sol + gains, f_sol, eps, k))
            if len(ok):
                sol = Solution(k, sol.elements + [int(outside[ok[0]])])
                f_sol = f_sol + float(gains[ok[0]])
                moved = True
        elif len(sol) == k:
            losses = handle.removal_losses(sol)
            order = np.argsort(sol.elements, kind="stable")
            for vi in order:
                v = sol.elements[vi]
                vals = handle.marginal_many(outside, sol, drop=v) + (f_sol - losses[vi])
                ok = np.flatnonzero(_improves(vals, f_sol, eps, k))
                if len(ok):
                    sol = Solution(k, [w for w in sol.elements if w != v] + [int(outside[ok[0]])])
                    f_sol = float(vals[ok[0]])
                    moved = True
                    break
        if not moved and len(sol) > 0:
            losses = handle.removal_losses(sol)
            elems = np.array(sol.elements)
            order = np.argsort(elems, kind="stable")
            ok = np.flatnonzero(_improves(f_sol - losses[order], f_sol, eps, k))
            if len(ok):
                vi = order[ok[0]]
                v = int(elems[vi])
                sol = Solution(k, [w for w in sol.elements if w != v])
                f_sol = f_sol - float(losses[vi])
                moved = True
        if not moved:
            return sol


def guided_random_greedy(
    handle: OracleHandle,
    guide: Solution,
    cfg: SolverConfig,
    rng: np.random.Generator | None = None,
) -> Solution:
    """`greedy_rounds` with the whole pool as each round's sample and its
    rank drawn uniformly from 1..min(k, m); the first ceil(k * t_s) rounds
    exclude the elements of `guide` from the pool. A pick with a negative
    gain is skipped, as in stochastic greedy. With a guide of real ids that
    never happens: round i's pool holds at least 2k - (i - 1) >= k + 1
    zero-gain dummies, so the rank-th best gain is never negative."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    k = cfg.k
    sol, _ = greedy_rounds(handle, guide.elements, k, math.ceil(k * cfg.t_s),
                           lambda pool, guided: (pool, int(rng.integers(min(k, len(pool)))) + 1))
    return sol


def random_greedy(
    handle: OracleHandle, cfg: SolverConfig, rng: np.random.Generator | None = None
) -> Solution:
    """Unguided special case: uniform pick from the top-k marginals. An
    empty guide sits out of nothing, so `cfg.t_s` does not matter."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    return guided_random_greedy(handle, Solution(cfg.k), cfg, rng)


def sample_greedy(
    handle: OracleHandle, cfg: SolverConfig, rng: np.random.Generator | None = None
) -> Solution:
    """Linear-query stochastic greedy: the guided variant with an empty
    guide and no flip phase."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    sol, _ = stochastic_greedy_core(handle, [], cfg.k, cfg.eps, 0.0, cfg.p_mode, rng)
    return sol


def warmup_solve(
    handle: OracleHandle, cfg: SolverConfig, rng: np.random.Generator | None = None
) -> Solution:
    """Classical local search followed by guided random greedy; returns the
    better of the two sets."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    guide = local_search(handle, cfg, rng)
    improved = guided_random_greedy(handle, guide, cfg, rng)
    return better_of(handle, guide, improved)
