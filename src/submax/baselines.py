"""Baseline solvers: the classical add/swap/delete local search, guided
random greedy, the two prior-art greedy baselines, and the warmup
combination of local search with guided random greedy."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .config import SolverConfig
from .fastsolve import best_initial_run, better_of, candidate_pool, stochastic_greedy_core
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
    sol = Solution(init.capacity, init.strip_dummies(handle.ground))
    mask = np.empty(handle.ground.n_real, dtype=bool)
    while True:
        outside = candidate_pool(mask, [], sol)
        moved = False
        if len(sol) < k and len(outside):
            gains = handle.marginal_many(outside, sol)
            ok = np.flatnonzero(_improves(f_sol + gains, f_sol, eps, k))
            if len(ok):
                u = int(outside[ok[0]])
                sol.add(u)
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
                    u = int(outside[ok[0]])
                    sol.remove(v)
                    sol.add(u)
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
                sol.remove(int(elems[vi]))
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
    """k rounds of uniform choice from the top-k marginal candidates; the
    first ceil(k * t_s) rounds exclude the elements of `guide` from the
    pool. Dummies keep the pool stocked with zero-marginal candidates, so
    negative additions are crowded out without an explicit clamp.

    A round draws the index of its pick among the top min(k, m) first and
    asks only for that many; the pool is one mask for the whole run."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    k = cfg.k
    n_total = handle.ground.total
    t_flip = math.ceil(k * cfg.t_s)
    sol = Solution(k)
    mask = np.ones(n_total, dtype=bool)  # the pool: not held, not excluded
    if t_flip:
        mask[guide.elements] = False
    for i in range(1, k + 1):
        if i == t_flip + 1:
            mask[guide.elements] = True  # the flip; no guide id was picked before it
        pool = np.flatnonzero(mask)
        if len(pool) == 0:
            continue
        idx = int(rng.integers(min(k, len(pool))))
        top, _ = handle.top_marginals(pool, sol, idx + 1)
        u = int(pool[top[-1]])
        sol.add(u)
        mask[u] = False
    return sol


def random_greedy(
    handle: OracleHandle, cfg: SolverConfig, rng: np.random.Generator | None = None
) -> Solution:
    """Unguided special case: uniform pick from the top-k marginals."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    return guided_random_greedy(handle, Solution(cfg.k), dataclasses.replace(cfg, t_s=0.0), rng)


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
