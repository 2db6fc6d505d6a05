"""Cross-cutting solver invariants: modular-instance quality, scaling
invariance, and whole-registry reproducibility."""

import numpy as np
import pytest

from submax.baselines import guided_random_greedy, local_search, warmup_solve
from submax.bench import ALGORITHMS
from submax.config import SolverConfig
from submax.fastsolve import solve_main
from submax.objectives import (
    COVERAGE,
    CUT,
    Instance,
    brute_force_opt,
    gen_synthetic,
    make_handle,
    objective_value,
)


def modular(weights):
    return Instance(kind=COVERAGE, data=np.diag(np.array(weights, dtype=float)), lam=0.0)


class TestModularQuality:
    def test_solve_main_recovers_top_k_weights(self):
        # Distinct positive weights; the sample fraction exceeds 1 at this
        # scale, so every round sees the whole pool.
        gen = np.random.default_rng(5)
        weights = np.sort(gen.random(10) + 0.5)[::-1]
        inst = modular(weights)
        top3 = float(weights[:3].sum())
        opt = brute_force_opt(make_handle(inst, 3), 3).opt_value
        assert opt == pytest.approx(top3, abs=1e-12)
        for seed in range(50):
            h = make_handle(inst, 3)
            sol = solve_main(h, SolverConfig(k=3, eps=0.1, seed=seed))
            val = objective_value(inst, sol.strip_dummies(h.ground))
            assert val >= top3 * 0.95


class TestWarmupMaxOfRoutes:
    def test_output_at_least_both_components(self):
        inst = gen_synthetic("graph-cut", 16, np.random.default_rng(1), density=0.5)
        cfg = SolverConfig(k=4, eps=0.2, seed=2)
        h = make_handle(inst, 4)
        sol = warmup_solve(h, cfg)
        val = objective_value(inst, sol.strip_dummies(h.ground))
        # replay both routes with the driver's random stream
        rng = np.random.default_rng(cfg.seed)
        guide = local_search(make_handle(inst, 4), cfg, rng)
        improved = guided_random_greedy(make_handle(inst, 4), guide, cfg, rng)
        assert val >= objective_value(inst, guide.strip_dummies(h.ground)) - 1e-12
        assert val >= objective_value(inst, improved.strip_dummies(h.ground)) - 1e-12


class TestScalingInvariance:
    def test_power_of_two_rescale_keeps_trajectories(self):
        # Exact-in-floating-point scalings must leave every order and sign
        # comparison unchanged, so selected sets match element for element.
        from submax.baselines import random_greedy, sample_greedy
        from submax.fastsolve import fast_local_search

        base = gen_synthetic("graph-cut", 24, np.random.default_rng(4), density=0.5)
        cfg = SolverConfig(k=4, eps=0.25, seed=5)
        for c in (0.125, 4.0):
            scaled = Instance(kind=CUT, data=base.data.toarray() * c)
            for solver in (solve_main, fast_local_search, sample_greedy,
                           random_greedy, local_search):
                s1 = solver(make_handle(base, 4), cfg)
                s2 = solver(make_handle(scaled, 4), cfg)
                assert s1.elements == s2.elements, solver.__name__


class TestRegistryReproducibility:
    def test_every_algorithm_is_seed_deterministic(self):
        inst = gen_synthetic("graph-cut", 18, np.random.default_rng(6), density=0.5)
        cfg = SolverConfig(k=3, eps=0.3, seed=8)
        for name, runner in ALGORITHMS.items():
            h1, h2 = make_handle(inst, 3), make_handle(inst, 3)
            s1, failed1 = runner(h1, cfg)
            s2, failed2 = runner(h2, cfg)
            assert s1.elements == s2.elements, name
            assert failed1 == failed2
            assert h1.ledger.queries == h2.ledger.queries, name

    def test_every_algorithm_output_value_nonnegative(self):
        for kind, seed in (("graph-cut", 1), ("coverage-diversity", 2),
                           ("facility-diversity", 3)):
            inst = gen_synthetic(kind, 14, np.random.default_rng(seed), density=0.5, lam=0.9)
            cfg = SolverConfig(k=4, eps=0.3, seed=seed)
            for name, runner in ALGORITHMS.items():
                h = make_handle(inst, 4)
                sol, _ = runner(h, cfg)
                val = objective_value(inst, sol.strip_dummies(h.ground))
                assert val >= -1e-12, (name, kind)


class TestGramFeatureDim:
    def test_similarity_instances_have_low_rank(self):
        inst = gen_synthetic("coverage-diversity", 100, np.random.default_rng(7), lam=0.75)
        assert np.linalg.matrix_rank(inst.data) == 25
