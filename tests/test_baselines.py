"""Classical local search, guided random greedy, and the two prior-art
greedy baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submax import baselines
from submax.baselines import (
    guided_random_greedy,
    local_search,
    random_greedy,
    sample_greedy,
    warmup_solve,
)
from submax.config import SolverConfig
from submax.objectives import (
    COVERAGE,
    CUT,
    KINDS,
    Instance,
    brute_force_opt,
    gen_synthetic,
    make_handle,
    objective_value,
)
from submax.oracle import Solution


def modular(weights, lam=0.0):
    """Diagonal similarity: coverage value reduces to the weight sum."""
    return Instance(kind=COVERAGE, data=np.diag(np.array(weights, dtype=float)), lam=lam)


class TestLocalSearch:
    def test_modular_top_k(self):
        inst = modular([5.0, 4.0, 1.0])
        h = make_handle(inst, 2)
        sol = local_search(h, SolverConfig(k=2, eps=0.01, seed=0))
        assert sol.sorted_tuple() == (0, 1)
        assert objective_value(inst, sol.elements) == pytest.approx(9.0)

    def test_single_positive_element(self):
        inst = modular([5.0])
        h = make_handle(inst, 1)
        sol = local_search(h, SolverConfig(k=1, eps=0.1, seed=0))
        assert sol.sorted_tuple() == (0,)

    def test_lemma_inequalities_vs_enumerated_opt(self):
        # f(S) >= (f(S u OPT) + f(S n OPT)) / (2 + eps) and
        # f(S) >= f(S n OPT) / (1 + eps), with enumerated OPT.
        rng = np.random.default_rng(1)
        eps = 0.2
        for i in range(6):
            kind = ("graph-cut", "coverage-diversity")[i % 2]
            inst = gen_synthetic(kind, 10 + i % 3, rng, density=0.5, lam=0.75)
            k = 3
            h = make_handle(inst, k)
            sol = local_search(h, SolverConfig(k=k, eps=eps, seed=i))
            cert = brute_force_opt(make_handle(inst, k), k)
            s = set(sol.elements)
            opt = set(cert.opt_set.elements)
            f_s = objective_value(inst, s)
            f_union = objective_value(inst, s | opt)
            f_inter = objective_value(inst, s & opt)
            assert f_s >= (f_union + f_inter) / (2.0 + eps) - 1e-9
            assert f_s >= f_inter / (1.0 + eps) - 1e-9


def cut_graph(n, edges):
    w = np.zeros((n, n))
    for u, v, weight in edges:
        w[u, v] = w[v, u] = weight
    return Instance(kind=CUT, data=w)


# Integer weights, so every value below is exact. Each trajectory is
# worked out from the rule: below k the first outside id (in id order)
# whose addition reaches (1 + eps/k) f(S), at k the first swap (v, then u,
# in id order) that does, and only without such a move the first member
# whose removal does; while f(S) <= 0 any strictly positive value does.
MOVE_CASES = {
    # f({0}) = 5, eps/k = 0.1: add 1 (6 >= 5.5, the first id, not the best
    # gain), add 2 (10 >= 6.6), then at k swap 1 for 3 (11 >= 11); no move
    # reaches 12.1.
    "add": (modular([5.0, 1.0, 4.0, 2.0]), 3, [0], [[0], [0, 1], [0, 1, 2], [0, 2, 3]]),
    # Cut of {0, 1} = 1 + 2 = 3, eps/k = 0.1: no addition reaches 3.3
    # ({0, 1, 2} cuts 2, {0, 1, 3} cuts 1), so delete 0 ({1} cuts 4 + 2 = 6),
    # then add 2 ({1, 2} cuts 4 + 2 + 1 = 7 >= 6.6); nothing reaches 7.7.
    "delete": (cut_graph(4, [(0, 1, 4.0), (0, 2, 1.0), (1, 3, 2.0)]), 3, [0, 1],
               [[0, 1], [1], [1, 2]]),
    # f({0}) = 0: id 1 adds 0, which is not positive, so add 2 (3 > 0);
    # then at k swap 0 for 3 (4 >= 3.45, eps/k = 0.15); nothing reaches 4.6.
    "zero-value": (modular([0.0, 0.0, 3.0, 1.0]), 2, [0], [[0], [0, 2], [2, 3]]),
}


@pytest.mark.parametrize("case", sorted(MOVE_CASES))
def test_local_search_moves(monkeypatch, case):
    inst, k, start, trajectory = MOVE_CASES[case]
    eps = 0.3
    f_start = objective_value(inst, start)
    monkeypatch.setattr(baselines, "best_initial_run",
                        lambda *a: (Solution(k, start), f_start))
    h = make_handle(inst, k)
    seen = []  # the set at every oracle call, without consecutive repeats
    marginal_many, removal_losses = h.marginal_many, h.removal_losses

    def note(sol):
        if not seen or seen[-1] != sol.elements:
            seen.append(list(sol.elements))
        return sol

    h.marginal_many = lambda us, sol, drop=None: marginal_many(us, note(sol), drop)
    h.removal_losses = lambda sol: removal_losses(note(sol))
    sol = local_search(h, SolverConfig(k=k, eps=eps, seed=0))
    assert seen == trajectory
    assert sol.elements == trajectory[-1]


class TestGuidedRandomGreedy:
    def test_top1_forced(self):
        inst = modular([3.0, 1.0, 2.0])
        h = make_handle(inst, 1)
        cfg = SolverConfig(k=1, seed=0)
        sol = guided_random_greedy(h, Solution(1), cfg)
        assert sol.sorted_tuple() == (0,)

    def test_guided_away_from_everything(self):
        inst = modular([3.0, 1.0, 2.0])
        h = make_handle(inst, 2)
        cfg = SolverConfig(k=2, t_s=1.0, seed=3)
        guide = Solution(3, [0, 1, 2])  # every real element
        sol = guided_random_greedy(h, guide, cfg)
        reals = sol.strip_dummies(h.ground)
        assert reals == []
        assert objective_value(inst, reals) == 0.0

    def test_phase_one_never_touches_guide(self):
        rng = np.random.default_rng(2)
        inst = gen_synthetic("graph-cut", 20, rng, density=0.5)
        guide = Solution(5, [0, 1, 2, 3, 4])
        cfg = SolverConfig(k=5, t_s=1.0, seed=11)
        sol = guided_random_greedy(make_handle(inst, 5), guide, cfg)
        assert not set(sol.elements) & set(guide.elements)

    def test_capacity_respected_after_strip(self):
        rng = np.random.default_rng(3)
        inst = gen_synthetic("coverage-diversity", 15, rng)
        h = make_handle(inst, 4)
        sol = guided_random_greedy(h, Solution(4), SolverConfig(k=4, seed=5))
        assert len(sol.strip_dummies(h.ground)) <= 4


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_random_greedy_adds_a_pick_every_round(data):
    # Random greedy shares stochastic greedy's rule of skipping a pick whose
    # gain is negative. Every package caller passes an empty guide or one of
    # real ids, so round i's pool keeps at least 2k - (i - 1) >= k + 1
    # zero-gain dummies and the pick of rank <= k is never negative: every
    # round adds, dummies included, even where real gains go negative.
    kind = data.draw(st.sampled_from(KINDS))
    n = data.draw(st.integers(2, 12))
    k = data.draw(st.integers(1, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    inst = gen_synthetic(kind, n, rng, density=data.draw(st.floats(0.2, 1.0)),
                         lam=data.draw(st.floats(0.0, 1.0)))
    seed = data.draw(st.integers(0, 2**16))
    sol = random_greedy(make_handle(inst, k), SolverConfig(k=k, seed=seed))
    assert len(sol) == k
    guide = Solution(k, data.draw(st.lists(st.integers(0, n - 1), max_size=k, unique=True)))
    cfg = SolverConfig(k=k, t_s=1.0, seed=seed)
    sol = guided_random_greedy(make_handle(inst, k), guide, cfg)
    assert len(sol) == k


class TestRandomGreedy:
    def test_k1_modular_argmax(self):
        inst = modular([3.0, 1.0, 2.0])
        h = make_handle(inst, 1)
        sol = random_greedy(h, SolverConfig(k=1, seed=0))
        assert sol.sorted_tuple() == (0,)

    def test_query_count_linear_in_nk(self):
        # measured C = queries / (n k) stays stable across n
        ratios = []
        for n in (40, 80):
            inst = gen_synthetic("graph-cut", n, np.random.default_rng(4), density=0.3)
            h = make_handle(inst, 5)
            random_greedy(h, SolverConfig(k=5, seed=1))
            ratios.append(h.ledger.queries / (n * 5))
        assert 0.5 < ratios[0] < 2.0
        assert abs(ratios[0] - ratios[1]) / ratios[0] < 0.25

    def test_one_over_e_ratio_on_small_instances(self):
        rng = np.random.default_rng(5)
        ratios = []
        for i in range(20):
            inst = gen_synthetic("graph-cut", 10, rng, density=0.6)
            cert = brute_force_opt(make_handle(inst, 3), 3)
            if cert.opt_value <= 0:
                continue
            h = make_handle(inst, 3)
            sol = random_greedy(h, SolverConfig(k=3, seed=i))
            ratios.append(objective_value(inst, sol.strip_dummies(h.ground)) / cert.opt_value)
        assert np.mean(ratios) >= 1.0 / np.e


class TestSampleGreedy:
    def test_k1_forced_argmax(self):
        inst = modular([3.0, 1.0, 2.0])
        h = make_handle(inst, 1)
        sol = sample_greedy(h, SolverConfig(k=1, eps=0.1, seed=0))
        assert sol.sorted_tuple() == (0,)

    def test_query_budget_independent_of_k(self):
        # Practical sampling caps the total at about (8 / eps) * n whatever
        # k is; once k exceeds 8 / eps the measured count itself plateaus.
        n, eps = 300, 0.45
        inst = gen_synthetic("graph-cut", n, np.random.default_rng(6), density=0.1)
        per_total = {}
        for k in (5, 10, 20, 60, 100):
            h = make_handle(inst, k)
            sample_greedy(h, SolverConfig(k=k, eps=eps, seed=2))
            n_total = n + 2 * k
            assert h.ledger.queries <= (8.0 / eps + 1.0) * n_total
            per_total[k] = h.ledger.queries / n_total
        assert abs(per_total[60] - per_total[100]) / per_total[60] < 0.25


class TestWarmup:
    def test_beats_its_components(self):
        rng = np.random.default_rng(7)
        inst = gen_synthetic("graph-cut", 18, rng, density=0.5)
        cfg = SolverConfig(k=4, eps=0.2, seed=13)
        h = make_handle(inst, 4)
        combined = warmup_solve(h, cfg)
        f_combined = objective_value(inst, combined.strip_dummies(h.ground))
        h2 = make_handle(inst, 4)
        ls = local_search(h2, cfg)
        f_ls = objective_value(inst, ls.strip_dummies(h2.ground))
        assert f_combined >= f_ls - 1e-12
        assert f_combined >= 0.0

    def test_query_count_order_nk_squared(self):
        n, k = 40, 4
        inst = gen_synthetic("graph-cut", n, np.random.default_rng(8), density=0.4)
        h = make_handle(inst, k)
        warmup_solve(h, SolverConfig(k=k, eps=0.2, seed=3))
        assert h.ledger.queries <= 50 * n * k * k
