"""Ground set, solution, ledger, and oracle-contract tests."""

import numpy as np
import pytest

from submax.errors import ConstraintError, ElementError, SubmaxError
from submax.objectives import CUT, Instance, gen_synthetic, make_handle, objective_value
from submax.oracle import (
    OracleHandle,
    QueryLedger,
    Solution,
    make_ground_set,
    submodularity_probe,
)


def edge_instance(n, edges):
    w = np.zeros((n, n))
    for u, v, wt in edges:
        w[u, v] = w[v, u] = wt
    return Instance(kind=CUT, data=w)


class TestGroundSet:
    def test_dummy_suffix(self):
        g = make_ground_set(10, 3)
        assert g.total == 16
        assert list(g.dummy_ids()) == list(range(10, 16))

    def test_minimal(self):
        assert make_ground_set(1, 1).total == 3

    def test_k_exceeds_n(self):
        with pytest.raises(ConstraintError):
            make_ground_set(5, 6)

    def test_k_zero(self):
        with pytest.raises(ConstraintError):
            make_ground_set(5, 0)


class TestSolution:
    def test_duplicate_rejected(self):
        s = Solution(3, [1, 2])
        with pytest.raises(SubmaxError):
            s.add(1)

    def test_capacity_enforced(self):
        s = Solution(2, [1, 2])
        with pytest.raises(SubmaxError):
            s.add(3)

    def test_strip_dummies(self):
        g = make_ground_set(4, 2)
        s = Solution(2, [1, 5])
        assert s.strip_dummies(g) == [1]


class TestValueAndMarginal:
    def setup_method(self):
        # path 0 - 1 - 2 with unit weights
        self.inst = edge_instance(3, [(0, 1, 1.0), (1, 2, 1.0)])
        self.h = make_handle(self.inst, 2)

    def test_empty_and_full_cut(self):
        assert self.h.value(Solution(2)) == 0.0
        full = Solution(3, [0, 1, 2])
        assert self.h.value(full) == 0.0

    def test_center_of_path(self):
        assert self.h.value(Solution(2, [1])) == 2.0

    def test_dummy_invariance(self):
        base = self.h.value(Solution(2, [1]))
        with_dummy = self.h.value(Solution(2, [1, 4]))
        assert abs(with_dummy - base) <= 1e-12
        with_all_dummies = self.h.value(Solution(5, [1, 3, 4, 5, 6]))
        assert abs(with_all_dummies - base) <= 1e-12

    def test_dummy_marginal_zero(self):
        assert self.h.marginal(5, Solution(2, [1])) == 0.0

    def test_member_marginal_zero(self):
        assert self.h.marginal(1, Solution(2, [1])) == 0.0

    def test_single_edge_marginal(self):
        inst = edge_instance(2, [(0, 1, 2.0)])
        h = make_handle(inst, 1)
        assert h.marginal(0, Solution(1)) == 2.0

    def test_out_of_range(self):
        with pytest.raises(ElementError):
            self.h.marginal(99, Solution(2))
        with pytest.raises(ElementError):
            self.h.value(Solution(2, [42]))
        with pytest.raises(ElementError, match="element id -1 "):
            self.h.marginal_many(np.array([0, -1, 99]), Solution(2))
        # Both ends of the range, and an id far past it, on every route
        # that takes a candidate id.
        total = self.h.ground.total
        for bad in (-1, total, 2**40):
            for query in (
                lambda: self.h.marginal_many(np.array([0, bad, 1]), Solution(2)),
                lambda: self.h.top_marginals(np.array([0, bad, 1]), Solution(2), 1),
                lambda: self.h.value(Solution(2, [0]), add=bad),
                lambda: self.h.value(Solution(2, [0]), drop=bad),
                lambda: self.h.value(Solution(2, [0]), drop=0, add=bad),
            ):
                with pytest.raises(ElementError, match=f"element id {bad} outside"):
                    query()
        # The set's ids are checked too, whichever method sees the set first.
        for query in (
            lambda sol: self.h.marginal_many(np.array([0]), sol),
            lambda sol: self.h.removal_losses(sol),
        ):
            with pytest.raises(ElementError, match="element id 42 "):
                query(Solution(2, [1, 42]))

    def test_out_of_range_append(self):
        # A set that grew by one `Solution.add` since the last query is
        # synced by appending that element; a bad id still raises, names
        # the id, and leaves the handle answering as before.
        total = self.h.ground.total
        for bad in (-1, total, 2**40):
            for query in (
                lambda sol: self.h.marginal_many(np.array([0]), sol),
                lambda sol: self.h.top_marginals(np.array([0, 2]), sol, 1),
                lambda sol: self.h.marginal(2, sol),
                lambda sol: self.h.removal_losses(sol),
                lambda sol: self.h.value(sol),
            ):
                sol = Solution(2, [1])
                self.h.marginal_many(np.array([0, 2]), sol)
                sol.add(bad)
                for _ in range(2):  # the failed sync left the handle as it was
                    with pytest.raises(ElementError, match=f"element id {bad} outside"):
                        query(sol)
                assert self.h.marginal_many(np.array([0, 2]), Solution(2, [1])).tolist() == [-1.0, -1.0]

    def test_drop_add_composition(self):
        rng = np.random.default_rng(0)
        inst = gen_synthetic("graph-cut", 10, rng, density=0.7)
        h = make_handle(inst, 4)
        sol = Solution(4, [0, 3, 7])
        swapped = h.value(sol, drop=3, add=5)
        direct = h.value(Solution(4, [0, 7, 5]))
        assert abs(swapped - direct) <= 1e-9
        dropped = h.value(sol, drop=0)
        assert abs(dropped - h.value(Solution(4, [3, 7]))) <= 1e-9
        added = h.value(sol, add=9)
        assert abs(added - h.value(Solution(4, [0, 3, 7, 9]))) <= 1e-9
        # Dropping a non-member changes nothing.
        assert h.value(sol, drop=1) == h.value(sol)
        assert h.value(sol, drop=1, add=9) == added

    def test_drop_and_add_of_one_non_member_adds_it(self):
        # Dropping a non-member changes nothing, so only a member's drop
        # cancels its add; this call once returned f(S) = 3.7792.
        inst = gen_synthetic("graph-cut", 10, np.random.default_rng(0), density=0.7)
        h = make_handle(inst, 4)
        sol = Solution(4, [0, 3])
        got = h.value(sol, drop=5, add=5)
        assert abs(got - objective_value(inst, [0, 3, 5])) <= 1e-9
        assert got == h.value(sol, drop=1, add=5)
        assert h.value(sol, drop=3, add=3) == h.value(sol)

    def test_removal_losses_match_scalar(self):
        rng = np.random.default_rng(1)
        inst = gen_synthetic("coverage-diversity", 9, rng, lam=0.6)
        h = make_handle(inst, 3)
        sol = Solution(3, [2, 5, 10])  # one dummy in the mix
        losses = h.removal_losses(sol)
        for i, v in enumerate(sol.elements):
            assert losses[i] == h.marginal(v, sol, drop=v)
        # loss equals the value drop when the element leaves
        f_s = h.value(sol)
        assert abs(losses[0] - (f_s - h.value(sol, drop=2))) <= 1e-9

    def test_marginal_many_matches_scalar(self):
        rng = np.random.default_rng(2)
        inst = gen_synthetic("facility-diversity", 8, rng)
        h = make_handle(inst, 3)
        sol = Solution(3, [1, 4])
        ids = np.array([0, 1, 2, 9, 7])
        batch = h.marginal_many(ids, sol)
        singles = [h.marginal(int(u), sol) for u in ids]
        assert np.allclose(batch, singles, atol=1e-12)

    def test_marginal_many_zeroes_held_members(self):
        rng = np.random.default_rng(3)
        inst = gen_synthetic("facility-diversity", 10, rng)
        h = make_handle(inst, 4)  # ids 10..17 are dummies
        sol = Solution(4, [2, 5, 11, 7])
        # members, a held dummy, free dummies, non-members, and repeats
        us = np.array([2, 5, 7, 11, 12, 17, 0, 9, 5, 2, 0, 11, 3])
        plain = h.marginal_many(us, sol)
        for drop in (None, 5, 11, 4, 16):
            before = h.ledger.queries
            batch = h.marginal_many(us, sol, drop=drop)
            assert h.ledger.queries - before == len(us)
            if drop not in sol:  # dropping a non-member changes nothing
                assert np.array_equal(batch, plain)
            singles = [h.marginal(int(u), sol, drop=drop) for u in us]
            assert np.array_equal(batch, singles)
            for i, u in enumerate(us):
                if u >= 10 or (u in sol and u != drop):
                    assert batch[i] == 0.0
                else:
                    assert batch[i] != 0.0


class TestSwapLocalPaths:
    def test_drop_add_fuzz_incl_tied_similarities(self):
        # Duplicated columns and exact ties stress the facility runner-up
        # bookkeeping; random instances cover the generic case.
        from submax.objectives import FACILITY, Instance, objective_value

        gen = np.random.default_rng(99)
        dup = np.array([
            [1.0, 1.0, 0.0, 2.0, 1.0],
            [1.0, 1.0, 0.0, 2.0, 1.0],
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [2.0, 2.0, 0.0, 4.0, 2.0],
            [1.0, 1.0, 0.0, 2.0, 1.0],
        ])
        instances = [
            Instance(kind=FACILITY, data=dup),
            gen_synthetic("facility-diversity", 11, np.random.default_rng(1)),
            gen_synthetic("graph-cut", 11, np.random.default_rng(2), density=0.6),
            gen_synthetic("coverage-diversity", 11, np.random.default_rng(3), lam=0.85),
        ]
        worst = 0.0
        for inst in instances:
            n = inst.n_real
            h = make_handle(inst, n)
            for _ in range(800):
                size = int(gen.integers(1, n))
                ids = list(gen.choice(n, size=size, replace=False))
                sol = Solution(n, ids)
                v = int(ids[gen.integers(0, len(ids))])
                rest = [x for x in ids if x != v]
                worst = max(worst, abs(h.value(sol, drop=v) - objective_value(inst, rest)))
                outside = [x for x in range(n) if x not in ids]
                if outside:
                    u = int(outside[gen.integers(0, len(outside))])
                    swap = objective_value(inst, rest + [u])
                    worst = max(worst, abs(h.value(sol, drop=v, add=u) - swap))
                    marg = swap - objective_value(inst, rest)
                    worst = max(worst, abs(h.marginal(u, sol, drop=v) - marg))
        assert worst <= 1e-9


class TestMarginalConsistency:
    def test_marginal_equals_value_difference(self):
        rng = np.random.default_rng(3)
        gen = np.random.default_rng(0)
        for kind in ("graph-cut", "coverage-diversity", "facility-diversity"):
            inst = gen_synthetic(kind, 12, rng, density=0.5)
            h = make_handle(inst, 4)
            for _ in range(300):
                size = int(gen.integers(0, 5))
                ids = gen.choice(12, size=size, replace=False)
                u = int(gen.integers(0, 12))
                sol = Solution(5, ids)
                m = h.marginal(u, sol)
                if u in sol:
                    assert m == 0.0
                    continue
                plus = Solution(6, list(ids) + [u])
                diff = h.value(plus) - h.value(sol)
                assert abs(m - diff) <= 1e-9


class _CountingProxy:
    """Forwarding wrapper used to audit the ledger's query accounting."""

    def __init__(self, handle):
        self._inner = handle
        self.count = 0

    def value(self, *args, **kwargs):
        self.count += 1
        return self._inner.value(*args, **kwargs)

    def marginal(self, *args, **kwargs):
        self.count += 1
        return self._inner.marginal(*args, **kwargs)

    def marginal_many(self, us, *args, **kwargs):
        self.count += len(us)
        return self._inner.marginal_many(us, *args, **kwargs)

    def top_marginals(self, us, *args, **kwargs):
        self.count += len(us)
        return self._inner.top_marginals(us, *args, **kwargs)

    def removal_losses(self, sol):
        self.count += len(sol)
        return self._inner.removal_losses(sol)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestQueryAccounting:
    def test_single_calls_charge_one(self):
        inst = edge_instance(3, [(0, 1, 1.0)])
        h = make_handle(inst, 1)
        h.value(Solution(1, [0]))
        assert h.ledger.queries == 1
        h.marginal(1, Solution(1))
        assert h.ledger.queries == 2
        h.marginal(3, Solution(1))  # dummy still costs a query
        assert h.ledger.queries == 3
        h.marginal_many(np.array([0, 1, 2]), Solution(1))
        assert h.ledger.queries == 6

    def test_double_wrapped_solver_run_matches_ledger(self):
        from submax.config import SolverConfig
        from submax.fastsolve import solve_main

        rng = np.random.default_rng(4)
        inst = gen_synthetic("graph-cut", 30, rng, density=0.4)
        h = make_handle(inst, 4)
        outer = _CountingProxy(_CountingProxy(h))
        solve_main(outer, SolverConfig(k=4, eps=0.25, seed=9))
        assert outer.count == h.ledger.queries
        assert outer._inner.count == h.ledger.queries
        assert h.ledger.queries > 0


class _SetSizeSquared:
    """Intentionally supermodular stub: f(S) = |S|^2."""

    def __init__(self):
        self.ids = []

    def reset(self, ids):
        cut = self.ids != ids[:len(self.ids)]
        self.ids = list(ids)
        return cut

    def add(self, u):
        self.ids.append(u)

    def value(self):
        return float(len(self.ids) ** 2)

    def gain_many(self, us, drop=None):
        m = len(self.ids) - (1 if drop in self.ids else 0)
        return np.full(len(us), float((m + 1) ** 2 - m**2))

    def loss_many(self, vs):
        return np.array([self.gain_many(np.array([v]), int(v))[0] for v in vs])


class _CrossingGains:
    """Supermodular stub: f(S) = sum_{v in S} v + sum_{u<v in S} (300 - 2u - 2v),
    so f(u | S) = u + sum_{v in S} (300 - 2u - 2v). On the empty set the
    highest id gains most; once S holds one element the lowest id does."""

    def __init__(self):
        self.ids = []

    def reset(self, ids):
        cut = self.ids != ids[:len(self.ids)]
        self.ids = list(ids)
        return cut

    def add(self, u):
        self.ids.append(u)

    def gain_many(self, us, drop=None):
        rest = [v for v in self.ids if v != drop]
        return us + len(rest) * (300.0 - 2.0 * us) - 2.0 * sum(rest)


class _RoundingDrift:
    """Modular stub f(u | S) = (u + 1)(1 + 1e-12 |S|): each append raises
    every marginal by far less than BOUND_SLACK, as rounding might."""

    def __init__(self):
        self.ids = []

    def reset(self, ids):
        cut = self.ids != ids[:len(self.ids)]
        self.ids = list(ids)
        return cut

    def add(self, u):
        self.ids.append(u)

    def gain_many(self, us, drop=None):
        return (us + 1.0) * (1.0 + 1e-12 * len(self.ids))


class TestTopMarginals:
    def test_a_rise_within_the_slack_keeps_the_bounds(self):
        # The bounds kept across the append are widened, so the rise is not
        # a wrong bound: the head (ids 6 and 5) answers, and 2 are evaluated
        # rather than every stale candidate.
        h = OracleHandle(_RoundingDrift(), make_ground_set(8, 2))
        us = np.arange(8)
        sol = Solution(2)
        h.top_marginals(us, sol, 1)
        sol.add(7)
        before = h.ledger.evaluated
        top, gains = h.top_marginals(us, sol, 1)
        assert top.tolist() == [6] and gains.tolist() == [7.0 * (1.0 + 1e-12)]
        assert h.ledger.evaluated - before == 2

    def test_wrong_bounds_are_refreshed(self):
        # Every bound kept from the empty set is too low, and it ranks the
        # candidates the wrong way round: the ones it puts first are not the
        # answer, and the answer's bounds are below every fresh gain.
        ground = make_ground_set(8, 2)
        us = np.arange(ground.total)
        h = OracleHandle(_CrossingGains(), ground)
        sol = Solution(4)
        for u in (7, 5):
            h.top_marginals(us, sol, 2)
            sol.add(u)
            fresh = OracleHandle(_CrossingGains(), ground)
            gains = fresh.marginal_many(us, sol)
            want = np.lexsort((us, -gains))[:2]
            top, got = h.top_marginals(us, sol, 2)
            assert np.array_equal(us[top], [0, 1])
            assert np.array_equal(top, want)
            assert np.array_equal(got, gains[want])

    def test_zero_bound_tie_is_evaluated(self):
        # Widening leaves a bound of 0 at 0, so a candidate whose gain stays
        # 0 is evaluated only because its key may equal f_r. Here it ties
        # with the held member 1 and the dummies, and wins on its lower id.
        inst = edge_instance(4, [(1, 2, 1.0), (1, 3, 1.0)])
        h = make_handle(inst, 2)
        us = np.arange(h.ground.total)
        h.marginal_many(us, Solution(2))  # bounds: 0, 2, 1, 1
        sol = Solution(2, [1])  # gains now: 0, held, -1, -1
        top, gains = h.top_marginals(us, sol, 1)
        assert top.tolist() == [0] and gains.tolist() == [0.0]


class TestSubmodularityProbe:
    def test_real_objectives_pass(self):
        rng = np.random.default_rng(5)
        for kind in ("graph-cut", "coverage-diversity", "facility-diversity"):
            inst = gen_synthetic(kind, 10, rng, density=0.5)
            h = make_handle(inst, 3)
            assert submodularity_probe(h, 1000, np.random.default_rng(6))

    def test_supermodular_stub_fails(self):
        h = OracleHandle(_SetSizeSquared(), make_ground_set(8, 2))
        assert not submodularity_probe(h, 200, np.random.default_rng(7))

    def test_zero_trials_rejected(self):
        rng = np.random.default_rng(8)
        inst = gen_synthetic("graph-cut", 6, rng)
        h = make_handle(inst, 2)
        with pytest.raises(SubmaxError):
            submodularity_probe(h, 0, rng)


class TestReproducibility:
    def test_same_config_same_output_and_ledger(self):
        from submax.baselines import random_greedy, sample_greedy
        from submax.config import SolverConfig
        from submax.fastsolve import solve_main

        rng = np.random.default_rng(9)
        inst = gen_synthetic("coverage-diversity", 25, rng, lam=0.75)
        cfg = SolverConfig(k=5, eps=0.2, seed=77)
        for solver in (solve_main, random_greedy, sample_greedy):
            h1, h2 = make_handle(inst, 5), make_handle(inst, 5)
            s1, s2 = solver(h1, cfg), solver(h2, cfg)
            assert s1.elements == s2.elements
            assert h1.ledger.queries == h2.ledger.queries
