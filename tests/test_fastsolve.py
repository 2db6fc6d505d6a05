"""Fast local search, guided stochastic greedy, the combined driver, and
the guarantee-coefficient optimizer."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import submax.fastsolve as fs
from submax.bench import ALGORITHMS
from submax.config import (
    DEFAULT_FLIP_POINT,
    FROZEN_BOUND_P,
    FROZEN_BOUND_VALUE,
    SolverConfig,
    attempts_count,
    iteration_count,
    sample_rate,
)
from submax.errors import ConfigError, SolutionSizeError
from submax.objectives import (
    COVERAGE,
    CUT,
    Instance,
    gen_synthetic,
    make_handle,
    objective_value,
)
from submax.oracle import Solution


def modular(weights, lam=0.0):
    return Instance(kind=COVERAGE, data=np.diag(np.array(weights, dtype=float)), lam=lam)


@pytest.mark.parametrize("field, value, what", [
    ("k", 0, "k must be >= 1, got 0"),
    ("eps", 0.0, "eps must lie in"),
    ("eps", 1.0, "eps must lie in"),
    ("t_s", -0.1, "t_s must lie in"),
    ("t_s", 1.5, "t_s must lie in"),
    ("p_mode", "exact", "unknown p_mode 'exact'"),
])
def test_solver_config_rejects_an_out_of_range_field(field, value, what):
    with pytest.raises(ConfigError, match=what):
        SolverConfig(**{"k": 3, "eps": 0.25, field: value})


class TestHelpers:
    def test_repetition_counts(self):
        assert attempts_count(0.1) == 4
        assert attempts_count(0.5) == 1
        assert attempts_count(0.25) == 2

    def test_iteration_count_formula(self):
        assert iteration_count(10, 0.25) == math.ceil(160 / (0.25 * (1 - 1 / math.e)))

    def test_practical_sample_rate(self):
        assert sample_rate(100, 0.1, "practical") == pytest.approx(0.8)
        assert sample_rate(10, 0.1, "theoretical") == pytest.approx(
            8.0 / (10 * 0.01) * math.log(20.0), rel=1e-9
        )

    @pytest.mark.parametrize("before", [[0] * 6, [1] * 6, [1, 0, 0, 1, 1, 0]],
                             ids=["zeros", "ones", "mixed"])
    def test_candidate_pool_leaves_out_held_ids(self, before):
        # The mask is scratch: what it held before never reaches the pool.
        mask = np.array(before, dtype=bool)
        assert fs.candidate_pool(mask, Solution(3, [4, 1])).tolist() == [0, 2, 3, 5]
        assert fs.candidate_pool(mask, Solution(3, [5, 0, 2])).tolist() == [1, 3, 4]
        assert fs.candidate_pool(mask, Solution(3)).tolist() == [0, 1, 2, 3, 4, 5]


class TestInitSolution:
    def test_padded_to_exactly_k(self):
        inst = gen_synthetic("graph-cut", 12, np.random.default_rng(0), density=0.5)
        h = make_handle(inst, 4)
        sol = fs.init_solution(h, SolverConfig(k=4, eps=0.1, seed=1))
        assert len(sol) == 4

    def test_short_start_padded_with_lowest_free_dummies(self, monkeypatch):
        inst = gen_synthetic("graph-cut", 12, np.random.default_rng(0), density=0.5)
        h = make_handle(inst, 4)
        d = list(h.ground.dummy_ids())
        # The greedy start holds one real id and the second dummy.
        monkeypatch.setattr(fs, "stochastic_greedy_core",
                            lambda *a: (Solution(4, [3, d[1]]), 1.0))
        sol = fs.init_solution(h, SolverConfig(k=4, eps=0.1, seed=1))
        assert sol.elements == [3, d[1], d[0], d[2]]

    def test_reproducible(self):
        inst = gen_synthetic("coverage-diversity", 12, np.random.default_rng(1))
        cfg = SolverConfig(k=3, eps=0.1, seed=5)
        a = fs.init_solution(make_handle(inst, 3), cfg)
        b = fs.init_solution(make_handle(inst, 3), cfg)
        assert a.elements == b.elements


class TestCheckLocalOpt:
    def test_top_k_satisfied(self):
        inst = modular([5.0, 4.0, 1.0])
        h = make_handle(inst, 2)
        report = fs.check_local_opt_condition(h, Solution(2, [0, 1]), eps=0.0)
        assert report.satisfied
        assert report.f_value == pytest.approx(9.0)
        assert len(report.removal_losses) == 2
        assert len(report.add_gains) == h.ground.total - 2

    def test_bottom_k_violated_at_t1(self):
        inst = modular([5.0, 4.0, 1.0])
        h = make_handle(inst, 1)
        report = fs.check_local_opt_condition(h, Solution(1, [2]), eps=0.0)
        assert not report.satisfied
        assert report.worst_t == 1

    def test_t0_never_violates(self):
        inst = modular([5.0, 4.0, 1.0])
        h = make_handle(inst, 1)
        report = fs.check_local_opt_condition(h, Solution(1, [2]), eps=0.0)
        # margin at t = 0 is -eps * f(S) <= 0
        assert report.add_gains[0] > 0

    def test_all_zero_objective_passes_any_set(self):
        inst = Instance(kind=CUT, data=np.zeros((6, 6)))
        h = make_handle(inst, 2)
        report = fs.check_local_opt_condition(h, Solution(2, [0, 5]), eps=0.0)
        assert report.satisfied

    def test_size_mismatch_rejected(self):
        inst = modular([1.0, 2.0, 3.0])
        h = make_handle(inst, 2)
        with pytest.raises(SolutionSizeError):
            fs.check_local_opt_condition(h, Solution(2, [0]), eps=0.1)


class TestFastLocalSearch:
    def test_attempt_queries_match_budget_exactly(self):
        inst = gen_synthetic("graph-cut", 50, np.random.default_rng(2), density=0.3)
        cfg = SolverConfig(k=5, eps=0.5, seed=3)
        assert attempts_count(cfg.eps) == 1
        h = make_handle(inst, 5)
        fs.fast_local_search(h, cfg)
        init = make_handle(inst, 5)
        fs.init_solution(init, cfg)
        budget = fs.attempt_query_budget(h.ground.total, 5, iteration_count(5, 0.5))
        # the initial solution, one value of it, then the single attempt
        assert h.ledger.queries == init.ledger.queries + 1 + budget

    def test_trajectory_monotone(self, monkeypatch):
        inst = gen_synthetic("graph-cut", 60, np.random.default_rng(4), density=0.3)
        h = make_handle(inst, 6)
        attempts = [[]]  # per attempt, (serial, value) of every swap evaluation
        value = h.value
        check = fs.check_local_opt_condition

        def recording_value(sol, drop=None, add=None):
            result = value(sol, drop, add)
            if drop is not None:
                attempts[-1].append((sol.serial, result))
            return result

        def recording_check(*args):
            attempts.append([])
            return check(*args)

        h.value = recording_value
        monkeypatch.setattr(fs, "check_local_opt_condition", recording_check)
        fs.fast_local_search(h, SolverConfig(k=6, eps=0.25, seed=5))
        # A swap was accepted when the next evaluation of the attempt lands
        # on a set never seen before: a swap makes a new `Solution`.
        accepted = []
        for swaps in attempts:
            seen = {serial for serial, _ in swaps[:1]}
            values = []
            for (_, f), (serial_next, _) in zip(swaps, swaps[1:]):
                if serial_next not in seen:
                    seen.add(serial_next)
                    values.append(f)
            assert all(b > a for a, b in zip(values, values[1:]))
            accepted += values
        assert accepted

    def test_every_attempt_failing_returns_none_after_its_budget(self, monkeypatch):
        inst = gen_synthetic("graph-cut", 30, np.random.default_rng(2), density=0.3)
        cfg = SolverConfig(k=3, eps=0.25, seed=4)
        check = fs.check_local_opt_condition
        certified = []

        def failing_check(handle, sol, eps):
            certified.append(sol)
            return dataclasses.replace(check(handle, sol, eps), satisfied=False)

        monkeypatch.setattr(fs, "check_local_opt_condition", failing_check)
        h = make_handle(inst, cfg.k)
        assert fs.fast_local_search(h, cfg) is None
        init = make_handle(inst, cfg.k)
        fs.init_solution(init, cfg)
        budget = fs.attempt_query_budget(h.ground.total, cfg.k, iteration_count(cfg.k, cfg.eps))
        attempts = attempts_count(cfg.eps)
        assert len(certified) == attempts == 2
        assert h.ledger.queries == init.ledger.queries + 1 + attempts * budget
        sol, failed = fs.run_main(make_handle(inst, cfg.k), cfg)
        assert failed and len(sol) == 0 and sol.capacity == cfg.k

    def test_success_certified_by_fresh_check(self):
        inst = gen_synthetic("graph-cut", 40, np.random.default_rng(5), density=0.4)
        cfg = SolverConfig(k=4, eps=0.25, seed=6)
        sol = fs.fast_local_search(make_handle(inst, 4), cfg)
        assert sol is not None
        report = fs.check_local_opt_condition(make_handle(inst, 4), sol, cfg.eps)
        assert report.satisfied

    def test_output_size_is_k_with_dummies(self):
        inst = gen_synthetic("coverage-diversity", 20, np.random.default_rng(6))
        sol = fs.fast_local_search(make_handle(inst, 5), SolverConfig(k=5, eps=0.25, seed=7))
        assert sol is not None and len(sol) == 5


def integer_cut(n, rng):
    """Graph cut with weights in {0, 1, 2}: exact ties in gains and losses."""
    w = np.triu(rng.integers(0, 3, size=(n, n)), 1).astype(float)
    return Instance(kind=CUT, data=w + w.T)


def reference_local_search(handle, cfg, rng, swaps=None):
    """`fast_local_search` with both picks made from scratch on every
    iteration, on the same `sample_rows` samples: u by a lexsort of the
    sampled gains, v by a lexsort of the removal losses. Also returns how
    many iterations had an exact tie at a positive best gain or at the
    lowest loss. `swaps`, when given, collects the number of iterations
    done at each accepted swap."""
    n_total = handle.ground.total
    k = cfg.k
    L = iteration_count(k, cfg.eps)
    q = min(-(-n_total // k), n_total)
    start = fs.init_solution(handle, cfg, rng)
    f_start = handle.value(start)
    ties = 0
    for _ in range(attempts_count(cfg.eps)):
        sol, f_sol = start, f_start
        visited = [(0, start)]
        elems = np.empty(k, dtype=np.int64)
        for done, sampled in enumerate(fs.sample_rows(rng, L, n_total, q), start=1):
            gains = handle.marginal_many(sampled, sol)
            best = np.lexsort((sampled, -gains))[0]
            u = int(sampled[best])
            if gains[best] <= 0.0:
                u = fs._fresh_dummy(sol, handle)
            losses = handle.removal_losses(sol)
            elems[:] = sol.elements
            v = int(elems[np.lexsort((elems, losses))[0]])
            ties += (gains[best] > 0.0 and (gains == gains[best]).sum() > 1) or (
                (losses == losses.min()).sum() > 1)
            f_new = handle.value(sol, drop=v, add=u)
            if f_new > f_sol:
                sol = Solution(k, [w for w in sol.elements if w != v] + [u])
                f_sol = f_new
                visited.append((done, sol))
                if swaps is not None:
                    swaps.append(done)
        i_star = int(rng.integers(L))
        candidate = [held for at, held in visited if at <= i_star][-1]
        if fs.check_local_opt_condition(handle, candidate, cfg.eps).satisfied:
            return candidate, ties
    return None, ties


@pytest.mark.parametrize("kind", ["coverage-diversity", "facility-diversity", "graph-cut",
                                  "integer-cut"])
@pytest.mark.parametrize("seed", range(8))
def test_local_search_matches_the_pick_from_scratch(kind, seed):
    """Sorting the sample and keeping v until the set changes give the
    same set, query count and evaluated count as picking both from scratch."""
    rng = np.random.default_rng(100 + seed)
    if kind == "integer-cut":
        inst = integer_cut(30, rng)
    else:
        inst = gen_synthetic(kind, 30, rng, density=0.4)
    cfg = SolverConfig(k=4, eps=0.25, seed=seed)
    fast, ref = make_handle(inst, cfg.k), make_handle(inst, cfg.k)
    got = fs.fast_local_search(fast, cfg, np.random.default_rng(seed))
    want, ties = reference_local_search(ref, cfg, np.random.default_rng(seed))
    assert (got is None) == (want is None)
    if got is not None:
        assert got.elements == want.elements
    assert (fast.ledger.queries, fast.ledger.evaluated) == (
        ref.ledger.queries, ref.ledger.evaluated)
    if kind == "integer-cut":
        assert ties > 0


class FixedStop:
    """Draws as `np.random.default_rng(seed)` does, except that the local
    search's draw of i* (`integers(L)`) returns `i_star`."""

    def __init__(self, seed, L, i_star):
        self._rng = np.random.default_rng(seed)
        self._L, self._i_star = L, i_star

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def integers(self, *args, **kwargs):
        out = self._rng.integers(*args, **kwargs)
        return self._i_star if args == (self._L,) and not kwargs else out


@pytest.mark.parametrize("seed", range(4))
def test_certifies_the_set_held_after_i_star_iterations(monkeypatch, seed):
    """With i* forced to just before and to each swap, the attempt
    certifies the set the reference held after exactly i* iterations."""
    inst = gen_synthetic("graph-cut", 30, np.random.default_rng(200 + seed), density=0.4)
    cfg = SolverConfig(k=4, eps=0.5, seed=seed)
    assert attempts_count(cfg.eps) == 1
    L = iteration_count(cfg.k, cfg.eps)
    swaps = []
    reference_local_search(make_handle(inst, cfg.k), cfg, np.random.default_rng(seed), swaps)
    assert swaps
    certified = []
    check = fs.check_local_opt_condition

    def recording_check(handle, sol, eps):
        certified.append(sol.elements)
        return check(handle, sol, eps)

    monkeypatch.setattr(fs, "check_local_opt_condition", recording_check)
    for i_star in sorted({i for d in swaps for i in (d - 1, d) if i < L}):
        fs.fast_local_search(make_handle(inst, cfg.k), cfg, FixedStop(seed, L, i_star))
        reference_local_search(make_handle(inst, cfg.k), cfg, FixedStop(seed, L, i_star))
        got, want = certified[-2:]
        assert got == want


# Pearson's chi-square statistic sum((observed - expected)^2 / expected)
# over all C(n, q) subsets, against its 0.999 quantile at C(n, q) - 1
# degrees of freedom (the draws are seeded, so the test is deterministic).
CHI2_999 = {19: 43.82, 44: 78.75, 7: 24.32}


class TestDrawRows:
    @pytest.mark.parametrize("n, q, by_rejection", [(6, 3, True), (10, 8, False),
                                                    (8, 7, False)])
    def test_subsets_are_uniform(self, n, q, by_rejection):
        assert fs._by_rejection(n, q) is by_rejection
        subsets = {c: i for i, c in enumerate(itertools.combinations(range(n), q))}
        rows = fs.draw_rows(np.random.default_rng(n * q), 1000 * len(subsets), n, q)
        counts = np.bincount([subsets[tuple(r)] for r in rows.tolist()],
                             minlength=len(subsets))
        chi2 = ((counts - 1000.0) ** 2 / 1000.0).sum()
        assert chi2 < CHI2_999[len(subsets) - 1]

    @pytest.mark.parametrize("n, q", [(7, 1), (1200, 1), (5, 5), (6, 6), (40, 39),
                                      (1200, 12), (300, 40)])
    def test_rows_sorted_distinct_in_range(self, n, q):
        rows = fs.draw_rows(np.random.default_rng(q), 500, n, q)
        assert rows.shape == (500, q)
        assert (np.diff(rows, axis=1) > 0).all()
        assert rows.min() >= 0 and rows.max() < n
        if q == n:
            assert (rows == np.arange(n)).all()

    # Small caps on both branches, then the ls-coverage, ls-facility and
    # grid-cut shapes and a k = 1 one with the real cap.
    @pytest.mark.parametrize("n, q, cap", [
        (30, 4, 40), (10, 8, 35),
        (1200, 12, fs.DRAW_ENTRIES), (1040, 52, fs.DRAW_ENTRIES),
        (4126, 66, fs.DRAW_ENTRIES), (3000, 3000, fs.DRAW_ENTRIES)])
    @pytest.mark.parametrize("extra", [0, 2])
    def test_blocks_consume_exactly_L_rows(self, monkeypatch, n, q, cap, extra):
        """L a multiple of the block and not: `sample_rows` yields L rows,
        the rows of `draw_rows` blocks of the same sizes from the same
        seed, and leaves the generator where those blocks leave it. No
        block holds more than `cap` entries."""
        per_block = cap // q
        L = 3 * per_block + extra
        sizes = []
        draw = fs.draw_rows

        def recording_draw(rng, rows, n, q):
            sizes.append(rows)
            return draw(rng, rows, n, q)

        monkeypatch.setattr(fs, "DRAW_ENTRIES", cap)
        monkeypatch.setattr(fs, "draw_rows", recording_draw)
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = np.array(list(fs.sample_rows(got_rng, L, n, q)))
        want = np.concatenate([draw(want_rng, rows, n, q) for rows in sizes])
        assert sizes == [per_block] * 3 + ([extra] if extra else [])
        assert max(sizes) * q <= cap
        assert got.shape == (L, q) and (got == want).all()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestGuidedStochasticGreedy:
    def test_forced_argmax(self):
        inst = modular([3.0, 1.0, 2.0])
        h = make_handle(inst, 1)
        cfg = SolverConfig(k=1, eps=0.1, seed=0)
        sol = fs.guided_stochastic_greedy(h, Solution(1), cfg)
        assert sol.sorted_tuple() == (0,)

    def test_guide_excluded_with_full_flip(self):
        inst = modular([9.0, 1.0, 2.0, 3.0])
        cfg = SolverConfig(k=2, eps=0.1, t_s=1.0, seed=1)
        for seed in range(10):
            cfg = SolverConfig(k=2, eps=0.1, t_s=1.0, seed=seed)
            h = make_handle(inst, 2)
            sol = fs.guided_stochastic_greedy(h, Solution(1, [0]), cfg)
            assert 0 not in sol.elements

    def test_sample_sizes_follow_rate(self):
        n, k, eps = 1000, 100, 0.1
        inst = gen_synthetic("graph-cut", n, np.random.default_rng(7), density=0.05)
        h = make_handle(inst, k)
        sizes = []
        top_marginals = h.top_marginals

        def recording_top_marginals(us, sol, r):
            sizes.append(len(us))
            return top_marginals(us, sol, r)

        h.top_marginals = recording_top_marginals
        cfg = SolverConfig(k=k, eps=eps, t_s=0.0, seed=2)
        fs.guided_stochastic_greedy(h, Solution(k), cfg)
        p = sample_rate(k, eps, "practical")
        assert p == pytest.approx(0.8)
        n_total = h.ground.total
        assert len(sizes) == k
        # first pool is the whole ground set; later pools shrink by at most
        # one element per accepted pick
        assert sizes[0] == min(math.ceil(p * n_total), n_total)
        for i, size in enumerate(sizes):
            low = min(math.ceil(p * (n_total - i)), n_total - i)
            high = min(math.ceil(p * n_total), n_total)
            assert low <= size <= high

    def test_whole_pool_rounds_draw_only_their_ranks(self):
        # p = 8 / (k eps) = 4, so every round samples its whole pool and
        # takes one random number, for the rank of its pick.
        inst = gen_synthetic("graph-cut", 40, np.random.default_rng(3), density=0.3)
        k, eps = 4, 0.5
        assert sample_rate(k, eps, "practical") >= 1.0
        for seed in range(5):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            fs.stochastic_greedy_core(make_handle(inst, k), [], k, eps, 0.0, "practical", rng)
            twin.random(k)
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_sampled_rounds_rank_a_uniform_subset(self):
        # p = 8 / (k eps) = 0.5 on a pool of 6 ids (the guide excludes the
        # rest): each of the C(6, 3) = 20 subsets is ranked 1000 times in
        # expectation. Only the first round is run.
        n, k, eps = 20, 20, 0.8
        assert sample_rate(k, eps, "practical") == 0.5
        h = make_handle(modular(np.arange(1.0, n + 1)), k)
        pool = [1, 4, 7, 20, 33, 59]
        guide = [u for u in range(h.ground.total) if u not in pool]
        subsets = {c: i for i, c in enumerate(itertools.combinations(pool, 3))}
        seen = []

        class FirstRound(Exception):
            pass

        def recording_top_marginals(us, sol, r):
            seen.append(subsets[tuple(sorted(us.tolist()))])
            raise FirstRound

        h.top_marginals = recording_top_marginals
        rng = np.random.default_rng(11)
        for _ in range(1000 * len(subsets)):
            with pytest.raises(FirstRound):
                fs.stochastic_greedy_core(h, guide, k, eps, 1.0, "practical", rng)
        counts = np.bincount(seen, minlength=len(subsets))
        chi2 = ((counts - 1000.0) ** 2 / 1000.0).sum()
        assert chi2 < CHI2_999[len(subsets) - 1]

    def test_accepted_elements_nonnegative_marginal(self):
        rng = np.random.default_rng(8)
        inst = gen_synthetic("coverage-diversity", 30, rng, lam=0.9)
        h = make_handle(inst, 6)
        cfg = SolverConfig(k=6, eps=0.2, seed=3)
        sol = fs.guided_stochastic_greedy(h, Solution(6), cfg)
        # replay: every prefix addition had nonnegative marginal
        partial = Solution(6)
        fresh = make_handle(inst, 6)
        for u in sol.elements:
            assert fresh.marginal(u, partial) >= -1e-12
            partial.add(u)

    def test_degenerate_pool_all_reals_guided(self):
        inst = modular([1.0, 2.0])
        h = make_handle(inst, 2)
        cfg = SolverConfig(k=2, eps=0.1, t_s=1.0, seed=4)
        guide = Solution(2, [0, 1])
        sol = fs.guided_stochastic_greedy(h, guide, cfg)  # only dummies available
        assert sol.strip_dummies(h.ground) == []


class TestSolveMain:
    def test_output_is_max_of_routes(self):
        inst = gen_synthetic("graph-cut", 25, np.random.default_rng(9), density=0.4)
        cfg = SolverConfig(k=4, eps=0.25, seed=8)
        h = make_handle(inst, 4)
        sol = fs.solve_main(h, cfg)
        val = objective_value(inst, sol.strip_dummies(h.ground))
        # replay both routes with the driver's random stream
        rng = np.random.default_rng(cfg.seed)
        guide = fs.fast_local_search(make_handle(inst, 4), cfg, rng)
        assert guide is not None
        improved = fs.guided_stochastic_greedy(make_handle(inst, 4), guide, cfg, rng)
        for route in (guide, improved):
            assert val >= objective_value(inst, route.strip_dummies(h.ground)) - 1e-12

    def test_failure_returns_empty(self, monkeypatch):
        inst = gen_synthetic("graph-cut", 10, np.random.default_rng(10), density=0.5)
        h = make_handle(inst, 3)
        monkeypatch.setattr(fs, "fast_local_search", lambda *a, **k: None)
        cfg = SolverConfig(k=3, eps=0.25, seed=9)
        sol, failed = fs.run_main(h, cfg)
        assert failed
        assert len(sol) == 0
        assert objective_value(inst, sol.elements) >= 0.0
        assert len(fs.solve_main(make_handle(inst, 3), cfg)) == 0

    def test_empty_result_is_not_a_failure(self, monkeypatch):
        # A certified guide of dummies only, improved to dummies only, gives
        # the empty set, yet no local-search attempt failed.
        inst = gen_synthetic("graph-cut", 10, np.random.default_rng(10), density=0.5)
        h = make_handle(inst, 2)
        dummies = Solution(2, list(h.ground.dummy_ids())[:2])
        monkeypatch.setattr(fs, "fast_local_search", lambda *a, **k: dummies)
        monkeypatch.setattr(fs, "guided_stochastic_greedy", lambda *a, **k: Solution(2, dummies.elements))
        sol, failed = fs.run_main(h, SolverConfig(k=2, eps=0.25, seed=1))
        assert len(sol) == 0
        assert not failed

    def test_scaling_invariance(self):
        # doubling is exact in floating point, so trajectories must match
        base = gen_synthetic("graph-cut", 30, np.random.default_rng(11), density=0.4)
        scaled = Instance(kind=CUT, data=base.data.toarray() * 4.0)
        cfg = SolverConfig(k=4, eps=0.25, seed=10)
        for solver in (fs.solve_main, fs.fast_local_search):
            s1 = solver(make_handle(base, 4), cfg)
            s2 = solver(make_handle(scaled, 4), cfg)
            assert s1.elements == s2.elements

    def test_reproducible(self):
        inst = gen_synthetic("coverage-diversity", 20, np.random.default_rng(12))
        cfg = SolverConfig(k=4, eps=0.2, seed=11)
        a = fs.solve_main(make_handle(inst, 4), cfg)
        b = fs.solve_main(make_handle(inst, 4), cfg)
        assert a.elements == b.elements


class TestBoundOptimizer:
    def test_exceeds_constant_at_tiny_eps(self):
        bp = fs.optimize_bound_params(10**6, 1e-6)
        assert bp.bound_value > 0.385

    def test_weights_on_simplex(self):
        bp = fs.optimize_bound_params(100, 0.01)
        assert bp.p1 >= 0 and bp.p2 >= -1e-12 and bp.p3 >= 0
        assert bp.p1 + bp.p2 + bp.p3 == pytest.approx(1.0, abs=1e-12)

    def test_bound_is_gain_coefficient_times_p3(self):
        bp = fs.optimize_bound_params(50, 1e-4)
        t = bp.t_s
        coef = (2.0 - t - math.exp(-t)) * math.exp(t - 1.0)
        assert bp.bound_value == pytest.approx(coef * bp.p3, rel=1e-12)
        # zeroing the greedy-route weight would zero the whole bound
        assert coef * 0.0 == 0.0

    def test_frozen_defaults_match_grid(self):
        bp = fs.optimize_bound_params(10**6, 1e-6)
        assert abs(bp.t_s - DEFAULT_FLIP_POINT) <= 1e-3
        assert bp.bound_value == pytest.approx(FROZEN_BOUND_VALUE, abs=1e-6)
        assert (bp.p1, bp.p2, bp.p3) == pytest.approx(FROZEN_BOUND_P, abs=1e-9)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_a_config_error(self, k):
        with pytest.raises(ConfigError, match="k must be >= 1"):
            fs.optimize_bound_params(k, 0.1)

    @pytest.mark.parametrize("eps", [math.nan, -3.0, 0.0, 1.0, 2.0, math.inf])
    def test_eps_outside_the_open_unit_interval_is_a_config_error(self, eps):
        # nan used to return an all-zero BoundParams and -3 a bound of 0.368.
        with pytest.raises(ConfigError, match="eps must lie in"):
            fs.optimize_bound_params(10, eps)


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_a_handle_sized_for_another_k_is_refused(algo):
    # A handle for k=2 has 4 dummies; a solver run with k=20 needs 40.
    inst = gen_synthetic(CUT, 40, np.random.default_rng(0), density=0.3)
    handle = make_handle(inst, 2)
    with pytest.raises(ConfigError, match="4 dummies.*k=2.*k=20"):
        ALGORITHMS[algo](handle, SolverConfig(k=20, eps=0.25, seed=1))
