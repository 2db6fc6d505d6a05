"""Objective formulas, synthetic generators, incremental-state agreement,
and the brute-force optimum."""

import numpy as np
import pytest

from submax.errors import ConfigError, EnumerationGuardError, ObjectiveError
from submax.objectives import (
    COVERAGE,
    CUT,
    FACILITY,
    Instance,
    brute_force_opt,
    coverage_diversity_value,
    cut_value,
    facility_diversity_value,
    gen_synthetic,
    make_handle,
    objective_value,
)
from submax.oracle import Solution


def sim_instance(kind, mat, lam=0.75):
    return Instance(kind=kind, data=np.array(mat, dtype=float), lam=lam)


class TestCoverageDiversity:
    def test_worked_example(self):
        inst = sim_instance(COVERAGE, [[1, 2], [2, 4]], lam=0.5)
        # coverage of {1} is 2 + 4, diversity penalty 0.5 * 4
        assert coverage_diversity_value(inst, [1]) == pytest.approx(4.0)

    def test_empty_is_zero(self):
        inst = sim_instance(COVERAGE, [[1, 2], [2, 4]], lam=0.5)
        assert coverage_diversity_value(inst, []) == 0.0

    def test_kind_mismatch(self):
        inst = sim_instance(FACILITY, [[1, 0.5], [0.5, 1]])
        with pytest.raises(ObjectiveError):
            coverage_diversity_value(inst, [0])


class TestFacilityDiversity:
    def test_singleton(self):
        inst = sim_instance(FACILITY, [[1, 0.5], [0.5, 1]])
        assert facility_diversity_value(inst, [0]) == pytest.approx(1.0)

    def test_pair(self):
        inst = sim_instance(FACILITY, [[1, 0.5], [0.5, 1]])
        assert facility_diversity_value(inst, [0, 1]) == pytest.approx(0.5)

    def test_empty_max_convention(self):
        inst = sim_instance(FACILITY, [[1, 0.5], [0.5, 1]])
        assert facility_diversity_value(inst, []) == 0.0

    def test_kind_mismatch(self):
        inst = sim_instance(COVERAGE, [[1, 0.5], [0.5, 1]])
        with pytest.raises(ObjectiveError):
            facility_diversity_value(inst, [0])


def edges(n, pairs):
    w = np.zeros((n, n))
    for u, v, wt in pairs:
        w[u, v] = w[v, u] = wt
    return Instance(kind=CUT, data=w)


class TestCut:
    def test_triangle(self):
        inst = edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        assert cut_value(inst, [0]) == pytest.approx(2.0)

    def test_path_center(self):
        inst = edges(3, [(0, 1, 1), (1, 2, 1)])
        assert cut_value(inst, [1]) == pytest.approx(2.0)

    def test_empty_and_full(self):
        inst = edges(3, [(0, 1, 1), (1, 2, 1)])
        assert cut_value(inst, []) == 0.0
        assert cut_value(inst, [0, 1, 2]) == 0.0

    def test_kind_mismatch(self):
        inst = sim_instance(COVERAGE, [[0, 1], [1, 0]])
        with pytest.raises(ObjectiveError):
            cut_value(inst, [0])


class TestInstanceValidation:
    def test_negative_similarity_rejected(self):
        with pytest.raises(ConfigError):
            sim_instance(COVERAGE, [[1, -1], [-1, 1]])

    def test_non_finite_entries_rejected(self):
        for bad in (np.nan, np.inf):
            for kind in (COVERAGE, FACILITY, CUT):
                with pytest.raises(ConfigError):
                    sim_instance(kind, [[0, bad], [bad, 0]])

    def test_empty_matrix_rejected(self):
        with pytest.raises(ConfigError):
            Instance(kind=CUT, data=np.zeros((0, 0)))

    @pytest.mark.parametrize("kind, shape, what", [
        ("max-cut", (2, 2), "unknown objective kind 'max-cut'"),
        (CUT, (2, 3), "matrix must be square"),
        (COVERAGE, (4,), "matrix must be square"),
    ], ids=["unknown-kind", "rectangular", "one-dimensional"])
    def test_malformed_instance_rejected(self, kind, shape, what):
        with pytest.raises(ConfigError, match=what):
            Instance(kind=kind, data=np.zeros(shape))

    @pytest.mark.parametrize("gap", [0.5, 1e-12])
    @pytest.mark.parametrize("kind", [COVERAGE, FACILITY, CUT])
    def test_asymmetric_matrix_rejected(self, kind, gap):
        # At n = 300 the check runs over two blocks of rows, and this pair
        # lies in the second one only.
        data = gen_synthetic(kind, 300, np.random.default_rng(4)).data
        d = data.toarray() if kind == CUT else data.copy()
        d[280, 250] += gap
        with pytest.raises(ConfigError, match="symmetric") as err:
            Instance(kind=kind, data=d)
        assert f"{d[280, 250] - d[250, 280]:.3g}" in str(err.value)

    def test_nonzero_diagonal_rejected(self):
        w = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ConfigError):
            Instance(kind=CUT, data=w)

    def test_bad_lambda(self):
        with pytest.raises(ConfigError):
            sim_instance(COVERAGE, [[1, 0], [0, 1]], lam=1.5)


class TestGenSynthetic:
    def test_graph_contract(self):
        rng = np.random.default_rng(0)
        inst = gen_synthetic("graph-cut", 16, rng, density=0.5)
        w = inst.data.toarray()
        assert w.shape == (16, 16)
        assert np.allclose(w, w.T)
        assert (w >= 0).all()
        assert np.diag(w).max() == 0.0

    @pytest.mark.parametrize("n, density, weight_range, seed", [
        (2, 0.5, (0.0, 1.0), 0),
        (2, 1.0, (0.25, 3.0), 11),
        (3, 0.0, (0.0, 1.0), 1),
        (17, 0.3, (0.1, 0.7), 7),
        (64, 1.0, (0.0, 1.0), 3),
        (301, 0.02, (0.0, 1.0), 101),
    ])
    def test_graph_matches_triu_formula_bit_for_bit(self, n, density, weight_range, seed):
        # The formula the generator used before it filled rows and columns
        # from one slice of the draws.
        ref_rng = np.random.default_rng(seed)
        lo, hi = weight_range
        ref = np.zeros((n, n))
        iu = np.triu_indices(n, k=1)
        present = ref_rng.random(len(iu[0])) < density
        vals = lo + ref_rng.random(len(iu[0])) * (hi - lo)
        vals[~present] = 0.0
        ref[iu] = vals
        ref = ref + ref.T

        rng = np.random.default_rng(seed)
        got = gen_synthetic(
            "graph-cut", n, rng, density=density, weight_range=weight_range
        ).data.toarray()
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        assert rng.random() == ref_rng.random()

    def test_same_seed_identical(self):
        a = gen_synthetic("coverage-diversity", 20, np.random.default_rng(5))
        b = gen_synthetic("coverage-diversity", 20, np.random.default_rng(5))
        assert np.array_equal(a.data, b.data)

    def test_gram_of_feature_vectors(self):
        inst = gen_synthetic("coverage-diversity", 30, np.random.default_rng(1), lam=0.75)
        assert inst.data.shape == (30, 30)
        assert (inst.data >= 0).all()
        assert np.allclose(inst.data, inst.data.T)
        # Gram matrices are positive semidefinite
        assert np.linalg.eigvalsh(inst.data).min() >= -1e-8

    def test_invalid_spec(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ConfigError):
            gen_synthetic("graph-cut", 1, rng)
        with pytest.raises(ConfigError):
            gen_synthetic("nonsense", 5, rng)
        with pytest.raises(ConfigError):
            gen_synthetic("graph-cut", 5, rng, density=1.5)


class TestObjectiveProperties:
    KINDS = ("graph-cut", "coverage-diversity", "facility-diversity")

    def test_non_negative_on_random_sets(self):
        gen = np.random.default_rng(1)
        for kind in self.KINDS:
            inst = gen_synthetic(kind, 15, np.random.default_rng(3), density=0.5)
            for _ in range(10_000):
                ids = gen.choice(15, size=int(gen.integers(0, 8)), replace=False)
                assert objective_value(inst, ids) >= -1e-12

    def test_coverage_monotone_for_small_lambda(self):
        inst = gen_synthetic("coverage-diversity", 15, np.random.default_rng(4), lam=0.25)
        h = make_handle(inst, 5)
        gen = np.random.default_rng(2)
        for _ in range(10_000):
            ids = gen.choice(15, size=int(gen.integers(0, 6)), replace=False)
            u = int(gen.integers(0, 15))
            if u in ids:
                continue
            assert h.marginal(u, Solution(7, ids)) >= -1e-9

    def test_incremental_matches_naive_over_mutation_walk(self):
        # Random insert/remove walk against one long-lived handle; every
        # value and marginal is replayed through the direct formulas.
        gen = np.random.default_rng(3)
        for kind in self.KINDS:
            inst = gen_synthetic(kind, 14, np.random.default_rng(5), density=0.6)
            h = make_handle(inst, 7)
            sol = Solution(7)
            for _ in range(400):
                move = gen.random()
                if move < 0.45 and len(sol) < 7:
                    pick = int(gen.integers(0, 14))
                    if pick not in sol:
                        sol.add(pick)
                elif move < 0.7 and len(sol):
                    v = sol.elements[int(gen.integers(0, len(sol)))]
                    sol = Solution(7, [w for w in sol.elements if w != v])
                naive = objective_value(inst, sol.elements)
                assert abs(h.value(sol) - naive) <= 1e-9
                u = int(gen.integers(0, 14))
                marg = h.marginal(u, sol)
                if u in sol:
                    assert marg == 0.0
                else:
                    plus = objective_value(inst, sol.elements + [u])
                    assert abs(marg - (plus - naive)) <= 1e-9


def bitmask_enumeration(inst, k):
    """Independent optimum: descending bitmask order, same tie rule."""
    n = inst.n_real
    best_val = -np.inf
    best_ids = None
    for mask in range(2**n - 1, -1, -1):
        ids = [i for i in range(n) if mask >> i & 1]
        if len(ids) > k:
            continue
        val = objective_value(inst, ids)
        tup = tuple(ids)
        if val > best_val or (val == best_val and tup < best_ids):
            best_val = val
            best_ids = tup
    return best_ids, best_val


class TestBruteForce:
    def test_path_k1(self):
        inst = edges(3, [(0, 1, 1), (1, 2, 1)])
        cert = brute_force_opt(make_handle(inst, 1), 1)
        assert cert.opt_set.sorted_tuple() == (1,)
        assert cert.opt_value == pytest.approx(2.0)
        assert cert.enumerated == 4  # empty set plus three singletons

    def test_k_equals_n_picks_proper_subset(self):
        inst = edges(4, [(0, 1, 2), (2, 3, 1)])
        cert = brute_force_opt(make_handle(inst, 4), 4)
        assert 0 < len(cert.opt_set.sorted_tuple()) < 4
        assert cert.opt_value > 0

    def test_single_node(self):
        inst = Instance(kind=CUT, data=np.zeros((1, 1)))
        cert = brute_force_opt(make_handle(inst, 1), 1)
        assert cert.opt_value == 0.0
        assert cert.opt_set.sorted_tuple() in ((), (0,))

    def test_negative_k_rejected(self):
        inst = edges(3, [(0, 1, 1), (1, 2, 1)])
        with pytest.raises(ConfigError, match="k must be >= 0, got -1"):
            brute_force_opt(make_handle(inst, 1), -1)

    def test_enumeration_guard(self):
        inst = gen_synthetic("graph-cut", 30, np.random.default_rng(6))
        with pytest.raises(EnumerationGuardError):
            brute_force_opt(make_handle(inst, 3), 3)

    def test_agrees_with_independent_enumeration(self):
        rng = np.random.default_rng(7)
        kinds = ["graph-cut", "coverage-diversity", "facility-diversity"]
        for i in range(50):
            n = 8 + i % 5  # up to 12
            inst = gen_synthetic(kinds[i % 3], n, rng, density=0.5, lam=0.75)
            cert = brute_force_opt(make_handle(inst, 3), 3)
            ids2, val2 = bitmask_enumeration(inst, 3)
            assert cert.opt_value == pytest.approx(val2, abs=1e-9)
            assert objective_value(inst, cert.opt_set.elements) == pytest.approx(val2, abs=1e-9)
