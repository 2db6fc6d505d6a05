"""Acceptance suite.

Each test implements one numbered acceptance criterion at its stated
tolerance and prints one PASS/FAIL line (run with `pytest -s` to see them
as they happen). Shared heavy runs are cached in module fixtures.

Criterion 4 (query separation against random greedy at n=4000, k=63) is
known not to hold for this algorithm family at desk scale: the local
search alone spends L * ceil(n/k) with L = ceil(16 k / (eps (1 - 1/e))),
which already exceeds k * n for every eps in (0, 1) at that size. The
test states the criterion faithfully and is expected to fail; see the
repository notes for the measured numbers.
"""

import math
import time

import numpy as np
import pytest

from submax.baselines import local_search, random_greedy, sample_greedy
from submax.bench import read_records_csv
from submax.cli import main as cli_main
from submax.config import DEFAULT_FLIP_POINT, SolverConfig
from submax.fastsolve import (
    check_local_opt_condition,
    fast_local_search,
    optimize_bound_params,
    solve_main,
)
from submax.objectives import (
    brute_force_opt,
    gen_synthetic,
    make_handle,
    objective_value,
)
from submax.oracle import Solution, submodularity_probe


def report(num, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} - {detail}")


# ---------------------------------------------------------------------------
# Criteria 1 and 2 share one batch of seeded local-search runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def local_search_batch():
    inst = gen_synthetic("graph-cut", 200, np.random.default_rng(2024), density=0.1)
    cfg_proto = dict(k=10, eps=0.25)
    outputs = []
    t0 = time.perf_counter()
    for seed in range(100):
        h = make_handle(inst, 10)
        sol = fast_local_search(h, SolverConfig(seed=seed, **cfg_proto))
        outputs.append(sol)
    elapsed = time.perf_counter() - t0
    return inst, outputs, elapsed


def test_criterion_1_local_optimality_certification(local_search_batch):
    inst, outputs, elapsed = local_search_batch
    non_failures = [s for s in outputs if s is not None]
    recheck_passes = 0
    for sol in non_failures:
        fresh = make_handle(inst, 10)
        if check_local_opt_condition(fresh, sol, 0.25).satisfied:
            recheck_passes += 1
    ok = recheck_passes == len(non_failures) and elapsed < 120.0
    report(
        1,
        ok,
        f"{recheck_passes}/{len(non_failures)} non-failures re-certified "
        f"(runtime {elapsed:.1f}s < 120s)",
    )
    assert recheck_passes == len(non_failures)
    assert elapsed < 120.0


def test_criterion_2_failure_rate_bound(local_search_batch):
    _, outputs, _ = local_search_batch
    failures = sum(1 for s in outputs if s is None)
    rate = failures / len(outputs)
    bound = 2 * 0.25 + 0.05
    ok = rate <= bound
    report(
        2,
        ok,
        f"failure rate {rate:.3f} <= {bound} (success rate {1 - rate:.2f}, "
        f"Monte-Carlo reference >= 0.75)",
    )
    assert rate <= bound


# ---------------------------------------------------------------------------
# Criteria 3 and 4: query counts
# ---------------------------------------------------------------------------


def _mean_queries(solver, inst, k, eps, seeds):
    counts = []
    for seed in seeds:
        h = make_handle(inst, k)
        solver(h, SolverConfig(k=k, eps=eps, seed=seed))
        counts.append(h.ledger.queries)
    return float(np.mean(counts))


def test_criterion_3_query_scaling():
    t0 = time.perf_counter()
    means = {}
    for n in (1000, 2000, 4000):
        k = math.ceil(math.sqrt(n))
        inst = gen_synthetic("graph-cut", n, np.random.default_rng(n), density=0.02)
        means[n] = _mean_queries(solve_main, inst, k, 0.25, range(8))
    elapsed = time.perf_counter() - t0
    r2 = means[2000] / means[1000]
    r4 = means[4000] / means[1000]
    ok = r2 <= 2.5 and r4 <= 5.0 and elapsed < 300.0
    report(
        3,
        ok,
        f"mean queries {means[1000]:.0f}/{means[2000]:.0f}/{means[4000]:.0f}, "
        f"ratios {r2:.2f} (<=2.5) and {r4:.2f} (<=5.0), runtime {elapsed:.0f}s < 300s",
    )
    assert r2 <= 2.5
    assert r4 <= 5.0
    assert elapsed < 300.0


def test_criterion_4_query_separation():
    inst = gen_synthetic("graph-cut", 4000, np.random.default_rng(4000), density=0.02)
    mean_main = _mean_queries(solve_main, inst, 63, 0.25, range(8))
    mean_rg = _mean_queries(random_greedy, inst, 63, 0.25, range(8))
    ok = mean_main < mean_rg
    report(
        4,
        ok,
        f"solve_main mean {mean_main:.0f} vs random_greedy mean {mean_rg:.0f} "
        f"(strict inequality required; expected failure at this scale, "
        f"ratio {mean_main / mean_rg:.2f}x)",
    )
    assert mean_main < mean_rg


# ---------------------------------------------------------------------------
# Criterion 5: approximation against the enumerated optimum
# ---------------------------------------------------------------------------


def test_criterion_5_brute_force_ratio_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    ratios = []
    for i in range(50):
        if i < 25:
            inst = gen_synthetic("graph-cut", 14, rng, density=0.5)
        else:
            inst = gen_synthetic("coverage-diversity", 12, rng, lam=0.75)
        opt = brute_force_opt(make_handle(inst, 4), 4).opt_value
        if opt <= 0:
            continue
        for seed in range(20):
            h = make_handle(inst, 4)
            sol = solve_main(h, SolverConfig(k=4, eps=0.1, seed=seed))
            val = objective_value(inst, sol.strip_dummies(h.ground))
            ratios.append(val / opt)
    mean_ratio = float(np.mean(ratios))
    elapsed = time.perf_counter() - t0
    ok = mean_ratio >= 0.35 and elapsed < 300.0
    warn = " (WARNING: below 0.385, asymptotic-in-k slack)" if mean_ratio < 0.385 else ""
    report(
        5,
        ok,
        f"mean ratio {mean_ratio:.4f} over {len(ratios)} runs, hard floor 0.35{warn}, "
        f"runtime {elapsed:.0f}s < 300s",
    )
    assert mean_ratio >= 0.35
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# Criterion 6: monotone special case
# ---------------------------------------------------------------------------


def test_criterion_6_monotone_sanity():
    inst = gen_synthetic("coverage-diversity", 12, np.random.default_rng(66), lam=0.25)
    opt = brute_force_opt(make_handle(inst, 3), 3).opt_value
    assert opt > 0
    ratios = []
    for seed in range(200):
        h = make_handle(inst, 3)
        sol = sample_greedy(h, SolverConfig(k=3, eps=0.1, seed=seed))
        ratios.append(objective_value(inst, sol.strip_dummies(h.ground)) / opt)
    mean_ratio = float(np.mean(ratios))
    floor = 1.0 - 1.0 / math.e - 0.1
    ok = mean_ratio >= floor
    report(6, ok, f"mean ratio {mean_ratio:.4f} >= {floor:.4f} over 200 seeds")
    assert mean_ratio >= floor


# ---------------------------------------------------------------------------
# Criterion 7: oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_7_oracle_equivalence():
    kinds = ("graph-cut", "coverage-diversity", "facility-diversity")
    gen = np.random.default_rng(77)
    worst = 0.0
    for kind in kinds:
        inst = gen_synthetic(kind, 12, np.random.default_rng(7), density=0.5, lam=0.75)
        h = make_handle(inst, 4)
        for _ in range(10_000):
            size = int(gen.integers(0, 6))
            ids = list(gen.choice(12, size=size, replace=False))
            u = int(gen.integers(0, 12))
            sol = Solution(6, ids)
            inc = h.marginal(u, sol)
            if u in sol:
                naive = 0.0
            else:
                naive = objective_value(inst, ids + [u]) - objective_value(inst, ids)
            worst = max(worst, abs(inc - naive))
        assert submodularity_probe(make_handle(inst, 4), 10_000, np.random.default_rng(78))
    ok = worst <= 1e-9
    report(7, ok, f"max |incremental - naive| = {worst:.2e} <= 1e-9; probes passed")
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# Criterion 8: bound optimizer
# ---------------------------------------------------------------------------


def test_criterion_8_bound_optimizer():
    bp = optimize_bound_params(10**6, 1e-6)
    ok = bp.bound_value > 0.385 and abs(bp.t_s - DEFAULT_FLIP_POINT) <= 1e-3
    report(
        8,
        ok,
        f"bound {bp.bound_value:.6f} > 0.385 at t_s* = {bp.t_s:.3f} "
        f"(frozen default {DEFAULT_FLIP_POINT})",
    )
    assert bp.bound_value > 0.385
    assert abs(bp.t_s - DEFAULT_FLIP_POINT) <= 1e-3


# ---------------------------------------------------------------------------
# Criterion 9: local-search inequalities against enumerated optimum
# ---------------------------------------------------------------------------


def test_criterion_9_local_search_inequalities():
    rng = np.random.default_rng(99)
    kinds = ("graph-cut", "coverage-diversity", "facility-diversity")
    eps = 0.1
    checked = 0
    for i in range(30):
        n = 10 + i % 3
        inst = gen_synthetic(kinds[i % 3], n, rng, density=0.5, lam=0.75)
        k = 3
        h = make_handle(inst, k)
        sol = local_search(h, SolverConfig(k=k, eps=eps, seed=i))
        opt = set(brute_force_opt(make_handle(inst, k), k).opt_set.elements)
        s = set(sol.elements)
        f_s = objective_value(inst, s)
        f_union = objective_value(inst, s | opt)
        f_inter = objective_value(inst, s & opt)
        assert f_s >= (f_union + f_inter) / (2.0 + eps) - 1e-9
        assert f_s >= f_inter / (1.0 + eps) - 1e-9
        checked += 1
    report(9, True, f"both inequalities held on {checked}/30 instances (slack 1e-9)")


# ---------------------------------------------------------------------------
# Criterion 10: end-to-end reproducibility
# ---------------------------------------------------------------------------


def _strip_wall(path):
    lines = path.read_text().splitlines()
    out = []
    for line in lines[1:]:
        cells = line.split(",")
        del cells[5]  # wall_ms
        out.append(",".join(cells))
    return lines[0], out


def test_criterion_10_bench_reproducibility(tmp_path):
    args = [
        "bench", "--objective", "cut", "--n", "40", "--instance-seed", "7",
        "--algo", "main,randomgreedy", "--k", "3,5", "--reps", "3",
        "--eps", "0.25", "--seed", "123",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    h1, rows1 = _strip_wall(out1)
    h2, rows2 = _strip_wall(out2)
    ok = h1 == h2 and rows1 == rows2
    report(10, ok, f"two bench runs byte-identical over {len(rows1)} records "
                   f"(wall_ms excluded)")
    assert h1 == h2
    assert rows1 == rows2


# ---------------------------------------------------------------------------
# Criterion 11: comparative protocol
# ---------------------------------------------------------------------------


def test_criterion_11_comparative_protocol():
    inst = gen_synthetic("coverage-diversity", 1000, np.random.default_rng(111), lam=0.75)
    ks = (20, 40, 60, 80, 100)
    wins = 0
    lines = []
    for k in ks:
        main_vals = []
        sg_vals = []
        for rep in range(8):
            h = make_handle(inst, k)
            sol = solve_main(h, SolverConfig(k=k, eps=0.1, seed=1000 * k + rep))
            main_vals.append(objective_value(inst, sol.strip_dummies(h.ground)))
            h2 = make_handle(inst, k)
            sg = sample_greedy(h2, SolverConfig(k=k, eps=0.1, seed=1000 * k + rep))
            sg_vals.append(objective_value(inst, sg.strip_dummies(h2.ground)))
        m, s = float(np.mean(main_vals)), float(np.mean(sg_vals))
        if m >= s:
            wins += 1
        lines.append(f"k={k}: main {m:.1f} vs samplegreedy {s:.1f}")
    losses = len(ks) - wins
    ok = losses < 3
    report(11, ok, f"combined solver ahead at {wins}/5 k values ({'; '.join(lines)})")
    assert losses < 3
