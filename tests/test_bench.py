"""Loaders, experiment orchestration, CSV and SVG reporting."""

import math
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

import submax.fastsolve as fs
from submax.bench import (
    ALGORITHMS,
    RECORD_HEADER,
    ExperimentSpec,
    RunRecord,
    SummaryRow,
    SyntheticSpec,
    derive_cell_seed,
    load_edge_list,
    load_similarity_csv,
    read_records_csv,
    render_svg,
    run_experiment,
    summarize,
    svg_y,
    write_csv,
    write_instance,
)
from submax.errors import ConfigError, EmptyInputError, ParseError
from submax.config import SolverConfig
from submax.csr import CSRMatrix
from submax.objectives import CUT, Instance, cut_value, gen_synthetic, make_handle
from submax.oracle import Solution


class TestSimilarityLoader:
    def test_basic_parse(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n2,4\n")
        inst = load_similarity_csv(p)
        assert inst.data.shape == (2, 2)
        assert inst.data[1, 1] == 4.0

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n2\n")
        with pytest.raises(ParseError) as err:
            load_similarity_csv(p)
        assert err.value.line == 2

    def test_non_numeric_reports_line(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\nx,4\n")
        with pytest.raises(ParseError) as err:
            load_similarity_csv(p)
        assert err.value.line == 2

    def test_non_square_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2,3\n4,5,6\n")
        with pytest.raises(ParseError):
            load_similarity_csv(p)

    def test_negative_clamped_with_warning(self, tmp_path, caplog):
        p = tmp_path / "m.csv"
        p.write_text("1,0\n-0.5,2\n")
        with caplog.at_level("WARNING"):
            inst = load_similarity_csv(p)
        assert inst.data[1, 0] == 0.0
        assert any("clamped" in r.message for r in caplog.records)


class TestEdgeListLoader:
    def test_single_edge(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1 2.0\n")
        inst = load_edge_list(p)
        assert cut_value(inst, [0]) == pytest.approx(2.0)

    def test_self_loop_dropped(self, tmp_path, caplog):
        p = tmp_path / "g.txt"
        p.write_text("0 0 1.0\n")
        with caplog.at_level("WARNING"):
            inst = load_edge_list(p)
        assert inst.data.toarray().sum() == 0.0
        assert any("self-loop" in r.message for r in caplog.records)

    def test_both_directions_summed(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1 1\n1 0 1\n")
        inst = load_edge_list(p)
        assert inst.data.toarray()[0, 1] == pytest.approx(2.0)

    def test_duplicate_pairs_summed(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1 1.5\n0 1 0.5\n")
        inst = load_edge_list(p)
        assert inst.data.toarray()[0, 1] == pytest.approx(2.0)

    def test_negative_weight_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1 -1\n")
        with pytest.raises(ParseError) as err:
            load_edge_list(p)
        assert err.value.line == 1

    def test_empty_edge_list_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# comment only\n\n")
        with pytest.raises(ParseError):
            load_edge_list(p)

    def test_non_finite_weight_rejected(self, tmp_path):
        for weight in ("nan", "inf"):
            p = tmp_path / "g.txt"
            p.write_text(f"0 1 1\n1 2 {weight}\n")
            with pytest.raises(ConfigError):
                load_edge_list(p)

    def test_non_integer_id_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("a 1 1\n")
        with pytest.raises(ParseError) as err:
            load_edge_list(p)
        assert err.value.line == 1

    def test_huge_node_id_is_a_parse_error(self, tmp_path):
        # Refused before any per-node array is allocated: row * n + col
        # would not fit in an int64.
        p = tmp_path / "g.txt"
        p.write_text("0 1 1\n0 10000000000 1\n")
        with pytest.raises(ParseError) as err:
            load_edge_list(p)
        assert "n=10000000001," in str(err.value)
        assert f"{8 * 10000000001} bytes" in str(err.value)

    def test_per_node_arrays_that_cannot_be_allocated(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise MemoryError
        monkeypatch.setattr(CSRMatrix, "symmetric", refuse)
        p = tmp_path / "g.txt"
        p.write_text("0 5 1\n")
        with pytest.raises(ParseError, match="n=6, whose per-node arrays of 48 bytes"):
            load_edge_list(p)

    def test_node_id_of_a_million_loads_in_per_node_memory(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1000000 1.5\n")
        inst = load_edge_list(p)
        assert inst.n_real == 1_000_001
        assert inst.data.nbytes < 100 * inst.n_real
        assert cut_value(inst, [0]) == 1.5
        assert cut_value(inst, [0, 1000000]) == 0.0

    @pytest.mark.parametrize("line, what", [
        ("1 2", "expected 'u v w', got 2 fields"),
        ("1 2 heavy", "non-numeric weight 'heavy'"),
        ("1 -2 1", "negative node id"),
    ], ids=["two-fields", "non-numeric-weight", "negative-id"])
    def test_a_malformed_line_names_its_line(self, tmp_path, line, what):
        p = tmp_path / "g.txt"
        p.write_text(f"0 1 1\n{line}\n")
        with pytest.raises(ParseError, match=what) as err:
            load_edge_list(p)
        assert err.value.line == 2

    def test_instance_roundtrip(self, tmp_path):
        # The second graph's last node has no edge, and the third has none.
        for n, density in ((8, 0.5), (30, 0.05), (5, 0.0)):
            inst = gen_synthetic("graph-cut", n, np.random.default_rng(0), density=density)
            p = tmp_path / "g.txt"
            write_instance(inst, p)
            back = load_edge_list(p)
            assert back.n_real == n
            # repr round-trips every float, so the arrays come back exactly.
            for name in ("indptr", "indices", "weights"):
                assert np.array_equal(getattr(back.data, name), getattr(inst.data, name))


def small_spec(**overrides):
    base = dict(
        instance=SyntheticSpec(kind=CUT, n=12, density=0.5, instance_seed=1),
        algos=["randomgreedy", "samplegreedy"],
        ks=[2, 3, 4],
        eps=0.2,
        reps=8,
        master_seed=99,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestRunExperiment:
    def test_grid_cardinality(self):
        records = run_experiment(small_spec())
        assert len(records) == 2 * 3 * 8

    def test_same_master_seed_identical(self):
        a = run_experiment(small_spec())
        b = run_experiment(small_spec())
        for ra, rb in zip(a, b):
            assert (ra.algo, ra.k, ra.seed, ra.value, ra.queries, ra.failed) == (
                rb.algo, rb.k, rb.seed, rb.value, rb.queries, rb.failed
            )

    def test_k_exceeding_n_rejected_before_running(self):
        with pytest.raises(ConfigError):
            run_experiment(small_spec(ks=[40]))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment(small_spec(algos=["nope"]))

    @pytest.mark.parametrize("overrides, what", [
        (dict(reps=0), "reps must be >= 1, got 0"),
        (dict(ks=[]), "need at least one k value"),
        (dict(algos=[]), "need at least one algorithm"),
        (dict(algos=["randomgreedy", "nope"]), "unknown algorithm 'nope'"),
        (dict(algos=["samplegreedy", "randomgreedy", "samplegreedy"]),
         "repeated algorithm 'samplegreedy'"),
        (dict(ks=[2, 3, 2]), "repeated k 2"),
    ], ids=["no-reps", "no-k", "no-algorithm", "unknown-algorithm", "repeated-algorithm",
            "repeated-k"])
    def test_a_bad_spec_is_refused_when_it_is_made(self, overrides, what):
        # A repeated k would reuse its cells' seeds, and a repeated name
        # would add a second seed family under the same (algo, k) row.
        with pytest.raises(ConfigError, match=what):
            small_spec(**overrides)

    def test_parallel_matches_serial(self):
        # Records match in every field but wall time: the small cut grid,
        # a larger cut grid with the local-search solvers, and a pool asked
        # for more workers than there are cells.
        cases = [
            (small_spec(ks=[3], reps=4), 2),
            (small_spec(instance=SyntheticSpec(kind=CUT, n=60, density=0.2, instance_seed=4),
                        algos=["main", "randomgreedy", "localsearch"], ks=[5], reps=2), 2),
            (small_spec(algos=["samplegreedy"], ks=[3], reps=1), 3),
        ]
        for spec, workers in cases:
            serial = run_experiment(spec, workers=1)
            parallel = run_experiment(spec, workers=workers)
            assert len(parallel) == len(serial)
            for rs, rp in zip(serial, parallel):
                assert replace(rs, wall_ms=0.0) == replace(rp, wall_ms=0.0)

    def test_pool_pickles_the_instance_at_most_once_per_worker(self, monkeypatch):
        pickles = []

        def counting_reduce_ex(inst, protocol):
            pickles.append(protocol)
            return object.__reduce_ex__(inst, protocol)

        monkeypatch.setattr(Instance, "__reduce_ex__", counting_reduce_ex)
        spec = small_spec(ks=[3], reps=4)
        records = run_experiment(spec, workers=2)
        assert len(records) == 8
        assert len(pickles) <= 2

    def test_cell_seed_is_pure(self):
        assert derive_cell_seed(1, 2, 3, 4) == derive_cell_seed(1, 2, 3, 4)
        assert derive_cell_seed(1, 2, 3, 4) != derive_cell_seed(1, 2, 3, 5)


class TestFailedLocalSearch:
    """Every certification fails, so every local-search attempt does."""

    @pytest.fixture(autouse=True)
    def failing_check(self, monkeypatch):
        check = fs.check_local_opt_condition
        monkeypatch.setattr(fs, "check_local_opt_condition",
                            lambda *a: replace(check(*a), satisfied=False))

    inst = gen_synthetic("graph-cut", 20, np.random.default_rng(3), density=0.4)
    cfg = SolverConfig(k=3, eps=0.25, seed=6)

    def test_fastls_reports_failed(self):
        sol, failed = ALGORITHMS["fastls"](make_handle(self.inst, 3), self.cfg)
        assert failed and len(sol) == 0

    def test_guidedsg_reports_failed_after_an_unguided_greedy(self, monkeypatch):
        guides = []
        greedy = fs.guided_stochastic_greedy

        def recording_greedy(handle, guide, cfg, rng):
            guides.append(guide)
            return greedy(handle, guide, cfg, rng)

        monkeypatch.setattr(fs, "guided_stochastic_greedy", recording_greedy)
        sol, failed = ALGORITHMS["guidedsg"](make_handle(self.inst, 3), self.cfg)
        assert failed
        [guide] = guides
        assert len(guide) == 0
        # The same greedy run with an empty guide, on the stream the failed
        # local search left behind.
        rng = np.random.default_rng(self.cfg.seed)
        assert fs.fast_local_search(make_handle(self.inst, 3), self.cfg, rng) is None
        want = greedy(make_handle(self.inst, 3), Solution(3), self.cfg, rng)
        assert sol.elements == want.elements


class TestSummarize:
    def test_single_record_zero_std(self):
        rec = RunRecord("a", 2, 1, 5.0, 10, 1.0, False)
        rows = summarize([rec])
        assert rows[0].std_value == 0.0

    def test_population_std(self):
        recs = [
            RunRecord("a", 2, 1, 1.0, 10, 1.0, False),
            RunRecord("a", 2, 2, 3.0, 12, 1.0, False),
        ]
        row = summarize(recs)[0]
        assert row.mean_value == pytest.approx(2.0)
        assert row.std_value == pytest.approx(1.0)
        assert row.mean_queries == pytest.approx(11.0)

    def test_failure_rate(self):
        recs = [RunRecord("a", 2, i, 0.0, 1, 1.0, i < 2) for i in range(8)]
        assert summarize(recs)[0].failure_rate == pytest.approx(0.25)

    def test_row_order(self):
        recs = [
            RunRecord("b", 3, 1, 0.0, 1, 1.0, False),
            RunRecord("a", 5, 1, 0.0, 1, 1.0, False),
            RunRecord("a", 2, 1, 0.0, 1, 1.0, False),
        ]
        rows = summarize(recs)
        assert [(r.algo, r.k) for r in rows] == [("a", 2), ("a", 5), ("b", 3)]

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            summarize([])


class TestCsv:
    def test_header_only_for_empty(self, tmp_path):
        p = tmp_path / "r.csv"
        write_csv([], p)
        assert p.read_text() == "algo,k,seed,value,queries,wall_ms,failed\n"

    def test_roundtrip(self, tmp_path):
        records = run_experiment(small_spec(ks=[3], reps=4))
        p = tmp_path / "r.csv"
        write_csv(records, p)
        back = read_records_csv(p)
        assert len(back) == len(records)
        for ra, rb in zip(records, back):
            assert ra.algo == rb.algo and ra.seed == rb.seed
            assert rb.value == float(format(ra.value, ".9g"))
            # a second write/read cycle is lossless
        p2 = tmp_path / "r2.csv"
        write_csv(back, p2)
        again = read_records_csv(p2)
        for rb, rc in zip(back, again):
            assert rb.value == rc.value and rb.wall_ms == rc.wall_ms

    @pytest.mark.parametrize("row, what", [
        ("main,3,7,1.5,10,2.0", "not enough values to unpack"),
        ("main,3,7,1.5,10,2.0,0,1", "too many values to unpack"),
        ("main,three,7,1.5,10,2.0,0", "invalid literal for int"),
        ("main,3,7,high,10,2.0,0", "could not convert string to float"),
    ])
    def test_a_malformed_row_names_its_line(self, tmp_path, row, what):
        p = tmp_path / "r.csv"
        p.write_text(f"{RECORD_HEADER}\nmain,3,7,1.5,10,2.0,0\n\n{row}\n")
        with pytest.raises(ParseError, match=f"{what}.*\\(line 4\\)") as info:
            read_records_csv(p)
        assert info.value.line == 4

    @pytest.mark.parametrize("text", [
        "", "algo,k,seed,value\nmain,3,7,1.5\n", f"\n{RECORD_HEADER}\nmain,3,7,1.5,10,2.0,0\n",
    ], ids=["empty", "short-header", "header-on-line-2"])
    def test_a_wrong_header_is_refused(self, tmp_path, text):
        p = tmp_path / "r.csv"
        p.write_text(text)
        with pytest.raises(ParseError, match="unexpected header") as err:
            read_records_csv(p)
        assert err.value.line == 1

    def test_records_are_read_as_utf8(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_bytes(f"{RECORD_HEADER}\nm\u00e4in,3,7,1.5,10,2.0,0\n".encode("utf-8"))
        assert [r.algo for r in read_records_csv(p)] == ["m\u00e4in"]
        p.write_bytes(RECORD_HEADER.encode() + b"\n\xff,3,7,1.5,10,2.0,0\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            read_records_csv(p)

    def test_line_count(self, tmp_path):
        records = run_experiment(small_spec())
        p = tmp_path / "r.csv"
        write_csv(records, p)
        assert len(p.read_text().splitlines()) == 49


class TestSvg:
    def test_well_formed_xml(self, tmp_path):
        rows = summarize(run_experiment(small_spec()))
        p = tmp_path / "plot.svg"
        render_svg(rows, p)
        root = ET.parse(p).getroot()
        assert root.tag.endswith("svg")

    def test_single_point_degenerate_band(self, tmp_path):
        rows = [SummaryRow("a", 3, 5.0, 0.0, 10.0, 0.0)]
        p = tmp_path / "one.svg"
        render_svg(rows, p)
        assert ET.parse(p).getroot() is not None

    def test_band_half_width_matches_std(self, tmp_path):
        rows = [
            SummaryRow("a", 2, 4.0, 1.0, 10.0, 0.0),
            SummaryRow("a", 4, 6.0, 2.0, 10.0, 0.0),
        ]
        p = tmp_path / "band.svg"
        render_svg(rows, p)
        root = ET.parse(p).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        polygons = root.findall(f"{ns}polygon")
        assert len(polygons) == 1
        pts = [tuple(map(float, xy.split(","))) for xy in polygons[0].get("points").split()]
        # band points: top-left, top-right, bottom-right, bottom-left
        v_lo, v_hi = 4.0 - 1.0, 6.0 + 2.0
        for (k, mean, std, top_idx, bot_idx) in [(2, 4.0, 1.0, 0, 3), (4, 6.0, 2.0, 1, 2)]:
            y_top = pts[top_idx][1]
            y_bot = pts[bot_idx][1]
            expect_top = svg_y(mean + std, v_lo, v_hi)
            expect_bot = svg_y(mean - std, v_lo, v_hi)
            assert y_top == pytest.approx(expect_top, abs=0.02)
            assert y_bot == pytest.approx(expect_bot, abs=0.02)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(EmptyInputError):
            render_svg([], tmp_path / "x.svg")
