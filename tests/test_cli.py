"""End-to-end checks of the command line interface and its exit codes."""

import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from submax import bench
from submax.bench import ALGORITHMS, read_records_csv
from submax.cli import main
from submax.config import SolverConfig
from submax.objectives import COVERAGE, gen_synthetic, objective_value


def assert_one_line_error(code, err):
    assert code == 1
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


class NoDraws:
    """Stands in for numpy's Generator: its first draw, which would start
    building a synthetic instance, fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"an instance was built (rng.{name})")


class TestGen:
    def test_gen_cut_then_bruteforce(self, tmp_path, capsys):
        data = tmp_path / "graph.txt"
        assert main([
            "gen", "--objective", "cut", "--n", "10", "--density", "0.6",
            "--seed", "4", "--out", str(data),
        ]) == 0
        assert main([
            "bruteforce", "--objective", "cut", "--data", str(data), "--k", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "opt_value=" in out and "enumerated=" in out

    @pytest.mark.parametrize("flags", [
        ["--weight-lo", "nan"], ["--weight-hi", "nan"], ["--weight-hi", "inf"],
        ["--weight-lo=-inf"], ["--weight-lo", "inf", "--weight-hi", "inf"],
    ])
    def test_non_finite_weight_range(self, tmp_path, capsys, flags):
        out = tmp_path / "g.txt"
        code = main(["gen", "--n", "10", "--objective", "cut", "--out", str(out), *flags])
        err = capsys.readouterr().err
        assert_one_line_error(code, err)
        assert "bad weight range" in err
        assert not out.exists()

    def test_gen_similarity(self, tmp_path):
        data = tmp_path / "sim.csv"
        assert main([
            "gen", "--objective", "coverage", "--n", "8", "--seed", "1",
            "--out", str(data),
        ]) == 0
        assert len(data.read_text().splitlines()) == 8


class TestSolve:
    def test_solve_synthetic(self, capsys):
        assert main([
            "solve", "--objective", "cut", "--n", "30", "--algo", "main",
            "--k", "4", "--eps", "0.25", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "value=" in out and "queries=" in out
        fields = dict(f.split("=", 1) for f in out.splitlines()[1].split())
        assert 0 < int(fields["evaluated"]) <= int(fields["queries"])

    def test_solve_every_algorithm(self):
        for algo in ALGORITHMS:
            assert main([
                "solve", "--objective", "cut", "--n", "16", "--algo", algo,
                "--k", "3", "--eps", "0.3", "--seed", "2",
            ]) == 0

    @pytest.mark.parametrize("algo", ["main", "localsearch"])
    def test_solve_prints_the_cell_run(self, capsys, algo):
        """`solve` reports what `bench.run_cell` records for the same run,
        scored on the sorted ids."""
        assert main([
            "solve", "--objective", "coverage", "--n", "40", "--algo", algo,
            "--k", "5", "--eps", "0.25", "--seed", "7",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        inst = gen_synthetic(COVERAGE, 40, np.random.default_rng(0), density=0.5, lam=0.75)
        rec, ids, evaluated = bench.run_cell(inst, algo, SolverConfig(k=5, eps=0.25, seed=7))
        assert ids == sorted(ids) and rec.value == objective_value(inst, ids)
        fields = dict(f.split("=", 1) for f in lines[1].split())
        assert fields["value"] == f"{rec.value:.9g}"
        assert (int(fields["queries"]), int(fields["evaluated"]), fields["failed"]) == (
            rec.queries, evaluated, str(int(rec.failed)))
        assert lines[2] == "elements=" + ",".join(map(str, ids))

    def test_unknown_algo_exits_1(self, capsys):
        assert main([
            "solve", "--objective", "cut", "--n", "10", "--algo", "bogus", "--k", "2",
        ]) == 1

    def test_bad_k_exits_1(self):
        assert main([
            "solve", "--objective", "cut", "--n", "10", "--algo", "main", "--k", "99",
        ]) == 1

    def test_bad_flags_exit_1_with_one_line(self, capsys):
        for argv in (
            ["solve", "--n", "abc", "--k", "2"],
            ["solve", "--objective", "nope", "--k", "2"],
            ["solve", "--n", "10"],
        ):
            code = main(argv)
            assert_one_line_error(code, capsys.readouterr().err)


class TestBench:
    def test_bench_with_outputs(self, tmp_path, capsys):
        out_csv = tmp_path / "records.csv"
        out_svg = tmp_path / "plot.svg"
        assert main([
            "bench", "--objective", "cut", "--n", "14",
            "--algo", "randomgreedy,samplegreedy", "--k", "2,3",
            "--reps", "3", "--seed", "5", "--eps", "0.2",
            "--out", str(out_csv), "--svg", str(out_svg),
        ]) == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "algo,k,seed,value,queries,wall_ms,failed"
        assert len(lines) == 1 + 2 * 2 * 3
        assert ET.parse(out_svg).getroot().tag.endswith("svg")

    def test_bench_from_config_file(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text(
            "objective=cut\nn=12\nalgo=samplegreedy\nk=2,3\nreps=2\nseed=9\neps=0.3\n"
        )
        assert main(["bench", "--config", str(conf)]) == 0

    def test_explicit_flag_overrides_config_file(self, tmp_path):
        conf = tmp_path / "exp.conf"
        out = tmp_path / "records.csv"
        conf.write_text("objective=cut\nn=12\nalgo=samplegreedy\nk=2\nreps=1\n")
        assert main(["bench", "--config", str(conf), "--k", "3", "--out", str(out)]) == 0
        assert [r.k for r in read_records_csv(out)] == [3]

    def test_bad_config_line_exits_1_with_one_line(self, tmp_path, capsys):
        conf = tmp_path / "exp.conf"
        for line in ("objective=bogus", "n=abc", "lam=0.5"):
            conf.write_text(f"algo=samplegreedy\n{line}\n")
            code = main(["bench", "--config", str(conf), "--k", "2"])
            assert_one_line_error(code, capsys.readouterr().err)

    def test_bad_config_key_exits_1(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("objective=cut\nwhat=ever\n")
        assert main(["bench", "--config", str(conf), "--k", "2"]) == 1

    def test_missing_data_file_exits_2(self, tmp_path):
        assert main([
            "bench", "--objective", "cut", "--data", str(tmp_path / "absent.txt"),
            "--algo", "samplegreedy", "--k", "2",
        ]) == 2

    def test_unwritable_output_exits_2(self, tmp_path):
        assert main([
            "bench", "--objective", "cut", "--n", "10",
            "--algo", "samplegreedy", "--k", "2", "--reps", "1",
            "--out", str(tmp_path / "no" / "such" / "dir.csv"),
        ]) == 2

    def test_parse_error_exits_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3\n")
        assert main([
            "bench", "--objective", "coverage", "--data", str(bad),
            "--algo", "samplegreedy", "--k", "2",
        ]) == 1

    def test_workers_write_the_same_records(self, tmp_path):
        argv = [
            "bench", "--objective", "cut", "--n", "30", "--density", "0.3",
            "--algo", "main,randomgreedy,samplegreedy", "--k", "3,4",
            "--reps", "2", "--seed", "7",
        ]
        records = {}
        for workers in ("1", "2"):
            out = tmp_path / f"records-{workers}.csv"
            assert main(argv + ["--workers", workers, "--out", str(out)]) == 0
            records[workers] = [replace(r, wall_ms=0.0) for r in read_records_csv(out)]
        assert len(records["1"]) == 3 * 2 * 2
        assert records["2"] == records["1"]

    def test_config_comment_lines_are_skipped(self, tmp_path):
        conf = tmp_path / "exp.conf"
        out = tmp_path / "records.csv"
        conf.write_text("# objective=bogus\nobjective=cut\nn=12\nalgo=samplegreedy\n"
                        "# k=99\nk=2,3\nreps=1\n")
        assert main(["bench", "--config", str(conf), "--out", str(out)]) == 0
        assert [r.k for r in read_records_csv(out)] == [2, 3]

    @pytest.mark.parametrize("flags, config", [
        (["--workers", "0"], ""),
        (["--workers", "-3"], ""),
        (["--workers", "two"], ""),
        ([], "workers=0\n"),
    ], ids=["zero", "negative", "not-a-number", "config-zero"])
    def test_bad_workers_exit_1_without_a_pool(self, tmp_path, capsys, monkeypatch,
                                               flags, config):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(bench, "ProcessPoolExecutor", no_pool)
        conf = tmp_path / "exp.conf"
        conf.write_text("objective=cut\nn=12\nalgo=samplegreedy\nk=2\n" + config)
        code = main(["bench", "--config", str(conf)] + flags)
        err = capsys.readouterr().err
        assert_one_line_error(code, err)
        assert "worker" in err


class TestBadInput:
    """Malformed data files and bad seeds exit with 1 and a one-line message."""

    def run_cut(self, tmp_path, capsys, text):
        data = tmp_path / "graph.txt"
        data.write_text(text)
        code = main([
            "solve", "--objective", "cut", "--data", str(data), "--algo", "main", "--k", "1",
        ])
        return code, capsys.readouterr().err

    def test_negative_edge_weight(self, tmp_path, capsys):
        code, err = self.run_cut(tmp_path, capsys, "0 1 1\n1 2 -0.5\n")
        assert_one_line_error(code, err)
        assert "negative edge weight" in err and "(line 2)" in err

    def test_empty_edge_list(self, tmp_path, capsys):
        code, err = self.run_cut(tmp_path, capsys, "# no edges\n")
        assert_one_line_error(code, err)
        assert "no edges" in err

    def test_huge_node_id(self, tmp_path, capsys):
        # Refused before any per-node array is allocated: row * n + col
        # would not fit in an int64.
        code, err = self.run_cut(tmp_path, capsys, "0 10000000000 1\n")
        assert_one_line_error(code, err)
        assert "n=10000000001," in err and f"{8 * 10000000001} bytes" in err

    def test_node_id_of_a_million_loads(self, tmp_path, capsys):
        data = tmp_path / "graph.txt"
        data.write_text("0 1000000 1.5\n")
        code = main(["solve", "--objective", "cut", "--data", str(data),
                     "--algo", "randomgreedy", "--k", "1", "--seed", "0"])
        assert code == 0
        assert "value=1.5 " in capsys.readouterr().out

    def test_non_finite_edge_weight(self, tmp_path, capsys):
        for weight in ("nan", "inf"):
            code, err = self.run_cut(tmp_path, capsys, f"0 1 1\n1 2 {weight}\n")
            assert_one_line_error(code, err)
            assert "finite" in err

    def test_entries_whose_total_overflows(self, tmp_path, capsys):
        code, err = self.run_cut(tmp_path, capsys, "0 1 1e308\n1 2 1e308\n")
        assert_one_line_error(code, err)
        assert "total must be finite" in err
        data = tmp_path / "sim.csv"
        data.write_text("1e308,1e308\n1e308,1e308\n")
        for objective in ("facility", "coverage"):
            code = main(["solve", "--objective", objective, "--data", str(data), "--k", "1"])
            err = capsys.readouterr().err
            assert_one_line_error(code, err)
            assert "total must be finite" in err

    def test_asymmetric_similarity(self, tmp_path, capsys):
        data = tmp_path / "sim.csv"
        data.write_text("1,0.5,0\n0.25,1,0\n0,0,1\n")
        for objective in ("facility", "coverage"):
            code = main([
                "solve", "--objective", objective, "--data", str(data),
                "--algo", "main", "--k", "1",
            ])
            err = capsys.readouterr().err
            assert_one_line_error(code, err)
            assert "symmetric" in err and "0.25" in err

    def test_non_finite_similarity(self, tmp_path, capsys):
        data = tmp_path / "sim.csv"
        data.write_text("1,nan\nnan,1\n")
        code = main([
            "solve", "--objective", "facility", "--data", str(data), "--algo", "main", "--k", "1",
        ])
        assert_one_line_error(code, capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["solve", "--objective", "cut", "--n", "10", "--k", "2", "--seed", "-1"],
        ["solve", "--objective", "cut", "--n", "10", "--k", "2", "--instance-seed", "-1"],
        ["bench", "--objective", "cut", "--n", "10", "--algo", "samplegreedy", "--k", "2",
         "--seed", "-1"],
        ["gen", "--n", "10", "--seed", "-2", "--out", "{tmp}/g.txt"],
        ["bench", "--config", "{tmp}/exp.conf", "--objective", "cut", "--n", "10", "--k", "2"],
    ], ids=["solve-seed", "instance-seed", "bench-seed", "gen-seed", "config-seed"])
    def test_negative_seed(self, tmp_path, capsys, argv):
        (tmp_path / "exp.conf").write_text("algo=samplegreedy\nseed=-1\n")
        code = main([a.format(tmp=tmp_path) for a in argv])
        err = capsys.readouterr().err
        assert_one_line_error(code, err)
        assert "seed must be non-negative" in err

    @pytest.mark.parametrize("value", ["-inf", "-1e400"])
    def test_negative_infinite_similarity(self, tmp_path, capsys, value):
        # Only finite negatives are clamped to 0; these reach the finiteness check.
        data = tmp_path / "sim.csv"
        data.write_text(f"1,{value}\n{value},1\n")
        for objective in ("coverage", "facility"):
            code = main([
                "solve", "--objective", objective, "--data", str(data), "--k", "1",
            ])
            err = capsys.readouterr().err
            assert_one_line_error(code, err)
            assert "finite" in err

    @pytest.mark.parametrize("argv, what", [
        (["solve", "--n", "10", "--k", "2", "--seed", "x"],
         "argument --seed: invalid seed value: 'x'"),
        (["solve", "--n", "10", "--k", "2,3"], "argument --k: invalid int value: '2,3'"),
        (["bruteforce", "--n", "10", "--k", "x"], "argument --k: invalid int value: 'x'"),
        (["bench", "--n", "10", "--algo", "samplegreedy", "--k", "2,x"],
         "argument --k: invalid int list value: '2,x'"),
        (["bench", "--n", "10", "--k", "2"], "bench requires --algo"),
        (["bench", "--config", "{tmp}/exp.conf"], "expected key=value, got 'n 12' (line 3)"),
        (["bench", "--objective", "cut", "--n", "10", "--algo", "main,bogus", "--k", "2"],
         "unknown algorithm 'bogus'"),
        (["bench", "--objective", "cut", "--n", "30", "--algo", "main,main", "--k", "3"],
         "repeated algorithm 'main'"),
        (["bench", "--objective", "cut", "--n", "30", "--algo", "main", "--k", "3,4,3"],
         "repeated k 3"),
        (["bench", "--objective", "cut", "--n", "4000", "--algo", "main", "--k", "5000"],
         "k=5000 invalid for instance with n=4000"),
        (["bench", "--objective", "cut", "--n", "4000", "--algo", "main", "--k", "3",
          "--eps", "2"], "eps must lie in (0, 1), got 2.0"),
        (["bench", "--objective", "coverage", "--n", "4000", "--algo", "main", "--k", "3",
          "--lambda", "2"], "lambda must lie in [0, 1], got 2.0"),
        (["solve", "--objective", "coverage", "--n", "4000", "--k", "3", "--lambda", "2"],
         "lambda must lie in [0, 1], got 2.0"),
        (["solve", "--objective", "cut", "--n", "4000", "--k", "3", "--eps", "2"],
         "eps must lie in (0, 1), got 2.0"),
        (["solve", "--objective", "cut", "--n", "4000", "--k", "3", "--ts", "2"],
         "t_s must lie in [0, 1], got 2.0"),
    ], ids=["seed-not-int", "solve-k-list", "bruteforce-k", "bench-k-list", "bench-no-algo",
            "config-no-equals", "bench-unknown-algo", "bench-repeated-algo",
            "bench-repeated-k", "bench-k-above-n", "bench-eps", "bench-lambda", "solve-lambda",
            "solve-eps", "solve-ts"])
    def test_rejected_flag_or_config_line(self, tmp_path, capsys, monkeypatch, argv, what):
        # Each is refused before any instance is built (16M uniform draws
        # at n = 4000): a build draws first, and NoDraws fails the test.
        monkeypatch.setattr(np.random, "default_rng", lambda *args, **kwargs: NoDraws())
        (tmp_path / "exp.conf").write_text("# a comment\nalgo=samplegreedy\nn 12\n")
        code = main([a.format(tmp=tmp_path) for a in argv])
        err = capsys.readouterr().err
        assert_one_line_error(code, err)
        assert what in err

    @pytest.mark.parametrize("argv", [
        ["solve", "--objective", "cut", "--data", "{bad}", "--k", "1"],
        ["solve", "--objective", "coverage", "--data", "{bad}", "--k", "1"],
        ["bench", "--config", "{bad}"],
    ], ids=["edge-list", "similarity-csv", "config"])
    def test_non_utf8_file(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe0 1 1\n")
        code = main([a.format(bad=bad) for a in argv])
        err = capsys.readouterr().err
        assert_one_line_error(code, err)
        assert str(bad) in err and "UTF-8" in err

    # Sizes numpy refuses before allocating anything: the cut draws need
    # n(n-1)/2 > 2**63 entries, the features n * 25 * 8 > 2**63 bytes.
    @pytest.mark.parametrize("argv", [
        ["solve", "--objective", "cut", "--n", "10000000000", "--k", "1"],
        ["solve", "--objective", "coverage", "--n", "1000000000000000000", "--k", "1"],
        ["gen", "--objective", "cut", "--n", "10000000000", "--out", "{tmp}/g.txt"],
        ["gen", "--objective", "facility", "--n", "1000000000000000000", "--out", "{tmp}/g.txt"],
    ], ids=["solve-cut", "solve-coverage", "gen-cut", "gen-facility"])
    def test_synthetic_size_numpy_refuses(self, tmp_path, capsys, argv):
        code = main([a.format(tmp=tmp_path) for a in argv])
        err = capsys.readouterr().err
        assert_one_line_error(code, err)
        assert f"n={argv[4]} " in err and "cannot be allocated" in err
        assert not (tmp_path / "g.txt").exists()

    @pytest.mark.parametrize("argv", [
        ["--eps", "1e-320"],
        ["--eps", "1e-320", "--algo", "samplegreedy"],
        ["--eps", "1e-320", "--algo", "localsearch"],
        ["--eps", "1e-200", "--algo", "samplegreedy", "--p-mode", "theoretical"],
        ["--eps", "1e-300"],
    ], ids=["main", "samplegreedy", "localsearch", "theoretical", "iterations"])
    def test_eps_with_infinite_counts(self, capsys, argv):
        code = main(["solve", "--objective", "cut", "--n", "10", "--k", "2", *argv])
        err = capsys.readouterr().err
        assert_one_line_error(code, err)
        assert f"eps={argv[1]} is too small" in err
