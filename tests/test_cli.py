"""CLI behavior: exit codes, report files, round trips, replay."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qssa.cli
from qssa.cli import build_parser, main
from qssa.randgen import random_density
from qssa.suites import SUITES, WEHRL_MAX_TWO_J, SuiteConfig, from_json
from qssa.wehrl import husimi, make_grid

from test_measurement import completeness_residual
from test_wehrl import GUARDS, corrupt_husimi


def run(argv):
    return main(argv)


class TestCheckCommand:
    def test_defaults_are_suite_config_defaults(self):
        args = build_parser().parse_args(["check"])
        assert args.suite is None  # cmd_check then runs SuiteConfig.suites
        for field in dataclasses.fields(SuiteConfig):
            if field.name != "suites":
                assert getattr(args, field.name) == field.default, field.name

    def test_ssa_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "r.ndjson"
        code = run(["check", "--suite", "ssa", "--dims", "2,2,2", "--trials", "10",
                    "--seed", "7", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 10
        for line in lines:
            obj = json.loads(line)
            assert obj["pass"] is True
            assert obj["status"] == "ok"
            assert obj["seed"] == 7

    def test_counterexample_suite(self, tmp_path):
        out = tmp_path / "c.ndjson"
        code = run(["check", "--suite", "counterexample", "--d", "3", "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text().strip())
        assert obj["status"] == "expected-violation"
        assert obj["lhs"] == pytest.approx(math.log(3), abs=1e-10)
        assert obj["rhs"] == pytest.approx(0.0, abs=1e-12)

    def test_unknown_suite_exits_2(self, capsys):
        # SuiteConfig's KeyError becomes a bad argument through the one rule, cli._usage
        assert run(["check", "--suite", "bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown suite(s): bogus; known: {', '.join(SUITES)}, all\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_stdout_gets_the_bytes_of_the_out_file(self, tmp_path, capsysbinary, fmt):
        args = ["check", "--suite", "ssa,counterexample", "--trials", "2", "--seed", "3", "--format", fmt]
        out = tmp_path / "r.out"
        assert run(args + ["--out", str(out)]) == 0
        capsysbinary.readouterr()
        assert run(args) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    def test_too_few_factors_exits_2(self, capsys):
        assert run(["check", "--suite", "improved-subadd", "--dims", "2", "--trials", "1"]) == 2
        assert run(["check", "--suite", "ssa", "--dims", "2,2", "--trials", "1"]) == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
    def test_bad_tol_exits_2(self, tmp_path, capsys, tol):
        out = tmp_path / "r.ndjson"
        assert run(["check", "--suite", "ssa", "--trials", "1", f"--tol={tol}",
                    "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("tol", [0.0, 1e-3])
    def test_tol_sets_every_verdict_and_moves_no_value(self, tmp_path, capsys, tol):
        args = ["check", "--suite", "all", "--trials", "3", "--seed", "42"]
        default, judged = tmp_path / "default.ndjson", tmp_path / "judged.ndjson"
        assert run(args + ["--out", str(default)]) == 0
        assert run(args + [f"--tol={tol}", "--out", str(judged)]) == 0
        pairs = [(json.loads(a), json.loads(b)) for a, b in
                 zip(default.read_text().splitlines(), judged.read_text().splitlines(), strict=True)]
        assert {a["meta"]["suite"] for a, _ in pairs} == set(SUITES)
        for a, b in pairs:
            assert b["status"] != "skipped"
            assert b["tol"] == tol
            assert (b["lhs"], b["rhs"], b["slack"]) == (a["lhs"], a["rhs"], a["slack"])
            assert b["pass"] is (b["status"] == "expected-violation" or b["slack"] >= -tol)
            a.pop("tol"), b.pop("tol")
            assert a == b

    @pytest.mark.parametrize("dims", ["2", "2,2"])
    @pytest.mark.parametrize("suite", list(SUITES))
    def test_few_factors_never_report_failure(self, tmp_path, capsys, suite, dims):
        # exit 1 means an inequality failed; too few factors is a bad argument
        code = run(["check", "--suite", suite, "--dims", dims, "--trials", "1",
                    "--out", str(tmp_path / "r.ndjson")])
        assert code in (0, 2)

    def test_internal_error_exits_4(self, monkeypatch, capsys):
        # exit 1 means an inequality failed; a crash gets its own code
        def boom(cfg):
            raise RuntimeError("boom")

        monkeypatch.setattr("qssa.cli.run_suites", boom)
        assert run(["check", "--suite", "ssa", "--trials", "1"]) == 4
        assert "RuntimeError: boom" in capsys.readouterr().err

    def test_value_error_during_run_exits_4(self, monkeypatch, capsys):
        # a ValueError from the numerics is a crash, not a bad argument
        def boom(cfg):
            raise ValueError("numerics")

        monkeypatch.setitem(SUITES, "ssa", boom)
        assert run(["check", "--suite", "ssa", "--trials", "1"]) == 4
        assert "ValueError: numerics" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--suite", "ssa", "--dims", "2,2"],
        ["--suite", "counterexample", "--d", "1"],
        ["--suite", "wehrl", "--two-j", "-1"],
        ["--suite", "wehrl", "--two-j", "1030"],
        ["--suite", "wehrl", "--two-j", str(WEHRL_MAX_TWO_J + 1)],
        ["--suite", "gibbs", "--seed", "-1"],
        ["--suite", ","],
        ["--suite", ""],
        ["--suite", "all,bogus"],
    ], ids=["dims", "d", "two-j", "two-j-above-grid", "two-j-above-suite", "seed", "comma", "empty",
            "all-and-unknown"])
    def test_bad_arguments_exit_2_before_any_work(self, tmp_path, monkeypatch, capsys, args):
        def never(cfg):
            raise AssertionError("suite ran")

        monkeypatch.setattr("qssa.cli.run_suites", never)
        out = tmp_path / "r.ndjson"
        assert run(["check", *args, "--trials", "1", "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_wehrl_suite_spin_bound(self, tmp_path, monkeypatch, capsys):
        # the largest spin whose two-spin instances the suite builds runs; one more exits 2
        seen = []
        monkeypatch.setattr("qssa.cli.run_suites", lambda cfg: seen.append(cfg.two_j) or [])
        out = tmp_path / "r.ndjson"
        assert run(["check", "--suite", "wehrl", "--two-j", str(WEHRL_MAX_TWO_J), "--out", str(out)]) == 0
        assert seen == [WEHRL_MAX_TWO_J]
        out.unlink()
        capsys.readouterr()
        assert run(["check", "--suite", "all", "--two-j", str(WEHRL_MAX_TWO_J + 1), "--out", str(out)]) == 2
        assert not out.exists() and seen == [WEHRL_MAX_TWO_J]
        assert capsys.readouterr().err == f"error: suite wehrl needs two_j <= {WEHRL_MAX_TWO_J}, got {WEHRL_MAX_TWO_J + 1}\n"

    def test_io_failure_exits_3(self, capsys):
        code = run(["check", "--suite", "ssa", "--trials", "1",
                    "--out", "/nonexistent-dir/x.ndjson"])
        assert code == 3

    def test_csv_format(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run(["check", "--suite", "gibbs", "--trials", "3", "--seed", "1",
                    "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "name,seed,dims,lhs,rhs,slack,tol,pass,status,meta"
        assert len(lines) == 4

    def test_seed_replay_identical(self, tmp_path, capsys):
        a = tmp_path / "a.ndjson"
        b = tmp_path / "b.ndjson"
        args = ["check", "--suite", "stronger-ssa,sandwich", "--trials", "5", "--seed", "11"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_replay_identical_csv(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["check", "--suite", "cqq", "--trials", "4", "--seed", "13", "--format", "csv"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("kind", ["node", "mass"])
    def test_husimi_guard_exits_4(self, tmp_path, monkeypatch, capsys, kind):
        # every S_W of the wehrl suite passes wehrl_entropy's guard; the moved node also
        # moves the mass here, so the message names which guard fired
        corrupt_husimi(monkeypatch, kind)
        out = tmp_path / "r.ndjson"
        assert run(["check", "--suite", "wehrl", "--two-j", "2", "--trials", "2",
                    "--out", str(out)]) == 4
        assert re.search(f"RuntimeError: Husimi .*{dict(GUARDS)[kind]}", capsys.readouterr().err)

    def test_multiple_suites_in_order(self, tmp_path):
        out = tmp_path / "m.ndjson"
        run(["check", "--suite", "gibbs", "--suite", "ssa", "--trials", "2",
             "--seed", "3", "--out", str(out)])
        names = [json.loads(l)["meta"]["suite"] for l in out.read_text().strip().split("\n")]
        # registry order puts ssa before gibbs regardless of flag order
        assert names == ["ssa", "ssa", "gibbs", "gibbs"]


class TestGenCommand:
    def test_density_round_trip(self, tmp_path):
        out = tmp_path / "d.json"
        assert run(["gen", "--kind", "density", "--dims", "2,2", "--seed", "1",
                    "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        rho = from_json(obj)
        from qssa.randgen import random_density

        again = random_density((2, 2), 4, 1)
        assert np.array_equal(rho.mat, again.mat)
        # re-serialization is byte-identical
        assert json.dumps(obj, separators=(",", ":")) + "\n" == out.read_text()

    def test_kraus_round_trip_contract(self, tmp_path):
        out = tmp_path / "k.json"
        assert run(["gen", "--kind", "kraus", "--dims", "4", "--count", "3",
                    "--seed", "2", "--out", str(out)]) == 0
        k = from_json(json.loads(out.read_text()))
        assert completeness_residual(k) <= 1e-12

    def test_povm_count_one_is_identity(self, tmp_path):
        out = tmp_path / "p.json"
        assert run(["gen", "--kind", "povm", "--dims", "3", "--count", "1",
                    "--seed", "4", "--out", str(out)]) == 0
        p = from_json(json.loads(out.read_text()))
        assert np.abs(p.elements[0] - np.eye(3)).max() < 1e-12

    def test_cq_round_trip(self, tmp_path):
        out = tmp_path / "cq.json"
        assert run(["gen", "--kind", "cq", "--dims", "2,2,2", "--seed", "5",
                    "--out", str(out)]) == 0
        rho = from_json(json.loads(out.read_text()))
        assert rho.dims == (2, 2, 2)

    def test_bad_dims_exit_2(self, capsys):
        assert run(["gen", "--kind", "kraus", "--dims", "2,2", "--seed", "1",
                    "--out", "/tmp/x.json"]) == 2

    @pytest.mark.parametrize("args", [
        ["--kind", "kraus", "--dims", "2,2"],
        ["--kind", "povm", "--dims", "2,2"],
        ["--kind", "cq", "--dims", "2,2"],
        ["--kind", "density", "--dims", "2,2", "--rank", "0"],
        ["--kind", "density", "--dims", "2,2", "--rank", "5"],
        ["--kind", "kraus", "--dims", "3", "--count", "0"],
        ["--kind", "povm", "--dims", "3", "--count", "-1"],
        ["--kind", "cq", "--dims", "2,2,2", "--seed", "-1"],
    ], ids=["kraus-dims", "povm-dims", "cq-dims", "rank-0", "rank-5", "kraus-count",
            "povm-count", "seed"])
    def test_bad_arguments_exit_2_before_any_work(self, tmp_path, monkeypatch, capsys, args):
        def never(*args, **kwargs):
            raise AssertionError("generator ran")

        for name in ("random_density", "random_kraus", "random_povm", "random_cq_state"):
            monkeypatch.setattr(f"qssa.cli.{name}", never)
        out = tmp_path / "x.json"
        assert run(["gen", *args, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("kind,dims", [("kraus", "4"), ("povm", "3"), ("cq", "2,2,2")])
    def test_rank_with_a_kind_that_ignores_it_exits_2(self, tmp_path, capsys, kind, dims):
        out = tmp_path / "x.json"
        assert run(["gen", "--kind", kind, "--dims", dims, "--rank", "2", "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: --rank applies to gen --kind density only, not {kind}\n"

    @pytest.mark.parametrize("kind,dims,count", [("density", "2", "7"), ("density", "2,2", "2"), ("cq", "2,2,2", "0")])
    def test_count_with_a_kind_that_ignores_it_exits_2(self, tmp_path, capsys, kind, dims, count):
        out = tmp_path / "x.json"
        assert run(["gen", "--kind", kind, "--dims", dims, "--count", count, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: --count applies to gen --kind kraus or povm only, not {kind}\n"

    def test_value_error_during_generation_exits_4(self, tmp_path, monkeypatch, capsys):
        # a ValueError from the numerics is a crash, not a bad argument
        def boom(*args, **kwargs):
            raise ValueError("numerics")

        monkeypatch.setattr("qssa.cli.random_density", boom)
        out = tmp_path / "d.json"
        assert run(["gen", "--kind", "density", "--out", str(out)]) == 4
        assert "ValueError: numerics" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["density", "kraus", "povm", "cq"])
    def test_io_failure_exits_3(self, tmp_path, capsys, kind):
        dims = "2,2,2" if kind == "cq" else "2"
        assert run(["gen", "--kind", kind, "--dims", dims, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("I/O error: ")

    def test_invalid_dims_argparse(self):
        with pytest.raises(SystemExit) as exc:
            run(["gen", "--kind", "density", "--dims", "0,2", "--seed", "1",
                 "--out", "/tmp/x.json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [
        ["gen", "--kind", "density", "--seed", "1", "--out", "/tmp/x.json"],
        ["check", "--suite", "ssa", "--trials", "1"],
    ], ids=["gen", "check"])
    @pytest.mark.parametrize("dims", ["0,2", "2,x", "2,,2"])
    def test_invalid_dims_message(self, command, dims, capsys):
        with pytest.raises(SystemExit) as exc:
            run(command + ["--dims", dims])
        assert exc.value.code == 2
        assert f"bad dims {dims!r}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["check", "--suite", "ssa", "--trials", "0"], "trials must be >= 1, got 0"),
    (["check", "--suite", "ssa", "--seed", "-3"], "seed must be >= 0, got -3"),
    (["gen", "--kind", "density", "--seed", "-3"], "seed must be >= 0, got -3"),
    (["wehrl", "--trials", "0"], "trials must be >= 1, got 0"),
    (["wehrl", "--seed", "-3"], "seed must be >= 0, got -3"),
], ids=["check-trials", "check-seed", "gen-seed", "wehrl-trials", "wehrl-seed"])
def test_seed_and_trials_rules_read_alike_in_every_command(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {message}\n"


class TestWehrlCommand:
    def test_spin_half_values(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert run(["wehrl", "--two-j", "1", "--trials", "10", "--seed", "3",
                    "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "trial,seed,two_j,S_W,S,diff"
        for line in lines[1:]:
            s_w = float(line.split(",")[3])
            assert abs(s_w - 0.5) < 1e-6
        summary = capsys.readouterr().out
        assert "coherent=0.5" in summary

    def test_two_j_zero(self, tmp_path, capsys):
        out = tmp_path / "scan0.csv"
        assert run(["wehrl", "--two-j", "0", "--trials", "3", "--seed", "1",
                    "--out", str(out)]) == 0
        for line in out.read_text().strip().split("\n")[1:]:
            assert abs(float(line.split(",")[3])) < 1e-12

    def test_replay_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["wehrl", "--two-j", "2", "--trials", "5", "--seed", "9", "--out", str(a)])
        run(["wehrl", "--two-j", "2", "--trials", "5", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_emit_husimi(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert run(["wehrl", "--two-j", "1", "--trials", "3", "--seed", "2",
                    "--out", str(out), "--emit-husimi"]) == 0
        hus = tmp_path / "scan.husimi.csv"
        assert hus.exists()
        rows = hus.read_text().strip().split("\n")
        assert rows[0] == "theta,phi,weight,value"
        mass = sum(float(r.split(",")[2]) * float(r.split(",")[3]) for r in rows[1:])
        assert abs(mass - 1.0) < 1e-10

    def test_emit_husimi_builds_one_grid(self, tmp_path, monkeypatch, capsys):
        # the node dump reuses the scan's grid and its least-S_W state
        made = []

        def counting_make_grid(*args, **kwargs):
            made.append(make_grid(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr("qssa.wehrl.make_grid", counting_make_grid)
        # a grid the CLI built for itself would be counted too
        monkeypatch.setattr("qssa.cli.make_grid", counting_make_grid, raising=False)
        out = tmp_path / "scan.csv"
        assert run(["wehrl", "--two-j", "4", "--trials", "3", "--seed", "5",
                    "--out", str(out), "--emit-husimi"]) == 0
        assert len(made) == 1
        s_w = [float(r.split(",")[3]) for r in out.read_text().strip().split("\n")[1:]]
        values = husimi(random_density((5,), 1, 5, (s_w.index(min(s_w)),)), made)
        rows = (tmp_path / "scan.husimi.csv").read_text().strip().split("\n")[1:]
        assert [float(r.split(",")[3]) for r in rows] == values.tolist()

    def test_emit_husimi_writes_one_theta_row_at_a_time(self, tmp_path, monkeypatch, capsys):
        # after the scan, the node CSV is written row by row: its text is never held whole
        scan, held = qssa.cli.wehrl_min_scan, []

        def scan_then_reset_peak(*args):
            result = scan(*args)
            tracemalloc.reset_peak()
            held.append(tracemalloc.get_traced_memory()[0])
            return result

        monkeypatch.setattr(qssa.cli, "wehrl_min_scan", scan_then_reset_peak)
        out = tmp_path / "scan.csv"
        tracemalloc.start()
        try:
            assert run(["wehrl", "--two-j", "64", "--trials", "1", "--seed", "0",
                        "--out", str(out), "--emit-husimi"]) == 0
            peak = tracemalloc.get_traced_memory()[1] - held[0]
        finally:
            tracemalloc.stop()
        size = (tmp_path / "scan.husimi.csv").stat().st_size
        assert peak < size / 2, f"{peak} bytes allocated for a {size}-byte CSV"

    def test_min_below_coherent_exits_1(self, tmp_path, monkeypatch, capsys):
        # a scan minimum below the coherent value is a failed check: exit 1, files and summary kept
        monkeypatch.setattr("qssa.wehrl.coherent_wehrl_value", lambda two_j: 10.0)
        out = tmp_path / "scan.csv"
        assert run(["wehrl", "--two-j", "2", "--trials", "3", "--out", str(out), "--emit-husimi"]) == 1
        assert len(out.read_text().strip().split("\n")) == 4
        assert (tmp_path / "scan.husimi.csv").exists()
        summary = capsys.readouterr().out
        assert "coherent=10.0" in summary and "margin=-9." in summary

    @pytest.mark.parametrize("args", [
        ["--two-j", "-1"], ["--trials", "0"], ["--seed", "-1"],
    ], ids=["two-j", "trials", "seed"])
    def test_bad_arguments_exit_2_before_any_work(self, tmp_path, monkeypatch, capsys, args):
        def never(*args, **kwargs):
            raise AssertionError("scan ran")

        monkeypatch.setattr("qssa.cli.wehrl_min_scan", never)
        out = tmp_path / "scan.csv"
        assert run(["wehrl", *args, "--out", str(out), "--emit-husimi"]) == 2
        assert not out.exists() and not (tmp_path / "scan.husimi.csv").exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_spin_the_grid_cannot_build_exits_2(self, tmp_path, capsys):
        # 2j = 1030 overflows the grid's float binomials; the rule rejects it first
        out = tmp_path / "scan.csv"
        assert run(["wehrl", "--two-j", "1030", "--trials", "1", "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: two_j must be >= 0 and <= 1029, got 1030\n"

    def test_value_error_during_scan_exits_4(self, tmp_path, monkeypatch, capsys):
        # a ValueError from the numerics is a crash, not a bad argument
        def boom(*args, **kwargs):
            raise ValueError("numerics")

        monkeypatch.setattr("qssa.cli.wehrl_min_scan", boom)
        out = tmp_path / "scan.csv"
        assert run(["wehrl", "--two-j", "2", "--trials", "3", "--out", str(out)]) == 4
        assert "ValueError: numerics" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("directory", ["scan.csv", "scan.husimi.csv"])
    def test_io_failure_exits_3(self, tmp_path, capsys, directory):
        # a directory where the scan CSV or, with --emit-husimi, the Husimi CSV goes
        (tmp_path / directory).mkdir()
        out = tmp_path / "scan.csv"
        assert run(["wehrl", "--two-j", "2", "--trials", "3", "--out", str(out), "--emit-husimi"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("I/O error: ") and not captured.out

    def test_large_spin_emit_husimi(self, tmp_path, capsys):
        # from 2j = 68 on, C(2j, k) no longer fits in an int64
        out = tmp_path / "scan.csv"
        assert run(["wehrl", "--two-j", "68", "--trials", "2", "--seed", "0",
                    "--out", str(out), "--emit-husimi"]) == 0
        assert (tmp_path / "scan.husimi.csv").exists()
        residual = capsys.readouterr().out.split("residual=")[1]
        assert float(residual) <= 1e-12


class TestDiffCommand:
    @pytest.fixture
    def reports(self, tmp_path):
        path = tmp_path / "a.ndjson"
        assert run(["check", "--suite", "ssa,gibbs", "--trials", "3", "--seed", "5",
                    "--out", str(path)]) == 0
        return path

    def rewrite(self, src, dst, line, **changes):
        recs = [json.loads(l) for l in src.read_text().splitlines()]
        recs[line].update(changes)
        dst.write_text("".join(json.dumps(r, separators=(",", ":")) + "\n" for r in recs))
        return dst

    def test_identical_files(self, reports, capsys):
        assert run(["diff", str(reports), str(reports), "--rtol", "0"]) == 0
        out = capsys.readouterr().out
        assert "0 of 6 lines changed" in out and "no verdict flips" in out

    def test_perturbed_lhs(self, reports, tmp_path, capsys):
        lhs = json.loads(reports.read_text().splitlines()[4])["lhs"]
        for delta, rtol, code in ((1e-13, "1e-9", 0), (1e-6, "1e-9", 1), (1e-13, "0", 1)):
            b = self.rewrite(reports, tmp_path / "b.ndjson", 4, lhs=lhs + delta)
            assert run(["diff", str(reports), str(b), "--rtol", rtol]) == code
            out = capsys.readouterr().out
            row = next(l for l in out.splitlines() if l.startswith("gibbs_variational"))
            assert row.split()[1] == "1/3"
            assert float(row.split()[2]) == pytest.approx(delta, rel=1e-2)

    def test_missing_values(self, tmp_path, capsys):
        a = tmp_path / "a.ndjson"
        b = tmp_path / "b.ndjson"
        skipped = {"name": "cpt_monotonicity", "seed": 1, "lhs": None, "rhs": None, "pass": True,
                   "status": "skipped", "meta": {"suite": "cpt", "instance": 0}}
        a.write_text(json.dumps(skipped) + "\n")
        assert run(["diff", str(a), str(a), "--rtol", "0"]) == 0
        b.write_text(json.dumps({**skipped, "lhs": 0.5}) + "\n")
        assert run(["diff", str(a), str(b)]) == 1
        assert "inf" in capsys.readouterr().out

    @pytest.mark.parametrize("field,value", [("name", ["ssa"]), ("lhs", "0.5"), ("rhs", True)],
                             ids=["list-name", "string-lhs", "bool-rhs"])
    def test_non_report_line_exits_2_with_its_number(self, reports, tmp_path, capsys, field, value):
        bad = self.rewrite(reports, tmp_path / "bad.ndjson", 2, **{field: value})
        for a, b in ((bad, bad), (reports, bad), (bad, reports)):
            assert run(["diff", str(a), str(b)]) == 2
            assert "error: line 3 is not a report" in capsys.readouterr().err

    def test_flipped_verdict(self, reports, tmp_path, capsys):
        b = self.rewrite(reports, tmp_path / "b.ndjson", 1, **{"pass": False})
        assert run(["diff", str(reports), str(b)]) == 1
        assert "flip: line 2 ssa (suite ssa, instance 1)" in capsys.readouterr().out

    def test_reports_pair_by_id_not_by_line(self, reports, tmp_path, capsys):
        lines = reports.read_text().splitlines(keepends=True)
        swapped = tmp_path / "swapped.ndjson"
        swapped.write_text("".join([lines[1], lines[0], *lines[2:]]))
        assert run(["diff", str(reports), str(swapped), "--rtol", "0"]) == 0
        assert "0 of 6 lines changed (0 in one file only)" in capsys.readouterr().out
        short = tmp_path / "short.ndjson"
        short.write_text("".join(lines[:-1]))
        assert run(["diff", str(reports), str(short)]) == 1
        out = capsys.readouterr().out
        assert "only in A: ('gibbs_variational', 5, 'gibbs', 2)" in out
        assert "1 of 6 lines changed (1 in one file only)" in out
        assert run(["diff", str(short), str(reports)]) == 1
        assert "only in B: ('gibbs_variational', 5, 'gibbs', 2)" in capsys.readouterr().out
        other_seed = self.rewrite(reports, tmp_path / "seed.ndjson", 0, seed=6)
        assert run(["diff", str(reports), str(other_seed)]) == 1
        out = capsys.readouterr().out
        assert "only in A: ('ssa', 5, 'ssa', 0)" in out and "only in B: ('ssa', 6, 'ssa', 0)" in out
        assert "2 of 7 lines changed (2 in one file only)" in out

    def test_mismatched_files(self, reports, tmp_path, capsys):
        lines = reports.read_text().splitlines(keepends=True)
        duplicate = tmp_path / "duplicate.ndjson"
        duplicate.write_text("".join([*lines, lines[0]]))
        assert run(["diff", str(reports), str(duplicate)]) == 2
        assert f"error: line 7 of {duplicate} repeats report ('ssa', 5, 'ssa', 0) of line 1" in capsys.readouterr().err
        garbage = tmp_path / "garbage.ndjson"
        garbage.write_text("not json\n" * len(lines))
        assert run(["diff", str(reports), str(garbage)]) == 2
        assert run(["diff", str(reports), str(tmp_path / "missing.ndjson")]) == 3
        assert run(["diff", str(reports), str(reports), "--rtol", "nan"]) == 2

    def test_non_utf8_file_exits_2(self, reports, tmp_path, capsys):
        utf16 = tmp_path / "utf16.ndjson"
        utf16.write_bytes(b"\xff\xfe" + reports.read_text().encode("utf-16-le"))
        for a, b in ((reports, utf16), (utf16, reports)):
            assert run(["diff", str(a), str(b)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {utf16} is not UTF-8 text") and "Traceback" not in err


class TestBlasThreads:
    def test_pin_is_skipped_where_openblas_cannot_be_loaded(self, tmp_path, monkeypatch, capsys):
        def no_library(path):
            raise OSError(f"cannot load {path}")

        monkeypatch.setattr(qssa.cli.ctypes, "CDLL", no_library)
        assert qssa.cli._one_blas_thread() is None
        assert run(["check", "--suite", "counterexample", "--out", str(tmp_path / "r.ndjson")]) == 0

    def test_replay_bytes_do_not_depend_on_thread_count(self, tmp_path):
        # two 17-dim spins: 289-dim eigensolves, which differ between 1 and 2
        # OpenBLAS threads unless main pins the count
        src = Path(__file__).resolve().parents[1] / "src"
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"wehrl-{threads}.ndjson"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
            subprocess.run([sys.executable, "-m", "qssa.cli", "check", "--suite", "wehrl",
                            "--two-j", "16", "--trials", "2", "--seed", "42", "--out", str(out)],
                           env=env, check=True, capture_output=True)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestBenchReference:
    @pytest.mark.parametrize("workload", ["small-all", "wehrl-spin"])
    def test_reports_match_the_committed_reference(self, tmp_path, workload):
        # the reference a benchmark workload recorded at its commit: each report keeps its name, and its
        # lhs and rhs within 1e-12 relative, so a change that moves a value is seen before CI's gate runs
        ref = json.loads((Path(__file__).resolve().parents[1] / "bench" / "reference" / f"{workload}.json")
                         .read_text())
        out = tmp_path / f"{workload}.ndjson"
        assert run(ref["argv"] + ["--out", str(out)]) == 0
        reports = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["name"] for r in reports] == [name for name, _, _ in ref["reports"]]
        for r, (name, lhs, rhs) in zip(reports, ref["reports"]):
            for got, want in ((r["lhs"], lhs), (r["rhs"], rhs)):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (name, got, want)
