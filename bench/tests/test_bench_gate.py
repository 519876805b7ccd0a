"""The gate passes the reference command's reports and fails doctored ones."""

import json
import shutil
import subprocess
import sys

import pytest

import qssa.cli
import run
from gate import REF_RTOL, gate_output, load_reference
from workloads import REF_SEED, WORKLOADS

from conftest import BENCH, ROOT

W = WORKLOADS["small-all"]
EXPECTED = W.expected_reports(W.suites)


@pytest.fixture(scope="module")
def ref_lines(tmp_path_factory):
    out = tmp_path_factory.mktemp("ref") / "ref.ndjson"
    assert qssa.cli.main(W.argv(W.suite_arg, REF_SEED, str(out))) == 0
    return out.read_text().splitlines()


def gate(tmp_path, lines, reference=True):
    path = tmp_path / "doctored.ndjson"
    path.write_text("\n".join(lines) + "\n")
    ref = load_reference(W.name)["reports"] if reference else None
    return gate_output(path, EXPECTED, REF_SEED, ref)[0]


def doctor(lines, i, fn):
    rec = json.loads(lines[i])
    fn(rec)
    return lines[:i] + [json.dumps(rec)] + lines[i + 1:]


def shift_lhs(rel):
    """Move lhs by `rel` relative and keep slack and pass self-consistent."""
    def fn(rec):
        rec["lhs"] += rel * max(1.0, abs(rec["lhs"]))
        rec["slack"] = rec["rhs"] - rec["lhs"] if rec["meta"]["relation"] == "<=" else rec["lhs"] - rec["rhs"]
        rec["pass"] = rec["slack"] >= -rec["tol"]
    return fn


def test_reference_command_passes(tmp_path, ref_lines):
    assert len(ref_lines) == EXPECTED
    assert gate(tmp_path, ref_lines) == 0


@pytest.mark.parametrize("i", [0, 17, EXPECTED - 1])
def test_flipped_pass_fails(tmp_path, ref_lines, i):
    assert gate(tmp_path, doctor(ref_lines, i, lambda r: r.update({"pass": not r["pass"]})), reference=False) == 1


def test_lhs_perturbed_without_slack_fails(tmp_path, ref_lines):
    assert gate(tmp_path, doctor(ref_lines, 3, lambda r: r.update({"lhs": r["lhs"] * (1 + 1e-6)})), reference=False) == 1


def test_lhs_off_reference_fails(tmp_path, ref_lines):
    lines = doctor(ref_lines, 5, shift_lhs(100 * REF_RTOL))
    assert gate(tmp_path, lines, reference=False) == 0  # self-consistent,
    assert gate(tmp_path, lines) == 1                    # but off the reference


def test_lhs_within_reference_tolerance_passes(tmp_path, ref_lines):
    assert gate(tmp_path, doctor(ref_lines, 5, shift_lhs(REF_RTOL / 100))) == 0


def test_failed_verdict_skipped_and_wrong_seed_fail(tmp_path, ref_lines):
    def fail_verdict(r):
        r["lhs"], r["rhs"] = 2.0, 1.0
        r["meta"]["relation"] = "<="
        r["slack"], r["pass"] = -1.0, False
    assert gate(tmp_path, doctor(ref_lines, 0, fail_verdict), reference=False) == 1
    assert gate(tmp_path, doctor(ref_lines, 0, lambda r: r.update({"status": "skipped"})), reference=False) == 1
    assert gate(tmp_path, doctor(ref_lines, 0, lambda r: r.update({"seed": REF_SEED + 1})), reference=False) == 1


def test_wrong_count_fails_every_report(tmp_path, ref_lines):
    assert gate(tmp_path, ref_lines[:-1]) == EXPECTED
    assert gate(tmp_path, ref_lines + ref_lines[-1:]) == EXPECTED


def command(tmp_path, kind, lines=None, rc=0, error=None):
    """A worker command record whose output file holds `lines` (none if None)."""
    path = tmp_path / f"{kind}.ndjson"
    if lines is not None:
        path.write_text("\n".join(lines) + "\n")
    return {"kind": kind, "suite": W.suite_arg, "seed": REF_SEED, "path": str(path),
            "wall_s": 1.0, "rc": rc, "error": error}


def test_crashed_traced_command_fails_its_reports_once(tmp_path, ref_lines):
    commands = [command(tmp_path, "ref", ref_lines), command(tmp_path, "untraced", ref_lines),
                command(tmp_path, "traced", rc=None, error="Traceback: boom")]
    assert run.gate_commands(W, commands)[:2] == (3 * EXPECTED, EXPECTED)


def test_traced_bytes_differing_fail_only_reports_not_yet_failed(tmp_path, ref_lines):
    reformatted = [json.dumps(json.loads(line), separators=(", ", ": ")) for line in ref_lines]
    assert reformatted != ref_lines
    doctored = doctor(reformatted, 2, lambda r: r.update({"pass": not r["pass"]}))
    for traced in (reformatted, doctored):
        commands = [command(tmp_path, "untraced", ref_lines), command(tmp_path, "traced", traced)]
        assert run.gate_commands(W, commands)[:2] == (2 * EXPECTED, EXPECTED)
    commands = [command(tmp_path, "untraced", ref_lines), command(tmp_path, "traced", ref_lines)]
    assert run.gate_commands(W, commands)[:2] == (2 * EXPECTED, 0)


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", "--workload", "small-all", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def test_run_refuses_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_run_refuses_other_run_length():
    proc = run_bench(ROOT, "--seconds", str(run.RUN_SECONDS + 1))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
