"""Correctness gate for the NDJSON reports a benchmark command wrote.

A command's reports pass when there are exactly as many as expected, the
command did not crash, and every report

- carries a verdict: status "ok" with pass true, or the counterexample's
  "expected-violation" (which counts as a pass);
- is self-consistent: slack recomputes from lhs, rhs and the relation, and
  pass recomputes as slack >= -tol;
- carries the CLI seed it was run with;
- matches the reference recorded at this commit, when one is given, in name
  and within REF_RTOL in lhs and rhs.

Bytes are not compared with the reference: at --dims 8,8,8 the last digits
of some values change with the BLAS thread count.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# Relative tolerance against the reference, scaled like qssa's default_tol
# (entropies are O(ln dim)); observed drift across BLAS thread counts is ~4e-15.
REF_RTOL = 1e-9

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def report_problem(rec: dict, cli_seed: int) -> str | None:
    """Why one parsed report fails the gate, or None if it passes."""
    try:
        status, passed, lhs, rhs = rec["status"], rec["pass"], rec["lhs"], rec["rhs"]
        slack, tol, relation = rec["slack"], rec["tol"], rec["meta"]["relation"]
    except (KeyError, TypeError) as exc:
        return f"malformed report: missing {exc}"
    if rec.get("seed") != cli_seed:
        return f"seed {rec.get('seed')!r} is not the CLI seed {cli_seed}"
    if status == "expected-violation":
        return None if passed is True else "expected-violation without pass"
    if status != "ok":
        return f"status {status!r}"
    if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in (lhs, rhs, slack, tol)):
        return "non-finite or missing lhs/rhs/slack/tol"
    if relation not in ("<=", ">="):
        return f"relation {relation!r}"
    if slack != (rhs - lhs if relation == "<=" else lhs - rhs):
        return "slack does not recompute from lhs, rhs and relation"
    if not isinstance(passed, bool) or passed != (slack >= -tol):
        return "pass does not recompute as slack >= -tol"
    if not passed:
        return "failed verdict"
    return None


def _close(x: float, ref: float) -> bool:
    return abs(x - ref) <= REF_RTOL * max(1.0, abs(ref))


def gate_output(path, expected: int, cli_seed: int, reference: list | None = None) -> tuple[int, list[str]]:
    """Failed-report count and the reasons for one command's output file.

    A wrong report count fails every expected report, since reports can no
    longer be matched to instances.
    """
    try:
        lines = Path(path).read_text().splitlines()
        recs = [json.loads(line) for line in lines]
    except (OSError, ValueError) as exc:
        return expected, [f"{path}: unreadable output: {exc}"]
    if len(recs) != expected:
        return expected, [f"{path}: {len(recs)} reports, expected {expected}"]
    if reference is not None and len(reference) != expected:
        return expected, [f"{path}: reference has {len(reference)} reports, expected {expected}"]
    failed = 0
    reasons = []
    for i, rec in enumerate(recs):
        problem = report_problem(rec, cli_seed)
        if problem is None and reference is not None:
            name, lhs, rhs = reference[i]
            if rec["name"] != name:
                problem = f"name {rec['name']!r}, reference {name!r}"
            elif not (_close(rec["lhs"], lhs) and _close(rec["rhs"], rhs)):
                problem = f"lhs/rhs ({rec['lhs']!r}, {rec['rhs']!r}) off reference ({lhs!r}, {rhs!r})"
        if problem is not None:
            failed += 1
            if len(reasons) < 5:
                reasons.append(f"{path} line {i + 1}: {problem}")
    return failed, reasons
