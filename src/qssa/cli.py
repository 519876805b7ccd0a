"""Command-line frontend: generate instances, run check suites, emit reports.

Exit codes: 0 all non-skipped checks passed, 1 a check failed (for
`wehrl`: the least S_W found lies below the coherent value), 2 bad
arguments or unknown suite/kind, 3 I/O failure, 4 internal error (the
traceback goes to stderr). Replaying with the same seed produces
byte-identical output files; `main` runs numpy's bundled OpenBLAS on one
thread, as eigensolves of 192 dims and more differ between thread counts.

`check` opens its output (`--out` or stdout) before the first suite runs and
writes each instance's reports as that instance finishes, so an unwritable
`--out` exits 3 before any work, and after an exit 4 the file holds the
complete lines of the instances that finished.

`main` alone maps errors to exit codes: a command returns 0 or 1, raises
`UsageError` for a bad argument or input (`error: <message>`, exit 2) and
lets `OSError` through (`I/O error: <exception>`, exit 3); anything else
raised, a `ValueError` from the numerics included, exits 4.

`qssa diff A B` compares two NDJSON report files, pairing reports by
(name, seed, suite, instance): 0 when they agree within --rtol, 1 on a
verdict flip, a larger change or a report found in one file only, 2 when a
line is not a report, an id repeats or a file is not UTF-8 text, 3 on an
I/O failure.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import sys
from typing import Iterable, Iterator

from .linalg import as_dims
from .randgen import (random_cq_state, random_density, random_kraus, random_povm, require_count, require_rank,
                      require_seed, require_trials)
from .suites import CSV_HEADER, SuiteConfig, csv_row, reports_to_csv, reports_to_ndjson, run_suites, to_json
from .wehrl import husimi, require_two_j, wehrl_min_scan


class UsageError(Exception):
    """A bad argument or input file, reported by `main` as `error: <message>`, exit 2."""


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return as_dims(text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad dims {text!r} (expected e.g. 2,3,2): {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qssa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run inequality check suites")
    p_check.add_argument("--suite", action="append", default=None,
                         help="suite name (repeatable or comma-separated); 'all' runs everything")
    p_check.add_argument("--dims", type=_parse_dims, default=SuiteConfig.dims)
    p_check.add_argument("--trials", type=int, default=SuiteConfig.trials)
    p_check.add_argument("--seed", type=int, default=SuiteConfig.seed)
    p_check.add_argument("--tol", type=float, default=SuiteConfig.tol)
    p_check.add_argument("--d", type=int, default=SuiteConfig.d, help="counterexample dimension")
    p_check.add_argument("--two-j", type=int, default=SuiteConfig.two_j, dest="two_j")
    p_check.add_argument("--out", default=None, help="output path (default stdout)")
    p_check.add_argument("--format", choices=("json", "csv"), default="json")

    p_gen = sub.add_parser("gen", help="generate a random object and write its JSON")
    p_gen.add_argument("--kind", choices=tuple(GEN_KINDS), required=True)
    p_gen.add_argument("--dims", type=_parse_dims, default=(2, 2))
    p_gen.add_argument("--rank", type=int, default=None)
    p_gen.add_argument("--count", type=int, default=None, help="operators of gen kraus or povm (default 2)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)

    p_wehrl = sub.add_parser("wehrl", help="scan Wehrl entropies of random pure states")
    p_wehrl.add_argument("--two-j", type=int, default=1, dest="two_j")
    p_wehrl.add_argument("--trials", type=int, default=100)
    p_wehrl.add_argument("--seed", type=int, default=0)
    p_wehrl.add_argument("--out", required=True, help="scan CSV path")
    p_wehrl.add_argument("--emit-husimi", action="store_true",
                         help="also dump node values of the minimizing state")

    p_diff = sub.add_parser("diff", help="compare lhs/rhs/verdicts of two NDJSON report files")
    p_diff.add_argument("a", help="reference reports")
    p_diff.add_argument("b", help="reports to compare")
    p_diff.add_argument("--rtol", type=float, default=1e-9,
                        help="allowed |change| per value, relative to max(1, |value in A|)")
    return parser


def _usage(rule, *values):
    """Apply a library argument rule and return its value; its ValueError or KeyError is a bad argument."""
    try:
        return rule(*values)
    except (KeyError, ValueError) as exc:
        raise UsageError(exc.args[0]) from exc


def _write(path: str | None, text: str | Iterable[str]) -> None:
    chunks = [text] if isinstance(text, str) else text
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", newline="") as fh:
            fh.writelines(chunks)


def cmd_check(args) -> int:
    cfg = _usage(lambda: SuiteConfig(suites=args.suite or SuiteConfig.suites, dims=args.dims, trials=args.trials,
                                     seed=args.seed, tol=args.tol, d=args.d, two_j=args.two_j))
    csv = args.format == "csv"
    n = n_fail = n_skip = 0

    def chunks() -> Iterator[str]:
        """The output text one instance at a time, tallying its reports; `_write` opens the file first."""
        nonlocal n, n_fail, n_skip
        if csv:
            yield CSV_HEADER + "\n"
        for batch in run_suites(cfg):
            n += len(batch)
            n_fail += sum(not r.passed for r in batch)
            n_skip += sum(r.status == "skipped" for r in batch)
            yield reports_to_csv(batch) if csv else reports_to_ndjson(batch)

    _write(args.out, chunks())
    print(f"{n} reports, {n_fail} failed, {n_skip} skipped", file=sys.stderr)
    return 1 if n_fail else 0


# What each `gen` kind takes: factor count (None: any), an example --dims, its size option (None:
# neither) and its draw from (dims, size, seed), which looks its generator up when called.
GEN_KINDS = {
    "density": (None, None, "rank", lambda dims, rank, seed: random_density(dims, rank, seed)),
    "kraus": (1, "4", "count", lambda dims, count, seed: random_kraus(dims[0], count, seed)),
    "povm": (1, "3", "count", lambda dims, count, seed: random_povm(dims[0], count, seed)),
    "cq": (3, "2,2,2", None, lambda dims, _, seed: random_cq_state(dims, seed)),
}


def cmd_gen(args) -> int:
    factors, example, takes, draw = GEN_KINDS[args.kind]
    total = math.prod(args.dims)
    _usage(require_seed, args.seed)
    if factors is not None and len(args.dims) != factors:
        raise UsageError(f"gen {args.kind} expects {factors} factor(s), e.g. --dims {example}, got {args.dims}")
    size = None
    for option, rule, default in (("rank", lambda r: require_rank(r, total), total), ("count", require_count, 2)):
        value = getattr(args, option)
        if option == takes:
            size = _usage(rule, default if value is None else value)
        elif value is not None:
            kinds = " or ".join(kind for kind, spec in GEN_KINDS.items() if spec[2] == option)
            raise UsageError(f"--{option} applies to gen --kind {kinds} only, not {args.kind}")
    obj = draw(args.dims, size, args.seed)
    _write(args.out, json.dumps(to_json(obj), separators=(",", ":")) + "\n")
    return 0


def cmd_wehrl(args) -> int:
    _usage(require_two_j, args.two_j)
    _usage(require_trials, args.trials)
    _usage(require_seed, args.seed)
    scan = wehrl_min_scan(args.two_j, args.trials, args.seed)
    summary = scan["summary"]
    _write(args.out, [csv_row(scan["rows"][0].keys()), *(csv_row(row.values()) for row in scan["rows"])])
    if args.emit_husimi:
        # the least-S_W state's (already guarded) values, computed before the file is opened
        grid = scan["grid"]
        _write(_husimi_path(args.out), _husimi_csv(grid, husimi(scan["best"], (grid,))))
    print(
        f"two_j={summary['two_j']} trials={summary['trials']} "
        f"min_S_W={summary['min_S_W']!r} coherent={summary['coherent_value']!r} "
        f"margin={summary['margin']!r} residual={summary['resolution_residual']!r}"
    )
    return 0 if summary["min_is_at_least_coherent"] else 1


def _report_id(r: dict) -> tuple:
    """(name, seed, suite, instance) of a parsed line; TypeError unless its
    name is a string and its lhs and rhs are numbers or null."""
    if not isinstance(r["name"], str) or any(v is not None and type(v) not in (int, float)
                                            for v in (r.get("lhs"), r.get("rhs"))):
        raise TypeError("name must be a string, lhs and rhs numbers or null")
    return r["name"], r["seed"], r["meta"].get("suite"), r["meta"].get("instance")


def _delta(x, y) -> float:
    """|x - y| of two report values (numbers or None); inf when one is missing or NaN."""
    if x == y or (x != x and y != y):  # equal, both None, or both NaN
        return 0.0
    if x is None or y is None:
        return math.inf
    d = abs(x - y)
    return d if d == d else math.inf


def _read_reports(path: str) -> dict:
    """(name, seed, suite, instance) -> (line number, line, parsed report) of an NDJSON report file;
    UsageError for a file that is not UTF-8 text, a line that is not a report or a repeated id."""
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise UsageError(f"{path} is not UTF-8 text: {exc}") from exc
    reports = {}
    for i, line in enumerate(lines, 1):
        try:
            r = json.loads(line)
            rid = _report_id(r)
            if rid in reports:
                raise UsageError(f"line {i} of {path} repeats report {rid} of line {reports[rid][0]}")
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise UsageError(f"line {i} is not a report ({path}): {exc!r}") from exc
        reports[rid] = (i, line, r)
    return reports


def cmd_diff(args) -> int:
    if not (math.isfinite(args.rtol) and args.rtol >= 0):
        raise UsageError(f"rtol must be finite and >= 0, got {args.rtol!r}")
    reports_a, reports_b = _read_reports(args.a), _read_reports(args.b)
    by_name = {}  # report name -> lines changed, lines, largest |dlhs| and |drhs|
    flips, over = [], 0
    only = [f"only in A: {rid}" for rid in reports_a if rid not in reports_b]
    only += [f"only in B: {rid}" for rid in reports_b if rid not in reports_a]
    for rid, (i, la, ra) in reports_a.items():
        if rid not in reports_b:
            continue
        _, lb, rb = reports_b[rid]
        row = by_name.setdefault(ra["name"], {"changed": 0, "lines": 0, "lhs": 0.0, "rhs": 0.0})
        row["changed"] += la != lb
        row["lines"] += 1
        for key in ("lhs", "rhs"):
            d = _delta(ra.get(key), rb.get(key))
            if d:
                row[key] = max(row[key], d)
                over += d == math.inf or d > args.rtol * max(1.0, abs(ra[key]))
        if (ra.get("pass"), ra.get("status")) != (rb.get("pass"), rb.get("status")):
            flips.append(f"flip: line {i} {ra['name']} (suite {rid[2]}, instance {rid[3]}): "
                         f"pass {ra.get('pass')} -> {rb.get('pass')}, "
                         f"status {ra.get('status')} -> {rb.get('status')}")
    print(f"{'name':<28} {'changed':>11} {'max|dlhs|':>10} {'max|drhs|':>10}")
    for name, row in by_name.items():
        counts = f"{row['changed']}/{row['lines']}"
        print(f"{name:<28} {counts:>11} {row['lhs']:>10.2e} {row['rhs']:>10.2e}")
    print("\n".join(only + (flips or ["no verdict flips"])))
    changed = sum(row["changed"] for row in by_name.values()) + len(only)
    print(f"{changed} of {len(reports_a.keys() | reports_b.keys())} lines changed ({len(only)} in one file only); "
          f"{over} values beyond rtol {args.rtol:g}; {len(flips)} verdict flips")
    return 1 if flips or over or only else 0


def _husimi_path(out: str) -> str:
    return (out[:-4] if out.endswith(".csv") else out) + ".husimi.csv"


def _husimi_csv(grid, values) -> Iterator[str]:
    """A grid's nodes and weights with the Husimi values on it, as CSV text one theta row at a time."""
    yield "theta,phi,weight,value\n"
    phis = grid.phis.tolist()
    for th, w, row in zip(grid.thetas.tolist(), grid.weights[:: len(phis)].tolist(), values.reshape(-1, len(phis))):
        yield "".join(csv_row((th, ph, w, v)) for ph, v in zip(phis, row.tolist()))


def _one_blas_thread() -> None:
    """Pin numpy's bundled OpenBLAS (found through the extension that links it) to one
    thread for the process, as eigensolves from n = 192 up return other bytes at other
    thread counts; nothing where it is not found."""
    try:
        from numpy._core import _multiarray_umath

        ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_set_num_threads64_(1)
    except (ImportError, OSError, AttributeError):
        pass


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"check": cmd_check, "gen": cmd_gen, "diff": cmd_diff, "wehrl": cmd_wehrl}[args.command]
    _one_blas_thread()
    try:
        return command(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except Exception:
        import traceback  # only on this path: importing it costs ~3 ms of start-up

        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
