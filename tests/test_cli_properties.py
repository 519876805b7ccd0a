"""Property tests over the CLI argument space: a run either succeeds (0) or
rejects its arguments (2) before writing anything. Exit 1 (an inequality
failed) and 4 (a crash) must not come from small argument values."""

import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from qssa.cli import main
from qssa.suites import SUITES

# Factor lists include 0 and -1 (rejected by the parser) and the empty list;
# lengths 1..4 give every suite both the right and the wrong factor count.
DIMS = st.lists(st.integers(-1, 3), min_size=0, max_size=4).map(lambda ds: ",".join(map(str, ds)))
SMALL = settings(deadline=None, max_examples=50, derandomize=True)


def exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the value itself
        return exc.code


def assert_exit_0_or_2(argv, outputs) -> None:
    code = exit_code(argv)
    assert code in (0, 2), (argv, code)
    if code == 2:
        assert not any(os.path.exists(p) for p in outputs), argv


@SMALL
@given(suite=st.sampled_from([*SUITES, "all", "bogus"]), dims=DIMS, trials=st.integers(-1, 2),
       seed=st.integers(-2, 5), d=st.integers(-1, 4), two_j=st.integers(-1, 3))
def test_check_exits_0_or_2(suite, dims, trials, seed, d, two_j):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "r.ndjson")
        assert_exit_0_or_2(["check", "--suite", suite, f"--dims={dims}", f"--trials={trials}",
                            f"--seed={seed}", f"--d={d}", f"--two-j={two_j}", "--out", out], [out])


@SMALL
@given(kind=st.sampled_from(["density", "kraus", "povm", "cq"]), dims=DIMS,
       rank=st.none() | st.integers(-1, 10), count=st.integers(-1, 3), seed=st.integers(-2, 5))
def test_gen_exits_0_or_2(kind, dims, rank, count, seed):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "x.json")
        argv = ["gen", "--kind", kind, f"--dims={dims}", f"--count={count}", f"--seed={seed}",
                "--out", out]
        assert_exit_0_or_2(argv + ([] if rank is None else [f"--rank={rank}"]), [out])


@SMALL
@given(two_j=st.integers(-2, 4), trials=st.integers(-1, 3), seed=st.integers(-2, 5),
       husimi=st.booleans())
def test_wehrl_exits_0_or_2(two_j, trials, seed, husimi):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "scan.csv")
        argv = ["wehrl", f"--two-j={two_j}", f"--trials={trials}", f"--seed={seed}", "--out", out]
        assert_exit_0_or_2(argv + ["--emit-husimi"] * husimi,
                           [out, os.path.join(tmp, "scan.husimi.csv")])
