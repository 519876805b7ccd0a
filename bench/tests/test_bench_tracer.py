"""The tracer wraps every alias of qssa's public functions and changes no output."""

import importlib
import inspect

import numpy as np
import pytest

import qssa
import qssa.cli
from tracer import EIG, LAYERS, Tracer

MODULES = [importlib.import_module(f"qssa.{layer}") for layer in LAYERS]


def public_functions():
    out = {}
    for mod in MODULES:
        for name, obj in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out[id(obj)] = obj
    return out


def reachable(mod):
    """Every (where, value) a module exposes, including values of its dicts."""
    for name, obj in vars(mod).items():
        if name.startswith("__"):
            continue
        yield f"{mod.__name__}.{name}", obj
        if isinstance(obj, dict):
            for key, value in obj.items():
                yield f"{mod.__name__}.{name}[{key!r}]", value


def test_no_unwrapped_alias_while_installed():
    originals = public_functions()
    assert len(originals) > 50
    partial_trace = qssa.linalg.partial_trace
    eig_funcs = (np.linalg.eigvalsh, np.linalg.eigh)
    with Tracer():
        leaks = [where for mod in [qssa, *MODULES] for where, obj in reachable(mod)
                 if originals.get(id(obj)) is obj]
        assert leaks == []
        assert qssa.checks.partial_trace is qssa.linalg.partial_trace is qssa.partial_trace
        assert qssa.checks.partial_trace.__wrapped__ is partial_trace
        assert qssa.suites.SUITES["ssa"] is qssa.suites.suite_ssa
        assert (np.linalg.eigvalsh.__wrapped__, np.linalg.eigh.__wrapped__) == eig_funcs
        assert hasattr(qssa.linalg.DensityMatrix.__init__, "__wrapped__")
    assert public_functions().keys() == originals.keys()
    assert (np.linalg.eigvalsh, np.linalg.eigh) == eig_funcs
    assert not hasattr(qssa.linalg.DensityMatrix.__init__, "__wrapped__")
    assert qssa.checks.partial_trace is partial_trace
    assert qssa.suites.SUITES["ssa"] is originals[id(qssa.suites.suite_ssa)]


@pytest.mark.parametrize("args", [
    ["--suite", "all", "--dims", "2,2,2", "--trials", "3"],
    ["--suite", "all", "--dims", "3,2,3", "--trials", "1"],
    ["--suite", "wehrl", "--two-j", "4", "--trials", "2"],
])
def test_traced_bytes_equal_untraced(tmp_path, args):
    plain, traced = tmp_path / "plain.ndjson", tmp_path / "traced.ndjson"
    assert qssa.cli.main(["check", *args, "--seed", "5", "--out", str(plain)]) == 0
    tracer = Tracer()
    with tracer:
        assert qssa.cli.main(["check", *args, "--seed", "5", "--out", str(traced)]) == 0
    assert traced.read_bytes() == plain.read_bytes()
    assert tracer.stat(*EIG).count > 0
    assert tracer.stat("cli", "main").count == 1
    reports = len(plain.read_text().splitlines())
    metrics = tracer.layer_metrics(reports)
    if "all" in args:
        assert all(metrics[f"{layer}.self_s"][0] > 0 for layer in LAYERS)


# Eigensolves per report of each suite alone at dims 2,2,2, 50 trials.
EIG_PER_REPORT = {"ssa": 8.0, "stronger-ssa": 13.2, "cpt": 21.0, "convexity": 32.9, "wehrl": 8.6}


@pytest.mark.parametrize("suite", sorted(EIG_PER_REPORT))
def test_per_suite_eig_counts(tmp_path, suite):
    out = tmp_path / "out.ndjson"
    tracer = Tracer()
    with tracer:
        assert qssa.cli.main(["check", "--suite", suite, "--dims", "2,2,2", "--trials", "50",
                              "--seed", "42", "--out", str(out)]) == 0
    reports = len(out.read_text().splitlines())
    assert round(tracer.stat(*EIG).count / reports, 1) == EIG_PER_REPORT[suite]
