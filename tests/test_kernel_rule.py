"""Source rules for the numerical kernels in src/qssa."""

import ast
from pathlib import Path

import qssa


def einsum_operand_counts(path):
    """(line, operand count) of every `einsum` call in one source file.

    Operands are the positional arguments other than subscript strings and
    literal sublists; a starred argument counts as unbounded.
    """
    counts = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "einsum":
            continue
        operands = 0
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                operands = float("inf")
            elif not isinstance(arg, (ast.Constant, ast.List, ast.Tuple)):
                operands += 1
        counts.append((node.lineno, operands))
    return counts


def small_module_floats(path, below=1e-6):
    """(line, value) of every float under `below` in a module-level assignment.

    Every float literal in the assigned expression counts, so `X = -1e-12`
    and `A, B = 1e-9, 2` are both found; zero is not a floor and is skipped.
    """
    found = []
    for stmt in ast.parse(path.read_text(), str(path)).body:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or stmt.value is None:
            continue
        for node in ast.walk(stmt.value):
            if isinstance(node, ast.Constant) and isinstance(node.value, float) and 0 < node.value < below:
                found.append((node.lineno, node.value))
    return found


def test_no_einsum_has_more_than_two_operands():
    # a three-operand einsum runs outside BLAS; use matmuls and a row sum
    src = Path(qssa.__file__).parent
    offenders = [f"{path.name}:{line} has {n} operands"
                 for path in sorted(src.glob("*.py"))
                 for line, n in einsum_operand_counts(path) if n > 2]
    assert not offenders, offenders


def test_operand_count_reads_each_call_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text('np.einsum("ij,ji->i", a, b)\n'
                    'einsum("na,ab,nb->n", a, b, c, optimize=True)\n'
                    'np.einsum(a, [0, 1], b, [1, 2], c, [2, 0])\n'
                    'np.einsum("ij->i", *ops)\n'
                    'np.sum(a, b, c)\n')
    assert einsum_operand_counts(path) == [(1, 2), (2, 3), (3, 3), (4, float("inf"))]


def test_only_linalg_binds_a_zero_floor():
    # linalg.CLAMP_REL is the one floor under which values count as 0, STATE_TOL
    # the one validation bound and MASS_TOL the one bound on a mass computed two
    # ways; other modules import them
    src = Path(qssa.__file__).parent
    offenders = [f"{path.name}:{line} binds {value!r}"
                 for path in sorted(src.glob("*.py")) if path.name != "linalg.py"
                 for line, value in small_module_floats(path)]
    assert not offenders, offenders


def test_small_float_finder_reads_each_binding_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("A = 1e-15\n"
                    "B: float = -1e-12\n"
                    "C, D = 1e-9, 2\n"
                    "E = 1e-3\n"
                    "F = 0.0\n"
                    "G = 3\n"
                    "def f():\n"
                    "    return 1e-15\n")
    assert small_module_floats(path) == [(1, 1e-15), (2, 1e-12), (3, 1e-9)]


def unused_imports(path):
    """(line, name) of every name a module imports and never reads, `from __future__` aside.

    A name counts as read wherever it appears as an expression name, so
    `np.linalg` reads `np`; a submodule import `import a.b` binds `a`.
    """
    tree = ast.parse(path.read_text(), str(path))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports names to export them; every other module imports only what it calls
    src = Path(qssa.__file__).parent
    offenders = [f"{path.name}:{line} imports {name}"
                 for path in sorted(src.glob("*.py")) if path.name != "__init__.py"
                 for line, name in unused_imports(path)]
    assert not offenders, offenders


def test_unused_import_finder_reads_each_import_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from __future__ import annotations\n"
                    "import math\n"
                    "import numpy as np\n"
                    "import os.path\n"
                    "from .linalg import (STATE_TOL,\n"
                    "    clamp_threshold)\n"
                    "from typing import Sequence as Seq\n"
                    "def f(x: Seq) -> float:\n"
                    "    return np.log(x) + STATE_TOL\n")
    assert unused_imports(path) == [(2, "math"), (4, "os"), (5, "clamp_threshold")]


def report_writes(path):
    """(line, "build" or "tol", enclosing function) of every `InequalityReport(...)` call and every
    assignment to an attribute `tol` (any store target, or `setattr(x, "tol", ...)`) in one source file."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            if name == "InequalityReport":
                found.append((node.lineno, "build", func))
            elif name == "setattr" and len(node.args) > 1 and getattr(node.args[1], "value", None) == "tol":
                found.append((node.lineno, "tol", func))
        if isinstance(node, ast.Attribute) and node.attr == "tol" and isinstance(node.ctx, ast.Store):
            found.append((node.lineno, "tol", func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(), str(path)), None)
    return found


def test_only_report_builds_reports_and_only_judge_sets_tol():
    # a report stores what its check measured; `make_report` builds it and `judge` alone sets
    # the tol that its derived pass reads
    src = Path(qssa.__file__).parent
    offenders = [f"{path.name}:{line} {'builds an InequalityReport' if kind == 'build' else 'sets tol'} in {func}"
                 for path in sorted(src.glob("*.py"))
                 for line, kind, func in report_writes(path)
                 if not (path.name == "report.py" and (kind == "build" or func == "judge"))]
    assert not offenders, offenders


def test_report_write_finder_reads_each_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("r = InequalityReport('x', 1.0, 2.0)\n"
                    "def f(r, cfg):\n"
                    "    r.tol = 1.0\n"
                    "    r.tol += 1.0\n"
                    "    cfg.report.tol, n = 0.0, 1\n"
                    "    setattr(r, 'tol', 0.0)\n"
                    "    return report.InequalityReport(r.name, r.tol, cfg.tol)\n"
                    "class C:\n"
                    "    tol: float = 0.0\n")
    assert report_writes(path) == [(1, "build", None), (3, "tol", "f"), (4, "tol", "f"), (5, "tol", "f"),
                                   (6, "tol", "f"), (7, "build", "f")]


TOLERANCES = {"STATE_TOL", "CLAMP_REL", "MASS_TOL"}

# the one guard per bound, and the two decisions that are no guard: relative entropy's support
# (it returns inf) and the Husimi floor (a RuntimeError where S_W integrates the values)
TOLERANCE_HOMES = {("linalg.py", "require_residual"), ("linalg.py", "require_psd"),
                   ("linalg.py", "require_distribution"), ("linalg.py", "require_same_mass"),
                   ("linalg.py", "clamp_threshold"), ("entropy.py", "relative_entropy"),
                   ("wehrl.py", "wehrl_entropy")}


def tolerance_comparisons(path):
    """(line, enclosing function) of every comparison that reads STATE_TOL, CLAMP_REL or MASS_TOL,
    as a name or as an attribute such as `linalg.STATE_TOL`; a method is named `Class.method`."""
    found = []

    def visit(node, func, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func, cls = (node.name if cls is None else f"{cls}.{node.name}"), None
        if isinstance(node, ast.Compare) and any(
                getattr(n, "id", getattr(n, "attr", None)) in TOLERANCES for n in ast.walk(node)):
            found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func, cls)

    visit(ast.parse(path.read_text(), str(path)), None, None)
    return found


def test_every_tolerance_is_compared_in_its_home():
    # a bound compared inline is a second copy of its rule: call the guard in linalg instead
    src = Path(qssa.__file__).parent
    offenders = [f"{path.name}:{line} compares a tolerance in {func}"
                 for path in sorted(src.glob("*.py"))
                 for line, func in tolerance_comparisons(path) if (path.name, func) not in TOLERANCE_HOMES]
    assert not offenders, offenders
    # one comparison in each home
    found = [(path.name, func) for path in src.glob("*.py") for _, func in tolerance_comparisons(path)]
    assert sorted(found) == sorted(TOLERANCE_HOMES)


def test_tolerance_comparison_finder_reads_each_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("X = 2 * STATE_TOL\n"
                    "def f(r):\n"
                    "    if abs(r - 1.0) > STATE_TOL:\n"
                    "        raise ValueError(r)\n"
                    "    return r < -CLAMP_REL * max(1, r) or linalg.MASS_TOL >= r\n"
                    "class C:\n"
                    "    def __init__(self, w):\n"
                    "        self.ok = w[0] >= -STATE_TOL\n"
                    "        self.tol = STATE_TOL\n"
                    "    def g(self, w):\n"
                    "        return w < self.tol\n")
    assert tolerance_comparisons(path) == [(3, "f"), (5, "f"), (5, "f"), (8, "C.__init__")]
