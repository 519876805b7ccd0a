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

# the one guard per bound, the two decisions that are no guard: relative entropy's support
# (it returns inf) and the Husimi floor (a RuntimeError where S_W integrates the values), and the
# two inline literal bounds: random_povm's normalizer floor and the Wehrl scan's quadrature allowance
TOLERANCE_HOMES = {("linalg.py", "require_residual"), ("linalg.py", "require_psd"),
                   ("linalg.py", "require_distribution"), ("linalg.py", "require_same_mass"),
                   ("linalg.py", "clamp_threshold"), ("entropy.py", "relative_entropy"),
                   ("wehrl.py", "wehrl_entropy"), ("randgen.py", "random_povm"),
                   ("wehrl.py", "wehrl_min_scan")}


def is_bound(node):
    """True for a name or attribute such as `linalg.STATE_TOL` of a tolerance, and for a float
    literal with 0 < |x| < 1e-5."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float) and 0 < abs(node.value) < 1e-5
    return getattr(node, "id", getattr(node, "attr", None)) in TOLERANCES


def tolerance_comparisons(path):
    """(line, enclosing function) of every comparison that reads STATE_TOL, CLAMP_REL or MASS_TOL,
    as a name or as an attribute such as `linalg.STATE_TOL`, or a float literal with 0 < |x| < 1e-5;
    a method is named `Class.method`."""
    found = []

    def visit(node, func, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func, cls = (node.name if cls is None else f"{cls}.{node.name}"), None
        if isinstance(node, ast.Compare) and any(is_bound(n) for n in ast.walk(node)):
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
                    "        return w < self.tol\n"
                    "def h(w, x):\n"
                    "    return w[0] > 1e-10 * w[-1] or x >= 1 - 1e-6 or x > 1e-5 or x != 0.0 or x < 2.0\n")
    assert tolerance_comparisons(path) == [(3, "f"), (5, "f"), (5, "f"), (8, "C.__init__"), (13, "h"), (13, "h")]


def plain_sums(path):
    """(line, enclosing function) of every call to the builtin `sum`, to `np.sum` or to a `.sum`
    method in one source file; `math.fsum` is none of these."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and "sum" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(), str(path)), None)
    return found


def test_every_entropy_sum_is_fsum():
    # math.fsum is exactly rounded, so an entropy depends only on the multiset of its kept values
    path = Path(qssa.__file__).parent / "entropy.py"
    offenders = [f"entropy.py:{line} calls a sum other than math.fsum in {func}" for line, func in plain_sums(path)]
    assert not offenders, offenders


def test_plain_sum_finder_reads_each_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import math\n"
                    "def f(x):\n"
                    "    return np.sum(x) + x.sum(axis=0) + x[0].sum()\n"
                    "def g(x):\n"
                    "    return sum(x) + math.fsum(x) + fsum(x) + np.cumsum(x) + x.summary\n"
                    "TOTAL = sum([1, 2])\n")
    assert plain_sums(path) == [(3, "f"), (3, "f"), (3, "f"), (5, "g"), (6, None)]


EIG_FUNCS = {"eigvalsh", "eigh"}

# the six homes of a Hermitian eigensolve, each with the one matrix it reads: a matrix that has
# passed `hermitize` or `DensityMatrix`. check_gibbs_variational keeps its own hermitized H, since
# it reports H's asymmetry and reuses the buffer for Tr(rho H)
EIG_HOMES = {("linalg.py", "DensityMatrix.__init__"): "herm", ("linalg.py", "DensityMatrix.eigh"): "self.mat",
             ("linalg.py", "hermitian_eig"): "hermitize(m)[0]",
             ("linalg.py", "hermitian_eigvalsh"): "hermitize(m)[0]",
             ("entropy.py", "von_neumann"): "rho.mat", ("checks.py", "check_gibbs_variational"): "h"}


def eigensolves(path):
    """(line, enclosing function, source of the first argument) of every eigvalsh/eigh call in one
    source file: through a `linalg` attribute such as `np.linalg.eigh`, or through a bare name that
    `from ... import eigvalsh [as x]` binds. A method such as `rho.eigh()` is no solve; a method is
    named `Class.method`."""
    tree = ast.parse(path.read_text(), str(path))
    bare = EIG_FUNCS | {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                        for alias in node.names if alias.name in EIG_FUNCS}
    found = []

    def visit(node, func, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func, cls = (node.name if cls is None else f"{cls}.{node.name}"), None
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id in bare) or (
                    isinstance(f, ast.Attribute) and f.attr in EIG_FUNCS
                    and getattr(f.value, "attr", getattr(f.value, "id", None)) == "linalg"):
                found.append((node.lineno, func, ast.unparse(node.args[0]) if node.args else None))
        for child in ast.iter_child_nodes(node):
            visit(child, func, cls)

    visit(tree, None, None)
    return found


def test_every_eigensolve_sits_in_its_home():
    # a solve outside the six homes is a second copy of the rule that a solved matrix is hermitized
    # first: call linalg.hermitian_eigvalsh or hermitian_eig instead
    src = Path(qssa.__file__).parent
    solves = [(path.name, func, arg) for path in sorted(src.glob("*.py")) for _, func, arg in eigensolves(path)]
    offenders = [f"{name} solves {arg} in {func}" for name, func, arg in solves if EIG_HOMES.get((name, func)) != arg]
    assert not offenders, offenders
    # one solve in each home
    assert sorted((name, func) for name, func, _ in solves) == sorted(EIG_HOMES)


def test_eigensolve_finder_reads_each_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from numpy.linalg import eigvalsh as ev\n"
                    "def f(m):\n"
                    "    return np.linalg.eigvalsh(hermitize(m)[0]), numpy.linalg.eigh(m)\n"
                    "class C:\n"
                    "    def g(self, rho):\n"
                    "        return ev(rho.mat), eigh(self.mat), rho.eigh(), linalg.eigvalsh(x)\n"
                    "w = np.linalg.eigvalsh(a @ b)\n")
    assert eigensolves(path) == [(3, "f", "hermitize(m)[0]"), (3, "f", "m"), (6, "C.g", "rho.mat"),
                                 (6, "C.g", "self.mat"), (6, "C.g", "x"), (7, None, "a @ b")]


# each input rule of linalg and the functions that call it: a label or matrix read coded elsewhere is
# a second copy of its rule. `np.isfinite` reads a whole array: a weight vector, or a matrix in
# `_finite_square`, the one check that a matrix is finite, non-empty, 2-D and square
RULE_CALLERS = {
    "factor_labels": {("linalg.py", "ptrace_mat"), ("linalg.py", "partial_trace"),
                      ("measurement.py", "_check_fit"), ("measurement.py", "KrausSet.__init__")},
    "_finite_square": {("linalg.py", "hermitize"), ("linalg.py", "square_ops")},
    "isfinite": {("linalg.py", "require_distribution"), ("linalg.py", "_finite_square")},
    "_not_text": {("linalg.py", "as_dims"), ("linalg.py", "factor_labels")},
    "_as_int": {("linalg.py", "_int_in"), ("linalg.py", "factor_labels"), ("randgen.py", "_key")},
}


def rule_calls(path, names):
    """(line, callee, enclosing function) of every call to a bare name or an attribute in `names`, where
    an attribute `isfinite` counts only as `np.isfinite`; a method is named `Class.method`."""
    found = []

    def visit(node, func, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func, cls = (node.name if cls is None else f"{cls}.{node.name}"), None
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name in names and (name != "isfinite" or getattr(f.value, "id", None) == "np"):
                found.append((node.lineno, name, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func, cls)

    visit(ast.parse(path.read_text(), str(path)), None, None)
    return found


def test_each_input_rule_has_one_home():
    src = Path(qssa.__file__).parent
    calls = [(name, (path.name, func)) for path in sorted(src.glob("*.py"))
             for _, name, func in rule_calls(path, RULE_CALLERS)]
    assert {name: {site for n, site in calls if n == name} for name in RULE_CALLERS} == RULE_CALLERS
    # the rule replaced linalg's own label reader, and measurement reads labels only through it
    linalg, measurement = (ast.parse((src / f"{m}.py").read_text()) for m in ("linalg", "measurement"))
    assert "_keep_to_zero_based" not in {node.name for node in ast.walk(linalg) if isinstance(node, ast.FunctionDef)}
    imported = {alias.name for node in ast.walk(measurement) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not imported & {"_as_int", "_not_text"}
    # `_check_fit` takes one argument form, a label tuple: a tuple display or a KrausSet's acts_on
    fits = [node for node in ast.walk(measurement) if isinstance(node, ast.Call) and getattr(node.func, "id", None)
            == "_check_fit"]
    assert fits and all(isinstance(node.args[-1], ast.Tuple) or getattr(node.args[-1], "attr", None) == "acts_on"
                        for node in fits)
    (check_fit,) = [node for node in measurement.body if getattr(node, "name", None) == "_check_fit"]
    assert "isinstance" not in {getattr(node, "id", None) for node in ast.walk(check_fit)}


def test_rule_call_finder_reads_each_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("def f(m):\n"
                    "    return _finite_square(m, 'm'), linalg.factor_labels(m, 2, 'k'), np.isfinite(m)\n"
                    "class C:\n"
                    "    def __init__(self, x):\n"
                    "        self.x = math.isfinite(x) and _as_int(x)\n"
                    "y = _not_text('ab', 'y')\n")
    assert rule_calls(path, RULE_CALLERS) == [(2, "_finite_square", "f"), (2, "factor_labels", "f"),
                                              (2, "isfinite", "f"), (5, "_as_int", "C.__init__"),
                                              (6, "_not_text", None)]
