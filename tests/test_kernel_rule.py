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
    # linalg.CLAMP_REL is the one floor under which values count as 0 and
    # STATE_TOL the one mass tolerance; other modules import them
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
