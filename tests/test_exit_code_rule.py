"""Source rule for the CLI: `main` alone maps errors to exit codes."""

import ast
from pathlib import Path

import qssa.cli

ERROR_PREFIXES = ("error:", "I/O error:")


def _leading_text(node):
    """The literal text a str or f-string argument starts with, else None."""
    if isinstance(node, ast.JoinedStr) and node.values:
        node = node.values[0]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def exit_code_sites(path):
    """(function, line, what) of each `return 2|3|4` and each print of an error line.

    `what` is the returned code or the printed prefix. A site inside a
    nested function counts for every enclosing one.
    """
    sites = []
    for func in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant) \
                    and type(node.value.value) is int and node.value.value in (2, 3, 4):
                sites.append((func.name, node.lineno, node.value.value))
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print" and node.args:
                text = _leading_text(node.args[0])
                for prefix in ERROR_PREFIXES:
                    if text is not None and text.startswith(prefix):
                        sites.append((func.name, node.lineno, prefix))
    return sites


def test_only_main_sets_an_error_exit_code():
    sites = exit_code_sites(Path(qssa.cli.__file__))
    offenders = [f"{name}:{line} {what!r}" for name, line, what in sites if name != "main"]
    assert not offenders, offenders
    # main itself maps UsageError, OSError and any other exception
    assert {what for name, _, what in sites} == {2, 3, 4, *ERROR_PREFIXES}


def test_site_finder_reads_each_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("def a():\n"
                    "    return 2\n"
                    "def b(x):\n"
                    "    print(f'error: {x}', file=sys.stderr)\n"
                    "    print('I/O error: disk')\n"
                    "def c():\n"
                    "    def inner():\n"
                    "        return 4\n"
                    "    return True\n"
                    "def d(n):\n"
                    "    print(f'{n} reports, error: none')\n"
                    "    return 1 if n else 0\n")
    assert exit_code_sites(path) == [("a", 2, 2), ("b", 4, "error:"), ("b", 5, "I/O error:"),
                                     ("c", 8, 4), ("inner", 8, 4)]
