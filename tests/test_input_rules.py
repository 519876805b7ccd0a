"""The factor-label rule (`linalg.factor_labels`) and the matrix check that every matrix reader shares."""

import numpy as np
import pytest

from qssa.linalg import DensityMatrix, hermitian_eigvalsh, hermitize, partial_trace, ptrace_mat, square_ops
from qssa.measurement import KrausSet, apply_kraus_op, povm_conditionals, povm_weights
from qssa.randgen import random_density, random_kraus, random_povm

from test_linalg import forbid_eigensolves

RHO = random_density((2, 3, 2), 12, 5)
RHO2 = random_density((2, 3), 6, 6)
RHO1 = random_density((6,), 6, 7)
POVM = random_povm(3, 2, 8)
OPS = random_kraus(6, 2, 9, acts_on=(1, 2)).ops

# readers of a label collection: (n, call on the collection, an array of what it computes)
COLLECTION_READERS = {
    "partial_trace": (3, lambda keep: partial_trace(RHO, keep).mat),
    "ptrace_mat": (3, lambda keep: ptrace_mat(RHO.mat, RHO.dims, keep)),
    # KrausSet reads acts_on on two factors at most; apply_kraus_op then fits it to the state
    "KrausSet": (2, lambda acts_on: np.array(apply_kraus_op(RHO, KrausSet(OPS, acts_on=acts_on)))),
}


def bad_collections(n):
    return {"zero": [0], "past-n": [n + 1], "non-integral": [1.5], "text": "1", "bytes": b"12",
            "empty": set(), "repeat": [1, 1]}


BAD = [(f"{name}-{case}", lambda call=call, labels=labels: call(labels))
       for name, (n, call) in COLLECTION_READERS.items() for case, labels in bad_collections(n).items()]
# one label, which like an element of a collection may be an integral float or text
BAD += [(f"povm_conditionals-{case}", lambda factor=factor: povm_conditionals(RHO2, POVM, factor=factor))
        for case, factor in {"zero": 0, "past-n": 3, "non-integral": 1.5}.items()]
# labels that passed the rule on their own, out of range or of another size for the state they meet
BAD += [("apply_kraus_op-past-n", lambda: apply_kraus_op(RHO1, KrausSet([np.eye(2)], acts_on=(1, 2)))),
        ("apply_kraus_op-size", lambda: apply_kraus_op(RHO, KrausSet([np.eye(3)], acts_on=(1,)))),
        ("povm_weights-size", lambda: povm_weights(RHO1, POVM))]


@pytest.mark.parametrize("call", [call for _, call in BAD], ids=[case for case, _ in BAD])
def test_a_bad_label_raises_value_error_before_any_eigensolve(monkeypatch, call):
    forbid_eigensolves(monkeypatch)
    with pytest.raises(ValueError):
        call()


EQUAL_FORMS = {"set": {2, 1}, "list": [2, 1], "iterator": lambda: iter([2, 1]),
               "int64": [np.int64(2), np.int64(1)], "float": [2.0, 1]}


@pytest.mark.parametrize("form", EQUAL_FORMS, ids=list(EQUAL_FORMS))
@pytest.mark.parametrize("name", COLLECTION_READERS)
def test_equal_label_forms_give_identical_bytes(name, form):
    _, call = COLLECTION_READERS[name]
    labels = EQUAL_FORMS[form]
    assert call(labels() if callable(labels) else labels).tobytes() == call((1, 2)).tobytes()


@pytest.mark.parametrize("factor", [np.int64(2), 2.0], ids=["int64", "float"])
def test_equal_factor_forms_give_identical_bytes(factor):
    assert povm_conditionals(RHO2, POVM, factor=factor).tobytes() == povm_conditionals(RHO2, POVM, 2).tobytes()


def test_a_repeated_label_is_refused_where_a_set_would_hide_it():
    with pytest.raises(ValueError, match=r"keep must name at least one factor, each once, got \[3, 1, 3\]"):
        partial_trace(RHO, [3, 1, 3])
    with pytest.raises(ValueError, match=r"keep \(1, 4\) out of range for 3 factor\(s\)"):
        ptrace_mat(RHO.mat, RHO.dims, [4, 1])


BAD_MATRICES = {"0x0": np.zeros((0, 0)), "1-d": np.ones(2), "2x3": np.ones((2, 3)),
                "nan": np.array([[np.nan, 0.0], [0.0, 1.0]])}
MATRIX_READERS = {"hermitize": hermitize, "hermitian_eigvalsh": hermitian_eigvalsh,
                  "square_ops": lambda m: square_ops([m], "operator"),
                  "DensityMatrix": lambda m: DensityMatrix(m, (2,))}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("m", BAD_MATRICES.values(), ids=list(BAD_MATRICES))
@pytest.mark.parametrize("read", MATRIX_READERS.values(), ids=list(MATRIX_READERS))
def test_a_matrix_not_finite_non_empty_and_square_raises_before_any_eigensolve(monkeypatch, read, m):
    forbid_eigensolves(monkeypatch)
    with pytest.raises(ValueError):
        read(m)


@pytest.mark.parametrize("read", [hermitize, lambda m: square_ops([m], "matrix")], ids=["hermitize", "square_ops"])
def test_hermitize_and_square_ops_refuse_an_empty_matrix_alike(read):
    with pytest.raises(ValueError, match=r"matrix must be a non-empty square matrix, got shape \(0, 0\)"):
        read(np.zeros((0, 0)))
