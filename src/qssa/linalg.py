"""Dense complex linear algebra on tensor-product spaces.

States live on a product of finite-dimensional factors, described by a
plain tuple of factor dimensions (d1, ..., dn) that `as_dims` validates.
Factors are labeled 1..n throughout the public API, `ptrace_mat` included
(the same labels appear in the JSON wire formats). All operations are pure
functions of immutable inputs; arrays held by :class:`DensityMatrix` (its
matrix and, once solved, its eigensystem) are frozen, and so are the copies
`square_ops` makes of operator lists such as Kraus families and POVMs.
Validation uses one bound, `STATE_TOL`, for states (and, in `measurement`, Kraus
sets and POVMs) and for the asymmetry of any operator `hermitize` symmetrizes, a
Gibbs H included; `MASS_TOL` bounds a mass that is computed two ways.
`CLAMP_REL` is the one zero floor of the package: spectra, weight vectors,
ensemble weights and Husimi values below `clamp_threshold` count as 0.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

# Relative floor below which eigenvalues, weights and Husimi values count
# as 0 (0 ln 0 = 0); matrix logarithms reject eigenvalues below it.
CLAMP_REL = 1e-12

# The one bound for validating states, Kraus sets and POVMs (trace, negative
# eigenvalues, completeness) and the asymmetry of any operator `hermitize`
# symmetrizes; generated objects stay below 1e-12.
STATE_TOL = 1e-9

# Bound on a mass computed two ways: Husimi mass vs Tr rho, table marginal vs POVM weights.
MASS_TOL = 1e-10


def _as_int(x) -> int:
    """x as an int; ValueError for a non-integral number (int() would truncate it)."""
    n = int(x)
    if not isinstance(x, str) and n != x:
        raise ValueError(f"expected an integer, got {x!r}")
    return n


def as_dims(dims: Iterable[int]) -> tuple[int, ...]:
    """Factor dimensions (d1, d2, ...) as a tuple: at least one, each >= 1."""
    dims = tuple(_as_int(d) for d in dims)
    if len(dims) < 1:
        raise ValueError("need at least one factor")
    if any(d < 1 for d in dims):
        raise ValueError(f"factor dimensions must be >= 1, got {dims}")
    return dims


def hermitize(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Return ((M + M†)/2, max-abs asymmetry); error beyond `STATE_TOL` or on NaN/inf. One full-size
    buffer: M† is written into it, |M - M†| checked in ~64 KB row blocks, then M added and halved."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has a non-finite entry")
    herm, step = np.conjugate(m.T, order="C"), max(1, 4096 // max(1, len(m)))  # rows per ~64 KB
    if len(m) <= step:
        asym = float(np.abs(m - herm).max()) if m.size else 0.0
    else:  # no temporary of M's size
        asym = max(float(np.abs(m[lo : lo + step] - herm[lo : lo + step]).max()) for lo in range(0, len(m), step))
    if asym > STATE_TOL:
        raise ValueError(f"matrix asymmetry {asym:.3e} exceeds tolerance {STATE_TOL:.3e}")
    herm += m
    herm /= 2
    return herm, asym


def _frozen(arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return tuple(arrays)


def square_ops(ops: Iterable, what: str) -> tuple[np.ndarray, ...]:
    """Frozen complex copies of an operator list such as a Kraus family or a POVM.

    ValueError unless the list is non-empty and holds only finite 2-D square
    matrices of one size d >= 1; `what` names an operator in the message.
    The caller's arrays are neither frozen nor shared.
    """
    ops = [np.array(k, dtype=complex) for k in ops]
    if not ops:
        raise ValueError(f"need at least one {what}")
    shape = ops[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 1:
        raise ValueError(f"{what} must be a non-empty square matrix, got shape {shape}")
    for k in ops:
        if k.shape != shape:
            raise ValueError(f"all {what}s must be square of equal size, got {k.shape} vs {shape}")
        if not np.isfinite(k).all():
            raise ValueError(f"{what} has a non-finite entry")
    return _frozen(ops)


class DensityMatrix:
    """A PSD, unit-trace complex matrix tagged with tensor factor dimensions.

    Trace, PSD and asymmetry are checked against `STATE_TOL`. Every state is
    normalized; blocks of smaller trace, such as the POVM conditionals and
    Kraus outcome blocks of `measurement`, stay plain arrays. `eigh()` fills the
    eigensystem slot on first use; `kron_state` builds a product state with
    the slot already filled from its factors.
    """

    __slots__ = ("mat", "dims", "_eig")

    def __init__(self, mat, dims, _eig=None):
        # `_eig` is for `kron_state` only: the (w ascending, V) of `mat`,
        # derived from validated factors; the PSD check then reads its w.
        dims = as_dims(dims)
        total = math.prod(dims)
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (total, total):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {dims} (total {total})")
        herm, _ = hermitize(mat)
        eigs = np.linalg.eigvalsh(herm) if _eig is None else _eig[0]
        if eigs[0] < -STATE_TOL:
            raise ValueError(f"matrix is not PSD: min eigenvalue {eigs[0]:.3e} < -{STATE_TOL:.3e}")
        tr = float(np.trace(herm).real)
        if abs(tr - 1.0) > STATE_TOL:
            raise ValueError(f"trace {tr!r} is not 1 within {STATE_TOL:.3e}")
        herm.flags.writeable = False
        self.mat = herm
        self.dims = dims
        self._eig = None if _eig is None else _frozen(_eig)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues ascending, eigenvector columns) of the state, solved at most once."""
        if self._eig is None:
            # `mat` is already exactly Hermitian: no second `hermitize`
            self._eig = _frozen(np.linalg.eigh(self.mat))
        return self._eig

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def __repr__(self) -> str:
        return f"DensityMatrix(dims={self.dims}, trace={self.trace():.6f})"


def require_factors(rho: DensityMatrix, n: int) -> None:
    """ValueError unless `rho` has exactly `n` tensor factors."""
    if len(rho.dims) != n:
        raise ValueError(f"need a {n}-factor state, got dims {rho.dims}")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; (A ⊗ B)[ip+k, jq+l] = A[i,j] B[k,l]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_state(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """The product state a ⊗ b on the factors of a followed by those of b.

    Its eigensystem is (w_a ⊗ w_b, V_a ⊗ V_b), sorted ascending: two
    eigensolves of the factors' sizes instead of one of the product's.
    """
    wa, va = a.eigh()
    wb, vb = b.eigh()
    w = np.outer(wa, wb).ravel()
    order = np.argsort(w, kind="stable")
    # column j of V_a ⊗ V_b is V_a[:, j // len(w_b)] ⊗ V_b[:, j % len(w_b)]: take
    # the sorted columns directly instead of permuting a full-size kron
    ia, ib = np.divmod(order, len(wb))
    v = (va[:, None, ia] * vb[None, :, ib]).reshape(len(w), len(w))
    return DensityMatrix(kron(a.mat, b.mat), a.dims + b.dims, _eig=(w[order], v))


def _keep_to_zero_based(keep: Iterable[int], n: int) -> tuple[int, ...]:
    keep = sorted(set(_as_int(k) for k in keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 1 or keep[-1] > n:
        raise ValueError(f"factor indices {keep} out of range 1..{n}")
    return tuple(k - 1 for k in keep)


def ptrace_mat(mat: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Partial trace of a raw square matrix over the factors not in `keep`.

    `keep` holds 1-based factor labels; kept factors retain their original
    relative order.
    """
    dims = list(dims)
    n = len(dims)
    kept = _keep_to_zero_based(keep, n)
    t = np.asarray(mat, dtype=complex).reshape(dims + dims)
    for ax in sorted(set(range(n)) - set(kept), reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + len(dims))
        del dims[ax]
    d = math.prod(dims)
    return t.reshape(d, d)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduce a state to the factors in `keep` (1-based labels)."""
    keep = tuple(keep)
    return DensityMatrix(
        ptrace_mat(rho.mat, rho.dims, keep),
        tuple(rho.dims[k] for k in _keep_to_zero_based(keep, len(rho.dims))),
    )


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a (nearly) Hermitian matrix.

    Returns eigenvalues ascending and the matrix whose columns are the
    corresponding orthonormal eigenvectors. Input is symmetrized first
    (asymmetry beyond `STATE_TOL` is an error, as for a state).
    """
    herm, _ = hermitize(m)
    w, v = np.linalg.eigh(herm)
    return w, v


def clamp_threshold(values) -> float:
    """CLAMP_REL * max(1, largest value): values below it count as zero in x ln x."""
    values = np.asarray(values)
    top = float(values.max()) if values.size else 0.0
    return CLAMP_REL * max(1.0, top)


def matrix_log(m: np.ndarray) -> np.ndarray:
    """Matrix logarithm of a positive-definite Hermitian matrix.

    An eigenvalue below `clamp_threshold` is an error, never raised to it.
    """
    w, v = hermitian_eig(m)
    eps = clamp_threshold(w)
    if w[0] < eps:
        raise ValueError(f"matrix log undefined: eigenvalue {w[0]:.3e} below clamp threshold {eps:.3e}")
    return (v * np.log(w)) @ v.conj().T


def sqrtm_psd(m: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix (eigenvalues >= -STATE_TOL)."""
    w, v = hermitian_eig(m)
    if w[0] < -STATE_TOL:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T


# --- JSON wire formats -----------------------------------------------------
#
# ComplexMatrix: {"rows": n, "cols": m, "re": [[...]], "im": [[...]]}
# DensityMatrix adds {"dims": [d1, ...]}.


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    m = np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)
    if m.shape != (obj["rows"], obj["cols"]):
        raise ValueError(f"shape {m.shape} inconsistent with rows/cols {(obj['rows'], obj['cols'])}")
    return m


def density_to_json(rho: DensityMatrix) -> dict:
    out = matrix_to_json(rho.mat)
    out["dims"] = list(rho.dims)
    return out


def density_from_json(obj: dict) -> DensityMatrix:
    return DensityMatrix(matrix_from_json(obj), obj["dims"])
