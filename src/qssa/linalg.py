"""Dense complex linear algebra on tensor-product spaces.

States live on a product of finite-dimensional factors, described by a
plain tuple of factor dimensions (d1, ..., dn) that `as_dims` validates.
Factors are labeled 1..n throughout the public API, `ptrace_mat` included
(the same labels appear in the JSON wire format of `suites`). All operations are pure
functions of immutable inputs; arrays held by :class:`DensityMatrix` (its
matrix and, once solved, its eigensystem) are frozen, and so are the copies
`square_ops` makes of operator lists such as Kraus families and POVMs.
Each bound is compared in one guard, which takes no tolerance: `require_residual`
holds an identity's error (an asymmetry, a trace, a sum, a completeness residual)
within `STATE_TOL`, `require_psd` a least eigenvalue above -`STATE_TOL`,
`require_distribution` a probability vector (finite, none below -`CLAMP_REL`, sum
1), and `require_same_mass` a mass computed two ways within `MASS_TOL`
(a `RuntimeError`). `CLAMP_REL` is the one zero floor of the package: spectra,
weight vectors, outcome-block traces and Husimi values below `clamp_threshold`
count as 0, and one below -`STATE_TOL` (relative to the largest) is an error there.
No eigensolve reads a matrix that has not passed `hermitize` or `DensityMatrix`. Each has one of six homes:
`DensityMatrix.__init__` (validation), `DensityMatrix.eigh`, `hermitian_eig`, `hermitian_eigvalsh`,
`entropy.von_neumann` (a state's `mat`) and `checks.check_gibbs_variational` (it keeps H's asymmetry).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

# Relative floor below which eigenvalues, weights and Husimi values count
# as 0 (0 ln 0 = 0); matrix logarithms reject eigenvalues below it.
CLAMP_REL = 1e-12

# The validation bound of `require_residual` and `require_psd`; generated objects stay below 1e-12.
STATE_TOL = 1e-9

# The bound of `require_same_mass`: Husimi mass vs Tr rho, table marginal vs POVM weights.
MASS_TOL = 1e-10


def require_residual(residual: float, what: str) -> None:
    """ValueError if |residual|, the error of an identity that holds exactly, exceeds STATE_TOL."""
    if abs(residual) > STATE_TOL:
        raise ValueError(f"{what} {residual:.3e} exceeds tolerance {STATE_TOL:.3e}")


def require_psd(eigs, what: str) -> None:
    """ValueError if the least of the ascending eigenvalues `eigs` of `what` is below -STATE_TOL."""
    if eigs[0] < -STATE_TOL:
        raise ValueError(f"{what} is not PSD: min eigenvalue {eigs[0]:.3e} < -{STATE_TOL:.3e}")


def require_distribution(p: np.ndarray, what: str) -> None:
    """ValueError unless p, a float array of `what`, is finite, >= -CLAMP_REL, sums to 1 (`require_residual`)."""
    if not np.isfinite(p).all():
        raise ValueError(f"{what} must be finite")
    if p.min(initial=0.0) < -CLAMP_REL:
        raise ValueError(f"{what} have a negative entry {p.min():.3e}")
    require_residual(math.fsum(p) - 1.0, f"sum of {what} minus 1")


def require_same_mass(mass, reference, what: str) -> float:
    """max |mass - reference| of a mass computed two ways; RuntimeError beyond MASS_TOL: `what` disagrees."""
    residual = float(np.abs(np.subtract(mass, reference)).max())
    if residual > MASS_TOL:
        raise RuntimeError(f"{what} by {residual:.3e}, beyond {MASS_TOL:.0e}")
    return residual


def _as_int(x) -> int:
    """x as an int; ValueError for a non-integral number (int() would truncate it)."""
    n = int(x)
    if not isinstance(x, str) and n != x:
        raise ValueError(f"expected an integer, got {x!r}")
    return n


def _int_in(x, what: str, low: int, high: int | None = None) -> int:
    """x as an int (`_as_int`); ValueError unless low <= x and, given `high`, x <= high. `what` names x."""
    n = _as_int(x)
    if n < low or (high is not None and n > high):
        raise ValueError(f"{what} must be >= {low}{'' if high is None else f' and <= {high}'}, got {n}")
    return n


def _not_text(seq, what: str):
    """seq itself; ValueError for a str or bytes, which iterating would split into digits. `what` names seq."""
    if isinstance(seq, (str, bytes)):
        raise ValueError(f"{what} must be a sequence of integers, not the string {seq!r}")
    return seq


def as_dims(dims: Iterable[int]) -> tuple[int, ...]:
    """Factor dimensions (d1, d2, ...) as a tuple: at least one, each >= 1 (`_not_text`: never a string)."""
    dims = tuple(_int_in(d, "factor dimension", 1) for d in _not_text(dims, "dims"))
    if len(dims) < 1:
        raise ValueError("need at least one factor")
    return dims


def factor_labels(labels: Iterable[int], n: int, what: str) -> tuple[int, ...]:
    """Sorted 1-based labels (`_as_int`, `_not_text`); ValueError unless >= 1, none repeated, each in 1..n."""
    given = [_as_int(k) for k in _not_text(labels, what)]
    kept = tuple(sorted(set(given)))
    if not kept or len(kept) != len(given):
        raise ValueError(f"{what} must name at least one factor, each once, got {given}")
    if kept[0] < 1 or kept[-1] > n:
        raise ValueError(f"{what} {kept} out of range for {n} factor(s)")
    return kept


def _per_block(width: int) -> int:
    """Items of `width` complex entries per ~64 KB block, in loops with no full-size temporary."""
    return max(1, 4096 // max(1, width))


def _finite_square(m: np.ndarray, what: str) -> np.ndarray:
    """m itself; ValueError unless it is a finite, non-empty, 2-D square matrix. `what` names m."""
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"{what} must be a non-empty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has a non-finite entry")
    return m


def hermitize(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Return ((M + M†)/2, max-abs asymmetry); `require_residual` on it, error on NaN/inf. One full-size
    buffer: M† is written into it, |M - M†| checked in ~64 KB row blocks, then M added and halved."""
    m = _finite_square(np.asarray(m, dtype=complex), "matrix")
    herm, step = np.conjugate(m.T, order="C"), _per_block(len(m))
    asym = max(float(np.abs(m[lo : lo + step] - herm[lo : lo + step]).max()) for lo in range(0, len(m), step))
    require_residual(asym, "matrix asymmetry")
    herm += m
    herm /= 2
    return herm, asym


def _frozen(arrays) -> tuple:
    for a in arrays:
        if isinstance(a, np.ndarray):
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
    for k in ops:
        if _finite_square(k, what).shape != ops[0].shape:
            raise ValueError(f"all {what}s must be square of equal size, got {k.shape} vs {ops[0].shape}")
    return _frozen(ops)


class DensityMatrix:
    """A PSD, unit-trace complex matrix tagged with tensor factor dimensions.

    Asymmetry, PSD and trace are checked against `STATE_TOL`. Every state is
    normalized; blocks of smaller trace, such as the POVM conditionals and
    Kraus outcome blocks of `measurement`, stay plain arrays. `eigh()` fills the
    eigensystem slot on first use; `kron_state` builds a product state whose
    slot holds its spectrum and forms its eigenvectors from its factors'.
    """

    __slots__ = ("mat", "dims", "_eig")

    def __init__(self, mat, dims, _eig=None):
        # `_eig` is for `kron_state` only: (w ascending, a function that forms V)
        # of `mat`, derived from validated factors; the PSD check then reads its w.
        dims = as_dims(dims)
        total = math.prod(dims)
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (total, total):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {dims} (total {total})")
        herm, _ = hermitize(mat)
        require_psd(np.linalg.eigvalsh(herm) if _eig is None else _eig[0], "matrix")
        require_residual(float(np.trace(herm).real) - 1.0, "trace minus 1")
        herm.flags.writeable = False
        self.mat = herm
        self.dims = dims
        self._eig = None if _eig is None else _frozen(_eig)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues ascending, frozen eigenvector columns), solved at most once; a `kron_state`
        product is never solved, and forms V anew on each call without keeping it."""
        if self._eig is None:
            # `mat` is already exactly Hermitian: no second `hermitize`
            self._eig = _frozen(np.linalg.eigh(self.mat))
        w, v = self._eig
        return _frozen((w, v())) if callable(v) else self._eig

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def __repr__(self) -> str:
        return f"DensityMatrix(dims={self.dims}, trace={self.trace():.6f})"


def require_factors(rho: DensityMatrix, n: int) -> None:
    """ValueError unless `rho` has exactly `n` tensor factors."""
    if len(rho.dims) != n:
        raise ValueError(f"need a {n}-factor state, got dims {rho.dims}")


def require_same_dims(a: DensityMatrix, b: DensityMatrix) -> None:
    """ValueError unless `a` and `b` have the same factor dimensions."""
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; (A ⊗ B)[ip+k, jq+l] = A[i,j] B[k,l]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_state(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """The product state a ⊗ b on the factors of a followed by those of b.

    Its eigensystem is (w_a ⊗ w_b, V_a ⊗ V_b), sorted ascending: two
    eigensolves of the factors' sizes instead of one of the product's. The
    spectrum is kept; the full-size V is formed only when `eigh()` is called.
    """
    wa, va = a.eigh()
    wb, vb = b.eigh()
    w = np.outer(wa, wb).ravel()
    order = np.argsort(w, kind="stable")
    # column j of V_a ⊗ V_b is V_a[:, j // len(w_b)] ⊗ V_b[:, j % len(w_b)]: take
    # the sorted columns directly instead of permuting a full-size kron
    ia, ib = np.divmod(order, len(wb))
    return DensityMatrix(kron(a.mat, b.mat), a.dims + b.dims,
                         _eig=(w[order], lambda: (va[:, None, ia] * vb[None, :, ib]).reshape(len(w), -1)))


def ptrace_mat(mat: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Partial trace of a raw square matrix over the factors not in `keep` (1-based), kept in their order."""
    dims = list(as_dims(dims))
    kept = factor_labels(keep, len(dims), "keep")
    t = np.asarray(mat, dtype=complex).reshape(dims + dims)
    for ax in sorted(set(range(len(dims))) - {k - 1 for k in kept}, reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + len(dims))
        del dims[ax]
    d = math.prod(dims)
    return t.reshape(d, d)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduce a state to the factors in `keep` (1-based labels)."""
    kept = factor_labels(keep, len(rho.dims), "keep")
    return DensityMatrix(ptrace_mat(rho.mat, rho.dims, kept), tuple(rho.dims[k - 1] for k in kept))


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues ascending, orthonormal eigenvector columns) of a (nearly) Hermitian matrix,
    symmetrized first by `hermitize`, with the asymmetry and non-finite checks a state gets."""
    return np.linalg.eigh(hermitize(m)[0])


def hermitian_eigvalsh(m: np.ndarray) -> np.ndarray:
    """Eigenvalues ascending of a (nearly) Hermitian matrix, symmetrized first by `hermitize`."""
    return np.linalg.eigvalsh(hermitize(m)[0])


def clamp_threshold(values) -> float:
    """CLAMP_REL * max(1, largest value): values below it count as zero in x ln x. A NaN or inf top, or a
    least value below -STATE_TOL * max(1, largest value), is an error: no negative value is dropped unseen."""
    values = np.asarray(values)
    top, least = (float(values.max()), float(values.min())) if values.size else (0.0, 0.0)
    if not math.isfinite(top):
        raise ValueError(f"largest value {top} is not finite")
    if least < -STATE_TOL * max(1.0, top):
        raise ValueError(f"negative value {least:.3e} below -{STATE_TOL:.0e} * max(1, largest value)")
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
    """Principal square root of a PSD Hermitian matrix (`require_psd`)."""
    w, v = hermitian_eig(m)
    require_psd(w, "matrix")
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T

