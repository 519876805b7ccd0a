"""Entropy functionals: von Neumann, Shannon, relative, mutual, and the
classical / classical-quantum hybrids induced by partitions of unity.

All values are in nats. Entropies are plain floats; relative entropy
returns `math.inf` when the first state has more than `STATE_TOL` of its
weight outside the support of the second. Eigenvalues and weights below
`clamp_threshold` follow the 0 ln 0 = 0 convention.
"""

from __future__ import annotations

import numpy as np

from .linalg import CLAMP_REL, STATE_TOL, DensityMatrix, clamp_threshold, partial_trace, require_factors
from .measurement import Povm, povm_conditionals


def entropy_from_eigs(eigs) -> float:
    """-sum x ln x over a spectrum or weight vector (any normalization),
    dropping values below `clamp_threshold`."""
    eigs = np.asarray(eigs, dtype=float)
    lam = eigs[eigs >= clamp_threshold(eigs)]
    if lam.size == 0:
        return 0.0
    return float(-np.sum(lam * np.log(lam)))


def block_entropy(b: np.ndarray) -> tuple[float, float]:
    """(-Tr B ln B, Tr B) of a PSD block B of any trace, from one eigensolve.

    With n = Tr B, the first value equals n S[B/n] - n ln n.
    """
    eigs = np.linalg.eigvalsh((b + b.conj().T) / 2)
    return entropy_from_eigs(eigs), float(eigs.sum())


def von_neumann(rho: DensityMatrix) -> float:
    """-Tr(rho ln rho) via the eigenvalues of rho."""
    return entropy_from_eigs(np.linalg.eigvalsh(rho.mat))


def shannon(p) -> float:
    """-sum p ln p of a probability vector (entries may carry tiny roundoff)."""
    p = np.asarray(p, dtype=float).ravel()
    if not np.isfinite(p).all():
        raise ValueError("probabilities must be finite")
    if p.size and p.min() < -CLAMP_REL:
        raise ValueError(f"negative probability {p.min():.3e}")
    total = float(p.sum())
    if abs(total - 1.0) > STATE_TOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    return entropy_from_eigs(p)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr rho (ln rho - ln sigma), computed in sigma's eigenbasis (`sigma.eigh()`).

    Returns inf when rho carries more than STATE_TOL of weight on
    eigenvectors of sigma whose eigenvalues sit below the clamp floor.
    """
    if rho.dims != sigma.dims:
        raise ValueError(f"dimension mismatch: {rho.dims} vs {sigma.dims}")
    w, v = sigma.eigh()
    eps = clamp_threshold(w)
    # diag(V† rho V): the one O(n^3) step is a BLAS matmul, the rest a row sum
    diag = np.einsum("ij,ji->i", v.conj().T @ rho.mat, v).real
    outside = w < eps
    if float(diag[outside].sum()) > STATE_TOL:
        return float("inf")
    tr_rho_ln_sigma = float(np.sum(diag[~outside] * np.log(w[~outside])))
    return -von_neumann(rho) - tr_rho_ln_sigma


def bipartite_entropies(rho12: DensityMatrix) -> tuple[float, float, float]:
    """(S[rho12], S[rho1], S[rho2]) of a two-factor state."""
    require_factors(rho12, 2)
    return von_neumann(rho12), von_neumann(partial_trace(rho12, {1})), von_neumann(partial_trace(rho12, {2}))


def mutual_information(rho12: DensityMatrix) -> float:
    """S[rho1] + S[rho2] - S[rho12] of a two-factor state."""
    s12, s1, s2 = bipartite_entropies(rho12)
    return s1 + s2 - s12


def classical_quantum_entropy(rho12: DensityMatrix, p: Povm) -> float:
    """Entropy that is classical on factor 1 and quantum on factor 2.

    Equals -sum_a Tr[B_a ln B_a] over the subnormalized conditionals
    B_a = Tr_1[(P_a x I) rho12], which decomposes as Shannon(n) plus the
    weighted conditional entropies sum_a n_a S[rho2_a].
    """
    require_factors(rho12, 2)
    total = 0.0
    for b in povm_conditionals(rho12, p, factor=1):
        total += block_entropy(b)[0]
    return total
