"""Entropy functionals: von Neumann, Shannon, relative and mutual entropies,
and the entropy of a measured block.

All values are in nats. Entropies are plain floats; relative entropy
returns `math.inf` when the first state has more than `STATE_TOL` of its
weight outside the support of the second. Eigenvalues and weights below
`clamp_threshold` follow the 0 ln 0 = 0 convention; one below -`STATE_TOL`
(relative to the largest) is an error there, never dropped.

One exactly rounded `math.fsum` sums each spectrum, weight vector and measured outcome set (here and
in `checks`): an entropy depends only on the multiset of its kept values, and reversing a family leaves
the split bound and S_cQ bitwise unchanged. Matrix entries, table marginals and Wehrl quadrature do not.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import (STATE_TOL, DensityMatrix, _per_block, clamp_threshold, hermitian_eigvalsh, partial_trace,
                     require_distribution, require_factors, require_same_dims)


def entropy_from_eigs(eigs) -> float:
    """-sum x ln x over a spectrum or weight vector (any normalization),
    dropping values below `clamp_threshold` (which rejects a negative one)."""
    eigs = np.asarray(eigs, dtype=float)
    lam = eigs[eigs >= clamp_threshold(eigs)]
    if lam.size == 0:
        return 0.0
    return -math.fsum(lam * np.log(lam))


def block_entropy(b: np.ndarray) -> tuple[float, float]:
    """(-Tr B ln B, n) of a PSD block B of any trace from one `hermitian_eigvalsh`, n the mass of the
    eigenvalues the first value keeps (`clamp_threshold`): adding n ln n gives n S[kept/n] >= 0."""
    eigs = hermitian_eigvalsh(b)
    kept = eigs[eigs >= clamp_threshold(eigs)]
    return entropy_from_eigs(kept), math.fsum(kept)


def von_neumann(rho: DensityMatrix) -> float:
    """-Tr(rho ln rho) via the eigenvalues of rho."""
    return entropy_from_eigs(np.linalg.eigvalsh(rho.mat))


def shannon(p) -> float:
    """-sum p ln p of a probability vector (`require_distribution`: entries may carry tiny roundoff)."""
    p = np.asarray(p, dtype=float).ravel()
    require_distribution(p, "probabilities")
    return entropy_from_eigs(p)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr rho (ln rho - ln sigma), computed in sigma's eigenbasis (`sigma.eigh()`).

    Returns inf when rho carries more than STATE_TOL of weight on
    eigenvectors of sigma whose eigenvalues sit below the clamp floor; rho is then not
    solved. Only V is full-size besides the inputs, and it is released before rho's
    eigensolve: a `kron_state` sigma keeps no V of its own.
    """
    require_same_dims(rho, sigma)
    w, v = sigma.eigh()
    eps = clamp_threshold(w)
    # diag(V† rho V) over ~256 KB column blocks of V: one BLAS matmul each, then a row sum.
    # Each matmul streams all of rho; at ~64 KB blocks that doubles the cost and its spread.
    step = 4 * _per_block(len(w))
    cols = [v[:, lo : lo + step] for lo in range(0, len(w), step)]
    diag = np.concatenate([np.einsum("ij,ji->i", c.conj().T @ rho.mat, c).real for c in cols])
    del v, cols
    outside = w < eps
    if math.fsum(diag[outside]) > STATE_TOL:
        return float("inf")
    tr_rho_ln_sigma = math.fsum(diag[~outside] * np.log(w[~outside]))
    return -von_neumann(rho) - tr_rho_ln_sigma


def bipartite_entropies(rho12: DensityMatrix) -> tuple[float, float, float]:
    """(S[rho12], S[rho1], S[rho2]) of a two-factor state."""
    require_factors(rho12, 2)
    return von_neumann(rho12), von_neumann(partial_trace(rho12, {1})), von_neumann(partial_trace(rho12, {2}))


def mutual_information(rho12: DensityMatrix) -> float:
    """S[rho1] + S[rho2] - S[rho12] of a two-factor state."""
    s12, s1, s2 = bipartite_entropies(rho12)
    return s1 + s2 - s12

