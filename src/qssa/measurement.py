"""Kraus families, partitions of unity, and the measured outcome blocks.

A Kraus family acts on factor 1 or on factors {1,2} of a state and is
extended by the identity on the rest. Every measured quantity reads only
the outcome blocks Tr_1 (K_a ⊗ I) rho (K_a ⊗ I)†, and `apply_kraus_op`
computes them by a reduced contraction that never builds the extended
operator or the full image K_a rho K_a†. The entropies of those blocks, and
of the POVM conditionals, are taken in `checks`. POVM outcome tables and
conditionals are products with the stacked elements `Povm.rows`. Kraus sets
and POVMs are validated by the guards states use (`require_residual`,
`require_psd`); no constructor takes a tolerance, and `_check_fit` alone fits
either to a state.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .linalg import (
    DensityMatrix,
    _per_block,
    factor_labels,
    hermitian_eigvalsh,
    ptrace_mat,
    require_factors,
    require_psd,
    require_residual,
    sqrtm_psd,
    square_ops,
)


class KrausSet:
    """A family `apply_kraus_op` can apply: sum_a K_a† K_a = I on factor 1 or factors {1,2}.

    `acts_on` is (1,) or (1, 2); on a larger state each K_a is extended by
    the identity on the other factors. The constructor keeps frozen copies
    of the operators and raises ValueError on a malformed list (see
    `linalg.square_ops`), a bad `acts_on` or a completeness residual beyond
    `require_residual`. The one sub-complete family (sum K†K <= I) is
    `checks.check_concave_map`'s, which takes plain arrays.
    """

    __slots__ = ("ops", "acts_on")

    def __init__(self, ops: Iterable[np.ndarray], acts_on=(1,)):
        ops = square_ops(ops, "Kraus operator")
        d = ops[0].shape[0]
        acts_on = factor_labels(acts_on, 2, "acts_on")
        if acts_on not in ((1,), (1, 2)):
            raise ValueError(f"Kraus set must act on {{1}} or {{1,2}}, got {acts_on}")
        residual = float(np.abs(sum(k.conj().T @ k for k in ops) - np.eye(d)).max())
        require_residual(residual, "completeness residual")
        self.ops = ops
        self.acts_on = acts_on

    @property
    def dim(self) -> int:
        return self.ops[0].shape[0]

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:
        return f"KrausSet(count={len(self.ops)}, dim={self.dim}, acts_on={self.acts_on})"


class Povm:
    """Hermitian positive operators summing to the identity (`require_psd`, `require_residual`).

    The constructor keeps frozen copies of the elements and raises
    ValueError on a malformed list (see `linalg.square_ops`), an element
    that is not Hermitian PSD, or a sum that is not the identity. `rows`
    stacks the transposed elements as an (m, d²) matrix, so that
    `rows @ X.ravel()` holds every Tr(P_a X) at once; the outcome tables
    below are products with it.
    """

    __slots__ = ("elements", "rows")

    def __init__(self, elements: Iterable[np.ndarray]):
        elements = square_ops(elements, "POVM element")
        d = elements[0].shape[0]
        for p in elements:
            require_psd(hermitian_eigvalsh(p), "POVM element")
        require_residual(float(np.abs(sum(elements) - np.eye(d)).max()), "POVM sum residual")
        self.elements = elements
        self.rows = np.array(elements).transpose(0, 2, 1).reshape(len(elements), d * d)
        self.rows.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"Povm(count={len(self.elements)}, dim={self.dim})"


def _check_fit(what: str, dim: int, dims: tuple[int, ...], factors: tuple) -> tuple[int, ...]:
    """The 1-based labels `factors` of `dims` (`factor_labels`); ValueError unless their dims multiply to `dim`."""
    labels = factor_labels(factors, len(dims), "factors")
    sub = math.prod([dims[f - 1] for f in labels])
    if sub != dim:
        raise ValueError(f"{what} dim {dim} does not match factors {labels} of {dims} (product {sub})")
    return labels


def apply_kraus_op(rho: DensityMatrix, k: KrausSet) -> list[np.ndarray]:
    """Blocks Tr_1 (K_a ⊗ I) rho (K_a ⊗ I)†, one per operator, on factors 2..n.

    Every KrausSet is complete and acts on {1} or {1,2}, so only its fit to
    rho's factor dimensions is checked here. Per operator and ~64 KB block of
    rho's rows (grouped by their index on the factors K leaves alone), one gemm
    applies K to the rows; a batched gemm against conj(K), summed over the row
    index of factor 1, applies K† to the columns and traces factor 1 away.
    Neither K rho nor the image K rho K† is ever full-size.
    """
    d = rho.dims
    _check_fit("operator", k.dim, d, k.acts_on)
    da = k.dim
    kept = da // d[0]  # the part of the operator's space that survives Tr_1
    rest = rho.dim // da
    rows, step = rho.mat.reshape(da, rest, rho.dim), _per_block(da * rho.dim)
    blocks = []
    for op in k.ops:
        b = np.empty((kept, rest, kept, rest), dtype=complex)
        op_conj = op.conj().reshape(d[0], 1, kept, da)
        for lo in range(0, rest, step):
            x = (op @ rows[:, lo : lo + step].reshape(da, -1)).reshape(d[0], -1, da, rest)
            b[:, lo : lo + step] = np.matmul(op_conj, x).sum(axis=0).reshape(kept, -1, kept, rest)
        blocks.append(b.reshape(kept * rest, kept * rest))
    return blocks


def phi_from_blocks(blocks: Sequence[np.ndarray], dims23: tuple[int, ...]) -> DensityMatrix:
    """The block-diagonal state ⊕_a B_a on C^M ⊗ H2 ⊗ H3."""
    d23 = blocks[0].shape[0]
    out = np.zeros((len(blocks) * d23, len(blocks) * d23), dtype=complex)
    for a, b in enumerate(blocks):
        out[a * d23 : (a + 1) * d23, a * d23 : (a + 1) * d23] = b
    return DensityMatrix(out, (len(blocks),) + dims23)


def cpt_phi(rho123: DensityMatrix, k: KrausSet) -> DensityMatrix:
    """Block-diagonal image ⊕_a Tr_1 K_a rho K_a† on C^M ⊗ H2 ⊗ H3.

    The map is completely positive and trace preserving; every operator
    contributes a block (blocks of negligible weight stay as near-zero
    blocks so that images of different states share the same space).
    """
    require_factors(rho123, 3)
    return phi_from_blocks(apply_kraus_op(rho123, k), rho123.dims[1:])


def povm_to_kraus(p: Povm) -> KrausSet:
    """Kraus set of PSD square roots on factor 1; completeness is inherited from the POVM."""
    return KrausSet([sqrtm_psd(el) for el in p.elements])


def povm_conditionals(rho: DensityMatrix, p: Povm, factor: int = 1) -> np.ndarray:
    """Subnormalized conditional states Tr_factor[(P_a ⊗ I) rho], stacked as (m, r, r).

    Each matrix is Hermitian PSD with trace equal to the outcome weight
    Tr(P_a rho) and lives on the remaining factors in their original order.
    All of them come from one product of `p.rows` with rho, its measured
    factor's row and column indices moved first.
    """
    dims = rho.dims
    (factor,) = _check_fit("POVM", p.dim, dims, (factor,))
    n = len(dims)
    df = dims[factor - 1]
    rest = rho.dim // df
    t = np.moveaxis(rho.mat.reshape(dims * 2), (factor - 1, n + factor - 1), (0, 1))
    return (p.rows @ t.reshape(df * df, rest * rest)).reshape(len(p), rest, rest)


def povm_weights(rho: DensityMatrix, p: Povm) -> np.ndarray:
    """Outcome probabilities Tr(P_a rho) of measuring factor 1."""
    _check_fit("POVM", p.dim, rho.dims, (1,))
    return (p.rows @ ptrace_mat(rho.mat, rho.dims, (1,)).ravel()).real


def povm_joint_distribution(rho12: DensityMatrix, p: Povm, q: Povm) -> np.ndarray:
    """Outcome table r(a, b) = Tr[(P_a ⊗ Q_b) rho] of a two-factor state."""
    require_factors(rho12, 2)
    _check_fit("POVM", q.dim, rho12.dims, (2,))
    conds = povm_conditionals(rho12, p, factor=1)
    return (conds.reshape(len(p), -1) @ q.rows.T).real

