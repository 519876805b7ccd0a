"""Kraus families, partitions of unity, and post-measurement ensembles.

A Kraus family acts on factor 1 or on factors {1,2} of a state and is
extended by the identity on the rest. Every measured quantity here reads
only the outcome blocks Tr_1 (K_a ⊗ I) rho (K_a ⊗ I)†, and `apply_kraus_op`
computes them by a reduced contraction that never builds the extended
operator or the full image K_a rho K_a†. POVM outcome tables and
conditionals are products with the stacked elements `Povm.rows`. Kraus sets
and POVMs are validated against the same `STATE_TOL` as states; no
constructor takes a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .linalg import (
    STATE_TOL,
    DensityMatrix,
    _as_int,
    clamp_threshold,
    hermitize,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    ptrace_mat,
    require_factors,
    sqrtm_psd,
    square_ops,
)


class KrausSet:
    """A family `apply_kraus_op` can apply: sum_a K_a† K_a = I on factor 1 or factors {1,2}.

    `acts_on` is (1,) or (1, 2); on a larger state each K_a is extended by
    the identity on the other factors. The constructor keeps frozen copies
    of the operators and raises ValueError on a malformed list (see
    `linalg.square_ops`), a bad `acts_on` or a completeness residual above
    `STATE_TOL`. The one sub-complete family (sum K†K <= I) is
    `checks.check_concave_map`'s, which takes plain arrays.
    """

    __slots__ = ("ops", "acts_on")

    def __init__(self, ops: Iterable[np.ndarray], acts_on=(1,)):
        ops = square_ops(ops, "Kraus operator")
        d = ops[0].shape[0]
        acts_on = tuple(sorted(_as_int(a) for a in acts_on))
        if acts_on not in ((1,), (1, 2)):
            raise ValueError(f"Kraus set must act on {{1}} or {{1,2}}, got {acts_on}")
        residual = float(np.abs(sum(k.conj().T @ k for k in ops) - np.eye(d)).max())
        if residual > STATE_TOL:
            raise ValueError(f"completeness residual {residual:.3e} exceeds tol {STATE_TOL:.3e}")
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
    """Hermitian positive operators summing to the identity, all within `STATE_TOL`.

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
            w = np.linalg.eigvalsh(hermitize(p, asym_tol=STATE_TOL)[0])
            if w[0] < -STATE_TOL:
                raise ValueError(f"POVM element not PSD: min eigenvalue {w[0]:.3e}")
        residual = float(np.abs(sum(elements) - np.eye(d)).max())
        if residual > STATE_TOL:
            raise ValueError(f"POVM does not sum to identity: residual {residual:.3e}")
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


@dataclass(frozen=True)
class MeasurementEnsemble:
    """Weights and conditional states {(n_a, rho23_a, rho2_a)} after measuring.

    `skipped` counts terms whose weight fell below `clamp_threshold`;
    `skipped_mass` is their total weight, so sum of n_a plus skipped_mass
    recovers the trace of the input state.
    """

    entries: tuple
    skipped: int
    skipped_mass: float


def _check_factor_dim(ops_dim: int, dims: tuple[int, ...], acts_on: Sequence[int]) -> None:
    if max(acts_on) > len(dims):
        raise ValueError(f"acts_on {tuple(acts_on)} out of range for dims {dims}")
    sub = math.prod(dims[a - 1] for a in acts_on)
    if sub != ops_dim:
        raise ValueError(f"operator dim {ops_dim} does not match factors {tuple(acts_on)} of {dims} (product {sub})")


def apply_kraus_op(rho: DensityMatrix, k: KrausSet) -> list[np.ndarray]:
    """Blocks Tr_1 (K_a ⊗ I) rho (K_a ⊗ I)†, one per operator, on factors 2..n.

    Every KrausSet is complete and acts on {1} or {1,2}, so only its fit to
    rho's factor dimensions is checked here. Per operator, one gemm K @ rho
    applies K to the rows; a batched gemm against conj(K), summed over the
    row index of factor 1, applies K† to the columns and traces factor 1
    away. The full image K rho K† is never built.
    """
    d = rho.dims
    _check_factor_dim(k.dim, d, k.acts_on)
    da = k.dim
    kept = da // d[0]  # the part of the operator's space that survives Tr_1
    rest = rho.dim // da
    rows = rho.mat.reshape(da, -1)
    blocks = []
    for op in k.ops:
        x = (op @ rows).reshape(d[0], kept * rest, da, rest)
        b = np.matmul(op.conj().reshape(d[0], 1, kept, da), x).sum(axis=0)
        blocks.append(b.reshape(kept * rest, kept * rest))
    return blocks


def ensemble_from_blocks(blocks: Sequence[np.ndarray], dims23: tuple[int, ...]) -> MeasurementEnsemble:
    """Weights n_a = Tr B_a, conditionals B_a / n_a on {2,3}, and their factor-2 reductions.

    Terms with n_a below `clamp_threshold` (their conditional states are
    numerically meaningless, and their n ln n counts as 0) are counted, not
    materialized.
    """
    entries = []
    skipped = 0
    skipped_mass = 0.0
    for b in blocks:
        n = float(np.trace(b).real)
        if n < clamp_threshold(n):
            skipped += 1
            skipped_mass += max(n, 0.0)
            continue
        r23 = DensityMatrix(b / n, dims23)
        entries.append((n, r23, partial_trace(r23, {1})))
    return MeasurementEnsemble(tuple(entries), skipped, skipped_mass)


def phi_from_blocks(blocks: Sequence[np.ndarray], dims23: tuple[int, ...]) -> DensityMatrix:
    """The block-diagonal state ⊕_a B_a on C^M ⊗ H2 ⊗ H3."""
    d23 = blocks[0].shape[0]
    out = np.zeros((len(blocks) * d23, len(blocks) * d23), dtype=complex)
    for a, b in enumerate(blocks):
        out[a * d23 : (a + 1) * d23, a * d23 : (a + 1) * d23] = b
    return DensityMatrix(out, (len(blocks),) + dims23)


def measurement_ensemble(rho123: DensityMatrix, k: KrausSet) -> MeasurementEnsemble:
    """Outcome weights and conditional reduced states of a measured tripartite state.

    For each operator: weight n_a = Tr K_a rho K_a†, conditional state on
    factors {2,3} is Tr_1 K_a rho K_a† / n_a, and its reduction to factor 2
    (see `ensemble_from_blocks`).
    """
    require_factors(rho123, 3)
    return ensemble_from_blocks(apply_kraus_op(rho123, k), rho123.dims[1:])


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


def _check_povm_factor(p: Povm, dims: tuple[int, ...], factor: int) -> None:
    if not 1 <= factor <= len(dims):
        raise ValueError(f"factor {factor} out of range for dims {dims}")
    if p.dim != dims[factor - 1]:
        raise ValueError(f"POVM dim {p.dim} does not match factor {factor} of {dims}")


def povm_conditionals(rho: DensityMatrix, p: Povm, factor: int = 1) -> np.ndarray:
    """Subnormalized conditional states Tr_factor[(P_a ⊗ I) rho], stacked as (m, r, r).

    Each matrix is Hermitian PSD with trace equal to the outcome weight
    Tr(P_a rho) and lives on the remaining factors in their original order.
    All of them come from one product of `p.rows` with rho, its measured
    factor's row and column indices moved first.
    """
    dims = rho.dims
    _check_povm_factor(p, dims, factor)
    n = len(dims)
    df = dims[factor - 1]
    rest = rho.dim // df
    t = np.moveaxis(rho.mat.reshape(dims * 2), (factor - 1, n + factor - 1), (0, 1))
    return (p.rows @ t.reshape(df * df, rest * rest)).reshape(len(p), rest, rest)


def povm_weights(rho: DensityMatrix, p: Povm) -> np.ndarray:
    """Outcome probabilities Tr(P_a rho) of measuring factor 1."""
    _check_povm_factor(p, rho.dims, 1)
    return (p.rows @ ptrace_mat(rho.mat, rho.dims, (1,)).ravel()).real


def povm_joint_distribution(rho12: DensityMatrix, p: Povm, q: Povm) -> np.ndarray:
    """Outcome table r(a, b) = Tr[(P_a ⊗ Q_b) rho] of a two-factor state."""
    require_factors(rho12, 2)
    _check_povm_factor(q, rho12.dims, 2)
    conds = povm_conditionals(rho12, p, factor=1)
    return (conds.reshape(len(p), -1) @ q.rows.T).real


# --- JSON wire formats -----------------------------------------------------


def kraus_to_json(k: KrausSet) -> dict:
    return {"acts_on": list(k.acts_on), "ops": [matrix_to_json(op) for op in k.ops]}


def kraus_from_json(obj: dict) -> KrausSet:
    return KrausSet([matrix_from_json(o) for o in obj["ops"]], acts_on=tuple(obj["acts_on"]))


def povm_to_json(p: Povm) -> dict:
    return {"ops": [matrix_to_json(el) for el in p.elements]}


def povm_from_json(obj: dict) -> Povm:
    return Povm([matrix_from_json(o) for o in obj["ops"]])
