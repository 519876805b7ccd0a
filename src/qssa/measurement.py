"""Kraus families, partitions of unity, and post-measurement ensembles.

Operators that act on a subset of tensor factors are extended by the
identity on the remaining factors. The extension is applied by index
arithmetic on the reshaped state, which never builds the full operator;
``embed_operator`` materializes it as an explicit Kronecker product and
serves as the test oracle for that path. Kraus sets and POVMs are validated
against the same `STATE_TOL` as states; no constructor takes a tolerance.
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
    as_dims,
    hermitize,
    kron,
    matrix_from_json,
    matrix_to_json,
    ptrace_mat,
    require_factors,
    sqrtm_psd,
)

# Ensemble terms with weight below this are dropped (their conditional
# states are numerically meaningless); the dropped mass is logged.
N_THRESHOLD = 1e-12


class KrausSet:
    """Finite operator family {K_a} with sum_a K_a† K_a = I on its factors.

    `acts_on` lists the 1-based factor labels the operators act on; when a
    set is applied to a larger state each K_a is extended by the identity on
    the untouched factors. Completeness is checked against `STATE_TOL`;
    `sub_complete=True` relaxes it to sum_a K_a† K_a <= I (the residual must
    be PSD within `STATE_TOL`).
    """

    __slots__ = ("ops", "acts_on", "sub_complete")

    def __init__(self, ops: Iterable[np.ndarray], acts_on=(1,), sub_complete: bool = False):
        ops = tuple(np.asarray(k, dtype=complex) for k in ops)
        if not ops:
            raise ValueError("Kraus set must contain at least one operator")
        d = ops[0].shape[0]
        for k in ops:
            if k.shape != (d, d):
                raise ValueError(f"all operators must be square of equal size, got {k.shape} vs {d}")
        acts_on = tuple(sorted(_as_int(a) for a in acts_on))
        if not acts_on or len(set(acts_on)) != len(acts_on) or acts_on[0] < 1:
            raise ValueError(f"invalid acts_on {acts_on}")
        gram = sum(k.conj().T @ k for k in ops)
        if sub_complete:
            w = np.linalg.eigvalsh(np.eye(d) - (gram + gram.conj().T) / 2)
            if w[0] < -STATE_TOL:
                raise ValueError(f"sub-completeness violated: I - sum K†K has eigenvalue {w[0]:.3e}")
        else:
            residual = float(np.abs(gram - np.eye(d)).max())
            if residual > STATE_TOL:
                raise ValueError(f"completeness residual {residual:.3e} exceeds tol {STATE_TOL:.3e}")
        for k in ops:
            k.flags.writeable = False
        self.ops = ops
        self.acts_on = acts_on
        self.sub_complete = sub_complete

    @property
    def dim(self) -> int:
        return self.ops[0].shape[0]

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:
        return f"KrausSet(count={len(self.ops)}, dim={self.dim}, acts_on={self.acts_on})"


class Povm:
    """Hermitian positive operators summing to the identity, all within `STATE_TOL`."""

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[np.ndarray]):
        elements = tuple(np.asarray(p, dtype=complex) for p in elements)
        if not elements:
            raise ValueError("POVM must contain at least one element")
        d = elements[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for p in elements:
            if p.shape != (d, d):
                raise ValueError(f"all elements must be square of equal size, got {p.shape} vs {d}")
            w = np.linalg.eigvalsh(hermitize(p, asym_tol=STATE_TOL)[0])
            if w[0] < -STATE_TOL:
                raise ValueError(f"POVM element not PSD: min eigenvalue {w[0]:.3e}")
            total += p
        residual = float(np.abs(total - np.eye(d)).max())
        if residual > STATE_TOL:
            raise ValueError(f"POVM does not sum to identity: residual {residual:.3e}")
        for p in elements:
            p.flags.writeable = False
        self.elements = elements

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

    `skipped` counts terms whose weight fell below the drop threshold;
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


def embed_operator(op: np.ndarray, dims, acts_on: Sequence[int]) -> np.ndarray:
    """Materialize op ⊗ I on the full space, with op acting on `acts_on`."""
    dims = as_dims(dims)
    acts_on = tuple(sorted(acts_on))
    _check_factor_dim(op.shape[0], dims, acts_on)
    rest = [i for i in range(1, len(dims) + 1) if i not in acts_on]
    rest_dim = math.prod(dims[i - 1] for i in rest)
    full = kron(op, np.eye(rest_dim, dtype=complex))
    # `full` lives on factor order acts_on + rest; permute back to 1..n.
    order = [a - 1 for a in acts_on] + [r - 1 for r in rest]
    perm_dims = [dims[i] for i in order]
    inv = np.argsort(order)
    t = full.reshape(perm_dims + perm_dims)
    t = np.transpose(t, axes=list(inv) + [len(dims) + i for i in inv])
    return t.reshape(full.shape)


def _apply_rows(op_t: np.ndarray, t: np.ndarray, axes: Sequence[int], k: int) -> np.ndarray:
    out = np.tensordot(op_t, t, axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(out, range(k), axes)


def apply_kraus_op(op: np.ndarray, rho_mat: np.ndarray, dims, acts_on: Sequence[int]) -> np.ndarray:
    """K rho K† with K extended by identity on the untouched factors.

    Applied by tensordot on the reshaped state, without materializing the
    extended operator.
    """
    dims = as_dims(dims)
    acts_on = tuple(sorted(acts_on))
    _check_factor_dim(op.shape[0], dims, acts_on)
    n = len(dims)
    sub = [dims[a - 1] for a in acts_on]
    k = len(acts_on)
    op_t = op.reshape(sub + sub)
    t = np.asarray(rho_mat, dtype=complex).reshape(dims * 2)
    t = _apply_rows(op_t, t, [a - 1 for a in acts_on], k)
    t = _apply_rows(op_t.conj(), t, [n + a - 1 for a in acts_on], k)
    total = math.prod(dims)
    return t.reshape(total, total)


def measurement_ensemble(rho123: DensityMatrix, k: KrausSet) -> MeasurementEnsemble:
    """Outcome weights and conditional reduced states of a measured tripartite state.

    For each operator: weight n_a = Tr K_a rho K_a†, conditional state on
    factors {2,3} is Tr_1 K_a rho K_a† / n_a, and its reduction to factor 2.
    Terms with n_a below the drop threshold are counted, not materialized.
    """
    require_factors(rho123, 3)
    if k.acts_on not in ((1,), (1, 2)):
        raise ValueError(f"Kraus set must act on {{1}} or {{1,2}}, got {k.acts_on}")
    if k.sub_complete:
        raise ValueError("measurement ensembles require a complete Kraus set")
    d = rho123.dims
    entries = []
    skipped = 0
    skipped_mass = 0.0
    for op in k.ops:
        c = apply_kraus_op(op, rho123.mat, rho123.dims, k.acts_on)
        n = float(np.trace(c).real)
        if n < N_THRESHOLD:
            skipped += 1
            skipped_mass += max(n, 0.0)
            continue
        r23 = DensityMatrix(ptrace_mat(c, d, (2, 3)) / n, (d[1], d[2]))
        r2 = DensityMatrix(ptrace_mat(c, d, (2,)) / n, (d[1],))
        entries.append((n, r23, r2))
    return MeasurementEnsemble(tuple(entries), skipped, skipped_mass)


def cpt_phi(rho123: DensityMatrix, k: KrausSet) -> DensityMatrix:
    """Block-diagonal image ⊕_a Tr_1 K_a rho K_a† on C^M ⊗ H2 ⊗ H3.

    The map is completely positive and trace preserving; every operator
    contributes a block (blocks of negligible weight stay as near-zero
    blocks so that images of different states share the same space).
    """
    require_factors(rho123, 3)
    if k.sub_complete:
        raise ValueError("the block-diagonal channel requires a complete Kraus set")
    d = rho123.dims
    m = len(k.ops)
    d23 = d[1] * d[2]
    out = np.zeros((m * d23, m * d23), dtype=complex)
    for a, op in enumerate(k.ops):
        c = apply_kraus_op(op, rho123.mat, rho123.dims, k.acts_on)
        out[a * d23 : (a + 1) * d23, a * d23 : (a + 1) * d23] = ptrace_mat(c, d, (2, 3))
    return DensityMatrix(out, (m, d[1], d[2]))


def povm_to_kraus(p: Povm, acts_on=(1,)) -> KrausSet:
    """Kraus set of PSD square roots; completeness is inherited from the POVM."""
    return KrausSet([sqrtm_psd(el) for el in p.elements], acts_on=acts_on)


def povm_conditionals(rho: DensityMatrix, p: Povm, factor: int = 1) -> list[np.ndarray]:
    """Subnormalized conditional states Tr_factor[(P_a ⊗ I) rho].

    Each returned matrix is Hermitian PSD with trace equal to the outcome
    weight Tr(P_a rho); the matrices live on the remaining factors in their
    original order.
    """
    dims = rho.dims
    if not 1 <= factor <= len(dims):
        raise ValueError(f"factor {factor} out of range for dims {dims}")
    if p.dim != dims[factor - 1]:
        raise ValueError(f"POVM dim {p.dim} does not match factor {factor} of {dims}")
    n = len(dims)
    t = rho.mat.reshape(dims * 2)
    out = []
    rest = rho.dim // dims[factor - 1]
    for el in p.elements:
        b = np.tensordot(el, t, axes=([1, 0], [factor - 1, n + factor - 1]))
        out.append(b.reshape(rest, rest))
    return out


def povm_weights(rho: DensityMatrix, p: Povm, factor: int = 1) -> np.ndarray:
    """Outcome probabilities Tr(P_a rho) of measuring one factor."""
    reduced = ptrace_mat(rho.mat, rho.dims, (factor,))
    return np.array([float(np.trace(el @ reduced).real) for el in p.elements])


def povm_joint_distribution(rho12: DensityMatrix, p: Povm, q: Povm) -> np.ndarray:
    """Outcome table r(a, b) = Tr[(P_a ⊗ Q_b) rho] of a two-factor state."""
    require_factors(rho12, 2)
    conds = povm_conditionals(rho12, p, factor=1)
    if q.dim != rho12.dims[1]:
        raise ValueError(f"POVM dim {q.dim} does not match factor 2 of {rho12.dims}")
    r = np.empty((len(p), len(q)))
    for a, b_mat in enumerate(conds):
        for b, el in enumerate(q.elements):
            r[a, b] = float(np.trace(el @ b_mat).real)
    return r


# --- JSON wire formats -----------------------------------------------------


def kraus_to_json(k: KrausSet) -> dict:
    return {"acts_on": list(k.acts_on), "ops": [matrix_to_json(op) for op in k.ops]}


def kraus_from_json(obj: dict) -> KrausSet:
    return KrausSet([matrix_from_json(o) for o in obj["ops"]], acts_on=tuple(obj["acts_on"]))


def povm_to_json(p: Povm) -> dict:
    return {"ops": [matrix_to_json(el) for el in p.elements]}


def povm_from_json(obj: dict) -> Povm:
    return Povm([matrix_from_json(o) for o in obj["ops"]])
