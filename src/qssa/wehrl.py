"""Spin coherent states, exact sphere quadrature, Husimi functions and the
phase-space (Wehrl) entropy.

A spin-j factor carries the discrete resolution of identity
sum_i w_i |Omega_i><Omega_i| = I built from a Gauss-Legendre grid in
cos(theta) and a uniform grid in phi. The resolution is exact (up to
roundoff) because the projector entries are polynomials of degree two_j in
cos(theta) and trigonometric degree two_j in phi. The entropy integrand
h ln h is not polynomial, so the default grid is finer than the resolution
minimum; the floor below keeps the coherent-state entropy accurate to
better than 1e-6 for all j (smoothness improves quickly with j, small j is
the worst case). The inequality checks default to the resolution-exact base
grids instead: every inequality among Wehrl-type entropies holds exactly on
them, only the absolute values are less converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import DEFAULT_LAMBDAS
from .linalg import DensityMatrix, partial_trace, require_factors
from .entropy import mutual_information, von_neumann
from .randgen import Seed, random_pure_state, rng_for
from .report import InequalityReport, make_report

# Minimum node counts of the default grids; below ~48 theta nodes the
# log-singular h ln h integrand of near-pure states loses the 1e-6 target.
THETA_FLOOR = 48
PHI_FLOOR = 64

HUSIMI_FLOOR = 1e-15


@dataclass(frozen=True)
class SpinJ:
    """Spin quantum number stored as two_j, so j may be half-integer."""

    two_j: int

    def __post_init__(self):
        if self.two_j < 0:
            raise ValueError(f"two_j must be >= 0, got {self.two_j}")

    @property
    def dim(self) -> int:
        return self.two_j + 1


class BlochGrid:
    """Quadrature nodes, weights and coherent vectors on one spin factor."""

    __slots__ = ("spin", "nodes", "weights", "states")

    def __init__(self, spin: SpinJ, nodes: np.ndarray, weights: np.ndarray, states: np.ndarray):
        self.spin = spin
        nodes.flags.writeable = False
        weights.flags.writeable = False
        states.flags.writeable = False
        self.nodes = nodes
        self.weights = weights
        self.states = states

    def __len__(self) -> int:
        return len(self.weights)

    def __repr__(self) -> str:
        return f"BlochGrid(two_j={self.spin.two_j}, nodes={len(self)})"


def _coherent_states(two_j: int, thetas, phis) -> np.ndarray:
    """Coherent vectors at (thetas[i], phis[p]) in row i * len(phis) + p.

    Basis order is m = j, j-1, ..., -j; the amplitude on index k = j - m is
    sqrt(C(2j,k)) cos^(2j-k)(theta/2) sin^k(theta/2) e^{-ik phi}, so the
    north pole gives the highest-weight basis vector.

    float(C(2j,k)) is correctly rounded up to 2j = 1029, past any grid that
    fits in memory; as int64 the binomials overflow from 2j = 68 on.
    """
    k = np.arange(two_j + 1)
    binom = np.sqrt([float(math.comb(two_j, kk)) for kk in range(two_j + 1)])
    half = np.asarray(thetas, dtype=float)[:, None] / 2
    amps = binom * np.cos(half) ** (two_j - k) * np.sin(half) ** k
    phases = np.exp(-1j * np.outer(phis, k))
    return (amps[:, None, :] * phases).reshape(-1, two_j + 1)


def base_grid_sizes(spin: SpinJ) -> tuple[int, int]:
    """Smallest sizes used by the inequality checks (resolution-exact)."""
    return spin.two_j + 4, 2 * spin.two_j + 4


def make_grid(spin: SpinJ, n_theta: int | None = None, n_phi: int | None = None) -> BlochGrid:
    """Product quadrature grid realizing the resolution of identity.

    Defaults apply an accuracy floor on top of the resolution-exact base
    sizes; pass explicit counts for leaner grids (n_theta >= two_j + 1
    Gauss-Legendre nodes, n_phi >= 2 two_j + 2 uniform nodes keep the
    resolution exact).
    """
    base_t, base_p = base_grid_sizes(spin)
    if n_theta is None:
        n_theta = max(base_t, THETA_FLOOR)
    if n_phi is None:
        n_phi = max(base_p, PHI_FLOOR)
    if n_theta < spin.two_j + 1:
        raise ValueError(f"n_theta={n_theta} below resolution minimum {spin.two_j + 1}")
    if n_phi < 2 * spin.two_j + 2:
        raise ValueError(f"n_phi={n_phi} below resolution minimum {2 * spin.two_j + 2}")
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    thetas = np.arccos(x)
    phis = 2 * np.pi * np.arange(n_phi) / n_phi
    # Node weight = (2j+1)/(4pi) * (GL weight in cos theta) * (2pi / n_phi).
    w_theta = (spin.two_j + 1) / (2.0 * n_phi) * wx
    nodes = np.column_stack([np.repeat(thetas, n_phi), np.tile(phis, n_theta)])
    weights = np.repeat(w_theta, n_phi)
    states = _coherent_states(spin.two_j, thetas, phis)
    return BlochGrid(spin, nodes, weights, states)


def resolution_residual(grid: BlochGrid) -> float:
    """Max-abs entry of sum_i w_i |Omega_i><Omega_i| - I."""
    acc = (grid.states.conj().T * grid.weights) @ grid.states
    return float(np.abs(acc - np.eye(grid.spin.dim)).max())


def _as_tuple(grids) -> tuple[BlochGrid, ...]:
    """One grid, or a tuple or list of grids (one per factor), as a tuple."""
    return tuple(grids) if isinstance(grids, (tuple, list)) else (grids,)


def _grids_for(rho: DensityMatrix, grids, lean: bool = False) -> tuple[BlochGrid, ...]:
    """`grids` as a tuple checked against rho's factors.

    None builds one grid per factor: of the resolution-exact base sizes if
    `lean`, else of make_grid's defaults.
    """
    if grids is None:
        spins = [SpinJ(d - 1) for d in rho.dims]
        return tuple(make_grid(s, *(base_grid_sizes(s) if lean else ())) for s in spins)
    grids = _as_tuple(grids)
    if len(grids) != len(rho.dims):
        raise ValueError(f"{len(grids)} grids for {len(rho.dims)} factors")
    for g, d in zip(grids, rho.dims):
        if g.spin.dim != d:
            raise ValueError(f"grid dim {g.spin.dim} does not match factor dim {d}")
    return grids


def husimi(rho: DensityMatrix, grids) -> np.ndarray:
    """Diagonal coherent-state expectations h = <Omega|rho|Omega> per node.

    For two factors the product grid is traversed in C order (first factor
    outer); the result is flattened accordingly.
    """
    grids = _grids_for(rho, grids)
    if len(grids) == 1:
        v = grids[0].states
        return np.einsum("na,ab,nb->n", v.conj(), rho.mat, v, optimize=True).real
    if len(grids) == 2:
        u, v = grids[0].states, grids[1].states
        d1, d2 = rho.dims
        t = rho.mat.reshape(d1, d2, d1, d2)
        h = np.einsum("ia,kb,abcd,ic,kd->ik", u.conj(), v.conj(), t, u, v, optimize=True).real
        return h.ravel()
    raise ValueError("husimi supports one or two spin factors")


def joint_weights(grids) -> np.ndarray:
    grids = _as_tuple(grids)
    w = grids[0].weights
    for g in grids[1:]:
        w = np.outer(w, g.weights).ravel()
    return w


@dataclass(frozen=True)
class HusimiField:
    """Husimi values h_i on a (product) grid, with the joint node weights."""

    grids: tuple
    values: np.ndarray
    weights: np.ndarray

    @property
    def mass(self) -> float:
        return float(np.dot(self.weights, self.values))


def husimi_field(rho: DensityMatrix, grids=None) -> HusimiField:
    grids = _grids_for(rho, grids)
    field = HusimiField(grids, husimi(rho, grids), joint_weights(grids))
    if field.values.min() < -1e-12:
        raise RuntimeError(f"Husimi value {field.values.min():.3e} below -1e-12")
    if abs(field.mass - rho.trace()) > 1e-10:
        raise RuntimeError(f"Husimi mass {field.mass!r} disagrees with trace {rho.trace()!r}")
    return field


def wehrl_entropy(rho: DensityMatrix, grids=None) -> float:
    """Quadrature value of -integral h ln h over the sphere(s).

    Without `grids`, each factor gets make_grid's accuracy-floored default.
    """
    grids = _grids_for(rho, grids)
    h = husimi(rho, grids)
    w = joint_weights(grids)
    mask = h > HUSIMI_FLOOR
    return float(-np.sum(w[mask] * h[mask] * np.log(h[mask])))


def coherent_wehrl_value(spin: SpinJ) -> float:
    """Exact Wehrl entropy of any coherent state: 2j/(2j+1)."""
    return spin.two_j / (spin.two_j + 1)


def check_wehrl_dominates(rho: DensityMatrix, grids=None) -> InequalityReport:
    """S[rho] <= S_W[rho]; holds for every resolution grid, any state."""
    grids = _grids_for(rho, grids, lean=True)
    s = von_neumann(rho)
    sw = wehrl_entropy(rho, grids)
    return make_report("wehrl_dominates", s, sw, dims=rho.dims,
                       grid_nodes=[len(g) for g in grids])


def check_wehrl_mutual_info(rho12: DensityMatrix, grids=None) -> InequalityReport:
    """Wehrl mutual information is dominated by quantum mutual information."""
    require_factors(rho12, 2)
    grids = _grids_for(rho12, grids, lean=True)
    sw12 = wehrl_entropy(rho12, grids)
    sw1 = wehrl_entropy(partial_trace(rho12, {1}), (grids[0],))
    sw2 = wehrl_entropy(partial_trace(rho12, {2}), (grids[1],))
    wehrl_mi = sw1 + sw2 - sw12
    quantum_mi = mutual_information(rho12)
    return make_report("wehrl_mutual_info", wehrl_mi, quantum_mi,
                       dims=rho12.dims, grid_nodes=[len(g) for g in grids])


def check_wehrl_convexity(a: DensityMatrix, b: DensityMatrix, grids=None) -> InequalityReport:
    """Convexity of rho -> S_W[rho] - S[rho] at the DEFAULT_LAMBDAS points of [a, b]."""
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")
    grids = _grids_for(a, grids, lean=True)

    def g(rho: DensityMatrix) -> float:
        return wehrl_entropy(rho, grids) - von_neumann(rho)

    ga = g(a)
    gb = g(b)
    worst = None
    for lam in DEFAULT_LAMBDAS:
        mix = DensityMatrix(lam * a.mat + (1 - lam) * b.mat, a.dims)
        margin = lam * ga + (1 - lam) * gb - g(mix)
        if worst is None or margin < worst[0]:
            worst = (margin, lam, g(mix), lam * ga + (1 - lam) * gb)
    _, lam, gmix, combo = worst
    return make_report("wehrl_convexity", gmix, combo, dims=a.dims,
                       lambda_at_min=lam, grid_nodes=[len(g_) for g_ in grids])


def scan_state(spin: SpinJ, seed: Seed, trial: int) -> DensityMatrix:
    """Pure state of trial `trial` in wehrl_min_scan(spin, ..., seed)."""
    psi = random_pure_state(spin.dim, rng_for(seed, (trial,)))
    return DensityMatrix(np.outer(psi, psi.conj()), (spin.dim,))


def wehrl_min_scan(spin: SpinJ, trials: int, seed: Seed) -> dict:
    """Wehrl entropies of random pure states versus the coherent value.

    Coherent states minimize the spin Wehrl entropy, S_W >= 2j/(2j+1)
    (Lieb and Solovej, Acta Math. 212 (2014), arXiv:1208.3632). The scan
    checks that theorem numerically on make_grid's default grid;
    `min_is_at_least_coherent` allows 1e-6 below the coherent value for
    quadrature error.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    grid = make_grid(spin)
    rows = []
    min_sw = math.inf
    for t in range(trials):
        rho = scan_state(spin, seed, t)
        sw = wehrl_entropy(rho, (grid,))
        s = von_neumann(rho)
        rows.append({"trial": t, "seed": int(seed), "two_j": spin.two_j,
                     "S_W": sw, "S": s, "diff": sw - s})
        min_sw = min(min_sw, sw)
    coherent = coherent_wehrl_value(spin)
    return {
        "rows": rows,
        "summary": {
            "two_j": spin.two_j,
            "trials": trials,
            "seed": int(seed),
            "min_S_W": min_sw,
            "coherent_value": coherent,
            "margin": min_sw - coherent,
            "min_is_at_least_coherent": bool(min_sw >= coherent - 1e-6),
            "resolution_residual": resolution_residual(grid),
        },
    }
