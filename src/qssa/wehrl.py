"""Spin coherent states, exact sphere quadrature, Husimi functions and the
phase-space (Wehrl) entropy.

A spin-j factor carries the discrete resolution of identity
sum_i w_i |Omega_i><Omega_i| = I built from a Gauss-Legendre grid in
cos(theta) and a uniform grid in phi. The resolution is exact (up to
roundoff) because the projector entries are polynomials of degree two_j in
cos(theta) and trigonometric degree two_j in phi. The entropy integrand
h ln h is not polynomial, so make_grid's default grid is finer than the
resolution minimum; the floor below keeps the coherent-state entropy
accurate to better than 1e-6 for all j (smoothness improves quickly with j,
small j is the worst case). `grids=None` means the resolution-exact base
grids, and only the inequality checks default to it: every inequality among
Wehrl-type entropies holds exactly on them, only absolute values converge less.
The convexity check takes its worst mixture from the shared `checks.least_convex_mixture`.

Husimi values are a real bilinear form. With the orthonormal Hermitian
basis {E_mu} of d x d matrices (the diagonal units |b><b|, then
(|b><c| + |c><b|)/sqrt2 and i(|c><b| - |b><c|)/sqrt2 for b < c),
<u x v|rho|u x v> = sum_{mu,nu} f_mu(u) R_{mu,nu} f_nu(v), where
f_mu(u) = <u|E_mu|u> and R_{mu,nu} = Tr rho (E_mu x E_nu) are real. At node
(theta_i, phi_p), u_k = a_k(theta_i) e^{-ik phi_p}, so f_mu = G[i,mu] tau_s(phi_p) with
G = a_b^2 or +-sqrt2 a_b a_c and tau_s = 1, cos m phi or sin m phi (m = c - b). Two
spins take W[i,s,j,t] = sum_{mu in s, nu in t} G1[i,mu] R[mu,nu] G2[j,nu] group by
group, then h[i,p,j,q] = sum_{s,t} tau1[p,s] W[i,s,j,t] tau2[q,t] one theta1 row at
a time: about d/4 times fewer flops than F1 R F2^T on the N x d^2 features. One factor:
h_i = sum_b (v_i^* rho)_b v_ib is one matrix product and a row sum.
"""

from __future__ import annotations

import math

import numpy as np

from .checks import least_convex_mixture
from .linalg import CLAMP_REL, DensityMatrix, clamp_threshold, partial_trace, require_factors
from .entropy import mutual_information, von_neumann
from .randgen import Seed, random_pure_state, rng_for
from .report import InequalityReport, make_report

# Minimum node counts of the default grids; below ~48 theta nodes the
# log-singular h ln h integrand of near-pure states loses the 1e-6 target.
THETA_FLOOR = 48
PHI_FLOOR = 64

_SQRT2 = math.sqrt(2.0)
MAX_TWO_J = 1029


def require_two_j(two_j: int) -> None:
    """ValueError unless 0 <= two_j <= MAX_TWO_J: float(C(2j, k)) overflows from 2j = 1030 on."""
    if not 0 <= two_j <= MAX_TWO_J:
        raise ValueError(f"two_j must be >= 0 and <= {MAX_TWO_J}, got {two_j}")


class BlochGrid:
    """Quadrature nodes, weights and coherent vectors on one spin factor. Node i * n_phi + p
    sits at (thetas[i], phis[p]); its feature mu in groups[s] is theta_factors[i, mu] *
    phi_factors[p, s]. `pairs` holds (b, c), b <= c, of the leading diagonal and cos elements."""

    __slots__ = ("two_j", "thetas", "phis", "weights", "states", "theta_factors", "phi_factors", "pairs", "groups")

    def __init__(self, two_j: int, thetas: np.ndarray, phis: np.ndarray, w_theta: np.ndarray):
        # Basis order is m = j, ..., -j, and the amplitude on k = j - m is a_k(theta) = sqrt(C(2j,k))
        # cos^(2j-k)(theta/2) sin^k(theta/2): the north pole is the highest weight. float(C(2j,k))
        # is correctly rounded up to 2j = 1029; as int64 the binomials overflow from 2j = 68 on.
        d, k = two_j + 1, np.arange(two_j + 1)
        half = thetas[:, None] / 2
        binom = np.sqrt([float(math.comb(two_j, kk)) for kk in range(d)])
        amps = binom * np.cos(half) ** (two_j - k) * np.sin(half) ** k
        m_phi = np.outer(phis, k)
        self.two_j, self.thetas, self.phis = two_j, thetas, phis
        self.weights = np.repeat(w_theta, len(phis))
        self.states = (amps[:, None, :] * np.exp(-1j * m_phi)).reshape(-1, d)  # row i * n_phi + p
        for a in (thetas, phis, self.weights, self.states):
            a.flags.writeable = False
        # Pair group m = c - b holds the d - m pairs (b, b + m) from e[m] on; each sin
        # element is p = d(d - 1)/2 behind its cos twin.
        self.pairs = np.array([(b, b + m) for m in range(d) for b in range(d - m)]).T
        pair_f = np.concatenate([amps[:, : d - m] * amps[:, m:] for m in range(d)], axis=1)
        pair_f[:, d:] *= _SQRT2
        self.theta_factors = np.concatenate([pair_f, -pair_f[:, d:]], axis=1)
        self.phi_factors = np.concatenate([np.cos(m_phi), np.sin(m_phi[:, 1:])], axis=1)
        e, p = [m * d - m * (m - 1) // 2 for m in range(d + 1)], d * (d - 1) // 2
        cos = [slice(e[m], e[m + 1]) for m in range(d)]
        self.groups = cos + [slice(g.start + p, g.stop + p) for g in cos[1:]]

    @property
    def nodes(self) -> np.ndarray:  # (theta, phi) per node
        return np.column_stack([np.repeat(self.thetas, len(self.phis)), np.tile(self.phis, len(self.thetas))])

    def __len__(self) -> int:
        return len(self.weights)

    def __repr__(self) -> str:
        return f"BlochGrid(two_j={self.two_j}, nodes={len(self)})"


def base_grid_sizes(two_j: int) -> tuple[int, int]:
    """Smallest sizes used by the inequality checks (resolution-exact)."""
    return two_j + 4, 2 * two_j + 4


def make_grid(two_j: int, n_theta: int | None = None, n_phi: int | None = None) -> BlochGrid:
    """Product quadrature grid realizing the resolution of identity.

    Defaults apply an accuracy floor on top of the resolution-exact base
    sizes; pass explicit counts for leaner grids (n_theta >= two_j + 1
    Gauss-Legendre nodes, n_phi >= 2 two_j + 2 uniform nodes keep the
    resolution exact). two_j is twice the spin, so j may be half-integer.
    """
    require_two_j(two_j)
    base_t, base_p = base_grid_sizes(two_j)
    if n_theta is None:
        n_theta = max(base_t, THETA_FLOOR)
    if n_phi is None:
        n_phi = max(base_p, PHI_FLOOR)
    if n_theta < two_j + 1:
        raise ValueError(f"n_theta={n_theta} below resolution minimum {two_j + 1}")
    if n_phi < 2 * two_j + 2:
        raise ValueError(f"n_phi={n_phi} below resolution minimum {2 * two_j + 2}")
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    # Node weight = (2j+1)/(4pi) * (GL weight in cos theta) * (2pi / n_phi).
    return BlochGrid(two_j, np.arccos(x), 2 * np.pi * np.arange(n_phi) / n_phi,
                     (two_j + 1) / (2.0 * n_phi) * wx)


def resolution_residual(grid: BlochGrid) -> float:
    """Max-abs entry of sum_i w_i |Omega_i><Omega_i| - I."""
    acc = (grid.states.conj().T * grid.weights) @ grid.states
    return float(np.abs(acc - np.eye(grid.two_j + 1)).max())


def _grids_for(rho: DensityMatrix, grids) -> tuple[BlochGrid, ...]:
    """`grids`, one per factor, as a tuple checked against rho's factors.

    None builds one grid of the resolution-exact base sizes per factor.
    """
    if grids is None:
        return tuple(make_grid(d - 1, *base_grid_sizes(d - 1)) for d in rho.dims)
    grids = tuple(grids)
    if len(grids) != len(rho.dims):
        raise ValueError(f"{len(grids)} grids for {len(rho.dims)} factors")
    for g, d in zip(grids, rho.dims):
        if g.two_j + 1 != d:
            raise ValueError(f"grid dim {g.two_j + 1} does not match factor dim {d}")
    return grids


def _basis_coords(rho: DensityMatrix, g1: BlochGrid, g2: BlochGrid) -> np.ndarray:
    """R[mu, nu] = Tr rho (E_mu x E_nu) in the grids' trig-grouped bases. As
    E_mu = alpha |b><c| + h.c. (alpha = 1/2, 1/sqrt2 or -i/sqrt2), R is 2|alpha alpha'|
    times Re or Im of rho[(c,c'),(b,b')] +- rho[(c,b'),(b,c')]."""
    (b1, c1), (b2, c2) = g1.pairs[:, :, None], g2.pairs
    (d1, d2), t = rho.dims, rho.mat.reshape(rho.dims * 2)
    x, y = t[c1, c2, b1, b2], t[c1, b2, b1, c2]
    plus, minus = x + y, x - y
    r = np.block([[plus.real, minus.imag[:, d2:]], [plus.imag[d1:], -minus.real[d1:, d2:]]])
    r[:d1, :d2] /= 2  # |alpha| = 1/2 on diagonal elements, 1/sqrt2 on the others
    r[:d1, d2:] /= _SQRT2
    r[d1:, :d2] /= _SQRT2
    return r


def husimi(rho: DensityMatrix, grids) -> np.ndarray:
    """Diagonal coherent-state expectations h = <Omega|rho|Omega> per node.

    `grids` holds one grid per factor. One factor: h = rowsum((V^* rho) * V)
    over the coherent vectors V. Two factors: the module docstring's grouped
    products, flattened from the product grid in C order (first factor outer).
    """
    grids = _grids_for(rho, grids)
    if len(grids) == 1:
        v = grids[0].states
        return ((v.conj() @ rho.mat) * v).sum(axis=1).real
    if len(grids) == 2:
        g1, g2 = grids
        r, n1, s1, s2 = _basis_coords(rho, g1, g2), len(g1.theta_factors), len(g1.groups), len(g2.groups)
        # x[i, s, nu] sums over mu in group s, then w[i, t, s, j] over nu in group t. w[i]
        # fills the head of h[i] (2j + 1 < n_phi), which is written after w[i] is read.
        x = np.stack([g1.theta_factors[:, s] @ r[s] for s in g1.groups], axis=1)
        h = np.empty((n1, len(g1.phi_factors), len(g2)))
        w = h.reshape(n1, -1)[:, : s2 * s1 * len(g2.theta_factors)].reshape(n1, s2, s1, -1)
        for k, t in enumerate(g2.groups):
            np.matmul(x[:, :, t], g2.theta_factors[:, t].T, out=w[:, k])
        for i in range(n1):  # row i's (s, j, q) intermediate stays in cache
            y = w[i].reshape(s2, -1).T @ g2.phi_factors.T
            np.matmul(g1.phi_factors, y.reshape(s1, -1), out=h[i])
        return h.ravel()
    raise ValueError("husimi supports one or two spin factors")


def joint_weights(grids) -> np.ndarray:
    w = grids[0].weights
    for g in grids[1:]:
        w = np.outer(w, g.weights).ravel()
    return w


def husimi_field(rho: DensityMatrix, grids) -> tuple[np.ndarray, np.ndarray]:
    """Husimi values and joint node weights on one grid per factor, checked
    to be non-negative and to carry rho's trace as mass."""
    grids = _grids_for(rho, grids)
    values, weights = husimi(rho, grids), joint_weights(grids)
    if values.min() < -CLAMP_REL:
        raise RuntimeError(f"Husimi value {values.min():.3e} below -{CLAMP_REL:.0e}")
    mass = float(np.dot(weights, values))
    if abs(mass - rho.trace()) > 1e-10:
        raise RuntimeError(f"Husimi mass {mass!r} disagrees with trace {rho.trace()!r}")
    return values, weights


def wehrl_entropy(rho: DensityMatrix, grids) -> float:
    """Quadrature value of -integral h ln h over the sphere(s), on one grid per factor."""
    grids = _grids_for(rho, grids)
    # Contiguous, not one factor's strided .real, so the contractions below use BLAS.
    h = np.ascontiguousarray(husimi(rho, grids)).reshape([len(g) for g in grids])
    floor, step = clamp_threshold(h), max(1, 8192 * len(h) // h.size)  # rows per ~64 KB block
    for lo in range(0, len(h), step):  # h ln h in place; nodes below the floor give exactly 0
        block = h[lo : lo + step]
        block *= np.log(block, out=np.zeros_like(block), where=block >= floor)
    for g in reversed(grids):
        h = h @ g.weights
    return float(-h)


def coherent_wehrl_value(two_j: int) -> float:
    """Exact Wehrl entropy of any coherent state: 2j/(2j+1)."""
    return two_j / (two_j + 1)


def check_wehrl_dominates(rho: DensityMatrix, grids=None) -> InequalityReport:
    """S[rho] <= S_W[rho] on one grid per factor; holds for any resolution grids and state."""
    grids = _grids_for(rho, grids)
    s = von_neumann(rho)
    sw = wehrl_entropy(rho, grids)
    return make_report("wehrl_dominates", s, sw, dims=rho.dims,
                       grid_nodes=[len(g) for g in grids])


def check_wehrl_mutual_info(rho12: DensityMatrix, grids=None) -> InequalityReport:
    """Wehrl mutual information, on one grid per factor, is at most the quantum one."""
    require_factors(rho12, 2)
    grids = _grids_for(rho12, grids)
    sw12 = wehrl_entropy(rho12, grids)
    sw1 = wehrl_entropy(partial_trace(rho12, {1}), (grids[0],))
    sw2 = wehrl_entropy(partial_trace(rho12, {2}), (grids[1],))
    wehrl_mi = sw1 + sw2 - sw12
    quantum_mi = mutual_information(rho12)
    return make_report("wehrl_mutual_info", wehrl_mi, quantum_mi,
                       dims=rho12.dims, grid_nodes=[len(g) for g in grids])


def check_wehrl_convexity(a: DensityMatrix, b: DensityMatrix, grids=None) -> InequalityReport:
    """Convexity of rho -> S_W[rho] - S[rho] on [a, b], by `checks.least_convex_mixture`,
    on one grid per factor."""
    grids = _grids_for(a, grids)
    lam, gmix, combo, _, _ = least_convex_mixture(
        lambda rho: wehrl_entropy(rho, grids) - von_neumann(rho), a, b)
    return make_report("wehrl_convexity", gmix, combo, dims=a.dims,
                       lambda_at_min=lam, grid_nodes=[len(g) for g in grids])


def wehrl_min_scan(two_j: int, trials: int, seed: Seed) -> dict:
    """Wehrl entropies of random pure states versus the coherent value.

    Coherent states minimize the spin Wehrl entropy, S_W >= 2j/(2j+1)
    (Lieb and Solovej, Acta Math. 212 (2014), arXiv:1208.3632). The scan
    checks that theorem numerically on make_grid's default grid;
    `min_is_at_least_coherent` allows 1e-6 below the coherent value for
    quadrature error. Besides "rows" and "summary", the result carries that
    "grid" and the first state of least S_W as "best".
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    grid = make_grid(two_j)
    rows = []
    min_sw, best = math.inf, None
    for t in range(trials):
        psi = random_pure_state(two_j + 1, rng_for(seed, (t,)))
        rho = DensityMatrix(np.outer(psi, psi.conj()), (two_j + 1,))
        sw = wehrl_entropy(rho, (grid,))
        s = von_neumann(rho)
        rows.append({"trial": t, "seed": int(seed), "two_j": two_j,
                     "S_W": sw, "S": s, "diff": sw - s})
        if sw < min_sw:
            min_sw, best = sw, rho
    coherent = coherent_wehrl_value(two_j)
    return {
        "rows": rows,
        "grid": grid,
        "best": best,
        "summary": {
            "two_j": two_j,
            "trials": trials,
            "seed": int(seed),
            "min_S_W": min_sw,
            "coherent_value": coherent,
            "margin": min_sw - coherent,
            "min_is_at_least_coherent": bool(min_sw >= coherent - 1e-6),
            "resolution_residual": resolution_residual(grid),
        },
    }
