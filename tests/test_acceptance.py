"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import json
import math
import time

import numpy as np
import pytest

from qssa.checks import (
    DEFAULT_LAMBDAS,
    check_classical_mutual_info,
    check_concave_map,
    check_convexity_cl_minus_q,
    check_cpt_monotonicity,
    check_cq_chain,
    check_cqq,
    check_holevo,
    check_improved_subadd,
    check_sandwich,
    check_stronger_ssa,
    counterexample_two_sided,
)
from qssa.cli import main
from qssa.entropy import shannon, von_neumann
from qssa.linalg import DensityMatrix, kron, partial_trace
from qssa.measurement import povm_joint_distribution, povm_to_kraus
from qssa.randgen import (
    complex_gaussian,
    product_basis_kraus,
    random_cq_state,
    random_density,
    random_hermitian,
    random_kraus,
    random_positive,
    random_povm,
    rng_for,
)
from qssa.report import judge
from qssa.wehrl import (
    check_wehrl_convexity,
    check_wehrl_dominates,
    check_wehrl_mutual_info,
    coherent_wehrl_value,
    make_grid,
    resolution_residual,
    wehrl_entropy,
)

from test_linalg import kron_oracle, ptrace_oracle
from test_entropy import classical_entropy_oracle
from test_wehrl import bloch_state

SEED = 42


def report(n, name, detail=""):
    print(f"ACCEPTANCE {n} {name}: PASS {detail}".rstrip())


def test_criterion_1_stronger_ssa_500():
    dims_pool = ((2, 2, 2), (2, 3, 2), (3, 2, 4))
    counts = (1, 2, 4)
    start = time.monotonic()
    worst = math.inf
    for i in range(500):
        dims = dims_pool[i % 3]
        count = counts[(i // 3) % 3]
        rho = random_density(dims, int(np.prod(dims)), SEED, (1001, i, 0))
        k = random_kraus(dims[0] * dims[1], count, SEED, (1001, i, 1), acts_on=(1, 2))
        r = check_stronger_ssa(rho, k)
        assert r.slack >= -1e-8, f"instance {i}: slack {r.slack}"
        worst = min(worst, r.slack)
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"took {elapsed:.1f}s"
    report(1, "stronger SSA x500", f"(min slack {worst:.3e}, {elapsed:.1f}s)")


def test_criterion_2_sandwich_300():
    counts = (2, 3, 4)
    strict = 0
    for i in range(300):
        rho = random_density((2, 2, 2), 8, SEED, (1002, i, 0))
        k = random_kraus(2, counts[i % 3], SEED, (1002, i, 1), acts_on=(1,))
        left, right = check_sandwich(rho, k)
        assert left.slack >= -1e-8, f"instance {i}: left {left.slack}"
        assert right.slack >= -1e-8, f"instance {i}: right {right.slack}"
        if left.slack > 1e-6 and right.slack > 1e-6:
            strict += 1
    frac = strict / 300
    report(2, "sandwich x300", f"(strictly between in {frac:.0%}; exploratory target 80%)")


def test_criterion_3_classical_equality_100():
    dims_pool = ((2, 2, 2), (2, 3, 2))
    worst = 0.0
    for i in range(100):
        dims = dims_pool[i % 2]
        rho = random_cq_state(dims, SEED, (1003, i))
        k = product_basis_kraus(dims[0], dims[1])
        r = check_stronger_ssa(rho, k)
        assert abs(r.slack) <= 1e-8, f"instance {i}: slack {r.slack}"
        worst = max(worst, abs(r.slack))
    report(3, "classical equality x100", f"(max |slack| {worst:.3e})")


def test_criterion_4_counterexample():
    for d in range(2, 7):
        r = counterexample_two_sided(d)
        assert abs((r.lhs - r.rhs) - math.log(d)) <= 1e-10, f"d={d}"
    report(4, "two-sided counterexample d=2..6")


def test_criterion_5_concavity_200():
    assert DEFAULT_LAMBDAS == (0.25, 0.5, 0.75)
    dims_cycle = (2, 3, 4)
    m_cycle = (1, 2, 3)
    worst = math.inf
    for i in range(200):
        dim = dims_cycle[i % 3]
        m = m_cycle[(i // 3) % 3]
        l_op = random_hermitian(dim, SEED, (1005, i, 0))
        k = random_kraus(dim, m, SEED, (1005, i, 1), acts_on=(1,))
        a = [random_positive(dim, SEED, (1005, i, 2, j)) for j in range(m)]
        b = [random_positive(dim, SEED, (1005, i, 3, j)) for j in range(m)]
        r = check_concave_map(l_op, k.ops, a, b)
        assert r.slack >= -1e-9, f"instance {i}: slack {r.slack}"
        worst = min(worst, r.slack)
    for dim in (2, 3, 4):
        a = [random_positive(dim, SEED, (1005, 900 + dim, 0))]
        b = [random_positive(dim, SEED, (1005, 900 + dim, 1))]
        r = check_concave_map(np.zeros((dim, dim)), [np.eye(dim)], a, b)
        assert abs(r.slack) <= 1e-10, f"linear case dim={dim}: slack {r.slack}"
    report(5, "trace-exponential concavity x200 + linear case", f"(min slack {worst:.3e})")


def test_criterion_6_cpt_200():
    counts = (2, 3)
    worst_resid = 0.0
    for i in range(200):
        rho = random_density((2, 2, 2), 8, SEED, (1006, i, 0))
        k = random_kraus(4, counts[i % 2], SEED, (1006, i, 1), acts_on=(1, 2))
        r = check_cpt_monotonicity(rho, k)
        assert r.status == "ok", f"instance {i} skipped"
        assert r.slack >= -1e-8, f"instance {i}: slack {r.slack}"
        resid = r.meta["identity_residual"]
        assert resid <= 1e-8, f"instance {i}: identity residual {resid}"
        worst_resid = max(worst_resid, resid)
    report(6, "CPT monotonicity + identity x200", f"(max identity residual {worst_resid:.3e})")


def test_criterion_7_entropy_comparisons_200_each():
    agree_worst = 0.0
    for i in range(200):
        rho12 = random_density((2, 3), 6, SEED, (1007, i, 0))
        p2 = random_povm(2, 2 + i % 3, SEED, (1007, i, 1))
        q3 = random_povm(3, 2 + (i + 1) % 3, SEED, (1007, i, 2))

        left, right = (judge(r, 1e-8) for r in check_improved_subadd(rho12, p2))
        assert left.passed and right.passed, f"improved-subadd {i}"

        r = judge(check_classical_mutual_info(rho12, p2, q3), 1e-8)
        assert r.passed, f"mutual-info {i}"

        first, second = (judge(r, 1e-8) for r in check_cq_chain(rho12, p2, q3))
        assert first.passed and second.passed, f"cq-chain {i}"

        rho123 = random_density((2, 2, 2), 8, SEED, (1007, i, 3))
        pq = random_povm(2, 2 + i % 3, SEED, (1007, i, 4))
        rq = judge(check_cqq(rho123, pq), 1e-8)
        assert rq.passed, f"cqq {i}"
        rs = check_stronger_ssa(rho123, povm_to_kraus(pq))
        agree = max(abs(rq.lhs - rs.lhs), abs(rq.rhs - rs.rhs))
        assert agree <= 1e-10, f"cqq/kraus disagreement {agree} at {i}"
        agree_worst = max(agree_worst, agree)

        b12 = random_density((2, 3), 3, SEED, (1007, i, 5))
        rc = judge(check_convexity_cl_minus_q(rho12, b12, p2), 1e-8)
        assert rc.passed, f"convexity {i}"

        m = 2 + i % 3
        weights = rng_for(SEED, (1007, i, 6)).dirichlet(np.ones(m))
        states = [random_density((4,), 4 if j % 2 == 0 else 1, SEED, (1007, i, 7, j)) for j in range(m)]
        q4 = random_povm(4, 2 + i % 3, SEED, (1007, i, 8))
        rh = judge(check_holevo(weights, states, q4), 1e-8)
        assert rh.passed, f"holevo {i}"
    report(7, "entropy-comparison checks x200 each", f"(max cqq/kraus gap {agree_worst:.3e})")


def test_criterion_8_wehrl_suite():
    for two_j in range(0, 21):
        resid = resolution_residual(make_grid(two_j))
        assert resid <= 1e-12, f"two_j={two_j}: residual {resid}"

    for i in range(100):
        rho = random_density((2, 2), 4 if i % 2 else 1, SEED, (1008, i, 0))
        assert check_wehrl_dominates(rho).slack >= -1e-8, f"bipartite {i}"
    for i in range(100):
        two_j = 1 + i % 5
        rho = random_density((two_j + 1,), two_j + 1, SEED, (1008, i, 1))
        assert check_wehrl_dominates(rho).slack >= -1e-8, f"single {i}"

    rng = rng_for(SEED, (1008, 999))
    for two_j in range(1, 11):
        theta = float(np.arccos(rng.uniform(-1, 1)))
        phi = float(rng.uniform(0, 2 * math.pi))
        v = bloch_state(two_j, theta, phi)
        rho = DensityMatrix(np.outer(v, v.conj()), (two_j + 1,))
        err = abs(wehrl_entropy(rho, (make_grid(two_j),)) - coherent_wehrl_value(two_j))
        assert err <= 1e-6, f"two_j={two_j}: coherent error {err}"

    for two_j in (0, 1, 3, 6):
        d = two_j + 1
        rho = DensityMatrix(np.eye(d) / d, (d,))
        gap = wehrl_entropy(rho, (make_grid(two_j),)) - von_neumann(rho)
        assert abs(gap) <= 1e-8, f"two_j={two_j}: mixed-state gap {gap}"

    for i in range(100):
        rho = random_density((2, 2), 4, SEED, (1008, i, 2))
        assert check_wehrl_mutual_info(rho).passed, f"wehrl MI {i}"
    for i in range(100):
        a = random_density((3,), 3, SEED, (1008, i, 3))
        b = random_density((3,), 2, SEED, (1008, i, 4))
        assert check_wehrl_convexity(a, b).passed, f"wehrl convexity {i}"
    report(8, "Wehrl suite (resolution, bound, coherent value, MI, convexity)")


def test_criterion_9_oracle_equivalence_50():
    for i in range(50):
        rng = rng_for(SEED, (1009, i))
        a = complex_gaussian(rng, (2, 3))
        b = complex_gaussian(rng, (3, 2))
        assert np.abs(kron(a, b) - kron_oracle(a, b)).max() <= 1e-12

        rho = random_density((2, 3, 2), 12, SEED, (1009, i, 0))
        keep = ({1}, {2}, {3}, {1, 3}, {2, 3})[i % 5]
        got = partial_trace(rho, keep).mat
        want = ptrace_oracle(rho.mat, (2, 3, 2), keep)
        assert np.abs(got - want).max() <= 1e-12

        rho12 = random_density((2, 3), 6, SEED, (1009, i, 1))
        p = random_povm(2, 2 + i % 2, SEED, (1009, i, 2))
        q = random_povm(3, 2 + i % 3, SEED, (1009, i, 3))
        got_s = shannon(povm_joint_distribution(rho12, p, q).ravel())
        want_s = classical_entropy_oracle(rho12, p, q)
        assert abs(got_s - want_s) <= 1e-12
    report(9, "brute-force oracle equivalence x50")


def test_criterion_10_determinism(tmp_path, capsys):
    a = tmp_path / "a.ndjson"
    b = tmp_path / "b.ndjson"
    args = ["check", "--suite", "all", "--seed", "42"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    bytes_a = a.read_bytes()
    assert bytes_a == b.read_bytes()
    n_lines = bytes_a.decode().count("\n")
    report(10, "byte-identical replay of `check --suite all --seed 42`", f"({n_lines} reports)")
