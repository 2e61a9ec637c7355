"""Shared fixtures, independent oracles and per-member reference formulas.

The Gram-Schmidt oracle below rebuilds monic orthogonal polynomials by
classical projection against the moment inner product, so recurrence-based
results can be checked against something that never touches the package's
own update formulas.  two_sided_reference keeps the first, plainly written
form of the two-sided sweep as the reference for the in-place one.
"""

import numpy as np
import pytest

from szego_quad import SchurSequence, build_opuc, make_pop, make_rule, moments_from_schur
from szego_quad.circle import fold_angle
from szego_quad.opuc import szego_sweep, szego_values
from szego_quad.quadrature import _exactness_residual


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def random_schur(rng, n, cap=0.6):
    """Admissible Schur sequence with moduli bounded away from the circle."""
    mags = cap * rng.random(n)
    phases = 2 * np.pi * rng.random(n)
    return SchurSequence(mags * np.exp(1j * phases))


def fixed_rule_schur(stream, cap, n=256):
    """|a_k| uniform on [0, cap), phases uniform: the draw of stream `stream` of
    the benchmark's fixed rules (bench/workloads.py, magnitudes first, then
    phases)."""
    rng = np.random.default_rng([stream, 99])
    mags = cap * rng.random(n)
    return SchurSequence(mags * np.exp(2j * np.pi * rng.random(n)))


def pop_rule(schur, n):
    """The rule of Phi_n + Phi_n*, as the benchmark's rule ops build it."""
    table = build_opuc(schur, n)
    return make_rule(table, moments_from_schur(schur, n), make_pop(table, n, 1.0, 1.0))


def poly_inner(p, q, cget):
    """<p, q> = sum_jk p_j conj(q_k) c_{j-k} for coefficient vectors."""
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    total = 0.0 + 0.0j
    for j, pj in enumerate(p):
        for k, qk in enumerate(q):
            total += pj * np.conj(qk) * cget(j - k)
    return total


def gram_schmidt_monic(cget, n_max):
    """Monic orthogonal polynomials and norms by classical Gram-Schmidt.

    cget maps an integer k to the moment c_k (negative k allowed).  Returns
    (coefficient vectors, e_n list).  Independent of the package recurrences.
    """
    basis = []
    norms = []
    for d in range(n_max + 1):
        v = np.zeros(d + 1, dtype=complex)
        v[d] = 1.0
        for k in range(d):
            g = poly_inner(v, basis[k], cget) / norms[k]
            v[: k + 1] -= g * basis[k]
        e = poly_inner(v, v, cget).real
        basis.append(v)
        norms.append(e)
    return basis, norms


def lebesgue_cget(k):
    return 1.0 if k == 0 else 0.0


def per_member_rule(table, m, inst, omega0):
    """The rule of one semi-orthogonal member by the per-member formula: its zeros
    (plus the anchor when it carries one fewer) folded into the window and sorted,
    weights 1 / K_{n-1} from the last step of a recurrence sweep to that one
    degree, and the exactness defect stamped on those nodes and weights."""
    n = inst.index
    angles = fold_angle(np.asarray(inst.zeros, dtype=float), omega0)
    if n == len(angles) + 1:
        angles = np.append(angles, fold_angle(inst.anchor_angle, omega0))
    angles = np.sort(angles)
    weights = 1.0 / szego_values(table, n - 1, np.exp(1j * angles))[2]
    return angles, weights, _exactness_residual(m, angles, weights, n)


def assert_rule_bytes(rule, reference):
    """Nodes, weights and stamped exactness residual equal the reference bit for bit."""
    angles, weights, residual = reference
    assert rule.node_angles.tobytes() == angles.tobytes()
    assert rule.weights.tobytes() == weights.tobytes()
    assert np.float64(rule.exactness_residual).tobytes() == np.float64(residual).tobytes()


def two_sided_reference(schur, n, z, lam):
    """(K, d, |phi_s|^2) of opuc._two_sided_sweep, written plainly: the backward
    pass keeps per degree the angle psi_k of phi_k / phi_k* and the tail-sum ratio
    sum_{j>=k} |phi_j|^2 / |phi_k|^2 (16 bytes), and the forward szego_sweep takes
    the degree of least |angle(phi_k / phi_k*) - psi_k|, folded into [-pi, pi)."""
    z = np.asarray(z, dtype=complex)
    psi, tail = np.empty((2, n) + z.shape)
    b = -np.broadcast_to(np.asarray(lam, dtype=complex), z.shape)
    bs, zc = z, np.conj(z)
    tail[n - 1] = 1.0
    for k in range(n - 1, -1, -1):
        if k < n - 1:
            a, rho = schur.coefficients[k], schur.rho[k]
            b, bs = (b - a * bs) * zc, bs - np.conj(a) * b
            scale = np.abs(b)
            b, bs = b / scale, bs / scale
            tail[k] = 1.0 + tail[k + 1] * (rho / scale) ** 2
        psi[k] = np.angle(b * np.conj(bs))
    least = np.full(z.shape, np.inf)
    K = d = mod2 = least
    for k, (p, s, acc) in enumerate(szego_sweep(schur, n - 1, z)):
        dk = np.remainder(np.angle(p * np.conj(s)) - psi[k] + np.pi, 2 * np.pi) - np.pi
        closer = np.abs(dk) < least
        least = np.where(closer, np.abs(dk), least)
        m2 = np.abs(p) ** 2
        K = np.where(closer, acc + m2 * (tail[k] - 1.0), K)
        d, mod2 = np.where(closer, dk, d), np.where(closer, m2, mod2)
    return K, d, mod2
