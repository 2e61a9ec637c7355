"""Shared fixtures, independent oracles and per-member reference formulas.

The Gram-Schmidt oracle below rebuilds monic orthogonal polynomials by
classical projection against the moment inner product, so recurrence-based
results can be checked against something that never touches the package's
own update formulas.
"""

import numpy as np
import pytest

from szego_quad import SchurSequence, build_opuc, make_pop, make_rule, moments_from_schur
from szego_quad.circle import fold_angle
from szego_quad.opuc import szego_values
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
