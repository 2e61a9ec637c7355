"""Szego recurrence, second kind polynomials, kernels."""

import mpmath
import numpy as np
import pytest

from szego_quad import (
    ComplexPolynomial,
    NearDiagonal,
    OffCircle,
    SchurOutOfDisk,
    SchurSequence,
    build_opuc,
    inner_product,
    kernel_diag,
    kernel_eval,
    kernel_polynomial,
    moments_from_schur,
    reverse,
    second_kind,
)
from szego_quad.opuc import cmv_matrix, szego_values
from szego_quad.poly import LaurentPolynomial

from conftest import gram_schmidt_monic, random_schur


def test_schur_sequence_guard():
    with pytest.raises(SchurOutOfDisk) as exc:
        SchurSequence([0.5, 1.0 - 1e-13])
    assert exc.value.detail["n"] == 2


def test_schur_indexing():
    s = SchurSequence([0.5, -1 / 3])
    assert s.a(1) == 0.5
    assert s.a(2) == -1 / 3
    assert s.max_order == 2


def test_build_opuc_lebesgue():
    t = build_opuc(SchurSequence.zeros(3), 3)
    assert np.allclose(t.phi[3].coeffs, [0, 0, 0, 1.0])
    assert t.e[3] == 1.0
    assert np.allclose(t.phi_star[3].coeffs, [1.0])


def test_build_opuc_single_coefficient():
    t = build_opuc(SchurSequence([0.5]), 1)
    assert np.allclose(t.phi[1].coeffs, [0.5, 1.0])
    assert abs(t.e[1] - 0.75) < 1e-15


def test_build_opuc_two_coefficients():
    t = build_opuc(SchurSequence([0.5, -1 / 3]), 2)
    assert np.allclose(t.phi[2].coeffs, [-1 / 3, 1 / 3, 1.0])
    assert abs(t.e[2] - 2 / 3) < 1e-15


def test_build_opuc_against_gram_schmidt(rng):
    s = random_schur(rng, 8)
    table = build_opuc(s, 8)
    m = moments_from_schur(s, 8)
    basis, norms = gram_schmidt_monic(m.get, 8)
    for n in range(9):
        assert np.allclose(table.phi[n].padded(9), np.pad(basis[n], (0, 8 - n)), atol=1e-10)
        assert abs(table.e[n] - norms[n]) < 1e-10


def test_orthogonality_against_moments(rng):
    s = random_schur(rng, 10)
    table = build_opuc(s, 10)
    m = moments_from_schur(s, 10)
    for n in (3, 7, 10):
        phi = LaurentPolynomial(table.phi[n].coeffs, low=0)
        for k in range(n):
            mono = LaurentPolynomial(np.array([1.0 + 0j]), low=k)
            assert abs(inner_product(m, phi, mono)) < 1e-9
        assert abs(inner_product(m, phi, phi) - table.e[n]) < 1e-9
        star = LaurentPolynomial(table.phi_star[n].coeffs, low=0)
        one = LaurentPolynomial(np.array([1.0 + 0j]), low=0)
        assert abs(inner_product(m, star, one) - table.e[n]) < 1e-9


def test_reverse_examples():
    p = ComplexPolynomial([0.5, 1.0])
    assert np.allclose(reverse(p, 1).coeffs, [1.0, 0.5])
    assert np.allclose(reverse(ComplexPolynomial.monomial(5), 5).coeffs, [1.0])
    assert np.allclose(reverse(ComplexPolynomial([1j]), 2).coeffs, [0, 0, -1j])


def test_table_star_is_reverse(rng):
    s = random_schur(rng, 6)
    t = build_opuc(s, 6)
    for n in range(7):
        assert np.allclose(t.phi_star[n].padded(7), reverse(t.phi[n], n).padded(7))


def test_second_kind_lebesgue():
    om = second_kind(SchurSequence.zeros(4), 4)
    for n in range(5):
        assert np.allclose(om[n].padded(5), ComplexPolynomial.monomial(n).padded(5))


def test_second_kind_single():
    om = second_kind(SchurSequence([0.5]), 1)
    assert np.allclose(om[1].coeffs, [-0.5, 1.0])


def companion_residual(schur, n_max):
    table = build_opuc(schur, n_max)
    om = second_kind(schur, n_max)
    worst = 0.0
    for n in range(n_max + 1):
        lhs = om[n].conj_reverse(n) * table.phi[n] + om[n] * table.phi_star[n]
        target = ComplexPolynomial.monomial(n, 2 * table.e[n])
        worst = max(worst, float(np.max(np.abs((lhs - target).padded(2 * n + 1)))))
    return worst


def test_second_kind_identity_coefficients(rng):
    for _ in range(5):
        assert companion_residual(random_schur(rng, 20), 20) < 1e-10


def test_second_kind_identity_at_roots_of_unity(rng):
    # independent check: evaluate both sides at 4n-th roots of unity
    s = random_schur(rng, 9)
    table = build_opuc(s, 9)
    om = second_kind(s, 9)
    n = 9
    z = np.exp(2j * np.pi * np.arange(4 * n) / (4 * n))
    lhs = om[n].conj_reverse(n)(z) * table.phi[n](z) + om[n](z) * table.phi_star[n](z)
    assert np.max(np.abs(lhs - 2 * table.e[n] * z**n)) < 1e-10


def test_kernel_diag_lebesgue():
    t = build_opuc(SchurSequence.zeros(5), 5)
    for n in range(5):
        assert abs(kernel_diag(t, n, np.exp(0.3j)) - (n + 1)) < 1e-12


def test_kernel_diag_order_zero_any_measure(rng):
    t = build_opuc(random_schur(rng, 3), 3)
    assert abs(kernel_diag(t, 0, -1.0) - 1.0) < 1e-15


def test_kernel_diag_example():
    t = build_opuc(SchurSequence([0.5, -1 / 3]), 2)
    assert abs(kernel_diag(t, 1, 1.0) - 4.0) < 1e-12


def test_kernel_diag_off_circle():
    t = build_opuc(SchurSequence.zeros(2), 2)
    with pytest.raises(OffCircle):
        kernel_diag(t, 1, 1.5)


def test_kernel_degree_range():
    # a negative degree used to slice the recurrence silently: kernel_diag
    # at -1 returned 4.87 here and kernel_eval at -2 a number
    t = build_opuc(random_schur(np.random.default_rng(3), 6), 6)
    with pytest.raises(ValueError, match=r"kernel degree -1 outside 0\.\.6"):
        kernel_diag(t, -1, 1.0)
    with pytest.raises(ValueError, match=r"kernel degree -2 outside 0\.\.5"):
        kernel_eval(t, -2, np.exp(0.3j), np.exp(1.3j))
    with pytest.raises(ValueError, match=r"kernel degree 6 outside 0\.\.5"):
        kernel_eval(t, 6, np.exp(0.3j), np.exp(1.3j))


def test_kernel_eval_lebesgue():
    t = build_opuc(SchurSequence.zeros(4), 4)
    z, y = np.exp(0.9j), np.exp(-0.4j)
    assert abs(kernel_eval(t, 2, z, 0.0) - 1.0) < 1e-12
    expected = 1 + z * np.conj(y) + (z * np.conj(y)) ** 2
    assert abs(kernel_eval(t, 2, z, y) - expected) < 1e-12


def test_kernel_eval_matches_sum(rng):
    s = random_schur(rng, 8)
    t = build_opuc(s, 8)
    for _ in range(100):
        a, b = 2 * np.pi * rng.random(2)
        z, y = np.exp(1j * a), np.exp(1j * b)
        if abs(1 - np.conj(y) * z) <= 1e-3:
            continue
        direct = sum(t.phi[k](z) * np.conj(t.phi[k](y)) / t.e[k] for k in range(8))
        cd = kernel_eval(t, 7, z, y)
        assert abs(cd - direct) <= 1e-9 * max(1.0, abs(direct))


def test_kernel_eval_geronimus_matches_mpmath_sum():
    # Christoffel-Darboux on Horner values of the monic table was off by up to
    # 4e17 times the kernel scale here: the monic values at z cancel to 1e-15
    schur = SchurSequence(np.full(41, 0.9))
    t = build_opuc(schur, 41)
    rng = np.random.default_rng(7)
    for a, b in 2 * np.pi * rng.random((20, 2)):
        z, y = np.exp(1j * a), np.exp(1j * b)
        with mpmath.workdps(60):
            zs, ys = mpmath.expj(mpmath.mpf(a)), mpmath.expj(mpmath.mpf(b))
            pz = py = sz = sy = mpmath.mpc(1)
            e = mpmath.mpf(1)
            want = mpmath.mpc(1)
            for x in schur.coefficients[:40]:
                x = mpmath.mpc(complex(x))
                pz, sz = zs * pz + x * sz, sz + mpmath.conj(x) * zs * pz
                py, sy = ys * py + x * sy, sy + mpmath.conj(x) * ys * py
                e *= 1 - abs(x) ** 2
                want += pz * mpmath.conj(py) / e
            want = complex(want)
        scale = np.sqrt(kernel_diag(t, 40, z) * kernel_diag(t, 40, y))
        assert abs(kernel_eval(t, 40, z, y) - want) / scale < 1e-12


def test_kernel_eval_near_diagonal():
    t = build_opuc(SchurSequence.zeros(3), 3)
    z = np.exp(0.5j)
    with pytest.raises(NearDiagonal):
        kernel_eval(t, 2, z, z * (1 + 1e-12))


def test_kernel_polynomial_reproduces(rng):
    # K_n(., y) evaluated at z equals kernel_eval
    s = random_schur(rng, 6)
    t = build_opuc(s, 6)
    y = np.exp(1.1j)
    k = kernel_polynomial(t, 4, y)
    z = np.exp(-0.7j)
    assert abs(k(z) - kernel_eval(t, 4, z, y)) < 1e-10


def test_e_sequence_monotone(rng):
    t = build_opuc(random_schur(rng, 12), 12)
    e = np.array(t.e)
    assert e[0] == 1.0
    assert np.all(np.diff(e) <= 0)
    assert np.all(e > 0)


def test_szego_values_match_lazy_monic_table(rng):
    # points on, inside and outside the circle
    z = rng.uniform(0.5, 1.5, 6) * np.exp(2j * np.pi * rng.random(6))
    z[:3] /= np.abs(z[:3])
    for n in range(13):
        t = build_opuc(random_schur(rng, 12), 12)
        p, s, acc = szego_values(t.schur, n, z)
        root_e = np.sqrt(t.e[n])
        assert np.allclose(p, t.phi[n](z) / root_e, rtol=1e-12, atol=0)
        assert np.allclose(s, t.phi_star[n](z) / root_e, rtol=1e-12, atol=0)
        kernel = sum(np.abs(t.phi[k](z)) ** 2 / t.e[k] for k in range(n + 1))
        assert np.allclose(acc, kernel, rtol=1e-12, atol=0)


def test_cmv_matrix_unitary_with_characteristic_polynomial(rng):
    for n in range(1, 13):
        t = build_opuc(random_schur(rng, 12), 12)
        lam = np.exp(2j * np.pi * rng.random())
        c = cmv_matrix(t.schur, n, lam)
        assert np.max(np.abs(c.conj().T @ c - np.eye(n))) < 1e-13
        target = t.phi[n - 1].shifted(1) + lam * t.phi_star[n - 1]
        assert np.max(np.abs(np.poly(c)[::-1] - target.padded(n + 1))) < 1e-12
