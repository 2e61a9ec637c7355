"""Dense polynomial and Laurent helpers."""

import numpy as np
import pytest

from szego_quad import ComplexPolynomial


def test_trim_and_degree():
    p = ComplexPolynomial([1.0, 2.0, 0.0, 0.0])
    assert p.degree == 1
    assert p.coeffs[-1] == 2.0
    assert ComplexPolynomial([0.0]).degree == 0


def test_call_matches_horner():
    p = ComplexPolynomial([-1 / 3, 1 / 3, 1.0])
    z = 0.3 - 0.7j
    assert abs(p(z) - (-1 / 3 + z / 3 + z * z)) < 1e-15


def test_at_angle():
    p = ComplexPolynomial([0.0, 1.0])
    theta = np.array([0.0, np.pi / 2, np.pi])
    vals = p.at_angle(theta)
    assert np.allclose(vals, np.exp(1j * theta))


def test_conj_reverse_examples():
    # coeffs [1/2, 1] -> [1, 1/2]
    p = ComplexPolynomial([0.5, 1.0])
    assert np.allclose(p.conj_reverse(1).coeffs, [1.0, 0.5])
    # z^n -> 1
    zn = ComplexPolynomial.monomial(4)
    assert np.allclose(zn.conj_reverse(4).coeffs, [1.0])
    # constant i with declared degree 2 -> -i z^2
    c = ComplexPolynomial([1j])
    assert np.allclose(c.conj_reverse(2).coeffs, [0.0, 0.0, -1j])


def test_conj_reverse_involution(rng):
    coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    p = ComplexPolynomial(coeffs)
    back = p.conj_reverse(7).conj_reverse(7)
    assert np.allclose(back.padded(8), p.padded(8))


def test_conj_reverse_requires_covering_degree():
    p = ComplexPolynomial([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        p.conj_reverse(1)


def test_arithmetic():
    p = ComplexPolynomial([1.0, 1.0])
    q = ComplexPolynomial([-1.0, 1.0])
    assert np.allclose((p * q).coeffs, [-1.0, 0.0, 1.0])
    assert np.allclose((p + q).coeffs, [0.0, 2.0])
    assert np.allclose((p - q).coeffs, [2.0])
    assert np.allclose((2.0 * p).coeffs, [2.0, 2.0])
    assert np.allclose((p * 2.0).coeffs, [2.0, 2.0])


def test_monomial():
    m = ComplexPolynomial.monomial(3, 2.0)
    assert np.allclose(m.coeffs, [0, 0, 0, 2.0])


def test_deflate_exact():
    # (z - 1)(z - i)(z + 2)
    p = ComplexPolynomial([-1.0, 1.0]) * ComplexPolynomial([-1j, 1.0]) * ComplexPolynomial([2.0, 1.0])
    q, r = p.deflate(1j)
    assert abs(r) < 1e-14
    # quotient keeps the remaining roots
    assert abs(q(1.0)) < 1e-14
    assert abs(q(-2.0)) < 1e-14


def test_deflate_remainder():
    p = ComplexPolynomial([1.0, 0.0, 1.0])  # z^2 + 1
    q, r = p.deflate(1.0)
    assert abs(r - 2.0) < 1e-14
    assert np.allclose(q.coeffs, [1.0, 1.0])


def test_derivative():
    p = ComplexPolynomial([5.0, 1.0, 3.0])
    assert np.allclose(p.derivative().coeffs, [1.0, 6.0])
    assert np.allclose(ComplexPolynomial([2.0]).derivative().coeffs, [0.0])


def test_shifted():
    p = ComplexPolynomial([1.0, 2.0])
    assert np.allclose(p.shifted(2).coeffs, [0, 0, 1.0, 2.0])
