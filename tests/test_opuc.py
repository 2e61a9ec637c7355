"""Szego recurrence, second kind polynomials, kernels."""

import numpy as np
import pytest

from szego_quad import (
    ComplexPolynomial,
    ModulusMismatch,
    OffCircle,
    SchurOutOfDisk,
    SchurSequence,
    SofFamilySpec,
    build_opuc,
    christoffel_moments,
    f_sequence,
    kernel_diag,
    make_pop,
    moments_from_schur,
    reverse,
    rule_from_sof,
    second_kind,
    sof_f1,
    sof_members,
    zero_cloud,
)
from szego_quad.opuc import cmv_bands, cmv_matrix, szego_sweep, szego_values

from conftest import gram_schmidt_monic, poly_inner, random_schur


def test_schur_sequence_guard():
    with pytest.raises(SchurOutOfDisk) as exc:
        SchurSequence([0.5, 1.0 - 1e-13])
    assert exc.value.detail["n"] == 2


def test_schur_sequence_rejects_non_vector():
    # a 2 x 3 array was taken as two coefficients and build_opuc then died
    # with a bare TypeError
    with pytest.raises(ValueError, match="one-dimensional"):
        SchurSequence(np.zeros((2, 3)))


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
        phi = table.phi[n].coeffs
        for k in range(n):
            assert abs(poly_inner(phi, ComplexPolynomial.monomial(k).coeffs, m.get)) < 1e-9
        assert abs(poly_inner(phi, phi, m.get) - table.e[n]) < 1e-9
        assert abs(poly_inner(table.phi_star[n].coeffs, [1.0], m.get) - table.e[n]) < 1e-9


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "call, error",
    [
        (lambda t, v: SchurSequence([0.1, v]), SchurOutOfDisk),
        (lambda t, v: kernel_diag(t, 2, v), OffCircle),
        (lambda t, v: kernel_diag(t, 2, np.array([1.0, v])), OffCircle),
        (lambda t, v: sof_f1(t, 3, v), OffCircle),
        (lambda t, v: make_pop(t, 3, v, 1.0), ModulusMismatch),
        (lambda t, v: make_pop(t, 3, 1.0, v), ModulusMismatch),
        (lambda t, v: christoffel_moments(moments_from_schur(t, 4), v), OffCircle),
        (lambda t, v: f_sequence(t, v, 3), OffCircle),
    ],
)
def test_range_guards_reject_non_finite(call, error, bad):
    # a guard written as `x > tol` is false for NaN and lets it through
    t = build_opuc(SchurSequence([0.3, -0.2, 0.1, 0.05]), 4)
    with pytest.raises(error):
        call(t, bad)


def test_kernel_degree_range():
    # a negative degree used to slice the recurrence silently: kernel_diag
    # at -1 returned 4.87 here
    t = build_opuc(random_schur(np.random.default_rng(3), 6), 6)
    with pytest.raises(ValueError, match=r"n = -1 outside 0\.\.6"):
        kernel_diag(t, -1, 1.0)
    with pytest.raises(ValueError, match=r"n = 7 outside 0\.\.6"):
        kernel_diag(t, 7, 1.0)
    with pytest.raises(ValueError, match=r"n = 7 outside 0\.\.6"):
        kernel_diag(t, np.array([2, 7, -1]), np.ones(3))
    with pytest.raises(ValueError, match="degrees for points"):
        kernel_diag(t, np.array([2, 3]), np.ones(3))
    for degree in (2.5, np.array([1.5]), 2.0):
        with pytest.raises(TypeError, match="must be integers"):
            kernel_diag(t, degree, np.ones(1))


def test_prefix_table_refuses_degrees_beyond_it(rng):
    # the range checks read the prefix, not the 20 coefficients behind it
    schur = random_schur(rng, 20)
    full, t = build_opuc(schur, 20), build_opuc(schur, 10)
    w = np.exp(0.4j)
    member = f_sequence(full, w, 12)[11]
    calls = [
        lambda: make_pop(t, 11, 1.0, 1.0),
        lambda: sof_members(t, SofFamilySpec.f1(w), [11]),
        lambda: f_sequence(t, w, 11),
        lambda: zero_cloud(t, SofFamilySpec.f1(w), [11]),
        lambda: kernel_diag(t, 11, w),
        lambda: rule_from_sof(t, moments_from_schur(schur, 12), member),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"11 outside [01]\.\.10|order 10 below .* 11"):
            call()


@pytest.mark.parametrize(
    "call",
    [
        lambda t, n: make_pop(t, n, 1.0, 1.0),
        lambda t, n: build_opuc(t, n),
        lambda t, n: sof_members(t, SofFamilySpec.f1(1.0), [n]),
        lambda t, n: f_sequence(t, 1.0, n),
    ],
)
def test_non_integer_degrees_are_rejected(call):
    # int() truncated 2.5 to degree 2; numpy integers still pass
    t = build_opuc(random_schur(np.random.default_rng(4), 4), 4)
    call(t, np.int64(2))
    with pytest.raises(TypeError):
        call(t, 2.5)


def test_kernel_diag_per_point_degrees_match_single_degree_sweeps(rng):
    # one sweep for points of mixed degrees; each value is bit-identical to
    # the last step of a recurrence sweep to its own degree
    t = build_opuc(random_schur(rng, 20, cap=0.9), 20)
    z = np.exp(2j * np.pi * rng.random((3, 7)))
    n = rng.integers(0, 21, z.shape)
    got = kernel_diag(t, n, z)
    assert got.shape == z.shape
    want = np.array([szego_values(t, int(k), [p])[2][0] for k, p in zip(n.flat, z.flat)])
    assert got.ravel().tobytes() == want.tobytes()


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
        p, s, acc = szego_values(t, n, z)
        root_e = np.sqrt(t.e[n])
        assert np.allclose(p, t.phi[n](z) / root_e, rtol=1e-12, atol=0)
        assert np.allclose(s, t.phi_star[n](z) / root_e, rtol=1e-12, atol=0)
        kernel = sum(np.abs(t.phi[k](z)) ** 2 / t.e[k] for k in range(n + 1))
        assert np.allclose(acc, kernel, rtol=1e-12, atol=0)


def direct_szego_values(schur, n, z):
    """The recurrence as one plain loop to degree n, without the sweep, dividing by
    the sequence's own rho."""
    z = np.asarray(z, dtype=complex)
    p = s = np.ones(z.shape, dtype=complex)
    acc = np.ones(z.shape, dtype=float)
    for k in range(n):
        a, rho = schur.coefficients[k], schur.rho[k]
        zp = z * p
        p, s = (zp + a * s) / rho, (s + np.conj(a) * zp) / rho
        acc += np.abs(p) ** 2
    return p, s, acc


def test_szego_values_bit_identical_to_the_plain_loop(rng):
    schur = random_schur(rng, 24, cap=0.9)
    a = schur.coefficients
    # the scalar modulus rounds differently from the vectorised one for some of
    # these coefficients, so a sweep that formed its own rho would not match
    assert any(np.sqrt(1.0 - abs(x) ** 2) != r for x, r in zip(a, schur.rho))
    for z in (np.exp(0.7j), np.exp(2j * np.pi * rng.random(9)), 0.8 * np.exp(1j * np.arange(4))):
        steps = list(szego_sweep(schur, 24, z))
        assert len(steps) == 25
        for n, step in enumerate(steps):
            want = direct_szego_values(schur, n, z)
            for got in (szego_values(schur, n, z), step):
                assert all(g.shape == np.shape(z) for g in got)
                assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_schur_sequence_forms_rho_and_e_once(rng):
    schur = random_schur(rng, 64, cap=0.9)
    a = schur.coefficients
    # a prefix forms its own rho and e: rho is elementwise and cumprod sequential
    for n in (0, 1, 30, 64):
        t = build_opuc(schur, n)
        assert t.coefficients.tobytes() == a[:n].tobytes()
        assert t.rho.tobytes() == schur.rho[:n].tobytes()
        assert t.e.tobytes() == schur.e[: n + 1].tobytes()
    # the second kind runs on -a with the same rho and e_n
    flipped = SchurSequence(-a)
    assert flipped.rho.tobytes() == schur.rho.tobytes()
    assert flipped.e.tobytes() == schur.e.tobytes()
    for arr in (a, schur.rho, schur.e):
        assert not arr.flags.writeable


def test_cmv_matrix_unitary_with_characteristic_polynomial(rng):
    for n in range(1, 13):
        t = build_opuc(random_schur(rng, 12), 12)
        lam = np.exp(2j * np.pi * rng.random())
        c = cmv_matrix(t, n, lam)
        assert np.max(np.abs(c.conj().T @ c - np.eye(n))) < 1e-13
        target = t.phi[n - 1].shifted(1) + lam * t.phi_star[n - 1]
        assert np.max(np.abs(np.poly(c)[::-1] - target.padded(n + 1))) < 1e-12


def band_diagonals(A):
    """The diagonals A_{k+d,k}, d = -2..2 (d > 0 below the main diagonal)."""
    return {d: np.diagonal(A, -d).copy() for d in range(-2, 3)}


@pytest.mark.parametrize("lam", [1.0, -1.0, np.exp(0.7j)])
@pytest.mark.parametrize("n", [*range(1, 70), 100, 129, 256])
def test_cmv_hermitian_band_matches_the_matrix_product(rng, n, lam):
    # odd and even n close the last block in L and in M.  The matrix product
    # rounds its diagonal with FMA, so the bands and the Hermitian band eigh
    # reads are held to 2 ulp of the moduli summed into each entry, not to
    # their bits; off the five bands the matrix is zero.  Each side of C X
    # rounds up to five complex products and their sum, so it is held to
    # 4 ulp of the moduli summed (3.0 at the worst over these inputs)
    schur = random_schur(rng, n, cap=0.9)
    C, bands = cmv_matrix(schur, n, lam), cmv_bands(schur, n, lam)
    absC = np.abs(C)
    even = np.arange(n - 2) % 2 == 0
    above2, below2 = np.where(even, bands.second, 0.0), np.where(even, 0.0, bands.second)
    want, ulp = band_diagonals(C), band_diagonals(2 * np.spacing(absC))
    got = {0: bands.diag, 1: bands.below, -1: bands.above, -2: above2, 2: below2}
    for d in got:
        assert np.all(np.abs(got[d] - want[d]) <= ulp[d]), d
    assert not np.triu(C, 3).any() and not np.tril(C, -3).any()
    # the lower band of C + C^H: the diagonal, below + conj(above), rho_k rho_{k+1}
    H, Hulp = band_diagonals(C + C.conj().T), band_diagonals(2 * np.spacing(absC + absC.T))
    for d, band in ((0, bands.diag + np.conj(bands.diag)),
                    (1, bands.below + np.conj(bands.above)), (2, bands.second)):
        assert np.all(np.abs(band - H[d]) <= Hulp[d]), d
    X = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    bound = 4 * np.spacing(absC @ np.abs(X))
    assert np.all(np.abs(bands @ X - C @ X) <= bound)
    assert np.all(np.abs(bands @ X[:, 0] - C @ X[:, 0]) <= bound[:, 0])
