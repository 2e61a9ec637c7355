"""Measure declarations, moments, Schur extraction, Christoffel modification."""

import dataclasses

import numpy as np
import pytest

import szego_quad.measures as meas
from szego_quad import (
    ArcDensity,
    Atomic,
    ComplexPolynomial,
    ConfigError,
    Density,
    IntegrationResolution,
    Lebesgue,
    Mixture,
    MomentRangeExceeded,
    MomentTable,
    NotPositiveDefinite,
    OffCircle,
    RemainderTooLarge,
    SchurSequence,
    build_opuc,
    christoffel_modify,
    christoffel_moments,
    inner_product,
    measure_integral,
    measure_to_dict,
    moments,
    moments_from_schur,
    parse_measure,
    schur_from_measure,
    schur_from_moments,
)
from szego_quad.poly import LaurentPolynomial

from conftest import gram_schmidt_monic, random_schur

ARC = (np.pi / 2, 3 * np.pi / 2)


# ---------------------------------------------------------------------------
# parsing and serialization


def test_parse_round_trips():
    objs = [
        {"variant": "lebesgue"},
        {"variant": "density", "name": "one_minus_cos"},
        {"variant": "density", "name": "bernstein_szego", "param": 0.5, "grid": 2048},
        {"variant": "arc_density", "name": "uniform", "arc": [1.0, 3.0]},
        {"variant": "arc_density", "name": "hann", "arc": [0.0, 2.0], "panels": 64},
        {"variant": "atomic", "atoms": [[0.0, 0.5], [3.14, 0.5]]},
        {
            "variant": "mixture",
            "components": [
                {"weight": 0.7, "measure": {"variant": "lebesgue"}},
                {"weight": 0.3, "measure": {"variant": "atomic", "atoms": [[1.0, 1.0]]}},
            ],
        },
    ]
    for obj in objs:
        assert measure_to_dict(parse_measure(obj)) == obj


def test_parse_complex_param():
    spec = parse_measure(
        {"variant": "density", "name": "bernstein_szego", "param": [0.3, 0.4]}
    )
    assert spec.param == 0.3 + 0.4j
    assert measure_to_dict(spec)["param"] == [0.3, 0.4]


def test_parse_rejects_non_object():
    with pytest.raises(ConfigError):
        parse_measure("lebesgue")


def test_parse_unknown_variant():
    with pytest.raises(ConfigError) as exc:
        parse_measure({"variant": "gaussian"})
    assert exc.value.detail["variant"] == "gaussian"


def test_parse_unknown_density_lists_catalog():
    with pytest.raises(ConfigError) as exc:
        parse_measure({"variant": "density", "name": "one_minus_cosine"})
    assert exc.value.detail["name"] == "one_minus_cosine"
    assert "one_minus_cos" in str(exc.value)
    assert "bernstein_szego" in str(exc.value)


def test_parse_field_diagnostics():
    bad = [
        ({"variant": "density", "name": 7}, "measure.name"),
        ({"variant": "density", "name": "uniform", "param": "x"}, "measure.param"),
        ({"variant": "density", "name": "uniform", "grid": -4}, "measure.grid"),
        ({"variant": "density", "name": "bernstein_szego"}, "measure.param"),
        ({"variant": "density", "name": "bernstein_szego", "param": 1.0}, "measure.param"),
        ({"variant": "arc_density", "name": "uniform", "arc": [2.0, 1.0]}, "measure.arc"),
        ({"variant": "arc_density", "name": "uniform", "arc": [0.0]}, "measure.arc"),
        (
            {"variant": "arc_density", "name": "uniform", "arc": [0.0, 1.0], "panels": 0},
            "measure.panels",
        ),
        ({"variant": "atomic", "atoms": []}, "measure.atoms"),
        ({"variant": "atomic", "atoms": [[0.0]]}, "measure.atoms[0]"),
        ({"variant": "atomic", "atoms": [[0.0, -1.0]]}, "measure.atoms[0]"),
        ({"variant": "atomic", "atoms": [[0.0, 1.0], [2 * np.pi, 1.0]]}, "measure.atoms"),
        ({"variant": "mixture", "components": []}, "measure.components"),
        ({"variant": "mixture", "components": [{"weight": 1.0}]}, "measure.components[0]"),
        (
            {
                "variant": "mixture",
                "components": [{"weight": 0.0, "measure": {"variant": "lebesgue"}}],
            },
            "measure.components[0].weight",
        ),
    ]
    for obj, field in bad:
        with pytest.raises(ConfigError) as exc:
            parse_measure(obj)
        assert field in str(exc.value), obj


# ---------------------------------------------------------------------------
# moments


def test_moments_lebesgue():
    m = moments(Lebesgue(), 6)
    assert m.K == 6
    assert m.get(0) == 1.0
    assert all(m.get(k) == 0.0 for k in range(1, 7))


def test_moments_two_atoms():
    m = moments(Atomic(atoms=((0.0, 0.5), (np.pi, 0.5))), 8)
    expected = [(1 + (-1) ** k) / 2 for k in range(9)]
    assert np.allclose(m.c, expected, atol=1e-14)


def test_moments_atom_weights_normalized():
    # same measure whatever the overall scale of the weights
    a = moments(Atomic(atoms=((0.3, 2.0), (1.7, 6.0))), 5)
    b = moments(Atomic(atoms=((0.3, 0.25), (1.7, 0.75))), 5)
    assert np.allclose(a.c, b.c, atol=1e-15)


def test_moments_one_minus_cos():
    m = moments(Density(name="one_minus_cos"), 5)
    assert abs(m.get(1) - (-0.5)) < 1e-12
    assert all(abs(m.get(k)) < 1e-12 for k in range(2, 6))


def test_moments_bernstein_szego():
    beta = 0.3 + 0.4j
    spec = parse_measure({"variant": "density", "name": "bernstein_szego", "param": [0.3, 0.4]})
    m = moments(spec, 6)
    assert max(abs(m.get(k) - beta**k) for k in range(7)) < 1e-12


def test_moments_mixture_is_convex_combination():
    comps = Mixture(
        components=((0.25, Lebesgue()), (0.75, Atomic(atoms=((1.0, 1.0),))))
    )
    m = moments(comps, 4)
    for k in range(1, 5):
        assert abs(m.get(k) - 0.75 * np.exp(1j * k)) < 1e-14


def test_moments_conjugate_symmetry():
    m = moments(Atomic(atoms=((0.4, 0.3), (2.2, 0.7))), 6)
    for k in range(7):
        assert m.get(-k) == np.conj(m.get(k))


def test_moment_range_exceeded():
    m = moments(Lebesgue(), 4)
    with pytest.raises(MomentRangeExceeded) as exc:
        m.get(5)
    assert exc.value.detail == {"index": 5, "K": 4}
    with pytest.raises(MomentRangeExceeded):
        m.get(-5)


def test_moment_window_inclusive():
    m = moments(Atomic(atoms=((0.9, 1.0),)), 3)
    w = m.window(-2, 2)
    assert len(w) == 5
    assert np.allclose(w, np.exp(1j * 0.9 * np.arange(-2, 3)), atol=1e-14)


def test_resolution_guard_near_singular_density():
    # pole of the density just off the circle defeats the default grid
    spec = Density(name="bernstein_szego", param=0.999)
    with pytest.raises(IntegrationResolution) as exc:
        moments(spec, 8)
    assert exc.value.detail["drift"] > 1e-10
    fine = moments(Density(name="bernstein_szego", param=0.999, grid=30000), 8)
    assert abs(fine.get(1) - 0.999) < 1e-12


def test_measure_integral_examples():
    assert abs(measure_integral(Lebesgue(), lambda t: np.ones_like(t)) - 1.0) < 1e-13
    assert abs(measure_integral(Lebesgue(), np.cos)) < 1e-13
    got = measure_integral(Atomic(atoms=((0.5, 1.0), (1.5, 3.0))), np.cos)
    assert abs(got - (np.cos(0.5) + 3 * np.cos(1.5)) / 4) < 1e-14
    # |sin(theta/2)| against arc length integrates to 2/pi
    got = measure_integral(Lebesgue(), lambda t: np.abs(np.sin(t / 2)))
    assert abs(got - 2 / np.pi) < 1e-10



def test_measure_integral_resolution_guard_honors_grid():
    # same near-singular density as the moment guard: the integral must not
    # come back silently wrong, and the declared grid must fix it
    with pytest.raises(IntegrationResolution) as exc:
        measure_integral(Density(name="bernstein_szego", param=0.999), np.cos)
    assert exc.value.detail["drift"] > 1e-10
    fine = Density(name="bernstein_szego", param=0.999, grid=16384)
    assert abs(measure_integral(fine, np.cos) - 0.999) < 1e-12


def test_measure_integral_unknown_density_is_config_error():
    with pytest.raises(ConfigError):
        measure_integral(Density(name="nope"), np.cos)


# ---------------------------------------------------------------------------
# inner products


def test_inner_product_examples():
    m = moments(Lebesgue(), 5)
    one = ComplexPolynomial([1.0])
    assert inner_product(m, one, one) == 1.0
    for j in range(4):
        for k in range(4):
            mono_j = ComplexPolynomial.monomial(j)
            mono_k = ComplexPolynomial.monomial(k)
            assert inner_product(m, mono_j, mono_k) == (1.0 if j == k else 0.0)


def test_inner_product_norm_matches_table():
    s = SchurSequence([0.5])
    m = moments_from_schur(s, 1)
    phi1 = ComplexPolynomial([0.5, 1.0])
    assert abs(inner_product(m, phi1, phi1) - 0.75) < 1e-15


def test_inner_product_hermitian(rng):
    s = random_schur(rng, 5)
    m = moments_from_schur(s, 5)
    f = LaurentPolynomial(rng.standard_normal(3) + 1j * rng.standard_normal(3), low=-1)
    g = LaurentPolynomial(rng.standard_normal(4) + 1j * rng.standard_normal(4), low=0)
    assert abs(inner_product(m, f, g) - np.conj(inner_product(m, g, f))) < 1e-12


def test_inner_product_range_guard():
    m = moments(Lebesgue(), 2)
    with pytest.raises(MomentRangeExceeded):
        inner_product(m, ComplexPolynomial.monomial(3), ComplexPolynomial([1.0]))


# ---------------------------------------------------------------------------
# Schur extraction


def test_moment_schur_degree_range():
    # negative degrees died with IndexError and numpy's "negative dimensions"
    s = SchurSequence([0.3, -0.2j])
    with pytest.raises(ValueError, match=r"K = -1 outside 0\.\.2"):
        moments_from_schur(s, -1)
    with pytest.raises(ValueError, match=r"K = 3 outside 0\.\.2"):
        moments_from_schur(s, 3)
    with pytest.raises(ValueError, match=r"n_max = -1 outside 0\.\.2"):
        schur_from_moments(moments_from_schur(s, 2), -1)


def test_schur_from_moments_lebesgue():
    s = schur_from_moments(moments(Lebesgue(), 8), 8)
    assert all(s.a(k) == 0.0 for k in range(1, 9))


def test_schur_from_moments_bernstein():
    beta = 0.6
    s = schur_from_moments(moments(Density(name="bernstein_szego", param=beta), 6), 6)
    assert abs(s.a(1) + beta) < 1e-12
    assert all(abs(s.a(k)) < 1e-12 for k in range(2, 7))


def test_schur_from_moments_round_trip(rng):
    for n in (1, 4, 10):
        s0 = random_schur(rng, n)
        m = moments_from_schur(s0, n)
        s1 = schur_from_moments(m, n)
        assert max(abs(s0.a(k) - s1.a(k)) for k in range(1, n + 1)) < 1e-10


def test_schur_from_moments_one_atom_degenerates():
    m = moments(Atomic(atoms=((0.7, 1.0),)), 4)
    with pytest.raises(NotPositiveDefinite) as exc:
        schur_from_moments(m, 4)
    assert exc.value.detail["n"] == 1
    assert abs(exc.value.detail["magnitude"] - 1.0) < 1e-12


def test_schur_from_moments_two_atoms_degenerate_at_two():
    m = moments(Atomic(atoms=((0.0, 0.5), (np.pi, 0.5))), 6)
    with pytest.raises(NotPositiveDefinite) as exc:
        schur_from_moments(m, 6)
    assert exc.value.detail["n"] == 2
    assert abs(exc.value.detail["magnitude"] - 1.0) < 1e-12
    # the degree-1 prefix is still well defined
    s = schur_from_moments(m, 1)
    assert abs(s.a(1)) < 1e-14


def test_schur_from_measure_matches_moment_form():
    for spec in (
        Lebesgue(),
        Density(name="one_minus_cos"),
        Density(name="bernstein_szego", param=0.6),
    ):
        a = schur_from_measure(spec, 12)
        b = schur_from_moments(moments(spec, 12), 12)
        assert max(abs(a.a(k) - b.a(k)) for k in range(1, 13)) < 1e-9


def test_schur_from_measure_arc_reaches_high_degree():
    # the moment form loses the arc coefficients past degree ~20 to Toeplitz
    # conditioning; value-space extraction keeps going
    s = schur_from_measure(ArcDensity(name="uniform", arc=ARC), 32)
    tail = [abs(s.a(k)) for k in range(24, 33)]
    assert all(0.70 < t < 0.715 for t in tail)


def test_schur_from_measure_atomic_degenerates_identically():
    with pytest.raises(NotPositiveDefinite) as exc:
        schur_from_measure(Atomic(atoms=((0.0, 0.5), (np.pi, 0.5))), 6)
    assert exc.value.detail["n"] == 2


def test_negative_atom_weight_rejected_by_both_routes():
    spec = Atomic(atoms=((0.0, 1.0), (1.0, -0.4), (2.0, 1.0)))
    for route in (moments, schur_from_measure):
        with pytest.raises(ValueError, match="atom weights must be strictly positive"):
            route(spec, 4)


def test_moments_from_schur_needs_enough_coefficients():
    with pytest.raises(ValueError):
        moments_from_schur(SchurSequence([0.5, 0.1, -0.2]), 6)


# ---------------------------------------------------------------------------
# Christoffel modification


def test_christoffel_moments_lebesgue_matches_catalog():
    got = christoffel_moments(moments(Lebesgue(), 6), 1.0)
    want = moments(Density(name="one_minus_cos"), 5)
    assert got.K == 5
    assert np.max(np.abs(got.c - want.c)) < 1e-12


def test_christoffel_moments_guards():
    with pytest.raises(OffCircle):
        christoffel_moments(moments(Lebesgue(), 3), 1.5)
    with pytest.raises(MomentRangeExceeded):
        christoffel_moments(MomentTable([1.0]), 1.0)
    with pytest.raises(NotPositiveDefinite) as exc:
        christoffel_moments(moments(Atomic(atoms=((0.0, 1.0),)), 3), 1.0)
    assert exc.value.detail["mass"] < 1e-14


def test_christoffel_modify_lebesgue():
    t = build_opuc(SchurSequence.zeros(3), 3)
    psis = christoffel_modify(t, 1.0, 2)
    assert np.allclose(psis[0].coeffs, [1.0])
    assert np.allclose(psis[1].coeffs, [0.5, 1.0])
    assert np.allclose(psis[2].coeffs, [1 / 3, 2 / 3, 1.0])
    flipped = christoffel_modify(t, -1.0, 1)
    assert np.allclose(flipped[1].coeffs, [-0.5, 1.0])


def test_christoffel_modify_matches_gram_schmidt():
    spec = Density(name="bernstein_szego", param=0.3)
    table = build_opuc(schur_from_measure(spec, 6), 6)
    w = np.exp(0.8j)
    modified = christoffel_moments(moments(spec, 7), w)
    basis, _ = gram_schmidt_monic(modified.get, 5)
    psis = christoffel_modify(table, w, 5)
    for n in range(6):
        assert np.allclose(psis[n].padded(6), np.pad(basis[n], (0, 5 - n)), atol=1e-10)


def test_christoffel_modify_guards():
    t = build_opuc(SchurSequence.zeros(3), 3)
    with pytest.raises(OffCircle):
        christoffel_modify(t, 0.9, 1)
    with pytest.raises(ValueError):
        christoffel_modify(t, 1.0, 3)


def test_christoffel_modify_remainder_guard(monkeypatch):
    # an inconsistent kernel normalization breaks the exact division
    t = build_opuc(SchurSequence([0.3, -0.2, 0.1]), 3)
    orig = meas.kernel_diag
    monkeypatch.setattr(meas, "kernel_diag", lambda table, n, z: 2.0 * orig(table, n, z))
    with pytest.raises(RemainderTooLarge) as exc:
        christoffel_modify(t, 1.0, 2)
    assert exc.value.detail["remainder"] > 1e-10
