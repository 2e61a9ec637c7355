"""Measure declarations, moments, Schur extraction, Christoffel modification."""

import json

import numpy as np
import pytest

import szego_quad.measures as meas
from szego_quad import (
    ArcDensity,
    Atomic,
    ConfigError,
    Density,
    IntegrationResolution,
    Lebesgue,
    Mixture,
    MomentRangeExceeded,
    MomentTable,
    NotPositiveDefinite,
    OffCircle,
    SchurSequence,
    build_opuc,
    christoffel_moments,
    measure_integral,
    moments,
    moments_from_schur,
    parse_measure,
    schur_from_measure,
    schur_from_moments,
)

from conftest import poly_inner, random_schur

ARC = (np.pi / 2, 3 * np.pi / 2)


# ---------------------------------------------------------------------------
# parsing and serialization


def test_parse_round_trips():
    cases = [
        ({"variant": "lebesgue"}, Lebesgue()),
        ({"variant": "density", "name": "one_minus_cos"}, Density(name="one_minus_cos")),
        (
            {"variant": "density", "name": "bernstein_szego", "param": 0.5, "grid": 2048},
            Density(name="bernstein_szego", param=0.5, grid=2048),
        ),
        (
            {"variant": "arc_density", "name": "uniform", "arc": [1.0, 3.0]},
            ArcDensity(name="uniform", arc=(1.0, 3.0)),
        ),
        (
            {"variant": "arc_density", "name": "hann", "arc": [0.0, 2.0], "param": None},
            ArcDensity(name="hann", arc=(0.0, 2.0)),
        ),
        (
            {"variant": "atomic", "atoms": [[0.0, 0.5], [3.14, 0.5]]},
            Atomic(atoms=((0.0, 0.5), (3.14, 0.5))),
        ),
        (
            {
                "variant": "mixture",
                "components": [
                    {"weight": 0.7, "measure": {"variant": "lebesgue"}},
                    {"weight": 0.3, "measure": {"variant": "atomic", "atoms": [[1.0, 1.0]]}},
                ],
            },
            Mixture(components=((0.7, Lebesgue()), (0.3, Atomic(atoms=((1.0, 1.0),))))),
        ),
    ]
    for obj, want in cases:
        assert parse_measure(obj) == want


def test_parse_complex_param():
    spec = parse_measure(
        {"variant": "density", "name": "bernstein_szego", "param": [0.3, 0.4]}
    )
    assert spec == Density(name="bernstein_szego", param=0.3 + 0.4j)
    assert type(spec.param) is complex


@pytest.mark.parametrize(
    "angles, distinct",
    [
        ((1.0, 1.0000000000002), False),
        ((1e-13, -1e-13), False),  # across the cut
        ((1.0000000000004, 1.0000000000006), False),  # across a 1e-12 rounding bucket
        ((1.0, 1.0 + 1e-9), True),
    ],
)
def test_parse_atoms_distinct_on_the_circle(angles, distinct):
    obj = {"variant": "atomic", "atoms": [[a, 0.5] for a in angles]}
    if distinct:
        assert parse_measure(obj) == Atomic(atoms=tuple((a, 0.5) for a in angles))
    else:
        with pytest.raises(ConfigError, match="measure.atoms: atom angles must be distinct"):
            parse_measure(obj)


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


def mixture_of(*measures):
    return {"variant": "mixture", "components": [{"weight": 1, "measure": m} for m in measures]}


def test_parse_field_diagnostics():
    bad = [
        ({"variant": "density", "name": 7}, "measure.name"),
        ({"variant": "density", "name": "uniform", "param": "x"}, "measure.param"),
        ({"variant": "density", "name": "uniform", "grid": -4}, "measure.grid"),
        ({"variant": "density", "name": "uniform", "grid": True}, "measure.grid"),
        ({"variant": "density", "name": "bernstein_szego"}, "measure.param"),
        ({"variant": "density", "name": "bernstein_szego", "param": 1.0}, "measure.param"),
        ({"variant": "arc_density", "name": "uniform", "arc": [2.0, 1.0]}, "measure.arc"),
        ({"variant": "arc_density", "name": "uniform", "arc": [0.0]}, "measure.arc"),
        # a key the variant does not read, a misspelling or a removed option
        ({"variant": "density", "name": "one_minus_cos", "gird": 99}, "measure.gird: unknown key"),
        (
            {"variant": "arc_density", "name": "uniform", "arc": [0.0, 1.0], "panels": 64},
            "measure.panels: unknown key",
        ),
        ({"variant": "density", "name": "uniform", "arc": [0.0, 1.0]}, "measure.arc: unknown key"),
        ({"variant": "lebesgue", "name": "uniform"}, "measure.name: unknown key"),
        ({"variant": "atomic", "atoms": [[0.0, 1.0]], "weights": [1]}, "measure.weights: unknown"),
        (
            {
                "variant": "mixture",
                "components": [{"weight": 1, "wieght": 2, "measure": {"variant": "lebesgue"}}],
            },
            "measure.components[0].wieght: unknown key",
        ),
        (
            mixture_of({"variant": "density", "name": "uniform", "grid": 64, "Grid": 8}),
            "measure.components[0].measure.Grid: unknown key",
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
        # a nested measure's diagnostics name the path down to it
        (mixture_of({"variant": "density", "name": 7}), "measure.components[0].measure.name:"),
        ({"variant": "density", "name": "gaussian"}, "measure.name: unknown density"),
        (
            mixture_of({"variant": "arc_density", "name": "gaussian", "arc": [0.0, 1.0]}),
            "measure.components[0].measure.name: unknown arc density",
        ),
        (
            mixture_of({"variant": "lebesgue"}, {"variant": "arc_density", "arc": [2.0, 1.0]}),
            "measure.components[1].measure.name:",
        ),
        (
            mixture_of({"variant": "arc_density", "name": "uniform", "arc": [2.0, 1.0]}),
            "measure.components[0].measure.arc:",
        ),
        (
            mixture_of(mixture_of({"variant": "atomic", "atoms": [[0.0]]})),
            "measure.components[0].measure.components[0].measure.atoms[0]:",
        ),
    ]
    for obj, field in bad:
        with pytest.raises(ConfigError) as exc:
            parse_measure(obj)
        assert field in str(exc.value), obj


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), True])
@pytest.mark.parametrize(
    "build, field",
    [
        (lambda v: {"variant": "atomic", "atoms": [[v, 0.5], [1.0, 0.5]]}, "measure.atoms[0]"),
        (lambda v: {"variant": "atomic", "atoms": [[0.0, 0.5], [1.0, v]]}, "measure.atoms[1]"),
        (
            lambda v: {
                "variant": "mixture",
                "components": [{"weight": v, "measure": {"variant": "lebesgue"}}],
            },
            "measure.components[0].weight",
        ),
        (lambda v: {"variant": "density", "name": "bernstein_szego", "param": v}, "measure.param"),
        (lambda v: {"variant": "density", "name": "bernstein_szego", "param": [0.1, v]},
         "measure.param"),
        (lambda v: {"variant": "arc_density", "name": "uniform", "arc": [v, 2.0]}, "measure.arc"),
        (lambda v: {"variant": "arc_density", "name": "hann", "arc": [0.0, 2.0], "param": v},
         "measure.param"),
        (lambda v: {"variant": "arc_density", "name": "hann", "arc": [0.0, 2.0], "param": [v, 0.0]},
         "measure.param"),
    ],
)
def test_parse_rejects_non_finite_and_boolean_numbers(build, field, bad):
    # json.loads reads NaN and Infinity, and a JSON true is a Python int
    obj = json.loads(json.dumps(build(bad)))
    with pytest.raises(ConfigError) as exc:
        parse_measure(obj)
    assert field in str(exc.value)


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


def arc_moments_closed_form(name, lo, hi, K):
    """c_0..c_K of the uniform or hann density on [lo, hi]: with
    I(s) = integral_0^L e^{ist} dt = L e^{isL/2} sinc(sL / 2 pi), the uniform
    moment is I(k) / L and the hann moment (I(k) - (I(k + w) + I(k - w)) / 2) / L,
    w = 2 pi / L, both times e^{ik lo}."""
    L, k = hi - lo, np.arange(K + 1)
    I = lambda s: L * np.exp(0.5j * s * L) * np.sinc(s * L / (2 * np.pi))
    w = 2 * np.pi / L
    c = I(k) if name == "uniform" else I(k) - 0.5 * (I(k + w) + I(k - w))
    return np.exp(1j * k * lo) * c / L


def test_stored_panel_rule_is_leggauss():
    # bit for bit on the machine that wrote the table; another LAPACK may round
    # leggauss's own eigensolve differently, so the check allows 1 ulp
    x, w = meas._GL_NODES, meas._GL_WEIGHTS
    assert len(x) == len(w) == meas._GL_POINTS
    assert not (x.flags.writeable or w.flags.writeable)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    ref_x, ref_w = np.polynomial.legendre.leggauss(meas._GL_POINTS)
    assert np.all(np.abs(x - ref_x) <= np.spacing(np.abs(ref_x)))
    assert np.all(np.abs(w - ref_w) <= np.spacing(ref_w))


@pytest.mark.parametrize("name", ["uniform", "hann"])
@pytest.mark.parametrize("width", [0.5, 1.0, np.pi, 2 * np.pi - 0.1])
@pytest.mark.parametrize("K", [8, 16, 32, 64, 128])
def test_arc_panels_integrate_moments_to_rounding(name, width, K):
    # the level-0 panels alone, without the doubled grid: each panel's phase
    # span stays under 2 pi, where the panel rule is exact to rounding
    lo = 0.3
    theta, weights = meas._discretize(ArcDensity(name, (lo, lo + width)), K, 0)
    c = np.exp(1j * np.outer(np.arange(K + 1), theta)) @ weights
    assert np.max(np.abs(c - arc_moments_closed_form(name, lo, lo + width, K))) < 1e-13


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


def test_resolution_error_names_the_degree():
    # on the half circle at n = 60 the drift comes from the extraction's
    # conditioning, not from an under-resolved density
    spec = ArcDensity(name="uniform", arc=(0.0, np.pi))
    with pytest.raises(IntegrationResolution) as exc:
        schur_from_measure(spec, 60)
    assert exc.value.detail["index"] == 48
    assert exc.value.detail["drift"] > 4.4e-9
    assert "first at index 48" in str(exc.value)
    assert "only when the density is under-resolved" in str(exc.value)


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
# the moment form


def test_inner_product_norm_matches_table():
    m = moments_from_schur(SchurSequence([0.5]), 1)
    assert abs(poly_inner([0.5, 1.0], [0.5, 1.0], m.get) - 0.75) < 1e-15


def test_moment_window_range_guard():
    m = moments(Lebesgue(), 2)
    with pytest.raises(MomentRangeExceeded) as exc:
        m.window(0, 3)
    assert exc.value.detail == {"index": 3, "K": 2}


def test_moment_take_range_guard_names_first_index_in_c_order():
    # a 2-D index array raises at its first out-of-range entry in C order,
    # not the first in column order or the largest
    m = MomentTable([1.0, 0.1, 0.2, 0.05])
    ks = np.array([[0, -4, 2], [5, 1, -6]])
    with pytest.raises(MomentRangeExceeded) as exc:
        m.take(ks)
    assert exc.value.detail == {"index": -4, "K": 3}
    with pytest.raises(MomentRangeExceeded) as exc:
        m.take(ks.T)
    assert exc.value.detail == {"index": 5, "K": 3}


# ---------------------------------------------------------------------------
# Schur extraction


def test_moment_schur_degree_range():
    # negative degrees died with IndexError and numpy's "negative dimensions"
    s = SchurSequence([0.3, -0.2j])
    with pytest.raises(ValueError, match=r"K = -1 outside 0\.\.2"):
        moments_from_schur(s, -1)
    with pytest.raises(ValueError, match=r"K = 3 outside 0\.\.2"):
        moments_from_schur(s, 3)
    with pytest.raises(ValueError, match=r"n_max = -1 outside 0\.\.$"):
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


def test_schur_from_moments_prefixes_are_exact():
    # degree n reads only the leading block of the Toeplitz form, whatever n_max
    m = moments(Density(name="one_minus_cos"), 48)
    full = schur_from_moments(m, 48).coefficients
    for n in (1, 8, 24, 47):
        assert np.array_equal(schur_from_moments(m, n).coefficients, full[:n])


def test_schur_from_moments_is_scale_free():
    m = moments(Density(name="bernstein_szego", param=0.3 + 0.4j), 12)
    a = schur_from_moments(m, 12).coefficients
    b = schur_from_moments(MomentTable(2.5 * m.c), 12).coefficients
    assert np.max(np.abs(a - b)) < 1e-14


def test_schur_from_moments_refuses_spent_arc_form():
    # from double moments the half circle's coefficients lose their digits
    # geometrically with the degree, all of them by degree 22, while every
    # |a_n| stays inside the disk; the Szego check on e_n stops the
    # extraction at one degree for every n_max
    m = moments(ArcDensity(name="uniform", arc=(0.0, np.pi)), 48)
    degrees = set()
    for n_max in (24, 48):
        with pytest.raises(NotPositiveDefinite) as exc:
            schur_from_moments(m, n_max)
        degrees.add(exc.value.detail["n"])
    (n,) = degrees
    assert 12 < n <= 22
    s = schur_from_measure(ArcDensity(name="uniform", arc=(0.0, np.pi)), n - 1)
    assert np.max(np.abs(schur_from_moments(m, n - 1).coefficients - s.coefficients)) < 1e-6


@pytest.fixture
def no_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("linear solve in the Schur extraction")

    monkeypatch.setattr(np.linalg, "solve", refuse)


def test_schur_from_measure_matches_moment_form(no_solve):
    # both routes run the one Gram-Schmidt recurrence: no linear solve
    two_arcs = Mixture(
        components=(
            (1.0, ArcDensity(name="uniform", arc=(0.5, 1.5))),
            (1.0, ArcDensity(name="uniform", arc=(3.0, 4.5))),
        )
    )
    for spec, n in (
        (Lebesgue(), 12),
        (Density(name="one_minus_cos"), 12),
        (Density(name="bernstein_szego", param=0.6), 12),
        (ArcDensity(name="uniform", arc=(0.0, np.pi)), 8),
        (ArcDensity(name="hann", arc=(0.0, np.pi)), 8),
        (two_arcs, 8),
    ):
        a = schur_from_measure(spec, n)
        b = schur_from_moments(moments(spec, n), n)
        assert max(abs(a.a(k) - b.a(k)) for k in range(1, n + 1)) < 1e-9


def test_schur_from_measure_arc_reaches_high_degree():
    # the moment form loses the arc coefficients past degree ~20 to Toeplitz
    # conditioning; value-space extraction keeps going
    s = schur_from_measure(ArcDensity(name="uniform", arc=ARC), 32)
    tail = [abs(s.a(k)) for k in range(24, 33)]
    assert all(0.70 < t < 0.715 for t in tail)


def direct_value_extract(theta, weights, n_max):
    """The value route with the second pass as sum w v conj(b), one product per term."""
    z = np.exp(1j * theta)
    bulk = lambda v, B: np.conj(B @ np.conj(weights * v))
    exact = lambda v, B: np.array([np.dot(weights, v * np.conj(b)) for b in B])
    norm = lambda v: float(weights @ np.abs(v) ** 2)
    return meas._gram_schmidt(np.ones_like(z), n_max, lambda v: z * v, (bulk, exact), norm)


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize(
    "components",
    [
        [(1.0, "uniform", 0.0, np.pi)],
        [(1.0, "hann", 0.0, np.pi)],
        [(1.0, "uniform", 0.5, 1.5), (1.0, "uniform", 3.0, 4.5)],
        [(1.0, "hann", 1.0, 2.0)],
    ],
)
def test_value_extract_bit_identical_to_direct_form(components, level):
    # conj(v) b is the exact conjugate of v conj(b), and so is its weighted sum
    arcs = [ArcDensity(name, (lo, hi)) for _, name, lo, hi in components]
    if len(arcs) == 1:
        spec = arcs[0]
    else:
        spec = Mixture(tuple((w, a) for (w, *_), a in zip(components, arcs)))
    theta, weights = meas._discretize(spec, 2 * 32 + 2, level)

    def outcome(extract):
        # the narrow hann arc degenerates before degree 32: the error carries
        # the degree and the 17 digits of the offending |a_n|
        try:
            return extract(theta, weights, 32).tobytes()
        except NotPositiveDefinite as err:
            return str(err)

    assert outcome(meas._value_extract) == outcome(direct_value_extract)


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


@pytest.mark.parametrize("param", [{"x": float("nan")}, "x", [0.1], [0.1, 0.2, 0.3], [[0.1], 0.2]])
def test_parse_arc_density_param_checked_like_density_param(param):
    obj = {"variant": "arc_density", "name": "uniform", "arc": [0.0, 2.0], "param": param}
    with pytest.raises(ConfigError, match="measure.param"):
        parse_measure(json.loads(json.dumps(obj)))


@pytest.mark.parametrize("param", [None, 0.5, 3, [0.25, -1.5]])
def test_parse_arc_density_param_kept_as_given(param):
    obj = {"variant": "arc_density", "name": "hann", "arc": [0.0, 2.0], "param": param}
    assert parse_measure(obj) == ArcDensity(name="hann", arc=(0.0, 2.0), param=param)


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


def test_christoffel_family_lebesgue():
    # the monic family of |z - w|^2 d(theta) / (2 pi), through its moments
    def family(w, n):
        m = christoffel_moments(moments(Lebesgue(), n + 1), w)
        return build_opuc(schur_from_moments(m, n), n).phi

    psis = family(1.0, 2)
    assert np.allclose(psis[0].coeffs, [1.0])
    assert np.allclose(psis[1].coeffs, [0.5, 1.0])
    assert np.allclose(psis[2].coeffs, [1 / 3, 2 / 3, 1.0])
    flipped = family(-1.0, 1)
    assert np.allclose(flipped[1].coeffs, [-0.5, 1.0])
