"""Zero accumulation and support recovery."""

import numpy as np
import pytest

from szego_quad import (
    ArcDensity,
    Atomic,
    Lebesgue,
    Mixture,
    SchurSequence,
    SofFamilySpec,
    build_opuc,
    make_pop,
    make_rule,
    moments_from_schur,
    schur_from_measure,
    sof_f1,
    accumulation_set,
    gap_zero_census,
    point_in_arcs,
    sine_pair_residual,
    support_estimate,
    zero_cloud,
)

from conftest import random_schur

ARC = (np.pi / 2, 3 * np.pi / 2)
ARC_SPEC = ArcDensity(name="uniform", arc=ARC)
ARC_HALF = ArcDensity(name="uniform", arc=(0.0, np.pi))


def lebesgue_cloud(n_max, family=None):
    table = build_opuc(SchurSequence.zeros(n_max), n_max)
    return zero_cloud(table, family or SofFamilySpec.f1(1.0), range(1, n_max + 1))


# ---------------------------------------------------------------------------
# zero clouds


def test_zero_cloud_anchored_family_recurs_at_anchor():
    cloud = lebesgue_cloud(12)
    assert np.allclose(cloud.eventually_common, [0.0], atol=1e-9)
    union = np.sort(np.concatenate(cloud.zero_sets))
    gaps = np.diff(np.append(union, union[0] + 2 * np.pi))
    assert gaps.max() <= 2 * np.pi / 12 + 1e-9


def test_zero_cloud_second_kind_shares_nothing():
    cloud = lebesgue_cloud(12, SofFamilySpec.f2(1.0))
    assert cloud.eventually_common.size == 0


def test_zero_cloud_shape():
    cloud = lebesgue_cloud(6)
    assert cloud.orders == tuple(range(1, 7))
    for n, zs in zip(cloud.orders, cloud.zero_sets):
        assert len(zs) == n
        assert np.all(np.diff(zs) > 0)


def test_zero_cloud_guards():
    table = build_opuc(SchurSequence.zeros(4), 4)
    with pytest.raises(ValueError):
        zero_cloud(table, SofFamilySpec.f1(1.0), [])
    with pytest.raises(ValueError):
        zero_cloud(table, SofFamilySpec.f1(1.0), [5])


def test_arc_measure_leaves_at_most_one_zero_outside():
    schur = schur_from_measure(ARC_SPEC, 20)
    table = build_opuc(schur, 20)
    cloud = zero_cloud(table, SofFamilySpec.f1(1.0), range(1, 21))
    census = gap_zero_census(cloud, (ARC[1], ARC[0] + 2 * np.pi))
    assert np.all(census <= 1)


# ---------------------------------------------------------------------------
# accumulation arcs


def test_accumulation_full_circle():
    cloud = lebesgue_cloud(24)
    arcs = accumulation_set(cloud, 2 * np.pi / 24)
    assert arcs == [(0.0, 2 * np.pi)]


def test_accumulation_huge_epsilon_short_circuit():
    cloud = lebesgue_cloud(6)
    assert accumulation_set(cloud, 4.0) == [(0.0, 2 * np.pi)]


def test_accumulation_arc_measure_concentrates():
    schur = schur_from_measure(ARC_SPEC, 24)
    table = build_opuc(schur, 24)
    cloud = zero_cloud(table, SofFamilySpec.f1(1.0), range(1, 25))
    arcs = accumulation_set(cloud, 0.2)
    for probe in np.linspace(ARC[0] + 0.1, ARC[1] - 0.1, 41):
        assert point_in_arcs(arcs, probe)
    # far side of the gap stays clear apart from the anchor's own point
    assert not point_in_arcs(arcs, 0.7)
    assert not point_in_arcs(arcs, 2 * np.pi - 0.7)


def test_accumulation_mixture_keeps_atom():
    mix = Mixture(components=((0.5, Lebesgue()), (0.5, Atomic(atoms=((2.5, 1.0),)))))
    table = build_opuc(schur_from_measure(mix, 16), 16)
    cloud = zero_cloud(table, SofFamilySpec.f1(1.0), range(1, 17))
    arcs = accumulation_set(cloud, 0.3)
    assert point_in_arcs(arcs, 2.5)


def test_accumulation_guards():
    cloud = lebesgue_cloud(6)
    with pytest.raises(ValueError):
        accumulation_set(cloud, 0.0)
    with pytest.raises(ValueError):
        accumulation_set(cloud, 0.1, n_min=7)


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_epsilon_raises(epsilon):
    # NaN slipped through `epsilon <= 0` and produced an empty support
    with pytest.raises(ValueError, match="finite"):
        accumulation_set(lebesgue_cloud(6), epsilon)
    with pytest.raises(ValueError, match="finite"):
        support_estimate(ArcDensity("uniform", (1.0, 2.5)), [1.0], 16, epsilon)


# ---------------------------------------------------------------------------
# census


def test_gap_census_counts_grow_inside_support():
    cloud = lebesgue_cloud(12)
    counts = gap_zero_census(cloud, (0.1, 0.2))
    assert counts[0] == 0
    table = build_opuc(SchurSequence.zeros(80), 80)
    big = zero_cloud(table, SofFamilySpec.f1(1.0), [40, 80])
    assert np.all(gap_zero_census(big, (0.1, 0.2)) >= 1)


def test_gap_census_off_support_gap_holds_one():
    schur = schur_from_measure(ARC_SPEC, 20)
    table = build_opuc(schur, 20)
    cloud = zero_cloud(table, SofFamilySpec.f1(1.0), range(1, 21))
    census = gap_zero_census(cloud, (ARC[1] + 0.05, ARC[0] + 2 * np.pi - 0.05))
    assert np.all(census == 1)


# ---------------------------------------------------------------------------
# support estimates


def test_support_estimate_arc_sandwich():
    est = support_estimate(ARC_SPEC, [1.0], 32, 0.15)
    assert est.n_min == 16
    for probe in np.linspace(ARC[0], ARC[1], 101):
        assert point_in_arcs(est.arcs, probe)
    for lo, hi in est.arcs:
        assert ARC[0] - 0.3 <= lo and hi <= ARC[1] + 0.3


def test_support_estimate_lebesgue_full_circle():
    # no gap to find; the anchor is inside the support and is not removed
    est = support_estimate(Lebesgue(), [1.0], 16, 0.45)
    assert est.arcs == ((0.0, 2 * np.pi),)


def test_support_estimate_two_arcs_two_anchors():
    two = Mixture(
        components=(
            (0.5, ArcDensity(name="uniform", arc=(0.5, 2.0))),
            (0.5, ArcDensity(name="uniform", arc=(3.5, 5.0))),
        )
    )
    est = support_estimate(two, [np.exp(2.75j), np.exp(5.9j)], 24, 0.2)
    for probe in np.linspace(0.6, 1.9, 21):
        assert point_in_arcs(est.arcs, probe)
    for probe in np.linspace(3.6, 4.9, 21):
        assert point_in_arcs(est.arcs, probe)
    assert not point_in_arcs(est.arcs, 2.75)
    assert not point_in_arcs(est.arcs, 5.9)


def test_support_estimate_guards():
    with pytest.raises(ValueError):
        support_estimate(Lebesgue(), [1.0], 0, 0.1)
    with pytest.raises(ValueError):
        support_estimate(Lebesgue(), [], 8, 0.1)


# ---------------------------------------------------------------------------
# structural diagnostics


def test_zero_pair_components_attract_later_zeros(rng):
    # any two zeros of one member split the circle into two arcs, and every
    # later member places a zero in each
    schur = random_schur(rng, 10, cap=0.5)
    table = build_opuc(schur, 10)
    w = np.exp(0.4j)
    base = sof_f1(table, 3, w).zeros
    z1, z2 = float(base[0]), float(base[1])
    for m in range(4, 11):
        zs = sof_f1(table, m, w).zeros
        inside = np.count_nonzero((zs > z1 + 1e-12) & (zs < z2 - 1e-12))
        outside = np.count_nonzero((zs < z1 - 1e-12) | (zs > z2 + 1e-12))
        assert inside >= 1
        assert outside >= 1


def test_sine_pair_residual_vanishes(rng):
    schur = random_schur(rng, 10, cap=0.5)
    table = build_opuc(schur, 10)
    m = moments_from_schur(schur, 10)
    inst = sof_f1(table, 3, np.exp(0.4j))
    rule = make_rule(table, m, make_pop(table, 8, 1.0, 1.0))
    res = sine_pair_residual(inst, inst.zeros[0], inst.zeros[1], rule)
    assert res <= 1e-7


def test_sine_pair_residual_vanishes_on_half_circle():
    # |P|^2 from Horner on the monic numerator left a residual of 1.1e-5 here
    schur = schur_from_measure(ARC_HALF, 40)
    table = build_opuc(schur, 40)
    rule = make_rule(table, moments_from_schur(schur, 40), make_pop(table, 40, 1.0, 1.0))
    inst = sof_f1(table, 30, np.exp(0.4j))
    assert sine_pair_residual(inst, inst.zeros[0], inst.zeros[1], rule) <= 1e-7
