"""Zero accumulation and support recovery."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from szego_quad import (
    ArcDensity,
    Atomic,
    Lebesgue,
    Mixture,
    OffCircle,
    SchurSequence,
    SofFamilySpec,
    SzegoQuadError,
    build_opuc,
    schur_from_measure,
    sof_f1,
    accumulation_set,
    gap_zero_census,
    point_in_arcs,
    support_estimate,
    zero_cloud,
)

import szego_quad.support as sup
from szego_quad.circle import TWO_PI, circular_distance, fold_angle

from conftest import random_schur

ARC = (np.pi / 2, 3 * np.pi / 2)
ARC_SPEC = ArcDensity(name="uniform", arc=ARC)
ARC_HALF = ArcDensity(name="uniform", arc=(0.0, np.pi))


def lebesgue_cloud(n_max, family=None):
    table = build_opuc(SchurSequence.zeros(n_max), n_max)
    return zero_cloud(table, family or SofFamilySpec.f1(1.0), range(1, n_max + 1))


# ---------------------------------------------------------------------------
# zero clouds


def recurring(cloud, tol=1e-6):
    """Zeros of the highest degree that recur within tol at every degree."""
    last = cloud.zero_sets[-1]
    near = [
        circular_distance(zs[:, None], last[None, :]).min(axis=0) <= tol for zs in cloud.zero_sets
    ]
    return last[np.logical_and.reduce(near)]


def test_zero_cloud_anchored_family_recurs_at_anchor():
    cloud = lebesgue_cloud(12)
    assert all(circular_distance(zs, 0.0).min() <= 1e-9 for zs in cloud.zero_sets)
    assert np.allclose(recurring(cloud), [0.0], atol=1e-9)
    union = np.sort(np.concatenate(cloud.zero_sets))
    gaps = np.diff(np.append(union, union[0] + 2 * np.pi))
    assert gaps.max() <= 2 * np.pi / 12 + 1e-9


def test_zero_cloud_second_kind_shares_nothing():
    cloud = lebesgue_cloud(12, SofFamilySpec.f2(1.0))
    assert recurring(cloud).size == 0


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
    # a radius past pi covers the circle; with no anchor isolated nothing is removed
    assert support_estimate(Lebesgue(), [1.0], 16, 4.0).arcs == ((0.0, 2 * np.pi),)


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
    # the degrees read start at 1; 0 and -3 used to be recorded as given
    for n_min in (0, -3):
        with pytest.raises(ValueError, match=rf"n_min = {n_min} outside 1\.\.8"):
            support_estimate(ArcDensity("uniform", (0.5, 2.5)), [1.0], 8, 0.3, n_min=n_min)
    # an anchor off the circle is refused before the extraction, which would
    # fail on two atoms at n_max = 2
    two_atoms = Atomic(((0.0, 0.5), (1.0, 0.5)))
    with pytest.raises(OffCircle):
        support_estimate(two_atoms, [1.0, 1.5], 2, 0.1)


# The pairwise interval algebra that support_estimate and accumulation_set used
# before the one coverage sweep: the references below are spelled in it.


def intersect(a, b):
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def subtract(a, b):
    complement, cursor = [], 0.0
    for lo, hi in b:
        if lo > cursor:
            complement.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < TWO_PI:
        complement.append((cursor, TWO_PI))
    return intersect(a, complement)


def pairwise_covered(sets, holes):
    acc = [(0.0, TWO_PI)]
    for pieces in sets:
        acc = intersect(acc, pieces)
    return subtract(acc, holes)


# angles on a dyadic grid give exactly touching ball ends; the floats give the rest
ANGLES = st.one_of(st.integers(-16, 56).map(lambda k: k / 8), st.floats(-7.0, 14.0))
RADII = st.one_of(st.sampled_from([0.0625, 0.125, 0.25, math.pi, 4.0]), st.floats(1e-3, 3.5))


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.lists(ANGLES, max_size=10), max_size=6), st.lists(ANGLES, max_size=4), RADII)
@example([[0.25, 0.5], [0.75]], [0.5], 0.125)  # touching ends in one set and across sets
@example([[1.0], []], [], 0.25)  # an empty set covers nothing
@example([], [2.0, 6.25], 0.125)  # no sets: the circle less the holes
@example([[1.0, 4.0], [2.0]], [3.0], 4.0)  # a radius past pi covers the circle
@example([[0.0], [6.25]], [], 0.125)  # pieces at both ends of the cut
def test_covered_equals_the_pairwise_algebra(zero_sets, isolated, eps):
    # the pieces come through _eps_union, so each set is merged as in support_estimate
    sets = [sup._eps_union(np.array(zs, dtype=float), eps) for zs in zero_sets]
    holes = sup._eps_union(np.array(isolated, dtype=float), eps)
    got = sup._covered(sets, holes)
    assert got == pairwise_covered(sets, holes)
    assert all(type(x) is float for piece in got for x in piece)


def all_degree_estimate(spec, anchors, n_max, epsilon):
    """support_estimate spelled out on zero clouds of every degree 1..n_max: one
    intersection of the epsilon-dilated zero sets of the degrees n_max // 2..n_max
    over every anchor, less the epsilon-balls of the isolated anchors."""
    n_min = n_max // 2
    table = build_opuc(schur_from_measure(spec, n_max), n_max)
    est, isolated = [(0.0, TWO_PI)], []
    for w in anchors:
        cloud = zero_cloud(table, SofFamilySpec.f1(w), range(1, n_max + 1))
        used = [zs for n, zs in zip(cloud.orders, cloud.zero_sets) if n >= n_min]
        for zs in used:
            est = intersect(est, sup._eps_union(zs, epsilon))
        near = [circular_distance(zs, cloud.anchor_angle) <= 2 * epsilon for zs in used]
        if all(np.count_nonzero(hits) == 1 for hits in near):
            isolated.append(cloud.anchor_angle)
    est = subtract(est, sup._eps_union(np.array(isolated), epsilon))
    return tuple(sup._rejoin_wrap(sup._drop_slivers(est)))


def per_anchor_estimate(spec, anchors, n_max, epsilon):
    """The per-anchor composition the one pass replaced: each anchor's
    accumulation arcs split at the cut again, less the anchor's ball when it is
    isolated, then intersected across anchors."""
    n_min = n_max // 2
    table = build_opuc(schur_from_measure(spec, n_max), n_max)
    est = None
    for w in anchors:
        cloud = zero_cloud(table, SofFamilySpec.f1(w), range(n_min, n_max + 1))
        pieces = []
        for lo, hi in accumulation_set(cloud, epsilon, n_min):
            pieces += [(lo, TWO_PI), (0.0, hi - TWO_PI)] if hi > TWO_PI else [(lo, hi)]
        acc = sup._merge(pieces)
        near = [circular_distance(zs, cloud.anchor_angle) <= 2 * epsilon for zs in cloud.zero_sets]
        if all(np.count_nonzero(hits) == 1 for hits in near):
            acc = subtract(acc, sup._eps_union(np.array([cloud.anchor_angle]), epsilon))
        est = acc if est is None else intersect(est, acc)
    return tuple(sup._rejoin_wrap(sup._drop_slivers(est)))


def assert_equal_up_to_the_cut(got, ref):
    # the per-anchor composition split a wrapping arc (lo, x + 2 pi) back as
    # (0, (x + 2 pi) - 2 pi), which rounds x by at most one ulp of 2 pi
    assert len(got) == len(ref)
    for arc, ref_arc in zip(got, ref):
        assert all(abs(a - b) <= math.ulp(TWO_PI) for a, b in zip(arc, ref_arc)), (arc, ref_arc)


@pytest.mark.parametrize(
    "spec, epsilon",
    [
        (ArcDensity("uniform", (0.0, np.pi)), 0.2),
        (
            Mixture(
                (
                    (1.0, ArcDensity("uniform", (0.5, 1.5))),
                    (1.0, ArcDensity("uniform", (3.0, 4.5))),
                )
            ),
            0.2,
        ),
    ],
)
@pytest.mark.parametrize(
    "anchors", [np.exp(1j * (np.pi / 4 + np.arange(4) * np.pi / 2)), [np.exp(5.5j)]]
)
def test_support_estimate_equals_all_degree_clouds(spec, epsilon, anchors):
    # building only the degrees n_min..n_max changes no bit of the arcs
    est = support_estimate(spec, anchors, 32, epsilon)
    assert est.arcs == all_degree_estimate(spec, anchors, 32, epsilon)
    assert_equal_up_to_the_cut(est.arcs, per_anchor_estimate(spec, anchors, 32, epsilon))


def test_support_estimate_matches_per_anchor_composition_on_random_arcs():
    rng = np.random.default_rng(13)
    compared = 0
    for _ in range(10):
        lo = rng.uniform(0.0, TWO_PI)
        spec = ArcDensity("uniform", (lo, lo + rng.uniform(1.5, 4.5)))
        anchors = list(np.exp(1j * rng.uniform(0.0, TWO_PI, rng.integers(1, 5))))
        n_max, epsilon = int(rng.choice([16, 24])), float(rng.uniform(0.15, 0.35))
        try:
            ref = per_anchor_estimate(spec, anchors, n_max, epsilon)
        except SzegoQuadError as err:
            with pytest.raises(type(err)):
                support_estimate(spec, anchors, n_max, epsilon)
            continue
        assert_equal_up_to_the_cut(support_estimate(spec, anchors, n_max, epsilon).arcs, ref)
        compared += 1
    assert compared >= 5


def test_support_estimate_keeps_the_anchor_ball_edge_exact():
    # the per-anchor composition ended this arc at 0.9853981633974485: the edge
    # of the epsilon-ball around the anchor zero pi/4 ended a wrapping arc of
    # that anchor's estimate, which it split back as (x + 2 pi) - 2 pi
    anchors = [complex(np.exp(1j * (math.pi / 4 + k * math.pi / 2))) for k in range(4)]
    est = support_estimate(ArcDensity("hann", (0.0, math.pi)), anchors, 16, 0.2)
    assert est.anchor_angles[0] == math.pi / 4
    assert math.pi / 4 + 0.2 in [hi for _, hi in est.arcs]


def test_eps_union_equals_one_ball_at_a_time(rng):
    def one_at_a_time(zeros, eps):
        pieces = []
        for theta in zeros:
            t = float(fold_angle(theta))
            lo, hi = t - eps, t + eps
            if lo < 0.0:
                pieces += [(0.0, hi), (lo + TWO_PI, TWO_PI)]
            elif hi > TWO_PI:
                pieces += [(lo, TWO_PI), (0.0, hi - TWO_PI)]
            else:
                pieces.append((lo, hi))
        return sup._merge(pieces)

    zeros = np.concatenate((rng.uniform(-7.0, 13.0, 40), [0.0, 0.05, TWO_PI - 0.05, -1e-17]))
    for eps in (1e-3, 0.1, 0.3, 3.0):
        got = sup._eps_union(zeros, eps)
        assert got == one_at_a_time(zeros, eps)
        assert all(type(x) is float for piece in got for x in piece)
    assert sup._eps_union(np.empty(0), 0.1) == []
    assert sup._eps_union(np.empty(0), 4.0) == []


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
