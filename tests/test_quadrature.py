"""Invariant para-orthogonal combinations, circle zeros, Szego rules."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from szego_quad import (
    ArcDensity,
    Atomic,
    Density,
    Lebesgue,
    Mixture,
    ModulusMismatch,
    MomentRangeExceeded,
    SchurSequence,
    ZeroCountMismatch,
    build_opuc,
    circle_zero_angles,
    circular_distance,
    kernel_diag,
    make_pop,
    make_rule,
    moments,
    moments_from_schur,
    sof_f1,
    f_sequence,
    weights_via_integral,
    rule_from_sof,
    schur_from_measure,
)
from szego_quad.circle import fold_angle
from szego_quad.opuc import _two_sided_sweep, cmv_matrix, szego_values
from szego_quad.quadrature import (
    CLUSTER_GAP,
    FORWARD_KERNEL_MAX_ORDER,
    TEST_FUNCTIONS,
    _exactness_residual,
    _spliced_weights,
    invariant_zeros,
    pop_boundary,
    pop_zeros,
    resolve_test_function,
)

import mp_reference
from conftest import (
    assert_rule_bytes,
    fixed_rule_schur,
    per_member_rule,
    pop_rule,
    random_schur,
    two_sided_reference,
)


def lebesgue_setup(n):
    table = build_opuc(SchurSequence.zeros(n), n)
    return table, moments(Lebesgue(), n)


# ---------------------------------------------------------------------------
# invariant combinations


def test_make_pop_lebesgue_sum():
    table, _ = lebesgue_setup(3)
    pop = make_pop(table, 3, 1.0, 1.0)
    assert np.allclose(pop.poly.coeffs, [1.0, 0, 0, 1.0])
    assert pop.kappa == 1.0


def test_make_pop_lebesgue_difference():
    table, _ = lebesgue_setup(2)
    pop = make_pop(table, 2, 1.0, -1.0)
    assert np.allclose(pop.poly.coeffs, [-1.0, 0, 1.0])
    assert pop.kappa == -1.0


def test_make_pop_nontrivial_table():
    table = build_opuc(SchurSequence([0.5, -1 / 3]), 2)
    pop = make_pop(table, 2, 1.0, 1.0)
    assert np.allclose(pop.poly.coeffs, [2 / 3, 2 / 3, 2 / 3])


def test_make_pop_invariance(rng):
    table = build_opuc(random_schur(rng, 6), 6)
    phase = np.exp(1j * 2 * np.pi * rng.random(2))
    pop = make_pop(table, 5, phase[0], phase[1])
    reflected = pop.poly.conj_reverse(5)
    assert np.allclose(reflected.padded(6), (pop.kappa * pop.poly).padded(6), atol=1e-12)
    assert abs(abs(pop.kappa) - 1.0) < 1e-12


def test_make_pop_modulus_guard():
    table, _ = lebesgue_setup(2)
    with pytest.raises(ModulusMismatch) as exc:
        make_pop(table, 2, 1.0, 0.5)
    assert exc.value.detail == {"alpha": 1.0, "beta": 0.5}
    with pytest.raises(ModulusMismatch):
        make_pop(table, 2, 0.0, 0.0)


def test_make_pop_degree_range():
    # degree 0 was accepted and make_rule on it died inside numpy
    table, _ = lebesgue_setup(2)
    for n in (0, -1, 3):
        with pytest.raises(ValueError, match=r"outside 1\.\.2"):
            make_pop(table, n, 1.0, 1.0)


# ---------------------------------------------------------------------------
# zero location


def test_pop_zeros_cube_roots_shifted_window():
    table, _ = lebesgue_setup(3)
    pop = make_pop(table, 3, 1.0, -1.0)
    got = pop_zeros(pop, -np.pi)
    assert np.allclose(got, [-2 * np.pi / 3, 0.0, 2 * np.pi / 3], atol=1e-11)


def test_pop_zeros_square_roots():
    table, _ = lebesgue_setup(2)
    pop = make_pop(table, 2, 1.0, 1.0)
    assert np.allclose(pop_zeros(pop), [np.pi / 2, 3 * np.pi / 2], atol=1e-11)


def test_pop_zeros_single_coefficient():
    table = build_opuc(SchurSequence([0.5]), 1)
    pop = make_pop(table, 1, 1.0, 1.0)
    assert np.allclose(pop_zeros(pop), [np.pi], atol=1e-11)


def test_pop_zeros_against_roots_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(1, 9))
        table = build_opuc(random_schur(rng, n), n)
        phases = np.exp(1j * 2 * np.pi * rng.random(2))
        pop = make_pop(table, n, phases[0], phases[1])
        got = pop_zeros(pop)
        roots = np.roots(pop.poly.coeffs[::-1])
        assert np.max(np.abs(np.abs(roots) - 1.0)) < 1e-10
        want = np.sort(np.angle(roots) % (2 * np.pi))
        assert len(got) == n
        assert np.allclose(got, want, atol=1e-8)
        if n > 1:
            assert np.min(np.diff(got)) > 1e-8


# ---------------------------------------------------------------------------
# the Hermitian-part zero solver against eigvals of the CMV matrix, at the
# family orders up to 64 and at the rule orders above them

HERMITIAN_ORDERS = [*range(1, 65), 65, 100, 128, 256]


def eigvals_zeros(schur, n, t):
    """invariant_zeros as every order took it before the Hermitian path:
    the angles of eigvals of the CMV matrix, folded, snapped and sorted."""
    a_n = schur.coefficients[n - 1]
    C = cmv_matrix(schur, n, (a_n + t) / (1.0 + np.conj(a_n) * t))
    roots = fold_angle(np.angle(np.linalg.eigvals(C)), 0.0)
    return np.sort(np.where(2 * np.pi - roots < 1e-9, 0.0, roots))


def assert_matches_eigvals(schur, n, t):
    got = invariant_zeros(schur, n, t)
    want = eigvals_zeros(schur, n, t)
    assert len(got) == n
    assert np.max(circular_distance(got, want)) < 1e-13, (n, t)
    return want


def hermitian_cluster(angles):
    """Whether two zeros share a cosine to within the solver's cluster gap."""
    return bool(np.any(np.diff(np.sort(2 * np.cos(angles))) <= CLUSTER_GAP))


def has_conjugate_pair(angles):
    return bool(np.any(np.abs(np.sin(angles)) > 1e-8))


@pytest.mark.parametrize("cap", [0.3, 0.6, 0.9, 0.99])
def test_hermitian_zeros_match_eigvals_on_random_sequences(rng, cap):
    for n in HERMITIAN_ORDERS:
        assert_matches_eigvals(random_schur(rng, n, cap), n, np.exp(2j * np.pi * rng.random()))


@pytest.mark.parametrize("t", [1.0, -1.0])
def test_hermitian_zeros_resolve_conjugate_pairs(rng, t):
    # zero Schur parameters give the n-th roots of -t, and real coefficients
    # with a real t zeros closed under conjugation: every zero off the real
    # axis shares its cosine with its conjugate
    for n in HERMITIAN_ORDERS:
        for schur in (SchurSequence.zeros(n), SchurSequence(rng.uniform(-0.9, 0.9, n))):
            want = assert_matches_eigvals(schur, n, t)
            assert hermitian_cluster(want) == has_conjugate_pair(want)
            assert has_conjugate_pair(want) or n <= 2


def test_hermitian_zeros_resolve_the_atom_and_its_mirror():
    # at n = 16 a zero sits 4e-16 from the atom at 4; closing the matrix so
    # that exp(i (2 pi - 4)) is a zero too puts two eigenvalues of C + C^H
    # about 1e-15 apart
    spec = Mixture(((1.0, ArcDensity("uniform", (0.5, 2.0))), (1.0, Atomic(((4.0, 1.0),)))))
    n = 16
    schur = schur_from_measure(spec, n)
    z0 = np.exp(1j * (2 * np.pi - 4.0))
    phi, phi_star, _ = szego_values(schur, n - 1, z0)
    lam = -z0 * phi / phi_star
    a_n = schur.coefficients[n - 1]
    t = (lam - a_n) / (1.0 - np.conj(a_n) * lam)
    want = assert_matches_eigvals(schur, n, t)
    assert np.min(np.abs(want - 4.0)) < 1e-15
    assert np.min(np.abs(want - (2 * np.pi - 4.0))) < 1e-13
    assert hermitian_cluster(want)
    for t in (1.0, -1.0, 1j):
        assert_matches_eigvals(schur, n, t)


# ---------------------------------------------------------------------------
# above order 64: conjugate pairs at rule orders, and the two-sided sweep
# that weighs those rules, at the +-arccos points of every cosine


def real_schur(cap, n):
    """Real Schur coefficients in (-cap, cap): with a real t the zeros are closed
    under conjugation, so every zero off the real axis shares its cosine."""
    return SchurSequence(np.random.default_rng([n, round(100 * cap)]).uniform(-cap, cap, n))


def cosine_candidates(schur, n, t):
    """The points exp(+-i arccos) of every cosine of the dense CMV matrix, and its lam."""
    lam = pop_boundary(schur, n, t)
    C = cmv_matrix(schur, n, lam)
    theta = np.arccos(np.clip(0.5 * np.linalg.eigvalsh(C + C.conj().T), -1.0, 1.0))
    return np.exp(1j * np.concatenate((theta, -theta))), lam


@pytest.mark.parametrize("t", [1.0, -1.0, np.exp(0.7j)])
@pytest.mark.parametrize("n", [65, 100, 256])
@pytest.mark.parametrize("cap", [0.6, 0.9])
def test_cosine_zeros_take_each_conjugate_pair_once(cap, n, t):
    # a sign picked for each cosine by the smaller splice mismatch alone
    # returned 50 distinct nodes of 100 here: both members of a pair chose
    # the same sign.  The eigenvectors of C + C^H resolve each pair.
    schur = real_schur(cap, n)
    got = invariant_zeros(schur, n, t)
    assert len(got) == n
    assert np.min(np.diff(got)) > 1e-8
    polished, _ = mp_reference.zeros(schur.coefficients, t, got)
    assert np.max(circular_distance(got, polished)) < 1e-13
    if t in (1.0, -1.0):
        mirror = circular_distance(got[:, None], -got[None, :])
        assert np.max(np.min(mirror, axis=1)) < 1e-13


@pytest.mark.parametrize("stream", range(4))
@pytest.mark.parametrize("cap", [0.6, 0.9])
def test_in_place_sweep_matches_the_plain_reference(cap, stream):
    # one complex product per degree in place of two stored angles and a fold.
    # The forward values are szego_sweep's bit for bit, so an equal |phi_s|^2
    # is the same splice; the splice moves only where two degrees' mismatches
    # tie to rounding, and off a zero K depends on it (2e-12 relative here at
    # a candidate 20 ulp off its zero, under two OpenBLAS threads)
    schur = fixed_rule_schur(stream, cap)
    z, lam = cosine_candidates(schur, 256, 1.0)
    K, d, mod2 = _two_sided_sweep(schur, 256, z, lam)
    K0, d0, mod20 = two_sided_reference(schur, 256, z, lam)
    mis, mis0 = np.abs(d).reshape(2, 256), np.abs(d0).reshape(2, 256)
    assert np.array_equal(mis[1] < mis[0], mis0[1] < mis0[0])
    same = mod2 == mod20
    assert np.mean(same) > 0.8
    assert np.max(np.abs(K / K0 - 1.0)[same]) < 1e-13
    assert np.max(np.abs(np.abs(d) - np.abs(d0))[~same], initial=0.0) < 1e-15
    assert np.max(np.abs(d * mod2 / K - d0 * mod20 / K0)) < 1e-15


def test_cap09_n256_weights_match_the_kernel_at_polished_zeros():
    # the forward kernel was off by 1.0 relative here; at the double nodes
    # a kernel moves by 1.7e-10 per ulp, so the reference sums it at the
    # zeros polished in its own precision
    schur = fixed_rule_schur(1, 0.9)
    rule = pop_rule(schur, 256)
    angles, weights, _ = mp_reference.rule(schur.coefficients, 1.0, rule.node_angles)
    assert np.max(circular_distance(rule.node_angles, angles)) < 1e-14
    assert np.max(np.abs(rule.weights / weights - 1.0)) < 1e-11


def test_circle_zero_count_guard():
    # touches zero at theta = 0 without a sign change
    with pytest.raises(ZeroCountMismatch) as exc:
        circle_zero_angles(lambda th: 2.0 * np.cos(th) - 2.0, 1)
    assert exc.value.detail["expected"] == 1
    assert exc.value.detail["found"] == 0


def test_circle_zero_angles_empty():
    assert circle_zero_angles(lambda th: np.ones_like(th), 0).size == 0


# ---------------------------------------------------------------------------
# rules


def test_make_rule_fourth_roots():
    table, m = lebesgue_setup(4)
    for beta in (1.0, -1.0):
        rule = make_rule(table, m, make_pop(table, 4, 1.0, beta))
        assert np.allclose(rule.weights, 0.25)
        assert rule.exactness_residual < 1e-13
        start = 0.0 if beta < 0 else np.pi / 4
        assert np.allclose(rule.node_angles, start + np.pi / 2 * np.arange(4), atol=1e-11)


def test_make_rule_exactness_nontrivial():
    schur = SchurSequence([0.5, -1 / 3])
    table = build_opuc(schur, 2)
    m = moments_from_schur(schur, 2)
    rule = make_rule(table, m, make_pop(table, 2, 1.0, 1.0))
    assert rule.exactness_residual < 1e-12
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 1.0) < 1e-12


def test_rule_weights_are_unique(rng):
    # least squares on the exactness constraints recovers the kernel weights
    n = 5
    schur = random_schur(rng, n)
    table = build_opuc(schur, n)
    m = moments_from_schur(schur, n)
    rule = make_rule(table, m, make_pop(table, n, 1.0, 1.0))
    ks = np.arange(-(n - 1), n)
    A = np.exp(1j * np.outer(ks, rule.node_angles))
    b = np.array([m.get(int(k)) for k in ks])
    solved, *_ = np.linalg.lstsq(A, b, rcond=None)
    assert np.max(np.abs(solved - rule.weights)) < 1e-10


def test_perturbed_nodes_break_exactness(rng):
    n = 5
    schur = random_schur(rng, n)
    table = build_opuc(schur, n)
    m = moments_from_schur(schur, n)
    rule = make_rule(table, m, make_pop(table, n, 1.0, 1.0))
    angles = rule.node_angles.copy()
    angles[0] += 0.05
    weights = 1.0 / kernel_diag(table, n - 1, np.exp(1j * angles))
    weights = weights / weights.sum()
    assert _exactness_residual(m, angles, weights, n) > 1e-6


@pytest.mark.parametrize("n", [6, 33, 64, 256])
def test_exactness_residual_equals_the_full_window(rng, n):
    # half the window in row blocks: the defect at -k is the conjugate of the
    # one at k, bit for bit (n = 33 in fixed blocks of 32 leaves a 1-row block)
    schur = random_schur(rng, n)
    table = build_opuc(schur, n)
    m = moments_from_schur(schur, n)
    rule = make_rule(table, m, make_pop(table, n, 1.0, 1.0))
    ks = np.arange(-(n - 1), n)
    vals = np.exp(1j * np.outer(ks, rule.node_angles)) @ rule.weights
    full = float(np.max(np.abs(vals - m.window(-(n - 1), n - 1))))
    assert rule.exactness_residual == full


def test_exactness_stops_at_window_edge():
    # order-n rule cannot integrate z^n for a measure with nonzero c_n
    spec = Density(name="bernstein_szego", param=0.5)
    n = 5
    schur = SchurSequence([-0.5, 0, 0, 0, 0])
    table = build_opuc(schur, n)
    m = moments(spec, n + 1)
    rule = make_rule(table, m, make_pop(table, n, 1.0, 1.0))
    assert rule.exactness_residual < 1e-12
    assert abs(rule.apply_power(n) - m.get(n)) > 1e-6


def test_weights_via_integral_independent_of_shift():
    schur = SchurSequence([0.5, -1 / 3])
    table = build_opuc(schur, 2)
    m = moments_from_schur(schur, 2)
    rule = make_rule(table, m, make_pop(table, 2, 1.0, 1.0))
    for p in range(rule.order):
        assert np.allclose(weights_via_integral(rule, m, p), rule.weights, atol=1e-12)


def test_weights_via_integral_random(rng):
    n = 6
    schur = random_schur(rng, n)
    table = build_opuc(schur, n)
    m = moments_from_schur(schur, n)
    rule = make_rule(table, m, make_pop(table, n, np.exp(0.7j), 1.0))
    for p in range(n):
        assert np.allclose(weights_via_integral(rule, m, p), rule.weights, atol=1e-10)


def test_weights_via_integral_matches_kernel_weights_at_64():
    # nodes of the 64-point rule on 1 - cos(theta): one Vandermonde solve on
    # the moments agrees with the kernel weights to rounding at every shift
    spec = Density("one_minus_cos")
    table = schur_from_measure(spec, 64)
    m = moments(spec, 64)
    rule = make_rule(table, m, make_pop(table, 64, 1.0, 1.0))
    for p in (0, 32, 63):
        assert np.max(np.abs(weights_via_integral(rule, m, p) - rule.weights)) < 1e-12


def test_weights_via_integral_shift_bounds():
    table, m = lebesgue_setup(3)
    rule = make_rule(table, m, make_pop(table, 3, 1.0, 1.0))
    for p in (-1, 3):
        with pytest.raises(ValueError):
            weights_via_integral(rule, m, p)


def test_rule_from_sof_matches_make_rule():
    table, m = lebesgue_setup(3)
    inst = sof_f1(table, 3, 1.0)
    rule = rule_from_sof(table, m, inst)
    assert rule.order == 3
    assert np.allclose(rule.node_angles, [0.0, 2 * np.pi / 3, 4 * np.pi / 3], atol=1e-11)
    assert np.allclose(rule.weights, 1 / 3)
    assert rule.exactness_residual < 1e-12


def test_rule_from_sof_odd_member_appends_anchor():
    table, m = lebesgue_setup(5)
    seq = f_sequence(table, [1.0] * 4, 4)
    odd = seq[2]
    assert odd.index == len(odd.zeros) + 1
    rule = rule_from_sof(table, m, odd)
    assert rule.order == odd.index
    assert rule.exactness_residual < 1e-10
    assert np.any(np.abs(rule.node_angles - odd.anchor_angle) < 1e-12)


def test_rule_from_sof_refuses_an_index_its_rule_nodes_do_not_fit():
    # an order-n rule takes n zeros, or n - 1 zeros and the anchor
    table, m = lebesgue_setup(6)
    seq = f_sequence(table, 1.0, 4)
    # a ladder member that carries its rule, one that takes the anchor, a family member
    member = sof_f1(table, 3, 1.0)
    for inst in (replace(seq[3], index=2), replace(seq[2], index=5), replace(member, index=5)):
        message = f"instance with {len(inst.zeros)} zeros cannot drive an order-{inst.index} rule"
        with pytest.raises(ValueError, match=f"^{message}$"):
            rule_from_sof(table, m, inst)


def _ladder_case(kind, cap, N, rng):
    angles = 2 * np.pi * rng.random(3)
    if kind == "real":
        # real Schur parameters: conjugate zero pairs, through the cluster path
        return SchurSequence(cap * (2 * rng.random(N) - 1)), [1.0], 0.0
    schur = random_schur(rng, N, cap)
    if kind == "anchors":
        return schur, list(np.exp(1j * angles[rng.integers(0, 3, N)])), 0.0
    return schur, [np.exp(1j * angles[0])], -2.0 if kind == "omega0" else 0.0


@pytest.mark.parametrize("kind", ["one", "real", "anchors", "omega0"])
@pytest.mark.parametrize("cap", [0.3, 0.6, 0.9])
@pytest.mark.parametrize("N", [5, 48])
def test_ladder_rules_equal_the_per_member_formula_bit_for_bit(rng, kind, cap, N):
    # f_sequence weighs every member's nodes in one kernel sweep; each node
    # goes through the same operations as in a kernel_diag call of its own
    schur, anchors, omega0 = _ladder_case(kind, cap, N, rng)
    table = build_opuc(schur, N)
    m = moments_from_schur(schur, N)
    for inst in f_sequence(table, anchors, N, omega0):
        assert inst.rule_weights is not None
        assert_rule_bytes(rule_from_sof(table, m, inst), per_member_rule(table, m, inst, omega0))


def test_rule_from_sof_refuses_another_measures_table():
    rng = np.random.default_rng(5)
    schur = random_schur(rng, 8)
    table, m = build_opuc(schur, 8), moments_from_schur(schur, 8)
    seq = f_sequence(table, np.exp(0.4j), 8)
    changed = schur.coefficients.copy()
    changed[4] *= 0.5
    other = build_opuc(SchurSequence(changed), 8)
    # a member of order n reads the first n - 1 coefficients only
    for inst in seq[:5]:
        assert_rule_bytes(rule_from_sof(other, m, inst), per_member_rule(table, m, inst, 0.0))
    for inst in seq[5:] + [sof_f1(table, 7, 1.0)]:
        with pytest.raises(ValueError, match="Schur coefficients differ"):
            rule_from_sof(other, m, inst)
    with pytest.raises(ValueError, match=r"kernel degree = 7 outside 0\.\.6"):
        rule_from_sof(build_opuc(schur, 6), m, seq[7])
    with pytest.raises(MomentRangeExceeded) as exc:
        rule_from_sof(table, moments_from_schur(schur, 3), seq[5])
    assert exc.value.detail == {"index": 4, "K": 3}


def test_make_rule_refuses_another_measures_table():
    # nodes from a and weights from b gave a rule with exactness residual 0.497
    rng = np.random.default_rng(5)
    a, b = build_opuc(random_schur(rng, 4), 4), build_opuc(random_schur(rng, 4), 4)
    m = moments_from_schur(a, 4)
    with pytest.raises(ValueError, match="Schur coefficients differ"):
        make_rule(b, m, make_pop(a, 4, 1, 1))
    # a table that shares a_1..a_3 weighs the order-4 nodes as the pop's own does
    same = build_opuc(SchurSequence(np.append(a.coefficients[:3], 0.5)), 4)
    own = make_rule(a, m, make_pop(a, 4, 1, 1))
    ref = (own.node_angles, own.weights, own.exactness_residual)
    assert_rule_bytes(make_rule(same, m, make_pop(a, 4, 1, 1)), ref)


@pytest.mark.parametrize("omega0", [-2.0, 1.3, -np.pi])
@pytest.mark.parametrize("n", [5, FORWARD_KERNEL_MAX_ORDER, FORWARD_KERNEL_MAX_ORDER + 1, 80])
def test_make_rule_equals_the_per_pop_formula_bit_for_bit(rng, n, omega0):
    # the pop's zeros folded into the window and sorted, weighed by 1 / K_{n-1}
    # from a recurrence sweep to that one degree up to FORWARD_KERNEL_MAX_ORDER and
    # from the spliced sweeps with the pop's lam above it
    schur = random_schur(rng, n)
    table, m = build_opuc(schur, n), moments_from_schur(schur, n)
    pop = make_pop(table, n, np.exp(0.7j), 1.0)
    angles = np.sort(fold_angle(pop_zeros(pop, omega0), omega0))
    if n <= FORWARD_KERNEL_MAX_ORDER:
        weights = 1.0 / szego_values(table, n - 1, np.exp(1j * angles))[2]
    else:
        weights = _spliced_weights(table, angles, pop_boundary(table, n, pop.beta / pop.alpha))
    ref = (angles, weights, _exactness_residual(m, angles, weights, n))
    assert_rule_bytes(make_rule(table, m, pop, omega0), ref)


# ---------------------------------------------------------------------------
# a cap-0.9 sequence at n = 256, against the high-precision reference


def test_cap09_n256_rule_nodes_match_mpmath_roots():
    # the sign scan isolated 254 of the 256 zeros here (ZeroCountMismatch)
    schur = fixed_rule_schur(1, 0.9)
    rule = pop_rule(schur, 256)
    angles = rule.node_angles
    assert len(angles) == 256
    assert np.min(np.diff(angles)) > 0.0
    polished, _ = mp_reference.zeros(schur.coefficients, 1.0, angles)
    assert np.max(circular_distance(angles, polished)) < 1e-12


def test_cap09_moments_match_mpmath_levinson():
    # the double-precision inverse recurrence on monic coefficients was
    # 8.6e-7 off here
    schur = fixed_rule_schur(1, 0.9)
    got = moments_from_schur(schur, 255).c
    want, _ = mp_reference.levinson_moments(schur.coefficients[:255])
    assert np.max(np.abs(got - want)) < 1e-12


# sha256 of the node angles of n = 256 rules on three of the benchmark's fixed
# sequences (x86-64, numpy 2.4, OpenBLAS 0.3.31: the nodes are Rayleigh
# quotients of LAPACK eigenvectors, so another LAPACK may move their last
# bits).  Cap-0.6 streams 0 and 3 were the two passing rules nearest the 1e-9
# exactness tolerance when the forward kernel weighed them; the spliced
# weights stamp 5.7e-14 and 7.0e-14 and move by at most 1e-8 under a one-ulp node
# shift (test_guarantees.py).  Re-recorded when every order took its zeros
# from eigh of the banded C + C^H, after every node of the 11 fixed rules was
# checked within 1 ulp (8.9e-16) of mp_reference.zeros under one thread.  eigh
# at n = 200 and 256 changes its last bits with the OpenBLAS thread count, so
# the rules are computed in a child interpreter with one thread, the
# benchmark's setting, whatever the count of the test process.
NODE_DIGESTS = {
    (0.6, 0): "c57918abf9bceab2986c270f23c02b33c81d561481f2bd07d011c8eb0667e6e0",
    (0.6, 3): "4bff7d23904c1ec39b999e5148019fe570e1dc02944916fa676a4cc0ca818598",
    (0.9, 1): "c252da2c5031b151ccf7edbeab6df07f4c9b0bb860b178a7211e723289c1ee29",
}
_ONE_THREAD_DIGESTS = """
import hashlib, json, sys
from conftest import fixed_rule_schur, pop_rule
rules = [pop_rule(fixed_rule_schur(stream, cap), 256) for cap, stream in json.load(sys.stdin)]
print(json.dumps([hashlib.sha256(r.node_angles.tobytes()).hexdigest() for r in rules]))
"""


@pytest.fixture(scope="module")
def one_thread_node_digests():
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    keys = sorted(NODE_DIGESTS)
    proc = subprocess.run(
        [sys.executable, "-c", _ONE_THREAD_DIGESTS],
        input=json.dumps(keys),
        capture_output=True,
        text=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path),
        timeout=300,
        check=True,
    )
    return dict(zip(keys, json.loads(proc.stdout)))


@pytest.mark.parametrize("cap, stream", sorted(NODE_DIGESTS))
def test_n256_rule_nodes_keep_their_recorded_bits(cap, stream, one_thread_node_digests):
    assert one_thread_node_digests[cap, stream] == NODE_DIGESTS[cap, stream]


# ---------------------------------------------------------------------------
# weak convergence


def test_resolve_test_function():
    assert resolve_test_function("one") is TEST_FUNCTIONS["one"]
    f = lambda th: th
    assert resolve_test_function(f) is f
    with pytest.raises(ValueError) as exc:
        resolve_test_function("cosine")
    assert "abs_sin_half" in str(exc.value)
