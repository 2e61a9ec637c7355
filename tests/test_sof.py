"""Semi-orthogonal functions: construction, zeros, interlacing, sign probes."""

import hashlib
import inspect
from dataclasses import replace

import numpy as np
import pytest

from szego_quad import (
    ArcDensity,
    Atomic,
    ComplexPolynomial,
    Mixture,
    OffCircle,
    PhaseLeak,
    SchurSequence,
    SofFamilySpec,
    ZeroCoefficient,
    build_opuc,
    christoffel_moments,
    f_sequence,
    interlace_check,
    kernel_diag,
    moments_from_schur,
    schur_from_measure,
    second_kind,
    sof_combo,
    sof_f1,
    sof_f2,
    sof_members,
    sturm_sign_probe,
)
from szego_quad.circle import circular_distance, half_power
from szego_quad.opuc import szego_values
from szego_quad.quadrature import invariant_zeros

import mp_reference
from conftest import poly_inner, random_schur

CUBE = [0.0, 2 * np.pi / 3, 4 * np.pi / 3]


def lebesgue_table(n=6):
    return build_opuc(SchurSequence.zeros(n), n)


def random_polyseq(rng, k, w, omega0=0.0):
    # symmetrize random coefficients: p + p*(k) is self-inversive,
    # q - q*(k) is anti-self-inversive
    while True:
        p = ComplexPolynomial(rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1))
        q = ComplexPolynomial(rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1))
        A = p + p.conj_reverse(k)
        B = q - q.conj_reverse(k)
        if np.max(np.abs(A.coeffs)) > 1e-6 and abs(B(complex(w))) > 1e-6:
            return SofFamilySpec.polyseq(A, B, k, w, omega0)


# ---------------------------------------------------------------------------
# first and second kind


def test_f1_cube_roots():
    inst = sof_f1(lebesgue_table(), 3, 1.0)
    assert np.allclose(inst.zeros, CUBE, atol=1e-11)
    assert 0.0 in inst.zeros
    assert inst.n == inst.index == 3


def test_f1_rotated_anchor():
    inst = sof_f1(lebesgue_table(), 2, 1j)
    assert np.allclose(inst.zeros, [np.pi / 2, 3 * np.pi / 2], atol=1e-11)
    assert np.pi / 2 in inst.zeros


def test_f1_nontrivial_table():
    table = build_opuc(SchurSequence([0.5, -1 / 3]), 2)
    inst = sof_f1(table, 2, 1.0)
    assert len(inst.zeros) == 2
    assert 0.0 in inst.zeros
    assert np.allclose(inst.zeros, [0.0, np.pi], atol=1e-11)


def test_f1_anchor_pinned_in_shifted_window():
    inst = sof_f1(lebesgue_table(), 3, 1.0, omega0=-np.pi)
    assert 0.0 in inst.zeros


def test_f1_realization_is_real(rng):
    table = build_opuc(random_schur(rng, 5), 5)
    inst = sof_f1(table, 5, np.exp(0.4j))
    vals = inst.value(inst.zeros)
    assert vals.dtype == float
    assert np.max(np.abs(vals)) < 1e-9


def test_f1_two_arc_anchor_is_a_zero():
    # |Phi_48(w)| = 7.1e-7 equals 1e-13 max|coeff| here, which the old
    # coefficient-scaled guard read as a vanishing anchor value
    spec = Mixture(
        ((1.0, ArcDensity("uniform", (0.5, 1.5))), (1.0, ArcDensity("uniform", (3.0, 4.5))))
    )
    table = build_opuc(schur_from_measure(spec, 48), 48)
    inst = sof_f1(table, 48, np.exp(1j * 0.9705075950563139))
    assert len(inst.zeros) == 48
    assert np.min(np.diff(inst.zeros)) > 0.0
    assert inst.anchor_angle in inst.zeros
    assert abs(inst.anchor_angle - 0.9705075950563139) < 1e-15


def test_f1_arc_plus_atom_anchor_is_a_zero():
    # the anchor zero came out 4.7e-9 from the anchor, outside a fixed 1e-9
    # pinning window
    spec = Mixture(((1.0, ArcDensity("uniform", (0.5, 2.0))), (1.0, Atomic(((4.0, 1.0),)))))
    table = build_opuc(schur_from_measure(spec, 15), 15)
    assert 0.9 in sof_f1(table, 15, np.exp(0.9j)).zeros


def test_f2_square_roots_and_anchor_value():
    table = lebesgue_table()
    omegas = second_kind(SchurSequence.zeros(6), 6)
    inst = sof_f2(table, omegas, 2, 1.0)
    assert np.allclose(inst.zeros, [np.pi / 2, 3 * np.pi / 2], atol=1e-11)
    assert abs(inst.value(0.0) - 2.0) < 1e-10


def test_f2_cube_case():
    table = lebesgue_table()
    omegas = second_kind(SchurSequence.zeros(6), 6)
    inst = sof_f2(table, omegas, 3, 1.0)
    assert np.allclose(inst.zeros, [np.pi / 3, np.pi, 5 * np.pi / 3], atol=1e-11)


def test_f2_anchor_value_single_coefficient():
    schur = SchurSequence([0.5])
    table = build_opuc(schur, 1)
    inst = sof_f2(table, second_kind(schur, 1), 1, 1.0)
    assert abs(inst.value(0.0) - 1.5) < 1e-12


def test_f2_value_on_hann_arc_matches_mpmath():
    # Horner on the monic numerator was off by half the envelope here
    table = build_opuc(schur_from_measure(ArcDensity("hann", (0.0, np.pi)), 40), 40)
    inst = sof_f2(table, None, 40, np.exp(2.0j), 2.0)
    n, al = inst.n, inst.alpha
    for theta in inst.zeros:
        # f_n = -i (conj(alpha) Phi_n - alpha Phi_n*) e^{-i n theta / 2}, envelope 2 |alpha Phi_n|
        (p, s, _, _), _ = mp_reference.szego(table.coefficients[:n], np.exp(1j * theta))
        want = np.real(-1j * (np.conj(al) * p - al * s) * np.exp(-0.5j * n * theta))
        assert abs(inst.value(theta) - want) <= 1e-12 * 2 * abs(al * p)


def test_f2_anchor_value_random(rng):
    # value at the anchor is twice the squared norm, never zero
    schur = random_schur(rng, 7)
    table = build_opuc(schur, 7)
    omegas = second_kind(schur, 7)
    for n in (1, 4, 7):
        w = np.exp(1j * 2 * np.pi * rng.random())
        inst = sof_f2(table, omegas, n, w)
        assert abs(inst.value(float(np.angle(w)) % (2 * np.pi)) - 2 * table.e[n]) < 1e-10


# ---------------------------------------------------------------------------
# combinations


def test_combo_reduces_to_pure_kinds():
    table = lebesgue_table()
    omegas = second_kind(SchurSequence.zeros(6), 6)
    first = sof_combo(table, SofFamilySpec.combo(1.0, 0.0, 1.0), 3, omegas)
    assert np.allclose(first.zeros, sof_f1(table, 3, 1.0).zeros, atol=1e-11)
    second = sof_combo(table, SofFamilySpec.combo(0.0, 1.0, 1.0), 3, omegas)
    assert np.allclose(second.zeros, sof_f2(table, omegas, 3, 1.0).zeros, atol=1e-11)


def test_combo_mixed_interlaces_parents():
    table = lebesgue_table()
    omegas = second_kind(SchurSequence.zeros(6), 6)
    inst = sof_combo(table, SofFamilySpec.combo(1.0, 1.0, 1.0), 2, omegas)
    assert np.allclose(inst.zeros, [3 * np.pi / 4, 7 * np.pi / 4], atol=1e-11)
    f1z = sof_f1(table, 2, 1.0).zeros
    f2z = sof_f2(table, omegas, 2, 1.0).zeros
    assert interlace_check(inst.zeros, f1z).ok
    assert interlace_check(inst.zeros, f2z).ok


def test_combo_coefficients_must_not_both_vanish():
    with pytest.raises(ValueError):
        SofFamilySpec.combo(0.0, 0.0, 1.0)


def test_constructor_checks_every_family():
    # every check lives in the constructor, so a bare spec is checked like a preset
    with pytest.raises(TypeError):
        SofFamilySpec(w=1.0, k=2.5)
    with pytest.raises(ValueError, match="symmetry"):
        SofFamilySpec(w=1.0, A=1j)
    with pytest.raises(ValueError, match="symmetry"):
        SofFamilySpec(w=1.0, B=1.0)
    A, B = ComplexPolynomial([1.0, 1.0]), ComplexPolynomial([-1.0, 1.0])
    with pytest.raises(ValueError, match="symmetry"):
        SofFamilySpec(w=1.0, A=A, B=A, k=1)
    with pytest.raises(ValueError, match="degree"):
        SofFamilySpec(w=1.0, A=ComplexPolynomial([1.0, 0.0, 1.0]), B=B, k=1)
    with pytest.raises(ValueError, match="both vanish"):
        SofFamilySpec(w=1.0, A=0.0)
    with pytest.raises(ValueError, match="both vanish"):
        SofFamilySpec(w=1.0, A=ComplexPolynomial([0.0]), B=ComplexPolynomial([0.0, 0.0]), k=1)
    with pytest.raises(OffCircle):
        SofFamilySpec(w=1.1)
    # the presets carry no checks of their own
    for preset in (SofFamilySpec.combo, SofFamilySpec.polyseq):
        assert "raise" not in inspect.getsource(preset)
        assert "checked_int" not in inspect.getsource(preset)


def test_constructor_stores_the_folded_anchor_and_the_values_there():
    w = np.exp(-2.0j)
    A, B = ComplexPolynomial([1.0, 1.0]), ComplexPolynomial([1j, 1j])
    spec = SofFamilySpec.polyseq(A, B, 1, w, omega0=0.5)
    assert 0.5 <= spec.anchor_angle < 0.5 + 2 * np.pi
    assert abs(spec.anchor - w) < 1e-15
    assert spec.anchor == np.exp(1j * spec.anchor_angle)
    assert spec.A_w == A(spec.anchor) and spec.B_w == B(spec.anchor)
    combo = SofFamilySpec.combo(0.7, -1.3, w)
    assert (combo.A_w, combo.B_w) == (0.7, 1.3j)


def test_combo_anchored_zero_pinned():
    table = build_opuc(SchurSequence([0.3, 0.1]), 2)
    omegas = second_kind(SchurSequence([0.3, 0.1]), 2)
    inst = sof_combo(table, SofFamilySpec.combo(2.0, 0.0, 1j), 2, omegas)
    assert np.pi / 2 in inst.zeros


def test_polyseq_symmetry_validation():
    B = ComplexPolynomial([-1.0, 1.0])
    with pytest.raises(ValueError, match="symmetry"):
        SofFamilySpec.polyseq(ComplexPolynomial([1.0, 2.0]), B, 1, 1.0)
    with pytest.raises(ValueError, match="symmetry"):
        SofFamilySpec.polyseq(ComplexPolynomial([1.0, 1.0]), ComplexPolynomial([1.0, 1.0]), 1, 1.0)
    with pytest.raises(ValueError, match="degree"):
        SofFamilySpec.polyseq(ComplexPolynomial([1.0, 0, 1.0]), B, 1, 1.0)


def test_polyseq_zero_coefficient():
    # both coefficient polynomials vanish at the anchor
    A = ComplexPolynomial([1j, -1j])
    B = ComplexPolynomial([-1.0, 1.0])
    spec = SofFamilySpec.polyseq(A, B, 1, 1.0)
    with pytest.raises(ZeroCoefficient) as exc:
        sof_combo(lebesgue_table(), spec, 2)
    assert exc.value.detail["n"] == 2


# ---------------------------------------------------------------------------
# several degrees from one sweep


def one_degree_alpha(table, spec, n, A, B):
    """alpha_n from recurrences run to degree n alone, on a and on -a[:n]."""
    w = np.exp(1j * spec.anchor_angle)
    root_e = np.sqrt(table.e[n])
    terms = []
    if A != 0:
        terms.append(A * complex(root_e * szego_values(table, n, w)[0]))
    if B != 0:
        flipped = SchurSequence(-table.coefficients[:n])
        terms.append(B * complex(root_e * szego_values(flipped, n, w)[0]))
    return complex(half_power(spec.anchor_angle, -(n + spec.k)) * sum(terms))


def test_sof_members_bit_identical_to_one_degree_calls(rng):
    table = build_opuc(random_schur(rng, 20, cap=0.8), 20)
    w = np.exp(2.2j)
    poly = random_polyseq(rng, 2, w, omega0=1.0)
    families = [
        (SofFamilySpec.f1(w), 1.0, 0.0),
        (SofFamilySpec.f2(w, omega0=-0.5), 0.0, -1j),
        (SofFamilySpec.combo(0.7, -1.3, w), 0.7, 1.3j),
        (poly, poly.A(w), poly.B(w)),
    ]
    degrees = (12, 3, 7, 7, 1, 18)
    for spec, A, B in families:
        members = sof_members(table, spec, degrees)
        assert [m.n for m in members] == list(degrees)
        for n, got in zip(degrees, members):
            alone = sof_combo(table, spec, n)
            assert got.alpha == alone.alpha == one_degree_alpha(table, spec, n, A, B)
            assert np.array_equal(got.zeros, alone.zeros)
            assert got.label == alone.label
            assert (got.anchor_angle, got.w) == (alone.anchor_angle, alone.w)
    assert sof_members(table, SofFamilySpec.f1(w), ()) == []
    with pytest.raises(ValueError, match=r"degree = 21 outside 1\.\.20"):
        sof_members(table, SofFamilySpec.f1(w), (4, 21))


# sha256 over (alpha, zeros, label) of the members of degrees 1..16 (x86-64,
# numpy 2.4, OpenBLAS 0.3.31: the zeros are LAPACK eigenpairs, so another
# LAPACK may move their last bits).  Re-recorded when orders up to 64 moved
# from eigvals of the CMV matrix to eigh of its Hermitian part: the alphas
# kept their bits, and 224 of the 544 zeros moved by at most 1.8e-15 rad.
# Re-recorded when rho and e came to be formed once in SchurSequence with the
# vectorised np.abs (the sweep and the norms used the scalar abs): 55 of the
# 64 alphas moved by at most 1.2e-15 relative, and 89 of the 544 zeros by at
# most 1.8e-15 rad.  Re-recorded when eigh came to read the Hermitian band
# filled from the bands of C in place of the dense C + C^H of L M: the alphas
# kept their bits, and 61 of the 544 zeros moved by at most 8.9e-16 rad.
FAMILY_DIGESTS = {
    "f1": "54b8c59f74f41a2085e946bbb86b3fb6202f2a8dce77c3834226166e322d5263",
    "f2": "028a9ef841a35991caa53286f2a87dd5447cbaf51f333c756e682969a83a295d",
    "combo": "79b4018246a04b0eafd6227a043746a6ac4ea594d9c9ed2ce769c24d916de8ba",
    "polyseq": "36f95665176c094cccaa88dd4770e82c2ac569278c7bde9668589cd56986a292",
}


def test_family_members_keep_their_recorded_bits():
    decay = np.linspace(1.0, 0.5, 16)
    table = build_opuc(SchurSequence(0.6 * np.exp(0.7j * np.arange(16)) * decay), 16)
    w = np.exp(2.2j)
    p = ComplexPolynomial([1 + 2j, -0.5 + 1j, 0.3 - 0.4j])
    q = ComplexPolynomial([0.2 - 1j, 1.5 + 0.5j, -0.7 + 0.1j])
    families = {
        "f1": SofFamilySpec.f1(w),
        "f2": SofFamilySpec.f2(w, omega0=-0.5),
        "combo": SofFamilySpec.combo(0.7, -1.3, w),
        "polyseq": SofFamilySpec.polyseq(
            p + p.conj_reverse(2), q - q.conj_reverse(2), 2, w, omega0=1.0
        ),
    }
    tags = {
        "f1": "f1(",
        "f2": "f2(",
        "combo": "combo(a1=0.7, a2=-1.3, ",
        "polyseq": "polyseq(k=2, ",
    }
    for name, spec in families.items():
        members = sof_members(table, spec, range(1, 17))
        assert [m.label for m in members] == [f"{tags[name]}n={n})" for n in range(1, 17)]
        digest = hashlib.sha256()
        for m in members:
            digest.update(np.complex128(m.alpha).tobytes())
            digest.update(m.zeros.tobytes())
            digest.update(m.label.encode())
        assert digest.hexdigest() == FAMILY_DIGESTS[name], name


def test_f_sequence_groups_members_by_anchor(rng):
    table = build_opuc(random_schur(rng, 10), 10)
    anchors = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
    ws = [anchors[i % 3] for i in range(10)]
    for idx, inst in enumerate(f_sequence(table, ws, 10)[1:], start=2):
        alone = sof_f1(table, idx, ws[idx - 1])
        assert inst.alpha == alone.alpha
        keep = alone.zeros if idx % 2 == 0 else np.delete(
            alone.zeros, np.argmin(circular_distance(alone.zeros, alone.anchor_angle))
        )
        assert np.array_equal(inst.zeros, keep)


# ---------------------------------------------------------------------------
# second-kind members against the high-precision reference


def reference_member_zeros(coeffs, n, angle, A, B):
    """Zeros of the member alpha = w^{-n/2} (A Phi_n(w) + B Omega_n(w)), w = e^{i angle}:
    the zeros of Phi_n + t Phi_n*, t = -alpha / conj(alpha), polished by the
    reference from the CMV eigenvalues for t, with Phi_n(w) and Omega_n(w) from
    the reference on a and -a."""
    coeffs = coeffs[:n]
    w = np.exp(1j * angle)
    phi, omega = (mp_reference.szego(coeffs, w, sign)[0][0] for sign in (1, -1))
    alpha = np.exp(-0.5j * n * angle) * (A * phi + B * omega)
    t = -alpha / np.conj(alpha)
    return mp_reference.zeros(coeffs, t, invariant_zeros(SchurSequence(coeffs), n, t))[0]


@pytest.mark.parametrize("measure", ["half_circle", "geronimus_0.9"])
def test_second_kind_members_match_mpmath(measure):
    # Omega_n(w) from Horner on the monic second-kind table put these zeros
    # up to 1.3e-4 (half circle) and 0.52 rad (Geronimus) off
    if measure == "half_circle":
        schur = schur_from_measure(ArcDensity("uniform", (0.0, np.pi)), 40)
    else:
        schur = SchurSequence(np.full(40, 0.9))
    table = build_opuc(schur, 40)
    omegas = second_kind(schur, 40)
    for angle in (0.7, 2.0, 3.1):
        w = np.exp(1j * angle)
        for inst, (A, B) in (
            (sof_f2(table, omegas, 40, w), (0, -1j)),
            (sof_combo(table, SofFamilySpec.combo(0.7, -1.2, w), 40, omegas), (0.7, 1.2j)),
        ):
            want = reference_member_zeros(schur.coefficients, 40, angle, A, B)
            assert len(inst.zeros) == 40
            dist = circular_distance(want[:, None], inst.zeros[None, :]).min(axis=1)
            assert np.max(dist) < 1e-12, (inst.label, angle, np.max(dist))


def test_conjugate_pair_members_match_mpmath():
    # real Schur parameters and the anchor -1 make every t real, so the zeros
    # come in conjugate pairs that share an eigenvalue of C + C^H: the cluster
    # path of the solver
    n_top = 64
    schur = SchurSequence(0.9 * np.cos(1.3 * np.arange(n_top)))
    table = build_opuc(schur, n_top)
    for inst in sof_members(table, SofFamilySpec.f1(-1.0), (16, 41, n_top)):
        want = reference_member_zeros(schur.coefficients, inst.n, np.pi, 1, 0)
        assert len(inst.zeros) == inst.n
        assert np.min(np.diff(np.sort(want))) > 1e-6
        dist = circular_distance(want[:, None], inst.zeros[None, :]).min(axis=1)
        assert np.max(dist) < 1e-12, (inst.label, np.max(dist))


# ---------------------------------------------------------------------------
# numerator structure


def test_numerator_is_one_invariant(rng):
    schur = random_schur(rng, 6)
    table = build_opuc(schur, 6)
    omegas = second_kind(schur, 6)
    w = np.exp(1.3j)
    for inst in (
        sof_f1(table, 5, w),
        sof_f2(table, omegas, 5, w),
        sof_combo(table, SofFamilySpec.combo(0.7, -1.2, w), 5, omegas),
    ):
        n = inst.n
        resid = (inst.numerator.conj_reverse(n) - inst.numerator).padded(n + 1)
        assert np.max(np.abs(resid)) < 1e-12 * np.max(np.abs(inst.numerator.coeffs))


def test_numerator_para_orthogonality(rng):
    # <N, z^k> vanishes strictly inside 0..n, never at the endpoints
    schur = random_schur(rng, 6)
    table = build_opuc(schur, 6)
    m = moments_from_schur(schur, 6)
    n = 5
    inst = sof_f1(table, n, np.exp(0.9j))
    num = inst.numerator.coeffs
    for k in range(n + 1):
        val = abs(poly_inner(num, ComplexPolynomial.monomial(k).coeffs, m.get))
        if 0 < k < n:
            assert val < 1e-10
        else:
            assert val > 1e-6


def test_coefficient_recurrence_identities(rng):
    # alpha_n = beta_n + a_n conj(beta_n) with
    # beta_n = (e_{n-1}/e_n)(alpha_n - a_n conj(alpha_n)), and the numerator
    # drops to degree n-1 data through the same beta_n
    schur = random_schur(rng, 6)
    table = build_opuc(schur, 6)
    for n in (2, 4, 6):
        inst = sof_f1(table, n, np.exp(1j * 2 * np.pi * rng.random()))
        alpha = inst.alpha
        a_n = schur.a(n)
        beta = (table.e[n - 1] / table.e[n]) * (alpha - a_n * np.conj(alpha))
        assert abs(alpha - (beta + a_n * np.conj(beta))) < 1e-10
        lowered = (
            (table.e[n] / table.e[n - 1])
            * (-1j)
            * (np.conj(beta) * table.phi[n - 1].shifted(1) - beta * table.phi_star[n - 1])
        )
        assert np.allclose(lowered.padded(n + 1), inst.numerator.padded(n + 1), atol=1e-12)


# ---------------------------------------------------------------------------
# alternating sequence


def test_f_sequence_lebesgue_members():
    seq = f_sequence(lebesgue_table(), [1.0] * 5, 5)
    assert [inst.label for inst in seq] == ["F_1", "F_2", "F_3", "F_4", "F_5"]
    assert seq[0].zeros.size == 0
    assert np.allclose(seq[0].numerator.coeffs, [1.0])
    assert np.allclose(seq[1].zeros, [0.0, np.pi], atol=1e-11)
    assert np.allclose(seq[2].zeros, [2 * np.pi / 3, 4 * np.pi / 3], atol=1e-11)
    assert np.allclose(seq[3].zeros, [0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-11)


def test_f_sequence_scalar_anchor_broadcasts():
    a = f_sequence(lebesgue_table(), 1.0, 4)
    b = f_sequence(lebesgue_table(), [1.0] * 4, 4)
    for x, y in zip(a, b):
        assert np.allclose(x.zeros, y.zeros, atol=1e-12)


def test_f_sequence_odd_members_recover_first_kind(rng):
    # zeros of F_{2k+1} plus the anchor match f1 at the same order
    schur = random_schur(rng, 6, cap=0.5)
    table = build_opuc(schur, 6)
    w = np.exp(0.7j)
    seq = f_sequence(table, [w] * 5, 5)
    for idx in (3, 5):
        inst = seq[idx - 1]
        assert inst.index == idx
        assert len(inst.zeros) == idx - 1
        aug = np.sort(np.append(inst.zeros, inst.anchor_angle))
        ref = np.sort(sof_f1(table, idx, w).zeros)
        assert np.allclose(aug, ref, atol=1e-9)


def test_rule_nodes_take_the_anchor_back_for_f1_and_odd_members(rng):
    # F_1 and the odd ladder members belong to |z - w|^2 d(mu) and take the
    # anchor back as a rule node; the even members and family members do not
    table = build_opuc(random_schur(rng, 6, cap=0.5), 6)
    w = np.exp(0.7j)
    seq = f_sequence(table, w, 6, -2.0)
    anchor = seq[0].anchor_angle
    assert seq[0].rule_nodes.tolist() == [anchor]
    for inst in seq[1:]:
        want = np.append(inst.zeros, anchor) if inst.index % 2 else inst.zeros
        assert len(want) == inst.index
        assert inst.rule_nodes.tobytes() == want.tobytes()
    for inst in sof_members(table, SofFamilySpec.combo(1.0, 0.5, w), range(1, 7)):
        assert inst.rule_nodes.tobytes() == inst.zeros.tobytes()


def test_f_sequence_odd_numerator_orthogonal_for_modified_measure(rng):
    schur = random_schur(rng, 6, cap=0.5)
    table = build_opuc(schur, 6)
    w = np.exp(0.7j)
    seq = f_sequence(table, [w] * 5, 5)
    inst = seq[4]
    modified = christoffel_moments(moments_from_schur(schur, 6), w)
    num = inst.numerator.coeffs
    for k in range(1, inst.n):
        assert abs(poly_inner(num, ComplexPolynomial.monomial(k).coeffs, modified.get)) < 1e-9


def horner_value(inst, theta):
    return np.real(inst.numerator.at_angle(theta) * np.exp(-0.5j * inst.n * theta))


def horner_sturm(f_next, f_cur, theta):
    z = np.exp(1j * theta)
    slope = 1j * z * f_next.numerator.derivative()(z) * np.exp(-0.5j * f_next.n * theta)
    return np.real(slope * f_cur.numerator(z) * np.exp(-0.5j * f_cur.n * theta))


def test_f_sequence_odd_members_match_deflated_numerator(rng):
    # the deflated first-kind numerator, evaluated by Horner, is the oracle
    # for the recurrence values of every member, the anchor included
    for _ in range(3):
        table = build_opuc(random_schur(rng, 12, cap=0.5), 12)
        seq = f_sequence(table, np.exp(2j * np.pi * rng.random()), 12)
        anchor = seq[0].anchor_angle
        theta = np.append(2 * np.pi * rng.random(32), [anchor, anchor + 2 * np.pi])
        for cur, nxt in zip(seq, seq[1:]):
            want = horner_value(nxt, theta)
            assert np.max(np.abs(nxt.value(theta) - want)) <= 1e-12 * np.max(np.abs(want))
            probes = sturm_sign_probe(nxt, cur)
            shared = circular_distance(nxt.zeros[:, None], cur.zeros[None, :]) <= 1e-9
            zeros = nxt.zeros[~shared.any(axis=1)] if len(cur.zeros) else nxt.zeros
            want = horner_sturm(nxt, cur, zeros)
            assert len(probes) == len(want)
            assert np.max(np.abs(probes - want) / np.abs(want)) < 1e-11


def test_f_sequence_folds_each_anchor_once():
    # folding the anchor a second time moves this angle by one ulp
    seq = f_sequence(lebesgue_table(), np.exp(-9.180529521276107j), 6)
    assert {inst.anchor_angle for inst in seq} == {seq[1].anchor_angle}
    assert {inst.w for inst in seq} == {seq[1].w}


def test_f_sequence_guards():
    with pytest.raises(ValueError):
        f_sequence(lebesgue_table(), [1.0], 0)
    with pytest.raises(ValueError):
        f_sequence(lebesgue_table(3), [1.0] * 5, 5)
    with pytest.raises(ValueError):
        f_sequence(lebesgue_table(), [1.0, 1.0], 4)


# ---------------------------------------------------------------------------
# interlacing


def test_interlace_accepts_offset_pairs():
    assert interlace_check([np.pi], [2 * np.pi / 3, 4 * np.pi / 3]).ok
    assert interlace_check([np.pi / 2, 3 * np.pi / 2], [0.0, np.pi]).ok


def test_interlace_rejects_with_witness():
    result = interlace_check([1.0, 1.1], [1.05, 2.0, 3.0])
    assert not result.ok
    assert "consecutive" in result.witness
    counts = interlace_check([1.0], [2.0, 3.0, 4.0])
    assert not counts.ok
    assert "counts" in counts.witness
    coincident = interlace_check([1.0, 2.0], [1.0, 3.0])
    assert not coincident.ok
    assert "coincident" in coincident.witness


def test_interlace_trivial_and_anchor_removal():
    assert interlace_check([], []).ok
    assert interlace_check([1.0], [2.0]).ok
    # consecutive first-kind members share only the anchor
    f2z = sof_f1(lebesgue_table(), 2, 1.0).zeros
    f3z = sof_f1(lebesgue_table(), 3, 1.0).zeros
    assert not interlace_check(f3z, f2z).ok
    assert interlace_check(f3z, f2z, exclude_anchor=0.0).ok


def test_consecutive_polyseq_members_interlace(rng):
    # the window must be anchored at arg(w): the Sturm factor
    # sin((omega0 - theta)/2) keeps one sign only there
    for _ in range(6):
        n_top = int(rng.integers(4, 9))
        schur = random_schur(rng, n_top, cap=0.55)
        table = build_opuc(schur, n_top)
        omegas = second_kind(schur, n_top)
        angle = float(2 * np.pi * rng.random())
        spec = random_polyseq(rng, 2, np.exp(1j * angle), omega0=angle)
        insts = [sof_combo(table, spec, n, omegas) for n in range(1, n_top + 1)]
        for cur, nxt in zip(insts, insts[1:]):
            result = interlace_check(nxt.zeros, cur.zeros, angle)
            assert result.ok, result.witness


def test_anchor_dichotomy(rng):
    # vanishing second-kind part pins the anchor; a nonvanishing one
    # repels it
    schur = random_schur(rng, 6, cap=0.5)
    table = build_opuc(schur, 6)
    omegas = second_kind(schur, 6)
    w = np.exp(0.9j)
    angle = 0.9
    spec = random_polyseq(rng, 2, w)
    for n in range(2, 7):
        pinned = sof_f1(table, n, w)
        assert np.min(np.abs(pinned.zeros - angle)) < 1e-12
        repelled = sof_combo(table, spec, n, omegas)
        assert np.min(np.abs(repelled.zeros - angle)) > 1e-6


def test_proportional_pairs_share_zeros_nondegenerate_pairs_interlace(rng):
    schur = random_schur(rng, 5)
    table = build_opuc(schur, 5)
    omegas = second_kind(schur, 5)
    g = sof_combo(table, SofFamilySpec.combo(1.0, 2.0, 1.0), 5, omegas)
    h = sof_combo(table, SofFamilySpec.combo(3.0, 1.0, 1.0), 5, omegas)
    assert interlace_check(g.zeros, h.zeros).ok
    scaled = sof_combo(table, SofFamilySpec.combo(2.0, 4.0, 1.0), 5, omegas)
    assert np.allclose(g.zeros, scaled.zeros, atol=1e-11)


# ---------------------------------------------------------------------------
# sign probes


def test_sturm_probe_consecutive_first_kind_constant_sign():
    table = lebesgue_table()
    probes = sturm_sign_probe(sof_f1(table, 3, 1.0), sof_f1(table, 2, 1.0))
    assert len(probes) == 2
    assert np.all(probes < 0) or np.all(probes > 0)


def test_sturm_probe_matches_kernel_diagonal(rng):
    # pairing first against second kind gives 2 e_n^2 K_{n-1} at each zero
    for schur in (SchurSequence.zeros(6), random_schur(rng, 6)):
        table = build_opuc(schur, 6)
        omegas = second_kind(schur, 6)
        w = np.exp(1j * 2 * np.pi * rng.random())
        for n in (2, 4, 6):
            f1 = sof_f1(table, n, w)
            f2 = sof_f2(table, omegas, n, w)
            probes = sturm_sign_probe(f1, f2)
            want = 2 * table.e[n] ** 2 * kernel_diag(table, n - 1, np.exp(1j * f1.zeros))
            assert np.all(probes > 0)
            assert np.max(np.abs(probes - want) / want) < 1e-8


def half_circle_schur():
    return schur_from_measure(ArcDensity("uniform", (0.0, np.pi)), 40)


def geronimus_schur():
    return SchurSequence(np.full(40, 0.9))


@pytest.mark.parametrize(
    "make_schur, n, angle",
    [
        (half_circle_schur, 30, 2.0),
        (half_circle_schur, 40, 2.0),
        (geronimus_schur, 20, 3.1),
        (geronimus_schur, 40, 3.1),
    ],
)
def test_sturm_probe_arc_sequences_match_kernel(make_schur, n, angle):
    # the derivative of the monic numerator, evaluated by Horner, leaked an
    # imaginary part of 7e-6 up to 1 here and raised a false PhaseLeak
    table = build_opuc(make_schur(), 40)
    w = np.exp(1j * angle)
    f1 = sof_f1(table, n, w, omega0=angle)
    probes = sturm_sign_probe(f1, sof_f2(table, None, n, w, omega0=angle))
    want = 2 * table.e[n] ** 2 * kernel_diag(table, n - 1, np.exp(1j * f1.zeros))
    assert len(probes) == n
    assert np.all(probes > 0)
    assert np.max(np.abs(probes - want) / want) < 1e-11


def test_sturm_probe_window_mismatch():
    table = lebesgue_table()
    a = sof_f1(table, 3, 1.0)
    b = sof_f1(table, 2, 1.0, omega0=-np.pi)
    with pytest.raises(ValueError):
        sturm_sign_probe(a, b)


def test_sturm_probe_phase_leak():
    table = lebesgue_table()
    cur = sof_f1(table, 2, 1.0)
    nxt = sof_f1(table, 3, 1.0)
    # a coefficient turned by e^{i pi / 4} disagrees with the zeros it came with
    tampered = replace(nxt, alpha=nxt.alpha * np.exp(0.25j * np.pi))
    with pytest.raises(PhaseLeak) as exc:
        sturm_sign_probe(tampered, cur)
    assert exc.value.detail["leak"] > 1e-7
