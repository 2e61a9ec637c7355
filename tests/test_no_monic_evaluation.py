"""The numeric core evaluates, and builds, no monic table.

Point values, member values and slopes come from the normalized Szego
recurrence and zeros from the CMV eigenproblem; Horner on monic coefficients
is kept for output and test oracles only.  Every library entry point below
must run with polynomial evaluation and differentiation disabled, the
integral-form weights and the members of a polynomial family included: the
family's constructor, run before the guard, is the one place that evaluates
its coefficient polynomials A and B at the anchor.  The monic Phi_n table
itself is built only when output or an oracle reads it, so the entry points
and the CLI tasks must also run with its builders disabled.
"""

import numpy as np
import pytest

from szego_quad import (
    ArcDensity,
    ComplexPolynomial,
    SchurSequence,
    SofFamilySpec,
    build_opuc,
    kernel_diag,
    f_sequence,
    make_pop,
    make_rule,
    moments_from_schur,
    rule_from_sof,
    second_kind,
    sof_combo,
    sof_f1,
    sof_f2,
    sof_members,
    sturm_sign_probe,
    support_estimate,
    weights_via_integral,
    zero_cloud,
)
from szego_quad.cli import main

SCHUR = SchurSequence(np.full(12, 0.9) * np.exp(0.3j * np.arange(12)))


@pytest.fixture
def no_horner(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("monic table evaluated in the numeric core")

    monkeypatch.setattr(ComplexPolynomial, "__call__", refuse)
    monkeypatch.setattr(ComplexPolynomial, "at_angle", refuse)
    monkeypatch.setattr(ComplexPolynomial, "derivative", refuse)


@pytest.fixture
def no_monic_table(monkeypatch):
    def refuse(self):
        raise AssertionError("monic table built in the numeric core")

    monkeypatch.setattr(SchurSequence, "phi", property(refuse))
    monkeypatch.setattr(SchurSequence, "phi_star", property(refuse))


@pytest.fixture(scope="module")
def omegas():
    # second_kind is an output path: it reads the monic table of -a
    return second_kind(SCHUR, 12)


def test_numeric_core_reads_no_monic_values(no_horner):
    schur = SchurSequence(np.full(12, 0.9) * np.exp(0.3j * np.arange(12)))
    table = build_opuc(schur, 12)
    omegas = second_kind(schur, 12)
    w = np.exp(2.0j)
    assert len(sof_f1(table, 11, w).zeros) == 11
    assert len(sof_f2(table, omegas, 11, w).zeros) == 11
    assert len(sof_combo(table, SofFamilySpec.combo(0.7, -1.2, w), 11).zeros) == 11
    cloud = zero_cloud(table, SofFamilySpec.f2(w), range(1, 12), omegas)
    assert [len(zs) for zs in cloud.zero_sets] == list(range(1, 12))
    est = support_estimate(ArcDensity("uniform", (1.0, 2.5)), np.exp([1j, 3j]), 12, 0.3)
    assert est.arcs
    rule = make_rule(table, moments_from_schur(schur, 12), make_pop(table, 12, 1.0, 1.0))
    assert rule.exactness_residual < 1e-10
    assert kernel_diag(table, 10, w) >= 1.0


@pytest.fixture(scope="module")
def polyseq_family():
    # built before the guard: A = 1 + z and B = -1 + z are evaluated here
    A, B = ComplexPolynomial([1.0, 1.0]), ComplexPolynomial([-1.0, 1.0])
    return SofFamilySpec.polyseq(A, B, 1, np.exp(2.0j))


def test_polyseq_members_read_no_coefficient_values(polyseq_family, no_horner):
    table = build_opuc(SCHUR, 12)
    members = sof_members(table, polyseq_family, range(1, 13))
    assert [len(inst.zeros) for inst in members] == list(range(1, 13))
    assert np.all(sturm_sign_probe(members[-1], members[-2]) != 0)


def test_integral_weights_read_no_monic_values(no_horner):
    table = build_opuc(SCHUR, 12)
    m = moments_from_schur(SCHUR, 12)
    rule = make_rule(table, m, make_pop(table, 12, 1.0, 1.0))
    for p in (0, 11):
        assert np.allclose(weights_via_integral(rule, m, p), rule.weights, rtol=0, atol=1e-10)


def test_member_values_and_probes_read_no_monic_values(no_horner):
    schur = SchurSequence(np.full(12, 0.9) * np.exp(0.3j * np.arange(12)))
    table = build_opuc(schur, 12)
    w = np.exp(2.0j)
    f1, f2 = sof_f1(table, 11, w), sof_f2(table, None, 11, w)
    assert np.max(np.abs(f1.value(f1.zeros))) < 1e-9
    assert np.all(sturm_sign_probe(f1, f2) > 0)
    seq = f_sequence(table, w, 12)
    theta = np.append(np.linspace(0.0, 6.0, 7), seq[0].anchor_angle)
    for cur, nxt in zip(seq, seq[1:]):
        assert np.all(np.isfinite(nxt.value(theta)))
        assert np.all(np.isfinite(sturm_sign_probe(nxt, cur)))


def test_numeric_core_builds_no_monic_table(omegas, no_monic_table, capsys):
    table = build_opuc(SCHUR, 12)
    m = moments_from_schur(SCHUR, 12)
    w = np.exp(2.0j)
    rule = make_rule(table, m, make_pop(table, 12, 1.0, 1.0))
    assert rule.exactness_residual < 1e-10
    assert len(sof_f1(table, 11, w).zeros) == 11
    assert len(sof_f2(table, omegas, 11, w).zeros) == 11
    assert len(sof_combo(table, SofFamilySpec.combo(0.7, -1.2, w), 11).zeros) == 11
    rules = [rule_from_sof(table, m, inst) for inst in f_sequence(table, w, 12)]
    assert [r.order for r in rules] == list(range(1, 13))
    cloud = zero_cloud(table, SofFamilySpec.f2(w), range(1, 12), omegas)
    assert [len(zs) for zs in cloud.zero_sets] == list(range(1, 12))
    est = support_estimate(ArcDensity("uniform", (1.0, 2.5)), np.exp([1j, 3j]), 12, 0.3)
    assert est.arcs
    for argv in (
        ["rule", "--n", "6", "--anchor-angle", "1.0"],
        ["zeros", "--n-max", "6", "--a2", "0.5"],
        ["interlace", "--n-max", "6"],
        ["fsequence", "--n-max", "7", "--anchor-angle", "0.5"],
        ["support", "--n-max", "8", "--epsilon", "0.3"],
    ):
        assert main(argv) == 0, capsys.readouterr().err
