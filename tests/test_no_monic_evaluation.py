"""The numeric core evaluates no monic table.

Point values come from the normalized Szego recurrence and zeros from the
CMV eigenproblem; Horner on monic coefficients is kept for output and test
oracles only.  Every library entry point below must run with polynomial
evaluation disabled.  Polynomial families are left out: they evaluate the
caller's coefficient polynomials A and B at the anchor.
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
    kernel_eval,
    make_pop,
    make_rule,
    moments_from_schur,
    second_kind,
    sof_combo,
    sof_f1,
    sof_f2,
    support_estimate,
    zero_cloud,
)


@pytest.fixture
def no_horner(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("monic table evaluated in the numeric core")

    monkeypatch.setattr(ComplexPolynomial, "__call__", refuse)
    monkeypatch.setattr(ComplexPolynomial, "at_angle", refuse)


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
    assert np.isfinite(kernel_eval(table, 10, w, np.exp(0.5j)))
