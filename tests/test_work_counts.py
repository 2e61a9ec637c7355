"""Work counts of the support and family paths, counted rather than timed.

A support estimate reads the degrees n_min..n_max of each anchor's family,
so it solves one CMV eigenproblem per anchor and read degree, and a family
takes all its anchor values from one recurrence sweep per anchor.  It makes
one pass over those zero sets: one epsilon-dilation per anchor and read
degree, one for the balls of the isolated anchors, and no zero cloud.  The
counters wrap the zero solver the families call, numpy's general eigensolver
(which serves orders above quadrature.HERMITIAN_MAX_ORDER), the sweep the
families call and the dilation.
"""

import numpy as np
import pytest

import szego_quad.sof as sof
import szego_quad.support as sup
from szego_quad import (
    ArcDensity,
    SchurSequence,
    build_opuc,
    f_sequence,
    make_pop,
    make_rule,
    moments_from_schur,
    support_estimate,
)


@pytest.fixture
def counts(monkeypatch):
    tally = {"solves": 0, "eigvals": 0, "sweeps": 0, "dilations": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            tally[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(sof, "invariant_zeros", counted(sof.invariant_zeros, "solves"))
    monkeypatch.setattr(np.linalg, "eigvals", counted(np.linalg.eigvals, "eigvals"))
    monkeypatch.setattr(sof, "szego_sweep", counted(sof.szego_sweep, "sweeps"))
    monkeypatch.setattr(sup, "_eps_union", counted(sup._eps_union, "dilations"))
    return tally


def test_support_estimate_solves_only_the_degrees_it_reads(counts):
    anchors = np.exp(1j * np.array([0.3, 3.5]))
    est = support_estimate(ArcDensity("uniform", (1.0, 2.5)), anchors, 16, 0.3)
    assert est.n_min == 8
    assert counts["solves"] == 2 * 9
    assert counts["sweeps"] == 2
    assert counts["dilations"] == 2 * 9 + 1


def test_support_estimate_builds_no_zero_cloud(counts, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("zero cloud built by support_estimate")

    monkeypatch.setattr(sup, "ZeroCloud", refuse)
    monkeypatch.setattr(sup, "zero_cloud", refuse)
    anchors = np.exp(1j * np.array([0.3, 1.7, 3.5]))
    est = support_estimate(ArcDensity("uniform", (1.0, 2.5)), anchors, 12, 0.3, n_min=4)
    assert est.arcs
    assert counts["dilations"] == 3 * 9 + 1


def test_f_sequence_runs_one_anchor_sweep(counts):
    schur = SchurSequence(0.5 * np.exp(0.7j * np.arange(24)))
    seq = f_sequence(build_opuc(schur, 24), np.exp(1.1j), 24)
    assert len(seq) == 24
    assert counts["sweeps"] == 1
    assert counts["solves"] == 23


def test_support_estimate_checks_epsilon_before_numerics(counts):
    with pytest.raises(ValueError, match="finite"):
        support_estimate(ArcDensity("uniform", (1.0, 2.5)), [1.0], 16, float("nan"))
    assert counts["solves"] == counts["sweeps"] == 0


def test_order_256_rule_makes_one_general_eigensolve(counts):
    schur = SchurSequence(0.6 * np.exp(0.7j * np.arange(256)))
    table = build_opuc(schur, 256)
    rule = make_rule(table, moments_from_schur(schur, 256), make_pop(table, 256, 1.0, 1.0))
    assert rule.order == 256
    assert counts["eigvals"] == 1
