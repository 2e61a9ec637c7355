"""Work counts of the support and family paths, counted rather than timed.

A support estimate reads the degrees n_min..n_max of each anchor's family,
so it solves one CMV eigenproblem per anchor and read degree, and a family
takes all its anchor values from one recurrence sweep per anchor.  It makes
one pass over those zero sets: one epsilon-dilation per anchor and read
degree, one for the balls of the isolated anchors, and no zero cloud.  An
alternating ladder weighs the nodes of all its rules in one kernel sweep.
The counters wrap the zero solver the families call, numpy's general
eigenvalue solver and its Hermitian eigensolver (a zero set at any order
takes one Hermitian solve, and the general one only on clusters of
cosines), the dense CMV matrix that no library path builds, the sweep the
families call, the kernel diagonal the ladder and the rules call, and the
dilation.
"""

import tracemalloc

import numpy as np
import pytest

import szego_quad.opuc as opuc
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
    rule_from_sof,
    support_estimate,
)

from conftest import fixed_rule_schur


@pytest.fixture
def counts(monkeypatch):
    tally = {
        "solves": 0, "eigvals": 0, "eigh": 0, "cmv": 0, "sweeps": 0, "kernels": 0,
        "dilations": 0,
    }

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            tally[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(sof, "invariant_zeros", counted(sof.invariant_zeros, "solves"))
    monkeypatch.setattr(np.linalg, "eigvals", counted(np.linalg.eigvals, "eigvals"))
    monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh, "eigh"))
    monkeypatch.setattr(opuc, "cmv_matrix", counted(opuc.cmv_matrix, "cmv"))
    monkeypatch.setattr(sof, "szego_sweep", counted(sof.szego_sweep, "sweeps"))
    # kernel_diag runs its recurrence through the module's own szego_sweep
    monkeypatch.setattr(opuc, "szego_sweep", counted(opuc.szego_sweep, "kernels"))
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


def test_ladder_rules_take_one_kernel_sweep(counts):
    # f_sequence weighs the nodes of all 24 rules in one kernel_diag call,
    # and rule_from_sof reads them from the members
    schur = SchurSequence(0.5 * np.exp(0.7j * np.arange(24)))
    table = build_opuc(schur, 24)
    seq = f_sequence(table, np.exp(1.1j), 24)
    assert counts["kernels"] == 1
    m = moments_from_schur(schur, 24)
    assert [rule_from_sof(table, m, inst).order for inst in seq] == list(range(1, 25))
    assert counts["kernels"] == 1
    assert counts["sweeps"] == 1
    assert counts["solves"] == 23


def test_support_estimate_checks_epsilon_before_numerics(counts):
    with pytest.raises(ValueError, match="finite"):
        support_estimate(ArcDensity("uniform", (1.0, 2.5)), [1.0], 16, float("nan"))
    assert counts["solves"] == counts["sweeps"] == 0


def test_order_256_rule_makes_one_hermitian_eigensolve(counts):
    # the zeros of Phi_n + Phi_n* have no conjugate pair here, so no cluster
    # of cosines goes through the general solver
    schur = SchurSequence(0.6 * np.exp(0.7j * np.arange(256)))
    table = build_opuc(schur, 256)
    rule = make_rule(table, moments_from_schur(schur, 256), make_pop(table, 256, 1.0, 1.0))
    assert rule.order == 256
    assert counts["eigh"] == 1
    assert counts["eigvals"] == 0


def test_order_256_rule_builds_no_dense_cmv_matrix(counts):
    # eigh reads the band of C + C^H filled from the bands of C, and C V is
    # formed in column blocks once that matrix is freed, so the peak is eigh's
    # matrix and eigenvectors, 1 MiB each at n = 256
    schur = fixed_rule_schur(1, 0.9)
    table, m = build_opuc(schur, 256), moments_from_schur(schur, 256)
    pop = make_pop(table, 256, 1.0, 1.0)
    tracemalloc.start()
    try:
        rule = make_rule(table, m, pop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rule.order == 256
    assert counts["cmv"] == 0
    assert counts["eigh"] == 1
    assert peak <= 2.5 * 2**20
