"""Property tests for the alternating ladder over random Schur sequences."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from szego_quad import SchurSequence, build_opuc, f_sequence, moments_from_schur, rule_from_sof
from szego_quad.circle import circular_distance

from conftest import assert_rule_bytes, per_member_rule


@st.composite
def ladders(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    mags = draw(st.lists(st.floats(0.0, 0.8, exclude_max=True), min_size=n, max_size=n))
    phases = draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=n, max_size=n))
    anchor = draw(st.floats(0.0, 2 * np.pi))
    return SchurSequence(np.array(mags) * np.exp(1j * np.array(phases))), anchor


@settings(max_examples=25, deadline=None, database=None)
@given(ladders())
def test_every_ladder_member_drives_a_positive_exact_rule(ladder):
    schur, anchor = ladder
    n = schur.max_order
    table = build_opuc(schur, n)
    m = moments_from_schur(schur, n)
    for inst in f_sequence(table, np.exp(1j * anchor), n)[1:]:
        rule = rule_from_sof(table, m, inst)
        assert_rule_bytes(rule, per_member_rule(table, m, inst, 0.0))
        assert np.all(rule.weights > 0)
        assert abs(rule.weights.sum() - 1.0) < 1e-10
        assert rule.exactness_residual < 1e-9
        if inst.index % 2:
            assert len(inst.zeros) == inst.index - 1
            assert np.all(circular_distance(inst.zeros, inst.anchor_angle) > 1e-9)
