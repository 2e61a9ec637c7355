"""A ledger of the paper's guarantees at the degrees users request.

Each known defect is an example marked xfail(strict=True) that names the
ROADMAP item meant to mend it.  The fix turns the example into a pass, which
strict mode reports as a failure until the fixing change removes the mark.
The tolerances are the README's: exactness of a rule at 1e-9.
"""

import numpy as np
import pytest

from szego_quad import (
    ArcDensity,
    Atomic,
    IntegrationResolution,
    Mixture,
    NotPositiveDefinite,
    SofFamilySpec,
    build_opuc,
    interlace_check,
    schur_from_measure,
    sof_members,
)
from szego_quad.quadrature import member_rule_parts, pop_boundary

from conftest import fixed_rule_schur, pop_rule


@pytest.mark.parametrize("cap, stream", [(0.9, 1), (0.6, 1)])
def test_n256_rule_is_exact_on_its_window(cap, stream):
    # the forward kernel weights stamped 0.998 at cap 0.9 and 7.5e-7 at cap 0.6
    rule = pop_rule(fixed_rule_schur(stream, cap), 256)
    assert rule.exactness_residual <= 1e-9


def test_n256_weights_absorb_a_one_ulp_node_shift():
    # the forward kernel moved these weights by 3.5e-4 relative (9.3 at cap
    # 0.9), so the last node bits decided whether the cap-0.6 stream-3 rule
    # passed 1e-9 exactness (6.5e-10 with one BLAS thread, 5.0e-9 with two)
    schur = fixed_rule_schur(1, 0.6)
    table = build_opuc(schur, 256)
    rule = pop_rule(schur, 256)
    shifted = (np.nextafter(rule.node_angles, np.inf), pop_boundary(table, 256, 1.0))
    ((angles, weights),) = member_rule_parts(table, [shifted], 0.0)
    assert np.array_equal(angles, shifted[0])
    assert np.max(np.abs(weights / rule.weights - 1.0)) <= 1e-8


@pytest.mark.xfail(
    strict=True,
    raises=IntegrationResolution,
    reason="ROADMAP item 2: value extraction drifts by 4.4e-9 at index 48 under grid doubling",
)
def test_half_circle_extraction_reaches_degree_60():
    assert schur_from_measure(ArcDensity("uniform", (0, np.pi)), 60).max_order == 60


@pytest.mark.xfail(
    strict=True,
    raises=NotPositiveDefinite,
    reason="ROADMAP item 2: value extraction on the narrow arc finds |a_27| > 1",
)
def test_narrow_hann_extraction_reaches_degree_32():
    assert schur_from_measure(ArcDensity("hann", (1, 2)), 32).max_order == 32


@pytest.mark.xfail(
    strict=True,
    raises=IntegrationResolution,
    reason="ROADMAP item 2: value extraction on the uniform arc [1, 3] drifts by 4.4e-8 "
    "at index 25 under grid doubling (every n_max from 25 to 52 fails)",
)
def test_uniform_arc_extraction_reaches_degree_32():
    assert schur_from_measure(ArcDensity("uniform", (1, 3)), 32).max_order == 32


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 7: first-kind zeros of orders 11 and 12 lie 4.1e-14 apart next to "
    "the atom at 4, below interlace_check's fixed 1e-12 coincidence rule",
)
def test_first_kind_members_interlace_next_to_an_atom():
    spec = Mixture(((1.0, ArcDensity("uniform", (0.5, 2.0))), (1.0, Atomic(((4.0, 1.0),)))))
    table = build_opuc(schur_from_measure(spec, 16), 16)
    family = SofFamilySpec.f1(np.exp(0.9j), 0.9)
    f11, f12 = sof_members(table, family, (11, 12))
    result = interlace_check(f11.zeros, f12.zeros, family.omega0, family.anchor_angle)
    assert result.ok, result.witness
