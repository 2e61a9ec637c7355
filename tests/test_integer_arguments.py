"""Every integer argument of the public API (a degree, order or count) goes
through one conversion: a float raises TypeError, where int() used to truncate
2.5 to 2, and an integer outside the argument's inclusive range raises
ValueError in one form, "name = value outside lo..hi" (an open end is left
empty).  Moment indices past the table stay MomentRangeExceeded."""

import re
from dataclasses import replace

import numpy as np
import pytest

from szego_quad import (
    ComplexPolynomial,
    Density,
    Lebesgue,
    MomentRangeExceeded,
    SchurSequence,
    SofFamilySpec,
    accumulation_set,
    build_opuc,
    circle_zero_angles,
    f_sequence,
    kernel_diag,
    make_pop,
    make_rule,
    moments,
    moments_from_schur,
    rule_from_sof,
    schur_from_measure,
    schur_from_moments,
    sof_members,
    support_estimate,
    weights_via_integral,
    zero_cloud,
)

# a table of order 4, its moments c_0..c_4, and members built on it
TABLE = SchurSequence([0.3, -0.2j, 0.1 + 0.1j, 0.05])
MOMENTS = moments_from_schur(TABLE, 4)
POP = make_pop(TABLE, 4, 1.0, 1.0)
RULE = make_rule(TABLE, MOMENTS, POP)
W = np.exp(0.4j)
MEMBER = f_sequence(TABLE, W, 4)[3]
F1 = SofFamilySpec.f1(W)
CLOUD = zero_cloud(TABLE, F1, [1, 2, 3, 4])
# A = 1 + z and B = -1 + z have the reversal symmetries at k = 1
A, B = ComplexPolynomial([1.0, 1.0]), ComplexPolynomial([-1.0, 1.0])

# (call with the argument, an integer just outside its range, the error it raises)
CASES = {
    "moments K": (lambda k: moments(Lebesgue(), k), -1, "K = -1 outside 0.."),
    "moments grid": (lambda k: moments(Density("uniform", grid=k), 2), -1, "grid = -1 outside 0.."),
    "schur_from_moments": (lambda k: schur_from_moments(MOMENTS, k), -1, "n_max = -1 outside 0.."),
    "schur_from_measure": (
        lambda k: schur_from_measure(Lebesgue(), k),
        -1,
        "n_max = -1 outside 0..",
    ),
    "moments_from_schur": (lambda k: moments_from_schur(TABLE, k), 5, "K = 5 outside 0..4"),
    "MomentTable.get": (MOMENTS.get, 5, MomentRangeExceeded),
    "MomentTable.window lo": (lambda k: MOMENTS.window(k, 0), -5, MomentRangeExceeded),
    "MomentTable.window hi": (lambda k: MOMENTS.window(0, k), 5, MomentRangeExceeded),
    "build_opuc": (lambda k: build_opuc(TABLE, k), 5, "n_max = 5 outside 0..4"),
    "make_pop": (lambda k: make_pop(TABLE, k, 1.0, 1.0), 5, "n = 5 outside 1..4"),
    "make_rule": (
        lambda k: make_rule(TABLE, MOMENTS, replace(POP, order=k)),
        6,
        "kernel degree = 5 outside 0..4",
    ),
    "rule_from_sof": (
        lambda k: rule_from_sof(TABLE, MOMENTS, replace(MEMBER, index=k)),
        6,
        "kernel degree = 5 outside 0..4",
    ),
    "weights_via_integral": (
        lambda k: weights_via_integral(RULE, MOMENTS, k),
        4,
        "shift p = 4 outside 0..3",
    ),
    "circle_zero_angles": (lambda k: circle_zero_angles(np.sin, k), -1, "count = -1 outside 0.."),
    "kernel_diag": (lambda k: kernel_diag(TABLE, k, 1.0), 5, "n = 5 outside 0..4"),
    "sof_members": (lambda k: sof_members(TABLE, F1, [1, k]), 5, "degree = 5 outside 1..4"),
    "f_sequence": (lambda k: f_sequence(TABLE, W, k), 5, "count = 5 outside 1..4"),
    "SofFamilySpec.polyseq": (
        lambda k: SofFamilySpec.polyseq(A, B, k, W),
        0,
        "symmetry degree k = 0 outside 1..",
    ),
    "zero_cloud": (lambda k: zero_cloud(TABLE, F1, [k]), 0, "degree = 0 outside 1..4"),
    "accumulation_set": (lambda k: accumulation_set(CLOUD, 0.5, k), 5, "n_min = 5 outside ..4"),
    "support_estimate n_max": (
        lambda k: support_estimate(Lebesgue(), [1.0], k, 0.3),
        0,
        "n_max = 0 outside 1..",
    ),
    "support_estimate n_min": (
        lambda k: support_estimate(Lebesgue(), [1.0], 4, 0.3, n_min=k),
        5,
        "n_min = 5 outside 1..4",
    ),
    "ComplexPolynomial.conj_reverse": (
        ComplexPolynomial([1.0, 2.0, 3.0]).conj_reverse,
        1,
        "declared_degree = 1 outside 2..",
    ),
    "ComplexPolynomial.shifted": (ComplexPolynomial([1.0]).shifted, -1, "k = -1 outside 0.."),
}


@pytest.mark.parametrize("entry", sorted(CASES))
def test_integer_arguments_share_one_contract(entry):
    call, outside, error = CASES[entry]
    with pytest.raises(TypeError):
        call(2.5)
    if isinstance(error, str):
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            call(outside)
    else:
        # past the moment table: the index and |k| <= K are named by the table
        with pytest.raises(error, match=rf"moment index {outside} outside .* <= 4"):
            call(outside)
