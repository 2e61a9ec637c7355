"""The high-precision reference: its precision check runs, and it is the only one.

Every test that needs more than double precision calls tests/mp_reference.py,
so a second copy of a high-precision recurrence, with a precision of its own
that nothing checks, fails here by its mpmath import.
"""

import ast
import pathlib

import numpy as np
import pytest

import mp_reference
from szego_quad import SchurSequence, moments_from_schur

TESTS = pathlib.Path(__file__).resolve().parent
COEFFS = [0.5, -0.3j, 0.2 + 0.4j]


def test_only_the_reference_imports_mpmath():
    importers = []
    for path in sorted(TESTS.glob("*.py")):
        if path.name == "mp_reference.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "mpmath" for m in modules):
                importers.append(path.name)
    assert not importers


FIFTH_ROOTS = (2 * np.arange(5) + 1) * np.pi / 5


def rule_of_z5_plus_1():
    angles, weights, bits = mp_reference.rule(np.zeros(5), 1.0, FIFTH_ROOTS + 0.01)
    return np.concatenate((angles, weights)), bits


# each function on a small input with a closed form or a double-precision twin
CASES = {
    "szego": (
        lambda: mp_reference.szego([0.5], np.exp(0.4j)),
        [np.exp(0.4j) + 0.5, 1 + 0.5 * np.exp(0.4j), 1.0, 0.5],
    ),
    # Phi_5 = z^5 and Phi_5* = 1: the zeros of z^5 + 1, from starts 0.01 off
    "zeros": (
        lambda: mp_reference.zeros(np.zeros(5), 1.0, FIFTH_ROOTS + 0.01),
        FIFTH_ROOTS,
    ),
    # the same zeros, where every |Phi_k| = e_k = 1: K_4 = 5, weights 1/5
    "rule": (rule_of_z5_plus_1, np.concatenate((FIFTH_ROOTS, np.full(5, 0.2)))),
    "levinson_moments": (
        lambda: mp_reference.levinson_moments(COEFFS),
        moments_from_schur(SchurSequence(COEFFS), 3).c,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_reference_doubles_its_precision_until_two_runs_agree(name, monkeypatch):
    run, want = CASES[name]
    got, bits = run()
    assert bits == mp_reference.START_BITS
    assert np.max(np.abs(got - want)) < 1e-14
    # from 8 bits the first runs cannot agree to 1e-20, so the check must
    # reject them and double; what it accepts matches the default start
    monkeypatch.setattr(mp_reference, "START_BITS", 8)
    low, low_bits = run()
    assert 8 < low_bits <= bits
    assert np.max(np.abs(low - got)) <= 1e-15 * np.max(np.abs(got))
    # with no precision left to double into, the reference refuses
    monkeypatch.setattr(mp_reference, "MAX_BITS", 32)
    with pytest.raises(ArithmeticError, match="no two runs up to 32 bits agree"):
        run()
