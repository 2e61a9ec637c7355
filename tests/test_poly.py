"""Dense polynomial and Laurent helpers."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from szego_quad import ComplexPolynomial


def test_trim_and_degree():
    p = ComplexPolynomial([1.0, 2.0, 0.0, 0.0])
    assert p.degree == 1
    assert p.coeffs[-1] == 2.0
    assert ComplexPolynomial([0.0]).degree == 0


def test_call_matches_horner():
    p = ComplexPolynomial([-1 / 3, 1 / 3, 1.0])
    z = 0.3 - 0.7j
    assert abs(p(z) - (-1 / 3 + z / 3 + z * z)) < 1e-15


def test_at_angle():
    p = ComplexPolynomial([0.0, 1.0])
    theta = np.array([0.0, np.pi / 2, np.pi])
    vals = p.at_angle(theta)
    assert np.allclose(vals, np.exp(1j * theta))


def test_conj_reverse_examples():
    # coeffs [1/2, 1] -> [1, 1/2]
    p = ComplexPolynomial([0.5, 1.0])
    assert np.allclose(p.conj_reverse(1).coeffs, [1.0, 0.5])
    # z^n -> 1
    zn = ComplexPolynomial.monomial(4)
    assert np.allclose(zn.conj_reverse(4).coeffs, [1.0])
    # constant i with declared degree 2 -> -i z^2
    c = ComplexPolynomial([1j])
    assert np.allclose(c.conj_reverse(2).coeffs, [0.0, 0.0, -1j])


def test_conj_reverse_involution(rng):
    coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    p = ComplexPolynomial(coeffs)
    back = p.conj_reverse(7).conj_reverse(7)
    assert np.allclose(back.padded(8), p.padded(8))


def test_conj_reverse_requires_covering_degree():
    p = ComplexPolynomial([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        p.conj_reverse(1)


def test_arithmetic():
    p = ComplexPolynomial([1.0, 1.0])
    q = ComplexPolynomial([-1.0, 1.0])
    assert np.allclose((p * q).coeffs, [-1.0, 0.0, 1.0])
    assert np.allclose((p + q).coeffs, [0.0, 2.0])
    assert np.allclose((p - q).coeffs, [2.0])
    assert np.allclose((2.0 * p).coeffs, [2.0, 2.0])
    assert np.allclose((p * 2.0).coeffs, [2.0, 2.0])


def test_monomial():
    m = ComplexPolynomial.monomial(3, 2.0)
    assert np.allclose(m.coeffs, [0, 0, 0, 2.0])


def test_deflate_exact():
    # (z - 1)(z - i)(z + 2)
    p = ComplexPolynomial([-1.0, 1.0]) * ComplexPolynomial([-1j, 1.0]) * ComplexPolynomial([2.0, 1.0])
    q, r = p.deflate(1j)
    assert abs(r) < 1e-14
    # quotient keeps the remaining roots
    assert abs(q(1.0)) < 1e-14
    assert abs(q(-2.0)) < 1e-14


def test_deflate_remainder():
    p = ComplexPolynomial([1.0, 0.0, 1.0])  # z^2 + 1
    q, r = p.deflate(1.0)
    assert abs(r - 2.0) < 1e-14
    assert np.allclose(q.coeffs, [1.0, 1.0])


def test_derivative():
    p = ComplexPolynomial([5.0, 1.0, 3.0])
    assert np.allclose(p.derivative().coeffs, [1.0, 6.0])
    assert np.allclose(ComplexPolynomial([2.0]).derivative().coeffs, [0.0])


def test_shifted():
    p = ComplexPolynomial([1.0, 2.0])
    assert np.allclose(p.shifted(2).coeffs, [0, 0, 1.0, 2.0])


def run_fresh(probe):
    """stdout of probe run in a fresh interpreter, since this one has loaded
    numpy.polynomial for other tests."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=120,
        check=True,
    )
    return proc.stdout


def test_importing_the_cli_leaves_numpy_polynomial_unloaded():
    # only __call__ and derivative, which serve polyseq inputs, output and
    # test oracles, import it
    probe = "import sys, szego_quad.cli; print('numpy.polynomial' in sys.modules)"
    assert run_fresh(probe).strip() == "False"


RUN_PATHS = """
import contextlib, io, sys
import numpy as np
from szego_quad import (ArcDensity, Density, Mixture, f_sequence, make_pop, make_rule,
    measure_integral, moments, rule_from_sof, schur_from_measure, support_estimate)
from szego_quad.cli import TASKS, main

arc = ArcDensity("uniform", (1.0, 3.0))
specs = [arc, Density("one_minus_cos"), Mixture(((0.5, arc), (0.5, Density("uniform"))))]
for spec in specs:
    m = moments(spec, 18)
    table = schur_from_measure(spec, 8)
    measure_integral(spec, np.cos)
    make_rule(table, m, make_pop(table, 8, 1.0, 1.0))
    for inst in f_sequence(table, [np.exp(0.5j)], 8):
        rule_from_sof(table, m, inst)
    support_estimate(spec, [1.0], 8, 0.3)
measure = '{"variant": "arc_density", "name": "uniform", "arc": [1.0, 3.0]}'
argv = {
    "moments": ["--n", "4"], "schur": ["--n-max", "4"], "rule": ["--n", "4"],
    "zeros": ["--n-max", "4"], "interlace": ["--n-max", "4"], "fsequence": ["--n-max", "4"],
    "support": ["--n-max", "8", "--epsilon", "0.3"],
}
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for task in argv:
        codes.append(main([task, "--measure", measure, *argv[task]]))
print(sorted(argv) == sorted(t for t in TASKS if t != "validate"), codes)
print("numpy.polynomial" in sys.modules)
"""


def test_no_measure_rule_or_cli_run_loads_numpy_polynomial():
    # moments, extraction, reference integrals, rules, ladders and support on
    # an arc (its panels read the stored Gauss-Legendre table), a full-circle
    # density and a mixture, then every CLI task on an arc
    tasks, loaded = run_fresh(RUN_PATHS).strip().split("\n")
    assert tasks == "True [0, 0, 0, 0, 0, 0, 0]"
    assert loaded == "False"


def test_empty_coefficients_are_refused():
    with pytest.raises(ValueError, match="must not be empty"):
        ComplexPolynomial([])
