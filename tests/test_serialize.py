"""Artifact layouts and their two renderings, pinned to exact text.

Each layout is rendered from small hand-made inputs with literal floats, so
no numerics run and the expected text does not depend on the platform.  The
CLI tests at the end check that a row artifact's JSON rows and CSV rows carry
the same fields and the same values.
"""

import json

import numpy as np
import pytest

from szego_quad import serialize
from szego_quad.cli import main
from szego_quad.measures import MomentTable
from szego_quad.opuc import SchurSequence
from szego_quad.quadrature import QuadratureRule
from szego_quad.support import SupportEstimate

RULE = QuadratureRule(
    order=3,
    node_angles=np.array([-1.25, 0.5, 2.0]),
    weights=np.array([0.25, 0.5, 0.25]),
    omega0=-3.0,
    source="sof(combo(a1=1, a2=0.5, n=3))",
    exactness_residual=1.5e-16,
)
MOMENTS = MomentTable([1.0, 0.5 - 0.25j, -0.125j])
SCHUR = SchurSequence([0.5, -0.25 + 0.125j])
ZEROS = [(1, np.array([0.75])), (2, np.array([-1.5, 1.0]))]
PAIRS = [(1, 2, True, None), (2, 3, False, "zeros 0.5, 0.75 share a gap")]
SUPPORT = SupportEstimate(
    arcs=((0.5, 1.5), (3.0, 4.0)), epsilon=0.3, n_min=1, n_max=16, anchor_angles=(2.5,)
)

# the expected text, recorded from the per-format writers that the layouts replaced
RULE_CSV = (
    "k,theta,weight\n"
    "1,-1.2500000000000000e+00,2.5000000000000000e-01\n"
    "2,5.0000000000000000e-01,5.0000000000000000e-01\n"
    "3,2.0000000000000000e+00,2.5000000000000000e-01\n"
)
RULE_JSON = (
    "{\n"
    '  "order": 3,\n'
    '  "omega0": -3.0000000000000000e+00,\n'
    '  "node_angles": [\n'
    "    -1.2500000000000000e+00,\n"
    "    5.0000000000000000e-01,\n"
    "    2.0000000000000000e+00\n"
    "  ],\n"
    '  "weights": [\n'
    "    2.5000000000000000e-01,\n"
    "    5.0000000000000000e-01,\n"
    "    2.5000000000000000e-01\n"
    "  ],\n"
    '  "source": "sof(combo(a1=1, a2=0.5, n=3))",\n'
    '  "exactness_residual": 1.5000000000000000e-16\n'
    "}\n"
)
MOMENTS_CSV = (
    "k,re,im\n"
    "0,1.0000000000000000e+00,0.0000000000000000e+00\n"
    "1,5.0000000000000000e-01,-2.5000000000000000e-01\n"
    "2,-0.0000000000000000e+00,-1.2500000000000000e-01\n"
)
MOMENTS_JSON = (
    "{\n"
    '  "K": 2,\n'
    '  "moments": [\n'
    "    {\n"
    '      "k": 0,\n'
    '      "re": 1.0000000000000000e+00,\n'
    '      "im": 0.0000000000000000e+00\n'
    "    },\n"
    "    {\n"
    '      "k": 1,\n'
    '      "re": 5.0000000000000000e-01,\n'
    '      "im": -2.5000000000000000e-01\n'
    "    },\n"
    "    {\n"
    '      "k": 2,\n'
    '      "re": -0.0000000000000000e+00,\n'
    '      "im": -1.2500000000000000e-01\n'
    "    }\n"
    "  ]\n"
    "}\n"
)
SCHUR_CSV = (
    "n,re,im\n"
    "1,5.0000000000000000e-01,0.0000000000000000e+00\n"
    "2,-2.5000000000000000e-01,1.2500000000000000e-01\n"
)
SCHUR_JSON = (
    "{\n"
    '  "n_max": 2,\n'
    '  "coefficients": [\n'
    "    {\n"
    '      "n": 1,\n'
    '      "re": 5.0000000000000000e-01,\n'
    '      "im": 0.0000000000000000e+00\n'
    "    },\n"
    "    {\n"
    '      "n": 2,\n'
    '      "re": -2.5000000000000000e-01,\n'
    '      "im": 1.2500000000000000e-01\n'
    "    }\n"
    "  ]\n"
    "}\n"
)
ZEROS_CSV = (
    "n,k,theta\n"
    "1,1,7.5000000000000000e-01\n"
    "2,1,-1.5000000000000000e+00\n"
    "2,2,1.0000000000000000e+00\n"
)
ZEROS_JSON = (
    "{\n"
    '  "zeros": [\n'
    "    {\n"
    '      "n": 1,\n'
    '      "k": 1,\n'
    '      "theta": 7.5000000000000000e-01\n'
    "    },\n"
    "    {\n"
    '      "n": 2,\n'
    '      "k": 1,\n'
    '      "theta": -1.5000000000000000e+00\n'
    "    },\n"
    "    {\n"
    '      "n": 2,\n'
    '      "k": 2,\n'
    '      "theta": 1.0000000000000000e+00\n'
    "    }\n"
    "  ]\n"
    "}\n"
)
PAIRS_CSV = (
    "n,next,status,witness\n"
    "1,2,pass,\n"
    "2,3,fail,zeros 0.5; 0.75 share a gap\n"
)
PAIRS_JSON = (
    "{\n"
    '  "pairs": [\n'
    "    {\n"
    '      "n": 1,\n'
    '      "next": 2,\n'
    '      "status": "pass",\n'
    '      "witness": null\n'
    "    },\n"
    "    {\n"
    '      "n": 2,\n'
    '      "next": 3,\n'
    '      "status": "fail",\n'
    '      "witness": "zeros 0.5, 0.75 share a gap"\n'
    "    }\n"
    "  ]\n"
    "}\n"
)
SUPPORT_JSON = (
    "{\n"
    '  "arcs": [\n'
    "    [\n"
    "      5.0000000000000000e-01,\n"
    "      1.5000000000000000e+00\n"
    "    ],\n"
    "    [\n"
    "      3.0000000000000000e+00,\n"
    "      4.0000000000000000e+00\n"
    "    ]\n"
    "  ],\n"
    '  "epsilon": 2.9999999999999999e-01,\n'
    '  "n_max": 16,\n'
    '  "anchors": [\n'
    "    2.5000000000000000e+00\n"
    "  ]\n"
    "}\n"
)


@pytest.mark.parametrize(
    "layout, artifact, csv, doc",
    [
        ("rule", RULE, RULE_CSV, RULE_JSON),
        ("moments", MOMENTS, MOMENTS_CSV, MOMENTS_JSON),
        ("schur", SCHUR, SCHUR_CSV, SCHUR_JSON),
        ("zero_rows", ZEROS, ZEROS_CSV, ZEROS_JSON),
        ("interlace", PAIRS, PAIRS_CSV, PAIRS_JSON),
        ("support", SUPPORT, None, SUPPORT_JSON),
    ],
)
def test_layout_renders_the_pinned_text(layout, artifact, csv, doc):
    table, document = getattr(serialize, layout)(artifact)
    assert (None if table is None else serialize.csv_text(*table)) == csv
    assert serialize.json_text(document) == doc


def test_empty_row_artifact_keeps_its_header_and_key():
    table, doc = serialize.zero_rows([])
    assert serialize.csv_text(*table) == "n,k,theta\n"
    assert serialize.json_text(doc) == '{\n  "zeros": []\n}\n'


def test_csv_cells():
    # floats through fmt_float, None as empty, a comma inside text as ';'
    rows = [(1, np.float64(0.5), None, "a,b"), (np.int64(2), -0.0, "", "c")]
    assert serialize.csv_text(("i", "x", "y", "s"), rows) == (
        "i,x,y,s\n1,5.0000000000000000e-01,,a;b\n2,-0.0000000000000000e+00,,c\n"
    )


# ---------------------------------------------------------------------------
# the CLI: a row artifact's JSON rows are its CSV rows


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value).replace(",", ";")


@pytest.mark.parametrize(
    "argv, key",
    [
        (["moments", "--n", "4"], "moments"),
        (["schur", "--n-max", "5"], "coefficients"),
        (["zeros", "--n-max", "4", "--anchor-angle", "0.7"], "zeros"),
        (["interlace", "--n-max", "5", "--a2", "0.5"], "pairs"),
        (["fsequence", "--n-max", "4"], "zeros"),
    ],
)
def test_json_rows_equal_csv_rows(capsys, argv, key):
    measure = ["--measure", '{"variant": "density", "name": "bernstein_szego", "param": 0.4}']
    assert main([*argv, *measure]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert main([*argv, *measure, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)[key]
    assert rows
    assert [list(row) for row in rows] == [header.split(",")] * len(rows)
    assert [[_cell(v) for v in row.values()] for row in rows] == [
        line.split(",") for line in lines
    ]
