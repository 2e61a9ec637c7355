"""Command line front end: artifacts, determinism, error contract."""

import json

import numpy as np
import pytest

from szego_quad.cli import main

TWO_ATOM = '{"variant": "atomic", "atoms": [[0.0, 0.5], [3.141592653589793, 0.5]]}'
ARC_MEASURE = '{"variant": "arc_density", "name": "uniform", "arc": [1.5707963267948966, 4.71238898038469]}'


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# happy paths


def test_rule_csv(capsys):
    rc, out, err = run(capsys, ["rule", "--n", "4"])
    assert rc == 0
    assert err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "k,theta,weight"
    assert len(lines) == 5
    for line in lines[1:]:
        assert line.endswith("2.5000000000000000e-01")


def test_rule_json(capsys):
    rc, out, _ = run(capsys, ["rule", "--n", "4", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["order"] == 4
    assert np.allclose(doc["weights"], 0.25)
    assert doc["exactness_residual"] < 1e-12


def test_moments_csv(capsys):
    rc, out, _ = run(capsys, ["moments", "--n", "3"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,re,im"
    assert len(lines) == 5
    assert lines[1].startswith("0,1.0000000000000000e+00")


def test_moments_json_measure_inline(capsys):
    measure = '{"variant": "density", "name": "bernstein_szego", "param": 0.5}'
    rc, out, _ = run(capsys, ["moments", "--measure", measure, "--n", "4", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["K"] == 4
    moments = {row["k"]: complex(row["re"], row["im"]) for row in doc["moments"]}
    for k in range(5):
        assert abs(moments[k] - 0.5**k) < 1e-12


def test_schur_json(capsys):
    measure = '{"variant": "density", "name": "bernstein_szego", "param": 0.6}'
    rc, out, _ = run(capsys, ["schur", "--measure", measure, "--n-max", "4", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["n_max"] == 4
    first = doc["coefficients"][0]
    assert abs(complex(first["re"], first["im"]) + 0.6) < 1e-10
    for row in doc["coefficients"][1:]:
        assert abs(complex(row["re"], row["im"])) < 1e-10


def test_zeros_csv(capsys):
    rc, out, _ = run(capsys, ["zeros", "--n-max", "3"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,k,theta"
    # degree n contributes n rows
    assert len(lines) == 1 + 1 + 2 + 3
    assert lines[1].startswith("1,1,")


def test_interlace_reports_pass_per_pair(capsys):
    rc, out, _ = run(capsys, ["interlace", "--n", "2", "--n-max", "6"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,next,status,witness"
    assert [line.split(",")[2] for line in lines[1:]] == ["pass"] * 4


def test_fsequence_zero_counts(capsys):
    rc, out, _ = run(capsys, ["fsequence", "--n-max", "4", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    per_index = {}
    for row in doc["zeros"]:
        per_index.setdefault(row["n"], []).append(row["theta"])
    assert 1 not in per_index
    assert len(per_index[2]) == 2
    assert len(per_index[3]) == 2
    assert len(per_index[4]) == 4
    assert np.allclose(sorted(per_index[3]), [2 * np.pi / 3, 4 * np.pi / 3], atol=1e-9)


def test_support_json(capsys):
    rc, out, _ = run(
        capsys,
        ["support", "--measure", ARC_MEASURE, "--n-max", "16", "--epsilon", "0.3"],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["epsilon"] == 0.3
    assert doc["n_max"] == 16
    assert doc["anchors"] == [0.0]
    assert len(doc["arcs"]) >= 1
    lo = min(a for a, _ in doc["arcs"])
    hi = max(b for _, b in doc["arcs"])
    assert lo > 0.5
    assert hi < 6.0


# ---------------------------------------------------------------------------
# artifact handling


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "rule.csv"
    rc, out, _ = run(capsys, ["rule", "--n", "4", "--out", str(target)])
    assert rc == 0
    assert out == ""
    rc2, direct, _ = run(capsys, ["rule", "--n", "4"])
    assert target.read_text() == direct


def test_reruns_are_byte_identical(capsys, tmp_path):
    cfg = tmp_path / "experiment.json"
    cfg.write_text(
        json.dumps(
            {
                "task": "zeros",
                "measure": {"variant": "density", "name": "one_minus_cos"},
                "parameters": {"n_max": 6, "anchor_angle": 0.7, "format": "csv"},
            }
        )
    )
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run(capsys, ["zeros", "--config", str(cfg), "--out", str(first)])[0] == 0
    assert run(capsys, ["zeros", "--config", str(cfg), "--out", str(second)])[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "experiment.json"
    cfg.write_text(json.dumps({"task": "rule", "parameters": {"n": 2}}))
    rc, out, _ = run(capsys, ["rule", "--config", str(cfg), "--n", "6"])
    assert rc == 0
    assert len(out.strip().split("\n")) == 7


# ---------------------------------------------------------------------------
# validate


def test_validate_ok(capsys, tmp_path):
    cfg = tmp_path / "good.json"
    cfg.write_text(
        json.dumps(
            {
                "task": "moments",
                "measure": {"variant": "lebesgue"},
                "parameters": {"n": 4},
            }
        )
    )
    rc, out, _ = run(capsys, ["validate", "--config", str(cfg)])
    assert rc == 0
    assert out == "ok\n"


def test_validate_missing_parameter(capsys, tmp_path):
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps({"task": "moments", "parameters": {}}))
    rc, _, err = run(capsys, ["validate", "--config", str(cfg)])
    assert rc == 2
    doc = json.loads(err)
    assert doc["error"] == "ConfigError"
    assert any("parameters.n" in d for d in doc["diagnostics"])


def test_validate_unknown_density_suggests(capsys, tmp_path):
    cfg = tmp_path / "typo.json"
    cfg.write_text(
        json.dumps(
            {
                "task": "moments",
                "measure": {"variant": "density", "name": "one_minus_cosine"},
                "parameters": {"n": 4},
            }
        )
    )
    rc, _, err = run(capsys, ["validate", "--config", str(cfg)])
    assert rc == 2
    doc = json.loads(err)
    assert "one_minus_cos" in doc["message"]
    assert "uniform" in doc["message"]


def test_validate_requires_task_and_config(capsys, tmp_path):
    rc, _, err = run(capsys, ["validate"])
    assert rc == 2
    assert json.loads(err)["error"] == "ConfigError"
    cfg = tmp_path / "taskless.json"
    cfg.write_text(json.dumps({"parameters": {"n": 4}}))
    rc, _, err = run(capsys, ["validate", "--config", str(cfg)])
    assert rc == 2
    assert any("task" in d for d in json.loads(err)["diagnostics"])


def test_validate_rejects_type_errors(capsys, tmp_path):
    cfg = tmp_path / "types.json"
    cfg.write_text(
        json.dumps(
            {
                "task": "support",
                "parameters": {"n_max": "big", "epsilon": 0.1, "bogus": 1},
            }
        )
    )
    rc, _, err = run(capsys, ["validate", "--config", str(cfg)])
    assert rc == 2
    diags = json.loads(err)["diagnostics"]
    assert any("parameters.n_max" in d for d in diags)
    assert any("parameters.bogus" in d for d in diags)


# ---------------------------------------------------------------------------
# error contract


def test_degenerate_measure_exits_3(capsys):
    rc, out, err = run(capsys, ["schur", "--measure", TWO_ATOM, "--n-max", "6"])
    assert rc == 3
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "NotPositiveDefinite"
    assert doc["n"] == 2


def test_bad_measure_exits_2(capsys):
    measure = '{"variant": "density", "name": "gaussian"}'
    rc, _, err = run(capsys, ["moments", "--measure", measure, "--n", "4"])
    assert rc == 2
    doc = json.loads(err)
    assert doc["error"] == "ConfigError"
    assert "bernstein_szego" in doc["message"]


def test_malformed_inline_measure_exits_2(capsys):
    rc, out, err = run(capsys, ["moments", "--measure", '{"variant": "lebesgue"', "--n", "4"])
    assert rc == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "ConfigError"
    assert doc["message"].startswith("invalid JSON in --measure")
    assert doc["line"] == 1


def test_missing_required_flag_exits_2(capsys):
    rc, _, err = run(capsys, ["rule"])
    assert rc == 2
    doc = json.loads(err)
    assert doc["error"] == "ConfigError"
    assert "parameters.n" in doc["message"]


def test_support_rejects_csv(capsys):
    rc, _, err = run(capsys, ["support", "--n-max", "8", "--epsilon", "0.5", "--format", "csv"])
    assert rc == 2
    assert "JSON" in json.loads(err)["message"]


@pytest.mark.parametrize(
    "argv, params",
    [
        (["rule", "--n", "4", "--anchor-angle", "nan"], None),
        (["zeros", "--n-max", "3", "--omega0", "inf"], None),
        (["rule", "--n", "3", "--a1", "nan"], None),
        (["support", "--n-max", "8", "--epsilon", "nan"], None),
        (["support"], {"n_max": 8, "epsilon": 0.3, "n_min": 20}),
        (["validate"], {"n_max": 8, "epsilon": 0.3, "n_min": 0}),
        (["support"], {"n_max": 8, "epsilon": 0.3, "anchor_angles": []}),
        (["fsequence"], {"n_max": 3, "anchor_angles": [0.5, float("nan")]}),
    ],
)
def test_bad_parameter_values_exit_2(capsys, tmp_path, argv, params):
    # a config's task must be a runnable one, also when validate reads it
    if params is not None:
        task = "support" if argv[0] == "validate" else argv[0]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"task": task, "parameters": params}))
        argv = [*argv, "--config", str(cfg)]
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"] == "ConfigError"


def test_config_file_missing_exits_2(capsys, tmp_path):
    rc, _, err = run(capsys, ["rule", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert json.loads(err)["error"] == "ConfigError"


def test_config_invalid_json_reports_position(capsys, tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"task": "rule",}')
    rc, _, err = run(capsys, ["rule", "--config", str(cfg)])
    assert rc == 2
    doc = json.loads(err)
    assert doc["line"] == 1
