"""Command line front end: artifacts, determinism, error contract."""

import json
import re
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from szego_quad import Lebesgue, serialize
from szego_quad.cli import _RUNNERS, console_entry, main

README = Path(__file__).resolve().parents[1] / "README.md"
NAN_ATOM = '{"variant": "atomic", "atoms": [[0.0, NaN], [1.0, 1.0]]}'
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


def test_rule_json_names_its_family(capsys):
    argv = ["rule", "--n", "3", "--a1", "0.7", "--a2", "-1.3", "--format", "json"]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert json.loads(out)["source"] == "sof(combo(a1=0.7, a2=-1.3, n=3))"


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


@pytest.mark.parametrize("target", ["missing/rule.csv", "."])
def test_unopenable_out_exits_2_before_numerics(capsys, tmp_path, monkeypatch, target):
    def refuse(*args, **kwargs):
        raise AssertionError("numerics ran before the output path was checked")

    monkeypatch.setattr("szego_quad.cli.schur_from_measure", refuse)
    path = tmp_path / target
    rc, out, err = run(capsys, ["rule", "--n", "4", "--out", str(path)])
    assert rc == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "ConfigError"
    assert doc["message"].startswith("parameters.out: cannot open")
    assert doc["path"] == str(path)


def test_out_probe_leaves_no_file_when_numerics_fail(capsys, tmp_path):
    target = tmp_path / "schur.csv"
    rc, out, _ = run(capsys, ["schur", "--measure", TWO_ATOM, "--n-max", "6", "--out", str(target)])
    assert rc == 3
    assert out == ""
    assert not target.exists()


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rule", "--n", "2.5"], "argument --n: invalid int value: '2.5'"),
        (["rule", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["rule", "--n"], "argument --n: expected one argument"),
        (["bogus"], "argument task: invalid choice: 'bogus'"),
        ([], "the following arguments are required: task"),
    ],
)
def test_usage_errors_are_config_errors(capsys, argv, message):
    # argparse's own errors take the one failure channel: exit 2 and one JSON
    # object on stderr, no usage text
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (2, "")
    doc = json.loads(err)
    assert doc["error"] == "ConfigError"
    assert message in doc["message"]


@pytest.mark.parametrize("value", ["-1e-3", "-2.5E+4", "-0.001", "-1"])
def test_negative_number_after_a_flag_is_a_value(capsys, value):
    # exponent forms too: argparse's own pattern takes -1e-3 for an option
    spaced = run(capsys, ["rule", "--n", "3", "--omega0", value])
    joined = run(capsys, ["rule", "--n", "3", f"--omega0={value}"])
    assert spaced == joined
    assert spaced[0] == 0


def test_negative_exponent_for_an_integer_flag_exits_2(capsys):
    rc, out, err = run(capsys, ["rule", "--n", "-1e-3"])
    assert (rc, out) == (2, "")
    doc = json.loads(err)
    assert doc["error"] == "ConfigError"
    assert "argument --n: invalid int value: '-1e-3'" in doc["message"]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rule", "--help"])
    assert exc.value.code == 0
    assert "--anchor-angle" in capsys.readouterr().out


def test_support_rejects_csv(capsys):
    rc, _, err = run(capsys, ["support", "--n-max", "8", "--epsilon", "0.5", "--format", "csv"])
    assert rc == 2
    assert "JSON" in json.loads(err)["message"]


@pytest.mark.parametrize("task", sorted(_RUNNERS))
def test_csv_is_declared_exactly_for_artifacts_with_a_table(task):
    compute, layout, formats = _RUNNERS[task]
    params = {"n": 2, "n_max": 3, "epsilon": 0.5}
    table, _ = getattr(serialize, layout)(compute(Lebesgue(), params))
    assert ("csv" in formats) == (table is not None)
    assert "json" in formats


def test_bad_measure_is_listed_with_the_other_problems(capsys):
    rc, out, err = run(capsys, ["rule", "--n", "0", "--measure", '{"variant": "nope"}'])
    assert (rc, out) == (2, "")
    diags = json.loads(err)["diagnostics"]
    assert diags[0].startswith("measure.variant:")
    assert diags[1:] == ["parameters.n: must be at least 1"]


def test_measure_flag_replaces_a_bad_config_measure(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    bad = {"task": "rule", "measure": {"variant": "nope"}, "parameters": {"n": 4}}
    cfg.write_text(json.dumps(bad))
    rc, _, err = run(capsys, ["validate", "--config", str(cfg)])
    assert rc == 2
    assert json.loads(err)["diagnostics"][0].startswith("measure.variant:")
    lebesgue = '{"variant": "lebesgue"}'
    rc, out, err = run(capsys, ["rule", "--config", str(cfg), "--measure", lebesgue])
    assert (rc, err) == (0, "")
    rc, out_lebesgue, _ = run(capsys, ["rule", "--n", "4"])
    assert out == out_lebesgue


@pytest.mark.parametrize(
    "measure, field",
    [('{"variant": "nope"}', "measure.variant:"), ('{"variant": "lebesgue"', "invalid JSON")],
)
def test_bad_measure_flag_alone_carries_diagnostics(capsys, measure, field):
    rc, out, err = run(capsys, ["moments", "--n", "4", "--measure", measure])
    assert (rc, out) == (2, "")
    doc = json.loads(err)
    assert len(doc["diagnostics"]) == 1
    assert doc["diagnostics"][0].startswith(field)
    assert doc["message"] == doc["diagnostics"][0]


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
        (["moments", "--n", "2", "--measure", NAN_ATOM], None),
        (["rule", "--n", "4", "--format", "xml"], None),
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


@pytest.mark.parametrize(
    "config",
    [
        {"task": "rule", "parameters": {"n": 0}},
        {"task": "interlace", "parameters": {"n_max": 4, "n": 9}},
        {"task": "fsequence", "parameters": {"n_max": 4, "anchor_angles": [0.1, 0.2]}},
        {"task": "support", "parameters": {"n_max": 8, "epsilon": 0.2, "format": "csv"}},
        {"task": "rule", "parameters": {"n": True}},
        {"task": "rule", "parameters": {"n": 4, "format": "xml"}},
        {"task": "rule", "parameters": {"n": 4, "anchor_angle": True}},
        {"task": "support", "parameters": {"n_max": 8, "epsilon": 0.3, "n_min": True}},
        {"task": "rule", "parameters": {"n": 3, "a1": 0, "a2": 0}},
        {"task": "support", "parameters": {"n_max": 8, "epsilon": 0.3, "anchor_angle": 2.5,
                                           "anchor_angles": [5.0]}},
        {"task": "fsequence", "parameters": {"n_max": 4, "anchor_angle": 0.5,
                                             "anchor_angles": [1.0]}},
        {"task": "rule", "measure": {"variant": "nope"}, "parameters": {"n": 0}},
        {"task": "support", "measure": {"variant": "mixture", "components": [
            {"weight": 1, "measure": {"variant": "density", "name": 7}}]},
         "parameters": {"n_max": 8, "epsilon": 0.3}},
        # keys the code does not read: a misspelled measure used to leave Lebesgue in force
        {"task": "moments", "measur": {"variant": "density", "name": "one_minus_cos"},
         "parameters": {"n": 2}},
        {"task": "moments", "measure": {"variant": "density", "name": "one_minus_cos", "gird": 99},
         "parameters": {"n": 2}},
        {"task": "rule", "measure": {"variant": "mixture", "components": [
            {"weight": 1, "wieght": 2, "measure": {"variant": "lebesgue"}}]},
         "parameters": {"n": 3}},
        {"task": "schur", "measure": {"variant": "arc_density", "name": "uniform",
                                      "arc": [1.0, 3.0], "panels": 64},
         "parameters": {"n_max": 4}},
    ],
)
def test_validate_and_run_agree_on_bad_configs(capsys, tmp_path, config):
    # validate applies exactly the run's checks: same exit code, same first diagnostic
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    firsts = []
    for argv in (["validate", "--config", str(cfg)], [config["task"], "--config", str(cfg)]):
        rc, out, err = run(capsys, argv)
        assert rc == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "ConfigError"
        firsts.append(doc["diagnostics"][0])
    assert firsts[0] == firsts[1]


@pytest.mark.parametrize(
    "config, task, diagnostic",
    [
        ([1, 2], "validate", "config: expected a JSON object"),
        ({"task": "nope"}, "validate", "task: unknown task 'nope'"),
        ({"task": "validate"}, "validate", "task: unknown task 'validate'"),
        ({"task": "rule", "parameters": {"n": 3}}, "moments",
         "task: config declares 'rule' but the subcommand is 'moments'"),
        ({"task": "moments", "parameters": [3]}, "moments", "parameters: expected a JSON object"),
        ({"task": "support", "parameters": {"n_max": 8, "epsilon": 0}}, "support",
         "parameters.epsilon: must be positive"),
        ({"task": "moments", "parameters": {"n": 3, "out": 5}}, "moments",
         "parameters.out: expected a string"),
        ({"task": "moments", "measur": {"variant": "lebesgue"}, "parameters": {"n": 2}}, "moments",
         "measur: unknown key; expected one of task, measure, parameters"),
        ({"task": "moments", "measure": {"variant": "density", "name": "uniform", "gird": 99},
          "parameters": {"n": 2}}, "moments",
         "measure.gird: unknown key; expected one of variant, name, param, grid"),
        ({"task": "moments", "measure": {"variant": "mixture", "components": [
            {"weight": 1, "wieght": 2, "measure": {"variant": "lebesgue"}}]},
          "parameters": {"n": 2}}, "moments",
         "measure.components[0].wieght: unknown key; expected one of weight, measure"),
    ],
)
def test_config_shape_and_task_diagnostics_exit_2(capsys, tmp_path, config, task, diagnostic):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    rc, out, err = run(capsys, [task, "--config", str(cfg)])
    assert (rc, out) == (2, "")
    doc = json.loads(err)
    assert doc["error"] == "ConfigError"
    assert doc["diagnostics"][0] == diagnostic


@pytest.mark.parametrize("task", ["fsequence", "support"])
def test_both_anchor_parameters_exit_2_with_one_diagnostic(capsys, tmp_path, task):
    params = {"n_max": 16, "epsilon": 0.3, "anchor_angle": 2.5, "anchor_angles": [5.0]}
    if task == "fsequence":
        params.pop("epsilon")
    measure = {"variant": "arc_density", "name": "uniform", "arc": [1.0, 4.0]}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"task": task, "measure": measure, "parameters": params}))
    for argv in (["validate", "--config", str(cfg)], [task, "--config", str(cfg)]):
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, "")
        assert json.loads(err)["diagnostics"] == [
            "parameters.anchor_angle, anchor_angles: set one of the two, not both"
        ]


@pytest.mark.parametrize(
    "config, unread",
    [
        ({"task": "rule", "parameters": {"n": 3, "anchor_angles": [1.0], "n_min": 2}},
         ["anchor_angles", "n_min"]),
        ({"task": "moments", "parameters": {"n": 3, "anchor_angle": 0.5}}, ["anchor_angle"]),
        ({"task": "schur", "parameters": {"n_max": 4, "epsilon": 0.1, "omega0": 0.2}},
         ["epsilon", "omega0"]),
        ({"task": "zeros", "parameters": {"n_max": 4, "n": 2}}, ["n"]),
        ({"task": "fsequence", "parameters": {"n_max": 4, "a1": 1.0}}, ["a1"]),
        ({"task": "support", "parameters": {"n_max": 8, "epsilon": 0.3, "omega0": 0.2}},
         ["omega0"]),
    ],
)
def test_parameters_a_task_does_not_read_exit_2(capsys, tmp_path, config, unread):
    # a valid value that the task would ignore is reported, by validate and the run alike
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    task = config["task"]
    for argv in (["validate", "--config", str(cfg)], [task, "--config", str(cfg)]):
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, "")
        doc = json.loads(err)
        assert doc["error"] == "ConfigError"
        expected = [f"parameters.{name}: not read by task '{task}'" for name in unread]
        assert doc["diagnostics"] == expected


def test_flag_a_task_does_not_read_exits_2(capsys):
    rc, out, err = run(capsys, ["rule", "--n", "3", "--epsilon", "0.2"])
    assert (rc, out) == (2, "")
    assert json.loads(err)["message"] == "parameters.epsilon: not read by task 'rule'"


@pytest.mark.parametrize(
    "task, required",
    [
        ("moments", {"n": 2}),
        ("schur", {"n_max": 2}),
        ("rule", {"n": 2}),
        ("zeros", {"n_max": 2}),
        ("interlace", {"n_max": 2}),
        ("fsequence", {"n_max": 2}),
        ("support", {"n_max": 2, "epsilon": 0.5}),
    ],
)
def test_out_and_format_are_read_by_every_task(capsys, tmp_path, task, required):
    params = {**required, "out": str(tmp_path / "artifact.json"), "format": "json"}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"task": task, "parameters": params}))
    assert run(capsys, ["validate", "--config", str(cfg)])[:2] == (0, "ok\n")


def test_flag_supplies_parameter_missing_from_config(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"task": "rule", "parameters": {}}))
    rc, out, err = run(capsys, ["rule", "--config", str(cfg), "--n", "4"])
    assert rc == 0
    assert err == ""
    assert len(out.strip().split("\n")) == 5


def test_config_file_missing_exits_2(capsys, tmp_path):
    rc, _, err = run(capsys, ["rule", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert json.loads(err)["error"] == "ConfigError"


@pytest.mark.parametrize(
    "argv", [["validate", "--config"], ["rule", "--config"], ["rule", "--n", "3", "--measure"]]
)
@pytest.mark.parametrize(
    "target, reason",
    [("nope.json", "No such file"), (".", "Is a directory"), ("latin1.json", "not UTF-8 at byte 10")],
)
def test_unreadable_file_names_its_flag(capsys, tmp_path, argv, target, reason):
    (tmp_path / "latin1.json").write_bytes(b'{"task": "\xe9"}')
    path = str(tmp_path / target)
    rc, out, err = run(capsys, [*argv, path])
    assert (rc, out) == (2, "")
    doc = json.loads(err)
    assert doc["error"] == "ConfigError"
    assert doc["message"].startswith(f"{argv[-1]}: cannot read '{path}': {reason}")
    assert doc["path"] == path


def test_config_invalid_json_reports_position(capsys, tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"task": "rule",}')
    rc, _, err = run(capsys, ["rule", "--config", str(cfg)])
    assert rc == 2
    doc = json.loads(err)
    assert doc["line"] == 1


@pytest.mark.parametrize("argv, code", [(["rule", "--n", "2"], 0), (["rule", "--n", "0"], 2)])
def test_console_entry_exits_with_the_run_code(capsys, monkeypatch, argv, code):
    monkeypatch.setattr(sys, "argv", ["szego-quad", *argv])
    with pytest.raises(SystemExit) as exc:
        console_entry()
    assert exc.value.code == code
    out, err = capsys.readouterr()
    assert (bool(out), bool(err)) == (code == 0, code != 0)


# ---------------------------------------------------------------------------
# the README's command line examples


def _readme_section(title):
    text = README.read_text(encoding="utf-8")
    return text.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_command_lines_run(capsys):
    section = _readme_section("Command line")
    block = re.search(r"```\n(szego-quad .*?)```", section, re.S).group(1)
    commands = block.replace("\\\n", " ").splitlines()
    assert len(commands) == 3
    for line in commands:
        argv = shlex.split(line)
        assert argv[0] == "szego-quad"
        rc, out, err = run(capsys, argv[1:])
        assert (rc, err) == (0, ""), line
        assert out


def test_readme_example_config_runs(capsys, tmp_path):
    section = _readme_section("Command line")
    config = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    cfg = tmp_path / "experiment.json"
    cfg.write_text(json.dumps(config))
    assert run(capsys, ["validate", "--config", str(cfg)])[:2] == (0, "ok\n")
    rc, out, err = run(capsys, [config["task"], "--config", str(cfg)])
    assert (rc, err) == (0, "")
    assert out
