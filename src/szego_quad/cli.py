"""Command line front end emitting deterministic CSV/JSON artifacts.

Exit codes: 0 on success, 2 on configuration problems, 3 on numerical
failures; either failure writes one machine-readable JSON object to stderr
with the stable error code of the underlying exception.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import serialize
from .errors import ConfigError, SzegoQuadError
from .measures import (
    Lebesgue,
    measure_to_dict,
    moments,
    parse_measure,
    schur_from_measure,
)
from .opuc import build_opuc
from .quadrature import rule_from_sof
from .sof import SofFamilySpec, f_sequence, interlace_check, sof_combo
from .support import support_estimate

TASKS = ("moments", "schur", "rule", "zeros", "interlace", "fsequence", "support", "validate")

_REQUIRED = {
    "moments": ("n",),
    "schur": ("n_max",),
    "rule": ("n",),
    "zeros": ("n_max",),
    "interlace": ("n_max",),
    "fsequence": ("n_max",),
    "support": ("n_max", "epsilon"),
}

_INT_PARAMS = {"n", "n_max", "n_min"}
_FLOAT_PARAMS = {"anchor_angle", "omega0", "epsilon", "a1", "a2"}
_LIST_PARAMS = {"anchor_angles"}
_STR_PARAMS = {"format", "out"}
_KNOWN_PARAMS = _INT_PARAMS | _FLOAT_PARAMS | _LIST_PARAMS | _STR_PARAMS


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="szego-quad",
        description="Szego quadrature, circle zero sets, interlacing and support reports.",
    )
    sub = parser.add_subparsers(dest="task", required=True, metavar="task")
    for task in TASKS:
        p = sub.add_parser(task, help=f"run the {task} task")
        p.add_argument("--config", help="experiment config JSON path")
        if task == "validate":
            continue
        p.add_argument("--measure", help="measure spec: JSON file path or inline JSON")
        p.add_argument("--out", help="artifact output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="artifact format")
        p.add_argument("--n", type=int, help="primary degree parameter")
        p.add_argument("--n-max", dest="n_max", type=int, help="largest degree")
        p.add_argument("--anchor-angle", dest="anchor_angle", type=float, help="anchor angle in radians")
        p.add_argument("--omega0", type=float, help="window base angle in radians")
        p.add_argument("--epsilon", type=float, help="dilation radius for support arcs")
        p.add_argument("--a1", type=float, help="first-kind weight in the family combination")
        p.add_argument("--a2", type=float, help="second-kind weight in the family combination")
    return parser


def _parse_json(text, source, **detail):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"invalid JSON in {source}: {err.msg} at line {err.lineno} column {err.colno}",
            **detail,
            line=err.lineno,
            column=err.colno,
        ) from None


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}", path=path) from None
    return _parse_json(text, path, path=path)


def _config_diagnostics(obj, task=None):
    """Schema problems of an experiment config, as field-qualified messages."""
    problems = []
    if not isinstance(obj, dict):
        return ["config: expected a JSON object"]
    declared = obj.get("task")
    if declared is not None:
        if declared not in TASKS or declared == "validate":
            problems.append(f"task: unknown task '{declared}'")
        elif task is not None and declared != task:
            problems.append(f"task: config declares '{declared}' but the subcommand is '{task}'")
    effective = task or declared
    if "measure" in obj:
        try:
            parse_measure(obj["measure"])
        except ConfigError as err:
            problems.append(str(err))
    params = obj.get("parameters", {})
    if not isinstance(params, dict):
        problems.append("parameters: expected a JSON object")
        params = {}
    for key, val in params.items():
        if key not in _KNOWN_PARAMS:
            problems.append(f"parameters.{key}: unknown parameter")
        elif key in _INT_PARAMS and not isinstance(val, int):
            problems.append(f"parameters.{key}: expected an integer")
        elif key in _FLOAT_PARAMS and not isinstance(val, (int, float)):
            problems.append(f"parameters.{key}: expected a number")
        elif key in _LIST_PARAMS and (
            not isinstance(val, list) or not all(isinstance(v, (int, float)) for v in val)
        ):
            problems.append(f"parameters.{key}: expected a list of numbers")
        elif key in _STR_PARAMS and not isinstance(val, str):
            problems.append(f"parameters.{key}: expected a string")
    if effective in _REQUIRED:
        for req in _REQUIRED[effective]:
            if req not in params:
                problems.append(f"parameters.{req}: required by task '{effective}' and missing")
    elif effective is None:
        problems.append("task: not declared in the config and no subcommand given")
    return problems


def _resolve(args):
    """Merge config file and flag overrides into (measure, params)."""
    cfg = {}
    if args.config:
        cfg = _load_json(args.config)
        problems = _config_diagnostics(cfg, args.task)
        if problems:
            raise ConfigError("; ".join(problems), diagnostics=problems)
    params = dict(cfg.get("parameters", {}))
    if getattr(args, "measure", None):
        text = args.measure
        obj = _parse_json(text, "--measure") if text.lstrip().startswith("{") else _load_json(text)
        measure = parse_measure(obj)
    elif "measure" in cfg:
        measure = parse_measure(cfg["measure"])
    else:
        measure = Lebesgue()
    for key in ("n", "n_max", "anchor_angle", "omega0", "epsilon", "a1", "a2", "out", "format"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    return measure, params


def _require_int(params, key):
    if key not in params:
        raise ConfigError(f"parameters.{key}: required and missing", field=key)
    val = params[key]
    if not isinstance(val, int) or isinstance(val, bool):
        raise ConfigError(f"parameters.{key}: expected an integer", field=key)
    if val < 1:
        raise ConfigError(f"parameters.{key}: must be at least 1", field=key)
    return val


def _family(params):
    a1 = float(params.get("a1", 1.0))
    a2 = float(params.get("a2", 0.0))
    w = np.exp(1j * float(params.get("anchor_angle", 0.0)))
    omega0 = float(params.get("omega0", 0.0))
    try:
        return SofFamilySpec.combo(a1, a2, w, omega0)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _anchor_list(params):
    if "anchor_angles" in params:
        return [float(v) for v in params["anchor_angles"]]
    return [float(params.get("anchor_angle", 0.0))]


def _pipeline(measure, n):
    return build_opuc(schur_from_measure(measure, n), n)


def _run_moments(measure, params):
    n = _require_int(params, "n")
    table = moments(measure, n)
    if params.get("format", "csv") == "json":
        return serialize.moments_json(table)
    return serialize.moments_csv(table)


def _run_schur(measure, params):
    n_max = _require_int(params, "n_max")
    seq = schur_from_measure(measure, n_max)
    if params.get("format", "csv") == "json":
        return serialize.schur_json(seq)
    return serialize.schur_csv(seq)


def _run_rule(measure, params):
    n = _require_int(params, "n")
    table = _pipeline(measure, n)
    inst = sof_combo(table, _family(params), n)
    # moments on the grid the Schur coefficients were extracted from
    rule = rule_from_sof(table, moments(measure, 2 * n + 2), inst)
    if params.get("format", "csv") == "json":
        return serialize.rule_json(rule)
    return serialize.rule_csv(rule)


def _run_zeros(measure, params):
    n_max = _require_int(params, "n_max")
    table = _pipeline(measure, n_max)
    family = _family(params)
    entries = [(n, sof_combo(table, family, n).zeros) for n in range(1, n_max + 1)]
    if params.get("format", "csv") == "json":
        return serialize.zero_rows_json(entries)
    return serialize.zero_rows_csv(entries)


def _run_interlace(measure, params):
    n_max = _require_int(params, "n_max")
    n_lo = int(params.get("n", 1))
    if n_lo < 1 or n_lo >= n_max:
        raise ConfigError("parameters.n: interlace needs 1 <= n < n_max", field="n")
    table = _pipeline(measure, n_max)
    family = _family(params)
    anchored = float(params.get("a2", 0.0)) == 0.0
    insts = {n: sof_combo(table, family, n) for n in range(n_lo, n_max + 1)}
    results = []
    for n in range(n_lo, n_max):
        res = interlace_check(
            insts[n].zeros,
            insts[n + 1].zeros,
            family.omega0,
            exclude_anchor=family.anchor_angle if anchored else None,
        )
        results.append((n, n + 1, res.ok, res.witness))
    if params.get("format", "csv") == "json":
        return serialize.interlace_json(results)
    return serialize.interlace_csv(results)


def _run_fsequence(measure, params):
    n_max = _require_int(params, "n_max")
    anchors = [np.exp(1j * a) for a in _anchor_list(params)]
    if len(anchors) == 1:
        anchors = anchors * n_max
    if len(anchors) < n_max:
        raise ConfigError("parameters.anchor_angles: fewer anchors than n_max")
    table = _pipeline(measure, n_max)
    omega0 = float(params.get("omega0", 0.0))
    seq = f_sequence(table, anchors, n_max, omega0)
    entries = [(inst.index, inst.zeros) for inst in seq]
    if params.get("format", "csv") == "json":
        return serialize.zero_rows_json(entries)
    return serialize.zero_rows_csv(entries)


def _run_support(measure, params):
    n_max = _require_int(params, "n_max")
    if "epsilon" not in params:
        raise ConfigError("parameters.epsilon: required and missing", field="epsilon")
    epsilon = float(params["epsilon"])
    if epsilon <= 0:
        raise ConfigError("parameters.epsilon: must be positive", field="epsilon")
    if params.get("format", "json") == "csv":
        raise ConfigError("support emits a JSON report; csv is not available for this task")
    anchors = [np.exp(1j * a) for a in _anchor_list(params)]
    n_min = params.get("n_min")
    est = support_estimate(measure, anchors, n_max, epsilon, n_min=n_min)
    return serialize.support_json(est)


_RUNNERS = {
    "moments": _run_moments,
    "schur": _run_schur,
    "rule": _run_rule,
    "zeros": _run_zeros,
    "interlace": _run_interlace,
    "fsequence": _run_fsequence,
    "support": _run_support,
}


def _run_validate(args):
    if not args.config:
        raise ConfigError("validate requires --config")
    cfg = _load_json(args.config)
    problems = _config_diagnostics(cfg, None)
    if isinstance(cfg, dict) and "task" not in cfg:
        problems.insert(0, "task: required for validate and missing")
    if problems:
        raise ConfigError("; ".join(problems), diagnostics=problems)
    sys.stdout.write("ok\n")
    return 0


def _emit_error(err: SzegoQuadError):
    payload = {"error": err.code, "message": str(err)}
    for key, val in err.detail.items():
        if isinstance(val, (str, int, float, bool)) or val is None:
            payload[key] = val
        elif isinstance(val, (list, tuple)):
            payload[key] = list(val)
        else:
            payload[key] = str(val)
    sys.stderr.write(serialize.json_text(payload))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.task == "validate":
            return _run_validate(args)
        measure, params = _resolve(args)
        text = _RUNNERS[args.task](measure, params)
        out = params.get("out")
        if out:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except ConfigError as err:
        _emit_error(err)
        return 2
    except SzegoQuadError as err:
        _emit_error(err)
        return 3


def console_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
