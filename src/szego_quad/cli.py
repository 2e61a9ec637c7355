"""Command line front end emitting deterministic CSV/JSON artifacts.

Exit codes: 0 on success, 2 on configuration problems, 3 on numerical
failures; either failure writes one machine-readable JSON object to stderr
with the stable error code of the underlying exception.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from . import serialize
from .errors import ConfigError, SzegoQuadError
from .measures import (
    finite_number,
    json_integer,
    moments,
    parse_measure,
    schur_from_measure,
)
from .quadrature import rule_from_sof
from .sof import SofFamilySpec, f_sequence, interlace_check, sof_combo, sof_members
from .support import support_estimate

TASKS = ("moments", "schur", "rule", "zeros", "interlace", "fsequence", "support", "validate")

# every task that runs; validate only checks a config
_RUN_TASKS = tuple(t for t in TASKS if t != "validate")
_FAMILY = ("rule", "zeros", "interlace")

# The parameter contract: name -> (type, flag help, tasks that read it), with
# a "!" marking a task that requires it.  A help of None marks a config-only
# parameter; the flag order is the table's.
PARAMS = {
    "out": (str, "artifact output path (default: stdout)", _RUN_TASKS),
    "format": (str, "artifact format: csv or json", _RUN_TASKS),
    "n": (int, "primary degree parameter", ("moments!", "rule!", "interlace")),
    "n_max": (int, "largest degree", ("schur!", "zeros!", "interlace!", "fsequence!", "support!")),
    "n_min": (int, None, ("support",)),
    "anchor_angle": (float, "anchor angle in radians", (*_FAMILY, "fsequence", "support")),
    "anchor_angles": (list, None, ("fsequence", "support")),
    "omega0": (float, "window base angle in radians", (*_FAMILY, "fsequence")),
    "epsilon": (float, "dilation radius for support arcs", ("support!",)),
    "a1": (float, "first-kind weight in the family combination", _FAMILY),
    "a2": (float, "second-kind weight in the family combination", _FAMILY),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ConfigErrors, so they exit 2
    with the one JSON error object, and which reads a negative number in
    exponent form (-1e-3, -2.5E+4) as a value; subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser():
    parser = _Parser(
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
        for name, (kind, help_text, _) in PARAMS.items():
            if help_text is not None:
                flag = "--" + name.replace("_", "-")
                p.add_argument(flag, dest=name, type=None if kind is str else kind, help=help_text)
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


def _load_json(path, flag):
    """The JSON document in the file that flag names; a file that cannot be
    read (missing, a directory, not UTF-8) is a ConfigError naming the flag."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        message = f"{flag}: cannot read '{path}': {err.strerror or err}"
        raise ConfigError(message, path=path) from None
    except UnicodeDecodeError as err:
        message = f"{flag}: cannot read '{path}': not UTF-8 at byte {err.start}"
        raise ConfigError(message, path=path) from None
    return _parse_json(text, path, path=path)


def _open_out(path, mode):
    """Open the artifact file; an OSError becomes a ConfigError naming parameters.out."""
    try:
        return open(path, mode, encoding="utf-8", newline="\n")
    except OSError as err:
        message = f"parameters.out: cannot open '{path}' for writing: {err.strerror or err}"
        raise ConfigError(message, path=path) from None


def _probe_out(path):
    """Fail before any numerics when the artifact file cannot be opened; a file
    the probe creates is removed again, so a failed run leaves none behind."""
    existed = os.path.lexists(path)
    _open_out(path, "a").close()
    if not existed:
        os.remove(path)


def _value_problem(name, val):
    """What is wrong with one parameter value on its own, or None."""
    kind = PARAMS[name][0]
    if kind is int and not json_integer(val):
        return "expected an integer"
    if kind is int and val < 1:
        return "must be at least 1"
    if kind is float and not finite_number(val):
        return "expected a finite number"
    if name == "epsilon" and val <= 0:
        return "must be positive"
    if kind is list and not (isinstance(val, list) and val and all(map(finite_number, val))):
        return "expected a nonempty list of finite angles"
    if kind is str and not isinstance(val, str):
        return "expected a string"
    if name == "format" and val not in ("csv", "json"):
        return "expected csv or json"
    return None


def _checked(cfg, task, flags, measure_flag=None):
    """Merge a config with flag values and check the result against the contract.

    The one check of ``validate`` and of every run, made before any numerics:
    the config's shape and keys, task and measure (the --measure flag, inline
    JSON or a file path, over the config's; Lebesgue by default), then the
    name of each merged parameter, whether the task reads it, its type and
    value, the task's required ones, and the cross-parameter ranges.  Raises
    ConfigError listing every problem, with the measure's own detail; returns
    the parameters and the measure.
    """
    problems, detail = [], {}
    if not isinstance(cfg, dict):
        problems.append("config: expected a JSON object")
        cfg = {}
    for key in cfg:
        if key not in ("task", "measure", "parameters"):
            problems.append(f"{key}: unknown key; expected one of task, measure, parameters")
    declared = cfg.get("task")
    if declared is not None:
        if declared not in TASKS or declared == "validate":
            problems.append(f"task: unknown task '{declared}'")
        elif task is not None and declared != task:
            problems.append(f"task: config declares '{declared}' but the subcommand is '{task}'")
    task = task or declared
    if task is None:
        problems.append("task: not declared in the config and no task subcommand given")
    try:
        if not measure_flag:
            obj = cfg.get("measure", {"variant": "lebesgue"})
        elif measure_flag.lstrip().startswith("{"):
            obj = _parse_json(measure_flag, "--measure")
        else:
            obj = _load_json(measure_flag, "--measure")
        measure = parse_measure(obj)
    except ConfigError as err:
        problems.append(str(err))
        detail = err.detail
    params = cfg.get("parameters", {})
    if not isinstance(params, dict):
        problems.append("parameters: expected a JSON object")
        params = {}
    params = {**params, **flags}
    ok = {}
    for name, val in params.items():
        if name not in PARAMS:
            problem = "unknown parameter"
        elif task in _RUN_TASKS and task not in [t.rstrip("!") for t in PARAMS[name][2]]:
            problem = f"not read by task '{task}'"
        else:
            problem = _value_problem(name, val)
        if problem:
            problems.append(f"parameters.{name}: {problem}")
        else:
            ok[name] = val
    for name, (_, _, readers) in PARAMS.items():
        if f"{task}!" in readers and name not in params:
            problems.append(f"parameters.{name}: required by task '{task}' and missing")
    # ranges across parameters, read from the values that passed on their own
    n_max = ok.get("n_max")
    if n_max is not None and ok.get("n_min", 1) > n_max:
        problems.append("parameters.n_min: must lie in 1..n_max")
    if task == "interlace" and n_max is not None and ok.get("n", 1) >= n_max:
        problems.append("parameters.n: interlace needs 1 <= n < n_max")
    if task == "fsequence" and n_max is not None and 1 < len(ok.get("anchor_angles", ())) < n_max:
        problems.append("parameters.anchor_angles: fewer anchors than n_max")
    if "anchor_angle" in ok and "anchor_angles" in ok:
        problems.append("parameters.anchor_angle, anchor_angles: set one of the two, not both")
    if task in _FAMILY and ok.get("a1", 1.0) == ok.get("a2", 0.0) == 0.0:
        problems.append("parameters.a1, a2: combo coefficients must not both vanish")
    formats = _RUNNERS[task][2] if task in _RUNNERS else _BOTH
    if ok.get("format", formats[0]) not in formats:
        problems.append(f"parameters.format: task '{task}' emits {formats[0].upper()} only")
    if problems:
        raise ConfigError("; ".join(problems), **detail, diagnostics=problems)
    return params, measure


def _family(params):
    w = np.exp(1j * float(params.get("anchor_angle", 0.0)))
    a1, a2 = float(params.get("a1", 1.0)), float(params.get("a2", 0.0))
    return SofFamilySpec.combo(a1, a2, w, float(params.get("omega0", 0.0)))


def _anchors(params):
    angles = params.get("anchor_angles", [params.get("anchor_angle", 0.0)])
    return [np.exp(1j * float(a)) for a in angles]


def _moments(measure, params):
    return moments(measure, params["n"])


def _schur(measure, params):
    return schur_from_measure(measure, params["n_max"])


def _rule(measure, params):
    n = params["n"]
    table = schur_from_measure(measure, n)
    inst = sof_combo(table, _family(params), n)
    # moments on the grid the Schur coefficients were extracted from
    return rule_from_sof(table, moments(measure, 2 * n + 2), inst)


def _zeros(measure, params):
    n_max = params["n_max"]
    table = schur_from_measure(measure, n_max)
    members = sof_members(table, _family(params), range(1, n_max + 1))
    return [(inst.n, inst.zeros) for inst in members]


def _interlace(measure, params):
    n_lo, n_max = params.get("n", 1), params["n_max"]
    table = schur_from_measure(measure, n_max)
    family = _family(params)
    degrees = range(n_lo, n_max + 1)
    insts = dict(zip(degrees, sof_members(table, family, degrees)))
    results = []
    for n in range(n_lo, n_max):
        res = interlace_check(
            insts[n].zeros,
            insts[n + 1].zeros,
            family.omega0,
            exclude_anchor=family.anchor_angle if family.B_w == 0 else None,
        )
        results.append((n, n + 1, res.ok, res.witness))
    return results


def _fsequence(measure, params):
    n_max = params["n_max"]
    table = schur_from_measure(measure, n_max)
    seq = f_sequence(table, _anchors(params), n_max, float(params.get("omega0", 0.0)))
    return [(inst.index, inst.zeros) for inst in seq]


def _support(measure, params):
    n_max, epsilon = params["n_max"], float(params["epsilon"])
    return support_estimate(measure, _anchors(params), n_max, epsilon, n_min=params.get("n_min"))


# task -> (compute, layout, formats): the artifact is serialize.<layout>, looked
# up on the module when the run writes it and rendered as its table (csv) or its
# document (json); the first declared format is the default
_BOTH = ("csv", "json")
_RUNNERS = {
    "moments": (_moments, "moments", _BOTH),
    "schur": (_schur, "schur", _BOTH),
    "rule": (_rule, "rule", _BOTH),
    "zeros": (_zeros, "zero_rows", _BOTH),
    "interlace": (_interlace, "interlace", _BOTH),
    "fsequence": (_fsequence, "zero_rows", _BOTH),
    "support": (_support, "support", ("json",)),
}


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


def _run(args):
    cfg = _load_json(args.config, "--config") if args.config else {}
    if args.task == "validate":
        if not args.config:
            raise ConfigError("validate requires --config")
        _checked(cfg, None, {})
        sys.stdout.write("ok\n")
        return
    flags = {name: getattr(args, name) for name in PARAMS if getattr(args, name, None) is not None}
    params, measure = _checked(cfg, args.task, flags, args.measure)
    out = params.get("out")
    if out:
        _probe_out(out)
    compute, layout, formats = _RUNNERS[args.task]
    table, doc = getattr(serialize, layout)(compute(measure, params))
    csv = params.get("format", formats[0]) == "csv"
    text = serialize.csv_text(*table) if csv else serialize.json_text(doc)
    if out:
        with _open_out(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    try:
        _run(_build_parser().parse_args(argv))
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
