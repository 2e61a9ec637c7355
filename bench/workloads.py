"""Seeded inputs, ops and output checks of the three benchmark workloads.

An op is one closed-loop call into the library (or one CLI subprocess).  Its
``run`` is the timed part; ``check`` compares the output with the oracle
outside the timed region and returns an outcome: a status (``ok`` or
``inaccurate``/``wrong-bytes``) plus the accuracy columns it could measure.
An op that raises is classified by the error code of the exception.

The library receives only generated inputs: Schur sequences, measure specs
and argv lists.  It is referenced through the package object at call time,
so the span recorder of a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import szego_quad as sq

# documented tolerances (README, "acceptance tests pin the headline guarantees")
TOL_EXACT = 1e-9
TOL_NODE = 1e-10

# digits are read as -log10(error), clipped so that a result with no correct
# digit reads DIGITS_FLOOR and an exact one reads DIGITS_CEIL
DIGITS_FLOOR = 0.5
DIGITS_CEIL = 17.0

TWO_PI = 2.0 * math.pi


def digits(err):
    if err is None:
        return None
    if not err > 0.0:
        return DIGITS_CEIL
    return min(DIGITS_CEIL, max(DIGITS_FLOOR, -math.log10(err)))


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object, object], dict]
    fingerprint: Callable[[object], bytes]
    run_traced: Callable[[str], object] | None = None
    expected: dict = field(default_factory=dict)


def outcome(status="ok", **cols):
    out = {"status": status, "node_err": None, "weight_err": None, "exact_err": None,
           "schur_err": None, "sandwich": None}
    out.update(cols)
    return out


# ---------------------------------------------------------------------------
# accuracy of a rule against the oracle


def _circ(a, b):
    d = np.mod(a - b, TWO_PI)
    return np.minimum(d, TWO_PI - d)


def rule_errors(angles, weights, ref, moments):
    """Worst node-angle error, worst relative weight error and the exactness
    defect max_k |sum_j w_j z_j^k - c_k| over |k| <= n - 1."""
    angles = np.asarray(angles, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = len(ref["angles"])
    if len(angles) != n:
        return math.inf, math.inf, math.inf
    dist = _circ(angles[:, None], ref["angles"][None, :])
    nearest = np.argmin(dist, axis=1)
    node_err = max(float(np.max(np.min(dist, axis=1))), float(np.max(np.min(dist, axis=0))))
    weight_err = float(np.max(np.abs(weights / ref["weights"][nearest] - 1.0)))
    ks = np.arange(-(n - 1), n)
    c = np.asarray(moments[:n])
    c_full = np.concatenate((np.conj(c[:0:-1]), c))
    vals = np.exp(1j * np.outer(ks, angles)) @ weights
    exact_err = float(np.max(np.abs(vals - c_full)))
    return node_err, weight_err, exact_err


def _rule_outcome(errs_list, **extra):
    node = max(e[0] for e in errs_list)
    weight = max(e[1] for e in errs_list)
    exact = max(e[2] for e in errs_list)
    ok = node <= TOL_NODE and exact <= TOL_EXACT
    return outcome("ok" if ok else "inaccurate", node_err=node, weight_err=weight,
                   exact_err=exact, **extra)


def _rule_fp(rule):
    return rule.node_angles.tobytes() + rule.weights.tobytes()


# ---------------------------------------------------------------------------
# rule_ladder: random Schur sequences, rules at n in {16, 64, 256} and the
# alternating ladder to N = 48


LADDER_N = 48
# Seeded sequences, drawn afresh for every seed, for the configurations
# whose outcome and cost do not depend on the draw: (cap, n, count) and the
# ladder caps.
SEEDED_RULES = ((0.6, 16, 2), (0.9, 16, 2))
SEEDED_LADDERS = (0.6, 0.6)
# The other configurations run on fixed sequences, streams of
# np.random.default_rng([stream, PROBE_KEY]) taken in order, the same for
# every seed.  Seeded, they would make the failure count and the op times a
# coin toss between seeds: cap-0.9 rules at n = 64 and cap-0.9 ladders miss
# the 1e-9 exactness tolerance on about one draw in eight, the cap-0.6
# residual at n = 256 straddles it, the cost of an n = 64 or n = 256 rule
# doubles when its zero scan needs a finer grid, and at cap 0.9 and n = 256
# the rule either raises ZeroCountMismatch (streams 1-3) or returns weights
# near 0 (stream 0), the two faces of the known defect.  Nine ops faster
# and nine slower than the cap-0.6 stream-2 rule at n = 256 make it the
# median op: its vectorized evaluation keeps its time steady on a busy
# machine, where the interpreter-bound small rules swing by a third.
PROBE_KEY = 99
FIXED_RULES = (
    (0.6, 64, (0,)),
    (0.9, 64, (0, 1)),
    (0.6, 256, (0, 1, 2, 3)),
    (0.9, 256, (0, 1, 2, 3)),
)
FIXED_LADDERS = ((0.9, (0, 1)),)


def random_schur(rng, n, cap):
    mags = cap * rng.random(n)
    return sq.SchurSequence(mags * np.exp(2j * np.pi * rng.random(n)))


def _rule_op(schur, n, tag):
    coeffs = schur.coefficients

    def run():
        table = sq.build_opuc(schur, n)
        m = sq.moments_from_schur(schur, n)
        return sq.make_rule(table, m, sq.make_pop(table, n, 1.0, 1.0))

    def check(rule, orc):
        ref = orc.rule(coeffs[:n], ("pop",))
        c = orc.moments(coeffs, n - 1)["c"]
        return _rule_outcome([rule_errors(rule.node_angles, rule.weights, ref, c)])

    return Op(f"rule n={n} {tag}", run, check, _rule_fp)


def _ladder_op(schur, w, tag):
    coeffs = schur.coefficients
    N = LADDER_N

    def run():
        table = sq.build_opuc(schur, N)
        m = sq.moments_from_schur(schur, N)
        seq = sq.f_sequence(table, w, N)
        return [sq.rule_from_sof(table, m, inst) for inst in seq]

    def check(rules, orc):
        c = orc.moments(coeffs, N - 1)["c"]
        errs = [
            rule_errors(r.node_angles, r.weights, orc.rule(coeffs[: r.order], ("anchor", w)), c)
            for r in rules
        ]
        return _rule_outcome(errs)

    return Op(f"ladder N={N} {tag}", run, check, lambda rules: b"".join(map(_rule_fp, rules)))


def _ladder_input(rng, cap):
    schur = random_schur(rng, LADDER_N, cap)
    return schur, complex(np.exp(2j * np.pi * rng.random()))


def rule_ladder(seed):
    ops = []
    for cap, n, streams in FIXED_RULES:
        for s in streams:
            rng = np.random.default_rng([s, PROBE_KEY])
            ops.append(_rule_op(random_schur(rng, n, cap), n, f"cap={cap} fixed#{s}"))
    for cap, streams in FIXED_LADDERS:
        for s in streams:
            rng = np.random.default_rng([s, PROBE_KEY])
            ops.append(_ladder_op(*_ladder_input(rng, cap), f"cap={cap} fixed#{s}"))
    rng = np.random.default_rng([seed, 1])
    for cap, n, count in SEEDED_RULES:
        ops += [_rule_op(random_schur(rng, n, cap), n, f"cap={cap}") for _ in range(count)]
    for cap in SEEDED_LADDERS:
        ops.append(_ladder_op(*_ladder_input(rng, cap), f"cap={cap}"))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# arc_measure: arc-supported measures through the measure route


ARC_CASES = {
    "half": [(1.0, "uniform", 0.0, math.pi)],
    "hann": [(1.0, "hann", 0.0, math.pi)],
    "two": [(1.0, "uniform", 0.5, 1.5), (1.0, "uniform", 3.0, 4.5)],
    "narrow": [(1.0, "hann", 1.0, 2.0)],
}
SUPPORT_NMAX = (32, 48)
RULE_N = (32, 60)
# the narrow arc keeps the known-defect probe's epsilon; the wider supports need
# a radius above the zero spacing of the lowest degree used (n_max / 2)
ARC_EPSILON = {"half": 0.2, "hann": 0.2, "two": 0.2, "narrow": 0.1}
# The anchors are fixed: with random anchor sets the two-arc estimate at
# n_max = 48 raises DegenerateAnchor on some seeds and not on others, and
# the support times swing by half, so the seed only orders the ops.
ARC_ANCHORS = [complex(np.exp(1j * (math.pi / 4 + k * math.pi / 2))) for k in range(4)]


def arc_spec(components):
    arcs = [sq.ArcDensity(name, (lo, hi)) for _, name, lo, hi in components]
    if len(arcs) == 1:
        return arcs[0]
    return sq.Mixture(tuple((w, a) for (w, _, _, _), a in zip(components, arcs)))


def _split(arcs):
    """Arcs (lo, hi) as merged pieces of [0, 2 pi]."""
    pieces = []
    for lo, hi in arcs:
        width = hi - lo
        if width >= TWO_PI:
            return [(0.0, TWO_PI)]
        lo = lo % TWO_PI
        if lo + width > TWO_PI:
            pieces += [(lo, TWO_PI), (0.0, lo + width - TWO_PI)]
        else:
            pieces.append((lo, lo + width))
    pieces.sort()
    merged = []
    for lo, hi in pieces:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _inside(inner, outer, tol=1e-9):
    return all(any(c - tol <= a and b <= d + tol for c, d in outer) for a, b in inner)


def sandwich(components, est_arcs, eps):
    """supp mu within the estimate, and the estimate within the 2 eps
    thickening of supp mu."""
    supp = [(lo, hi) for _, _, lo, hi in components]
    thick = [(lo - 2 * eps, hi + 2 * eps) for lo, hi in supp]
    est = _split(est_arcs)
    return _inside(_split(supp), est) and _inside(est, _split(thick))


def _support_op(case, n_max, anchors):
    comps = ARC_CASES[case]
    spec = arc_spec(comps)
    eps = ARC_EPSILON[case]

    def run():
        return sq.support_estimate(spec, anchors, n_max, eps)

    def check(est, orc):
        ok = sandwich(comps, est.arcs, eps)
        return outcome("ok" if ok else "inaccurate", sandwich=ok)

    return Op(f"support {case} n_max={n_max}", run, check, lambda est: repr(est.arcs).encode())


def _measure_rule_op(case, n):
    spec = arc_spec(ARC_CASES[case])

    def run():
        m = sq.moments(spec, n)
        schur = sq.schur_from_measure(spec, n)
        table = sq.build_opuc(schur, n)
        return schur, sq.make_rule(table, m, sq.make_pop(table, n, 1.0, 1.0))

    def check(result, orc):
        schur, rule = result
        key = case + repr(ARC_CASES[case])
        arc = orc.arc(key, ARC_CASES[case], n)
        ref = orc.arc_rule(key, ARC_CASES[case], n, ("pop",))
        schur_err = float(np.max(np.abs(schur.coefficients - arc["schur"][:n])))
        errs = rule_errors(rule.node_angles, rule.weights, ref, arc["c"])
        return _rule_outcome([errs], schur_err=schur_err)

    def fp(result):
        return result[0].coefficients.tobytes() + _rule_fp(result[1])

    return Op(f"rule {case} n={n}", run, check, fp)


def arc_measure(seed):
    rng = np.random.default_rng([seed, 2])
    ops = []
    for case in ARC_CASES:
        for n_max in SUPPORT_NMAX:
            ops.append(_support_op(case, n_max, ARC_ANCHORS))
        for n in RULE_N:
            ops.append(_measure_rule_op(case, n))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli_cold: one fresh interpreter per op


def _spawn(cmd, env, workdir):
    """Run a child with its output in files; returns (stdout, stderr, rc,
    peak RSS in kB).  os.wait4 reports the child's own resource usage."""
    out_path = os.path.join(workdir, f"child_{os.getpid()}.out")
    err_path = os.path.join(workdir, f"child_{os.getpid()}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return stdout, stderr, proc.returncode, usage.ru_maxrss


def in_process(argv):
    """Expected bytes and exit code: cli.main called in this process."""
    from szego_quad import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return out.getvalue().encode(), err.getvalue().encode(), rc


def _parse_csv(text):
    lines = text.decode().strip().splitlines()
    return [line.split(",") for line in lines[1:]]


def _cli_op(label, argv, expect_rc, checker, src_dir, workdir, child_script):
    env = {**os.environ, "PYTHONPATH": str(src_dir)}

    def run():
        return _spawn([sys.executable, "-m", "szego_quad.cli", *argv], env, workdir)

    def run_traced(spans_path):
        return _spawn([sys.executable, child_script, spans_path, *argv], env, workdir)

    op = Op(label, run, None, lambda r: r[0] + b"\0" + r[1] + bytes([r[2] & 0xFF]), run_traced,
            {"argv": argv})

    def check(result, orc):
        stdout, stderr, rc = result[:3]
        if (stdout, stderr, rc) != op.expected["bytes"]:
            return outcome("wrong-bytes")
        if rc != expect_rc:
            try:
                code = json.loads(stderr.decode())["error"]
            except (ValueError, KeyError):
                code = f"exit{rc}"
            return outcome(code)
        return checker(stdout, orc) if checker else outcome()

    op.check = check
    return op


def cli_cold(seed, workdir, src_dir, child_script):
    rng = np.random.default_rng([seed, 3])
    lo = float(0.5 * rng.random())
    width = float(2.5 + rng.random())
    comps = [(1.0, "uniform", lo, lo + width)]
    measure = json.dumps({"variant": "arc_density", "name": "uniform", "arc": [lo, lo + width]})
    key = "cli" + repr(comps)
    anchor = float(TWO_PI * rng.random())
    w = complex(np.exp(1j * anchor))
    n_rule, n_schur, n_zeros, n_inter = 6, 8, 6, 8

    def check_rule(stdout, orc):
        rows = _parse_csv(stdout)
        angles = np.array([float(r[1]) for r in rows])
        weights = np.array([float(r[2]) for r in rows])
        arc = orc.arc(key, comps, n_rule)
        ref = orc.arc_rule(key, comps, n_rule, ("anchor", w))
        return _rule_outcome([rule_errors(angles, weights, ref, arc["c"])])

    def check_schur(stdout, orc):
        rows = _parse_csv(stdout)
        got = np.array([complex(float(r[1]), float(r[2])) for r in rows])
        err = float(np.max(np.abs(got - orc.arc(key, comps, n_schur)["schur"][:n_schur])))
        return outcome(schur_err=err)

    def check_zeros(stdout, orc):
        rows = _parse_csv(stdout)
        worst = 0.0
        for n in range(1, n_zeros + 1):
            got = np.array([float(r[2]) for r in rows if int(r[0]) == n])
            ref = orc.arc_rule(key, comps, n, ("anchor", w))
            if len(got) != n:
                return outcome("inaccurate", node_err=math.inf)
            worst = max(worst, float(np.max(np.min(_circ(got[:, None], ref["angles"][None, :]), axis=1))))
        return outcome("ok" if worst <= TOL_NODE else "inaccurate", node_err=worst)

    def check_interlace(stdout, orc):
        ok = all(r[2] == "pass" for r in _parse_csv(stdout))
        return outcome("ok" if ok else "inaccurate")

    config_path = os.path.join(workdir, f"validate_{seed}.json")
    config = {
        "task": "rule",
        "measure": json.loads(measure),
        "parameters": {"n": int(rng.integers(4, 12)), "anchor_angle": anchor},
    }
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    narrow = json.dumps({"variant": "arc_density", "name": "hann", "arc": [1.0, 2.0]})
    # support runs on a fixed arc and anchor: with a seeded arc and anchor
    # the n_max = 16 sandwich fails on about one seed in eight
    sup_comps = [(1.0, "uniform", math.pi / 2, 3 * math.pi / 2)]
    sup_measure = json.dumps({"variant": "arc_density", "name": "uniform",
                              "arc": [math.pi / 2, 3 * math.pi / 2]})
    bogus = json.dumps({"variant": "arc_density", "name": "no_such_density", "arc": [lo, lo + 1.0]})
    aa = ["--anchor-angle", repr(anchor)]
    specs = [
        ("rule", ["rule", "--n", str(n_rule), "--measure", measure, *aa], 0, check_rule),
        ("schur", ["schur", "--n-max", str(n_schur), "--measure", measure], 0, check_schur),
        ("zeros", ["zeros", "--n-max", str(n_zeros), "--measure", measure, *aa], 0, check_zeros),
        # interlacing is a statement about the window cut at the anchor
        ("interlace", ["interlace", "--n-max", str(n_inter), "--measure", measure, *aa,
                       "--omega0", repr(anchor)], 0, check_interlace),
        ("support", ["support", "--n-max", "16", "--epsilon", "0.3", "--measure", sup_measure,
                     "--anchor-angle", "0.0"], 0, _support_json_check(sup_comps, 0.3)),
        ("validate", ["validate", "--config", config_path], 0, None),
        ("config-error", ["rule", "--n", "6", "--measure", bogus], 2, None),
        # the narrow-arc extraction probe in its CLI form: a positive measure must not
        # report NotPositiveDefinite
        ("support-narrow", ["support", "--n-max", "48", "--epsilon", "0.1", "--measure", narrow],
         0, _support_json_check(ARC_CASES["narrow"], 0.1)),
    ]
    ops = [_cli_op(label, argv, rc, chk, src_dir, workdir, child_script)
           for label, argv, rc, chk in specs]
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _support_json_check(comps, eps):
    def check(stdout, orc):
        arcs = [tuple(a) for a in json.loads(stdout.decode())["arcs"]]
        ok = sandwich(comps, arcs, eps)
        return outcome("ok" if ok else "inaccurate", sandwich=ok)

    return check


def build(workload, seed, workdir, src_dir, child_script):
    if workload == "rule_ladder":
        return rule_ladder(seed)
    if workload == "arc_measure":
        return arc_measure(seed)
    if workload == "cli_cold":
        return cli_cold(seed, workdir, src_dir, child_script)
    raise ValueError(f"unknown workload {workload!r}")

