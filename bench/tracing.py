"""Span recorder installed around the layers of szego_quad from outside.

Each layer is a module of the package.  The recorder wraps

* the functions each module imports from its siblings (so a call that
  crosses a layer boundary opens a span) and the package-level names the
  benchmark itself calls;
* ``ComplexPolynomial.__call__`` and ``ComplexPolynomial.at_angle``;
* the ``value_fn`` handed to ``circle_zero_angles``;
* every function of ``serialize``, which the CLI reaches through the module.

``circle`` and ``errors`` are helpers and are not wrapped; their time is
counted under their callers.  A span records its name, layer, start, end,
parent, op id and a few counts; spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

import numpy as np

HELPER_LAYERS = {"circle", "errors"}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, counts]
        self._stack = []
        self.op_id = None
        self._patched = []

    # -- recording ------------------------------------------------------------

    def begin(self, name, counts=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id, counts or {}])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, counter=None, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name, counter(args, kwargs) if counter else None)
            try:
                out = fn(*args, **kwargs)
                if on_result:
                    self.spans[idx][5].update(on_result(out))
                return out
            finally:
                self.end(idx)

        return traced

    # -- installation -----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package):
        """Wrap the layer boundaries of an imported szego_quad package."""
        mods = {
            name: mod
            for name, mod in vars(package).items()
            if inspect.ismodule(mod) and mod.__name__.startswith(package.__name__ + ".")
        }
        cache = {}

        def traced_for(fn):
            layer = fn.__module__.rsplit(".", 1)[-1]
            key = id(fn)
            if key not in cache:
                name = f"{layer}.{fn.__name__}"
                on_result = _bytes_counter if layer == "serialize" else _RESULT_COUNTERS.get(name)
                cache[key] = self.wrap(fn, name, _COUNTERS.get(name), on_result)
            return cache[key]

        owners = [package] + list(mods.values())
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if not inspect.isfunction(obj):
                    continue
                src = obj.__module__ or ""
                if not src.startswith(package.__name__ + "."):
                    continue
                layer = src.rsplit(".", 1)[-1]
                if layer in HELPER_LAYERS or attr == "circle_zero_angles":
                    continue
                foreign = src != owner.__name__
                # the CLI reaches the serializer through the module object
                serializer = layer == "serialize" and attr != "fmt_float"
                if foreign or (serializer and not attr.startswith("_")):
                    self._patch(owner, attr, traced_for(obj))

        poly = mods["poly"].ComplexPolynomial
        for meth in ("__call__", "at_angle"):
            self._patch(poly, meth, self.wrap(getattr(poly, meth), f"poly.{meth}", _poly_counter))

        # value_fn handed to the zero solver, wherever the solver is called from
        solver = mods["quadrature"].circle_zero_angles

        @functools.wraps(solver)
        def solver_with_fn(value_fn, count, *args, **kwargs):
            fn = self.wrap(value_fn, "quadrature.value_fn", _fn_counter)
            return solver(fn, count, *args, **kwargs)

        traced_solver = self.wrap(
            solver_with_fn, "quadrature.circle_zero_angles", lambda a, k: {"roots": int(a[1])}
        )
        for owner in owners:
            if getattr(owner, "circle_zero_angles", None) is not None:
                self._patch(owner, "circle_zero_angles", traced_solver)

    def uninstall(self):
        while self._patched:
            owner, attr, old = self._patched.pop()
            setattr(owner, attr, old)

    # -- output -----------------------------------------------------------------

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _size(x):
    return int(np.size(x))


def _poly_counter(args, kwargs):
    p, pts = args[0], _size(args[1])
    return {"points": pts, "madds": p.degree * pts}


def _fn_counter(args, kwargs):
    return {"points": _size(args[0])}


def _kernel_counter(args, kwargs):
    return {"points": _size(args[2])}


_COUNTERS = {"opuc.kernel_diag": _kernel_counter}


def _bytes_counter(text):
    return {"bytes": len(text.encode("utf-8"))} if isinstance(text, str) else {}


_RESULT_COUNTERS = {"sof.f_sequence": lambda seq: {"members": len(seq)}}


# ---------------------------------------------------------------------------
# reduction of spans to per-layer metrics


def self_times(spans):
    """Self time of every span: its duration minus its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _outermost(spans, names):
    """Indices of spans in `names` with no ancestor in `names`."""
    out = []
    for i, s in enumerate(spans):
        if s[0] not in names:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            out.append(i)
    return out


def layer_metrics(spans):
    """Per-layer metrics of one pass (times in ms, counts as integers)."""
    own = self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def count(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def total(key, *names):
        return sum(spans[i][5].get(key, 0) for n in names for i in by_name.get(n, ()))

    def incl_ms(*names):
        return 1e3 * sum(spans[i][2] - spans[i][1] for i in _outermost(spans, set(names)))

    def self_ms(*names):
        return 1e3 * sum(own[i] for n in names for i in by_name.get(n, ()))

    def layer_self_ms(layer):
        return 1e3 * sum(own[i] for i, s in enumerate(spans) if s[0].split(".")[0] == layer)

    poly = ("poly.__call__", "poly.at_angle")
    members = ("sof.sof_f1", "sof.sof_f2", "sof.sof_combo")
    serial = tuple(n for n in by_name if n.startswith("serialize."))
    fn_points = total("points", "quadrature.value_fn")
    roots = total("roots", "quadrature.circle_zero_angles")
    return {
        "poly.evals": count(*poly),
        "poly.eval_points": total("points", *poly),
        "poly.horner_madds": total("madds", *poly),
        "poly.eval_ms": self_ms(*poly),
        "opuc.build_ms": incl_ms("opuc.build_opuc"),
        "opuc.second_kind_ms": incl_ms("opuc.second_kind"),
        "opuc.kernel_ms": incl_ms("opuc.kernel_diag", "opuc.kernel_eval", "opuc.kernel_polynomial"),
        "opuc.kernel_points": total("points", "opuc.kernel_diag"),
        "measures.moments_ms": incl_ms("measures.moments", "measures.moments_from_schur"),
        "measures.extract_ms": incl_ms("measures.schur_from_measure", "measures.schur_from_moments"),
        "measures.extract_calls": count("measures.schur_from_measure", "measures.schur_from_moments"),
        "measures.christoffel_ms": incl_ms("measures.christoffel_modify"),
        "measures.christoffel_calls": count("measures.christoffel_modify"),
        "quadrature.zero_calls": count("quadrature.circle_zero_angles"),
        "quadrature.fn_evals": count("quadrature.value_fn"),
        "quadrature.fn_points": fn_points,
        "quadrature.points_per_root": fn_points / roots if roots else 0.0,
        "quadrature.zero_ms": self_ms("quadrature.circle_zero_angles"),
        "quadrature.rule_ms": self_ms(
            "quadrature.make_pop", "quadrature.make_rule", "quadrature.pop_zeros", "quadrature.rule_from_sof"
        ),
        "sof.members": count(*members) + total("members", "sof.f_sequence"),
        "sof.member_ms": self_ms(*members),
        "sof.fseq_ms": incl_ms("sof.f_sequence"),
        "support.estimates": count("support.support_estimate"),
        "support.ms": layer_self_ms("support"),
        "serialize.ms": self_ms(*serial),
        "serialize.bytes": sum(spans[i][5].get("bytes", 0) for i in _outermost(spans, set(serial))),
        "cli.import_ms": incl_ms("cli.import"),
        "cli.run_ms": incl_ms("cli.run"),
    }
