"""Deterministic text artifacts: one layout per artifact, two renderings.

Each artifact has one layout function (``rule``, ``moments``, ``schur``,
``zero_rows``, ``interlace``, ``support``) returning ``(table, doc)``: the
CSV table ``(columns, rows)``, or None for an artifact without one, and the
JSON document.  A row artifact's document is derived from its rows: the head
fields, then one object per row under one key.  ``rule`` keeps a columnar
document.  ``csv_text`` renders every table and ``json_text`` every document.

Identical inputs give byte-identical text: floats in 17-significant-digit
lowercase scientific notation, JSON keys in insertion order.
"""

from __future__ import annotations

import json as _json

import numpy as np


def fmt_float(x) -> str:
    return f"{float(x):.16e}"


def _render(obj, level):
    pad, pad_in = "  " * level, "  " * (level + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, str):
        return _json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [_render(v, level + 1) for v in obj]
        if not items:
            return "[]"
        body = (",\n" + pad_in).join(items)
        return "[\n" + pad_in + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        items = [
            _json.dumps(str(k)) + ": " + _render(v, level + 1) for k, v in obj.items()
        ]
        if not items:
            return "{}"
        body = (",\n" + pad_in).join(items)
        return "{\n" + pad_in + body + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_text(obj) -> str:
    return _render(obj, 0) + "\n"


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return fmt_float(v)
    return str(v).replace(",", ";")


def csv_text(columns, rows) -> str:
    """A header line, then one line per row: floats through fmt_float, None
    as an empty cell, a comma inside text as ';'."""
    lines = [",".join(columns)] + [",".join(map(_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _row_layout(columns, rows, key, **head):
    """The table, and the document: head fields, then the rows as objects under key."""
    return (columns, rows), {**head, key: [dict(zip(columns, row)) for row in rows]}


def rule(r):
    rows = [(k + 1, t, w) for k, (t, w) in enumerate(zip(r.node_angles, r.weights))]
    doc = {
        "order": r.order,
        "omega0": r.omega0,
        "node_angles": list(map(float, r.node_angles)),
        "weights": list(map(float, r.weights)),
        "source": r.source,
        "exactness_residual": r.exactness_residual,
    }
    return (("k", "theta", "weight"), rows), doc


def zero_rows(entries):
    """entries: iterable of (n, zeros array)."""
    rows = [(n, k + 1, theta) for n, zeros in entries for k, theta in enumerate(zeros)]
    return _row_layout(("n", "k", "theta"), rows, "zeros")


def moments(table):
    rows = [(k, c.real, c.imag) for k, c in enumerate(table.c)]
    return _row_layout(("k", "re", "im"), rows, "moments", K=table.K)


def schur(seq):
    rows = [(n + 1, a.real, a.imag) for n, a in enumerate(seq.coefficients)]
    return _row_layout(("n", "re", "im"), rows, "coefficients", n_max=seq.max_order)


def interlace(results):
    """results: iterable of (n, n_next, ok, witness)."""
    rows = [(n, n2, "pass" if ok else "fail", witness) for n, n2, ok, witness in results]
    return _row_layout(("n", "next", "status", "witness"), rows, "pairs")


def support(est):
    return None, {
        "arcs": [[float(lo), float(hi)] for lo, hi in est.arcs],
        "epsilon": est.epsilon,
        "n_max": est.n_max,
        "anchors": list(map(float, est.anchor_angles)),
    }
