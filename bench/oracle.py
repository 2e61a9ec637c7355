"""High-precision oracle for Szego rules and arc-measure Schur parameters.

Independent of the package: nodes come from the eigenvalues of the CMV
matrix (Cantero-Moral-Velazquez, LAA 362, 2003), polished by Newton on the
para-orthogonal polynomial evaluated by the Szego recurrence at 200 bits;
weights are the kernel sum 1/K_{n-1}(z, z) (Golub-Welsch on the circle).  Moments come from the Schur sequence by the inverse
Levinson recurrence in mpmath; arc measures get closed-form moments and a
Levinson recurrence run at a working precision 30 digits above -log10 e_n.

Every rule the benchmark checks is the n-point Szego rule whose nodes are
the zeros of z Phi_{n-1}(z) + lam Phi_{n-1}*(z) for a unimodular lam, so one
routine serves make_rule (alpha = beta = 1) and the alternating ladder (lam
chosen so the anchor is a node).
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import mpmath
import numpy as np

DPS = 40


def _mpc(x):
    return mpmath.mpc(float(np.real(x)), float(np.imag(x)))


def _conj(z):
    return mpmath.mpc(z.real, -z.imag)


def cmv_matrix(alphas):
    """n x n CMV matrix C = L M (Simon's convention); |alphas[-1]| = 1."""
    n = len(alphas)
    L = np.zeros((n, n), dtype=complex)
    M = np.zeros((n, n), dtype=complex)
    M[0, 0] = 1.0
    for j, al in enumerate(alphas):
        block = L if j % 2 == 0 else M
        if j == n - 1:
            block[j, j] = np.conj(al)
            continue
        rho = math.sqrt(max(0.0, 1.0 - abs(al) ** 2))
        block[j : j + 2, j : j + 2] = [[np.conj(al), rho], [rho, -al]]
    return L @ M


def _phi_pair(schur_mp, z):
    """Phi_n(z) and Phi_n*(z), n = len(schur_mp), by the monic recurrence."""
    p = mpmath.mpc(1)
    s = mpmath.mpc(1)
    for a in schur_mp:
        zp = z * p
        p, s = zp + a * s, s + _conj(a) * zp
    return p, s


# Fixed-point complex vectors: (re, im) numpy object arrays of Python ints
# scaled by 2**FX_BITS, so one sweep of the recurrence runs over every node
# at once with FX_BITS/3.32 digits of absolute precision.
FX_BITS = 200


def _fx(x):
    """Exact fixed-point image of an mpf."""
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    shift = exp + FX_BITS
    val = man << shift if shift >= 0 else man >> -shift
    return -val if sign else val


def _mpf(i):
    return mpmath.mpf((int(i), -FX_BITS))


def _sweep(coefs, zr, zi, lam):
    """Orthonormal recurrence phi_{k+1} = (z phi_k + a phi_k*) / rho_k at the
    points z = zr + i zi (fixed point), k = 0..n-1.

    Returns Q = z phi_{n-1} + lam phi_{n-1}* and its derivative, and the
    kernel K_{n-1}(z, z) = sum_k |phi_k(z)|^2, all fixed point.
    """
    one = 1 << FX_BITS
    m = len(zr)
    pr = np.full(m, one, dtype=object)
    pi = np.zeros(m, dtype=object)
    sr, si = pr.copy(), pi.copy()
    dpr, dpi = pi.copy(), pi.copy()
    dsr, dsi = pi.copy(), pi.copy()
    kern = pr.copy()
    for ar, ai, inv_rho in coefs:
        zpr = (zr * pr - zi * pi) >> FX_BITS
        zpi = (zr * pi + zi * pr) >> FX_BITS
        # derivative of z phi_k: phi_k + z phi_k'
        dzr = pr + ((zr * dpr - zi * dpi) >> FX_BITS)
        dzi = pi + ((zr * dpi + zi * dpr) >> FX_BITS)
        npr = zpr + ((ar * sr - ai * si) >> FX_BITS)
        npi = zpi + ((ar * si + ai * sr) >> FX_BITS)
        nsr = sr + ((ar * zpr + ai * zpi) >> FX_BITS)
        nsi = si + ((ar * zpi - ai * zpr) >> FX_BITS)
        ndpr = dzr + ((ar * dsr - ai * dsi) >> FX_BITS)
        ndpi = dzi + ((ar * dsi + ai * dsr) >> FX_BITS)
        ndsr = dsr + ((ar * dzr + ai * dzi) >> FX_BITS)
        ndsi = dsi + ((ar * dzi - ai * dzr) >> FX_BITS)
        pr, pi = (npr * inv_rho) >> FX_BITS, (npi * inv_rho) >> FX_BITS
        sr, si = (nsr * inv_rho) >> FX_BITS, (nsi * inv_rho) >> FX_BITS
        dpr, dpi = (ndpr * inv_rho) >> FX_BITS, (ndpi * inv_rho) >> FX_BITS
        dsr, dsi = (ndsr * inv_rho) >> FX_BITS, (ndsi * inv_rho) >> FX_BITS
        kern = kern + ((pr * pr + pi * pi) >> FX_BITS)
    # the loop ran to phi_{n-1}; K_{n-1} needs nothing beyond it
    lr, li = lam
    qr = ((zr * pr - zi * pi) + (lr * sr - li * si)) >> FX_BITS
    qi = ((zr * pi + zi * pr) + (lr * si + li * sr)) >> FX_BITS
    dqr = pr + (((zr * dpr - zi * dpi) + (lr * dsr - li * dsi)) >> FX_BITS)
    dqi = pi + (((zr * dpi + zi * dpr) + (lr * dsi + li * dsr)) >> FX_BITS)
    return qr, qi, dqr, dqi, kern


def _polish(head, lam, z0):
    """Newton on the para-orthogonal polynomial from the eigenvalues z0 until
    the step is below 1e-25; returns nodes (mpc) and weights 1/K (mpf).

    The last step measures how far the iterate at which the kernel was
    evaluated lies from the root; the returned nodes are one quadratic step
    closer still."""
    coefs = [
        (_fx(a.real), _fx(a.imag), _fx(1 / mpmath.sqrt(1 - (a.real ** 2 + a.imag ** 2))))
        for a in head
    ]
    lam_fx = (_fx(lam.real), _fx(lam.imag))
    nodes = [_mpc(z) / abs(_mpc(z)) for z in z0]
    for _ in range(8):
        zr = np.array([_fx(z.real) for z in nodes], dtype=object)
        zi = np.array([_fx(z.imag) for z in nodes], dtype=object)
        qr, qi, dqr, dqi, kern = _sweep(coefs, zr, zi, lam_fx)
        step = 0.0
        for j, z in enumerate(nodes):
            delta = mpmath.mpc(_mpf(qr[j]), _mpf(qi[j])) / mpmath.mpc(_mpf(dqr[j]), _mpf(dqi[j]))
            z1 = z - delta
            nodes[j] = z1 / abs(z1)
            step = max(step, float(abs(delta)))
        if step < 1e-25:
            return nodes, [1 / _mpf(k) for k in kern]
    raise RuntimeError(f"oracle Newton polish did not converge (last step {step:.2e})")


class Oracle:
    """Memoized oracle; results are keyed by the exact bytes of the input.

    cache_dir, when given, keeps results on disk between runs (JSON files
    named by the SHA-256 of the input bytes).
    """

    def __init__(self, cache_dir=None):
        self.cache_dir = cache_dir
        self._mem = {}
        self.computed = 0

    def _cached(self, kind, payload: bytes, compute):
        key = hashlib.sha256(kind.encode() + b"\0" + payload).hexdigest()
        if key in self._mem:
            return self._mem[key]
        path = os.path.join(self.cache_dir, key + ".json") if self.cache_dir else None
        if path and os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                val = _decode(json.load(fh))
        else:
            val = compute()
            self.computed += 1
            if path:
                os.makedirs(self.cache_dir, exist_ok=True)
                tmp = path + ".tmp"
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump(_encode(val), fh)
                os.replace(tmp, path)
        self._mem[key] = val
        return val

    # -- rules from a Schur sequence ---------------------------------------

    def rule(self, schur, lam_spec):
        """Nodes (angles in [0, 2 pi)) and weights of the n-point Szego rule.

        schur holds a_1..a_n as doubles (n = rule order).  lam_spec is
        ("pop",) for the zeros of Phi_n + Phi_n*, or ("anchor", w) for the
        rule that carries the unimodular point w as a node.
        """
        schur = np.ascontiguousarray(schur, dtype=complex)
        payload = schur.tobytes() + repr(lam_spec).encode()
        return self._cached("rule", payload, lambda: _rule(schur, lam_spec, None))

    def arc_rule(self, spec_key, components, n, lam_spec):
        """As rule(), for an arc measure: order n, from its high-precision
        Schur parameters a_1..a_n."""
        def compute():
            arc = self.arc(spec_key, components, n)
            return _rule(None, lam_spec, arc["schur_mp"][:n])

        payload = f"{spec_key}|{n}|{lam_spec!r}".encode()
        return self._cached("arc_rule", payload, compute)

    def moments(self, schur, K):
        """c_0..c_K of the measure with Schur parameters a_1..a_K (doubles)."""
        schur = np.ascontiguousarray(schur[:K], dtype=complex)
        return self._cached("moments", schur.tobytes(), lambda: _moments_from_schur(schur))

    # -- arc measures ---------------------------------------------------------

    def arc(self, spec_key: str, components, n_max):
        """Schur parameters (mp strings), moments c_0..c_{n_max}, -log10 e_n.

        components: list of (weight, density name, lo, hi).
        """
        payload = (spec_key + f"|{n_max}").encode()
        return self._cached("arc", payload, lambda: _arc_schur(components, n_max))


def _rule(schur, lam_spec, schur_mp):
    """Oracle rule from double Schur parameters, or from decimal strings
    (schur_mp) when the parameters are known to higher precision."""
    with mpmath.workdps(DPS):
        if schur_mp is None:
            schur_mp = [_mpc(a) for a in schur]
        else:
            schur_mp = schur_mp_from_strings(schur_mp)
        n = len(schur_mp)
        head = schur_mp[: n - 1]
        if lam_spec[0] == "pop":
            a_n = schur_mp[n - 1]
            lam = (1 + a_n) / (1 + _conj(a_n))
        else:
            w = _mpc(lam_spec[1])
            w = w / abs(w)
            p, s = _phi_pair(head, w)
            lam = -w * p / s
        head_d = np.array([complex(a) for a in head])
        alphas = np.append(-np.conj(head_d), -np.conj(complex(lam)))
        evals, evecs = np.linalg.eig(cmv_matrix(alphas))
        nodes, weights = _polish(head, lam, evals)
        angles = [float(mpmath.arg(z) % (2 * mpmath.pi)) for z in nodes]
        order = np.argsort(angles)
        return {
            "angles": np.array(angles)[order],
            "weights": np.array([float(w) for w in weights])[order],
            "eig_weights": (np.abs(evecs[0, :]) ** 2)[order],
        }


def _moments_from_schur(schur):
    # the monic coefficients grow up to prod(1 + |a_k|), which the
    # recurrence cancels back down to |c_k| <= 1: pay for those digits
    growth = float(np.sum(np.log10(1.0 + np.abs(schur))))
    with mpmath.workdps(DPS + int(growth) + 1):
        c = [mpmath.mpc(1)]
        phi = [mpmath.mpc(1)]
        e = mpmath.mpf(1)
        for k, a in enumerate(schur):
            a = _mpc(a)
            # <z Phi_k, 1> = sum_j Phi_k[j] c_{j+1} = -a_{k+1} e_k, Phi_k monic
            acc = -a * e
            for j in range(k):
                acc -= phi[j] * c[j + 1]
            c.append(acc)
            star = [_conj(v) for v in reversed(phi)]
            phi = [mpmath.mpc(0)] + phi
            for j in range(len(star)):
                phi[j] += a * star[j]
            e *= 1 - (a.real ** 2 + a.imag ** 2)
        return {"c": np.array([complex(v) for v in c])}


def _arc_moment(name, lo, hi, k):
    """Normalized k-th moment of a density on [lo, hi], closed form."""
    L = hi - lo

    def I(s):
        # integral of exp(i s u) over u in [0, L]
        if s == 0:
            return mpmath.mpf(L)
        return (mpmath.expj(s * L) - 1) / (1j * s)

    if name == "uniform":
        val, mass = I(k), L
    elif name == "hann":
        w = 2 * mpmath.pi / L
        val = (I(k) - (I(k + w) + I(k - w)) / 2) / 2
        mass = L / 2
    else:
        raise ValueError(f"no closed form for arc density '{name}'")
    return mpmath.expj(k * lo) * val / mass


def _arc_schur(components, n_max):
    dps = 50
    while True:
        with mpmath.workdps(dps):
            lo_hi = [(mpmath.mpf(w), nm, mpmath.mpf(lo), mpmath.mpf(hi)) for w, nm, lo, hi in components]
            total = sum(w for w, _, _, _ in lo_hi)
            c = [
                sum(w * _arc_moment(nm, lo, hi, k) for w, nm, lo, hi in lo_hi) / total
                for k in range(n_max + 1)
            ]
            c[0] = mpmath.mpc(1)
            a_list, e_list = _levinson(c, n_max)
            digits_lost = float(-mpmath.log10(e_list[-1]))
            if dps >= digits_lost + 30:
                return {
                    "schur": np.array([complex(a) for a in a_list]),
                    "schur_mp": [(mpmath.nstr(a.real, dps), mpmath.nstr(a.imag, dps)) for a in a_list],
                    "c": np.array([complex(v) for v in c]),
                    "neg_log10_e": digits_lost,
                    "dps": dps,
                }
            dps = int(digits_lost) + 40


def _levinson(c, n_max):
    phi = [mpmath.mpc(1)]
    e = mpmath.mpf(1)
    a_list = []
    e_list = [e]
    for n in range(n_max):
        ip = sum(phi[j] * c[j + 1] for j in range(n + 1))
        a = -ip / e
        a_list.append(a)
        star = [_conj(v) for v in reversed(phi)]
        phi = [mpmath.mpc(0)] + phi
        for j in range(len(star)):
            phi[j] += a * star[j]
        e *= 1 - (a.real ** 2 + a.imag ** 2)
        e_list.append(e)
    return a_list, e_list


def schur_mp_from_strings(pairs):
    return [mpmath.mpc(mpmath.mpf(re), mpmath.mpf(im)) for re, im in pairs]


def _encode(val):
    out = {}
    for k, v in val.items():
        if isinstance(v, np.ndarray) and np.iscomplexobj(v):
            out[k] = {"re": v.real.tolist(), "im": v.imag.tolist()}
        elif isinstance(v, np.ndarray):
            out[k] = {"real": v.tolist()}
        else:
            out[k] = {"plain": v}
    return out


def _decode(obj):
    out = {}
    for k, v in obj.items():
        if "re" in v:
            out[k] = np.array(v["re"]) + 1j * np.array(v["im"])
        elif "real" in v:
            out[k] = np.array(v["real"])
        else:
            out[k] = v["plain"]
    return out


def self_check(oracle: Oracle):
    """Closed forms for Lebesgue measure: nodes at the n-th roots of -1,
    weights 1/n, moments c_k = delta_k0.  Returns the worst deviation."""
    worst = 0.0
    for n in (4, 16, 64):
        r = oracle.rule(np.zeros(n, dtype=complex), ("pop",))
        ref = np.sort(np.mod((2 * np.arange(n) + 1) * np.pi / n, 2 * np.pi))
        worst = max(worst, float(np.max(np.abs(r["angles"] - ref))))
        worst = max(worst, float(np.max(np.abs(r["weights"] - 1.0 / n))))
        worst = max(worst, float(np.max(np.abs(r["eig_weights"] - 1.0 / n))))
        c = oracle.moments(np.zeros(n, dtype=complex), n)["c"]
        worst = max(worst, float(np.max(np.abs(c[1:]))), abs(c[0] - 1.0))
    # uniform arc on the full circle is Lebesgue: Schur parameters vanish
    arc = oracle.arc("selfcheck-full-circle", [(1.0, "uniform", 0.0, 2 * math.pi)], 8)
    worst = max(worst, float(np.max(np.abs(arc["schur"]))))
    return worst
