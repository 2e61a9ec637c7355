"""Orthogonal polynomials on the unit circle via the Szego recurrence.

The whole package is driven by the recurrence

    Phi_0 = 1,    Phi_{n+1}(z) = z Phi_n(z) + a_{n+1} Phi_n*(z),

where a_n = Phi_n(0) are the Schur parameters (all strictly inside the unit
disk) and the star denotes the conjugate-reversed polynomial of declared
degree n.  A SchurSequence holds the recurrence state, each part formed once:
a_n, rho_n = sqrt(1 - |a_n|^2) and the squared norms e_0 = 1, e_n = prod_k
(1 - |a_k|^2), and every reader takes rho and e from it.  The reproducing
kernel of degree n is K_n(z, y) = sum_k Phi_k(z) conj(Phi_k(y)) / e_k.
Values and kernel diagonals K_n(z, z) come from the normalized recurrence,
zeros and moments from the CMV matrix (cmv_matrix).  szego_sweep yields
every degree of one recurrence run and szego_values is its last step, so a
family anchored at w takes all its degrees from one sweep at w, and one
kernel_diag sweep reads each point at its own degree.  _two_sided_sweep
splices that forward sweep with a backward one from a rule's boundary, for
kernels and zero mismatches that keep their relative accuracy at any order.
The sequence is the table: build_opuc takes a prefix, which forms its own
rho and e, and the monic Phi_n and Phi_n* are built on first read, for
output and test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import OffCircle, SchurOutOfDisk, checked_int
from .poly import ComplexPolynomial

SCHUR_GUARD = 1.0 - 1e-12
CIRCLE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SchurSequence:
    """Schur (reflection) coefficients a_1, a_2, ... with every |a_n| < 1, and from
    them, once and read-only, rho_n = sqrt(1 - |a_n|^2) and e_0 = 1, e_n = e_{n-1}
    (1 - |a_n|^2); |-a| = |a| bit for bit, so the sequence -a has the same rho and e."""

    coefficients: np.ndarray
    rho: np.ndarray = field(init=False, repr=False)
    e: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        c = np.atleast_1d(np.array(self.coefficients, dtype=complex))
        if c.ndim != 1:
            raise ValueError("Schur coefficients must form a one-dimensional sequence")
        mags = np.abs(c)
        bad = ~(mags <= SCHUR_GUARD)  # NaN fails the guard too
        if bad.any():
            n_bad = int(np.argmax(bad)) + 1
            raise SchurOutOfDisk(
                f"|a_{n_bad}| = {mags[n_bad - 1]:.17g} is not strictly inside the unit disk",
                n=n_bad,
                magnitude=float(mags[n_bad - 1]),
            )
        one_minus = 1.0 - mags**2
        e = np.concatenate(([1.0], np.cumprod(one_minus)))
        for name, arr in (("coefficients", c), ("rho", np.sqrt(one_minus)), ("e", e)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def zeros(cls, n):
        return cls(np.zeros(n, dtype=complex))

    @property
    def max_order(self):
        return len(self.coefficients)

    def a(self, n):
        """n-th coefficient, 1-based."""
        if not 1 <= n <= self.max_order:
            raise IndexError(f"coefficient index {n} outside 1..{self.max_order}")
        return complex(self.coefficients[n - 1])

    @cached_property
    def phi(self) -> tuple:
        """Monic Phi_0..Phi_max_order by the recurrence on exact reversals Phi_n*, which
        stay below top degree, so every leading coefficient is exactly 1.0."""
        one = ComplexPolynomial([1.0])
        phi, star = [one], one
        for n in range(self.max_order):
            phi.append(phi[n].shifted(1) + self.a(n + 1) * star)
            star = phi[n + 1].conj_reverse(n + 1)
        return tuple(phi)

    @cached_property
    def phi_star(self) -> tuple:
        """Phi_n* = z^n conj(Phi_n)(1/z), n = 0..max_order."""
        return tuple(p.conj_reverse(n) for n, p in enumerate(self.phi))


def build_opuc(schur: SchurSequence, n_max: int) -> SchurSequence:
    """The first n_max Schur parameters as their own sequence, with the norms e_0..e_n_max."""
    n_max = checked_int(n_max, "n_max", 0, schur.max_order)
    return SchurSequence(schur.coefficients[:n_max])


def reverse(p: ComplexPolynomial, declared_degree=None) -> ComplexPolynomial:
    """Conjugate-reversed polynomial of declared degree (defaults to deg p)."""
    return p.conj_reverse(declared_degree)


def second_kind(schur: SchurSequence, n_max: int) -> list[ComplexPolynomial]:
    """Second-kind family Omega_0..Omega_{n_max}.

    Convention fixed here: Omega_0 = 1 and the recurrence runs with the Schur
    coefficients sign-flipped, Omega_{n+1} = z Omega_n - a_{n+1} Omega_n*.
    This normalization is pinned down by the identity

        Omega_n*(z) Phi_n(z) + Omega_n(z) Phi_n*(z) = 2 e_n z^n,

    which the second-kind semi-orthogonal functions rely on.  This monic
    table is for output and test oracles; sof takes Omega_n(w) from
    szego_sweep on the same sign-flipped sequence.
    """
    return list(build_opuc(SchurSequence(-schur.coefficients[:n_max]), n_max).phi)


def _check_on_circle(z):
    deviation = np.abs(np.abs(z) - 1.0)
    if not np.all(deviation <= CIRCLE_TOL):
        worst = float(np.max(deviation))
        raise OffCircle(f"point off the unit circle by {worst:.3e}", deviation=worst)


def szego_sweep(schur: SchurSequence, n: int, z):
    """Yield (phi_k(z), phi_k*(z), sum_{j<=k} |phi_j(z)|^2) for k = 0..n, shaped like z,
    by phi_{k+1} = (z phi_k + a_{k+1} phi_k*) / rho_{k+1} and phi_{k+1}* = (phi_k* +
    conj(a_{k+1}) z phi_k) / rho_{k+1}, rho read from schur; phi_k = Phi_k / sqrt(e_k),
    and the sum is K_k(z, z) on the circle.  One sweep serves every degree up to n."""
    z = np.asarray(z, dtype=complex)
    p = s = np.ones(z.shape, dtype=complex)
    acc = np.ones(z.shape, dtype=float)
    yield p, s, acc
    for a, rho in zip(schur.coefficients[:n], schur.rho[:n]):
        zp = z * p
        p, s = (zp + a * s) / rho, (s + np.conj(a) * zp) / rho
        acc = acc + np.abs(p) ** 2
        yield p, s, acc


def szego_values(schur: SchurSequence, n: int, z):
    """phi_n(z), phi_n*(z) and K_n(z, z): the last step of szego_sweep."""
    for step in szego_sweep(schur, n, z):
        pass
    return step


def cmv_matrix(schur: SchurSequence, n: int, lam) -> np.ndarray:
    """Unitary CMV matrix C = L M with det(z - C) = z Phi_{n-1} + lam Phi_{n-1}*, |lam| = 1.

    Simon's convention (Cantero-Moral-Velazquez, LAA 362, 2003) for the parameters
    g = -conj(a_1), ..., -conj(a_{n-1}), -conj(lam): blocks [[conj(g), rho], [rho, -g]],
    even ones in L, odd ones in M after its leading 1, the last one as conj(g) alone;
    rho_1..rho_{n-1} are read from schur, since |g_k| = |a_k|."""
    g = np.append(-np.conj(schur.coefficients[: n - 1]), -np.conj(complex(lam)))
    rho = schur.rho[: n - 1]
    L, M = np.zeros((2, n, n), dtype=complex)
    M[0, 0] = 1.0
    for blk, js in ((L, np.arange(0, n - 1, 2)), (M, np.arange(1, n - 1, 2))):
        blk[js, js] = np.conj(g[js])
        blk[js, js + 1] = blk[js + 1, js] = rho[js]
        blk[js + 1, js + 1] = -g[js]
    (L if (n - 1) % 2 == 0 else M)[n - 1, n - 1] = np.conj(g[-1])
    return L @ M


def kernel_diag(table: SchurSequence, n, z):
    """K_n(z, z) for z on the unit circle, by the normalized recurrence.

    Always >= 1 since the degree-zero term contributes 1.  Accepts scalar or
    array z and returns matching shape.  n is one integer degree for every
    point, or an integer array broadcastable to z's shape with one degree
    per point: one sweep up to the highest degree reads each point at its
    own degree, and since the recurrence is elementwise every value is
    bit-identical to a call at that point's degree alone.
    """
    ns = np.asarray(n)
    if not np.issubdtype(ns.dtype, np.integer):
        raise TypeError(f"kernel degrees must be integers, got {ns.dtype}")
    outside = ns[(ns < 0) | (ns > table.max_order)]
    if outside.size:
        checked_int(outside[0], "n", 0, table.max_order)
    zs = np.asarray(z, dtype=complex)
    _check_on_circle(zs)
    try:
        ns = np.broadcast_to(ns, zs.shape)
    except ValueError:
        raise ValueError(f"{ns.shape} degrees for points of shape {zs.shape}") from None
    top = ns.max(initial=0)
    wanted = np.zeros(top + 1, dtype=bool)
    wanted[ns] = True
    out = np.empty(zs.shape)
    for k, (_, _, acc) in enumerate(szego_sweep(table, top, zs)):
        if wanted[k]:
            at = ns == k
            out[at] = acc[at]
    return float(out) if zs.ndim == 0 else out


def _two_sided_sweep(schur: SchurSequence, n: int, z, lam):
    """K_{n-1}(z, z), the phase mismatch d and |phi_s(z)|^2 at the splice s, for
    the order-n rule whose nodes solve z phi_{n-1} + lam phi_{n-1}* = 0, |lam| = 1.

    The backward pass starts from the boundary pair (-lam, z) at degree n - 1
    and inverts the recurrence, phi_k = (phi_{k+1} - a phi_{k+1}*) / (rho z) and
    phi_k* = (phi_{k+1}* - conj(a) phi_{k+1}) / rho, renormalized at each step;
    per degree it keeps the angle of phi_k / phi_k* and the tail sum
    sum_{j>=k} |phi_j|^2 / |phi_k|^2.  The forward pass, szego_sweep from phi_0
    = 1, compares its own angle with it at each degree.  Each pass is stable
    where it climbs towards the peak of |phi_k|, so the splice is the degree
    where the unimodular ratios phi / phi* of the two passes differ least, d
    = their phase difference there, and K sums the forward part up to s and
    the backward tail scaled to match it (twisted factorizations, Fernando,
    SIMAX 18, 1997).  At a zero d is 0; near one d = (theta - theta_0) K /
    |phi_s|^2, so theta - d |phi_s|^2 / K is a Newton step.  Keeps 16 bytes
    per point and degree.
    """
    z = np.asarray(z, dtype=complex)
    psi, tail = np.empty((2, n) + z.shape)
    b = -np.broadcast_to(np.asarray(lam, dtype=complex), z.shape)
    bs, zc = z, np.conj(z)
    tail[n - 1] = 1.0
    for k in range(n - 1, -1, -1):
        if k < n - 1:
            a, rho = schur.coefficients[k], schur.rho[k]
            b, bs = (b - a * bs) * zc, bs - np.conj(a) * b
            scale = np.abs(b)
            b, bs = b / scale, bs / scale
            tail[k] = 1.0 + tail[k + 1] * (rho / scale) ** 2
        psi[k] = np.angle(b * np.conj(bs))
    least = np.full(z.shape, np.inf)
    K = d = mod2 = least
    for k, (p, s, acc) in enumerate(szego_sweep(schur, n - 1, z)):
        dk = np.remainder(np.angle(p * np.conj(s)) - psi[k] + np.pi, 2 * np.pi) - np.pi
        closer = np.abs(dk) < least
        least = np.where(closer, np.abs(dk), least)
        m2 = np.abs(p) ** 2
        K = np.where(closer, acc + m2 * (tail[k] - 1.0), K)
        d, mod2 = np.where(closer, dk, d), np.where(closer, m2, mod2)
    return K, d, mod2
