"""Orthogonal polynomials on the unit circle via the Szego recurrence.

The whole package is driven by the recurrence

    Phi_0 = 1,    Phi_{n+1}(z) = z Phi_n(z) + a_{n+1} Phi_n*(z),

where a_n = Phi_n(0) are the Schur parameters (all strictly inside the unit
disk) and the star denotes the conjugate-reversed polynomial of declared
degree n.  Squared norms follow as e_0 = 1, e_n = prod_k (1 - |a_k|^2), and
the reproducing kernel of degree n is K_n(z, y) = sum_k Phi_k(z)
conj(Phi_k(y)) / e_k.  Values and kernel diagonals K_n(z, z) come from the
normalized recurrence, zeros and moments from the CMV matrix (cmv_matrix).
szego_sweep yields every degree of one recurrence run and szego_values is
its last step, so a family anchored at w takes all its degrees from one
sweep at w.  A table holds only the Schur parameters and the norms; its
monic Phi_n and Phi_n* are built on first read, for output and test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import OffCircle, SchurOutOfDisk
from .poly import ComplexPolynomial

SCHUR_GUARD = 1.0 - 1e-12
CIRCLE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SchurSequence:
    """Schur (reflection) coefficients a_1, a_2, ... with every |a_n| < 1."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=complex))
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
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)

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


@dataclass(frozen=True, eq=False)
class OpucTable:
    """Schur parameters up to degree order and the norms e_0..e_order; the monic
    Phi_n (phi) and Phi_n* (phi_star) are built on first read, by output and oracles."""

    schur: SchurSequence
    e: np.ndarray
    order: int

    @cached_property
    def phi(self) -> tuple:
        """Monic Phi_0..Phi_order by the recurrence on exact reversals Phi_n*, which stay
        below top degree, so every leading coefficient is exactly 1.0."""
        one = ComplexPolynomial([1.0])
        phi, star = [one], one
        for n in range(self.order):
            phi.append(phi[n].shifted(1) + self.schur.a(n + 1) * star)
            star = phi[n + 1].conj_reverse(n + 1)
        return tuple(phi)

    @cached_property
    def phi_star(self) -> tuple:
        """Phi_n* = z^n conj(Phi_n)(1/z), n = 0..order."""
        return tuple(p.conj_reverse(n) for n, p in enumerate(self.phi))


def build_opuc(schur: SchurSequence, n_max: int) -> OpucTable:
    """Table of the first n_max Schur parameters with e_0 = 1, e_n = e_{n-1} (1 - |a_n|^2)."""
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max > schur.max_order:
        raise ValueError(
            f"n_max = {n_max} exceeds the {schur.max_order} available Schur coefficients"
        )
    e = np.ones(n_max + 1)
    for n in range(n_max):
        e[n + 1] = e[n] * (1.0 - abs(schur.a(n + 1)) ** 2)
    e.flags.writeable = False
    return OpucTable(schur=schur, e=e, order=n_max)


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
    conj(a_{k+1}) z phi_k) / rho_{k+1}, rho = sqrt(1 - |a|^2); phi_k = Phi_k / sqrt(e_k),
    and the sum is K_k(z, z) on the circle.  One sweep serves every degree up to n."""
    z = np.asarray(z, dtype=complex)
    p = s = np.ones(z.shape, dtype=complex)
    acc = np.ones(z.shape, dtype=float)
    yield p, s, acc
    for a in schur.coefficients[:n]:
        rho = np.sqrt(1.0 - abs(a) ** 2)
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
    even ones in L, odd ones in M after its leading 1, the last one as conj(g) alone.

    rho comes from the vectorised np.abs here and from the scalar abs in szego_sweep.
    The two moduli differ in the last bit for about a third of random coefficients,
    and rho then by up to 2 ulps at |a| < 0.6 and 9 ulps at |a| < 0.9.  Both stay as
    they are: either change moves the bits of the n = 256 nodes or weights."""
    g = np.append(-np.conj(schur.coefficients[: n - 1]), -np.conj(complex(lam)))
    rho = np.sqrt(1.0 - np.abs(g[:-1]) ** 2)
    L, M = np.zeros((2, n, n), dtype=complex)
    M[0, 0] = 1.0
    for blk, js in ((L, np.arange(0, n - 1, 2)), (M, np.arange(1, n - 1, 2))):
        blk[js, js] = np.conj(g[js])
        blk[js, js + 1] = blk[js + 1, js] = rho[js]
        blk[js + 1, js + 1] = -g[js]
    (L if (n - 1) % 2 == 0 else M)[n - 1, n - 1] = np.conj(g[-1])
    return L @ M


def kernel_diag(table: OpucTable, n: int, z):
    """K_n(z, z) for z on the unit circle, by the normalized recurrence.

    Always >= 1 since the degree-zero term contributes 1.  Accepts scalar or
    array z and returns matching shape.
    """
    if not 0 <= n <= table.order:
        raise ValueError(f"kernel degree {n} outside 0..{table.order}")
    zs = np.asarray(z, dtype=complex)
    _check_on_circle(zs)
    acc = szego_values(table.schur, n, zs)[2]
    return float(acc) if zs.ndim == 0 else acc
