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
zeros and moments from the CMV matrix, held as its five bands (cmv_bands,
which apply C to a vector or to the columns of a matrix; cmv_matrix forms
the dense product L M for the tests to compare against).  szego_sweep yields
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


def _cmv_factors(schur: SchurSequence, n: int, lam):
    """Diagonals of L and M (rows 0 and 1) and their off-diagonal rho_1..rho_{n-1},
    whose entry k sits in L for even k and in M for odd k (cmv_matrix, cmv_bands)."""
    g = np.append(-np.conj(schur.coefficients[: n - 1]), -np.conj(complex(lam)))
    diag = np.empty((2, n), dtype=complex)
    for par in (0, 1):
        diag[par, par::2] = np.conj(g[par::2])
        diag[par, par + 1 :: 2] = -g[par : n - 1 : 2]
    diag[1, 0] = 1.0
    return diag, schur.rho[: n - 1]


def cmv_matrix(schur: SchurSequence, n: int, lam) -> np.ndarray:
    """Unitary CMV matrix C = L M with det(z - C) = z Phi_{n-1} + lam Phi_{n-1}*, |lam| = 1.

    Simon's convention (Cantero-Moral-Velazquez, LAA 362, 2003) for the parameters
    g = -conj(a_1), ..., -conj(a_{n-1}), -conj(lam): blocks [[conj(g), rho], [rho, -g]],
    even ones in L, odd ones in M after its leading 1, the last one as conj(g) alone;
    rho_1..rho_{n-1} are read from schur, since |g_k| = |a_k|.  The dense product is
    the reference the tests hold cmv_bands to; no library path forms it."""
    diag, rho = _cmv_factors(schur, n, lam)
    L, M = np.diag(diag[0]), np.diag(diag[1])
    ks = np.arange(n - 1)
    for blk, js in ((L, ks[0::2]), (M, ks[1::2])):
        blk[js, js + 1] = blk[js + 1, js] = rho[js]
    return L @ M


@dataclass(frozen=True, eq=False)
class CmvBands:
    """The five bands of the pentadiagonal CMV matrix C = L M (cmv_bands): the
    diagonal C_kk, the first off-diagonals C_{k+1,k} (below) and C_{k,k+1}
    (above), and the second off-diagonal rho_k rho_{k+1}, which is C_{k,k+2} for
    even k and C_{k+2,k} for odd k.  C @ X is the banded product for a vector
    X or for the columns of a matrix X."""

    diag: np.ndarray
    below: np.ndarray
    above: np.ndarray
    second: np.ndarray

    def __matmul__(self, X):
        X = np.asarray(X)
        col = (slice(None),) + (None,) * (X.ndim - 1)
        Y = self.diag[col] * X
        Y[1:] += self.below[col] * X[:-1]
        Y[:-1] += self.above[col] * X[1:]
        Y[:-2:2] += self.second[0::2][col] * X[2::2]
        Y[3::2] += self.second[1::2][col] * X[1:-2:2]
        return Y


def cmv_bands(schur: SchurSequence, n: int, lam) -> CmvBands:
    """The bands of C = cmv_matrix(schur, n, lam) from the blocks of L and M alone.
    L and M are tridiagonal with off-diagonals in disjoint places, so C_kk = L_kk
    M_kk; C_{k+1,k} and C_{k,k+1} are rho_k times M_kk and M_{k+1,k+1} for even k
    (rho_k in L), times L_{k+1,k+1} and L_kk for odd k; and the second
    off-diagonal is rho_k rho_{k+1}.  Only the diagonal is a product of two
    complex numbers, so the bands match the matrix product to its rounding."""
    (dl, dm), rho = _cmv_factors(schur, n, lam)
    in_l = np.arange(n - 1) % 2 == 0
    return CmvBands(
        diag=dl * dm,
        below=rho * np.where(in_l, dm[:-1], dl[1:]),
        above=rho * np.where(in_l, dm[1:], dl[:-1]),
        second=rho[:-1] * rho[1:],
    )


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
    per degree it keeps one complex number, conj(phi_k) phi_k* / |phi_k|^2 times
    the tail sum sum_{j>=k} |phi_j|^2 / |phi_k|^2.  The forward pass from phi_0
    = 1, szego_sweep's arithmetic operand for operand (its values are
    bit-identical) in place, multiplies its own phi_k conj(phi_k*) by it: the
    angle of that product is the phase difference of the unimodular ratios
    phi / phi* of the two passes, already in (-pi, pi], and its modulus is
    |phi_k|^2 times the backward tail.  Each pass is stable where it climbs
    towards the peak of |phi_k|, so the splice is the degree where the two
    ratios differ least, d = their phase difference there, and K sums the
    forward part below s and the scaled tail from s on (twisted
    factorizations, Fernando, SIMAX 18, 1997).  At a zero d is 0; near one d
    = (theta - theta_0) K / |phi_s|^2, so theta - d |phi_s|^2 / K is a Newton
    step.  Keeps 16 bytes per point and degree; 38 array operations
    per degree, 8 ms at 512 points and 6 ms at 256 over 255 degrees (one
    OpenBLAS thread, 2-core x86-64).
    """
    z = np.asarray(z, dtype=complex)
    coeffs, rhos = schur.coefficients.tolist(), schur.rho.tolist()
    ratio = np.empty((n,) + z.shape, dtype=complex)
    b = -np.broadcast_to(np.asarray(lam, dtype=complex), z.shape)
    bs, zc = z.copy(), np.conj(z)
    tmp, cross = np.empty((2,) + z.shape, dtype=complex)
    tail, inv = np.ones(z.shape), np.empty(z.shape)
    np.multiply(np.conj(b), bs, out=ratio[n - 1])
    # numpy's complex products round apart with their operands swapped, so
    # both passes keep the scalar-first order of the plain recurrences
    for k in range(n - 2, -1, -1):
        a = coeffs[k]
        np.multiply(a.conjugate(), b, out=cross)
        np.multiply(a, bs, out=tmp)
        b -= tmp
        b *= zc
        bs -= cross
        np.reciprocal(np.abs(b, out=inv), out=inv)
        b *= inv
        bs *= inv
        inv *= inv
        inv *= rhos[k] * rhos[k]
        tail *= inv
        tail += 1.0
        np.conjugate(b, out=ratio[k])
        ratio[k] *= bs
        ratio[k] *= tail
    p, s = np.ones((2,) + z.shape, dtype=complex)
    m2, dk, mag = np.empty((3,) + z.shape)
    acc = np.zeros(z.shape)
    closer = np.empty(z.shape, dtype=bool)
    least = np.full(z.shape, np.inf)
    K, d, mod2 = np.empty((3,) + z.shape)
    for k in range(n):
        if k:
            a, scale = coeffs[k - 1], 1.0 / rhos[k - 1]
            np.multiply(z, p, out=cross)
            np.multiply(a, s, out=p)
            p += cross
            p *= scale
            np.multiply(a.conjugate(), cross, out=cross)
            s += cross
            s *= scale
        np.abs(p, out=m2)
        m2 *= m2
        np.conjugate(s, out=tmp)
        tmp *= p
        tmp *= ratio[k]
        np.arctan2(tmp.imag, tmp.real, out=dk)
        np.abs(dk, out=mag)
        np.less(mag, least, out=closer)
        np.copyto(least, mag, where=closer)
        np.copyto(d, dk, where=closer)
        # K were the splice at k: the forward sum below k plus |phi_k|^2 tail_k
        np.abs(tmp, out=mag)
        mag += acc
        acc += m2
        np.copyto(K, mag, where=closer)
        np.copyto(mod2, m2, where=closer)
    return K, d, mod2
