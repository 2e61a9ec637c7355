"""High-precision reference for the Szego recurrence, checked against itself.

Four functions serve every test that needs more than double precision:
``szego`` (monic Phi_n, Phi_n* and their derivatives at a point),
``zeros`` (Newton-polished zeros of Phi_n + t Phi_n*), ``rule`` (those
zeros with the kernel weights 1 / K_{n-1}(z, z) summed at them) and
``levinson_moments`` (moments by the inverse Levinson recurrence).

They compute in binary fixed point: a complex number is a pair of Python
integers scaled by 2**bits, so sums are exact and each product is truncated
once to the scale.  Double inputs are taken exactly, up to that truncation.

Precision rule: a result computed at ``bits`` is accepted only when a run at
2 * bits agrees with it, for each output array, to 10**-MARGIN_DIGITS (1e-20)
of that array's largest entry (of each entry, for ``rule``, whose weights
span dozens of orders): eight orders below the tightest tolerance a
test holds a reference to (1e-12).  Otherwise the precision doubles and the
comparison repeats, up to MAX_BITS, past which the reference raises rather
than return an unchecked result.  Each function returns its result with the
precision at which it was accepted.
"""

import math

import numpy as np

START_BITS = 128
MAX_BITS = 4096
MARGIN_DIGITS = 20
# Newton steps per run at most; the iteration stops once a step falls below
# 2**(-bits / 2), after which the next error is below the working precision
_NEWTON_STEPS = 12


def _objects(values):
    return np.array(list(values), dtype=object)


class _Fixed:
    """Complex array re + i im: object arrays of Python ints scaled by 2**bits."""

    def __init__(self, re, im, bits):
        self.re, self.im, self.bits = re, im, bits

    @classmethod
    def of(cls, values, bits):
        """Fixed-point image of complex doubles, exact up to the floor at 2**-bits."""
        values = np.atleast_1d(np.asarray(values, dtype=complex))

        def part(x):
            num, den = float(x).as_integer_ratio()
            return (num << bits) // den

        return cls(_objects(map(part, values.real)), _objects(map(part, values.imag)), bits)

    def __getitem__(self, key):
        return _Fixed(self.re[key], self.im[key], self.bits)

    def entries(self):
        """Each entry as a one-element array."""
        return [self[k : k + 1] for k in range(len(self.re))]

    def __add__(self, other):
        return _Fixed(self.re + other.re, self.im + other.im, self.bits)

    def __sub__(self, other):
        return _Fixed(self.re - other.re, self.im - other.im, self.bits)

    def __mul__(self, other):
        b = self.bits
        if isinstance(other, int):  # a real fixed-point scalar
            return _Fixed((self.re * other) >> b, (self.im * other) >> b, b)
        re = (self.re * other.re - self.im * other.im) >> b
        im = (self.re * other.im + self.im * other.re) >> b
        return _Fixed(re, im, b)

    def __truediv__(self, other):
        den = other.re * other.re + other.im * other.im
        re = ((self.re * other.re + self.im * other.im) << self.bits) // den
        im = ((self.im * other.re - self.re * other.im) << self.bits) // den
        return _Fixed(re, im, self.bits)

    def conj(self):
        return _Fixed(self.re, -self.im, self.bits)

    def sum(self):
        return _Fixed(_objects([sum(self.re, 0)]), _objects([sum(self.im, 0)]), self.bits)

    def concat(self, other):
        return _Fixed(
            np.concatenate((self.re, other.re)), np.concatenate((self.im, other.im)), self.bits
        )

    def unit(self):
        """self / |self|, entrywise."""
        mag = _objects(math.isqrt(int(x)) for x in self.re * self.re + self.im * self.im)
        return _Fixed((self.re << self.bits) // mag, (self.im << self.bits) // mag, self.bits)

    def largest(self):
        """The largest |re| or |im| of any entry, at scale 2**bits."""
        return max(map(abs, np.concatenate((self.re, self.im))), default=0)

    def complex(self):
        scale = 1 << self.bits  # int / int rounds correctly
        return np.array([complex(r / scale, i / scale) for r, i in zip(self.re, self.im)])


def _agree(lo, hi, entrywise=False):
    """Whether the run at bits (lo) matches the run at 2 bits (hi) to the margin,
    of the largest entry or, entrywise, of each entry."""
    shift = hi.bits - lo.bits
    diff = hi - _Fixed(lo.re << shift, lo.im << shift, hi.bits)
    pairs = zip(diff.entries(), hi.entries()) if entrywise else [(diff, hi)]
    return all(d.largest() * 10**MARGIN_DIGITS <= h.largest() for d, h in pairs)


def _checked(compute, entrywise=False):
    """compute(bits), a list of _Fixed arrays, accepted at the first precision
    from START_BITS that a run at twice it confirms; returns (arrays, bits)."""
    bits = START_BITS
    lo = compute(bits)
    while 2 * bits <= MAX_BITS:
        hi = compute(2 * bits)
        if all(_agree(x, y, entrywise) for x, y in zip(lo, hi)):
            return lo, bits
        lo, bits = hi, 2 * bits
    raise ArithmeticError(f"no two runs up to {MAX_BITS} bits agree to 1e-{MARGIN_DIGITS}")


def _sweep(coeffs, z):
    """Monic Phi_n, Phi_n* and their z-derivatives at the points z, by the
    Szego recurrence Phi_{k+1} = z Phi_k + a Phi_k*, Phi_{k+1}* = Phi_k* + conj(a) z Phi_k."""
    one = _Fixed.of(np.ones(len(z.re)), z.bits)
    zero = _Fixed.of(np.zeros(len(z.re)), z.bits)
    p = s = one
    dp = ds = zero
    for a in coeffs:
        ac = a.conj()
        zp, dzp = z * p, p + z * dp
        p, s = zp + a * s, s + ac * zp
        dp, ds = dzp + a * ds, ds + ac * dzp
    return p, s, dp, ds


def szego(coeffs, z, sign=1):
    """Monic Phi_n(z), Phi_n*(z), Phi_n'(z) and Phi_n*'(z), n = len(coeffs), at
    one complex point z, for the coefficients sign * coeffs (sign = -1 gives the
    second-kind Omega_n).  Returns (complex array of the four, accepted bits)."""

    def compute(bits):
        a = _Fixed.of(sign * np.asarray(coeffs, dtype=complex), bits).entries()
        return list(_sweep(a, _Fixed.of(z, bits)))

    values, bits = _checked(compute)
    return np.concatenate([v.complex() for v in values]), bits


def _polish(a, lam, z):
    """Newton on the circle for the zeros of Phi_n + lam Phi_n*, from the unit points z."""
    for _ in range(_NEWTON_STEPS):
        p, s, dp, ds = _sweep(a, z)
        step = (p + lam * s) / (dp + lam * ds)
        z = (z - step).unit()
        if step.largest() >> (z.bits // 2) == 0:
            break
    return z


def zeros(coeffs, t, angles):
    """Zeros of Phi_n + t Phi_n*, n = len(coeffs), by Newton on the circle from
    the given angles, t taken as t / |t|.  Returns (angles in [0, 2 pi],
    accepted bits)."""
    starts = np.exp(1j * np.asarray(angles, dtype=float))

    def compute(bits):
        a = _Fixed.of(coeffs, bits).entries()
        return [_polish(a, _Fixed.of(t, bits).unit(), _Fixed.of(starts, bits).unit())]

    (z,), bits = _checked(compute)
    return np.angle(z.complex()) % (2 * np.pi), bits


def rule(coeffs, t, angles):
    """The zeros of zeros(coeffs, t, angles) and the weights 1 / K_{n-1}(z, z) =
    1 / sum_{k<n} |Phi_k(z)|^2 / e_k summed at them in the same precision: in
    double precision a zero is off by an ulp, and there the sum picks up the
    solution that grows past the peak of |Phi_k|.  Each weight is checked to
    1e-20 of itself.  Returns (angles in [0, 2 pi], weights, accepted bits)."""
    starts = np.exp(1j * np.asarray(angles, dtype=float))

    def compute(bits):
        a = _Fixed.of(coeffs, bits).entries()
        z = _polish(a, _Fixed.of(t, bits).unit(), _Fixed.of(starts, bits).unit())
        one = 1 << bits
        p = s = _Fixed.of(np.ones(len(starts)), bits)
        kernel, e = p.re, one
        for ak in a[:-1]:
            zp = z * p
            p, s = zp + ak * s, s + ak.conj() * zp
            # an e_k below the precision floor makes this run disagree with the next
            e = max(1, (e * (one - ((ak.re[0] ** 2 + ak.im[0] ** 2) >> bits))) >> bits)
            kernel = kernel + ((p.re * p.re + p.im * p.im) // e)
        weights = (one << bits) // kernel
        return [z, _Fixed(weights, 0 * weights, bits)]

    (z, w), bits = _checked(compute, entrywise=True)
    return np.angle(z.complex()) % (2 * np.pi), w.complex().real, bits


def levinson_moments(coeffs):
    """Moments c_0..c_K, K = len(coeffs), of the measure with Schur coefficients
    a_1..a_K, by the inverse Levinson recurrence c_{k+1} = -a_{k+1} e_k -
    sum_{j<k} Phi_k[j] c_{j+1} on the monic coefficients Phi_k[j], with
    e_k = prod_{j<=k} (1 - |a_j|^2).  Returns (complex array, accepted bits)."""

    def compute(bits):
        c = phi = _Fixed.of([1.0], bits)  # c_0..c_k, and Phi_k by ascending power
        zero = _Fixed.of([0.0], bits)
        e = 1 << bits
        for k, ak in enumerate(_Fixed.of(coeffs, bits).entries()):
            c = c.concat(zero - ak * e - (phi[:k] * c[1 : k + 1]).sum())
            phi = zero.concat(phi) + ak * phi[::-1].conj().concat(zero)
            e = (e * ((1 << bits) - ((ak.re[0] ** 2 + ak.im[0] ** 2) >> bits))) >> bits
        return [c]

    (c,), bits = _checked(compute)
    return c.complex(), bits
