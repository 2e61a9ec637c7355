"""Dense complex polynomial arithmetic.

numpy.polynomial is imported inside __call__ and derivative, the two methods
that use it; they serve polyseq inputs, output and test oracles, so no
measure, rule or CLI run loads it."""

from __future__ import annotations

import numpy as np

from .errors import checked_int


class ComplexPolynomial:
    """Polynomial with dense complex coefficients in ascending powers.

    Trailing coefficients that are exactly zero are dropped on construction,
    so ``len(coeffs) == degree + 1`` always holds.  Instances behave as
    immutable values; arithmetic returns new objects.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if c.ndim != 1:
            raise ValueError("coefficients must form a one-dimensional sequence")
        if not c.size:
            raise ValueError("coefficients must not be empty")
        end = len(c)
        while end > 1 and c[end - 1] == 0:
            end -= 1
        c = c[:end].copy()
        c.flags.writeable = False
        self.coeffs = c

    @classmethod
    def monomial(cls, k, scale=1.0):
        c = np.zeros(k + 1, dtype=complex)
        c[k] = scale
        return cls(c)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, z):
        from numpy.polynomial import polynomial as npoly

        return npoly.polyval(z, self.coeffs)

    def at_angle(self, theta):
        """Evaluate at exp(i*theta); theta may be an array."""
        return self(np.exp(1j * np.asarray(theta, dtype=float)))

    def padded(self, length):
        if length < len(self.coeffs):
            raise ValueError("pad length below coefficient count")
        out = np.zeros(length, dtype=complex)
        out[: len(self.coeffs)] = self.coeffs
        return out

    def conj_reverse(self, declared_degree=None):
        """Conjugate-reversed coefficients relative to a declared degree.

        For p of degree at most d this is z^d * conj(p)(1/z); applying it twice
        with the same d gives back the original coefficients exactly.
        """
        d = self.degree if declared_degree is None else declared_degree
        d = checked_int(d, "declared_degree", self.degree)
        return ComplexPolynomial(np.conj(self.padded(d + 1))[::-1])

    def derivative(self):
        from numpy.polynomial import polynomial as npoly

        return ComplexPolynomial(npoly.polyder(self.coeffs))

    def shifted(self, k):
        """Multiply by z^k (k >= 0)."""
        k = checked_int(k, "k", 0)
        return ComplexPolynomial(np.concatenate((np.zeros(k, dtype=complex), self.coeffs)))

    def deflate(self, root):
        """Synthetic division by (z - root): returns (quotient, remainder)."""
        c = self.coeffs
        if len(c) == 1:
            raise ValueError("cannot deflate a constant")
        b = np.empty(len(c) - 1, dtype=complex)
        acc = c[-1]
        for j in range(len(c) - 2, -1, -1):
            b[j] = acc
            acc = c[j] + root * acc
        return ComplexPolynomial(b), complex(acc)

    def __add__(self, other):
        if isinstance(other, ComplexPolynomial):
            n = max(len(self.coeffs), len(other.coeffs))
            return ComplexPolynomial(self.padded(n) + other.padded(n))
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, ComplexPolynomial):
            n = max(len(self.coeffs), len(other.coeffs))
            return ComplexPolynomial(self.padded(n) - other.padded(n))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, ComplexPolynomial):
            return ComplexPolynomial(np.convolve(self.coeffs, other.coeffs))
        if isinstance(other, (int, float, complex, np.number)):
            return ComplexPolynomial(self.coeffs * complex(other))
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return ComplexPolynomial(-self.coeffs)

    def __repr__(self):
        return f"ComplexPolynomial(degree={self.degree})"
