"""Probability measures on the unit circle: declarations, moments, extraction.

A measure is declared structurally (absolutely continuous pieces, atoms,
mixtures) and discretized once into positive nodes and weights; the
trigonometric moments c_k = integral of z^k d(mu), reference integrals and
value-space Schur extraction all read that discretization.  A measure and a
bare moment table reach their Schur parameters through one Gram-Schmidt
recurrence; only the inner product differs (weighted sums over the nodes, or
the Toeplitz matrix of the moments on coefficient vectors).  All measures
are normalized to unit total mass, so c_0 = 1 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .circle import TWO_PI, fold_angle
from .errors import (
    ConfigError,
    IntegrationResolution,
    MomentRangeExceeded,
    NotPositiveDefinite,
    OffCircle,
    checked_int,
)
from .opuc import CIRCLE_TOL, SCHUR_GUARD, SchurSequence, cmv_bands

RESOLUTION_TOL = 1e-10
# schur_from_moments stops where e_n departs from e_{n-1} (1 - |a_n|^2) by
# more than this; the error of a_n follows the departure
RECURRENCE_TOL = 1e-8
# Gauss-Legendre nodes per panel.  A panel's phase span is at most 2 pi:
# moments put max(K, 32) panels on an arc of length <= 2 pi, the extraction
# K = 2 n_max + 2 panels on degrees <= n_max + 1, a span <= pi.  Over those
# spans the 16-point rule integrates e^{i phi} on [-1, 1] to 1.3e-15 or
# better (8 points: 1.7e-10), and grid doubling still checks every result.
# The rule is stored, so no run imports numpy.polynomial: leggauss(16)
# (Golub-Welsch), nodes odd and weights even, checked against it in a test.
_GL_POINTS = 16
_GL_HALF_NODES = np.array([
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
])
_GL_HALF_WEIGHTS = np.array([
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
])
_GL_NODES = np.concatenate((-_GL_HALF_NODES[::-1], _GL_HALF_NODES))
_GL_WEIGHTS = np.concatenate((_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS))
_GL_NODES.flags.writeable = _GL_WEIGHTS.flags.writeable = False
# panels per full circle or arc behind measure_integral: the kink of
# |sin(theta / 2)| at 0 sits on a panel edge of the full circle, so it
# integrates to 1e-12
_INTEGRAL_PANELS = 128
# atoms closer than this on the circle are one point
_ATOM_GAP = 1e-12


# ---------------------------------------------------------------------------
# measure declarations


@dataclass(frozen=True)
class Lebesgue:
    """Normalized arc length d(theta) / (2 pi)."""


@dataclass(frozen=True)
class Density:
    """Smooth density on the full circle, drawn from the built-in catalog.

    The grid attribute is a lower bound on the number of sample points: the
    moment computation never uses fewer than max(grid, 8*K, 512) trapezoid
    points, measure_integral never fewer than grid Gauss-Legendre nodes, and
    both always cross-check against the doubled grid.
    """

    name: str
    param: complex | float | None = None
    grid: int | None = None


@dataclass(frozen=True)
class ArcDensity:
    """Density supported on the closed arc [lo, hi] (radians, hi - lo <= 2 pi)."""

    name: str
    arc: tuple[float, float]
    param: complex | float | None = None


@dataclass(frozen=True)
class Atomic:
    """Finitely many point masses; weights strictly positive, angles distinct."""

    atoms: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class Mixture:
    """Convex combination of component measures (weights renormalized)."""

    components: tuple[tuple[float, "MeasureSpec"], ...]


MeasureSpec = Union[Lebesgue, Density, ArcDensity, Atomic, Mixture]


def _rho_one_minus_cos(theta, param):
    return (1.0 - np.cos(theta)) / TWO_PI


def _rho_bernstein_szego(theta, param):
    beta = complex(param)
    if abs(beta) >= 1.0:
        raise ValueError("bernstein_szego parameter must lie inside the unit disk")
    denom = np.abs(1.0 - np.conj(beta) * np.exp(1j * theta)) ** 2
    return (1.0 - abs(beta) ** 2) / (TWO_PI * denom)


def _rho_uniform(theta, param):
    return np.ones_like(np.asarray(theta, dtype=float))


DENSITIES = {
    "one_minus_cos": _rho_one_minus_cos,
    "bernstein_szego": _rho_bernstein_szego,
    "uniform": _rho_uniform,
}


def _arc_hann(theta, lo, hi, param):
    t = (np.asarray(theta, dtype=float) - lo) / (hi - lo)
    return 0.5 * (1.0 - np.cos(TWO_PI * t))


ARC_DENSITIES = {
    "uniform": lambda theta, lo, hi, param: _rho_uniform(theta, param),
    "hann": _arc_hann,
}


def _lookup(kind, name, catalog, at):
    if name not in catalog:
        known = ", ".join(sorted(catalog))
        raise ConfigError(f"{at}.name: unknown {kind} '{name}'; known names: {known}", name=name)
    return catalog[name]


# ---------------------------------------------------------------------------
# JSON round trip


def json_integer(v) -> bool:
    """A JSON integer: an int that is not a boolean (json reads true as True)."""
    return isinstance(v, int) and not isinstance(v, bool)


def finite_number(v) -> bool:
    """A finite JSON number: an integer, or a float that is neither NaN nor infinite."""
    return json_integer(v) or (isinstance(v, float) and math.isfinite(v))


def _checked_param(obj, at):
    """<at>.param as given: null, a finite number or an [re, im] pair of finite numbers."""
    param = obj.get("param")
    if param is not None and not (finite_number(param) or isinstance(param, list)):
        raise ConfigError(f"{at}.param: must be a finite number or [re, im] pair")
    if isinstance(param, list) and (len(param) != 2 or not all(finite_number(v) for v in param)):
        raise ConfigError(f"{at}.param: [re, im] pair of finite numbers expected")
    return param


def parse_measure(obj) -> MeasureSpec:
    """Build a MeasureSpec from its JSON object form.

    The variant tag selects the shape; a key the variant does not read is a
    ConfigError, and every diagnostic names the offending field by its full
    path (``measure.components[0].measure.name``) so the CLI validate task
    can surface it verbatim.
    """
    return _parse(obj, "measure")


def _known_keys(obj, at, *keys):
    """Refuse the first key of obj that is not one of keys, by its path."""
    for key in obj:
        if key not in keys:
            raise ConfigError(f"{at}.{key}: unknown key; expected one of {', '.join(keys)}")


def _parse(obj, at):
    if not isinstance(obj, dict):
        raise ConfigError(f"{at} must be a JSON object with a 'variant' tag")
    variant = obj.get("variant")
    if variant == "lebesgue":
        _known_keys(obj, at, "variant")
        return Lebesgue()
    if variant == "density":
        _known_keys(obj, at, "variant", "name", "param", "grid")
        name = obj.get("name")
        if not isinstance(name, str):
            raise ConfigError(f"{at}.name: density name must be a string")
        _lookup("density", name, DENSITIES, at)
        param = _checked_param(obj, at)
        if isinstance(param, list):
            param = complex(param[0], param[1])
        grid = obj.get("grid")
        if grid is not None and (not json_integer(grid) or grid <= 0):
            raise ConfigError(f"{at}.grid: must be a positive integer")
        if name == "bernstein_szego":
            if param is None:
                raise ConfigError(f"{at}.param: bernstein_szego requires a parameter")
            if abs(complex(param)) >= 1.0:
                raise ConfigError(f"{at}.param: bernstein_szego parameter must satisfy |param| < 1")
        return Density(name=name, param=param, grid=grid)
    if variant == "arc_density":
        _known_keys(obj, at, "variant", "name", "arc", "param")
        name = obj.get("name")
        if not isinstance(name, str):
            raise ConfigError(f"{at}.name: arc density name must be a string")
        _lookup("arc density", name, ARC_DENSITIES, at)
        arc = obj.get("arc")
        if (
            not isinstance(arc, (list, tuple))
            or len(arc) != 2
            or not all(finite_number(v) for v in arc)
        ):
            raise ConfigError(f"{at}.arc: expected [lo, hi] in radians, finite numbers")
        lo, hi = float(arc[0]), float(arc[1])
        if not lo < hi or hi - lo > TWO_PI + 1e-12:
            raise ConfigError(f"{at}.arc: need lo < hi and hi - lo <= 2*pi")
        return ArcDensity(name=name, arc=(lo, hi), param=_checked_param(obj, at))
    if variant == "atomic":
        _known_keys(obj, at, "variant", "atoms")
        atoms = obj.get("atoms")
        if not isinstance(atoms, (list, tuple)) or not atoms:
            raise ConfigError(f"{at}.atoms: expected a nonempty list of [angle, weight]")
        parsed = []
        for i, atom in enumerate(atoms):
            if (
                not isinstance(atom, (list, tuple))
                or len(atom) != 2
                or not all(finite_number(v) for v in atom)
            ):
                raise ConfigError(f"{at}.atoms[{i}]: expected [angle, weight], finite numbers")
            angle, weight = float(atom[0]), float(atom[1])
            if weight <= 0:
                raise ConfigError(f"{at}.atoms[{i}]: weight must be strictly positive")
            parsed.append((angle, weight))
        folded = np.sort(fold_angle(np.array([a for a, _ in parsed])))
        # distinct on the circle: every gap, the one across the cut included
        if np.diff(folded, append=folded[0] + TWO_PI).min() <= _ATOM_GAP:
            raise ConfigError(f"{at}.atoms: atom angles must be distinct")
        return Atomic(atoms=tuple(parsed))
    if variant == "mixture":
        _known_keys(obj, at, "variant", "components")
        comps = obj.get("components")
        if not isinstance(comps, (list, tuple)) or not comps:
            raise ConfigError(f"{at}.components: expected a nonempty list")
        parsed = []
        for i, comp in enumerate(comps):
            if not isinstance(comp, dict) or "weight" not in comp or "measure" not in comp:
                raise ConfigError(
                    f"{at}.components[{i}]: expected an object with 'weight' and 'measure'"
                )
            _known_keys(comp, f"{at}.components[{i}]", "weight", "measure")
            weight = comp["weight"]
            if not finite_number(weight) or weight <= 0:
                raise ConfigError(
                    f"{at}.components[{i}].weight: must be a finite, strictly positive number"
                )
            parsed.append((float(weight), _parse(comp["measure"], f"{at}.components[{i}].measure")))
        return Mixture(components=tuple(parsed))
    raise ConfigError(
        f"{at}.variant: expected one of lebesgue, density, arc_density, atomic, mixture",
        variant=variant,
    )


# ---------------------------------------------------------------------------
# moments


@dataclass(frozen=True, eq=False)
class MomentTable:
    """Moments c_0..c_K with c_0 = 1; negative indices via conjugation."""

    c: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=complex)).copy()
        c.flags.writeable = False
        object.__setattr__(self, "c", c)

    @property
    def K(self):
        return len(self.c) - 1

    def get(self, k):
        return complex(self.take(checked_int(k, "k")))

    def window(self, lo, hi):
        """Array of c_k for k = lo..hi inclusive."""
        return self.take(np.arange(checked_int(lo, "lo"), checked_int(hi, "hi") + 1))

    def take(self, ks):
        """c_k for each k of the integer array ks; the first (C order) outside |k| <= K raises."""
        ks = np.asarray(ks)
        bad = ks[np.abs(ks) > self.K]
        if bad.size:
            raise MomentRangeExceeded(
                f"moment index {bad[0]} outside the computed range |k| <= {self.K}",
                index=int(bad[0]),
                K=self.K,
            )
        c = self.c[np.abs(ks)]
        return np.where(ks < 0, np.conj(c), c)


# ---------------------------------------------------------------------------
# discretization


def _gl_panels(lo, hi, P):
    """Nodes and weights of P equal Gauss-Legendre panels covering [lo, hi]."""
    edges = np.linspace(lo, hi, P + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    theta = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    return theta, (half[:, None] * _GL_WEIGHTS[None, :]).ravel()


def _discretize(spec: MeasureSpec, K: int, level: int = 0, periodic: bool = True):
    """Positive unit-mass discretization (theta, weights) of the measure.

    Accurate for trigonometric integrands of degree up to K; each level
    doubles the resolution.  Full-circle densities use the periodic
    trapezoid rule, spectrally accurate for smooth periodic integrands;
    periodic=False puts Gauss-Legendre panels there as well, for integrands
    that are merely continuous.  Arcs always use panels, atoms are taken as
    given and mixtures concatenate their components.
    """
    scale = 2**level
    if isinstance(spec, Atomic):
        angles = np.array([a for a, _ in spec.atoms], dtype=float)
        weights = np.array([w for _, w in spec.atoms], dtype=float)
        if np.any(weights <= 0):
            raise ValueError("atom weights must be strictly positive")
        return angles, weights / weights.sum()
    if isinstance(spec, Mixture):
        weights = np.array([w for w, _ in spec.components], dtype=float)
        weights = weights / weights.sum()
        parts = [_discretize(child, K, level, periodic) for _, child in spec.components]
        return (
            np.concatenate([t for t, _ in parts]),
            np.concatenate([wgt * w for wgt, (_, w) in zip(weights, parts)]),
        )
    if isinstance(spec, Lebesgue):
        spec = Density(name="uniform")
    if isinstance(spec, Density):
        fn = _lookup("density", spec.name, DENSITIES, "measure")
        rho = lambda t: fn(t, spec.param)
        grid = checked_int(spec.grid or 0, "grid", 0)
        if periodic:
            M = scale * max(grid, 8 * K, 512)
            theta = TWO_PI * np.arange(M) / M
            w = np.asarray(rho(theta), dtype=float)
            return theta, w / w.sum()
        lo, hi, P = 0.0, TWO_PI, max(K, 32, -(-grid // _GL_POINTS))
    elif isinstance(spec, ArcDensity):
        fn = _lookup("arc density", spec.name, ARC_DENSITIES, "measure")
        lo, hi = spec.arc
        rho = lambda t: fn(t, lo, hi, spec.param)
        P = max(K, 32)
    else:
        raise TypeError(f"not a measure spec: {spec!r}")
    theta, w = _gl_panels(lo, hi, scale * P)
    w = w * np.asarray(rho(theta), dtype=float)
    return theta, w / w.sum()


def _resolved(spec: MeasureSpec, K: int, compute, what: str, periodic=True, first=0):
    """compute(theta, weights) on the discretization and on its doubling.

    The finer result is returned once the two agree to RESOLUTION_TOL;
    otherwise IntegrationResolution names the first entry that drifts by
    its index, first + i for entry i (the degree, for Schur coefficients).
    """
    coarse = compute(*_discretize(spec, K, 0, periodic))
    fine = compute(*_discretize(spec, K, 1, periodic))
    drifts = np.abs(np.atleast_1d(fine - coarse))
    drift = float(np.max(drifts)) if drifts.size else 0.0
    if drift > RESOLUTION_TOL:
        index = first + int(np.argmax(drifts > RESOLUTION_TOL))
        raise IntegrationResolution(
            f"{what} drift {drift:.3e} under grid doubling exceeds {RESOLUTION_TOL:.0e}, "
            f"first at index {index}; a finer grid helps only when the density is "
            "under-resolved",
            drift=drift,
            index=index,
        )
    return fine


def moments(spec: MeasureSpec, K: int) -> MomentTable:
    """Trigonometric moments c_k, k = 0..K, of the unit-mass measure."""
    K = checked_int(K, "K", 0)
    if isinstance(spec, Lebesgue):
        # closed form: the trapezoid sums of roots of unity are not exactly 0
        c = np.zeros(K + 1, dtype=complex)
    else:
        ks = np.arange(K + 1)
        c = _resolved(spec, K, lambda t, w: np.exp(1j * np.outer(ks, t)) @ w, "moment")
    c[0] = 1.0
    return MomentTable(c)


def measure_integral(spec: MeasureSpec, fn) -> float:
    """Integral of a continuous real function of the angle against the
    unit-mass measure; reference values for convergence probes.  Checked by
    grid doubling like the moments."""
    integrate = lambda t, w: np.asarray(fn(t), dtype=float) @ w
    return float(_resolved(spec, _INTEGRAL_PANELS, integrate, "integral", periodic=False))


# ---------------------------------------------------------------------------
# Schur extraction


def _degenerate(n, what, **detail):
    return NotPositiveDefinite(f"moment form degenerates at degree {n}: {what}", n=n, **detail)


def _gram_schmidt(phi, n_max: int, shift, inners, norm, dim=None, tol=np.inf) -> np.ndarray:
    """a_1..a_{n_max} by classical Gram-Schmidt of z Phi_n against
    Phi_0..Phi_n, one pass per entry of inners, a_{n+1} = -<z Phi_n, 1> / e_n.

    phi is Phi_0 = 1 in a space of dimension dim (default phi.size), shift(v)
    multiplies by z, inner(v, B) is the vector of <v, b> over the rows b of
    B and norm(v) = <v, v>.  Growing (coefficient) vectors use their leading
    v.size entries only, so degree n does not depend on n_max.  The first
    degree n at which e_n or |a_n| leaves its range, or e_n departs from
    e_{n-1} (1 - |a_n|^2) beyond tol, raises NotPositiveDefinite.
    """
    basis = np.zeros((n_max, dim or phi.size), dtype=complex)
    e, out = np.empty(n_max + 1), np.empty(n_max, dtype=complex)
    for n in range(n_max + 1):
        e[n] = norm(phi)
        if e[n] <= 0.0:
            raise _degenerate(n, f"e_{n} = {e[n]:.17g}")
        if n and abs(e[n] / (e[n - 1] * (1.0 - abs(out[n - 1]) ** 2)) - 1.0) > tol:
            raise _degenerate(n, f"e_{n} = {e[n]:.17g} departs from e_{n - 1} (1 - |a_{n}|^2)")
        if n == n_max:
            return out
        basis[n, : phi.size] = phi
        v = shift(phi)
        B = basis[: n + 1, : v.size]
        ip = 0.0 + 0.0j
        for inner in inners:
            p = inner(v, B)
            ip += p[0]
            v = v - (p / e[: n + 1]) @ B
        a = -ip / e[n]
        if abs(a) > SCHUR_GUARD:
            raise _degenerate(n + 1, f"|a_{n + 1}| = {abs(a):.17g}", magnitude=float(abs(a)))
        out[n] = a
        phi = v


def schur_from_moments(m: MomentTable, n_max: int) -> SchurSequence:
    """The first n_max Schur coefficients of a moment table.

    Gram-Schmidt on monomial coefficient vectors, with the Toeplitz matrix
    of the moments as the Gram operator and multiplication by z a shift;
    degree n reads only c_{-n-1}..c_{n+1}, so every prefix is exact.
    NotPositiveDefinite names the first degree that fails e_n > 0, |a_n| < 1
    or e_n = e_{n-1} (1 - |a_n|^2) to RECURRENCE_TOL; the last catches a
    form no longer positive definite in double precision.
    """
    n_max = checked_int(n_max, "n_max", 0)
    if n_max > m.K:
        raise MomentRangeExceeded(
            f"extraction to degree {n_max} needs moments up to c_{n_max}", K=m.K
        )
    k = np.arange(n_max + 1)
    toeplitz = m.take(k[None, :] - k[:, None])  # [k, j]: c_{j - k} = <z^j, z^k>
    inner = lambda v, B: np.conj(B) @ (toeplitz[: v.size, : v.size] @ v)
    norm = lambda v: float(inner(v, v[None, :])[0].real)
    phi, shift = np.ones(1, dtype=complex), lambda v: np.append(0.0, v)
    a = _gram_schmidt(phi, n_max, shift, (inner, inner), norm, n_max + 1, RECURRENCE_TOL)
    return SchurSequence(a)


def _value_extract(theta, weights, n_max: int) -> np.ndarray:
    """Schur coefficients of a discrete measure by Gram-Schmidt on node
    values, so no Toeplitz conditioning is paid; e_n = weights @ |Phi_n|^2.
    The first pass takes one matrix-vector product; the second, which fixes
    a_{n+1}, one dot product per basis vector, which BLAS sums more exactly.
    That pass forms <v, b> = sum w v conj(b) as conj(sum w conj(v) b), with
    the complex weights and conj(v) taken once: conj(v) b is the exact
    conjugate of v conj(b) term by term (the imaginary part is ad - bc against
    bc - ad), and zdotu sums the negated imaginary parts to the exact
    negation of the same sum, so every a_n is bit-identical to the direct
    form while one product per basis vector is saved.  The products stay one
    row at a time: v conj(B) at once costs an (n + 1) x M temporary."""
    z = np.exp(1j * theta)
    wc = weights.astype(complex)
    bulk = lambda v, B: np.conj(B @ np.conj(weights * v))

    def exact(v, B):
        cv = np.conj(v)
        return np.conj(np.array([np.dot(wc, cv * b) for b in B]))

    norm = lambda v: float(weights @ np.abs(v) ** 2)
    return _gram_schmidt(np.ones_like(z), n_max, lambda v: z * v, (bulk, exact), norm)


def schur_from_measure(spec: MeasureSpec, n_max: int) -> SchurSequence:
    """Schur coefficients of the measure, extracted in value space.

    The discretized measure avoids the Toeplitz solve of schur_from_moments,
    but on arcs accuracy still falls with e_n: grid doubling holds to n_max = 48
    on the uniform half circle, 24 on the uniform arc [1, 3], 12 on hann [1, 2].
    Past that, IntegrationResolution names the drift and the first drifting
    degree, or NotPositiveDefinite the first with e_n <= 0 or |a_n| > SCHUR_GUARD.
    """
    n_max = checked_int(n_max, "n_max", 0)
    extract = lambda t, w: _value_extract(t, w, n_max)
    return SchurSequence(_resolved(spec, 2 * n_max + 2, extract, "Schur", first=1))


def moments_from_schur(schur: SchurSequence, K: int) -> MomentTable:
    """Moments c_0..c_K of the measure with the given Schur coefficients.

    c_k = (C^k)[0, 0] for the unitary (K + 1) x (K + 1) CMV matrix C of a_1..a_K
    closed by lam = -1, the Szego rule exact on |k| <= K: C @ v, the banded
    product of cmv_bands, is iterated from e_0 and never formed.  Needs K <=
    max_order, since c_K is only determined once a_K is known.
    """
    K = checked_int(K, "K", 0, schur.max_order)
    C = cmv_bands(schur, K + 1, -1.0)
    v = np.zeros(K + 1, dtype=complex)
    v[0] = 1.0
    c = np.empty(K + 1, dtype=complex)
    for k in range(K + 1):
        c[k] = v[0]
        v = C @ v
    return MomentTable(c)


# ---------------------------------------------------------------------------
# Christoffel modification |z - w|^2 d(mu)


def christoffel_moments(m: MomentTable, w) -> MomentTable:
    """Moments of the modified measure |z - w|^2 d(mu), normalized.

    c~_k = 2 c_k - w c_{k-1} - conj(w) c_{k+1}; one moment of range is lost
    at each end.
    """
    w = complex(w)
    if not abs(abs(w) - 1.0) <= CIRCLE_TOL:
        raise OffCircle(f"modification point off the circle: |w| = {abs(w):.17g}")
    if m.K < 1:
        raise MomentRangeExceeded("need at least c_1 to modify", K=m.K)
    # scalar products: numpy's vector complex product rounds differently
    c = m.window(-1, m.K).tolist()
    raw = np.array([2.0 * c[k + 1] - w * c[k] - np.conj(w) * c[k + 2] for k in range(m.K)])
    mass = raw[0].real
    if not mass > 1e-14:
        raise NotPositiveDefinite(
            "modified measure has vanishing mass (original measure concentrates at w)",
            mass=float(mass),
        )
    raw /= mass
    raw[0] = 1.0
    return MomentTable(raw)
