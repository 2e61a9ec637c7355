"""Probability measures on the unit circle: declarations, moments, extraction.

A measure is declared structurally (absolutely continuous pieces, atoms,
mixtures) and discretized once into positive nodes and weights; the
trigonometric moments c_k = integral of z^k d(mu), reference integrals and
value-space Schur extraction all read that discretization.  Schur parameters
of a bare moment table come from a Levinson-style recurrence.  All measures
are normalized to unit total mass, so c_0 = 1 exactly.
"""

from __future__ import annotations

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
    RemainderTooLarge,
)
from .opuc import (
    CIRCLE_TOL,
    SCHUR_GUARD,
    OpucTable,
    SchurSequence,
    cmv_matrix,
    kernel_diag,
    kernel_polynomial,
)
from .poly import ComplexPolynomial, LaurentPolynomial

RESOLUTION_TOL = 1e-10
_GL_POINTS = 32
# panels per full circle or arc behind measure_integral: enough for the kink
# of |sin(theta / 2)| at 0 to integrate to 1e-12
_INTEGRAL_PANELS = 128


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
    panels: int | None = None


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


def _arc_uniform(theta, lo, hi, param):
    return np.ones_like(np.asarray(theta, dtype=float))


def _arc_hann(theta, lo, hi, param):
    t = (np.asarray(theta, dtype=float) - lo) / (hi - lo)
    return 0.5 * (1.0 - np.cos(TWO_PI * t))


ARC_DENSITIES = {
    "uniform": _arc_uniform,
    "hann": _arc_hann,
}


def _lookup(kind, name, catalog):
    if name not in catalog:
        known = ", ".join(sorted(catalog))
        raise ConfigError(f"unknown {kind} '{name}'; known names: {known}", name=name)
    return catalog[name]


# ---------------------------------------------------------------------------
# JSON round trip


def parse_measure(obj) -> MeasureSpec:
    """Build a MeasureSpec from its JSON object form.

    The variant tag selects the shape; every diagnostic names the offending
    field so the CLI validate task can surface it verbatim.
    """
    if not isinstance(obj, dict):
        raise ConfigError("measure must be a JSON object with a 'variant' tag")
    variant = obj.get("variant")
    if variant == "lebesgue":
        return Lebesgue()
    if variant == "density":
        name = obj.get("name")
        if not isinstance(name, str):
            raise ConfigError("measure.name: density name must be a string")
        _lookup("density", name, DENSITIES)
        param = obj.get("param")
        if param is not None and not isinstance(param, (int, float, list)):
            raise ConfigError("measure.param: must be a number or [re, im] pair")
        if isinstance(param, list):
            if len(param) != 2:
                raise ConfigError("measure.param: [re, im] pair expected")
            param = complex(param[0], param[1])
        grid = obj.get("grid")
        if grid is not None and (not isinstance(grid, int) or grid <= 0):
            raise ConfigError("measure.grid: must be a positive integer")
        if name == "bernstein_szego":
            if param is None:
                raise ConfigError("measure.param: bernstein_szego requires a parameter")
            if abs(complex(param)) >= 1.0:
                raise ConfigError("measure.param: bernstein_szego parameter must satisfy |param| < 1")
        return Density(name=name, param=param, grid=grid)
    if variant == "arc_density":
        name = obj.get("name")
        if not isinstance(name, str):
            raise ConfigError("measure.name: arc density name must be a string")
        _lookup("arc density", name, ARC_DENSITIES)
        arc = obj.get("arc")
        if (
            not isinstance(arc, (list, tuple))
            or len(arc) != 2
            or not all(isinstance(v, (int, float)) for v in arc)
        ):
            raise ConfigError("measure.arc: expected [lo, hi] in radians")
        lo, hi = float(arc[0]), float(arc[1])
        if not lo < hi or hi - lo > TWO_PI + 1e-12:
            raise ConfigError("measure.arc: need lo < hi and hi - lo <= 2*pi")
        panels = obj.get("panels")
        if panels is not None and (not isinstance(panels, int) or panels <= 0):
            raise ConfigError("measure.panels: must be a positive integer")
        return ArcDensity(name=name, arc=(lo, hi), param=obj.get("param"), panels=panels)
    if variant == "atomic":
        atoms = obj.get("atoms")
        if not isinstance(atoms, (list, tuple)) or not atoms:
            raise ConfigError("measure.atoms: expected a nonempty list of [angle, weight]")
        parsed = []
        for i, atom in enumerate(atoms):
            if (
                not isinstance(atom, (list, tuple))
                or len(atom) != 2
                or not all(isinstance(v, (int, float)) for v in atom)
            ):
                raise ConfigError(f"measure.atoms[{i}]: expected [angle, weight]")
            angle, weight = float(atom[0]), float(atom[1])
            if weight <= 0:
                raise ConfigError(f"measure.atoms[{i}]: weight must be strictly positive")
            parsed.append((angle, weight))
        folded = fold_angle(np.array([a for a, _ in parsed]))
        if len(np.unique(np.round(folded, 12))) != len(parsed):
            raise ConfigError("measure.atoms: atom angles must be distinct")
        return Atomic(atoms=tuple(parsed))
    if variant == "mixture":
        comps = obj.get("components")
        if not isinstance(comps, (list, tuple)) or not comps:
            raise ConfigError("measure.components: expected a nonempty list")
        parsed = []
        for i, comp in enumerate(comps):
            if not isinstance(comp, dict) or "weight" not in comp or "measure" not in comp:
                raise ConfigError(
                    f"measure.components[{i}]: expected an object with 'weight' and 'measure'"
                )
            weight = comp["weight"]
            if not isinstance(weight, (int, float)) or weight <= 0:
                raise ConfigError(f"measure.components[{i}].weight: must be strictly positive")
            parsed.append((float(weight), parse_measure(comp["measure"])))
        return Mixture(components=tuple(parsed))
    raise ConfigError(
        "measure.variant: expected one of lebesgue, density, arc_density, atomic, mixture",
        variant=variant,
    )


def measure_to_dict(spec: MeasureSpec) -> dict:
    if isinstance(spec, Lebesgue):
        return {"variant": "lebesgue"}
    if isinstance(spec, Density):
        out = {"variant": "density", "name": spec.name}
        if spec.param is not None:
            p = complex(spec.param)
            out["param"] = p.real if p.imag == 0 else [p.real, p.imag]
        if spec.grid is not None:
            out["grid"] = spec.grid
        return out
    if isinstance(spec, ArcDensity):
        out = {"variant": "arc_density", "name": spec.name, "arc": list(spec.arc)}
        if spec.param is not None:
            out["param"] = spec.param
        if spec.panels is not None:
            out["panels"] = spec.panels
        return out
    if isinstance(spec, Atomic):
        return {"variant": "atomic", "atoms": [list(a) for a in spec.atoms]}
    if isinstance(spec, Mixture):
        return {
            "variant": "mixture",
            "components": [
                {"weight": w, "measure": measure_to_dict(m)} for w, m in spec.components
            ],
        }
    raise TypeError(f"not a measure spec: {spec!r}")


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
        k = int(k)
        if abs(k) > self.K:
            raise MomentRangeExceeded(
                f"moment index {k} outside the computed range |k| <= {self.K}",
                index=k,
                K=self.K,
            )
        return complex(self.c[k]) if k >= 0 else complex(np.conj(self.c[-k]))

    def window(self, lo, hi):
        """Array of c_k for k = lo..hi inclusive."""
        return np.array([self.get(k) for k in range(int(lo), int(hi) + 1)])


# ---------------------------------------------------------------------------
# discretization


def _gl_panels(lo, hi, P):
    """Nodes and weights of P equal Gauss-Legendre panels covering [lo, hi]."""
    x, wq = np.polynomial.legendre.leggauss(_GL_POINTS)
    edges = np.linspace(lo, hi, P + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    theta = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    return theta, (half[:, None] * wq[None, :]).ravel()


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
        fn = _lookup("density", spec.name, DENSITIES)
        rho = lambda t: fn(t, spec.param)
        if periodic:
            M = scale * max(int(spec.grid or 0), 8 * K, 512)
            theta = TWO_PI * np.arange(M) / M
            w = np.asarray(rho(theta), dtype=float)
            return theta, w / w.sum()
        lo, hi, P = 0.0, TWO_PI, max(K, 32, -(-int(spec.grid or 0) // _GL_POINTS))
    elif isinstance(spec, ArcDensity):
        fn = _lookup("arc density", spec.name, ARC_DENSITIES)
        lo, hi = spec.arc
        rho = lambda t: fn(t, lo, hi, spec.param)
        P = max(int(spec.panels or 0), K, 32)
    else:
        raise TypeError(f"not a measure spec: {spec!r}")
    theta, w = _gl_panels(lo, hi, scale * P)
    w = w * np.asarray(rho(theta), dtype=float)
    return theta, w / w.sum()


def _resolved(spec: MeasureSpec, K: int, compute, what: str, periodic: bool = True):
    """compute(theta, weights) on the discretization and on its doubling.

    The finer result is returned once the two agree to RESOLUTION_TOL;
    otherwise the grid is too coarse for the declared density.
    """
    coarse = compute(*_discretize(spec, K, 0, periodic))
    fine = compute(*_discretize(spec, K, 1, periodic))
    drift = float(np.max(np.abs(fine - coarse))) if fine.size else 0.0
    if drift > RESOLUTION_TOL:
        raise IntegrationResolution(
            f"{what} drift {drift:.3e} under grid doubling exceeds {RESOLUTION_TOL:.0e}; "
            "declare a finer grid for this density",
            drift=drift,
        )
    return fine


def moments(spec: MeasureSpec, K: int) -> MomentTable:
    """Trigonometric moments c_k, k = 0..K, of the unit-mass measure."""
    K = int(K)
    if K < 0:
        raise ValueError("K must be nonnegative")
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
# inner products and Schur extraction


def _laurent_parts(f):
    if isinstance(f, ComplexPolynomial):
        return f.coeffs, 0
    if isinstance(f, LaurentPolynomial):
        return f.coeffs, f.low
    raise TypeError("expected ComplexPolynomial or LaurentPolynomial")


def inner_product(m: MomentTable, f, g) -> complex:
    """Sesquilinear moment form <f, g> = L[f conj(g)], linear in f.

    <z^j, z^k> = c_{j-k}; raises MomentRangeExceeded if the power spread of
    the pair exceeds the table.
    """
    fc, flo = _laurent_parts(f)
    gc, glo = _laurent_parts(g)
    jf = flo + np.arange(len(fc))
    jg = glo + np.arange(len(gc))
    diff = jf[:, None] - jg[None, :]
    cmat = np.empty(diff.shape, dtype=complex)
    for (r, s), d in np.ndenumerate(diff):
        cmat[r, s] = m.get(int(d))
    return complex(fc @ cmat @ np.conj(gc))


def _degenerate(n, what, **detail):
    return NotPositiveDefinite(f"moment form degenerates at degree {n}: {what}", n=n, **detail)


def schur_from_moments(m: MomentTable, n_max: int) -> SchurSequence:
    """Levinson-style extraction of the first n_max Schur coefficients.

    Each step uses a_{n+1} = -<z Phi_n, 1> / e_n; positive definiteness of
    the underlying moment form is detected through |a| staying strictly
    inside the disk, and NotPositiveDefinite reports the first degree at
    which it fails.
    """
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError(f"n_max = {n_max} outside 0..{m.K}")
    if n_max > m.K:
        raise MomentRangeExceeded(
            f"extraction to degree {n_max} needs moments up to c_{n_max}", K=m.K
        )
    # Phi_n is found by solving its Toeplitz orthogonality system each
    # degree instead of by updating the previous Phi: the update recursion
    # loses accuracy like 1/e_n^2 while a direct solve only pays the
    # conditioning 1/e_n already present in the moment data, which is what
    # lets arc-supported measures (e_n ~ 2^-n) reach degree 30 and beyond
    full = np.array([m.get(k) for k in range(-n_max + 1, n_max + 1)]) if n_max else None
    mid = n_max - 1
    out = np.empty(n_max, dtype=complex)
    for n in range(n_max):
        rows = np.arange(n)
        try:
            coef = np.linalg.solve(full[mid + rows[None, :] - rows[:, None]], -full[mid + n - rows])
        except np.linalg.LinAlgError:
            raise _degenerate(n, "singular Toeplitz system") from None
        phi = np.append(coef, 1.0)
        e = (phi @ full[mid - n : mid + 1]).real
        if e <= 0.0:
            raise _degenerate(n, f"e_{n} = {e:.17g}")
        a = -(phi @ full[mid + 1 : mid + n + 2]) / e
        if abs(a) > SCHUR_GUARD:
            raise _degenerate(n + 1, f"|a_{n + 1}| = {abs(a):.17g}", magnitude=float(abs(a)))
        out[n] = a
    return SchurSequence(out)


def _value_extract(theta, weights, n_max: int) -> np.ndarray:
    """Schur coefficients of a discrete measure by Gram-Schmidt on node
    values: a_{n+1} = -<z Phi_n, 1>/e_n with the inner products evaluated
    pointwise, so no Toeplitz conditioning is paid."""
    z = np.exp(1j * theta)
    basis = []
    norms = []
    phi = np.ones_like(z)
    out = np.empty(n_max, dtype=complex)
    for n in range(n_max):
        e = float(np.real(np.dot(weights, np.abs(phi) ** 2)))
        if e <= 0.0:
            raise _degenerate(n, f"e_{n} = {e:.17g}")
        basis.append(phi)
        norms.append(e)
        v = z * phi
        ip = 0.0 + 0.0j
        # two passes keep the new vector orthogonal even when e_n is tiny
        for _ in range(2):
            for k in range(n + 1):
                g = np.dot(weights, v * np.conj(basis[k])) / norms[k]
                if k == 0:
                    ip += g
                v = v - g * basis[k]
        a = -ip / e
        if abs(a) > SCHUR_GUARD:
            raise _degenerate(n + 1, f"|a_{n + 1}| = {abs(a):.17g}", magnitude=float(abs(a)))
        out[n] = a
        phi = v
    return out


def schur_from_measure(spec: MeasureSpec, n_max: int) -> SchurSequence:
    """Schur coefficients of the measure, extracted in value space.

    Recovering a_n from a finite moment table is limited by the Toeplitz
    conditioning, which for arc-supported measures decays geometrically;
    working on a positive-weight discretization of the measure itself
    sidesteps that and stays accurate to degree 30 and beyond.  Resolution
    is validated by grid doubling, as for moments.
    """
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    extract = lambda t, w: _value_extract(t, w, n_max)
    return SchurSequence(_resolved(spec, 2 * n_max + 2, extract, "Schur"))


def moments_from_schur(schur: SchurSequence, K: int) -> MomentTable:
    """Moments c_0..c_K of the measure with the given Schur coefficients.

    c_k = (C^k)[0, 0] for the unitary (K + 1) x (K + 1) CMV matrix C of
    a_1..a_K with last Verblunsky parameter 1, the Szego rule exact on
    |k| <= K.  Needs K <= max_order, since c_K is only determined once a_K
    is known.
    """
    K = int(K)
    if not 0 <= K <= schur.max_order:
        raise ValueError(f"K = {K} outside 0..{schur.max_order}, the available Schur coefficients")
    C = cmv_matrix(schur, K + 1, -1.0)
    v = np.eye(K + 1, dtype=complex)[0]
    c = np.empty(K + 1, dtype=complex)
    for k in range(K + 1):
        c[k], v = v[0], C @ v
    return MomentTable(c)


# ---------------------------------------------------------------------------
# Christoffel modification |z - w|^2 d(mu)


def christoffel_moments(m: MomentTable, w) -> MomentTable:
    """Moments of the modified measure |z - w|^2 d(mu), normalized.

    c~_k = 2 c_k - w c_{k-1} - conj(w) c_{k+1}; one moment of range is lost
    at each end.
    """
    w = complex(w)
    if abs(abs(w) - 1.0) > CIRCLE_TOL:
        raise OffCircle(f"modification point off the circle: |w| = {abs(w):.17g}")
    if m.K < 1:
        raise MomentRangeExceeded("need at least c_1 to modify", K=m.K)
    K = m.K - 1
    raw = np.array(
        [2.0 * m.get(k) - w * m.get(k - 1) - np.conj(w) * m.get(k + 1) for k in range(K + 1)]
    )
    mass = raw[0].real
    if not mass > 1e-14:
        raise NotPositiveDefinite(
            "modified measure has vanishing mass (original measure concentrates at w)",
            mass=float(mass),
        )
    raw /= mass
    raw[0] = 1.0
    return MomentTable(raw)


def christoffel_modify(table: OpucTable, w, n_max: int) -> list[ComplexPolynomial]:
    """Monic orthogonal family psi_0..psi_{n_max} of |z - w|^2 d(mu), w on the circle.

    Built from the kernel relation (z - w) psi_n(z) = Phi_{n+1}(z) -
    (Phi_{n+1}(w) / K_n(w, w)) K_n(z, w); the synthetic division by (z - w)
    must be exact, and a large remainder signals an inconsistent table.
    """
    w = complex(w)
    if abs(abs(w) - 1.0) > CIRCLE_TOL:
        raise OffCircle(f"modification point off the circle: |w| = {abs(w):.17g}")
    n_max = int(n_max)
    if n_max + 1 > table.order:
        raise ValueError(f"psi_{n_max} needs table order {n_max + 1}")
    out = []
    for j in range(n_max + 1):
        lam = table.phi[j + 1](w) / kernel_diag(table, j, w)
        num = table.phi[j + 1] - lam * kernel_polynomial(table, j, w)
        quot, rem = num.deflate(w)
        scale = max(1.0, float(np.max(np.abs(num.coeffs))))
        if abs(rem) > 1e-10 * scale:
            raise RemainderTooLarge(
                f"division remainder {abs(rem):.3e} at degree {j} exceeds tolerance",
                degree=j,
                remainder=abs(rem),
            )
        out.append(quot)
    return out
