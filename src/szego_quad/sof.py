"""Semi-orthogonal functions on the circle and their zero interlacing.

For an anchor w on the unit circle and a coefficient alpha_n != 0, the
function

    f_n(theta) = N_n(e^{i theta}) e^{-i n theta / 2},
    N_n = -i (conj(alpha_n) Phi_n - alpha_n Phi_n*),

is real valued: N_n is exactly 1-invariant (N* = N), so the half-power
phase folds it onto the real line.  The two distinguished families are

    first kind   alpha_n = w^{-n/2} Phi_n(w)      (w is a common zero),
    second kind  alpha_n = -i w^{-n/2} Omega_n(w) (value 2 e_n at w),

and the general member uses alpha_n = w^{-m/2} (A(w) Phi_n(w) + B(w)
Omega_n(w)) with m = n + k for polynomial coefficients A, B satisfying the
reversal symmetries A*(k) = A and B*(k) = -B.  The SofFamilySpec
constructor checks every family and evaluates A and B at the anchor, once.
Half powers are always realized as exp(i m theta / 2) on angles folded into
the working window, so both sides of every identity use the same branch.
Every member goes through the one coefficient formula in sof_members, which
reads the stored A(w) and B(w) and builds a family's members
for a list of degrees from one szego_sweep at the anchor (and one on the
sign-flipped sequence when a second-kind part is present): Phi_n(w) and
Omega_n(w) both come from the normalized recurrence (Omega_n is Phi_n of the
sign-flipped Schur sequence), not from a monic table, and the zeros are CMV
eigenvalues (invariant_zeros).  sof_combo is its one-degree call.  The
alternating ladder f_sequence hands the rule nodes of all its members
(SofInstance.rule_nodes) with their boundaries (SofInstance.rule_boundary)
to one quadrature.member_rule_parts call, one kernel_diag sweep for all of
them up to order 64, so its rules cost no further recurrence runs.  Values
use the same recurrence, phi_n = Phi_n / sqrt(e_n): f_n = 2 sqrt(e_n) Im u
with u = conj(alpha_n) phi_n(z) e^{-i n theta / 2}, and at a zero the
Christoffel-Darboux limit f_n' = sqrt(e_n) u K_{n-1}(z, z) / |phi_n(z)|^2;
N_n (SofInstance.numerator) is formed from alpha and the table's monic Phi_n
only when output or a test oracle reads it.  The omegas arguments of sof_f2,
sof_combo and zero_cloud are accepted and not read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .circle import circular_distance, fold_angle, half_power
from .errors import OffCircle, PhaseLeak, ZeroCoefficient, checked_int
from .opuc import CIRCLE_TOL, SchurSequence, szego_sweep, szego_values
from .poly import ComplexPolynomial
from .quadrature import invariant_zeros, member_rule_parts, pop_boundary

_ANCHOR_TOL = 1e-9


def _canonical_anchor(w, omega0):
    """Fold the anchor onto the circle and the window; returns (w, angle)."""
    w = complex(w)
    if not abs(abs(w) - 1.0) <= CIRCLE_TOL:
        raise OffCircle(f"anchor off the unit circle: |w| = {abs(w):.17g}")
    angle = fold_angle(float(np.angle(w)), omega0)
    return np.exp(1j * angle), angle


@dataclass(frozen=True, eq=False)
class SofFamilySpec:
    """Declarative description of one semi-orthogonal family: the anchor w, the
    window base omega0 and one coefficient pair (A, B) with symmetry degree k,
    alpha_n = w^{-(n+k)/2} (A Phi_n(w) + B Omega_n(w)).  A and B are
    polynomials, or numbers taken as polynomials of degree 0; tag opens the
    member labels.

    The constructor is the one check of a family: w lies on the circle
    (OffCircle), k is an integer of at least the degrees of A and B, A*(k) = A
    and B*(k) = -B hold to 1e-10 relative (so a number A is real and a number
    B imaginary), and A and B are not both zero (ValueError otherwise).  It
    stores the anchor folded into the omega0 window (anchor, anchor_angle) and
    the values A(w) and B(w) (A_w, B_w); a polynomial is evaluated there and
    nowhere else, a number is its own value."""

    w: complex
    omega0: float = 0.0
    A: complex | ComplexPolynomial = 1.0
    B: complex | ComplexPolynomial = 0.0
    k: int = 0
    tag: str = "f1("
    anchor: complex = field(init=False, repr=False)
    anchor_angle: float = field(init=False, repr=False)
    A_w: complex = field(init=False, repr=False)
    B_w: complex = field(init=False, repr=False)

    def __post_init__(self):
        anchor, angle = _canonical_anchor(self.w, self.omega0)
        pair = (self.A, self.B)
        A, B = (c if isinstance(c, ComplexPolynomial) else ComplexPolynomial([c]) for c in pair)
        k = checked_int(self.k, "symmetry degree k", max(A.degree, B.degree))
        scale = max(1.0, float(np.max(np.abs(A.coeffs))), float(np.max(np.abs(B.coeffs))))
        residual = (A.conj_reverse(k) - A).coeffs, (B.conj_reverse(k) + B).coeffs
        worst = float(np.max(np.abs(np.concatenate(residual))))
        if worst > 1e-10 * scale:
            raise ValueError(
                "coefficient symmetry violated: need A*(k) = A and B*(k) = -B "
                f"(residual {worst:.3e})"
            )
        if not (np.any(A.coeffs) or np.any(B.coeffs)):
            raise ValueError("family coefficients A and B must not both vanish")
        A_w, B_w = (c(anchor) if isinstance(c, ComplexPolynomial) else c for c in pair)
        stored = dict(k=k, anchor=anchor, anchor_angle=angle, A_w=A_w, B_w=B_w)
        for name, value in stored.items():
            object.__setattr__(self, name, value)

    @classmethod
    def f1(cls, w, omega0=0.0):
        return cls(w=complex(w), omega0=float(omega0))

    @classmethod
    def f2(cls, w, omega0=0.0):
        return cls(w=complex(w), omega0=float(omega0), A=0.0, B=-1j, tag="f2(")

    @classmethod
    def combo(cls, a1, a2, w, omega0=0.0):
        """a1 * first kind + a2 * second kind."""
        a1 = float(a1)
        a2 = float(a2)
        tag = f"combo(a1={a1:g}, a2={a2:g}, "
        return cls(w=complex(w), omega0=float(omega0), A=a1, B=-1j * a2, tag=tag)

    @classmethod
    def polyseq(cls, A: ComplexPolynomial, B: ComplexPolynomial, k: int, w, omega0=0.0):
        return cls(w=complex(w), omega0=float(omega0), A=A, B=B, k=k, tag=f"polyseq(k={k}, ")


@dataclass(frozen=True, eq=False)
class SofInstance:
    """One member of a semi-orthogonal family, with its located zeros.

    n is the numerator degree (the realization phase is e^{-i n theta / 2});
    index is the position in the generating sequence and equals n except for
    the odd members of the alternating anchor sequence, which carry one
    fewer zero than their index; alpha belongs to the degree-index member.
    rule_nodes are the nodes of the order-index Szego rule.  Members of
    f_sequence carry the read-only nodes (folded into the omega0 window and
    sorted) and kernel weights of that rule in rule_angles and rule_weights;
    other members carry None.
    """

    n: int
    index: int
    alpha: complex | None
    table: SchurSequence = field(repr=False)
    w: complex
    anchor_angle: float
    omega0: float
    zeros: np.ndarray
    label: str = ""
    rule_angles: np.ndarray | None = field(default=None, repr=False)
    rule_weights: np.ndarray | None = field(default=None, repr=False)

    @property
    def rule_nodes(self) -> np.ndarray:
        """Node angles of the order-index rule: the zeros, plus the anchor for F_1 and
        the odd ladder members, index - 1 zeros each, which belong to |z - w|^2 d(mu)."""
        if len(self.zeros) == self.index - 1:
            return np.append(self.zeros, self.anchor_angle)
        return self.zeros

    @property
    def rule_boundary(self) -> complex:
        """lam with z phi_{index-1} + lam phi_{index-1}* = 0 at every rule node:
        pop_boundary at t = -alpha / conj(alpha) of degree index, and -w for F_1."""
        if self.alpha is None:
            return -self.w
        return pop_boundary(self.table, self.index, -self.alpha / np.conj(self.alpha))

    @property
    def numerator(self) -> ComplexPolynomial:
        """N_n on the monic table, for output and oracles: 1 for F_1, -i conj(alpha) Phi_n
        + i alpha Phi_n* for a full member, for an odd ladder member that of its
        index divided by (z - w), times i w^{1/2}."""
        if self.alpha is None:
            return ComplexPolynomial([1.0])
        m, t = self.index, self.table
        num = (-1j * np.conj(self.alpha)) * t.phi[m] + (1j * self.alpha) * t.phi_star[m]
        if self.n == m:
            return num
        quot, _ = num.deflate(self.w)
        return complex(1j * half_power(self.anchor_angle, 1)) * quot

    def _value_slope(self, theta):
        """f(theta) and, at zeros of f, the complex slope f'(theta) from one sweep of
        the recurrence (see the module docstring); its imaginary part is the
        disagreement between the zeros and alpha.  An odd ladder member divides
        both by 2 sin((theta - theta_w) / 2), and within 1e-9 of the anchor its
        value is the limit, the slope over cos((theta - theta_w) / 2) = +-1."""
        m = self.index
        p, _, acc = szego_values(self.table, m, np.exp(1j * theta))
        mod2 = np.abs(p) ** 2
        root_e = np.sqrt(self.table.e[m])
        u = np.conj(self.alpha) * p * half_power(theta, -m)
        f, slope = 2.0 * root_e * np.imag(u), root_e * u * (acc - mod2) / mod2
        if self.n == self.index:
            return f, slope
        half = 0.5 * (theta - self.anchor_angle)
        chord = 2.0 * np.sin(half)
        at = np.abs(chord) <= _ANCHOR_TOL
        chord = np.where(at, np.cos(half), chord)
        return np.where(at, np.real(slope), f) / chord, slope / chord

    def value(self, theta):
        """Real value f(theta) on the circle; F_1 of f_sequence is the constant 1."""
        theta = np.asarray(theta, dtype=float)
        vals = np.ones(theta.shape) if self.alpha is None else self._value_slope(theta)[0]
        return float(vals) if theta.ndim == 0 else vals


def sof_f1(table: SchurSequence, n: int, w, omega0=0.0) -> SofInstance:
    """First-kind member of degree n; the anchor w is always among its zeros."""
    return sof_combo(table, SofFamilySpec.f1(w, omega0), n)


def sof_f2(table: SchurSequence, omegas, n: int, w, omega0=0.0) -> SofInstance:
    """Second-kind member of degree n; takes the value 2 e_n at the anchor.

    omegas is accepted and not read: Omega_n(w) comes from the recurrence.
    """
    return sof_combo(table, SofFamilySpec.f2(w, omega0), n)


def sof_combo(table: SchurSequence, spec: SofFamilySpec, n: int, omegas=None) -> SofInstance:
    """Member of the declared family at degree n: sof_members at the one degree n.
    omegas is not read."""
    return sof_members(table, spec, (n,))[0]


def sof_members(table: SchurSequence, spec: SofFamilySpec, degrees) -> list[SofInstance]:
    """Members of the declared family at each of the given degrees, in that order;
    the one path for every family.

    alpha_n = w^{-m/2} (A Phi_n(w) + B Omega_n(w)) with m = n + k, the
    anchor and the values A(w) and B(w) as the spec stored them.  Phi_n(w)
    and Omega_n(w) are sqrt(e_n) times the normalized recurrence on a and on
    -a, each formed only when its coefficient is nonzero, and each by one
    szego_sweep up to the highest degree asked for.  The anchor is an exact
    zero if and only if B(w) = 0.
    ZeroCoefficient is raised at the first degree whose alpha_n vanishes
    relative to its terms.
    """
    degrees = [checked_int(n, "degree", 1, table.max_order) for n in degrees]
    w, angle, A, B = spec.anchor, spec.anchor_angle, spec.A_w, spec.B_w
    top = max(degrees, default=0)
    wanted = set(degrees)

    def anchor_values(schur):
        return {n: p for n, (p, _, _) in enumerate(szego_sweep(schur, top, w)) if n in wanted}

    phi = anchor_values(table) if A != 0 else None
    # Omega_n is Phi_n of the sign-flipped sequence, with the same e_n
    omega = anchor_values(SchurSequence(-table.coefficients[:top])) if B != 0 else None
    members = []
    for n in degrees:
        root_e = np.sqrt(table.e[n])
        terms = []
        if A != 0:
            terms.append(A * complex(root_e * phi[n]))
        if B != 0:
            terms.append(B * complex(root_e * omega[n]))
        value = sum(terms)
        if abs(value) <= 1e-12 * max(sum(abs(t) for t in terms), 1e-300):
            raise ZeroCoefficient(
                f"family coefficient vanishes at degree {n}", n=n, magnitude=abs(value)
            )
        alpha = half_power(angle, -(n + spec.k)) * value
        zeros = invariant_zeros(table, n, -alpha / np.conj(alpha), spec.omega0)
        if B == 0:
            zeros[np.argmin(circular_distance(zeros, angle))] = angle
            zeros.sort()
        members.append(
            SofInstance(
                n=n,
                index=n,
                alpha=complex(alpha),
                table=table,
                w=w,
                anchor_angle=angle,
                omega0=float(spec.omega0),
                zeros=zeros,
                label=f"{spec.tag}n={n})",
            )
        )
    return members


def f_sequence(table: SchurSequence, w_seq, count: int, omega0=0.0) -> list[SofInstance]:
    """Alternating anchor sequence F_1..F_count, each member with its rule.

    Even indices are first-kind members of the base measure; odd index
    2k + 1 belongs to the modified measure |z - w|^2 d(mu): its numerator is
    the first-kind numerator of degree 2k + 1 divided by (z - w), a
    1-invariant polynomial of degree 2k whose zeros are those of the
    first-kind member without the anchor; the anchor re-enters as the extra
    quadrature node (SofInstance.rule_nodes); it keeps the first-kind alpha.
    F_1 is the constant 1 with no zeros.  The members anchored at one point
    come from one sof_members call, so one recurrence sweep per distinct
    anchor.  Each member F_j carries the nodes and weights of its order-j
    rule (rule_angles, rule_weights), which rule_from_sof takes as they are:
    member_rule_parts weighs the rule nodes of every member at once, each at
    its member's degree j - 1, in one kernel_diag sweep.
    """
    count = checked_int(count, "count", 1, table.max_order)
    ws = list(w_seq) if np.ndim(w_seq) > 0 or isinstance(w_seq, (list, tuple)) else [w_seq] * count
    if len(ws) == 1:
        ws = ws * count
    if len(ws) < count:
        raise ValueError(f"need {count} anchors, got {len(ws)}")
    w, angle = _canonical_anchor(ws[0], omega0)
    members = [
        SofInstance(
            n=0,
            index=1,
            alpha=None,
            table=table,
            w=w,
            anchor_angle=angle,
            omega0=float(omega0),
            zeros=np.empty(0, dtype=float),
            label="F_1",
        )
    ]
    by_anchor = {}
    for idx in range(2, count + 1):
        by_anchor.setdefault(complex(ws[idx - 1]), []).append(idx)
    first_kind = {}
    for anchor, indices in by_anchor.items():
        family = SofFamilySpec.f1(anchor, omega0)
        first_kind.update(zip(indices, sof_members(table, family, indices)))
    for idx in range(2, count + 1):
        inst = first_kind[idx]
        if idx % 2:
            # the anchor is an exact zero of the first-kind member; dividing
            # it out leaves the |z - w|^2-modified member of degree idx - 1
            drop = int(np.argmin(circular_distance(inst.zeros, inst.anchor_angle)))
            inst = replace(inst, n=idx - 1, zeros=np.delete(inst.zeros, drop))
        members.append(inst)
    rules = member_rule_parts(table, [(i.rule_nodes, i.rule_boundary) for i in members], omega0)
    out = []
    for idx, (inst, (angles, weights)) in enumerate(zip(members, rules), start=1):
        angles.flags.writeable = weights.flags.writeable = False
        out.append(replace(inst, label=f"F_{idx}", rule_angles=angles, rule_weights=weights))
    return out


@dataclass(frozen=True)
class InterlaceResult:
    ok: bool
    witness: str | None = None

    def __bool__(self):
        return self.ok


def interlace_check(a, b, omega0=0.0, exclude_anchor=None) -> InterlaceResult:
    """Strict alternation of two zero sets along the window [omega0, omega0 + 2 pi).

    Both lists are folded into the window and sorted; an anchor angle given
    via exclude_anchor is removed from both sides first (within 1e-9).  The
    counts may be equal or differ by one; the merged sequence must strictly
    alternate between the two sources.  On failure the witness pins the
    first offending adjacent pair.
    """
    fa = np.sort(fold_angle(np.asarray(a, dtype=float), omega0)) if len(a) else np.empty(0)
    fb = np.sort(fold_angle(np.asarray(b, dtype=float), omega0)) if len(b) else np.empty(0)
    if exclude_anchor is not None:
        anchor = fold_angle(float(exclude_anchor), omega0)
        fa = fa[circular_distance(fa, anchor) > _ANCHOR_TOL]
        fb = fb[circular_distance(fb, anchor) > _ANCHOR_TOL]
    na, nb = len(fa), len(fb)
    if abs(na - nb) > 1:
        return InterlaceResult(False, f"zero counts {na} and {nb} differ by more than one")
    if na + nb < 2:
        return InterlaceResult(True, None)
    angles = np.concatenate((fa, fb))
    labels = np.concatenate((np.zeros(na, dtype=int), np.ones(nb, dtype=int)))
    order = np.argsort(angles, kind="stable")
    angles = angles[order]
    labels = labels[order]
    for i in range(len(angles) - 1):
        if abs(angles[i + 1] - angles[i]) < 1e-12:
            return InterlaceResult(
                False, f"coincident zeros near theta = {angles[i]:.12g}"
            )
        if labels[i + 1] == labels[i]:
            side = "first" if labels[i] == 0 else "second"
            return InterlaceResult(
                False,
                f"two consecutive zeros of the {side} set at theta = "
                f"{angles[i]:.12g} and {angles[i + 1]:.12g}",
            )
    return InterlaceResult(True, None)


def sturm_sign_probe(f_next: SofInstance, f_cur: SofInstance) -> np.ndarray:
    """Products i zeta f_next'(zeta) f_cur(zeta) over the zeros of f_next.

    In the angle these are f_next'(theta) f_cur(theta): the slope is the
    Christoffel-Darboux limit and the value the recurrence value (see
    SofInstance.value), so first against second kind gives 2 e_n^2
    K_{n-1}(zeta, zeta).  Zeros shared with f_cur (within 1e-9) are skipped;
    at such points the product is identically zero and carries no sign
    information.  Instances from different windows raise ValueError.  A
    relative imaginary part above 1e-7 in the slope means the zeros and the
    coefficient alpha of f_next disagree, and raises PhaseLeak.
    """
    if abs(f_next.omega0 - f_cur.omega0) > 1e-12:
        raise ValueError("instances were built in different windows")
    zeros = np.asarray(f_next.zeros, dtype=float)
    if len(f_cur.zeros):
        dist = circular_distance(zeros[:, None], np.asarray(f_cur.zeros)[None, :])
        zeros = zeros[dist.min(axis=1) > _ANCHOR_TOL]
    if len(zeros) == 0:
        return np.empty(0, dtype=float)
    slope = f_next._value_slope(zeros)[1]
    leak = float(np.max(np.abs(np.imag(slope)) / np.maximum(np.abs(slope), 1e-300)))
    if leak > 1e-7:
        raise PhaseLeak(f"imaginary residue {leak:.3e} in sign products", leak=leak)
    return np.real(slope) * f_cur.value(zeros)
