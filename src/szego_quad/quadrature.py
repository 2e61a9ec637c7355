"""Invariant para-orthogonal polynomials, their circle zeros, and Szego rules.

A polynomial P = alpha Phi_n + beta Phi_n* with |alpha| = |beta| != 0 is
invariant: P* = kappa P for the unimodular kappa = conj(beta)/alpha.  Its n
zeros are simple and lie on the unit circle, and the n-point rule with nodes
at those zeros and weights 1/K_{n-1}(z_k, z_k) integrates every Laurent
polynomial of degree window [-(n-1), n-1] exactly.  The zeros are the
eigenvalues of a unitary CMV matrix (invariant_zeros, Golub-Welsch on the
circle), the weights kernel sums of the normalized recurrence;
weights_via_integral recomputes them independently, as one Vandermonde solve
on the nodes and the moments.

Orders up to HERMITIAN_MAX_ORDER = 64, where the family paths solve one
eigenproblem per degree, take the zeros from eigh of the Hermitian part of
the CMV matrix: 0.15 ms per solve against 0.48 ms for eigvals at n = 32 and
0.71 against 2.07 ms at n = 64 (one OpenBLAS thread, 2-core x86-64).  Larger
orders keep eigvals, bit for bit: there the Hermitian path needs 4.8 MB more
peak memory against 0.3 MB, and the n = 256 kernel weights flip with
last-bit node changes.  The eigvals branch goes once the weights carry
relative accuracy and the benchmark's peak memory stops growing with its
attempt count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circle import TWO_PI, fold_angle
from .errors import ModulusMismatch, ZeroCountMismatch, checked_int
from .measures import MomentTable
from .opuc import SchurSequence, cmv_matrix, kernel_diag
from .poly import ComplexPolynomial

ANGLE_TOL = 2e-14
# The largest order whose zeros come from the Hermitian part of the CMV
# matrix.  Extra peak memory of one solve (fresh process, ru_maxrss): 0.8 MB
# against 0.1 MB for eigvals at n = 64, 4.8 MB against 0.3 MB at n = 256,
# where the benchmark's memory bound would charge it; and above 64 the
# last-bit node changes would move the n = 256 kernel weights.  Once the
# weights carry relative accuracy and the benchmark's peak memory no longer
# grows with its attempt count, the eigvals branch is deleted.
HERMITIAN_MAX_ORDER = 64
CLUSTER_GAP = 1e-6
_BASE_SNAP = 1e-9
_FIRST_GRID = 16
_MAX_GRID = 1024


@dataclass(frozen=True, eq=False)
class InvariantPop:
    """Para-orthogonal combination alpha Phi_n + beta Phi_n* with its kappa."""

    table: SchurSequence = field(repr=False)
    order: int
    alpha: complex
    beta: complex
    kappa: complex

    @property
    def poly(self) -> ComplexPolynomial:
        """alpha Phi_n + beta Phi_n* as monic-table coefficients, for output and test oracles."""
        return self.alpha * self.table.phi[self.order] + self.beta * self.table.phi_star[self.order]


def make_pop(table: SchurSequence, n: int, alpha, beta) -> InvariantPop:
    """Form the invariant combination; moduli of alpha and beta must agree, the whole
    invariance check since P* - kappa P = ((|alpha|^2 - |beta|^2) / alpha) Phi_n*."""
    n = checked_int(n, "n", 1, table.max_order)
    alpha = complex(alpha)
    beta = complex(beta)
    scale = max(abs(alpha), abs(beta))
    if not 0.0 < scale < np.inf:
        raise ModulusMismatch("alpha and beta must be nonzero and finite")
    if not abs(abs(alpha) - abs(beta)) <= 1e-12 * scale:
        raise ModulusMismatch(
            f"|alpha| = {abs(alpha):.17g} and |beta| = {abs(beta):.17g} differ",
            alpha=abs(alpha),
            beta=abs(beta),
        )
    kappa = complex(np.conj(beta) / alpha)
    return InvariantPop(table=table, order=n, alpha=alpha, beta=beta, kappa=kappa)


def _bisect(fn, lo, hi, flo, tol):
    lo = lo.astype(float).copy()
    hi = hi.astype(float).copy()
    flo = np.asarray(flo, dtype=float).copy()
    while float(np.max(hi - lo)) > tol:
        mid = 0.5 * (lo + hi)
        fm = np.asarray(fn(mid), dtype=float)
        hit = fm == 0.0
        left = flo * fm < 0.0
        new_lo = np.where(left, lo, mid)
        new_hi = np.where(left, mid, hi)
        new_flo = np.where(left, flo, fm)
        lo = np.where(hit, mid, new_lo)
        hi = np.where(hit, mid, new_hi)
        flo = np.where(hit, fm, new_flo)
    return 0.5 * (lo + hi)


def circle_zero_angles(value_fn, count, omega0=0.0, *, angle_tol=ANGLE_TOL):
    """Roots of a real-valued 2 pi-periodic function of the angle in [omega0, omega0 + 2 pi).

    A general root finder by sign scan and bisection; no library path uses
    it (invariant members go through invariant_zeros).  value_fn must accept
    an ndarray of angles and return real values, and must remain valid
    slightly past the window (the wrap-around interval is bracketed by direct
    evaluation at omega0 + 2 pi offsets).  Exactly `count` simple roots are
    expected; the scan grid of 16 * count midpoints is doubled until all of
    them are isolated by sign changes, and ZeroCountMismatch is raised if
    1024 * count samples still disagree.

    Returned angles are sorted and bisected to the angular tolerance
    angle_tol; a root within 1e-9 of the upper window edge is folded onto
    omega0 (the two describe the same circle point).
    """
    count = checked_int(count, "count", 0)
    if count == 0:
        return np.empty(0, dtype=float)
    m = _FIRST_GRID * count
    while True:
        theta = omega0 + (np.arange(m) + 0.5) * (TWO_PI / m)
        h = np.asarray(value_fn(theta), dtype=float)
        exact = h == 0.0
        if exact.any():
            # nudge samples off exact zeros so they land inside a bracket
            theta = theta.copy()
            theta[exact] += (TWO_PI / m) * 1e-9
            h = h.copy()
            h[exact] = np.asarray(value_fn(theta[exact]), dtype=float)
        th_all = np.append(theta, theta[0] + TWO_PI)
        h_all = np.append(h, np.asarray(value_fn(np.array([theta[0] + TWO_PI])), dtype=float))
        flips = (h_all[:-1] * h_all[1:]) < 0.0
        found = np.count_nonzero(flips)
        if found == count:
            lo = th_all[:-1][flips]
            hi = th_all[1:][flips]
            roots = _bisect(value_fn, lo, hi, h_all[:-1][flips], angle_tol)
            roots = np.where(roots >= omega0 + TWO_PI, roots - TWO_PI, roots)
            roots = np.where((omega0 + TWO_PI) - roots < _BASE_SNAP, omega0, roots)
            roots.sort()
            return roots
        if m >= _MAX_GRID * count:
            raise ZeroCountMismatch(
                f"isolated {found} sign changes on {m} samples, expected {count}",
                expected=count,
                found=found,
                samples=m,
            )
        m *= 2


def _cmv_eigenvalues(C: np.ndarray) -> np.ndarray:
    """Eigenvalues of a unitary matrix; up to HERMITIAN_MAX_ORDER through its Hermitian part.

    H = C + C^H has the eigenvalues 2 cos(theta) and the eigenvectors of C, so
    each column v of eigh(H) gives an eigenvalue of C as the Rayleigh quotient v^H C v.
    A run of eigenvalues of H closer than CLUSTER_GAP (a conjugate pair shares
    one cosine) spans an invariant subspace of C, resolved by eigvals there."""
    if len(C) > HERMITIAN_MAX_ORDER:
        return np.linalg.eigvals(C)
    cosines, V = np.linalg.eigh(C + C.conj().T)
    CV = C @ V
    z = (V.conj() * CV).sum(axis=0)
    starts = np.flatnonzero(cosines[1:] - cosines[:-1] > CLUSTER_GAP) + 1
    if len(starts) < len(C) - 1:  # some run holds more than one cosine
        for run in np.split(np.arange(len(C)), starts):
            if len(run) > 1:
                z[run] = np.linalg.eigvals(V[:, run].conj().T @ CV[:, run])
    return z


def invariant_zeros(schur: SchurSequence, n: int, t, omega0=0.0) -> np.ndarray:
    """Sorted angles in [omega0, omega0 + 2 pi) of the n zeros of Phi_n + t Phi_n*, |t| = 1.

    Phi_n + t Phi_n* = (1 + conj(a_n) t) (z Phi_{n-1} + lam Phi_{n-1}*), so they are the
    eigenvalues of cmv_matrix(schur, n, lam), lam = (a_n + t) / (1 + conj(a_n) t).  A
    root within 1e-9 of the upper window edge is folded onto omega0."""
    if n == 0:
        return np.empty(0, dtype=float)
    a_n = schur.coefficients[n - 1]
    lam = (a_n + t) / (1.0 + np.conj(a_n) * t)
    roots = fold_angle(np.angle(_cmv_eigenvalues(cmv_matrix(schur, n, lam))), omega0)
    return np.sort(np.where((omega0 + TWO_PI) - roots < _BASE_SNAP, omega0, roots))


def pop_zeros(pop: InvariantPop, omega0=0.0) -> np.ndarray:
    """Angles of the n simple circle zeros of an invariant polynomial (t = beta / alpha)."""
    return invariant_zeros(pop.table, pop.order, pop.beta / pop.alpha, omega0)


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes exp(i theta_k) and positive weights summing to one."""

    order: int
    node_angles: np.ndarray
    weights: np.ndarray
    omega0: float
    source: str
    exactness_residual: float | None = None

    @property
    def nodes(self):
        return np.exp(1j * self.node_angles)

    def apply_theta(self, fn) -> float:
        """Apply the rule to a real function of the angle."""
        return float(np.dot(self.weights, np.asarray(fn(self.node_angles), dtype=float)))

    def apply_power(self, k) -> complex:
        """Rule value on z^k."""
        return complex(np.dot(self.weights, np.exp(1j * k * self.node_angles)))


def _exactness_residual(m: MomentTable, angles, weights, order):
    """max |rule(z^k) - c_k| over |k| <= order - 1.  With real weights the
    defect at -k is the exact conjugate of the defect at k, so k = 0..order - 1
    suffice, taken at most 32 rows of the Vandermonde matrix at a time.  The
    blocks are near-equal, so none has a single row: numpy takes a 1-row
    product through dot, which rounds differently from the matrix product."""
    worst = 0.0
    for ks in np.array_split(np.arange(order), -(-order // 32)):
        vals = np.exp(1j * np.outer(ks, angles)) @ weights
        worst = max(worst, float(np.max(np.abs(vals - m.window(ks[0], ks[-1])))))
    return worst


def _kernel_weights(table: SchurSequence, degrees, angles):
    """Weights H_k = 1 / K_{n-1}(z_k, z_k) at the node angles, degrees = n - 1
    one for all nodes or one per node, from one kernel_diag sweep."""
    return 1.0 / kernel_diag(table, degrees, np.exp(1j * angles))


def _kernel_rule(m: MomentTable, angles, weights, order, omega0, source):
    """Rule on the given nodes and kernel weights, the exactness defect over
    the Laurent window |k| <= n - 1 stamped on it."""
    return QuadratureRule(
        order=order,
        node_angles=angles,
        weights=weights,
        omega0=float(omega0),
        source=source,
        exactness_residual=_exactness_residual(m, angles, weights, order),
    )


def _check_member_table(table: SchurSequence, own: SchurSequence, k):
    """The table's K_k weighs nodes made on own only when it reaches degree k and shares
    a_1..a_k with own; identical tables pass on the identity test."""
    k = checked_int(k, "kernel degree", 0, table.max_order)
    if table is not own and not np.array_equal(table.coefficients[:k], own.coefficients[:k]):
        raise ValueError(f"the table's first {k} Schur coefficients differ from the member's")


def make_rule(table: SchurSequence, m: MomentTable, pop: InvariantPop, omega0=0.0) -> QuadratureRule:
    """Szego rule on the zeros of an invariant polynomial, kernel weights.

    Weights are H_k = 1 / K_{n-1}(z_k, z_k), the kernel sum of the
    normalized recurrence; the measured exactness defect over the Laurent
    window |k| <= n - 1 is stamped on the rule for inspection.  A table whose
    first n - 1 Schur coefficients differ from the pop's raises ValueError.
    """
    _check_member_table(table, pop.table, pop.order - 1)
    src = f"pop(n={pop.order}, alpha={pop.alpha:.6g}, beta={pop.beta:.6g})"
    angles = pop_zeros(pop, omega0)
    weights = _kernel_weights(table, pop.order - 1, angles)
    return _kernel_rule(m, angles, weights, pop.order, omega0, src)


def member_rule_parts(table: SchurSequence, zeros_list, orders, anchor_angles, omega0):
    """(nodes, weights) of the order-point rules of several semi-orthogonal
    members from one kernel sweep.  The nodes of a member are its zeros, plus
    its anchor when it has order - 1 of them, folded into [omega0, omega0 +
    2 pi) and sorted; each is weighed by 1 / K_{order-1} at its member's
    order, bit-identical to a kernel_diag call per member."""
    nodes = []
    for zeros, order, anchor_angle in zip(zeros_list, orders, anchor_angles):
        angles = fold_angle(np.asarray(zeros, dtype=float), omega0)
        if order == len(angles) + 1:
            angles = np.append(angles, fold_angle(anchor_angle, omega0))
        elif order != len(angles):
            raise ValueError(f"instance with {len(angles)} zeros cannot drive an order-{order} rule")
        nodes.append(np.sort(angles))
    orders = np.asarray(orders, dtype=int)
    weights = _kernel_weights(table, np.repeat(orders - 1, orders), np.concatenate(nodes))
    return list(zip(nodes, np.split(weights, np.cumsum(orders)[:-1])))


def rule_from_sof(table: SchurSequence, m: MomentTable, inst, omega0=None) -> QuadratureRule:
    """Quadrature rule generated by a semi-orthogonal function's zero set.

    For the odd members of the alternating sequence the anchor is the one
    extra node (the instance carries one fewer zero than its order).  The
    weights are the table's kernel and the nodes the member's zeros, so a
    table whose first order - 1 Schur coefficients differ from the member's
    raises ValueError.  A member that carries its rule nodes and weights
    (f_sequence builds them with member_rule_parts) has them taken as they
    are when omega0 is its own window; only the exactness defect is stamped.
    """
    omega0 = float(inst.omega0 if omega0 is None else omega0)
    order = inst.index
    _check_member_table(table, inst.table, order - 1)
    src = f"sof({inst.label})" if inst.label else "sof"
    if inst.rule_weights is not None and omega0 == inst.omega0:
        angles, weights = inst.rule_angles, inst.rule_weights
    else:
        ((angles, weights),) = member_rule_parts(
            table, [inst.zeros], [order], [inst.anchor_angle], omega0
        )
    return _kernel_rule(m, angles, weights, order, omega0, src)


def weights_via_integral(rule: QuadratureRule, m: MomentTable, p: int) -> np.ndarray:
    """Weights recomputed from the nodes and moments alone, the integrals of
    the Lagrange-type Laurent basis: the one solution of the Vandermonde system
    sum_k w_k z_k^j = c_j, j = -p..n-1-p, for any integer 0 <= p <= n - 1.
    The value is independent of p and shares nothing with the kernel route,
    which makes it a cross-check of the kernel weights.
    """
    n = rule.order
    p = checked_int(p, "shift p", 0, n - 1)
    powers = np.exp(1j * np.outer(np.arange(-p, n - p), rule.node_angles))
    return np.real(np.linalg.solve(powers, m.window(-p, n - 1 - p)))


TEST_FUNCTIONS = {
    "one": lambda theta: np.ones_like(np.asarray(theta, dtype=float)),
    "z_plus_zinv": lambda theta: 2.0 * np.cos(theta),
    "abs_sin_half": lambda theta: np.abs(np.sin(0.5 * np.asarray(theta, dtype=float))),
}


def resolve_test_function(fn):
    if callable(fn):
        return fn
    try:
        return TEST_FUNCTIONS[fn]
    except KeyError:
        known = ", ".join(sorted(TEST_FUNCTIONS))
        raise ValueError(f"unknown test function '{fn}'; known names: {known}") from None
