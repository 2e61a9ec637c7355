"""Invariant para-orthogonal polynomials, their circle zeros, and Szego rules.

A polynomial P = alpha Phi_n + beta Phi_n* with |alpha| = |beta| != 0 is
invariant: P* = kappa P for the unimodular kappa = conj(beta)/alpha.  Its n
zeros are simple and lie on the unit circle, and the n-point rule with nodes
at those zeros and weights 1/K_{n-1}(z_k, z_k) integrates every Laurent
polynomial of degree window [-(n-1), n-1] exactly.  The zeros are the
eigenvalues of a unitary CMV matrix (invariant_zeros, Golub-Welsch on the
circle), the weights kernel sums of the normalized recurrence, all from
member_rule_parts: make_rule hands it a pop's zeros, rule_from_sof and
f_sequence semi-orthogonal members' rule nodes.  weights_via_integral
recomputes them independently, one Vandermonde solve on nodes and moments.

Every order takes its zeros from eigh of the Hermitian part of the CMV
matrix, its lower band filled from the bands of C (opuc.cmv_bands, no dense
L, M or C): the Rayleigh quotients v^H C v of the eigenvectors, and eigvals
on the subspace of each run of equal cosines.  A solve takes 0.17 ms at
n = 32, 0.6 ms at n = 64 and 15 ms at n = 256 (one OpenBLAS thread, 2-core
x86-64).  Rule weights of order up to FORWARD_KERNEL_MAX_ORDER = 64, the
ladders', come from one batched forward kernel_diag sweep; larger orders
take them from two-sided recurrence sweeps that splice a forward and a
backward pass where they agree best (opuc._two_sided_sweep, 16 bytes per
point and degree; _spliced_weights), 12 ms at n = 256 against 2.5 ms for
the forward sum, which loses their relative accuracy: past the peak of
|phi_k| it picks up the growing solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circle import TWO_PI, fold_angle
from .errors import ModulusMismatch, ZeroCountMismatch, checked_int
from .measures import MomentTable
from .opuc import CmvBands, SchurSequence, _two_sided_sweep, cmv_bands, kernel_diag
from .poly import ComplexPolynomial

ANGLE_TOL = 2e-14
# The largest order whose rule weights come from one batched forward
# kernel_diag sweep, which a ladder's rules share; larger orders take theirs
# from two-sided sweeps (_spliced_weights), since the forward sum loses the
# weights' relative accuracy past the peak of |phi_k(z_k)|.
FORWARD_KERNEL_MAX_ORDER = 64
CLUSTER_GAP = 1e-6
# columns of C V formed at once for the Rayleigh quotients: 256 KB at n = 256
_RAYLEIGH_BLOCK = 64
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


def _cmv_eigenvalues(C: CmvBands) -> np.ndarray:
    """Eigenvalues of the CMV matrix with bands C, from its Hermitian part.

    H = C + C^H has the eigenvalues 2 cos(theta) and the eigenvectors of C, so
    each column v of eigh(H) gives an eigenvalue of C as the Rayleigh quotient
    v^H C v.  eigh reads the lower triangle alone, filled from the bands; C V
    is formed _RAYLEIGH_BLOCK columns at a time once H is freed.  A run of
    eigenvalues of H closer than CLUSTER_GAP (a conjugate pair shares one
    cosine) spans an invariant subspace of C, resolved by eigvals there."""
    n = len(C.diag)
    H = np.zeros((n, n), dtype=complex)
    H.flat[:: n + 1] = C.diag + np.conj(C.diag)
    H.flat[n :: n + 1] = C.below + np.conj(C.above)
    H.flat[2 * n :: n + 1] = C.second
    cosines, V = np.linalg.eigh(H)
    del H
    z = np.empty(n, dtype=complex)
    for j in range(0, n, _RAYLEIGH_BLOCK):
        Vj = V[:, j : j + _RAYLEIGH_BLOCK]
        z[j : j + _RAYLEIGH_BLOCK] = np.vecdot(Vj, C @ Vj, axis=0)
    starts = np.flatnonzero(cosines[1:] - cosines[:-1] > CLUSTER_GAP) + 1
    if len(starts) < n - 1:  # some run holds more than one cosine
        for run in np.split(np.arange(n), starts):
            if len(run) > 1:
                z[run] = np.linalg.eigvals(V[:, run].conj().T @ (C @ V[:, run]))
    return z


def pop_boundary(schur: SchurSequence, n: int, t) -> complex:
    """lam = (a_n + t) / (1 + conj(a_n) t): Phi_n + t Phi_n* = (1 + conj(a_n) t) (z Phi_{n-1}
    + lam Phi_{n-1}*), so its zeros are those of the CMV matrix closed by lam."""
    a_n = schur.coefficients[n - 1]
    return complex((a_n + t) / (1.0 + np.conj(a_n) * t))


def invariant_zeros(schur: SchurSequence, n: int, t, omega0=0.0) -> np.ndarray:
    """Sorted angles in [omega0, omega0 + 2 pi) of the n zeros of Phi_n + t Phi_n*, |t| = 1.

    They are the eigenvalues of the CMV matrix closed by lam = pop_boundary(schur,
    n, t), from its bands by _cmv_eigenvalues at every order.  A root within 1e-9
    of the upper window edge is folded onto omega0."""
    if n == 0:
        return np.empty(0, dtype=float)
    C = cmv_bands(schur, n, pop_boundary(schur, n, t))
    roots = fold_angle(np.angle(_cmv_eigenvalues(C)), omega0)
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


def member_rule_parts(table: SchurSequence, node_sets, omega0):
    """(nodes, weights) of the Szego rule on each node set, the one path from
    nodes to a rule.  node_sets holds pairs (angles, lam): the n node angles of
    a rule and the boundary lam whose CMV matrix has them as eigenvalues (z
    phi_{n-1} + lam phi_{n-1}* = 0 at every node).  The angles are folded into
    [omega0, omega0 + 2 pi) and sorted, and each node is weighed by H_k = 1 /
    K_{n-1}(z_k, z_k) at its own set's n.  One kernel_diag sweep weighs every
    node of every set of order up to FORWARD_KERNEL_MAX_ORDER, bit-identical to a
    kernel_diag call per set.  A larger set takes K from two-sided sweeps with
    its lam (_spliced_weights): the forward sum alone picks up the solution
    that grows past the peak of |phi_k(z_k)| and loses the weights' relative
    accuracy."""
    nodes = [np.sort(fold_angle(angles, omega0)) for angles, _ in node_sets]
    small = [angles for angles in nodes if len(angles) <= FORWARD_KERNEL_MAX_ORDER]
    orders = np.array([len(angles) for angles in small], dtype=int)
    points = np.exp(1j * np.concatenate(small)) if small else np.empty(0, dtype=complex)
    K = kernel_diag(table, np.repeat(orders - 1, orders), points)
    small_weights = iter(np.split(1.0 / K, np.cumsum(orders)[:-1]))
    weights = [
        next(small_weights) if len(angles) <= FORWARD_KERNEL_MAX_ORDER
        else _spliced_weights(table, angles, lam)
        for angles, (_, lam) in zip(nodes, node_sets)
    ]
    return list(zip(nodes, weights))


def _spliced_weights(table: SchurSequence, angles, lam):
    """1 / K_{n-1} at the zeros that n node angles stand for, from two two-sided
    sweeps.  A double angle lies up to half an ulp off its zero, and at a cap-0.9
    order-256 rule K moves by 1.7e-10 per ulp there; the unit point one Newton
    step on, z exp(-i d |phi_s|^2 / K), lies closer than any double angle, and
    the second sweep weighs that point."""
    n, z = len(angles), np.exp(1j * angles)
    K, mismatch, mod2 = _two_sided_sweep(table, n, z, lam)
    return 1.0 / _two_sided_sweep(table, n, z * np.exp(-1j * mismatch * mod2 / K), lam)[0]


def _kernel_rule(m: MomentTable, angles, weights, omega0, source):
    """Rule on the given nodes and kernel weights, the exactness defect over
    the Laurent window |k| <= n - 1 stamped on it."""
    residual = _exactness_residual(m, angles, weights, len(angles))
    return QuadratureRule(
        order=len(angles), node_angles=angles, weights=weights, omega0=float(omega0),
        source=source, exactness_residual=residual,
    )


def _check_member_table(table: SchurSequence, own: SchurSequence, k):
    """The table's K_k weighs nodes made on own only when it reaches degree k and shares
    a_1..a_k with own; identical tables pass on the identity test."""
    k = checked_int(k, "kernel degree", 0, table.max_order)
    if table is not own and not np.array_equal(table.coefficients[:k], own.coefficients[:k]):
        raise ValueError(f"the table's first {k} Schur coefficients differ from the member's")


def make_rule(table: SchurSequence, m: MomentTable, pop: InvariantPop, omega0=0.0) -> QuadratureRule:
    """Szego rule on the zeros of an invariant polynomial, kernel weights.

    Weights are H_k = 1 / K_{n-1}(z_k, z_k) from member_rule_parts; the
    measured exactness defect over the Laurent window |k| <= n - 1 is stamped
    on the rule for inspection.  A table whose first n - 1 Schur coefficients
    differ from the pop's raises ValueError.
    """
    _check_member_table(table, pop.table, pop.order - 1)
    src = f"pop(n={pop.order}, alpha={pop.alpha:.6g}, beta={pop.beta:.6g})"
    lam = pop_boundary(pop.table, pop.order, pop.beta / pop.alpha)
    ((angles, weights),) = member_rule_parts(table, [(pop_zeros(pop, omega0), lam)], omega0)
    return _kernel_rule(m, angles, weights, omega0, src)


def rule_from_sof(table: SchurSequence, m: MomentTable, inst) -> QuadratureRule:
    """Quadrature rule on a semi-orthogonal member's rule nodes (SofInstance.rule_nodes),
    in the member's own window.

    An instance whose rule nodes are not index many raises ValueError.  The
    weights are the table's kernel and the nodes the member's, so a table
    whose first order - 1 Schur coefficients differ from the member's raises
    ValueError.  A member that carries its rule nodes and weights (f_sequence
    builds them with member_rule_parts) has them taken as they are; only the
    exactness defect is stamped.
    """
    order = inst.index
    _check_member_table(table, inst.table, order - 1)
    nodes = inst.rule_nodes
    if len(nodes) != order:
        raise ValueError(f"instance with {len(inst.zeros)} zeros cannot drive an order-{order} rule")
    src = f"sof({inst.label})" if inst.label else "sof"
    if inst.rule_weights is not None:
        angles, weights = inst.rule_angles, inst.rule_weights
    else:
        ((angles, weights),) = member_rule_parts(table, [(nodes, inst.rule_boundary)], inst.omega0)
    return _kernel_rule(m, angles, weights, inst.omega0, src)


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
