"""Support recovery from zero clouds of semi-orthogonal families.

Zeros of the anchored families cluster on the support of the measure and
thin out elsewhere: away from the support only the anchor can recur, and
every open arc of the complement carries at most one zero per degree.
Intersecting epsilon-dilated zero sets across degrees (and across several
anchors, removing each anchor's own recurring point) therefore sandwiches
the support between the estimate and its 2 epsilon thickening.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import TWO_PI, circular_distance, fold_angle, in_open_arc
from .measures import MeasureSpec, schur_from_measure
from .opuc import OpucTable, build_opuc
from .quadrature import QuadratureRule
from .sof import SofFamilySpec, SofInstance, sof_combo

_EDGE_TOL = 1e-12
_SLIVER = 1e-9


def _drop_slivers(arcs):
    # boundary subtraction can leave zero-width float residue; genuine
    # accumulation arcs have width on the order of 2 epsilon
    return [(lo, hi) for lo, hi in arcs if hi - lo >= _SLIVER]


# ---------------------------------------------------------------------------
# circular interval sets, represented split along [0, 2 pi]


def _eps_union(zeros, eps):
    """Union of closed eps-balls around the zeros, split at the cut."""
    if eps >= np.pi:
        return [(0.0, TWO_PI)]
    pieces = []
    for theta in np.atleast_1d(zeros):
        t = float(fold_angle(theta))
        lo, hi = t - eps, t + eps
        if lo < 0.0:
            pieces.append((0.0, hi))
            pieces.append((lo + TWO_PI, TWO_PI))
        elif hi > TWO_PI:
            pieces.append((lo, TWO_PI))
            pieces.append((0.0, hi - TWO_PI))
        else:
            pieces.append((lo, hi))
    return _merge(pieces)


def _merge(pieces):
    if not pieces:
        return []
    pieces = sorted(pieces)
    out = [list(pieces[0])]
    for lo, hi in pieces[1:]:
        if lo <= out[-1][1] + _EDGE_TOL:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def _intersect(a, b):
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _complement(a):
    out = []
    cursor = 0.0
    for lo, hi in a:
        if lo > cursor:
            out.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < TWO_PI:
        out.append((cursor, TWO_PI))
    return out


def _subtract(a, b):
    return _intersect(a, _complement(b))


def _rejoin_wrap(a):
    """Merge arcs meeting at the cut; wrapping arcs are reported with hi > 2 pi."""
    if not a:
        return []
    if len(a) == 1 and a[0][0] <= _EDGE_TOL and a[0][1] >= TWO_PI - _EDGE_TOL:
        return [(0.0, TWO_PI)]
    first, last = a[0], a[-1]
    if len(a) >= 2 and first[0] <= _EDGE_TOL and last[1] >= TWO_PI - _EDGE_TOL:
        merged = [(last[0], first[1] + TWO_PI)]
        return list(a[1:-1]) + merged
    return list(a)


def point_in_arcs(arcs, theta):
    """Membership of an angle in a list of (lo, hi) arcs (hi may pass 2 pi)."""
    t = float(fold_angle(theta))
    for lo, hi in arcs:
        if lo <= t <= hi or lo <= t + TWO_PI <= hi:
            return True
    return False


# ---------------------------------------------------------------------------
# zero clouds


@dataclass(frozen=True, eq=False)
class ZeroCloud:
    """Zero sets of one family across a range of degrees."""

    orders: tuple
    zero_sets: tuple
    omega0: float
    anchor_angle: float
    eventually_common: np.ndarray


def zero_cloud(
    table: OpucTable, family: SofFamilySpec, orders, omegas=None, eps_match=1e-6
) -> ZeroCloud:
    """Collect the zero sets of the family for every requested degree.

    The eventually-common set holds the points that recur (within eps_match)
    in every computed degree; with finitely many degrees this is the honest
    finite-order proxy for the set of zeros shared by all high degrees.
    omegas is accepted and not read: sof_combo takes Omega_n(w) from the
    recurrence.
    """
    orders = tuple(int(n) for n in orders)
    if not orders:
        raise ValueError("need at least one degree")
    if max(orders) > table.order:
        raise ValueError(f"degree {max(orders)} exceeds table order {table.order}")
    sets = tuple(sof_combo(table, family, n).zeros for n in orders)
    candidates = sets[-1]
    common = []
    for theta in candidates:
        if all(
            len(zs) > 0 and float(np.min(circular_distance(zs, theta))) <= eps_match
            for zs in sets
        ):
            if not common or float(np.min(circular_distance(np.array(common), theta))) > eps_match:
                common.append(float(theta))
    return ZeroCloud(
        orders=orders,
        zero_sets=sets,
        omega0=family.omega0,
        anchor_angle=family.anchor_angle,
        eventually_common=np.array(common),
    )


def accumulation_set(cloud: ZeroCloud, epsilon, n_min=None):
    """Arcs where zeros keep landing: intersection over degrees n >= n_min of
    the epsilon-dilated zero sets, merged into maximal arcs.

    Returns a list of (lo, hi) pairs with lo in [0, 2 pi); a wrapping arc is
    reported with hi > 2 pi; the full circle comes back as (0, 2 pi).
    """
    epsilon = float(epsilon)
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    if n_min is None:
        n_min = max(min(cloud.orders), max(cloud.orders) // 2)
    used = [n for n in cloud.orders if n >= n_min]
    if not used:
        raise ValueError(f"no computed degrees at or above n_min = {n_min}")
    acc = None
    for n, zs in zip(cloud.orders, cloud.zero_sets):
        if n < n_min:
            continue
        dil = _eps_union(zs, epsilon)
        acc = dil if acc is None else _intersect(acc, dil)
        if not acc:
            break
    return _rejoin_wrap(_drop_slivers(acc or []))


def gap_zero_census(cloud: ZeroCloud, gap) -> np.ndarray:
    """Number of zeros inside the open arc `gap`, per computed degree."""
    lo, hi = float(gap[0]), float(gap[1])
    counts = [int(np.count_nonzero(in_open_arc(zs, lo, hi))) for zs in cloud.zero_sets]
    return np.array(counts, dtype=int)


@dataclass(frozen=True, eq=False)
class SupportEstimate:
    arcs: tuple
    epsilon: float
    n_min: int
    n_max: int
    anchor_angles: tuple


def _split_form(arcs):
    """Back from reported arcs to the split representation."""
    pieces = []
    for lo, hi in arcs:
        if hi > TWO_PI:
            pieces.append((lo, TWO_PI))
            pieces.append((0.0, hi - TWO_PI))
        else:
            pieces.append((lo, hi))
    return _merge(pieces)


def _anchor_isolated(cloud, epsilon, n_min):
    """True when, in every used degree, the anchor's ball of radius 2 eps
    holds exactly one zero (the recurring anchor itself)."""
    for n, zs in zip(cloud.orders, cloud.zero_sets):
        if n < n_min:
            continue
        near = np.count_nonzero(circular_distance(zs, cloud.anchor_angle) <= 2.0 * epsilon)
        if near != 1:
            return False
    return True


def support_estimate(
    spec: MeasureSpec,
    anchors,
    n_max: int,
    epsilon: float,
    n_min=None,
) -> SupportEstimate:
    """Estimate the support of the measure from anchored first-kind zeros.

    For each unimodular anchor the accumulation arcs are computed; when the
    anchor shows up as an isolated recurring zero (no other zero within
    2 epsilon at any used degree) its epsilon-ball is removed, since an
    isolated recurring point is the anchor's own zero and not part of the
    support.  The estimates are then intersected across anchors.
    """
    n_max = int(n_max)
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    anchors = [complex(w) for w in np.atleast_1d(anchors)]
    if not anchors:
        raise ValueError("need at least one anchor")
    if n_min is None:
        n_min = max(1, n_max // 2)
    n_min = int(n_min)
    table = build_opuc(schur_from_measure(spec, n_max), n_max)
    orders = tuple(range(1, n_max + 1))

    angles = []
    est = None
    for w in anchors:
        cloud = zero_cloud(table, SofFamilySpec.f1(w, omega0=0.0), orders)
        acc = _split_form(accumulation_set(cloud, epsilon, n_min))
        if _anchor_isolated(cloud, epsilon, n_min):
            ball = _eps_union(np.array([cloud.anchor_angle]), epsilon)
            acc = _subtract(acc, ball)
        angles.append(cloud.anchor_angle)
        est = acc if est is None else _intersect(est, acc)
    arcs = tuple(_rejoin_wrap(_drop_slivers(est or [])))
    return SupportEstimate(
        arcs=arcs,
        epsilon=float(epsilon),
        n_min=n_min,
        n_max=n_max,
        anchor_angles=tuple(angles),
    )


def sine_pair_residual(member: SofInstance, theta1, theta2, rule: QuadratureRule) -> float:
    """Vanishing test for the split-kernel sum over a finer rule.

    Computes sum_k H_k |P(e^{i theta_k})|^2 / (sin((theta_k - theta1)/2)
    sin((theta_k - theta2)/2)) normalized by the sum of absolute terms, with
    |P|^2 = f^2 from the member's recurrence value (SofInstance.value); for
    theta1, theta2 two zeros of the member's degree-n invariant numerator P
    and a rule of order above n, the signed sum vanishes.  Nodes coinciding
    with theta1 or theta2 are skipped (their limit contribution is zero).
    """
    tk = rule.node_angles
    s1 = np.sin(0.5 * (tk - float(theta1)))
    s2 = np.sin(0.5 * (tk - float(theta2)))
    keep = (np.abs(s1) > 1e-7) & (np.abs(s2) > 1e-7)
    vals = member.value(tk[keep]) ** 2
    terms = rule.weights[keep] * vals / (s1[keep] * s2[keep])
    denom = float(np.sum(np.abs(terms)))
    if denom == 0.0:
        return 0.0
    return abs(float(np.sum(terms))) / denom
