"""Support recovery from zero clouds of semi-orthogonal families.

Zeros of the anchored families cluster on the support of the measure and
thin out elsewhere: away from the support only the anchor can recur, and
every open arc of the complement carries at most one zero per degree.
Intersecting epsilon-dilated zero sets across degrees (and across several
anchors, removing each anchor's own recurring point) therefore sandwiches
the support between the estimate and its 2 epsilon thickening; one counting
sweep over the ends of the dilated sets and removed balls finds it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import TWO_PI, circular_distance, fold_angle, in_open_arc
from .errors import checked_int
from .measures import MeasureSpec, schur_from_measure
from .opuc import SchurSequence, build_opuc
from .sof import SofFamilySpec, sof_members

_EDGE_TOL = 1e-12
_SLIVER = 1e-9


def _drop_slivers(arcs):
    # nearly-touching piece ends can leave float-width residue; genuine
    # accumulation arcs have width on the order of 2 epsilon
    return [(lo, hi) for lo, hi in arcs if hi - lo >= _SLIVER]


# ---------------------------------------------------------------------------
# circular interval sets, represented split along [0, 2 pi]


def _eps_union(zeros, eps):
    """Union of closed eps-balls around the zeros, split at the cut."""
    t = fold_angle(np.atleast_1d(zeros))
    if eps >= np.pi and t.size:
        return [(0.0, TWO_PI)]
    lo, hi = t - eps, t + eps
    # a ball across the cut is clipped to [0, 2 pi] and its overhang
    # re-enters at the other end
    under, over = lo < 0.0, hi > TWO_PI
    n_under, n_over = np.count_nonzero(under), np.count_nonzero(over)
    starts = np.concatenate((np.maximum(lo, 0.0), lo[under] + TWO_PI, np.zeros(n_over)))
    ends = np.concatenate((np.minimum(hi, TWO_PI), np.full(n_under, TWO_PI), hi[over] - TWO_PI))
    return _merge(list(zip(starts.tolist(), ends.tolist())))


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


def _covered(sets, holes):
    """Segments of [0, 2 pi] that every set covers and no hole does.

    Sets and holes are merged split-form pieces; the circle counts as one
    more set.  One sweep over all piece ends counts +1 over a set's piece and
    minus the number of sets over a hole's; the maximal runs where the count
    equals the number of sets are returned, so every end is an input float.
    """
    sets = [[(0.0, TWO_PI)], *sets]
    need = len(sets)
    pieces = [(lo, hi, 1) for s in sets for lo, hi in s] + [(lo, hi, -need) for lo, hi in holes]
    lo, hi, step = np.array(pieces).T
    ends, at = np.unique(np.concatenate((lo, hi)), return_inverse=True)
    count = np.cumsum(np.bincount(at, np.concatenate((step, -step)), ends.size))
    inside = np.concatenate(([False], count[:-1] == need, [False]))
    edges = np.flatnonzero(np.diff(inside)).tolist()
    ends = ends.tolist()
    return [(ends[i], ends[j]) for i, j in zip(edges[::2], edges[1::2])]


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


def zero_cloud(table: SchurSequence, family: SofFamilySpec, orders, omegas=None) -> ZeroCloud:
    """Collect the zero sets of the family for every requested degree.

    The members come from one sof_members call, so one recurrence sweep at
    the anchor serves every degree.  omegas is accepted and not read:
    sof_members takes Omega_n(w) from the recurrence.
    """
    members = sof_members(table, family, orders)
    if not members:
        raise ValueError("need at least one degree")
    return ZeroCloud(
        orders=tuple(inst.n for inst in members),
        zero_sets=tuple(inst.zeros for inst in members),
        omega0=family.omega0,
        anchor_angle=family.anchor_angle,
    )


def _radius(epsilon):
    epsilon = float(epsilon)
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    return epsilon


def accumulation_set(cloud: ZeroCloud, epsilon, n_min=None):
    """Arcs where zeros keep landing: intersection over degrees n >= n_min of
    the epsilon-dilated zero sets, merged into maximal arcs.

    Returns a list of (lo, hi) pairs with lo in [0, 2 pi); a wrapping arc is
    reported with hi > 2 pi; the full circle comes back as (0, 2 pi).
    """
    epsilon = _radius(epsilon)
    if n_min is None:
        n_min = max(min(cloud.orders), max(cloud.orders) // 2)
    n_min = checked_int(n_min, "n_min", None, max(cloud.orders))
    used = [zs for n, zs in zip(cloud.orders, cloud.zero_sets) if n >= n_min]
    return _rejoin_wrap(_drop_slivers(_covered([_eps_union(zs, epsilon) for zs in used], [])))


def gap_zero_census(cloud: ZeroCloud, gap) -> np.ndarray:
    """Number of zeros inside the open arc `gap`, per computed degree."""
    lo, hi = float(gap[0]), float(gap[1])
    counts = [np.count_nonzero(in_open_arc(zs, lo, hi)) for zs in cloud.zero_sets]
    return np.array(counts, dtype=int)


@dataclass(frozen=True, eq=False)
class SupportEstimate:
    arcs: tuple
    epsilon: float
    n_min: int
    n_max: int
    anchor_angles: tuple


def support_estimate(
    spec: MeasureSpec,
    anchors,
    n_max: int,
    epsilon: float,
    n_min=None,
) -> SupportEstimate:
    """Estimate the support of the measure from anchored first-kind zeros.

    One sweep over every anchor and every read degree: the estimate is the
    set that every epsilon-dilated zero set covers and no epsilon-ball of an
    isolated anchor does.  An anchor is isolated when, at every read degree,
    it is the only zero within 2 epsilon of itself: an isolated recurring
    point is the anchor's own zero and not part of the support.  Removing
    the union of the balls from the one intersection equals intersecting the
    per-anchor estimates with each anchor's ball removed.  Only the degrees
    n_min..n_max are read (n_min defaults to n_max // 2), so only they are
    built, each anchor's family from one recurrence sweep.  A bad epsilon,
    n_max or n_min raises ValueError (a non-integer degree TypeError) before
    any numerics.
    """
    n_max = checked_int(n_max, "n_max", 1)
    epsilon = _radius(epsilon)
    anchors = [complex(w) for w in np.atleast_1d(anchors)]
    if not anchors:
        raise ValueError("need at least one anchor")
    n_min = checked_int(max(1, n_max // 2) if n_min is None else n_min, "n_min", 1, n_max)
    table = build_opuc(schur_from_measure(spec, n_max), n_max)
    orders = range(n_min, n_max + 1)
    families = [sof_members(table, SofFamilySpec.f1(w), orders) for w in anchors]
    angles = [f[0].anchor_angle for f in families]
    isolated = [
        angle
        for angle, f in zip(angles, families)
        if all(np.count_nonzero(circular_distance(m.zeros, angle) <= 2 * epsilon) == 1 for m in f)
    ]
    dilated = [_eps_union(m.zeros, epsilon) for f in families for m in f]
    est = _covered(dilated, _eps_union(np.array(isolated), epsilon))
    return SupportEstimate(
        arcs=tuple(_rejoin_wrap(_drop_slivers(est))),
        epsilon=epsilon,
        n_min=n_min,
        n_max=n_max,
        anchor_angles=tuple(angles),
    )
