"""Target extraction in its composed form: the test oracle for the one-body
``waynet.plan.target_for_edge``.

``fraction`` and ``point`` are the segment methods that extraction once
called, and ``target_for_edge`` composes them as it once did. Each derives
the segment's geometry from its nodes, as ``record`` does the record that
``PlanGraph`` compiles, so the oracle does not read that record. The
differential tests require ``target_for_edge``, ``next_target`` and
``initial_state`` to return the same ``ActiveTarget`` as this oracle, bit for
bit, and every compiled record to equal ``record``'s.
"""

import math

from waynet.core import RelWaypoint, WorldPose
from waynet.dynamics import to_relative
from waynet.plan import ActiveTarget, PlanGraph, Segment, arc_geometry, arc_point


def geometry(seg: Segment):
    """The segment's arc geometry from its nodes and curvature; None for a line."""
    a, b = seg.a, seg.b
    return None if seg.k == 0.0 else arc_geometry(a.x, a.y, b.x, b.y, seg.k)


def record(seg: Segment):
    """The (line, arc) records of a segment, derived from its nodes."""
    a, b, geom = seg.a, seg.b, geometry(seg)
    if geom is None:
        ux, uy = b.x - a.x, b.y - a.y
        return (a.x, a.y, ux, uy, math.hypot(ux, uy), ux * ux + uy * uy, b.vl, b.vh), None
    return None, (geom.cx, geom.cy, geom.radius, geom.theta0, geom.sweep, abs(geom.sweep),
                  b.vl, b.vh)


def point(seg: Segment, frac: float):
    """World point at fraction frac in [0, 1] along the segment."""
    geom = geometry(seg)
    if geom is None:
        a, b = seg.a, seg.b
        return (a.x + frac * (b.x - a.x), a.y + frac * (b.y - a.y))
    return arc_point(geom, frac)


def fraction(seg: Segment, pose: WorldPose) -> float:
    """Fraction of the robot's projection onto the segment, clamped to
    [0, 1]; angular along arcs."""
    geom = geometry(seg)
    if geom is None:
        a, b = seg.a, seg.b
        ux, uy = b.x - a.x, b.y - a.y
        chord2 = ux * ux + uy * uy
        if chord2 == 0.0:
            return 1.0
        t = ((pose.x - a.x) * ux + (pose.y - a.y) * uy) / chord2
        return min(1.0, max(0.0, t))
    theta = math.atan2(pose.y - geom.cy, pose.x - geom.cx)
    delta = theta - geom.theta0
    # Bring the offset into the turn direction's principal range.
    delta = math.remainder(delta, 2.0 * math.pi)
    frac = delta / geom.sweep
    if frac < 0.0:
        return 0.0
    return min(1.0, frac)


def target_for_edge(graph: PlanGraph, edge_index: int, pose: WorldPose,
                    lookahead: float) -> ActiveTarget:
    """Body-frame active target on the remainder [here, 1] of a segment past
    the robot's projection: the point ``lookahead`` meters of path on
    (``math.inf``: the end node; arcs cap at 90 degrees) when it is ahead
    (body-frame x > 0); else, when part of the remainder is ahead, the point
    a margin of 1/16 of the remainder past the exact cut where the remainder
    enters x > 0, capped at the end node; else the end node."""
    seg = graph.segments[edge_index]
    here = fraction(seg, pose)
    geom = geometry(seg)
    if geom is None:
        chord = math.hypot(seg.b.x - seg.a.x, seg.b.y - seg.a.y)
        frac = min(1.0, here + lookahead / chord) if chord > 0.0 else 1.0
    else:
        frac = min(1.0, here + min(math.pi / 2.0, lookahead / geom.radius) / abs(geom.sweep))
    target = point(seg, frac)
    rel = to_relative(pose, target)
    if rel[0] <= 0.0:
        # The remainder is ahead between the fractions enter and leave.
        c, s = pose.cos, pose.sin
        if geom is None:  # x is linear in the fraction
            dx = c * (seg.b.x - seg.a.x) + s * (seg.b.y - seg.a.y)
            zero = frac - rel[0] / dx if dx != 0.0 else -math.inf
            enter, leave = (zero, math.inf) if dx > 0.0 else (here, zero)
        else:  # x = r (cos(theta - heading) - ratio) at angle theta on the circle
            ratio = (c * (pose.x - geom.cx) + s * (pose.y - geom.cy)) / geom.radius
            half = math.acos(min(1.0, max(-1.0, ratio)))
            u = math.remainder(math.copysign(1.0, geom.sweep)
                               * (geom.theta0 + here * geom.sweep - pose.heading), 2.0 * math.pi)
            if u >= half:  # past this window: the next is a turn further on
                u -= 2.0 * math.pi
            enter = here + max(0.0, -half - u) / abs(geom.sweep)
            leave = here + (half - u) / abs(geom.sweep)
        cut = min(1.0, enter + (1.0 - here) / 16.0) if enter < leave else 1.0
        if cut != frac:  # else rel already holds
            frac, target = cut, point(seg, cut)
            rel = to_relative(pose, target)
    wp = RelWaypoint(rel[0], rel[1], seg.k, seg.b.vl, seg.b.vh)
    return ActiveTarget(edge_index=edge_index, target_world=target, frac=frac, waypoint=wp)
