"""Mission plans: waypoint graphs of line/arc segments with per-node speed
limits, a line-oriented text format, per-cycle extraction of the active
body-frame waypoint, and the built-in benchmark environments. A
``PlanGraph`` compiles itself once, on construction, into one ``Segment`` per
edge and a successor table; target extraction reads only these. Each
``Segment`` holds, for its kind, one record of what extraction reads every
cycle (a line's start, direction and length, an arc's circle and turn, the end
node's limits), so a cycle derives no geometry and unpacks one tuple.

The target on a segment is the look-ahead-capped point when it is ahead of
the robot; else the point 1/16 of the segment's remainder past the exact cut
where the remainder enters the half-plane ahead; else the end node.

Plan format ('#' starts a comment, whitespace-separated tokens)::

    node <id> <X> <Y> <vl> <vh>
    edge <from> <to> line
    edge <from> <to> arc <curvature>
    start <id>             # exactly once
    terminal <id>          # optional, repeatable

Arcs are minor arcs (subtended angle <= 180 degrees) between their
endpoints; positive curvature turns left.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from waynet.core import Params, RelWaypoint, WorldPose
from waynet.dynamics import to_relative

CO_CIRCULAR_RTOL = 1e-6
_TWO_PI, _HALF_PI = 2.0 * math.pi, math.pi / 2.0


class PlanError(ValueError):
    """Invalid plan document or graph."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DeadEnd(Exception):
    """Reached a node with no successors; completed iff it is a terminal."""

    def __init__(self, node: str, completed: bool):
        super().__init__(f"dead end at node {node!r} ({'terminal' if completed else 'stuck'})")
        self.node = node
        self.completed = completed


@dataclass(frozen=True)
class Node:
    id: str
    x: float
    y: float
    vl: float
    vh: float


@dataclass(frozen=True)
class Edge:
    frm: str
    to: str
    kind: str        # "line" | "arc"
    k: float = 0.0   # signed curvature, arcs only


@dataclass(frozen=True)
class PlanGraph:
    """A plan, checked and compiled once on construction: ``segments[i]``
    is ``edges[i]``'s geometry, and a table holds each node's successors."""

    nodes: dict[str, Node]
    edges: tuple[Edge, ...]
    start: str
    terminals: frozenset[str]
    segments: tuple[Segment, ...] = field(init=False, repr=False, compare=False)
    _successors: dict[str, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.start not in self.nodes:
            raise PlanError(f"unknown start node {self.start!r}")
        for t in self.terminals:
            if t not in self.nodes:
                raise PlanError(f"unknown terminal node {t!r}")
        for n in self.nodes.values():
            if not all(math.isfinite(c) for c in (n.x, n.y, n.vl, n.vh)):
                raise PlanError(f"node {n.id!r}: non-finite number")
            if not n.vh - n.vl > 0.0:
                raise PlanError(f"node {n.id!r}: non-positive speed interval width")
            if n.vl < 0.0:
                raise PlanError(f"node {n.id!r}: negative lower speed limit")
        segments = []
        successors: dict[str, list[int]] = {}
        for i, e in enumerate(self.edges):
            for ref in (e.frm, e.to):
                if ref not in self.nodes:
                    raise PlanError(f"edge references unknown node {ref!r}")
            name = f"{e.frm!r}->{e.to!r}"
            if e.frm == e.to:
                raise PlanError(f"edge {name} loops back to its own node")
            if not math.isfinite(e.k):
                raise PlanError(f"edge {name}: non-finite curvature")
            a, b = self.nodes[e.frm], self.nodes[e.to]
            ux, uy = b.x - a.x, b.y - a.y
            chord, chord2 = math.hypot(ux, uy), ux * ux + uy * uy
            if not chord2 < math.inf:
                raise PlanError(f"edge {name}: its squared length overflows floats "
                                f"(the nodes are {chord:g} m apart)")
            line = arc = None
            if e.kind == "arc":
                if e.k == 0.0:
                    raise PlanError(f"arc edge {name} has zero curvature")
                radius = 1.0 / abs(e.k)
                if chord == 0.0:
                    raise PlanError(f"arc edge {name}: endpoints coincide")
                if chord > 2.0 * radius * (1.0 + CO_CIRCULAR_RTOL):
                    raise PlanError(f"arc edge {name}: endpoints {chord:g} m apart do not "
                                    f"fit on a circle of radius {radius:g} m")
                geom = arc_geometry(a.x, a.y, b.x, b.y, e.k)
                # The computed arc must end on its nodes; a NaN distance fails too.
                if not all(math.dist(arc_point(geom, f), (n.x, n.y)) <= CO_CIRCULAR_RTOL * chord
                           for f, n in ((0.0, a), (1.0, b))):
                    raise PlanError(f"arc edge {name}: curvature {e.k:g} is too "
                                    f"small for floats to hold its circle; use a line")
                arc = (geom.cx, geom.cy, geom.radius, geom.theta0, geom.sweep, abs(geom.sweep),
                       b.vl, b.vh)
            elif e.kind != "line":
                raise PlanError(f"edge {name}: unknown kind {e.kind!r}")
            elif e.frm == self.start and chord == 0.0:
                raise PlanError(f"start edge {name}: a line of zero length gives no start heading")
            else:
                line = (a.x, a.y, ux, uy, chord, chord2, b.vl, b.vh)
            segments.append(Segment(a, b, e.k if arc is not None else 0.0, line, arc))
            successors.setdefault(e.frm, []).append(i)
        if self.start not in successors:
            raise PlanError(f"start node {self.start!r} has no outgoing edges")
        object.__setattr__(self, "segments", tuple(segments))
        object.__setattr__(self, "_successors",
                           {n: tuple(ids) for n, ids in successors.items()})

    def successors(self, node_id: str) -> tuple[int, ...]:
        return self._successors.get(node_id, ())


def parse_plan(text: str) -> PlanGraph:
    nodes: dict[str, Node] = {}
    edges: list[Edge] = []
    start: str | None = None
    terminals: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kw = tokens[0]
        try:
            if kw == "node":
                if len(tokens) != 6:
                    raise PlanError("node takes: id X Y vl vh", lineno)
                _, nid, xs, ys, vls, vhs = tokens
                if nid in nodes:
                    raise PlanError(f"duplicate node {nid!r}", lineno)
                nodes[nid] = Node(nid, float(xs), float(ys), float(vls), float(vhs))
            elif kw == "edge":
                if len(tokens) == 4 and tokens[3] == "line":
                    edges.append(Edge(tokens[1], tokens[2], "line"))
                elif len(tokens) == 5 and tokens[3] == "arc":
                    edges.append(Edge(tokens[1], tokens[2], "arc", float(tokens[4])))
                else:
                    raise PlanError("edge takes: from to line | from to arc <curvature>", lineno)
            elif kw == "start":
                if len(tokens) != 2:
                    raise PlanError("start takes: id", lineno)
                if start is not None:
                    raise PlanError(f"duplicate start directive (start is {start!r})", lineno)
                start = tokens[1]
            elif kw == "terminal":
                if len(tokens) != 2:
                    raise PlanError("terminal takes: id", lineno)
                terminals.add(tokens[1])
            else:
                raise PlanError(f"unknown keyword {kw!r}", lineno)
        except ValueError as exc:
            if isinstance(exc, PlanError):
                raise
            raise PlanError(f"bad number: {exc}", lineno) from None

    if start is None:
        raise PlanError("missing start directive")
    return PlanGraph(nodes=nodes, edges=tuple(edges), start=start,
                     terminals=frozenset(terminals))


def serialize(graph: PlanGraph) -> str:
    lines = []
    for n in graph.nodes.values():
        lines.append(f"node {n.id} {n.x!r} {n.y!r} {n.vl!r} {n.vh!r}")
    for e in graph.edges:
        if e.kind == "line":
            lines.append(f"edge {e.frm} {e.to} line")
        else:
            lines.append(f"edge {e.frm} {e.to} arc {e.k!r}")
    lines.append(f"start {graph.start}")
    for t in sorted(graph.terminals):
        lines.append(f"terminal {t}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Arc geometry


@dataclass(frozen=True)
class ArcGeometry:
    cx: float
    cy: float
    radius: float
    theta0: float   # angle of the start point around the center
    sweep: float    # signed subtended angle; positive = counterclockwise


def arc_geometry(x0: float, y0: float, x1: float, y1: float, k: float) -> ArcGeometry:
    """Minor arc from (x0,y0) to (x1,y1) with signed curvature k (left positive)."""
    radius = 1.0 / abs(k)
    ux, uy = x1 - x0, y1 - y0
    chord = math.hypot(ux, uy)
    if chord == 0.0:
        raise PlanError("arc endpoints coincide")
    half = min(1.0, chord / (2.0 * radius))
    h = radius * math.sqrt(max(0.0, 1.0 - half * half))
    ux, uy = ux / chord, uy / chord
    # Center sits left of the chord for left turns, right for right turns.
    side = 1.0 if k > 0.0 else -1.0
    cx = (x0 + x1) / 2.0 + side * h * -uy
    cy = (y0 + y1) / 2.0 + side * h * ux
    theta0 = math.atan2(y0 - cy, x0 - cx)
    sweep = side * 2.0 * math.asin(half)
    return ArcGeometry(cx, cy, radius, theta0, sweep)


def arc_point(geom: ArcGeometry, frac: float):
    """Point at fraction frac in [0, 1] along the arc."""
    theta = geom.theta0 + frac * geom.sweep
    return (geom.cx + geom.radius * math.cos(theta),
            geom.cy + geom.radius * math.sin(theta))


def arc_heading(geom: ArcGeometry, frac: float) -> float:
    """Tangent heading (direction of travel) at fraction frac along the arc."""
    theta = geom.theta0 + frac * geom.sweep
    return theta + math.copysign(math.pi / 2.0, geom.sweep)


@dataclass(frozen=True)
class Segment:
    """One compiled plan edge: its end nodes, its signed curvature (0 for
    lines) and the record of its kind that target extraction unpacks each
    cycle; the other kind's record is None.

    - ``line``: ``(ax, ay, ux, uy, chord, chord2, vl, vh)``, the start point
      a, the direction b - a, its length and squared length;
    - ``arc``: ``(cx, cy, radius, theta0, sweep, |sweep|, vl, vh)``, the
      arc's ``ArcGeometry`` fields and the magnitude of its sweep;

    both ending with the end node b's speed limits.
    """

    a: Node
    b: Node
    k: float
    line: tuple | None
    arc: tuple | None

    @property
    def geom(self) -> ArcGeometry | None:
        """The arc's geometry, from its record; None for a line."""
        return None if self.arc is None else ArcGeometry(*self.arc[:5])

    def point(self, frac: float):
        """World point at fraction frac in [0, 1] along the segment."""
        if self.arc is None:
            ax, ay, ux, uy = self.line[:4]
            return (ax + frac * ux, ay + frac * uy)
        return arc_point(self.geom, frac)


# ---------------------------------------------------------------------------
# Active target extraction


def curvature_through(x: float, y: float, eps: float) -> float:
    """Curvature whose arc through the body-frame point (x, y) zeroes the
    annulus residual: k* = 2 y / (x^2 + y^2 - eps^2). Requires the point
    outside the goal region."""
    d2 = x * x + y * y
    if not d2 > eps * eps:
        raise ValueError(f"curvature_through requires the point outside the goal "
                         f"region (got distance {math.sqrt(d2):g} <= eps={eps:g})")
    return 2.0 * y / (d2 - eps * eps)


@dataclass(slots=True)
class ActiveTarget:
    edge_index: int
    target_world: tuple[float, float]
    frac: float                 # position of the target along the segment; 1 = end node
    waypoint: RelWaypoint       # body-frame view, recomputed every cycle


def deterministic_first(node_id: str, choices: tuple[int, ...]) -> int:
    return choices[0]


def seeded_random(seed: int):
    rng = random.Random(seed)

    def policy(node_id: str, choices: tuple[int, ...]) -> int:
        return rng.choice(choices)

    return policy


def initial_state(graph: PlanGraph, p: Params, branch_policy=deterministic_first):
    """Pose at the start node heading along the starting edge (chosen by the
    branch policy), the start speed (the edge's lower limit, so the robot
    starts inside it) and the first active target. Returns
    (WorldPose, v, ActiveTarget)."""
    edge_index = branch_policy(graph.start, graph.successors(graph.start))
    seg = graph.segments[edge_index]
    a, b = seg.a, seg.b
    heading = math.atan2(b.y - a.y, b.x - a.x) if seg.arc is None else arc_heading(seg.geom, 0.0)
    pose = WorldPose(a.x, a.y, heading)
    v = b.vl
    return pose, v, target_for_edge(graph, edge_index, pose, _lookahead(v, None, p))


def _lookahead(v: float, target: ActiveTarget | None, p: Params) -> float:
    """Path distance to the active target: a handful of goal radii, at least
    1.5 cycles of travel, and enough room for the invariant's speed-gap
    distance terms (brake down to the upper limit, or accelerate back up to
    the lower one) with a factor-2 margin. ``b if b > a else a`` is
    ``max(a, b)``, NaN and signed zeros included, without the call."""
    L, travel = 6.0 * p.tol, 1.5 * v * p.cycle_max + p.tol
    L = travel if travel > L else L
    if target is not None:
        wp = target.waypoint
        if v > wp.vh:
            brake = (v * v - wp.vh * wp.vh) / p.brake_max + 2.0 * p.tol
            L = brake if brake > L else L
        if v < wp.vl:
            accel = (wp.vl * wp.vl - v * v) / p.accel_max + 2.0 * p.tol
            L = accel if accel > L else L
    return L


def target_for_edge(graph: PlanGraph, edge_index: int, pose: WorldPose,
                    lookahead: float) -> ActiveTarget:
    """Body-frame active target on the remainder [here, 1] of a segment past
    the robot's projection: the point ``lookahead`` meters of path on
    (``math.inf``: the end node; arcs cap at 90 degrees) when it is ahead
    (body-frame x > 0); else, when part of the remainder is ahead, the point
    a margin of 1/16 of the remainder past the exact cut where the remainder
    enters x > 0, capped at the end node; else the end node."""
    seg = graph.segments[edge_index]
    line = seg.line
    # The robot's projection, clamped to [0, 1] (angular along arcs), and the
    # look-ahead point, in one body over the segment's compiled record: the
    # common path makes no method call, and comparisons stand in for min/max
    # with their results, NaN and -0.0 too.
    if line is not None:
        ax, ay, ux, uy, chord, chord2, vl, vh = line
        if chord2 == 0.0:
            here = 1.0
        else:
            here = ((pose.x - ax) * ux + (pose.y - ay) * uy) / chord2
            here = (here if here < 1.0 else 1.0) if here > 0.0 else 0.0
        frac = here + lookahead / chord if chord > 0.0 else 1.0
        frac = frac if frac < 1.0 else 1.0
        target = (ax + frac * ux, ay + frac * uy)
    else:
        cx, cy, radius, theta0, sweep, span, vl, vh = seg.arc
        here = math.remainder(math.atan2(pose.y - cy, pose.x - cx) - theta0, _TWO_PI) / sweep
        here = 0.0 if here < 0.0 else (here if here < 1.0 else 1.0)
        turn = lookahead / radius
        frac = here + (turn if turn < _HALF_PI else _HALF_PI) / span
        frac = frac if frac < 1.0 else 1.0
        theta = theta0 + frac * sweep
        target = (cx + radius * math.cos(theta), cy + radius * math.sin(theta))
    rel = to_relative(pose, target)
    if rel[0] <= 0.0:
        # The remainder is ahead between the fractions enter and leave.
        c, s = pose.cos, pose.sin
        if line is not None:  # x is linear in the fraction
            dx = c * ux + s * uy
            zero = frac - rel[0] / dx if dx != 0.0 else -math.inf
            enter, leave = (zero, math.inf) if dx > 0.0 else (here, zero)
        else:  # x = r (cos(theta - heading) - ratio) at angle theta on the circle
            ratio = (c * (pose.x - cx) + s * (pose.y - cy)) / radius
            half = math.acos(min(1.0, max(-1.0, ratio)))
            u = math.remainder(math.copysign(1.0, sweep)
                               * (theta0 + here * sweep - pose.heading), _TWO_PI)
            if u >= half:  # past this window: the next is a turn further on
                u -= _TWO_PI
            enter = here + max(0.0, -half - u) / span
            leave = here + (half - u) / span
        cut = min(1.0, enter + (1.0 - here) / 16.0) if enter < leave else 1.0
        if cut != frac:  # else rel already holds
            frac, target = cut, seg.point(cut)
            rel = to_relative(pose, target)
    return ActiveTarget(edge_index, target, frac, RelWaypoint(rel[0], rel[1], seg.k, vl, vh))


def next_target(graph: PlanGraph, current: ActiveTarget, pose: WorldPose, rel,
                v: float, p: Params, branch_policy=deterministic_first,
                reached_hint: bool = False) -> ActiveTarget:
    """Advance or keep the active target and recompute its body-frame view,
    looking ahead by ``_lookahead`` of the speed v.

    ``rel`` is ``current.target_world``'s (x, y) in the body frame of ``pose``;
    the harness has it from the plant monitor's check of the in-force target.
    ``reached_hint`` marks that the vehicle's arc passed through the target's
    goal region between cycle boundaries; an end node just behind the robot
    (within 3 goal radii or one cycle of travel at v) also counts as reached.
    Raises DeadEnd when the segment's end node is reached and is a terminal
    (completed) or has no successors (stuck).
    """
    edge_index = current.edge_index
    rx, ry = rel
    dist = math.hypot(rx, ry)
    reached = reached_hint or dist <= p.tol
    # frac accumulates sub-ulp rounding; treat within 1e-9 of 1 as the end.
    at_end = current.frac >= 1.0 - 1e-9
    if at_end and rx <= 0.0:
        near, travel = 3.0 * p.tol, v * p.cycle_max
        if dist <= (travel if travel > near else near):  # max(near, travel)
            reached = True  # narrowly overshot the end node; advance, not stall
    if reached and at_end:
        node = graph.edges[edge_index].to
        if node in graph.terminals:
            raise DeadEnd(node, True)
        choices = graph.successors(node)
        if not choices:
            raise DeadEnd(node, False)
        edge_index = branch_policy(node, choices)

    return target_for_edge(graph, edge_index, pose, _lookahead(v, current, p))


# ---------------------------------------------------------------------------
# Environment generators


def _rounded_polygon(n_sides: int, straight: float, corner_radius: float,
                     vl: float, vh: float) -> PlanGraph:
    """Closed loop of n straights joined by equal left-turn corner arcs."""
    nodes: dict[str, Node] = {}
    edges: list[Edge] = []
    x, y, heading = 0.0, 0.0, 0.0
    turn = 2.0 * math.pi / n_sides
    k = 1.0 / corner_radius

    def add_node(x, y):
        nid = f"n{len(nodes)}"
        nodes[nid] = Node(nid, x, y, vl, vh)
        return nid

    first = add_node(x, y)
    prev = first
    for i in range(n_sides):
        x += straight * math.cos(heading)
        y += straight * math.sin(heading)
        nid = add_node(x, y)
        edges.append(Edge(prev, nid, "line"))
        prev = nid
        # Left corner arc of sweep `turn`: rotate about the center r to the left.
        cx = x - corner_radius * math.sin(heading)
        cy = y + corner_radius * math.cos(heading)
        heading += turn
        x = cx + corner_radius * math.sin(heading)
        y = cy - corner_radius * math.cos(heading)
        if i == n_sides - 1:
            nid = first
        else:
            nid = add_node(x, y)
        edges.append(Edge(prev, nid, "arc", k))
        prev = nid

    return PlanGraph(nodes=nodes, edges=tuple(edges), start=first,
                     terminals=frozenset({first}))


ENVIRONMENTS = ("rect", "turns", "clover")

_DEFAULT_SPEEDS = {
    "rect": (2.0, 6.0),     # medium turns at medium speed
    "turns": (0.5, 3.0),    # tight turns at low speed
    "clover": (22.0, 35.0), # wide curves at high speed
}
DEFAULT_SCALES = {"rect": 40.0, "turns": 20.0, "clover": 200.0}


def gen_environment(name: str, scale: float | None = None) -> PlanGraph:
    """Built-in closed-loop benchmark course, at its default scale (m) unless
    one is given. The start node doubles as the terminal, so an episode is one
    lap."""
    if name not in ENVIRONMENTS:
        raise PlanError(f"unknown environment {name!r} (choose from {ENVIRONMENTS})")
    if scale is None:
        scale = DEFAULT_SCALES[name]
    if not (scale > 0.0 and math.isfinite(scale)):
        raise PlanError(f"scale must be positive and finite, got {scale!r}")
    vl, vh = _DEFAULT_SPEEDS[name]
    if name == "rect":
        # 4 straights + 4 quarter-arc corners of radius scale/4.
        return _rounded_polygon(4, scale, scale / 4.0, vl, vh)
    if name == "turns":
        # Octagon: short straights alternating with high-curvature corners.
        return _rounded_polygon(8, scale / 3.0, scale / 12.0, vl, vh)
    # clover: 4 long low-curvature lobes joined by short straights.
    return _rounded_polygon(4, scale / 10.0, scale / 2.0, vl, vh)
