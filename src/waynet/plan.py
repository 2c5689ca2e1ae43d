"""Mission plans: waypoint graphs of line/arc segments with per-node speed
limits, a line-oriented text format, per-cycle extraction of the active
body-frame waypoint, and the built-in benchmark environments. A
``PlanGraph`` compiles itself once, on construction, into one ``Segment`` per
edge and a successor table; target extraction reads only these.

Plan format ('#' starts a comment, whitespace-separated tokens)::

    node <id> <X> <Y> <vl> <vh>
    edge <from> <to> line
    edge <from> <to> arc <curvature>
    start <id>
    terminal <id>          # optional, repeatable

Arcs are minor arcs (subtended angle <= 180 degrees) between their
endpoints; positive curvature turns left.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from waynet.core import Params, RelWaypoint, WorldPose, euclid_norm
from waynet.dynamics import RelPoint, to_relative

CO_CIRCULAR_RTOL = 1e-6


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
    """A plan, validated and compiled once on construction: ``segments[i]``
    is ``edges[i]``'s geometry, and a table holds each node's successors."""

    nodes: dict[str, Node]
    edges: tuple[Edge, ...]
    start: str
    terminals: frozenset[str]
    segments: tuple[Segment, ...] = field(init=False, repr=False, compare=False)
    _successors: dict[str, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.validate()
        segments = []
        successors: dict[str, list[int]] = {}
        for i, e in enumerate(self.edges):
            a, b = self.nodes[e.frm], self.nodes[e.to]
            geom = arc_geometry(a.x, a.y, b.x, b.y, e.k) if e.kind == "arc" else None
            segments.append(Segment(a, b, e.k if geom is not None else 0.0, geom))
            successors.setdefault(e.frm, []).append(i)
        object.__setattr__(self, "segments", tuple(segments))
        object.__setattr__(self, "_successors",
                           {n: tuple(ids) for n, ids in successors.items()})

    def successors(self, node_id: str) -> tuple[int, ...]:
        return self._successors.get(node_id, ())

    def validate(self) -> None:
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
        for e in self.edges:
            for ref in (e.frm, e.to):
                if ref not in self.nodes:
                    raise PlanError(f"edge references unknown node {ref!r}")
            if not math.isfinite(e.k):
                raise PlanError(f"edge {e.frm!r}->{e.to!r}: non-finite curvature")
            if e.kind == "arc":
                if e.k == 0.0:
                    raise PlanError(f"arc edge {e.frm!r}->{e.to!r} has zero curvature")
                a, b = self.nodes[e.frm], self.nodes[e.to]
                radius = 1.0 / abs(e.k)
                chord = math.hypot(b.x - a.x, b.y - a.y)
                if chord == 0.0:
                    raise PlanError(f"arc edge {e.frm!r}->{e.to!r}: endpoints coincide")
                if chord > 2.0 * radius * (1.0 + CO_CIRCULAR_RTOL):
                    raise PlanError(
                        f"arc edge {e.frm!r}->{e.to!r}: endpoints {chord:g} m apart do not "
                        f"fit on a circle of radius {radius:g} m")
            elif e.kind != "line":
                raise PlanError(f"edge {e.frm!r}->{e.to!r}: unknown kind {e.kind!r}")


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
    lines) and, for arcs, the arc's geometry."""

    a: Node
    b: Node
    k: float
    geom: ArcGeometry | None

    def point(self, frac: float):
        """World point at fraction frac in [0, 1] along the segment."""
        if self.geom is None:
            a, b = self.a, self.b
            return (a.x + frac * (b.x - a.x), a.y + frac * (b.y - a.y))
        return arc_point(self.geom, frac)

    def fraction(self, pose: WorldPose) -> float:
        """Fraction of the robot's projection onto the segment, clamped to
        [0, 1]; angular along arcs."""
        geom = self.geom
        if geom is None:
            a, b = self.a, self.b
            ux, uy = b.x - a.x, b.y - a.y
            L2 = ux * ux + uy * uy
            if L2 == 0.0:
                return 1.0
            t = ((pose.x - a.x) * ux + (pose.y - a.y) * uy) / L2
            return min(1.0, max(0.0, t))
        theta = math.atan2(pose.y - geom.cy, pose.x - geom.cx)
        if geom.sweep == 0.0:
            return 1.0
        delta = theta - geom.theta0
        # Bring the offset into the turn direction's principal range.
        delta = math.remainder(delta, 2.0 * math.pi)
        frac = delta / geom.sweep
        if frac < 0.0:
            return 0.0
        return min(1.0, frac)


# ---------------------------------------------------------------------------
# Active target extraction


def curvature_through(rel: RelPoint, eps: float) -> float:
    """Curvature whose arc through the body-frame point zeroes the annulus
    residual: k* = 2 y / (x^2 + y^2 - eps^2). Requires the point outside the
    goal region."""
    d2 = rel.x * rel.x + rel.y * rel.y
    if not d2 > eps * eps:
        raise ValueError(f"curvature_through requires the point outside the goal "
                         f"region (got distance {math.sqrt(d2):g} <= eps={eps:g})")
    return 2.0 * rel.y / (d2 - eps * eps)


@dataclass(frozen=True)
class ActiveTarget:
    edge_index: int
    target_world: tuple[float, float]
    frac: float                 # position of the target along the segment; 1 = end node
    waypoint: RelWaypoint       # body-frame view, recomputed every cycle
    advanced: bool = False      # progress flag: a node was reached this cycle


def deterministic_first(node_id: str, choices: tuple[int, ...]) -> int:
    return choices[0]


def seeded_random(seed: int):
    rng = random.Random(seed)

    def policy(node_id: str, choices: tuple[int, ...]) -> int:
        return rng.choice(choices)

    return policy


def initial_state(graph: PlanGraph, branch_policy=deterministic_first):
    """Starting edge (chosen by the branch policy) and the pose at the start
    node heading along it. Returns (WorldPose, edge_index)."""
    choices = graph.successors(graph.start)
    if not choices:
        raise PlanError(f"start node {graph.start!r} has no outgoing edges")
    edge_index = branch_policy(graph.start, choices)
    seg = graph.segments[edge_index]
    a, b = seg.a, seg.b
    heading = math.atan2(b.y - a.y, b.x - a.x) if seg.geom is None else arc_heading(seg.geom, 0.0)
    return WorldPose(a.x, a.y, heading), edge_index


def _target_candidate(seg: Segment, pose: WorldPose, lookahead: float | None = None):
    """Pick the target point on a segment: the end node, capped to at most
    ``lookahead`` meters of path ahead of the robot's projection (arcs are
    additionally capped at 90 degrees of remaining sweep), and pushed ahead of
    the robot (x > 0) when it has drifted past. Returns (target, frac, rel)
    with rel the target in the body frame."""
    here = seg.fraction(pose)
    geom = seg.geom
    if geom is not None:
        max_sweep = math.pi / 2.0
        if lookahead is not None:
            max_sweep = min(max_sweep, lookahead / geom.radius)
        frac = min(1.0, here + max_sweep / abs(geom.sweep))
        target = seg.point(frac)
        rel = to_relative(pose, target)
        if rel.x <= 0.0 and frac > here:
            # Drifted past the capped target: re-aim at half the cap ahead.
            frac = min(1.0, here + max_sweep / 2.0 / abs(geom.sweep))
            target = seg.point(frac)
            rel = to_relative(pose, target)
    else:
        length = math.hypot(seg.b.x - seg.a.x, seg.b.y - seg.a.y)
        frac = 1.0
        if lookahead is not None and length > 0.0:
            frac = min(1.0, here + lookahead / length)
        target = seg.point(frac)
        rel = to_relative(pose, target)
    if rel.x <= 0.0:
        # Synthetic target: the first of 16 samples ahead on the segment with
        # x > 0, else the end node.
        for step in range(1, 17):
            frac = here + (1.0 - here) * step / 16.0
            target = seg.point(frac)
            rel = to_relative(pose, target)
            if rel.x > 0.0:
                break
        else:
            frac, target = 1.0, seg.point(1.0)
            rel = to_relative(pose, target)
    return target, frac, rel


def target_for_edge(graph: PlanGraph, edge_index: int, pose: WorldPose,
                    p: Params, advanced: bool = False,
                    lookahead: float | None = None) -> ActiveTarget:
    """Body-frame active target for a segment from the current pose."""
    seg = graph.segments[edge_index]
    target, frac, rel = _target_candidate(seg, pose, lookahead)
    wp = RelWaypoint(rel.x, rel.y, seg.k, seg.b.vl, seg.b.vh)
    return ActiveTarget(edge_index=edge_index, target_world=target, frac=frac,
                        waypoint=wp, advanced=advanced)


def next_target(graph: PlanGraph, current: ActiveTarget, pose: WorldPose,
                rel: RelPoint, p: Params, branch_policy=deterministic_first,
                reached_hint: bool = False,
                lookahead: float | None = None,
                overshoot: float = 0.0) -> ActiveTarget:
    """Advance or keep the active target and recompute its body-frame view.

    ``rel`` is ``current.target_world`` in the body frame of ``pose``; the
    harness has it from the plant monitor's check of the in-force target.
    ``reached_hint`` marks that the vehicle's arc passed through the target's
    goal region between cycle boundaries.
    Raises DeadEnd when the segment's end node is reached and is a terminal
    (completed) or has no successors (stuck).
    """
    edge_index = current.edge_index
    advanced = False
    dist = euclid_norm(rel.x, rel.y)
    reached = reached_hint or dist <= p.tol
    # frac accumulates sub-ulp rounding; treat within 1e-9 of 1 as the end.
    at_end = current.frac >= 1.0 - 1e-9
    slop = max(3.0 * p.tol, overshoot)
    if at_end and rel.x <= 0.0 and dist <= slop:
        reached = True  # narrowly overshot the end node; advance, not stall
    if reached and at_end:
        node = graph.edges[edge_index].to
        if node in graph.terminals:
            raise DeadEnd(node, True)
        choices = graph.successors(node)
        if not choices:
            raise DeadEnd(node, False)
        edge_index = branch_policy(node, choices)
        advanced = True

    return target_for_edge(graph, edge_index, pose, p, advanced, lookahead)


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


def gen_environment(name: str, scale: float | None = None,
                    speed: tuple[float, float] | None = None) -> PlanGraph:
    """Built-in closed-loop benchmark course, at its default scale (m) unless
    one is given. The start node doubles as the terminal, so an episode is one
    lap."""
    if name not in ENVIRONMENTS:
        raise PlanError(f"unknown environment {name!r} (choose from {ENVIRONMENTS})")
    if scale is None:
        scale = DEFAULT_SCALES[name]
    if not (scale > 0.0 and math.isfinite(scale)):
        raise PlanError(f"scale must be positive and finite, got {scale!r}")
    vl, vh = speed if speed is not None else _DEFAULT_SPEEDS[name]
    if name == "rect":
        # 4 straights + 4 quarter-arc corners of radius scale/4.
        return _rounded_polygon(4, scale, scale / 4.0, vl, vh)
    if name == "turns":
        # Octagon: short straights alternating with high-curvature corners.
        return _rounded_polygon(8, scale / 3.0, scale / 12.0, vl, vh)
    # clover: 4 long low-curvature lobes joined by short straights.
    return _rounded_polygon(4, scale / 10.0, scale / 2.0, vl, vh)
