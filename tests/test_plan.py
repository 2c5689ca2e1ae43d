import itertools
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

import waynet.plan
from waynet.core import Params, RelWaypoint, WorldPose
from waynet.dynamics import to_relative
from waynet.plan import (ActiveTarget, CO_CIRCULAR_RTOL, DEFAULT_SCALES, DeadEnd, Edge,
                         ENVIRONMENTS, Node, PlanError, PlanGraph, _lookahead, arc_geometry,
                         arc_heading, arc_point, curvature_through, deterministic_first,
                         gen_environment, initial_state, next_target, parse_plan,
                         seeded_random, serialize, target_for_edge)

import plan_ref

P = Params(accel_max=1.0, brake_max=1.0, cycle_max=0.5, tol=0.5)

SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, 0.5, -2.0,
                  5e-324, -5e-324, 1e308, -1e308)
# P, every field subnormal, and fields so large that 3 and 6 goal radii overflow.
SPECIAL_PARAMS = (P, Params(5e-324, 5e-324, 5e-324, 5e-324), Params(1e308, 1e308, 1.0, 1e308))

SIMPLE = """
# straight then a left quarter turn
node a 0 0 1 2
node b 10 0 1 2
node c 12 2 1 2
start a
edge a b line
edge b c arc 0.5
terminal c
"""


class TestParse:
    def test_round_trip(self):
        g = parse_plan(SIMPLE)
        g2 = parse_plan(serialize(g))
        assert g2 == g
        assert g.start == "a"
        assert g.terminals == frozenset({"c"})
        assert g.edges[1].k == 0.5

    def test_comments_and_blank_lines_ignored(self):
        g = parse_plan("node a 0 0 0 1  # inline\n\n# whole line\nnode b 5 0 0 1\n"
                       "edge a b line\nstart a\n")
        assert list(g.nodes) == ["a", "b"]

    def test_unknown_node_reference(self):
        with pytest.raises(PlanError, match="unknown node 'zz'"):
            parse_plan("node a 0 0 0 1\nstart a\nedge a zz line\n")

    def test_arc_chord_exceeds_diameter(self):
        # chord 3 m on a radius-1 circle is impossible
        with pytest.raises(PlanError, match="do not\\s+fit on a circle"):
            parse_plan("node a 0 0 0 1\nnode b 3 0 0 1\nstart a\nedge a b arc 1\n")

    def test_zero_curvature_arc(self):
        with pytest.raises(PlanError, match="zero curvature"):
            parse_plan("node a 0 0 0 1\nnode b 1 0 0 1\nstart a\nedge a b arc 0\n")

    def test_bad_keyword_reports_line(self):
        with pytest.raises(PlanError, match="line 2: unknown keyword 'nodd'"):
            parse_plan("node a 0 0 0 1\nnodd b 1 0 0 1\nstart a\n")

    def test_bad_number_reports_line(self):
        with pytest.raises(PlanError, match="line 1: bad number"):
            parse_plan("node a 0 zero 0 1\nstart a\n")

    def test_missing_start(self):
        with pytest.raises(PlanError, match="missing start"):
            parse_plan("node a 0 0 0 1\n")

    def test_duplicate_node(self):
        with pytest.raises(PlanError, match="duplicate node"):
            parse_plan("node a 0 0 0 1\nnode a 1 0 0 1\nstart a\n")

    def test_empty_speed_interval(self):
        with pytest.raises(PlanError, match="non-positive speed interval"):
            parse_plan("node a 0 0 2 2\nstart a\n")

    def test_negative_lower_limit(self):
        with pytest.raises(PlanError, match="negative lower speed"):
            parse_plan("node a 0 0 -1 2\nstart a\n")


_COORD = st.floats(min_value=-1e4, max_value=1e4)
_SPEED = st.floats(min_value=0.0, max_value=50.0)


@st.composite
def _valid_plans(draw):
    """A chain or a loop of 2-16 nodes with finite coordinates and limits
    0 <= vl < vh, of line edges and minor arcs whose curvature fits their
    chord (at least a 20th of the largest that fits, so floats hold the circle)."""
    n = draw(st.integers(min_value=2, max_value=16))
    loop = draw(st.booleans())
    x, y = draw(_COORD), draw(_COORD)
    nodes = {}
    for i in range(n):
        if i > 0:  # consecutive nodes at least 0.5 m apart
            step = draw(st.floats(min_value=0.5, max_value=100.0))
            angle = draw(st.floats(min_value=-math.pi, max_value=math.pi))
            x, y = x + step * math.cos(angle), y + step * math.sin(angle)
        vl = draw(_SPEED)
        vh = vl + draw(st.floats(min_value=0.01, max_value=50.0))
        nodes[f"n{i}"] = Node(f"n{i}", x, y, vl, vh)
    ids = list(nodes)
    pairs = list(zip(ids, ids[1:])) + ([(ids[-1], ids[0])] if loop else [])
    edges = []
    for frm, to in pairs:
        a, b = nodes[frm], nodes[to]
        chord = math.hypot(b.x - a.x, b.y - a.y)
        if chord > 0.0 and draw(st.booleans()):
            fit = draw(st.floats(min_value=0.05, max_value=1.0))
            edges.append(Edge(frm, to, "arc", draw(st.sampled_from([1.0, -1.0]))
                              * fit * 2.0 / chord))
        else:
            edges.append(Edge(frm, to, "line"))
    terminals = draw(st.frozensets(st.sampled_from(ids)))
    return PlanGraph(nodes=nodes, edges=tuple(edges), start=ids[0], terminals=terminals)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_valid_plans())
def test_serialize_parse_round_trip(graph):
    assert parse_plan(serialize(graph)) == graph


class TestCurvatureThrough:
    def test_straight_ahead_is_zero(self):
        assert curvature_through(5.0, 0.0, eps=1.0) == 0.0

    def test_reference_point(self):
        k = curvature_through(2.5, -3.0, eps=1.0)
        assert k == pytest.approx(-2.0 * 3.0 / (15.25 - 1.0))
        assert k == pytest.approx(-0.42105, abs=1e-5)

    def test_inside_goal_region_rejected(self):
        with pytest.raises(ValueError):
            curvature_through(0.3, 0.3, eps=1.0)


class TestCompiledPlan:
    def test_segments_follow_edges(self):
        g = parse_plan(SIMPLE)
        line, arc = g.segments
        assert (line.a.id, line.b.id, line.k, line.arc, line.geom) == ("a", "b", 0.0, None, None)
        assert line.line == (0.0, 0.0, 10.0, 0.0, 10.0, 100.0, 1.0, 2.0)
        assert (arc.a.id, arc.b.id, arc.k, arc.line) == ("b", "c", 0.5, None)
        assert arc.geom == arc_geometry(10.0, 0.0, 12.0, 2.0, 0.5)
        assert arc.arc[5:] == (abs(arc.geom.sweep), 1.0, 2.0)
        assert arc.point(1.0) == pytest.approx((12.0, 2.0), abs=1e-9)

    def test_fraction_clamps_to_segment(self):
        line, arc = parse_plan(SIMPLE).segments
        assert plan_ref.fraction(line, WorldPose(2.5, 3.0, 0.0)) == 0.25
        assert plan_ref.fraction(line, WorldPose(-4.0, 0.0, 0.0)) == 0.0
        assert plan_ref.fraction(line, WorldPose(14.0, 0.0, 0.0)) == 1.0
        assert plan_ref.fraction(arc, WorldPose(*arc.point(0.5), 0.0)) == pytest.approx(0.5)

    def test_successor_table(self):
        g = parse_plan("node a 0 0 0 1\nnode b 5 0 0 1\nnode c 5 5 0 1\nstart a\n"
                       "edge a b line\nedge b c line\nedge a c line\n")
        assert g.successors("a") == (0, 2)
        assert g.successors("b") == (1,)
        assert g.successors("c") == ()

    def test_start_without_outgoing_edge_rejected_at_parse(self):
        with pytest.raises(PlanError, match="start node 'a' has no outgoing edges"):
            parse_plan("node a 0 0 0 1\nnode b 5 0 0 1\nstart a\nedge b a line\n")

    def test_coincident_arc_endpoints_rejected_at_parse(self):
        with pytest.raises(PlanError, match="endpoints coincide"):
            parse_plan("node a 1 1 0 1\nnode b 1 1 0 1\nstart a\nedge a b arc 0.5\n")

    def test_unknown_edge_kind_rejected_at_construction(self):
        # The plan format cannot spell another kind, so build the graph directly.
        nodes = {n: Node(n, x, 0.0, 0.0, 1.0) for n, x in (("a", 0.0), ("b", 5.0))}
        with pytest.raises(PlanError) as exc:
            PlanGraph(nodes=nodes, edges=(Edge("a", "b", "spline"),), start="a",
                      terminals=frozenset())
        assert str(exc.value) == "edge 'a'->'b': unknown kind 'spline'"

    def test_gentle_arc_still_compiles(self):
        arc, = parse_plan("node a 0 0 1 5\nnode b 20 0 1 5\nstart a\nedge a b arc 1e-6\n").segments
        assert arc.point(1.0) == pytest.approx((20.0, 0.0), abs=1e-9)

    @pytest.mark.parametrize("name", ENVIRONMENTS)
    def test_built_in_arcs_end_on_their_nodes(self, name):
        for seg in gen_environment(name).segments:
            chord = math.dist((seg.a.x, seg.a.y), (seg.b.x, seg.b.y))
            for frac, node in ((0.0, seg.a), (1.0, seg.b)):
                assert math.dist(seg.point(frac), (node.x, node.y)) <= CO_CIRCULAR_RTOL * chord

    @pytest.mark.parametrize("name", ENVIRONMENTS)
    def test_built_in_records_are_derived_from_their_nodes(self, name):
        for seg in gen_environment(name).segments:
            assert _record_bits(seg.line, seg.arc) == _record_bits(*plan_ref.record(seg))


def _record_bits(line, arc):
    return tuple(None if r is None else tuple(c.hex() for c in r) for r in (line, arc))


class TestArcGeometry:
    def test_left_half_circle(self):
        g = arc_geometry(0.0, 0.0, 0.0, 2.0, k=1.0)
        assert (g.cx, g.cy) == pytest.approx((0.0, 1.0), abs=1e-12)
        assert g.radius == 1.0
        assert g.sweep == pytest.approx(math.pi)

    def test_right_turn_center_on_right(self):
        g = arc_geometry(0.0, 0.0, 2.0, 0.0, k=-1.0)
        assert g.cy == pytest.approx(0.0, abs=1e-12)
        assert g.sweep == pytest.approx(-math.pi)

    def test_endpoints_recovered(self):
        g = arc_geometry(1.0, 2.0, 4.0, 3.0, k=0.3)
        assert arc_point(g, 0.0) == pytest.approx((1.0, 2.0), abs=1e-9)
        assert arc_point(g, 1.0) == pytest.approx((4.0, 3.0), abs=1e-9)
        for i in range(9):
            x, y = arc_point(g, i / 8)
            assert math.hypot(x - g.cx, y - g.cy) == pytest.approx(g.radius, abs=1e-9)

    def test_heading_tangent_to_arc(self):
        g = arc_geometry(0.0, 0.0, 0.0, 2.0, k=1.0)
        # Left half-circle from the origin: enter heading +x, exit heading -x.
        assert arc_heading(g, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert arc_heading(g, 0.5) == pytest.approx(math.pi / 2.0)

    def test_coincident_endpoints_rejected(self):
        with pytest.raises(PlanError):
            arc_geometry(1.0, 1.0, 1.0, 1.0, k=0.5)


class TestTargets:
    def test_initial_state_heads_along_first_edge(self):
        g = parse_plan(SIMPLE)
        pose, v, t = initial_state(g, P)
        assert t.edge_index == 0
        assert (pose.x, pose.y) == (0.0, 0.0)
        assert pose.heading == pytest.approx(0.0)
        # Starts at the edge's lower limit, looking 6 goal radii (3 m) ahead.
        assert v == 1.0
        assert t.frac == pytest.approx(0.3)

    def test_target_is_end_node_without_lookahead(self):
        g = parse_plan(SIMPLE)
        pose, _, _ = initial_state(g, P)
        t = target_for_edge(g, 0, pose, math.inf)
        assert t.frac == 1.0
        assert t.target_world == pytest.approx((10.0, 0.0))
        assert t.waypoint.x == pytest.approx(10.0)
        assert (t.waypoint.vl, t.waypoint.vh) == (1.0, 2.0)

    def test_lookahead_caps_line_target(self):
        g = parse_plan(SIMPLE)
        pose, _, _ = initial_state(g, P)
        t = target_for_edge(g, 0, pose, 4.0)
        assert t.frac == pytest.approx(0.4)
        assert t.target_world == pytest.approx((4.0, 0.0))

    def test_lookahead_caps_arc_sweep(self):
        g = parse_plan(SIMPLE)
        pose = WorldPose(10.0, 0.0, 0.0)
        t = target_for_edge(g, 1, pose, 1.0)
        geom = arc_geometry(10.0, 0.0, 12.0, 2.0, 0.5)
        # 1 m of lookahead on a radius-2 arc is 0.5 rad of sweep
        assert t.frac == pytest.approx(0.5 / abs(geom.sweep))

    def test_synthetic_target_stays_ahead(self):
        # Robot turned well off the segment: the scan must find a sample ahead.
        g = parse_plan(SIMPLE)
        pose = WorldPose(5.0, 0.5, -2.0 * math.pi / 3.0)
        assert to_relative(pose, (10.0, 0.0))[0] < 0.0  # end node is behind
        t = target_for_edge(g, 0, pose, math.inf)
        assert to_relative(pose, t.target_world)[0] > 0.0
        assert t.frac < 1.0

    def test_fully_turned_around_falls_back_to_end_node(self):
        # Nothing on the segment is ahead; the end node is the documented fallback.
        g = parse_plan(SIMPLE)
        pose = WorldPose(5.0, 0.5, math.pi)
        t = target_for_edge(g, 0, pose, math.inf)
        assert t.target_world == pytest.approx((10.0, 0.0))

    @pytest.mark.parametrize("edge_index, pose", [
        (0, WorldPose(5.0, 0.5, -2.0 * math.pi / 3.0)),
        (0, WorldPose(5.0, 0.5, math.pi)),
        # midway along the arc, heading against its direction of travel
        (1, WorldPose(10.0 + math.sqrt(2.0), 2.0 - math.sqrt(2.0), -0.75 * math.pi)),
        # turned outward: only a sliver of the arc past the projection is ahead
        (1, WorldPose(10.0 + math.sqrt(2.0), 2.0 - math.sqrt(2.0), 0.25 * math.pi + 2.0)),
    ])
    @pytest.mark.parametrize("lookahead", [1.0, math.inf])
    def test_turned_around_costs_at_most_two_transforms(self, monkeypatch, edge_index,
                                                        pose, lookahead):
        calls = []

        def counting(pose, world_pt):
            calls.append(world_pt)
            return to_relative(pose, world_pt)

        monkeypatch.setattr(waynet.plan, "to_relative", counting)
        g = parse_plan(SIMPLE)
        t = target_for_edge(g, edge_index, pose, lookahead)
        assert 1 <= len(calls) <= 2
        assert calls[-1] == t.target_world

    def test_arc_target_is_one_step_past_the_exact_cut(self):
        # A half circle of radius 10 (center (10, 0)) dipping to (10, -10).
        # The robot faces north-east, so the start of the arc is behind it.
        g = parse_plan("node a 0 0 1 5\nnode b 20 0 1 5\nstart a\nedge a b arc 0.1\n")
        seg = g.segments[0]
        pose = WorldPose(1.0, -2.0, 0.9)
        here = plan_ref.fraction(seg, pose)
        t = target_for_edge(g, 0, pose, 2.0)
        capped = here + 2.0 / 10.0 / math.pi
        assert to_relative(pose, seg.point(capped))[0] <= 0.0
        # Oracle: the first of 100,001 samples of the remainder that is ahead.
        n = 100_000
        enter = next(here + (1.0 - here) * i / n for i in range(n + 1)
                     if to_relative(pose, seg.point(here + (1.0 - here) * i / n))[0] > 0.0)
        assert 0.5 < enter < 1.0 - (1.0 - here) / 16.0
        assert t.frac == pytest.approx(enter + (1.0 - here) / 16.0, abs=(1.0 - here) / n)
        assert to_relative(pose, t.target_world)[0] > 0.0

    @pytest.mark.parametrize("edge_index, pose", [
        (0, WorldPose(5.0, 0.5, math.pi)),
        (1, WorldPose(10.0 + math.sqrt(2.0), 2.0 - math.sqrt(2.0), -0.75 * math.pi)),
    ])
    def test_nothing_ahead_targets_the_end_node_exactly(self, edge_index, pose):
        g = parse_plan(SIMPLE)
        seg = g.segments[edge_index]
        t = target_for_edge(g, edge_index, pose, 1.0)
        assert (t.frac, t.target_world) == (1.0, seg.point(1.0))
        assert t.waypoint.x == to_relative(pose, seg.point(1.0))[0] <= 0.0

    def test_advance_within_tolerance(self):
        g = parse_plan(SIMPLE)
        current = target_for_edge(g, 0, WorldPose(0.0, 0.0, 0.0), math.inf)
        near_b = WorldPose(9.8, 0.0, 0.0)
        nxt = next_target(g, current, near_b, to_relative(near_b, current.target_world),
                          1.5, P)
        assert nxt.edge_index == 1

    def test_no_advance_when_far(self):
        g = parse_plan(SIMPLE)
        current = target_for_edge(g, 0, WorldPose(0.0, 0.0, 0.0), math.inf)
        pose = WorldPose(3.0, 0.0, 0.0)
        nxt = next_target(g, current, pose, to_relative(pose, current.target_world), 1.5, P)
        assert nxt.edge_index == 0

    def test_overshoot_advances(self):
        g = parse_plan(SIMPLE)
        current = target_for_edge(g, 0, WorldPose(9.0, 0.0, 0.0), math.inf)
        # Past the end node, inside the overshoot slop, end node behind us.
        past = WorldPose(11.0, 0.0, 0.0)
        nxt = next_target(g, current, past, to_relative(past, current.target_world), 1.0, P)
        assert nxt.edge_index == 1
        # 2.5 m past: beyond 3 goal radii (1.5 m), so only a speed whose cycle
        # of travel v T reaches 2.5 m advances.
        past = WorldPose(12.5, 0.0, 0.0)
        rel = to_relative(past, current.target_world)
        assert next_target(g, current, past, rel, 1.0, P).edge_index == 0
        assert next_target(g, current, past, rel, 6.0, P).edge_index == 1

    def test_lookahead_covers_the_speed_gap(self):
        # Within the 1-2 m/s limits the look-ahead is 6 goal radii (3 m); at
        # 4 m/s it must cover braking to 2 m/s, (16 - 4) / B + 2 tol = 13 m.
        g = parse_plan(SIMPLE)
        current = target_for_edge(g, 0, WorldPose(0.0, 0.0, 0.0), math.inf)
        pose = WorldPose(2.0, 0.0, 0.0)
        rel = to_relative(pose, current.target_world)
        assert next_target(g, current, pose, rel, 1.5, P).frac == pytest.approx(0.5)
        assert next_target(g, current, pose, rel, 4.0, P).frac == 1.0

    def test_terminal_raises_completed(self):
        g = parse_plan(SIMPLE)
        current = target_for_edge(g, 1, WorldPose(10.0, 0.0, 0.0), math.inf)
        with pytest.raises(DeadEnd) as exc:
            pose = WorldPose(11.9, 1.9, math.pi / 2.0)
            next_target(g, current, pose, to_relative(pose, current.target_world), 1.5, P,
                        reached_hint=True)
        assert exc.value.completed and exc.value.node == "c"

    def test_dead_end_not_terminal(self):
        g = parse_plan("node a 0 0 0 1\nnode b 5 0 0 1\nstart a\nedge a b line\n")
        current = target_for_edge(g, 0, WorldPose(0.0, 0.0, 0.0), math.inf)
        with pytest.raises(DeadEnd) as exc:
            pose = WorldPose(4.9, 0.0, 0.0)
            next_target(g, current, pose, to_relative(pose, current.target_world), 0.5, P)
        assert not exc.value.completed

    def test_branch_policy_determinism(self):
        text = ("node a 0 0 0 1\nnode b 5 0 0 1\nnode c 5 5 0 1\nstart a\n"
                "edge a b line\nedge a c line\n")
        g = parse_plan(text)
        assert deterministic_first("a", g.successors("a")) == 0
        picks1 = [seeded_random(7)("a", [0, 1]) for _ in range(1)]
        policy_a, policy_b = seeded_random(7), seeded_random(7)
        seq_a = [policy_a("a", [0, 1, 2]) for _ in range(20)]
        seq_b = [policy_b("a", [0, 1, 2]) for _ in range(20)]
        assert seq_a == seq_b
        assert picks1[0] in (0, 1)

    def test_lookahead_comparisons_return_what_max_returns(self):
        def max_form(v, target, p):
            L = max(6.0 * p.tol, 1.5 * v * p.cycle_max + p.tol)
            if target is not None:
                wp = target.waypoint
                if v > wp.vh:
                    L = max(L, (v * v - wp.vh * wp.vh) / p.brake_max + 2.0 * p.tol)
                if v < wp.vl:
                    L = max(L, (wp.vl * wp.vl - v * v) / p.accel_max + 2.0 * p.tol)
            return L

        bits = lambda x: struct.pack("<d", x)
        for p, v in itertools.product(SPECIAL_PARAMS, SPECIAL_FLOATS):
            assert bits(_lookahead(v, None, p)) == bits(max_form(v, None, p)), (p, v)
            for vl, vh in itertools.product(SPECIAL_FLOATS, repeat=2):
                t = ActiveTarget(0, (0.0, 0.0), 0.0, RelWaypoint(0.0, 0.0, 0.0, vl, vh))
                assert bits(_lookahead(v, t, p)) == bits(max_form(v, t, p)), (p, v, vl, vh)

    def test_overshoot_slop_is_what_max_returns(self):
        # At the end of edge 0 the target advances iff the end node is reached:
        # within tol, or behind the robot within max(3 tol, v T).
        g = parse_plan(SIMPLE)
        current = ActiveTarget(0, (10.0, 0.0), 1.0, RelWaypoint(0.0, 0.0, 0.0, 1.0, 2.0))
        pose = WorldPose(10.0, 0.0, 0.0)
        for p, v, rx, ry in itertools.product(SPECIAL_PARAMS, SPECIAL_FLOATS, SPECIAL_FLOATS,
                                              (0.0, math.nan)):
            dist = math.hypot(rx, ry)
            reached = dist <= p.tol or (rx <= 0.0 and dist <= max(3.0 * p.tol, v * p.cycle_max))
            assert (next_target(g, current, pose, (rx, ry), v, p).edge_index == 1) == reached, \
                (p, v, rx, ry)

    def test_segment_point_on_line(self):
        g = parse_plan(SIMPLE)
        assert g.segments[0].point(0.25) == pytest.approx((2.5, 0.0))

    def test_target_body_frame_matches_world_target(self):
        # The waypoint is the returned world target seen from the pose.
        g = parse_plan(SIMPLE)
        for edge_index, pose in ((0, WorldPose(5.0, 0.5, -2.0 * math.pi / 3.0)),
                                 (1, WorldPose(10.5, 0.2, 0.3))):
            t = target_for_edge(g, edge_index, pose, 1.0)
            assert (t.waypoint.x, t.waypoint.y) == to_relative(pose, t.target_world)


@st.composite
def _extraction_cases(draw):
    """A plan of one segment a -> b (a line, or a minor arc turning left or
    right) and a line back, and a pose anywhere within 1.5 chords of the
    segment's midpoint at any heading, turned-around ones included."""
    ax, ay = draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0))
    chord = draw(st.floats(0.5, 100.0))
    angle = draw(st.floats(-math.pi, math.pi))
    bx, by = ax + chord * math.cos(angle), ay + chord * math.sin(angle)
    vl = draw(st.floats(0.0, 10.0))
    vh = vl + draw(st.floats(0.5, 10.0))
    nodes = {"a": Node("a", ax, ay, vl, vh), "b": Node("b", bx, by, vl, vh)}
    turn = draw(st.sampled_from([0.0, 1.0, -1.0]))
    edge = (Edge("a", "b", "line") if turn == 0.0 else
            Edge("a", "b", "arc", turn * draw(st.floats(0.05, 1.0)) * 2.0 / chord))
    graph = PlanGraph(nodes=nodes, edges=(edge, Edge("b", "a", "line")), start="a",
                      terminals=frozenset())
    ox, oy = draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5))
    pose = WorldPose((ax + bx) / 2.0 + ox * chord, (ay + by) / 2.0 + oy * chord,
                     draw(st.floats(-math.pi, math.pi)))
    return graph, pose


def _bits(t: ActiveTarget):
    wp = t.waypoint
    return (t.edge_index, t.frac.hex(), tuple(c.hex() for c in t.target_world),
            tuple(c.hex() for c in (wp.x, wp.y, wp.k, wp.vl, wp.vh)))


class TestExtractionOracle:
    """The one-body extraction against its composed form in ``plan_ref``."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_extraction_cases())
    def test_compiled_records_are_derived_from_their_nodes(self, case):
        graph, _ = case
        for seg in graph.segments:
            assert _record_bits(seg.line, seg.arc) == _record_bits(*plan_ref.record(seg))

    @settings(derandomize=True, max_examples=1500, deadline=None)
    @given(_extraction_cases(), st.one_of(st.floats(0.0, 200.0), st.just(math.inf)))
    def test_target_for_edge_matches_the_composed_oracle(self, case, lookahead):
        graph, pose = case
        for edge_index in (0, 1):
            assert (_bits(target_for_edge(graph, edge_index, pose, lookahead))
                    == _bits(plan_ref.target_for_edge(graph, edge_index, pose, lookahead)))

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(_extraction_cases(), st.floats(0.0, 3.0), st.booleans())
    def test_next_target_and_initial_state_match_the_composed_oracle(self, case, speed,
                                                                       hint):
        # Speeds from a standstill to 3 vh: below vl, inside and above vh.
        graph, pose = case
        start, v0, first = initial_state(graph, P)
        assert _bits(first) == _bits(plan_ref.target_for_edge(
            graph, first.edge_index, start, _lookahead(v0, None, P)))
        v = speed * graph.nodes["b"].vh
        for current in (first, plan_ref.target_for_edge(graph, 0, pose, math.inf)):
            rel = to_relative(pose, current.target_world)
            t = next_target(graph, current, pose, rel, v, P, reached_hint=hint)
            assert _bits(t) == _bits(plan_ref.target_for_edge(
                graph, t.edge_index, pose, _lookahead(v, current, P)))


class TestEnvironments:
    def test_names(self):
        assert ENVIRONMENTS == ("rect", "turns", "clover")

    def test_rect_structure(self):
        g = gen_environment("rect", 40.0)
        assert len(g.edges) == 8
        arcs = [e for e in g.edges if e.kind == "arc"]
        assert len(arcs) == 4
        assert all(e.k == pytest.approx(arcs[0].k) for e in arcs)
        assert g.start in g.terminals

    def test_turns_is_tighter_than_rect(self):
        rect = gen_environment("rect", 40.0)
        turns = gen_environment("turns", 40.0)
        kmax = lambda g: max(abs(e.k) for e in g.edges if e.kind == "arc")
        assert kmax(turns) > kmax(rect)

    def test_clover_is_faster_than_rect(self):
        rect = gen_environment("rect", 40.0)
        clover = gen_environment("clover", 40.0)
        vh = lambda g: max(n.vh for n in g.nodes.values())
        assert vh(clover) > vh(rect)

    def test_validation_errors(self):
        with pytest.raises(PlanError):
            gen_environment("moebius", 10.0)
        for scale in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(PlanError, match="scale must be positive and finite"):
                gen_environment("rect", scale)

    def test_default_scale_is_the_courses_own(self):
        for name in ENVIRONMENTS:
            assert gen_environment(name) == gen_environment(name, DEFAULT_SCALES[name])

    def test_loop_closes(self):
        for name in ENVIRONMENTS:
            g = gen_environment(name, 40.0)
            # every node has exactly one incoming and one outgoing edge
            for nid in g.nodes:
                assert len(g.successors(nid)) == 1
            incoming = [e.to for e in g.edges]
            assert sorted(incoming) == sorted(g.nodes)
