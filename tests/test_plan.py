import math

import pytest

from waynet.core import Params, WorldPose
from waynet.dynamics import RelPoint, to_relative
from waynet.plan import (ActiveTarget, DEFAULT_SCALES, DeadEnd, ENVIRONMENTS, PlanError,
                         arc_geometry, arc_heading, arc_point, curvature_through,
                         deterministic_first, gen_environment, initial_state,
                         next_target, parse_plan, seeded_random, serialize,
                         target_for_edge)

P = Params(accel_max=1.0, brake_max=1.0, cycle_max=0.5, tol=0.5)

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
        g = parse_plan("node a 0 0 0 1  # inline\n\nstart a\n")
        assert list(g.nodes) == ["a"]

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


class TestCurvatureThrough:
    def test_straight_ahead_is_zero(self):
        assert curvature_through(RelPoint(5.0, 0.0), eps=1.0) == 0.0

    def test_reference_point(self):
        k = curvature_through(RelPoint(2.5, -3.0), eps=1.0)
        assert k == pytest.approx(-2.0 * 3.0 / (15.25 - 1.0))
        assert k == pytest.approx(-0.42105, abs=1e-5)

    def test_inside_goal_region_rejected(self):
        with pytest.raises(ValueError):
            curvature_through(RelPoint(0.3, 0.3), eps=1.0)


class TestCompiledPlan:
    def test_segments_follow_edges(self):
        g = parse_plan(SIMPLE)
        line, arc = g.segments
        assert (line.a.id, line.b.id, line.k, line.geom) == ("a", "b", 0.0, None)
        assert (arc.a.id, arc.b.id, arc.k) == ("b", "c", 0.5)
        assert arc.geom == arc_geometry(10.0, 0.0, 12.0, 2.0, 0.5)
        assert arc.point(1.0) == pytest.approx((12.0, 2.0), abs=1e-9)

    def test_fraction_clamps_to_segment(self):
        line, arc = parse_plan(SIMPLE).segments
        assert line.fraction(WorldPose(2.5, 3.0, 0.0)) == 0.25
        assert line.fraction(WorldPose(-4.0, 0.0, 0.0)) == 0.0
        assert line.fraction(WorldPose(14.0, 0.0, 0.0)) == 1.0
        assert arc.fraction(WorldPose(*arc.point(0.5), 0.0)) == pytest.approx(0.5)

    def test_successor_table(self):
        g = parse_plan("node a 0 0 0 1\nnode b 5 0 0 1\nnode c 5 5 0 1\nstart a\n"
                       "edge a b line\nedge b c line\nedge a c line\n")
        assert g.successors("a") == (0, 2)
        assert g.successors("b") == (1,)
        assert g.successors("c") == ()

    def test_coincident_arc_endpoints_rejected_at_parse(self):
        with pytest.raises(PlanError, match="endpoints coincide"):
            parse_plan("node a 1 1 0 1\nnode b 1 1 0 1\nstart a\nedge a b arc 0.5\n")


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
        pose, edge_index = initial_state(g)
        assert edge_index == 0
        assert (pose.x, pose.y) == (0.0, 0.0)
        assert pose.heading == pytest.approx(0.0)

    def test_target_is_end_node_without_lookahead(self):
        g = parse_plan(SIMPLE)
        pose, ei = initial_state(g)
        t = target_for_edge(g, ei, pose, P)
        assert t.frac == 1.0
        assert t.target_world == pytest.approx((10.0, 0.0))
        assert t.waypoint.x == pytest.approx(10.0)
        assert (t.waypoint.vl, t.waypoint.vh) == (1.0, 2.0)

    def test_lookahead_caps_line_target(self):
        g = parse_plan(SIMPLE)
        pose, ei = initial_state(g)
        t = target_for_edge(g, ei, pose, P, lookahead=4.0)
        assert t.frac == pytest.approx(0.4)
        assert t.target_world == pytest.approx((4.0, 0.0))

    def test_lookahead_caps_arc_sweep(self):
        g = parse_plan(SIMPLE)
        pose = WorldPose(10.0, 0.0, 0.0)
        t = target_for_edge(g, 1, pose, P, lookahead=1.0)
        geom = arc_geometry(10.0, 0.0, 12.0, 2.0, 0.5)
        # 1 m of lookahead on a radius-2 arc is 0.5 rad of sweep
        assert t.frac == pytest.approx(0.5 / abs(geom.sweep))

    def test_synthetic_target_stays_ahead(self):
        # Robot turned well off the segment: the scan must find a sample ahead.
        g = parse_plan(SIMPLE)
        pose = WorldPose(5.0, 0.5, -2.0 * math.pi / 3.0)
        assert to_relative(pose, (10.0, 0.0)).x < 0.0  # end node is behind
        t = target_for_edge(g, 0, pose, P)
        rel = to_relative(pose, t.target_world)
        assert rel.x > 0.0
        assert t.frac < 1.0

    def test_fully_turned_around_falls_back_to_end_node(self):
        # Nothing on the segment is ahead; the end node is the documented fallback.
        g = parse_plan(SIMPLE)
        pose = WorldPose(5.0, 0.5, math.pi)
        t = target_for_edge(g, 0, pose, P)
        assert t.target_world == pytest.approx((10.0, 0.0))

    def test_advance_within_tolerance(self):
        g = parse_plan(SIMPLE)
        pose, ei = initial_state(g)
        current = target_for_edge(g, ei, pose, P)
        near_b = WorldPose(9.8, 0.0, 0.0)
        nxt = next_target(g, current, near_b, to_relative(near_b, current.target_world), P)
        assert nxt.advanced
        assert nxt.edge_index == 1

    def test_no_advance_when_far(self):
        g = parse_plan(SIMPLE)
        pose, ei = initial_state(g)
        current = target_for_edge(g, ei, pose, P)
        pose = WorldPose(3.0, 0.0, 0.0)
        nxt = next_target(g, current, pose, to_relative(pose, current.target_world), P)
        assert not nxt.advanced
        assert nxt.edge_index == 0

    def test_overshoot_advances(self):
        g = parse_plan(SIMPLE)
        current = target_for_edge(g, 0, WorldPose(9.0, 0.0, 0.0), P)
        # Past the end node, inside the overshoot slop, end node behind us.
        past = WorldPose(11.0, 0.0, 0.0)
        nxt = next_target(g, current, past, to_relative(past, current.target_world), P,
                          overshoot=1.5)
        assert nxt.advanced

    def test_terminal_raises_completed(self):
        g = parse_plan(SIMPLE)
        current = target_for_edge(g, 1, WorldPose(10.0, 0.0, 0.0), P)
        with pytest.raises(DeadEnd) as exc:
            pose = WorldPose(11.9, 1.9, math.pi / 2.0)
            next_target(g, current, pose, to_relative(pose, current.target_world), P,
                        reached_hint=True)
        assert exc.value.completed and exc.value.node == "c"

    def test_dead_end_not_terminal(self):
        g = parse_plan("node a 0 0 0 1\nnode b 5 0 0 1\nstart a\nedge a b line\n")
        current = target_for_edge(g, 0, WorldPose(0.0, 0.0, 0.0), P)
        with pytest.raises(DeadEnd) as exc:
            pose = WorldPose(4.9, 0.0, 0.0)
            next_target(g, current, pose, to_relative(pose, current.target_world), P)
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

    def test_segment_point_on_line(self):
        g = parse_plan(SIMPLE)
        assert g.segments[0].point(0.25) == pytest.approx((2.5, 0.0))

    def test_target_body_frame_matches_world_target(self):
        # The waypoint is the returned world target seen from the pose.
        g = parse_plan(SIMPLE)
        for edge_index, pose in ((0, WorldPose(5.0, 0.5, -2.0 * math.pi / 3.0)),
                                 (1, WorldPose(10.5, 0.2, 0.3))):
            t = target_for_edge(g, edge_index, pose, P, lookahead=1.0)
            rel = to_relative(pose, t.target_world)
            assert (t.waypoint.x, t.waypoint.y) == (rel.x, rel.y)


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
        g.validate()

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

    def test_custom_speeds(self):
        g = gen_environment("rect", 10.0, speed=(1.0, 4.0))
        assert all((n.vl, n.vh) == (1.0, 4.0) for n in g.nodes.values())

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
