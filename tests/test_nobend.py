"""No-bend drawings of good plane 3-graphs, refereed by the oracle.

extrovert_cycles is checked against the simple-cycle search, check_good
against the min-cost flow with no bend allowed, and no_bend_rep on the
rectilinear image of each flow optimum, where bends are degree-2 vertices.
"""

import random
from collections import Counter
from functools import partial

import pytest

from orthobend import nobend, oracle
from orthobend.cycles import extrovert_cycles
from orthobend.errors import (
    Infeasible, NotBiconnected, NotGood, NotRectangularizable)
from orthobend.graph import Graph, PlaneGraph, embed
from orthobend.orthorep import rectilinear_image, subdivide_plane, validate

from corpus import cube, grown, nested

SMALL = [Graph(g.n, g.edges) for g in grown(7, 20) if g.n <= 16]


def every_face(g):
    pg0 = embed(g)
    return [pg0.with_external_face(f) for f in range(len(pg0.faces))]


def subdivisions():
    """Each face of SMALL with a seeded random subset of its edges split
    once or twice: some good, most of the rest short of degree-2
    vertices on a 2- or 3-extrovert cycle."""
    rng = random.Random(1)
    out = []
    for g in SMALL:
        for pg in every_face(g):
            counts = {e: rng.randint(1, 2) for e in range(pg.m)
                      if rng.random() < 0.6}
            out.append(subdivide_plane(pg, counts)[0])
    return out


FIELDS = ("edges", "legs", "inside_faces", "contour_paths", "leg_faces",
          "leg_vertices", "degenerate")


def cycle_key(field):
    """What the referee compares of a cycle, field(name) reading its
    fields: each contour path with its leg face and leg vertex, so the
    paths and legs match whichever path comes first."""
    edges, legs, inside, paths, faces, ends, degenerate = map(field, FIELDS)
    return (edges, frozenset(legs), inside,
            frozenset(zip(paths, faces, ends)), degenerate)


def extrovert_keys(pg, k):
    return Counter(cycle_key(partial(getattr, c))
                   for c in extrovert_cycles(pg, k))


def oracle_extrovert(pg, k):
    return [r for r in oracle.cycle_records(pg)
            if r["kind"] == "extrovert" and r["k"] == k]


def image_corners(image):
    """The four external degree-2 vertices of a rectilinear image at
    270."""
    ip = image.plane
    return [ip.dart_head(d) for d in ip.faces[ip.external_face].boundary
            if ip.graph.degree(ip.dart_head(d)) == 2
            and image.angles[d] == 270]


@pytest.fixture(scope="module")
def drawn():
    """no_bend_rep on the rectilinear image of a flow optimum at each face
    of SMALL, its corners the image's four external degree-2 vertices at
    270; with every subproblem _draw met, the bad cycles it planned, and
    the number of plans with a side at 270 whose fresh corners are the
    frame's corner on the cycle plus a filler."""
    frames, planned, out = [], [], []
    filled = 0
    maximal_bad, prepare = nobend._maximal_bad, nobend._prepare

    def spy_frames(pg, corners, cycles):
        frames.append(pg)
        return maximal_bad(pg, corners, cycles)

    def spy_plans(pg, corners, bad):
        nonlocal filled
        planned.extend(len(c.legs) for c in bad)
        prep = prepare(pg, corners, bad)
        filled += sum(any(len(s.spares) == 2 and set(s.spares) & set(corners)
                          and s.x + s.y == 270 for s in plan.sides)
                      for plan in prep.plans)
        return prep

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nobend, "_maximal_bad", spy_frames)
        mp.setattr(nobend, "_prepare", spy_plans)
        for g in SMALL:
            for pg in every_face(g):
                image = rectilinear_image(oracle.flow_min_bends(pg)[1])[0]
                corners = image_corners(image)
                assert len(corners) == 4
                good = nobend.GoodPlaneGraph(image.plane, corners)
                out.append((good, nobend.no_bend_rep(good)))
    return out, frames, planned, filled


def test_extrovert_cycles_match_the_oracle(drawn):
    """By edges, legs, inside faces, contour paths with their leg faces and
    leg vertices, and degeneracy, each cycle once, for k = 2 and 3: at
    every face of SMALL, on a random subdivision of each, and on every
    subproblem the drawings recurse into."""
    frames = drawn[1]
    cases = [pg for g in SMALL for pg in every_face(g)]
    cases += subdivisions()
    cases += frames
    assert len(cases) > 300
    seen = {2: 0, 3: 0}
    for pg in cases:
        want = {2: Counter(), 3: Counter()}
        for r in oracle.cycle_records(pg):
            if r["kind"] == "extrovert" and r["k"] in want:
                want[r["k"]][cycle_key(r.__getitem__)] += 1
        for k in (2, 3):
            assert extrovert_keys(pg, k) == want[k]
            seen[k] += want[k].total()
    assert min(seen.values()) > 100


def test_extrovert_cycles_take_two_or_three_legs():
    """Any other k is refused, not read as a triangle."""
    pg = embed(cube())
    for k in (1, 4):
        with pytest.raises(ValueError):
            extrovert_cycles(pg, k)
    assert len(extrovert_cycles(pg, 3)) == 4


def test_check_good_matches_the_flow_referee(drawn):
    """check_good(sp).ok holds exactly when sp has a representation with
    no bend; a failure under (ii) or (iii) names a k-extrovert cycle of
    the oracle with fewer than 4 - k degree-2 vertices."""
    cases = subdivisions() + [good.plane for good, _ in drawn[0]]
    verdicts = {True: 0, False: 0}
    for sp in cases:
        rc = nobend.check_good(sp)
        try:
            oracle.flow_min_bends(sp, cap=0)
            feasible = True
        except Infeasible:
            feasible = False
        assert rc.ok == feasible
        verdicts[rc.ok] += 1
        if rc.condition in ("ii", "iii"):
            k = len(rc.condition)
            witness = [r for r in oracle_extrovert(sp, k)
                       if r["edges"] == frozenset(rc.witness_edges)]
            assert len(witness) == 1
            assert set(rc.witness_vertices) == witness[0]["vertices"]
            assert sum(sp.graph.degree(v) == 2
                       for v in rc.witness_vertices) < 4 - k
    assert min(verdicts.values()) > 20


def test_no_bend_rep_draws_every_flow_optimum(drawn):
    """Each drawing validates, has no bend and keeps 270 at each corner;
    the drawings collapse both bad 2-cycles and bad 3-cycles, and some
    plans put the inherited corner and a filler on a side at 270, whose
    seam order that corner fixes."""
    out, _, planned, filled = drawn
    for good, h in out:
        pg = good.plane
        validate(h)
        assert h.total_bends() == 0
        for d in pg.faces[pg.external_face].boundary:
            if pg.dart_head(d) in good.corners:
                assert h.angles[d] == 270
    assert planned.count(2) > 10 and planned.count(3) > 10
    assert filled > 0


def test_maximal_bad_reads_each_edge_a_bounded_number_of_times(monkeypatch):
    """A bad cycle's region is read off its inside faces, not found by a
    scan of every edge per cycle: on the rectilinear image of the flow
    optimum of nested(1, 200), one _maximal_bad over its many bad cycles
    asks for an edge's faces at most 10 times per edge; a scan per bad
    cycle asks about 100 times."""
    image = rectilinear_image(
        oracle.flow_min_bends(embed(nested(1, 200)))[1])[0]
    ip, corners = image.plane, image_corners(image)
    assert len(nobend._bad_cycles(corners, nobend._extrovert(ip))) > 50
    calls = []
    faces_of_edge = PlaneGraph.faces_of_edge

    def counted(self, e):
        calls.append(e)
        return faces_of_edge(self, e)

    monkeypatch.setattr(PlaneGraph, "faces_of_edge", counted)
    nobend._maximal_bad(ip, corners, nobend._extrovert(ip))
    assert len(calls) <= 10 * ip.m


def test_no_bend_rep_lists_the_cycles_once_per_frame(monkeypatch):
    """extrovert_cycles runs twice (k = 2 and 3) for each frame _draw
    meets, the root's listing serving the conditions too."""
    image = rectilinear_image(
        oracle.flow_min_bends(embed(nested(1, 20)))[1])[0]
    good = nobend.GoodPlaneGraph(image.plane, image_corners(image))
    calls, frames = [], []
    listing, maximal_bad = nobend.extrovert_cycles, nobend._maximal_bad

    def counted(pg, k):
        calls.append(k)
        return listing(pg, k)

    def spy_frames(pg, corners, cycles):
        frames.append(pg)
        return maximal_bad(pg, corners, cycles)

    monkeypatch.setattr(nobend, "extrovert_cycles", counted)
    monkeypatch.setattr(nobend, "_maximal_bad", spy_frames)
    nobend.no_bend_rep(good)
    assert len(frames) > 1
    assert len(calls) == 2 * len(frames)


def test_corners_must_be_vertex_ids():
    """A corner that is not an int is refused with NotGood, as are corners
    that are not four distinct external degree-2 vertices;
    rectangular_drawing refuses a corner that is not a vertex id with
    NotRectangularizable."""
    pg = embed(cube())
    for corners in (["a", 1, 2, 3], [0, 1, 2], [0, 1, 2, 3]):
        with pytest.raises(NotGood):
            nobend.GoodPlaneGraph(pg, corners)
    square = embed(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    for corners in ((0, 1, 2, 99), ("a", 1, 2, 3)):
        with pytest.raises(NotRectangularizable):
            nobend.rectangular_drawing(square, corners)


def test_a_bridge_is_rejected_up_front():
    """Two squares joined by a bridge are not biconnected: the cycle
    finder and every nobend entry point raise NotBiconnected, whichever
    square is drawn outside."""
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                  (4, 5), (5, 6), (6, 7), (7, 4), (0, 4)])
    for pg in every_face(g):
        with pytest.raises(NotBiconnected):
            extrovert_cycles(pg, 2)
        with pytest.raises(NotBiconnected):
            nobend.check_good(pg)
        outer = {pg.dart_head(d) for d in pg.faces[pg.external_face].boundary}
        corners = sorted(v for v in outer if pg.graph.degree(v) == 2)[:4]
        if len(corners) == 4:
            good = nobend.GoodPlaneGraph(pg, corners)
            with pytest.raises(NotBiconnected):
                nobend.no_bend_rep(good)
