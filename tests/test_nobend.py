"""No-bend drawings of good plane 3-graphs, refereed by the oracle.

extrovert_cycles is checked against the simple-cycle search, check_good
against the min-cost flow with no bend allowed, and no_bend_rep on the
rectilinear image of each flow optimum, where bends are degree-2 vertices,
and against check_good on subdivisions with several corner choices.
"""

import random
from collections import Counter
from functools import partial
from itertools import combinations

import networkx as nx
import pytest

from orthobend import cycles, nobend, oracle
from orthobend.cycles import extrovert_cycles
from orthobend.errors import Infeasible, NotBiconnected, NotGood
from orthobend.graph import Graph, PlaneGraph, embed
from orthobend.orthorep import rectilinear_image, subdivide_plane, validate

from corpus import cube, grown, inside_by_flood, nested, prism

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


def chains(count):
    """Each face of the first `count` graphs of SMALL with face 0's first
    edge split 4 times, so that five edges join two faces, and with its
    first two edges split 3 times each, which puts two pairs of faces
    joined by four edges in one dual triangle."""
    out = []
    for g in SMALL[:count]:
        for pg in every_face(g):
            es = pg.faces[0].eids
            out.append(subdivide_plane(pg, {es[0]: 4})[0])
            out.append(subdivide_plane(pg, {es[0]: 3, es[1]: 3})[0])
    return out


FIELDS = ("edges", "legs", "contour_paths", "leg_faces", "leg_vertices",
          "degenerate", "kind")


def cycle_key(field, inside):
    """What the referee compares of a cycle, field(name) reading its
    fields and `inside` its inside faces: each contour path with its leg
    face and leg vertex, so the paths and legs match whichever path comes
    first."""
    edges, legs, paths, faces, ends, degenerate, kind = map(field, FIELDS)
    return (edges, frozenset(legs), inside,
            frozenset(zip(paths, faces, ends)), degenerate, kind)


def oracle_extrovert(pg, k):
    return [r for r in oracle.cycle_records(pg)
            if r["kind"] == "extrovert" and r["k"] == k]


def external_degree_2(pg):
    """The degree-2 vertices on pg's external face, in increasing order:
    the candidates for its corners."""
    return sorted(v for v in nobend._boundary_vertices(pg)
                  if pg.graph.degree(v) == 2)


def image_corners(image):
    """The four external degree-2 vertices of a rectilinear image at
    270."""
    ip = image.plane
    return [ip.dart_head(d) for d in ip.faces[ip.external_face].darts
            if ip.graph.degree(ip.dart_head(d)) == 2
            and image.angles[d] == 270]


@pytest.fixture(scope="module")
def drawn():
    """no_bend_rep on the rectilinear image of a flow optimum at each face
    of SMALL, its corners the image's four external degree-2 vertices at
    270."""
    out = []
    for g in SMALL:
        for pg in every_face(g):
            image = rectilinear_image(oracle.flow_min_bends(pg)[1])[0]
            corners = image_corners(image)
            assert len(corners) == 4
            good = nobend.GoodPlaneGraph(image.plane, corners)
            out.append((good, nobend.no_bend_rep(good)))
    return out


def test_extrovert_cycles_match_the_oracle(drawn):
    """By edges, legs, inside faces, contour paths with their leg faces and
    leg vertices, degeneracy and kind, each cycle once, for k = 2 and 3:
    at every face of SMALL, on a random subdivision of each, on long
    chains at every face of the first few, and on the rectilinear image
    of each flow optimum."""
    cases = [pg for g in SMALL for pg in every_face(g)]
    cases += subdivisions() + chains(4)
    cases += [good.plane for good, _ in drawn]
    assert len(cases) > 300
    seen = {2: 0, 3: 0}
    for pg in cases:
        want = {2: Counter(), 3: Counter()}
        for r in oracle.cycle_records(pg):
            if r["kind"] == "extrovert" and r["k"] in want:
                want[r["k"]][cycle_key(r.__getitem__,
                                       r["inside_faces"])] += 1
        got = {2: Counter(), 3: Counter()}
        for c in extrovert_cycles(pg):
            got[len(c.legs)][cycle_key(partial(getattr, c),
                                       inside_by_flood(pg, c))] += 1
        assert got == want
        for k in (2, 3):
            seen[k] += want[k].total()
    assert min(seen.values()) > 100


def split_prism(edges, times):
    """The prism with the first `edges` edges of its external face split
    `times` times each."""
    pg = embed(prism())
    es = pg.faces[pg.external_face].eids[:edges]
    return subdivide_plane(pg, dict.fromkeys(es, times))[0]


@pytest.mark.parametrize("edges, condition", [(1, "ii"), (2, "iii")])
def test_check_good_walks_at_most_2m_sides_on_long_chains(monkeypatch, edges,
                                                          condition):
    """On the prism with one external edge split 400 times, and with two
    split 400 times each, at most 2m cut sides are listed and at most 2m
    cycles walked. Listing every pair of the edges that join two faces
    lists 80,200 pairs on the first and walks 162,010 cycles."""
    pg = split_prism(edges, 400)
    sides = cycles._dual_sides(pg)
    walked = []
    walk = cycles._cycle_vertices

    def counted(*args):
        walked.append(1)
        return walk(*args)

    monkeypatch.setattr(cycles, "_cycle_vertices", counted)
    assert nobend.check_good(pg).condition == condition
    assert len(sides) <= 2 * pg.m
    assert 0 < len(walked) <= 2 * pg.m


def test_extrovert_cycles_take_two_or_three_legs():
    """The cube has four 3-extrovert cycles and no 2-extrovert one."""
    assert [len(c.legs) for c in extrovert_cycles(embed(cube()))] == [3] * 4


def test_check_good_matches_the_flow_referee(drawn):
    """check_good(sp).ok holds exactly when sp has a representation with
    no bend; a failure under (ii) or (iii) names a k-extrovert cycle of
    the oracle with fewer than 4 - k degree-2 vertices."""
    cases = subdivisions() + [good.plane for good, _ in drawn]
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
    """Each drawing validates, has no bend and keeps 270 at each corner."""
    for good, h in drawn:
        pg = good.plane
        validate(h)
        assert h.total_bends() == 0
        for d in pg.faces[pg.external_face].darts:
            if pg.dart_head(d) in good.corners:
                assert h.angles[d] == 270


def test_no_bend_rep_draws_exactly_the_good_subdivisions():
    """On each subdivision with at least four external degree-2 vertices,
    for up to six seeded choices of its corners, no_bend_rep draws the
    graph when check_good passes it and raises NotGood otherwise."""
    rng = random.Random(2)
    verdicts = {True: 0, False: 0}
    for sp in subdivisions():
        choices = list(combinations(external_degree_2(sp), 4))
        if not choices:
            continue
        ok = nobend.check_good(sp).ok
        for corners in rng.sample(choices, min(6, len(choices))):
            good = nobend.GoodPlaneGraph(sp, corners)
            if ok:
                h = nobend.no_bend_rep(good)
                validate(h)
                assert h.total_bends() == 0
            else:
                with pytest.raises(NotGood):
                    nobend.no_bend_rep(good)
            verdicts[ok] += 1
    assert min(verdicts.values()) > 20


def count_calls(good):
    """no_bend_rep(good)'s calls to extrovert_cycles and to
    nx.maximum_flow, and the NotGood it raised, if any."""
    listed, flows = [], []
    listing, max_flow = nobend.extrovert_cycles, nx.maximum_flow

    def counted_listing(pg):
        listed.append(1)
        return listing(pg)

    def counted_flow(*args, **kwargs):
        flows.append(1)
        return max_flow(*args, **kwargs)

    raised = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nobend, "extrovert_cycles", counted_listing)
        mp.setattr(nx, "maximum_flow", counted_flow)
        try:
            nobend.no_bend_rep(good)
        except NotGood as exc:
            raised = exc
    return len(listed), len(flows), raised


def test_no_bend_rep_lists_cycles_only_to_name_a_failure():
    """A good graph is drawn by one flow with no cycle listed: on the
    rectilinear image of the flow optimum of nested(1, 200). A subdivision
    that fails (ii) or (iii) lists the 2- and 3-extrovert cycles in one
    call, to name the cycle in NotGood."""
    image = rectilinear_image(
        oracle.flow_min_bends(embed(nested(1, 200)))[1])[0]
    good = nobend.GoodPlaneGraph(image.plane, image_corners(image))
    assert count_calls(good) == (0, 1, None)
    sp = next(sp for sp in subdivisions()
              if nobend.check_good(sp).condition in ("ii", "iii"))
    corners = external_degree_2(sp)[:4]
    listed, _, raised = count_calls(nobend.GoodPlaneGraph(sp, corners))
    assert listed == 1
    assert isinstance(raised, NotGood)


def test_corners_must_be_vertex_ids():
    """Corners that are not a sequence of four distinct external degree-2
    vertex ids are refused with NotGood. A bool is no vertex id, though
    True == 1: on a square, whose four vertices are all corners, True
    would pass as vertex 1."""
    pg = embed(cube())
    for corners in (None, 5, ["a", 1, 2, 3], [0, 1, 2], [0, 1, 2, 3]):
        with pytest.raises(NotGood):
            nobend.GoodPlaneGraph(pg, corners)
    square = embed(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert nobend.GoodPlaneGraph(square, [0, 1, 2, 3]).corners == (0, 1, 2, 3)
    with pytest.raises(NotGood, match="corner True is not a vertex id"):
        nobend.GoodPlaneGraph(square, [0, True, 2, 3])


def test_a_lone_vertex_has_no_extrovert_cycle():
    """A graph with no edge has one face, with an empty walk: it has no
    cut, so no extrovert cycle, and it fails condition (i)."""
    pg = PlaneGraph(Graph(1, []), [[]])
    assert extrovert_cycles(pg) == []
    assert nobend.check_good(pg).condition == "i"


def test_a_bridge_is_rejected_up_front():
    """Two squares joined by a bridge are not biconnected: the cycle
    finder and every nobend entry point raise NotBiconnected, whichever
    square is drawn outside."""
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                  (4, 5), (5, 6), (6, 7), (7, 4), (0, 4)])
    for pg in every_face(g):
        with pytest.raises(NotBiconnected):
            extrovert_cycles(pg)
        with pytest.raises(NotBiconnected):
            nobend.check_good(pg)
        corners = external_degree_2(pg)[:4]
        if len(corners) == 4:
            good = nobend.GoodPlaneGraph(pg, corners)
            with pytest.raises(NotBiconnected):
                nobend.no_bend_rep(good)
