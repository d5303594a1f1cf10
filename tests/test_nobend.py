"""No-bend drawings of good plane 3-graphs, refereed by the oracle.

extrovert_cycles is checked against the simple-cycle search, check_good
against the min-cost flow with no bend allowed, and no_bend_rep on the
rectilinear image of each flow optimum, where bends are degree-2 vertices.
"""

import random
from collections import Counter

import pytest

from orthobend import nobend, oracle
from orthobend.cycles import extrovert_cycles
from orthobend.errors import Infeasible, NotBiconnected
from orthobend.graph import Graph, embed
from orthobend.orthorep import rectilinear_image, subdivide_plane, validate

from corpus import grown

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


def extrovert_keys(pg, k):
    return Counter((c.edges, frozenset(c.legs), c.inside_faces)
                   for c in extrovert_cycles(pg, k))


def oracle_extrovert(pg, k):
    return [r for r in oracle.cycle_records(pg)
            if r["kind"] == "extrovert" and r["k"] == k]


@pytest.fixture(scope="module")
def drawn():
    """no_bend_rep on the rectilinear image of a flow optimum at each face
    of SMALL, its corners the image's four external degree-2 vertices at
    270; with every subproblem _draw met and the bad cycles it planned."""
    frames, planned, out = [], [], []
    maximal_bad, prepare = nobend._maximal_bad, nobend._prepare

    def spy_frames(pg, corners):
        frames.append(pg)
        return maximal_bad(pg, corners)

    def spy_plans(pg, corners, bad):
        planned.extend(c.k for c in bad)
        return prepare(pg, corners, bad)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nobend, "_maximal_bad", spy_frames)
        mp.setattr(nobend, "_prepare", spy_plans)
        for g in SMALL:
            for pg in every_face(g):
                image = rectilinear_image(oracle.flow_min_bends(pg)[1])[0]
                ip = image.plane
                corners = [ip.dart_head(d)
                           for d in ip.faces[ip.external_face].boundary
                           if ip.graph.degree(ip.dart_head(d)) == 2
                           and image.angles[d] == 270]
                assert len(corners) == 4
                good = nobend.GoodPlaneGraph(ip, corners)
                out.append((good, nobend.no_bend_rep(good)))
    return out, frames, planned


def test_extrovert_cycles_match_the_oracle(drawn):
    """By edges, legs and inside faces, each cycle once, for k = 2 and 3:
    at every face of SMALL, on a random subdivision of each, and on every
    subproblem the drawings recurse into."""
    _, frames, _ = drawn
    cases = [pg for g in SMALL for pg in every_face(g)]
    cases += subdivisions()
    cases += frames
    assert len(cases) > 300
    seen = {2: 0, 3: 0}
    for pg in cases:
        want = {2: Counter(), 3: Counter()}
        for r in oracle.cycle_records(pg):
            if r["kind"] == "extrovert" and r["k"] in want:
                want[r["k"]][
                    r["edges"], frozenset(r["legs"]), r["inside_faces"]] += 1
        for k in (2, 3):
            assert extrovert_keys(pg, k) == want[k]
            seen[k] += want[k].total()
    assert min(seen.values()) > 100


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
    the drawings collapse both bad 2-cycles and bad 3-cycles."""
    out, _, planned = drawn
    for good, h in out:
        pg = good.plane
        validate(h)
        assert h.total_bends() == 0
        for d in pg.faces[pg.external_face].boundary:
            if pg.dart_head(d) in good.corners:
                assert h.angles[d] == 270
    assert planned.count(2) > 10 and planned.count(3) > 10


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
                nobend.find_maximal_bad_cycles(good)
            with pytest.raises(NotBiconnected):
                nobend.no_bend_rep(good)
