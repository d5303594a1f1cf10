"""Angle labelings: validation, round trips, JSON.

Hand-built drawings with known geometry adjudicate the combinatorial
machinery; the flow oracle supplies representations for the round-trip
properties.
"""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from orthobend import oracle
from orthobend.errors import (
    H1Violation,
    H2Violation,
    OrthobendError,
    ParseError,
)
from orthobend.graph import Graph, PlaneGraph, embed
from orthobend.orthorep import (
    OrthoRep,
    arrival_dart,
    from_json,
    rectilinear_image,
    smooth,
    subdivide_plane,
    to_json,
    validate,
)

from corpus import grown


def ring(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def ring_plane(n):
    g = ring(n)
    rot = [[(v - 1) % n, v] for v in range(n)]
    return PlaneGraph(g, rot, 0)


def rect_rep(n, corners, bends=None, flat=()):
    """A cycle drawn as a rectangle: 90 inside at each corner vertex.

    The face containing dart 0 is internal; `flat` lists corner angles
    overridden to 180 on both sides (for invalid fixtures).
    """
    pg0 = ring_plane(n)
    internal = pg0.dart_face[0]
    pg = pg0.with_external_face(1 - internal)
    angles = {}
    for f in pg.faces:
        for d in f.darts:
            w = pg.dart_head(d)
            if w in flat or w not in corners:
                angles[d] = 180
            else:
                angles[d] = 270 if f.id == pg.external_face else 90
    return OrthoRep(pg, angles, bends or {})


THETA = Graph(4, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 1)])
THETA_ROT = [[0, 3, 1], [0, 2, 4], [1, 2], [3, 4]]


def theta_rep():
    """Edge 0 vertical, paths 0-2-1 and 0-3-1 bulging left and right.

    Two bends per path, the 4-cycle seen from edge 0 is a full wrap.
    """
    pg0 = PlaneGraph(THETA, THETA_ROT, 0)
    ext = next(f.id for f in pg0.faces
               if set(f.edge_ids()) == {1, 2, 3, 4})
    pg = pg0.with_external_face(ext)
    table = {
        (0, "L"): 90, (0, "R"): 90, (0, "E"): 180,
        (1, "L"): 90, (1, "R"): 90, (1, "E"): 180,
        (2, "L"): 180, (2, "E"): 180,
        (3, "R"): 180, (3, "E"): 180,
    }
    angles = {}
    for f in pg.faces:
        cls = ("E" if f.id == pg.external_face
               else "L" if set(f.edge_ids()) == {0, 1, 2} else "R")
        for d in f.darts:
            angles[d] = table[(pg.dart_head(d), cls)]
    return OrthoRep(pg, angles, {1: "R", 2: "R", 3: "L", 4: "L"})


def theta_nested_rep(middle=("L", "L")):
    """Same embedding, edge 0 external, both paths bent around the east
    side: 0-3-1 in the middle, 0-2-1 outermost."""
    pg0 = PlaneGraph(THETA, THETA_ROT, 0)
    ext = next(f.id for f in pg0.faces
               if set(f.edge_ids()) == {0, 1, 2})
    pg = pg0.with_external_face(ext)
    table = {
        (0, "M"): 90, (0, "B"): 90, (0, "E"): 180,
        (1, "M"): 90, (1, "B"): 90, (1, "E"): 180,
        (2, "B"): 180, (2, "E"): 180,
        (3, "M"): 180, (3, "B"): 180,
    }
    angles = {}
    for f in pg.faces:
        cls = ("E" if f.id == pg.external_face
               else "M" if set(f.edge_ids()) == {0, 3, 4} else "B")
        for d in f.darts:
            angles[d] = table[(pg.dart_head(d), cls)]
    return OrthoRep(pg, angles,
                    {1: "LL", 2: "LL", 3: middle[0], 4: middle[1]})


CORPUS = grown(3, 8)


def oracle_reps():
    """One optimal representation at every external face of the corpus."""
    out = []
    for g in CORPUS:
        pg = embed(g)
        for f in range(len(pg.faces)):
            out.append(oracle.flow_min_bends(pg.with_external_face(f))[1])
    return out


ORACLE_REPS = oracle_reps()
FLEX_REP = next(h for h in ORACLE_REPS if h.plane.graph.flex)


# ---------------------------------------------------------------------------
# validation


def test_unit_square_validates():
    h = rect_rep(4, {0, 1, 2, 3})
    assert validate(h)


def test_rectangle_with_flat_vertices_validates():
    validate(rect_rep(12, {0, 3, 6, 9}))
    validate(rect_rep(12, {2, 5, 8, 11}))


def test_triangle_without_corners_breaks_h2():
    g = ring(3)
    pg = ring_plane(3)
    angles = {d: 180 for f in pg.faces for d in f.darts}
    with pytest.raises(H2Violation):
        validate(OrthoRep(pg, angles))


def test_triangle_with_three_corners_and_a_bend_validates():
    pg0 = ring_plane(3)
    internal = pg0.dart_face[0]
    pg = pg0.with_external_face(1 - internal)
    angles = {d: (270 if f.id == pg.external_face else 90)
              for f in pg.faces for d in f.darts}
    # dart 4, edge 2 from u to v, lies in the internal face, so its L puts
    # the 90 inside
    h = OrthoRep(pg, angles, {2: "L"})
    validate(h)
    assert h.total_bends() == 1 and len(h.bends[2]) == 1


def test_flattening_one_corner_side_breaks_h1():
    h = rect_rep(4, {0, 1, 2, 3})
    d = next(d for d, a in h.angles.items() if a == 90)
    h.angles[d] = 180
    with pytest.raises(H1Violation):
        validate(h)
    # a missing corner and a corner that is no angle name their dart
    for bad, says in ((None, "no angle"), ("90", "angle '90'")):
        if bad is None:
            del h.angles[d]
        else:
            h.angles[d] = bad
        with pytest.raises(H1Violation,
                           match=rf"dart {d} \(edge {d >> 1}\) .* has {says},"
                           ) as err:
            validate(h)
        assert (err.value.dart, err.value.angle, err.value.total) \
            == (d, bad, None)


def test_flattening_both_corner_sides_breaks_h2():
    with pytest.raises(H2Violation):
        validate(rect_rep(4, {0, 1, 2, 3}, flat={1}))


def test_theta_fixtures_validate():
    assert theta_rep().total_bends() == 4
    assert theta_nested_rep().total_bends() == 6
    assert theta_nested_rep(("LLRL", "")).total_bends() == 8


def test_cost_counts_only_bends_beyond_flexibility():
    g = Graph(4, THETA.edges, {1: 1, 3: 2})
    pg = PlaneGraph(g, THETA_ROT, 0)
    h0 = theta_rep()
    pg = pg.with_external_face(h0.plane.external_face)
    h = OrthoRep(pg, h0.angles, h0.bends)
    # edges 2 and 4 pay one bend each, 1 and 3 ride their flexibility
    assert h.total_bends() == 4 and h.cost() == 2


def test_bends_on_a_missing_edge_are_refused():
    """Bends keyed by an id that is no edge of the plane graph would count
    in total_bends but not in cost; they are a ParseError."""
    with pytest.raises(ParseError):
        rect_rep(4, {0, 1, 2, 3}, {99: "LR"})


# ---------------------------------------------------------------------------
# round trips


def test_rectilinear_image_and_smooth_round_trip():
    h = theta_rep()
    img, segs = rectilinear_image(h)
    validate(img)
    assert img.total_bends() == 0
    assert img.plane.n == h.plane.n + 4
    back = smooth(img, h.plane, segs)
    assert back.angles == h.angles and back.bends == h.bends


def test_smooth_drops_straightened_vertices():
    h = rect_rep(4, {0, 1, 2, 3})
    sub, hosts, segs = subdivide_plane(h.plane, {0: 1})
    angles = {}
    for w in range(4):
        for e in h.plane.rotation[w]:
            ss = segs[e]
            a = ss[-1] if w == h.plane.edge(e)[1] else ss[0]
            angles[arrival_dart(sub, a, w)] \
                = h.angles[arrival_dart(h.plane, e, w)]
    nv = next(iter(hosts))
    for e2 in sub.rotation[nv]:
        angles[arrival_dart(sub, e2, nv)] = 180
    back = smooth(OrthoRep(sub, angles), h.plane, segs)
    assert back.bends[0] == "" and back.angles == h.angles


def test_json_round_trip():
    h = theta_rep()
    h2 = from_json(to_json(h))
    validate(h2)
    assert to_json(h2) == to_json(h)
    for h in ORACLE_REPS:
        h2 = from_json(to_json(h))
        assert h2.plane.graph.flex == h.plane.graph.flex
        assert h2.cost() == h.cost() and to_json(h2) == to_json(h)
    with pytest.raises(ParseError):
        from_json("{\"vertices\": []}")
    # a missing edge, an edge not incident to vertex 0, a vertex beyond n,
    # flexibilities that are not integers in 0..4, and true, which equals
    # 1, as an edge id in a rotation row, as edge 1's id, as the external
    # face and as vertex 1's id; a negative vertex id
    for path, value in ((("vertices", 0, "rotation", 0), 99),
                        (("vertices", 0, "rotation", 0), 2),
                        (("edges", 0, "u"), 99),
                        (("edges", 0, "flex"), "x"),
                        (("edges", 0, "flex"), 1.5),
                        (("edges", 0, "flex"), 5),
                        (("vertices", 0, "rotation", 2), True),
                        (("edges", 1, "id"), True),
                        (("external_face",), True),
                        (("vertices", 1, "id"), True),
                        (("vertices", 1, "id"), -3)):
        doc = json.loads(to_json(theta_rep()))
        _container(doc, path)[path[-1]] = value
        with pytest.raises(ParseError):
            from_json(json.dumps(doc))


def _container(doc, path):
    for k in path[:-1]:
        doc = doc[k]
    return doc


def _json_paths(obj, prefix=()):
    yield prefix
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for k, v in items:
        yield from _json_paths(v, prefix + (k,))


ODD_VALUES = [-1, 0, 1, 2, 7, 99, 1.5, True, None, "x", "LQ", [], [0], {}]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_json_raises_only_package_errors(data):
    text = to_json(data.draw(st.sampled_from([theta_rep(), FLEX_REP])))
    doc = json.loads(text)
    for _ in range(data.draw(st.integers(1, 3))):
        paths = [p for p in _json_paths(doc) if p]
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        parent = _container(doc, path)
        if data.draw(st.booleans()):
            # a copy: later mutations may reach into the inserted value
            parent[path[-1]] = copy.deepcopy(
                data.draw(st.sampled_from(ODD_VALUES)))
        else:
            del parent[path[-1]]
    text = json.dumps(doc)
    if data.draw(st.booleans()):
        cut = data.draw(st.integers(0, len(text)))
        text = text[:cut] + text[cut + data.draw(st.integers(0, 3)):]
    try:
        validate(from_json(text))
    except OrthobendError:
        pass


# ---------------------------------------------------------------------------
# oracle-made representations


def test_oracle_reps_survive_round_trip():
    for h in ORACLE_REPS:
        # one corner per flat dart 2e + o
        assert sorted(h.angles) == list(range(2 * h.plane.m))
        validate(h)
        img, segs = rectilinear_image(h)
        validate(img)
        back = smooth(img, h.plane, segs)
        assert back.angles == h.angles and back.bends == h.bends

