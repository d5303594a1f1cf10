"""Angle labelings: validation, turns, spirality, substitution.

Hand-built drawings with known geometry adjudicate the combinatorial
machinery; the flow oracle supplies representations for the round-trip
properties.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from orthobend import oracle
from orthobend.errors import (
    H1Violation,
    H2Violation,
    NotAPath,
    NotShapeEquivalent,
    OrthobendError,
    ParseError,
)
from orthobend.graph import Graph, PlaneGraph, embed
from orthobend.orthorep import (
    Component,
    OrthoRep,
    component_sides,
    flip,
    from_json,
    is_valid,
    rectilinear_image,
    smooth,
    spirality,
    subdivide_plane,
    substitute,
    swap_letters,
    to_json,
    turn_number,
    validate,
)

from corpus import grown, prism


def ring(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def ring_plane(n):
    g = ring(n)
    rot = [[(v - 1) % n, v] for v in range(n)]
    return PlaneGraph(g, rot, 0)


def arrival(pg, e, w):
    u, v = pg.edge(e)
    return (e, 0) if v == w else (e, 1)


def rect_rep(n, corners, bends=None, flat=()):
    """A cycle drawn as a rectangle: 90 inside at each corner vertex.

    The face containing dart (0, 0) is internal; `flat` lists corner
    angles overridden to 180 on both sides (for invalid fixtures).
    """
    pg0 = ring_plane(n)
    internal = pg0.face_of_dart((0, 0))
    pg = pg0.with_external_face(1 - internal)
    angles = {}
    for f in pg.faces:
        for d in f.boundary:
            w = pg.dart_head(d)
            if w in flat or w not in corners:
                angles[d] = 180
            else:
                angles[d] = 270 if f.is_external else 90
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
        cls = ("E" if f.is_external
               else "L" if set(f.edge_ids()) == {0, 1, 2} else "R")
        for d in f.boundary:
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
        cls = ("E" if f.is_external
               else "M" if set(f.edge_ids()) == {0, 3, 4} else "B")
        for d in f.boundary:
            angles[d] = table[(pg.dart_head(d), cls)]
    return OrthoRep(pg, angles,
                    {1: "LL", 2: "LL", 3: middle[0], 4: middle[1]})


CORPUS = grown(3, 8)


def oracle_reps():
    out = []
    for g in CORPUS:
        pg = embed(g)
        out.append(oracle.flow_min_bends(pg)[1])
    return out


ORACLE_REPS = oracle_reps()


# ---------------------------------------------------------------------------
# validation


def test_unit_square_validates():
    h = rect_rep(4, {0, 1, 2, 3})
    assert validate(h) and is_valid(h)


def test_rectangle_with_flat_vertices_validates():
    validate(rect_rep(12, {0, 3, 6, 9}))
    validate(rect_rep(12, {2, 5, 8, 11}))


def test_triangle_without_corners_breaks_h2():
    g = ring(3)
    pg = ring_plane(3)
    angles = {d: 180 for f in pg.faces for d in f.boundary}
    with pytest.raises(H2Violation):
        validate(OrthoRep(pg, angles))
    assert not is_valid(OrthoRep(pg, angles))


def test_triangle_with_three_corners_and_a_bend_validates():
    pg0 = ring_plane(3)
    internal = pg0.face_of_dart((0, 0))
    pg = pg0.with_external_face(1 - internal)
    angles = {d: (270 if f.is_external else 90)
              for f in pg.faces for d in f.boundary}
    # dart (2, 0) lies in the internal face, so its L puts the 90 inside
    h = OrthoRep(pg, angles, {2: "L"})
    validate(h)
    assert h.total_bends() == 1 and h.bend_count(2) == 1


def test_flattening_one_corner_side_breaks_h1():
    h = rect_rep(4, {0, 1, 2, 3})
    d = next(d for d, a in h.angles.items() if a == 90)
    h.angles[d] = 180
    with pytest.raises(H1Violation):
        validate(h)


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


# ---------------------------------------------------------------------------
# turn numbers


def test_turn_number_along_rectangle_sides():
    h = rect_rep(12, {0, 3, 6, 9})
    assert turn_number(h, [0, 1, 2, 3]) == 0
    assert turn_number(h, [2, 3, 4]) == 1
    assert turn_number(h, [2, 3, 4, 5, 6, 7]) == 2
    assert turn_number(h, [11, 0, 1]) == 1
    # dart form agrees
    assert turn_number(h, [(2, 0), (3, 0)]) == 1


def test_turn_number_sees_bends():
    h = theta_rep()
    assert turn_number(h, [0, 2, 1]) == 2
    assert turn_number(h, [0, 3, 1]) == 2
    assert turn_number(h, [0, 1]) == 0
    # one left bend on each edge, straight through the pole
    assert turn_number(h, [2, 0, 3]) == 2


def test_turn_number_rejects_non_paths():
    h = rect_rep(4, {0, 1, 2, 3})
    with pytest.raises(NotAPath):
        turn_number(h, [0, 2])
    with pytest.raises(NotAPath):
        turn_number(h, [])
    with pytest.raises(NotAPath):
        turn_number(h, [(0, 0), (2, 0)])


# ---------------------------------------------------------------------------
# spirality


def test_spirality_of_rectangle_subpaths():
    h = rect_rep(12, {0, 3, 6, 9})
    straight = Component({0, 1, 2}, (0, 3))
    ell = Component({2, 3}, (2, 4))
    yu = Component({2, 3, 4, 5, 6}, (2, 7))
    assert spirality(h, straight) == 0
    assert spirality(h, ell) == 1
    assert spirality(h, yu) == 2
    assert spirality(h, Component(set(range(11)), (0, 11))) == 3


def test_spirality_counts_bends():
    h = theta_rep()
    assert spirality(h, Component({1, 2}, (0, 1))) == 2
    assert spirality(h, Component({3, 4}, (0, 1))) == 2
    assert spirality(h, Component({0}, (0, 1))) == 0


def test_spirality_with_both_poles_aliased_on_one_edge():
    # the 4-cycle wraps all the way around the shared outer edge 0
    h = theta_rep()
    assert spirality(h, Component({1, 2, 3, 4}, (0, 1))) == 4


def test_spirality_with_poles_aliased_on_distinct_edges():
    h = theta_rep()
    assert spirality(h, Component({0, 3, 4}, (0, 1))) == 2
    assert spirality(h, Component({0, 1, 2}, (0, 1))) == 2


def test_spirality_agrees_between_alias_paths_in_nested_theta():
    h = theta_nested_rep()
    # both alias stubs sit on the line through edge 0: a straight pass.
    # The two-bend middle path must report the same number (checked inside)
    assert spirality(h, Component({0, 3, 4}, (0, 1))) == 0


# ---------------------------------------------------------------------------
# component sides


def test_component_sides_finds_runs_and_inside():
    h = theta_nested_rep()
    pg = h.plane
    inside, runs = component_sides(pg, Component({1, 2, 3, 4}, (0, 1)))
    between = next(f.id for f in pg.faces
                   if set(f.edge_ids()) == {1, 2, 3, 4})
    assert inside == {between}
    starts = {pg.dart_tail(run[0]) for _, run in runs}
    assert starts == {0, 1}
    for _, run in runs:
        assert {d[0] for d in run} <= {1, 2, 3, 4}


def test_component_sides_rejects_disk_holding_the_boundary():
    h = theta_rep()  # external face is the 4-cycle itself
    with pytest.raises(AssertionError):
        component_sides(h.plane, Component({1, 2, 3, 4}, (0, 1)))


# ---------------------------------------------------------------------------
# substitution


def test_substitute_identity_is_exact():
    h = rect_rep(12, {0, 3, 6, 9})
    out = substitute(h, Component({2, 3}, (2, 4)), h)
    assert out.plane.rotation == h.plane.rotation
    assert out.angles == h.angles and out.bends == h.bends
    assert out.plane.external_face == h.plane.external_face


def test_substitute_path_by_bent_edge():
    # L-shaped two-edge path out, one-bend single edge in
    h = rect_rep(12, {2, 5, 8, 11})
    comp = Component({10, 11}, (10, 0))

    g2 = ring(4)
    pg0 = ring_plane(4)
    internal = pg0.face_of_dart((0, 0))
    pg2 = pg0.with_external_face(1 - internal)
    angles = {}
    for f in pg2.faces:
        for d in f.boundary:
            w = pg2.dart_head(d)
            a = 180 if w == 3 else (270 if f.is_external else 90)
            angles[d] = a
    h2 = OrthoRep(pg2, angles, {3: "L"})
    validate(h2)
    comp2 = Component({3}, (3, 0))

    out = substitute(h, comp, h2, comp2)
    assert out.plane.n == 11 and out.plane.m == 11
    assert out.total_bends() == 1 and len(out.bends[10]) == 1
    assert out.sub_edge_map == {3: 10}
    assert out.sub_vertex_map[3] == 10 and out.sub_vertex_map[0] == 0
    # untouched geometry survives verbatim
    before = turn_number(h, [3, 4, 5, 6])
    assert turn_number(out, [3, 4, 5, 6]) == before
    for w in (4, 5, 6):
        for e in h.plane.rotation[w]:
            assert out.angles[arrival(out.plane, e, w)] \
                == h.angles[arrival(h.plane, e, w)]


def test_substitute_flips_a_mirrored_replacement():
    h = rect_rep(12, {2, 5, 8, 11})
    comp = Component({10, 11}, (10, 0))
    g2 = ring(4)
    pg0 = ring_plane(4)
    internal = pg0.face_of_dart((0, 0))
    pg2 = pg0.with_external_face(1 - internal)
    angles = {}
    for f in pg2.faces:
        for d in f.boundary:
            w = pg2.dart_head(d)
            angles[d] = 180 if w == 3 else (270 if f.is_external else 90)
    h2 = OrthoRep(pg2, angles, {3: "L"})
    comp2 = Component({3}, (3, 0))
    out = substitute(h, comp, h2, comp2)
    out2 = substitute(h, comp, flip(h2), comp2)
    assert out2.bends == out.bends and out2.angles == out.angles


def test_substitute_reshapes_the_middle_path():
    h = theta_nested_rep()
    comp = Component({1, 2, 3, 4}, (0, 1))
    h2 = theta_nested_rep(("LLRL", ""))
    out = substitute(h, comp, h2)
    assert out.bends[3] == "LLRL" and out.bends[4] == ""
    assert out.bends[1] == "LL" and out.total_bends() == 8
    back = substitute(h2, comp, h)
    assert back.bends[3] == "L" and back.total_bends() == 6
    assert turn_number(out, [0, 1]) == turn_number(h, [0, 1]) == 0


def test_substitute_rejects_mismatched_shapes():
    h = theta_rep()
    with pytest.raises(NotShapeEquivalent):
        substitute(h, Component({1, 2}, (0, 1)), h,
                   Component({0}, (0, 1)))
    hn = theta_nested_rep()
    with pytest.raises(NotShapeEquivalent):
        substitute(hn, Component({1, 2, 3, 4}, (0, 1)), h,
                   Component({1, 2}, (0, 1)))


def test_substitute_rejects_mismatched_pole_angles():
    h = theta_nested_rep()
    comp = Component({1, 2, 3, 4}, (0, 1))
    # same boundary turns, but the corner between the two inner edges at
    # pole 0 is flattened and the difference moved onto edge 3
    bad = theta_nested_rep()
    d_in = arrival(bad.plane, 3, 0)
    d_mid = arrival(bad.plane, 0, 0)
    assert bad.angles[d_in] == 90 and bad.angles[d_mid] == 90
    bad.angles[d_in] = 180
    bad.angles[d_mid] = 360  # keep H1; garbage geometry is fine here
    with pytest.raises((NotShapeEquivalent, H2Violation)):
        substitute(h, comp, bad)


# ---------------------------------------------------------------------------
# flips and round trips


def test_flip_swaps_letters_and_preserves_validity():
    h = theta_rep()
    f = flip(h)
    validate(f)
    assert f.bends[1] == "L" and f.bends[3] == "R"
    assert f.total_bends() == h.total_bends()


def test_flip_is_an_involution():
    for h in [theta_rep(), theta_nested_rep(), rect_rep(12, {0, 3, 6, 9})]:
        ff = flip(flip(h))
        assert ff.plane.rotation == h.plane.rotation
        assert ff.angles == h.angles and ff.bends == h.bends


def test_rectilinear_image_and_smooth_round_trip():
    h = theta_rep()
    img, hosts = rectilinear_image(h)
    validate(img)
    assert img.total_bends() == 0
    assert img.plane.n == h.plane.n + 4
    back = smooth(img, h.plane, hosts)
    assert back.angles == h.angles and back.bends == h.bends


def test_smooth_drops_straightened_vertices():
    h = rect_rep(4, {0, 1, 2, 3})
    sub, hosts, segs = subdivide_plane(h.plane, {0: 1})
    angles = {}
    for w in range(4):
        for e in h.plane.rotation[w]:
            ss = segs[e]
            a = ss[-1] if w == h.plane.edge(e)[1] else ss[0]
            angles[arrival(sub, a, w)] = h.angles[arrival(h.plane, e, w)]
    nv = next(iter(hosts))
    for e2 in sub.rotation[nv]:
        angles[arrival(sub, e2, nv)] = 180
    back = smooth(OrthoRep(sub, angles), h.plane, hosts, segs)
    assert back.bends[0] == "" and back.angles == h.angles


def test_json_round_trip():
    h = theta_rep()
    h2 = from_json(to_json(h))
    validate(h2)
    assert to_json(h2) == to_json(h)
    with pytest.raises(ParseError):
        from_json("{\"vertices\": []}")
    # a missing edge, an edge not incident to vertex 0, a vertex beyond n
    for path, value in ((("vertices", 0, "rotation", 0), 99),
                        (("vertices", 0, "rotation", 0), 2),
                        (("edges", 0, "u"), 99)):
        doc = json.loads(to_json(h))
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
    text = to_json(theta_rep())
    doc = json.loads(text)
    for _ in range(data.draw(st.integers(1, 3))):
        paths = [p for p in _json_paths(doc) if p]
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        parent = _container(doc, path)
        if data.draw(st.booleans()):
            parent[path[-1]] = data.draw(st.sampled_from(ODD_VALUES))
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


@settings(max_examples=8, deadline=None)
@given(st.integers(0, len(ORACLE_REPS) - 1))
def test_oracle_reps_survive_flip_and_round_trip(i):
    h = ORACLE_REPS[i]
    validate(h)
    f = flip(h)
    validate(f)
    assert f.total_bends() == h.total_bends()
    img, hosts = rectilinear_image(h)
    validate(img)
    back = smooth(img, h.plane, hosts)
    assert back.angles == h.angles and back.bends == h.bends


def test_substitute_identity_on_oracle_reps():
    """Swapping a single edge for itself is exact on flow witnesses."""
    for h in ORACLE_REPS:
        pg = h.plane
        d = pg.faces[pg.external_face].boundary[0]
        comp = Component({d[0]}, (pg.dart_tail(d), pg.dart_head(d)))
        out = substitute(h, comp, h)
        assert out.angles == h.angles and out.bends == h.bends


def test_substitute_two_edge_stretch_on_subdivided_prism():
    pg0 = embed(prism())
    e = sorted(pg0.external_boundary_edges())[0]
    pg, hosts, segs = subdivide_plane(pg0, {e: 1})
    _, h = oracle.flow_min_bends(pg)
    mid = next(iter(hosts))
    a, b = segs[e]
    poles = tuple(w for s in (a, b) for w in pg.edge(s) if w != mid)
    out = substitute(h, Component({a, b}, poles), h)
    assert out.angles == h.angles and out.bends == h.bends
    # a path through the untouched part of the boundary keeps its turns
    far = [d for d in pg.faces[pg.external_face].boundary
           if d[0] not in (a, b)]
    p = [pg.dart_tail(far[0]), pg.dart_head(far[0]), pg.dart_head(far[1])]
    assert turn_number(out, p) == turn_number(h, p)
