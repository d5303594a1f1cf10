"""Graph core: parsing, embeddings, faces."""

import pytest
from hypothesis import given, settings, strategies as st

from orthobend.errors import (
    DegreeTooHigh,
    Disconnected,
    NotPlanar,
    NotSimple,
    OrthobendError,
    ParseError,
)
from orthobend.graph import (
    Graph,
    PlaneGraph,
    dart_reverse,
    dump_graph,
    embed,
    load_graph,
    load_plane_graph,
    trace_faces,
)

from corpus import cube, grown, k4, prism


CORPUS = grown(11, 12)


def test_validation_rejects_bad_graphs():
    with pytest.raises(NotSimple):
        Graph(2, [(0, 1), (1, 0)])
    with pytest.raises(NotSimple):
        Graph(1, [(0, 0)])
    with pytest.raises(DegreeTooHigh):
        Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    with pytest.raises(Disconnected):
        Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ParseError):
        Graph(2, [(0, 5)])
    with pytest.raises(ParseError):
        Graph(3, [(0, 1), (1, 2)], {0: 9})
    with pytest.raises(ParseError):
        Graph(-1, [])
    # rejected before any per-vertex storage is allocated
    with pytest.raises(Disconnected):
        Graph(10**12, [])


def test_degrees_and_lookup():
    g = prism()
    assert g.is_cubic() and g.degrees() == [3] * 6
    assert g.edge_id(0, 1) == g.edge_id(1, 0)
    with pytest.raises(KeyError):
        g.edge_id(0, 5)


def test_euler_formula_on_embeddings():
    for g in [k4(), prism(), cube()] + CORPUS:
        pg = embed(g)
        assert pg.n - pg.m + len(pg.faces) == 2
        darts = [d for f in pg.faces for d in f.boundary]
        assert len(darts) == 2 * pg.m and len(set(darts)) == 2 * pg.m


def test_bad_rotation_system_fails_euler_check():
    g = k4()
    pg = embed(g)
    rot = [list(r) for r in pg.rotation]
    PlaneGraph(g, rot)
    # swapping a single degree-3 vertex of K4 always leaves the plane
    rot[0] = [rot[0][0], rot[0][2], rot[0][1]]
    with pytest.raises(NotPlanar):
        PlaneGraph(g, rot)


def test_face_structure_of_the_cube():
    pg = embed(cube())
    assert len(pg.faces) == 6
    assert all(len(f.boundary) == 4 for f in pg.faces)
    for e in range(pg.m):
        f1, f2 = pg.faces_of_edge(e)
        assert f1 != f2
        assert pg.other_face(e, f1) == f2
        with pytest.raises(KeyError):
            pg.other_face(e, 99)


def test_external_face_selection_is_stable():
    pg = embed(prism())
    for f in range(len(pg.faces)):
        pg2 = pg.with_external_face(f)
        assert pg2.external_face == f
        assert [x.boundary for x in pg2.faces] == [x.boundary for x in pg.faces]
        assert sum(x.is_external for x in pg2.faces) == 1


def test_dart_bookkeeping():
    pg = embed(k4())
    for e in range(pg.m):
        u, v = pg.edge(e)
        assert pg.dart_tail((e, 0)) == u and pg.dart_head((e, 0)) == v
        assert pg.dart_tail((e, 1)) == v and pg.dart_head((e, 1)) == u
        assert dart_reverse((e, 0)) == (e, 1)
        assert pg.face_of_dart((e, 0)) != pg.face_of_dart((e, 1))


def test_trace_faces_handles_multigraph_skeletons():
    # two vertices, three parallel edges: a theta skeleton
    faces = trace_faces(2, [(0, 1)] * 3, [[0, 1, 2], [2, 1, 0]])
    assert len(faces) == 3
    assert sorted(len(f.boundary) for f in faces) == [2, 2, 2]


def test_load_and_dump_round_trip():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], {1: 2})
    text = dump_graph(g)
    g2 = load_graph(text)
    assert g2.edges == g.edges and g2.flex == g.flex
    assert dump_graph(g2) == text


def test_load_rejects_malformed_input():
    for bad in ["", "2", "2 1\n0 1 7", "2 2\n0 1", "junk", "2 1\n0 1\nwhat: 3"]:
        with pytest.raises(ParseError):
            load_graph(bad)


def test_load_plane_graph_honors_rotation_and_external():
    text = """4 5
0 1
0 2
2 1
0 3
3 1
rotation 0: 0 3 1
rotation 1: 0 2 4
external: 2
"""
    pg = load_plane_graph(text)
    assert pg.external_face == 2
    assert pg.rotation[0] == [0, 3, 1] and pg.rotation[1] == [0, 2, 4]
    with pytest.raises(ParseError):
        load_plane_graph("3 3\n0 1\n1 2\n2 0\nrotation 0: 0 0")
    with pytest.raises(ParseError):
        load_plane_graph(text + "rotation 99: 0 1 2\n")


TOKENS = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(["rotation", "external", ":", "#", "x", "1.5"]))
NUMBERS = st.lists(st.integers(-2, 9).map(str), max_size=4).map(" ".join)
LINES = st.lists(st.one_of(
    st.lists(TOKENS, max_size=5).map(" ".join),
    st.builds("rotation {}: {}".format, st.integers(-2, 99), NUMBERS),
    st.builds("external: {}".format, st.integers(-2, 9)),
), max_size=6)


@st.composite
def graph_texts(draw):
    """A header, edge lines over small ids, then free-form lines."""
    n = draw(st.integers(-1, 7))
    edges = draw(st.lists(st.tuples(st.integers(-1, 7), st.integers(-1, 7),
                                    st.integers(0, 5)), max_size=9))
    m = len(edges) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    lines = [f"{n} {m}"] + [f"{u} {v} {k}" for u, v, k in edges]
    return "\n".join(lines + draw(LINES))


@settings(max_examples=400, deadline=None)
@given(st.one_of(graph_texts(), LINES.map("\n".join)))
def test_any_text_raises_only_package_errors(text):
    try:
        load_plane_graph(text)
    except OrthobendError:
        pass


@settings(max_examples=15, deadline=None)
@given(st.integers(0, len(CORPUS) - 1))
def test_grown_corpus_embeds_and_round_trips(i):
    g = CORPUS[i]
    pg = embed(g)
    assert pg.n - pg.m + len(pg.faces) == 2
    assert load_graph(dump_graph(g)).edges == g.edges
