"""Graph core: parsing, embeddings, faces."""

import random

import networkx as nx
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

from corpus import (
    cube,
    grown,
    k4,
    nested,
    nested_blobs,
    prism,
    sibling_fixture,
    theta_fixture,
    truncate,
    truncated_prism,
)


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
    for flex in ({0: 9}, {0: "x"}, {0: 1.5}, {"0": 1}):
        with pytest.raises(ParseError):
            Graph(3, [(0, 1), (1, 2)], flex)
    with pytest.raises(ParseError):
        Graph(-1, [])
    # rejected before any per-vertex storage is allocated
    with pytest.raises(Disconnected):
        Graph(10**12, [])


@pytest.mark.parametrize("args", [
    (2, [(0,)]), (2, [(0, 1, 2)]), (2, [5]), (2, None), (2.0, [(0, 1)]),
    ("2", [(0, 1)]), (2, [(0, 1)], [1]),
], ids=["short-edge", "long-edge", "int-edge", "no-edges", "float-count",
        "text-count", "flex-list"])
def test_malformed_edge_lists_raise_parse_error(args):
    with pytest.raises(ParseError):
        Graph(*args)


def test_degrees_and_lookup():
    g = prism()
    assert g.is_cubic() and [g.degree(v) for v in range(6)] == [3] * 6
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


def plane_state(pg):
    return ([(x.id, x.darts[:], x.tails[:], x.eids[:]) for x in pg.faces],
            pg.external_face, pg.rotation, pg._dart_face, pg._dart_pos,
            pg.face_index)


def test_external_face_selection_is_stable():
    """Moving the external face gives what tracing the faces afresh would,
    and leaves the source graph as it was."""
    for g in [prism()] + CORPUS:
        pg = embed(g)
        before = plane_state(pg)
        for f in range(len(pg.faces)):
            pg2 = pg.with_external_face(f)
            assert pg2.external_face == f
            # the copy shares the face tables built with the embedding
            assert pg2.face_index is pg.face_index
            assert plane_state(pg2) \
                == plane_state(PlaneGraph(g, pg.rotation, f))
            assert plane_state(pg) == before
        with pytest.raises(ParseError):
            pg.with_external_face(len(pg.faces))


@pytest.mark.parametrize("f", [1.0, "1", None])
def test_a_non_integer_external_face_raises_parse_error(f):
    g = prism()
    pg = embed(g)
    with pytest.raises(ParseError):
        PlaneGraph(g, [list(r) for r in pg.rotation], f)
    with pytest.raises(ParseError):
        pg.with_external_face(f)


def test_dart_tables_index_every_dart():
    """_dart_face and _dart_pos place each dart on its face's walk, and
    face_index lists the face across each boundary dart."""
    for g in CORPUS + [nested(1, 400)]:
        pg = embed(g)
        assert len(pg._dart_face) == len(pg._dart_pos) == 2 * pg.m
        for d in range(2 * pg.m):
            assert pg.faces[pg._dart_face[d]].darts[pg._dart_pos[d]] == d
        assert pg.face_index == [[pg._dart_face[d ^ 1] for d in f.darts]
                                 for f in pg.faces]


def test_plane_graph_keeps_the_rotation_rows_it_is_given():
    g = prism()
    rotation = [list(r) for r in embed(g).rotation]
    assert PlaneGraph(g, rotation).rotation is rotation


def test_nested_is_repeated_truncation():
    """corpus.nested, linear, builds the graph that truncating afresh at
    each step builds, edge order and all."""
    for seed in (1, 2):
        for n in (8, 9, 10, 60, 201, 400):
            rng = random.Random(seed)
            want, last = cube(), (0,)
            while want.n < n:
                v = last[rng.randrange(len(last))]
                last = (v, want.n, want.n + 1)
                want = truncate(want, v)
            got = nested(seed, n)
            assert (got.n, got.edges) == (want.n, want.edges)


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


def test_load_rejects_a_negative_edge_count_and_a_repeated_rotation():
    """Neither is read as something else: "3 -1" is not three vertices
    with no edge, and a second rotation line for a vertex does not
    replace the first."""
    with pytest.raises(ParseError):
        load_graph("3 -1")
    square = "4 4\n0 1\n1 2\n2 3\n3 0\nrotation 0: 0 3\n"
    load_plane_graph(square)
    with pytest.raises(ParseError):
        load_plane_graph(square + "rotation 0: 3 0\n")


C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.mark.parametrize("rotation", [
    [[0, 3], [0, 1], [1, 2]],  # a row short
    [[0, 3], [0, 1], [1, 2], [2, 3], []],  # a row too many
    [[3, 0], [0, 1], [1, 2], [2, 0]],  # edge 0 is not at vertex 3
    [[0, 3], [0, 0], [1, 2], [2, 3]],  # a row repeats an edge
    [[0, 3], [0, 1, 1], [1, 2], [2, 3]],  # ... with one entry too many
    [[0, 3], [0, 1], [1, 2], [2, -1]],  # -1 would read the last edge
    [[0, 3], [0, 1.0], [1, 2], [2, 3]],
    [[0, 3], [0, 9], [1, 2], [2, 3]],
    [[0, 3], None, [1, 2], [2, 3]],
])
def test_plane_graph_rejects_a_rotation_that_misses_an_edge_end(rotation):
    """Each row must list its vertex's edges, each once, and nothing
    else, or PlaneGraph raises ParseError instead of tracing faces off
    it."""
    PlaneGraph(C4, [[0, 3], [0, 1], [1, 2], [2, 3]])
    with pytest.raises(ParseError):
        PlaneGraph(C4, rotation)


def test_load_graph_rejects_bad_rotation_lines():
    """load_graph keeps no rotation but still checks the lines."""
    square = "4 4\n0 1\n1 2\n2 3\n3 0\n"
    assert load_graph(square + "rotation 0: 3 0\n").m == 4
    for bad in ("rotation 0: 3 1\n", "rotation 1: 0 0\n",
                "rotation 1: 0 1 2\n", "rotation 2: 1\n", "rotation 2:\n"):
        with pytest.raises(ParseError):
            load_graph(square + bad)


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


# ---------------------------------------------------------------------------
# the embedder against networkx's left-right planarity test


def networkx_rotation(g):
    """networkx's clockwise rotation lists for g, or None if not planar."""
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    ok, emb = nx.check_planarity(G)
    if not ok:
        return None
    return [[g.edge_id(v, w) for w in emb.neighbors_cw_order(v)]
            for v in range(g.n)]


def embeds_like_networkx(g):
    """Assert that embed gives networkx's verdict and rotation lists, and
    that the rotation passes the Euler check; return the verdict."""
    want = networkx_rotation(g)
    if want is None:
        with pytest.raises(NotPlanar):
            embed(g)
        return False
    assert embed(g).rotation == want
    return True


def random_subcubic(rng, n):
    """A connected graph on n vertices of degree at most 3: a random
    spanning tree, so bridges and degree-1 and -2 vertices abound, plus
    random chords."""
    deg = [0] * n
    edges = set()

    def join(u, v):
        edges.add((u, v))
        deg[u] += 1
        deg[v] += 1

    for v in range(1, n):
        join(rng.choice([u for u in range(v) if deg[u] < 3]), v)
    for _ in range(rng.randrange(n + 1)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and deg[u] < 3 and deg[v] < 3 \
                and (u, v) not in edges and (v, u) not in edges:
            join(u, v)
    edges = sorted(edges)
    rng.shuffle(edges)
    labels = list(range(n))
    rng.shuffle(labels)
    return Graph(n, [(labels[u], labels[v]) for u, v in edges])


def random_cubic(rng, n):
    """A random connected simple cubic graph on n vertices: three stubs
    per vertex paired at random, again until the result is a Graph."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        try:
            return Graph(n, list(zip(stubs[::2], stubs[1::2])))
        except (NotSimple, Disconnected):
            continue


def test_embed_is_networkx_left_right_embedding_on_the_corpora():
    fixtures = [k4(), prism(), cube(), sibling_fixture(), truncated_prism(),
                nested_blobs(), theta_fixture(), nested(1, 400)]
    for g in fixtures + CORPUS + grown(3, 20, 6):
        assert embeds_like_networkx(g)


def test_embed_is_networkx_left_right_embedding_on_random_graphs():
    rng = random.Random(16)
    planar = [embeds_like_networkx(random_subcubic(rng, rng.randint(1, 40)))
              for _ in range(300)]
    assert 100 < sum(planar) < 300


def test_embed_rejects_what_networkx_rejects():
    k33 = Graph(6, [(a, b) for a in range(3) for b in range(3, 6)])
    petersen = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                     + [(i, i + 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    assert not embeds_like_networkx(k33)
    assert not embeds_like_networkx(petersen)
    rng = random.Random(16)
    planar = [embeds_like_networkx(random_cubic(rng, 2 * rng.randint(2, 15)))
              for _ in range(100)]
    assert 0 < sum(planar) < 50


def test_embed_is_iterative():
    """A 10 000-vertex ring is one DFS path far deeper than the recursion
    limit."""
    n = 10_000
    assert embeds_like_networkx(Graph(n, [(i, (i + 1) % n) for i in range(n)]))
