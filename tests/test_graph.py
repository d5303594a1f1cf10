"""Graph core: parsing, embeddings, faces."""

import gc
import platform
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from orthobend import graph
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
    plane_text,
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
    ("2", [(0, 1)]), (2, [(0, 1)], [1]), (2, [(True, False)]), (True, []),
    (2, [(0, 1)], {0: True}), (2, [(0, 1)], [(0, 1)]),
], ids=["short-edge", "long-edge", "int-edge", "no-edges", "float-count",
        "text-count", "flex-list", "bool-ends", "bool-count", "bool-flex",
        "flex-pairs"])
def test_malformed_edge_lists_raise_parse_error(args):
    with pytest.raises(ParseError):
        Graph(*args)


def test_degrees_and_lookup():
    g = prism()
    assert g.is_cubic() and [g.degree(v) for v in range(6)] == [3] * 6
    assert g.edge_id(0, 1) == g.edge_id(1, 0)
    with pytest.raises(KeyError):
        g.edge_id(0, 5)


def test_adjacency_rows_list_each_vertex_darts_in_edge_order():
    """adj[v] is the darts 2e + o leaving v, by edge id, and ends is the
    tail table: ends[d] is d's tail and ends[d ^ 1] its head."""
    for g in [k4(), prism()] + CORPUS:
        assert g.ends == [x for e in g.edges for x in e]
        for v in range(g.n):
            want = sorted(2 * e + (u != v) for e, (u, w) in enumerate(g.edges)
                          if v in (u, w))
            assert g.adj[v] == want
        for d in range(2 * g.m):
            u, w = g.edges[d >> 1]
            tail, head = (u, w) if d & 1 == 0 else (w, u)
            assert g.ends[d] == tail and g.ends[d ^ 1] == head


def test_euler_formula_on_embeddings():
    for g in [k4(), prism(), cube()] + CORPUS:
        pg = embed(g)
        assert pg.n - pg.m + len(pg.faces) == 2
        darts = [d for f in pg.faces for d in f.darts]
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
    assert all(len(f) == 4 for f in pg.faces)
    for e in range(pg.m):
        f1, f2 = pg.faces_of_edge(e)
        assert f1 != f2


def plane_state(pg):
    return ([(x.id, x.darts[:], x.tails[:], x.eids[:]) for x in pg.faces],
            pg.external_face, pg.rotation, pg.dart_face, pg.dart_pos,
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


@pytest.mark.parametrize("f", [1.0, "1", None, True])
def test_a_non_integer_external_face_raises_parse_error(f):
    g = prism()
    pg = embed(g)
    with pytest.raises(ParseError):
        PlaneGraph(g, [list(r) for r in pg.rotation], f)
    with pytest.raises(ParseError):
        pg.with_external_face(f)


def test_dart_tables_index_every_dart():
    """dart_face and dart_pos have a slot per dart, and face_index lists
    the face across each boundary dart; test_dart_bookkeeping checks
    what each slot holds."""
    for g in CORPUS + [nested(1, 400)]:
        pg = embed(g)
        assert len(pg.dart_face) == len(pg.dart_pos) == 2 * pg.m
        assert pg.face_index == [[pg.dart_face[d ^ 1] for d in f.darts]
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
    """The dart d = 2e + o at position i of face f's walk: its edge is
    f.eids[i], it runs from f.tails[i] to the next tail, and the dart
    tables put it at (f, i)."""
    for g in [k4()] + CORPUS:
        pg = embed(g)
        for f in pg.faces:
            for i, d in enumerate(f.darts):
                assert d >> 1 == f.eids[i]
                assert pg.dart_tail(d) == f.tails[i]
                assert pg.dart_head(d) == f.tails[(i + 1) % len(f)]
                assert pg.dart_face[d] == f.id and pg.dart_pos[d] == i
        for e in range(pg.m):
            u, v = pg.edge(e)
            assert pg.dart_tail(2 * e) == u and pg.dart_head(2 * e) == v
            assert pg.dart_face[2 * e] != pg.dart_face[2 * e + 1]


def test_trace_faces_handles_multigraph_skeletons():
    # two vertices, three parallel edges: a theta skeleton
    faces = trace_faces(2, [(0, 1)] * 3, [[0, 1, 2], [2, 1, 0]])
    assert len(faces) == 3
    assert sorted(len(f) for f in faces) == [2, 2, 2]


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


@pytest.mark.parametrize("extra", [
    "external: 1\nexternal: 2\n",  # a second external line
    "externalities: 1\n",  # a keyword only as a prefix
    "rotationx 0: 0 3\n",
    "rotation0: 0 3\n",
    "rotation 0 7: 0 3\n",  # a second vertex token
    "external 1: 2\n",
    "rotation: 0 3\n",
    "rotation 0 0 3\n",  # no colon
    "external 1\n",
])
def test_load_rejects_a_line_that_only_looks_like_a_keyword_line(extra):
    """None is read as something else: a second external line does not
    replace the first, a keyword is a whole word and a rotation line names
    one vertex."""
    square = "4 4\n0 1\n1 2\n2 3\n3 0\n"
    load_plane_graph(square + "rotation 0: 0 3\nexternal: 1\n")
    with pytest.raises(ParseError):
        load_plane_graph(square + extra)
    with pytest.raises(ParseError):
        load_graph(square + extra)


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="counts CPython's generation-0 collections")
def test_load_path_allocates_few_tracked_objects():
    """Loading nested(1, 800) without rotation lines, through the
    left-right test, fires at most 10 generation-0 collections at
    CPython's default threshold: adjacency rows, the test and the face
    tracer keep no tuple per edge."""
    text = dump_graph(nested(1, 800))
    fired = []

    def count(phase, info):
        if phase == "start" and info["generation"] == 0:
            fired.append(1)

    gc.collect()
    threshold = gc.get_threshold()
    gc.set_threshold(700, 10, 10)
    gc.callbacks.append(count)
    try:
        load_plane_graph(text)
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*threshold)
    assert len(fired) <= 10


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


# ---------------------------------------------------------------------------
# the kept embedding: a text that only moves the external face reuses it


BASE_PG = embed(CORPUS[3])
BASE = plane_text(BASE_PG, 1)  # its external line is its last line
BASE_LINES = BASE.splitlines(keepends=True)
EDGE_LINE = 1 + BASE_PG.m // 2  # an edge line
ROTATION_LINE = 1 + BASE_PG.m + 2  # vertex 2's rotation line


def outcome(text):
    """load_plane_graph's plane_state of text, or the type it raises."""
    try:
        return plane_state(load_plane_graph(text))
    except OrthobendError as exc:
        return type(exc)


def cold(text):
    """outcome(text) with no embedding kept: the text parsed afresh."""
    graph._last = None
    return outcome(text)


def after_base(text):
    """outcome(text) right after BASE loaded."""
    load_plane_graph(BASE)
    return outcome(text)


def base_with(i, j, new):
    """BASE with its lines i to j replaced by the lines `new`."""
    return "".join(BASE_LINES[:i] + new + BASE_LINES[j:])


def reflexed(i):
    """BASE with another flex on its edge line i."""
    u, v, *k = BASE_LINES[i].split()
    return base_with(i, i + 1, [f"{u} {v} {3 if k == ['2'] else 2}\n"])


def test_a_text_that_moves_only_the_external_face_reuses_the_embedding():
    """After BASE, a text that is BASE but for another external line in
    the same place is not parsed: it gets the kept embedding's faces and
    tables. Any other text is parsed afresh: one with comments or blank
    lines added, its external line moved among the rotation lines, a
    changed edge line or no external line."""
    hits = [plane_text(BASE_PG, f) for f in range(len(BASE_PG.faces))]
    hits += [base_with(-1, len(BASE_LINES), ["external:   +2  \n"]),
             base_with(-1, len(BASE_LINES), ["\t external : 3\n"])]
    misses = [plane_text(BASE_PG), reflexed(1),
              "# a comment\n\n" + BASE.replace("\n", "\n  \n", 3),
              base_with(ROTATION_LINE, len(BASE_LINES), ["external: 4\n"]
                        + BASE_LINES[ROTATION_LINE:-1])]
    for text in hits + misses:
        pg = load_plane_graph(BASE)
        got = load_plane_graph(text)
        assert (got.faces is pg.faces) == (text in hits)
        assert (got.tables is pg.tables) == (text in hits)
        assert plane_state(got) == cold(text)


@pytest.mark.parametrize("text", [pytest.param(t, id=i) for i, t in {
    "second-external": BASE + "external: 2\n",
    "second-external-apart": base_with(-1, len(BASE_LINES), [
        "external: 2\n", "# x\n", "external: 1\n"]),
    "external-among-edges": base_with(EDGE_LINE, len(BASE_LINES), [
        BASE_LINES[-1]] + BASE_LINES[EDGE_LINE:-1]),
    "keyword-prefix": base_with(-1, len(BASE_LINES), ["externalities: 1\n"]),
    "two-tokens": base_with(-1, len(BASE_LINES), ["external 1: 1\n"]),
    "face-out-of-range": base_with(-1, len(BASE_LINES), [
        f"external: {len(BASE_PG.faces)}\n"]),
    "face-negative": base_with(-1, len(BASE_LINES), ["external: -1\n"]),
    "face-float": base_with(-1, len(BASE_LINES), ["external: 1.0\n"]),
    "face-word": base_with(-1, len(BASE_LINES), ["external: one\n"]),
    "face-missing": base_with(-1, len(BASE_LINES), ["external:\n"]),
    "changed-comment": base_with(0, 0, ["# changed\n"]),
    "comment-and-face": base_with(-1, len(BASE_LINES), [
        "# external: 2\n", "external: 2\n"]),
    "changed-flex": reflexed(EDGE_LINE),
    "changed-rotation": base_with(ROTATION_LINE, ROTATION_LINE + 1, [
        "rotation 2: "
        + " ".join(map(str, BASE_PG.rotation[2][::-1])) + "\n"]),
    "rotation-dropped": base_with(ROTATION_LINE, ROTATION_LINE + 1, []),
    "no-external": plane_text(BASE_PG),
    "crlf": BASE.replace("\n", "\r\n"),
    "crlf-external": base_with(-1, len(BASE_LINES), ["external: 2\r\n"]),
    "no-final-newline": BASE[:-1],
    "no-final-newline-moved": base_with(-1, len(BASE_LINES), ["external: 2"]),
    "comment-after-external": BASE + "# external: 3\n",
    "trailing-spaces": base_with(-1, len(BASE_LINES), ["external: 2   \n"]),
    "two-externals-in-place": base_with(-1, len(BASE_LINES), [
        "external: 2\n", "external: 3\n"]),
    "two-externals-by-cr": base_with(-1, len(BASE_LINES), [
        "external: 2\rexternal: 3\n"]),
    "external-split-by-cr": base_with(-1, len(BASE_LINES), [
        "external:\r2\n"]),
}.items()])
def test_a_text_loads_after_base_as_it_loads_cold(text):
    """Whatever text follows BASE, load_plane_graph gives what it gives
    with no embedding kept: the same plane_state, or the same error."""
    assert after_base(text) == cold(text)


LINE_EDITS = st.lists(st.tuples(
    st.integers(0, len(BASE_LINES)),
    st.sampled_from([0, 1]),  # how many lines the new line replaces
    st.one_of(
        st.builds("external: {}\n".format, st.one_of(
            st.integers(-2, 40).map(str),
            st.sampled_from(["", "x", "1.5", " 3 ", "+1"]))),
        st.sampled_from(["# comment\n", "\n", "externals: 1\n",
                         "external 1: 2\n", "rotation 0: 0 1 2\n", "0 1\n",
                         "junk\n", ""]))), min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(LINE_EDITS)
def test_edited_texts_load_after_base_as_they_load_cold(edits):
    """BASE with lines inserted, deleted or replaced, external lines in
    and out of range among them, loads after BASE as it loads cold."""
    lines = BASE_LINES[:]
    for i, k, line in edits:
        lines[i:i + k] = [line]
    text = "".join(lines)
    assert after_base(text) == cold(text)


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
