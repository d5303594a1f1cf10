"""Block and split-pair decomposition checks.

The SPQR fixtures leap on three families: generalized thetas (one
P-node), cycles (one S-node), and the triconnected corpus (one R-node),
plus seeded growers that nest all three by replacing edges with longer
paths, parallel path pairs, or diamonds.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthobend import decompose as dc
from orthobend.errors import NotBiconnected
from orthobend.graph import Graph

from corpus import cube, grown, k4, prism


# ---------------------------------------------------------------- builders


def ring(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def theta(*lengths):
    """Generalized theta: len(lengths) paths between poles 0 and 1."""
    edges = []
    n = 2
    for ln in lengths:
        prev = 0
        for i in range(ln - 1):
            edges.append((prev, n))
            prev = n
            n += 1
        edges.append((prev, 1))
    return Graph(n, edges)


def subdivide(g, e, k=1):
    """Replace edge e by a path with k internal vertices."""
    u, v = g.edges[e]
    edges = [uv for i, uv in enumerate(g.edges) if i != e]
    prev, n = u, g.n
    for _ in range(k):
        edges.append((prev, n))
        prev = n
        n += 1
    edges.append((prev, v))
    return Graph(n, edges)


def bulge(g, e, chord):
    """Replace edge e by a 4-vertex widget: two parallel 2-paths
    between fresh poles (chord=False, makes a P-node) or a diamond
    (chord=True, makes an R-node)."""
    u, v = g.edges[e]
    x, a, b, y = g.n, g.n + 1, g.n + 2, g.n + 3
    edges = [uv for i, uv in enumerate(g.edges) if i != e]
    edges += [(u, x), (x, a), (x, b), (a, y), (b, y), (y, v)]
    if chord:
        edges.append((a, b))
    return Graph(g.n + 4, edges)


def sp_grown(seed, count, max_ops=5):
    """Seeded graphs whose trees mix S-, P- and R-nodes."""
    rng = random.Random(seed)
    bases = [lambda: ring(4), lambda: theta(1, 2, 2),
             lambda: theta(2, 2, 3), k4, prism]
    out = []
    while len(out) < count:
        g = bases[rng.randrange(len(bases))]()
        for _ in range(rng.randrange(max_ops + 1)):
            e = rng.randrange(len(g.edges))
            op = rng.randrange(3)
            if op == 0:
                g = subdivide(g, e, rng.randint(1, 2))
            else:
                g = bulge(g, e, chord=op == 2)
        out.append(g)
    return out


def kind_counts(t):
    out = {}
    for node in t.nodes:
        out[node.kind] = out.get(node.kind, 0) + 1
    return out


SP_CORPUS = sp_grown(7, 10)


# ---------------------------------------------------------------- BC trees


def test_two_triangles_sharing_a_vertex():
    # degree 4 at the hinge, legal for block decomposition
    bc = dc.bc_tree_from_edges(
        5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    assert len(bc.blocks) == 2
    assert bc.cutvertices == (0,)
    assert not any(b.trivial for b in bc.blocks)


def test_biconnected_graph_is_one_block():
    bc = dc.build_bc_tree(prism())
    assert len(bc.blocks) == 1
    assert bc.cutvertices == ()
    assert not bc.blocks[0].trivial


def test_path_gives_trivial_blocks():
    bc = dc.bc_tree_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert len(bc.blocks) == 3
    assert all(b.trivial for b in bc.blocks)
    assert bc.cutvertices == (1, 2)


def test_triangle_with_pendant_edge():
    g = Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    bc = dc.build_bc_tree(g)
    assert len(bc.blocks) == 2
    assert bc.cutvertices == (0,)
    trivials = [b for b in bc.blocks if b.trivial]
    assert len(trivials) == 1 and trivials[0].edges == (3,)


def test_blocks_partition_the_edges():
    g = Graph(7, [(0, 1), (1, 2), (2, 0), (0, 3),
                  (3, 4), (4, 5), (5, 6), (6, 3)])
    bc = dc.build_bc_tree(g)
    covered = sorted(e for b in bc.blocks for e in b.edges)
    assert covered == list(range(len(g.edges)))
    assert bc.block_of_edge[0] == bc.block_of_edge[1]
    assert bc.block_of_edge[0] != bc.block_of_edge[3]


def test_block_subgraphs_relabel_consistently():
    g = Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    bc = dc.build_bc_tree(g)
    for blk in bc.blocks:
        assert blk.graph.n == len(blk.vertices)
        assert len(blk.graph.edges) == len(blk.edges)
        for e in blk.edges:
            u, v = g.edges[e]
            lu, lv = blk.graph.edges[blk.emap[e]]
            assert {blk.vmap[u], blk.vmap[v]} == {lu, lv}


def test_cutvertex_nodes_have_degree_at_least_two():
    for g in SP_CORPUS:
        # hang a 2-edge tail off vertex 0; raw edges skip the degree cap
        edges = list(g.edges) + [(0, g.n), (g.n, g.n + 1)]
        bc = dc.bc_tree_from_edges(g.n + 2, edges)
        for v in bc.cutvertices:
            assert len(bc.blocks_at(v)) >= 2
        for bi, v in bc.tree_edges():
            assert v in bc.blocks[bi].vertices


# ------------------------------------------------------------- SPQR shapes


def test_k4_is_one_r_node():
    t = dc.build_spqr_tree(k4())
    assert kind_counts(t) == {"R": 1, "Q": 6}


def test_cycle_is_one_s_node():
    t = dc.build_spqr_tree(ring(8))
    assert kind_counts(t) == {"S": 1, "Q": 8}
    (s,) = t.structural_nodes()
    # skeleton comes out in traversal order
    assert [e.edge_id for e in s.edges] == list(range(8))


def test_k23_splits_into_p_and_three_s():
    t = dc.build_spqr_tree(theta(2, 2, 2))
    assert kind_counts(t) == {"P": 1, "S": 3, "Q": 6}


def test_theta_with_short_path_keeps_real_edge_in_p():
    t = dc.build_spqr_tree(theta(1, 2, 2))
    assert kind_counts(t) == {"P": 1, "S": 2, "Q": 5}
    p = next(n for n in t.structural_nodes() if n.kind == "P")
    reals = [e for e in p.edges if e.is_real]
    assert len(reals) == 1 and reals[0].edge_id == 0


def test_triconnected_corpus_is_single_r():
    for g in (prism(), cube()):
        t = dc.build_spqr_tree(g)
        counts = kind_counts(t)
        assert counts == {"R": 1, "Q": len(g.edges)}


def test_not_biconnected_rejected():
    with pytest.raises(NotBiconnected):
        dc.build_spqr_tree(Graph(4, [(0, 1), (1, 2), (2, 3)]))
    with pytest.raises(NotBiconnected):
        dc.build_spqr_tree(Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)]))
    with pytest.raises(NotBiconnected):
        dc.build_spqr_tree(Graph(2, [(0, 1)]))


def _check_tree_shape(g, t):
    # every host edge is owned by exactly one skeleton, endpoints intact
    for eid, (u, v) in enumerate(g.edges):
        e = t.owner_edge[eid]
        assert {e.u, e.v} == {u, v}
        assert t.nodes[e.node].kind in "SPR"
    # twins agree on endpoints and cross node boundaries
    for node in t.structural_nodes():
        for e in node.edges:
            if e.is_real:
                continue
            assert e.twin.twin is e
            assert {e.u, e.v} == {e.twin.u, e.twin.v}
            assert e.twin.node != node.index
    # tree, not forest
    assert len(t.tree_edges()) == len(t.nodes) - 1
    # no two S-nodes and no two P-nodes adjacent
    for node in t.structural_nodes():
        for nb in t.neighbors(node.index):
            if t.nodes[nb].kind in ("S", "P"):
                assert t.nodes[nb].kind != node.kind
    # skeleton forms
    for node in t.structural_nodes():
        if node.kind == "P":
            assert len(node.edges) == 3  # degree bound
            pairs = {frozenset(e.ends()) for e in node.edges}
            assert len(pairs) == 1
        elif node.kind == "S":
            assert len(node.edges) >= 3
            for i, e in enumerate(node.edges):
                nxt = node.edges[(i + 1) % len(node.edges)]
                assert set(e.ends()) & set(nxt.ends())
        else:
            assert len(node.vertices) >= 4
            assert len(node.edges) >= 6  # cubic skeleton
            _assert_triconnected(node)


def _assert_triconnected(node):
    verts = list(node.vertices)
    adj = {v: set() for v in verts}
    for e in node.edges:
        adj[e.u].add(e.v)
        adj[e.v].add(e.u)
    assert all(len(adj[v]) == 3 for v in verts)
    for i, a in enumerate(verts):
        for b in verts[i + 1:]:
            rest = [v for v in verts if v not in (a, b)]
            if not rest:
                continue
            seen = {rest[0]}
            stack = [rest[0]]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in (a, b) and y not in seen:
                        seen.add(y)
                        stack.append(y)
            assert len(seen) == len(rest), f"separation pair {a},{b}"


def test_tree_shape_on_grown_corpus():
    for g in SP_CORPUS:
        _check_tree_shape(g, dc.build_spqr_tree(g))
    for g in grown(3, 4):
        _check_tree_shape(g, dc.build_spqr_tree(g))


def _structure(t):
    """Per node its kind, its vertices, and per skeleton edge the host
    edge id of a real edge or the twin's node of a virtual one."""
    return [(node.kind, node.vertices, node.edge_id,
             [("real", e.edge_id) if e.is_real else ("twin", e.twin.node)
              for e in node.edges])
            for node in t.nodes]


def test_construction_is_deterministic():
    for g in SP_CORPUS[:4]:
        a = _structure(dc.build_spqr_tree(g))
        assert a == _structure(dc.build_spqr_tree(g))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_grown_trees_stay_canonical(seed):
    (g,) = sp_grown(seed, 1)
    t = dc.build_spqr_tree(g)
    _check_tree_shape(g, t)

