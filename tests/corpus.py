"""Shared graph builders and record referees for the test suite.

Everything here stays within planar graphs of maximum degree 3. The
growers nested and grown keep the graphs cubic and 3-connected, so the
cycle machinery applies without preconditions; the gadget builders ring,
theta, subdivide, bulge and sp_grown make biconnected graphs with
2-edge-cuts. A record keeps no face set, so the tests take a record's
inside from inside_by_flood.
"""

import random

from orthobend.graph import Graph, dump_graph


def k4() -> Graph:
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def prism() -> Graph:
    # two triangles joined by a perfect matching
    return Graph(6, [(0, 1), (1, 2), (2, 0),
                     (3, 4), (4, 5), (5, 3),
                     (0, 3), (1, 4), (2, 5)])


def cube() -> Graph:
    return Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                     (4, 5), (5, 6), (6, 7), (7, 4),
                     (0, 4), (1, 5), (2, 6), (3, 7)])


def truncate(g: Graph, v: int) -> Graph:
    """Replace vertex v (degree 3) by a triangle.

    Keeps the graph simple, cubic, planar and 3-connected. The three old
    neighbours attach to the three triangle corners; corner v keeps its id
    so repeated truncation never renumbers existing vertices.
    """
    nbrs = [g.ends[d ^ 1] for d in g.adj[v]]
    assert len(nbrs) == 3
    a, b, c = nbrs
    n0, n1 = g.n, g.n + 1
    edges = [e for e in g.edges if v not in e]
    edges += [(v, a), (n0, b), (n1, c),
              (v, n0), (n0, n1), (n1, v)]
    return Graph(g.n + 2, edges)


def nested(seed: int, n: int) -> Graph:
    """The cube truncated at a corner of the newest triangle until it has
    n vertices: separating triangles nest one inside the next.

    The same graph as repeated `truncate`, in linear time: a removed
    edge leaves a tombstone, so live edges keep their relative order, and
    each vertex lists its live edges by index, as its adjacency would."""
    rng = random.Random(seed)
    g = cube()
    edges = list(g.edges)
    at = [[d >> 1 for d in darts] for darts in g.adj]  # per vertex, by index
    size = g.n
    last = (0,)
    while size < n:
        v = last[rng.randrange(len(last))]
        n0, n1 = size, size + 1
        a, b, c = (edges[e][0] + edges[e][1] - v for e in at[v])
        for e, w in zip(at[v], (a, b, c)):
            at[w].remove(e)
            edges[e] = None
        at[v] = []
        at += [], []
        for x, y in ((v, a), (n0, b), (n1, c), (v, n0), (n0, n1), (n1, v)):
            at[x].append(len(edges))
            at[y].append(len(edges))
            edges.append((x, y))
        last = (v, n0, n1)
        size += 2
    return Graph(size, [e for e in edges if e is not None])


def grown(seed: int, count: int, max_steps: int = 4,
          flex_prob: float = 0.25) -> list[Graph]:
    """Seeded family of triconnected cubic graphs with random flexibilities."""
    rng = random.Random(seed)
    bases = [k4, prism, cube]
    out = []
    while len(out) < count:
        g = bases[rng.randrange(3)]()
        for _ in range(rng.randrange(max_steps + 1)):
            g = truncate(g, rng.randrange(g.n))
        flex = {e: rng.randint(1, 3) for e in range(len(g.edges))
                if rng.random() < flex_prob}
        out.append(Graph(g.n, g.edges, flex))
    return out


def three_sum(g1: Graph, v1: int, g2: Graph, v2: int) -> Graph:
    """g1 less its vertex v1 and g2 less its vertex v2, each of v1's
    neighbours joined to one of v2's, in the order of their adjacency
    lists. g1's other vertices keep their order from 0, then g2's follow.

    Both v1 and v2 have degree 3. The neighbours of a deleted vertex lie
    on one face, and every matching of two triples is a rotation of one
    order or of its mirror image, so any matching is planar. A sum of two
    triconnected cubic graphs is cubic and triconnected, and its three
    joins form a separating 3-edge-cut whose sides are both non-trivial
    unless one graph is K4; repeated truncation makes no such cut.
    """
    n, edges, orphans = 0, [], []
    for g, v in ((g1, v1), (g2, v2)):
        new = [n + u - (u > v) for u in range(g.n)]
        edges += [(new[a], new[b]) for a, b in g.edges if v not in (a, b)]
        orphans.append([new[g.ends[d ^ 1]] for d in g.adj[v]])
        n += g.n - 1
    assert len(orphans[0]) == len(orphans[1]) == 3
    return Graph(n, edges + list(zip(*orphans)))


def summed(seed: int, count: int, max_steps: int = 2,
           flex_prob: float = 0.25) -> list[Graph]:
    """Seeded 3-sums of two graphs like grown's, at random vertices, with
    random flexibilities: each has a separating 3-edge-cut with two
    non-trivial sides, unless a summand is K4."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g1, g2 = grown(rng.randrange(1 << 30), 2, max_steps, 0)
        g = three_sum(g1, rng.randrange(g1.n), g2, rng.randrange(g2.n))
        flex = {e: rng.randint(1, 3) for e in range(len(g.edges))
                if rng.random() < flex_prob}
        out.append(Graph(g.n, g.edges, flex))
    return out


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


def sibling_fixture() -> Graph:
    """Two triangles side by side under a quad ring.

    The containment tree of the reference embedding has one root whose
    children are the two triangles; flexing edge (3, 4) turns one contour
    path of the partner cycle of triangle {0, 1, 2} orange.
    """
    return Graph(12, [
        (0, 1), (1, 2), (2, 0),
        (3, 4), (4, 5), (5, 3),
        (1, 6), (6, 3), (4, 7), (7, 0),
        (6, 8), (7, 9), (2, 10), (5, 11),
        (10, 8), (8, 11), (11, 9), (9, 10),
    ])


def truncated_prism() -> Graph:
    """Prism with one vertex cut into a triangle.

    With the bottom triangle outside, the containment tree is the chain
    root > pentagon > triangle, which exercises path pointers: the
    pentagon's contour paths reference the triangle's instead of
    repeating its edges.
    """
    return Graph(8, [
        (5, 6), (6, 7), (7, 5),
        (5, 2), (6, 0), (7, 1),
        (0, 1), (0, 3), (1, 4),
        (2, 3), (3, 4), (4, 2),
    ])


# Two blobs joined leg to leg. Blob A nests a chain of five cycles over
# three corner triangles; blob B is a 9-gon over three corner triangles
# with one flexible edge. Drawn with any face between the blobs outside,
# exactly six cycles are demanding: A's triangles, A's hexagon and two of
# B's triangles.
BLOB_A = [
    (0, 1), (0, 2), (1, 2),
    (3, 4), (3, 5), (4, 5),
    (6, 7), (6, 8), (7, 8),
    (2, 4), (5, 7), (8, 1),
    (3, 9), (6, 10), (9, 10),
    (9, 11), (10, 12), (11, 12),
    (0, 13), (11, 15), (12, 17),
    (13, 14), (14, 15), (15, 16), (16, 17), (17, 18), (18, 13),
    (18, 19), (14, 20), (19, 20),
]
BLOB_B = [
    (21, 22), (21, 23), (22, 23),
    (24, 25), (24, 26), (25, 26),
    (27, 28), (27, 29), (28, 29),
    (23, 25), (26, 28), (29, 22),
]
BLOB_HOOKS = [(16, 21), (19, 24), (20, 27)]


def nested_blobs() -> Graph:
    edges = BLOB_A + BLOB_B + BLOB_HOOKS
    g = Graph(30, edges)
    return Graph(30, edges, {g.edge_id(27, 29): 1})


def theta_fixture() -> Graph:
    """Two cycles sharing one edge, each wrapped around its own triangle.

    The a-path and b-path cycles both close through edge (0, 1), share it
    as a whole contour path, and are both demanding: the inner triangles
    touch neither cycle. With the top face outside, the external boundary
    decomposes into the a-cycle, its twin and their shared legs.
    """
    return Graph(16, [
        (0, 1),
        (0, 2), (2, 3), (3, 4), (4, 5), (5, 1),
        (0, 6), (6, 7), (7, 8), (8, 9), (9, 1),
        (3, 7),
        (10, 11), (11, 12), (12, 10),
        (2, 10), (4, 11), (5, 12),
        (13, 14), (14, 15), (15, 13),
        (6, 13), (8, 14), (9, 15),
    ])


def plane_text(pg, external=None) -> str:
    """pg's graph as a text with a rotation line per vertex and, unless
    external is None, an external line naming that face."""
    lines = [dump_graph(pg.graph)]
    lines += [f"rotation {v}: {' '.join(map(str, row))}\n"
              for v, row in enumerate(pg.rotation)]
    if external is not None:
        lines.append(f"external: {external}\n")
    return "".join(lines)


def record_key(edges, legs, kind, degenerate):
    return (frozenset(edges), frozenset(legs), kind, bool(degenerate))


def production_keys(records):
    return {record_key(r.edges, r.legs, r.kind, r.degenerate)
            for r in records}


def oracle_keys(records):
    return {record_key(r["edges"], r["legs"], r["kind"], r["degenerate"])
            for r in records}


def inside_by_flood(pg, r):
    """r's inside, as a frozenset of face ids: the faces on the left of
    its contour darts and every face reached from them without crossing
    an edge of the cycle."""
    seen = {pg.dart_face[d] for path in r.contour_paths for d in path}
    stack = list(seen)
    while stack:
        for e in pg.faces[stack.pop()].edge_ids():
            for f in pg.faces_of_edge(e):
                if e not in r.edges and f not in seen:
                    seen.add(f)
                    stack.append(f)
    return frozenset(seen)
