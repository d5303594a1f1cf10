"""Cycle machinery for plane triconnected cubic graphs, plus the 2- and
3-extrovert cycles and the 2-edge-cuts of any biconnected plane 3-graph.

Everything here revolves around one fact: in a triconnected cubic plane
graph, the three legs of a 3-extrovert or 3-introvert cycle form a
3-edge-cut, and 3-edge-cuts are exactly the 3-cycles of the dual over
three distinct faces. Detection therefore enumerates dual triangles; no
simple-cycle enumeration happens in production code (the brute-force
route lives in the oracle module and is only used to cross-check this
one). In the class of inclusion_tree one edge joins each pair of
adjacent faces: dual_triangles maps each face's neighbours to that edge,
closes each joined pair f < g with every face h > g in the smaller of
their two maps, and lists a triangle when its cut edges share no vertex.

A record is its cut and its contour, with its inside on the left of the
contour; it keeps no face set. The sides of the separating cuts away from
a root face, on no separating triangle, are laminar, and their tree is
the 4-block tree of the dual triangulation (Kant, 1997); _away_sides
builds it expanding each face once. The sides holding a face are its
owner, the smallest side holding it, and the owner's ancestors in the
cut tree, so one walk up from a face's owner tells each record which
side is its inside.

Each cut face holds two cut edges, at positions i and j of its
boundary, and its boundary between them splits into two arcs, one facing
each side. The cycle bounding a side is the chain of the arcs facing it,
walked with the inside on the left; each contour path is one arc, its
leg the cut edge at its tail and its leg face the arc's face. One walk of
the cut faces chains one side's arcs as spans (f, i, j) of boundary
positions, and the other side's arcs are the same faces in reverse
order, as spans (f, j, i): _cut_walks walks and checks each cut once per
embedding, and _cut_records builds both records of a cut from its
spans. A record holds no dart: it keeps its spans into its graph's
faces, and its darts, edges and vertices are read off them on request.

A dual triangle whose three cut edges share a primal vertex v is facial:
its one degenerate cycle runs round v's face fan. The count reads no
degenerate cycle, so the demanding path never builds one:
inclusion_tree holds records only for the separating triangles, those
whose three cut edges share no vertex. A degenerate cycle is 3-extrovert
when v lies on the external boundary, and extrovert_cycles lists it then.

A separating triangle splits the other faces into two sides. With the
external face in side B, side A is the inside of a 3-extrovert cycle
and A plus the triangle's faces the inside of its 3-introvert partner
with the same legs; with the external face one of the triangle's own
faces, both sides are the insides of two 3-extrovert twins.

Moving the external face never changes which cycles and legs exist, only
which side of each cycle is its inside: the side that does not hold the
external face. So the separating cuts, listed once the class check
passes, their checked walks, the cuts each face is on and the default
root r0, the lowest face on no separating triangle, are built once per
embedding and kept in its PlaneGraph's tables, which every
with_external_face view shares. The tree and the colors belong to the
sides away from a root on no separating triangle, and a color stays with
its path's leg face whichever way the path is walked. So the
embedding's first query colors r0's tree and keeps its owners, cut
parents, colored records and D there too, as plain lists shared by every
query and not changed again; they hold no PlaneGraph, so a view and the
tables it shares make no reference cycle. A query at face f touches only
what f changes: the cuts on f's owner chain and those with f as a cut
face, building just the demanding records that f turns 3-extrovert.

Coloring follows the two-step green-counter formulation and reads each
record's own contour paths. A child's path on a leg face is a contiguous
slice of its parent's path on that face, and sibling slices do not
overlap, so a parent path is green exactly when a child path on its leg
face is green. Flexible edges are counted by per-face prefix sums along
the boundaries, so a path's count is a difference across its span and no
dart is walked.

extrovert_cycles serves the no-bend drawing alone, on a wider class: any
biconnected plane 3-graph, chains of degree-2 vertices included, where
two faces may share several edges. _joins maps each face's neighbours to
where the edges joining them lie on its boundary, and two_cuts and
_dual_sides read it. Two edges form a cut exactly when they join the
same two faces, so each face pair joined by two or more edges is one
cycle of the cactus of 2-edge-cuts (Dinits, Karzanov and Lomonosov,
1976): the real edges of one S-node of the SPQR tree, which two_cuts
groups. _dual_sides lists the sides of the 2- and 3-edge-cuts whose
contours repeat no edge, O(m) of them, and each extrovert one that is a
simple cycle becomes a CycleRecord built as the 3-cycle records are. The
demanding path never calls it.
"""

from __future__ import annotations

from bisect import bisect
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import accumulate, chain, product
from operator import attrgetter

from .errors import NotBiconnected, NotTriconnectedCubic
# embed is unused here, but the benchmark's tests read it as cycles.embed
from .graph import PlaneGraph, embed


@dataclass(eq=False, slots=True)
class CycleRecord:
    """One cycle with k = 2 or 3 legs, its contour structure and coloring.

    legs[j] is the leg at leg_vertices[j]. contour_paths[j] runs from
    leg_vertices[j] to leg_vertices[(j+1)%k] with the cycle's inside
    region on the left of every dart; leg_faces[j] is the face the two
    bounding legs share along path j. A 3-cycle is degenerate when its
    legs meet in one vertex off it. colors/demanding stay None until a
    coloring pass fills them, after which the record is treated as
    immutable; only 3-cycle records are colored.

    The record holds no dart. Path j is the span spans[j] = (f, i, j') of
    leg face f: the arc of f's boundary strictly between positions i and
    j', walked backwards with every dart reversed when the record is
    extrovert, since its leg faces lie outside it. The spans index
    `faces`, the PlaneGraph's faces, each with its boundary darts, their
    tails and their edge ids. contour_paths, edges, vertices, legs and
    leg_vertices read them on request. The record keeps no face set: its
    inside is the side of its cut on the left of its contour.
    """

    # from 0 when separating; the index in the list extrovert_cycles returns
    cycle_id: int
    kind: str  # "extrovert" | "introvert"
    leg_faces: tuple
    spans: tuple
    degenerate: bool
    faces: list = field(repr=False)  # pg.faces
    # the cycle id of the other record of the same cut: the 3-introvert
    # partner of a 3-extrovert cycle, or its twin when the external face is
    # a cut face; None from extrovert_cycles
    phi_partner: int | None = None
    colors: tuple | None = None
    demanding: bool | None = None

    def _arcs(self, key):
        """Per span, its stretch of the leg face's list `key`, "darts",
        "tails" or "eids", in forward order."""
        faces = self.faces
        return (_between(getattr(faces[f], key), i, j)
                for f, i, j in self.spans)

    @property
    def contour_paths(self):
        arcs = self._arcs("darts")
        if self.kind == "extrovert":  # last dart first, each dart reversed
            return tuple(tuple([d ^ 1 for d in reversed(a)]) for a in arcs)
        return tuple(map(tuple, arcs))

    @property
    def edges(self):
        return frozenset(chain.from_iterable(self._arcs("eids")))

    @property
    def vertices(self):  # the darts' tails, the same set walked either way
        return frozenset(chain.from_iterable(self._arcs("tails")))

    @property
    def legs(self):  # the cut edge at each path's tail
        faces = self.faces
        if self.kind == "extrovert":  # at the end of the arc
            return tuple(faces[f].eids[j] for f, _, j in self.spans)
        return tuple(faces[f].eids[i] for f, i, _ in self.spans)

    @property
    def leg_vertices(self):
        faces = self.faces
        if self.kind == "extrovert":  # the head of the arc's last dart
            return tuple(faces[f].tails[j] for f, _, j in self.spans)
        return tuple(faces[f].tails[(i + 1) % len(faces[f])]
                     for f, i, _ in self.spans)


def _class_witness(pg: PlaneGraph):
    """Why pg is outside the class of inclusion_tree: a vertex whose
    degree is not 3, a bridge, which has one face on both sides, or two
    edges joining one pair of faces."""
    for v, darts in enumerate(pg.graph.adj):
        if len(darts) != 3:
            return f"vertex {v} has degree {len(darts)}"
    for f, nbrs in enumerate(pg.face_index):
        if f in nbrs:
            return (f"edge {pg.faces[f].eids[nbrs.index(f)]} has face {f} "
                    "on both sides")
    for (f, g), es in two_cuts(pg).items():
        return f"edges {es[0]} and {es[1]} both join faces {f} and {g}"
    raise AssertionError("no witness outside the class")


def _joins(pg: PlaneGraph):
    """Per face f, each neighbour g -> the positions on f's boundary of
    the edges joining f and g, in walk order. Raises NotBiconnected on a
    bridge, an edge with one face on both sides."""
    joins = [{} for _ in pg.faces]
    for f, nbrs in enumerate(pg.face_index):
        for p, g in enumerate(nbrs):
            if g == f:
                raise NotBiconnected(f"edge {pg.faces[f].eids[p]} is a bridge")
            joins[f].setdefault(g, []).append(p)
    return joins


def two_cuts(pg: PlaneGraph):
    """The 2-edge-cuts of pg, grouped by the faces they join: per face pair
    (f, g), f < g, joined by two or more edges, those edges in the order
    f's boundary walk meets them. Any two edges of one group form a cut,
    and no other pair does. Raises NotBiconnected on a bridge, an edge
    with one face on both sides."""
    return {(f, g): [pg.faces[f].eids[p] for p in ps]
            for f, at_f in enumerate(_joins(pg))
            for g, ps in at_f.items() if g > f and len(ps) >= 2}


def _dual_sides(pg: PlaneGraph):
    """The sides of pg's 2- and 3-edge-cuts whose contours repeat no edge,
    every side that a simple cycle with every cut edge a leg can bound
    among them, as (cut, cut_faces, x), x the end of cut[0] on the side,
    by smallest cut face. Raises NotBiconnected on a bridge.

    A non-cut edge joining two cut faces lies on both faces' arcs facing
    its side, and that side's contour repeats it. So a side's arc on
    a cut face runs from a cut edge to the next edge joining that face to
    another cut face: in a group of edges joining f and g, from each to
    the next along f. In a dual triangle f < g < h the joins of f to h lie
    between two successive joins of f to g, and the other way round, so
    each turning has one arc on f that can start a side, after the last
    join to g before those to h or to h before those to g.
    """
    joins, tails, sides = _joins(pg), pg.graph.ends, []
    for f, at_f in enumerate(joins):
        es, darts = pg.faces[f].eids, pg.faces[f].darts
        for g, fg in at_f.items():
            if g < f:
                continue
            if len(fg) > 1:
                sides += [((es[p], es[q]), (f, g), tails[darts[p] ^ 1])
                          for p, q in zip(fg, fg[1:] + fg[:1])]
            at_g = joins[g]
            small, big = ((at_f, at_g) if len(at_f) < len(at_g)
                          else (at_g, at_f))
            for h in small:
                if h > g and h in big:
                    fh = at_f[h]  # one turning each: g to h, h to g
                    for p in (fg[bisect(fg, fh[0]) - 1],
                              fh[bisect(fh, fg[0]) - 1]):
                        if side := _side(pg, joins, (f, g, h), darts[p]):
                            sides.append(side)
    return sides


def _side(pg: PlaneGraph, joins, tri, start):
    """(cut, tri, x) for the side of dual triangle tri whose arc on the
    face of dart `start` runs from it to the next edge joining that face
    to another of tri, and so on across each such edge, the cut; x is the
    head of start. None unless the arcs close after three faces."""
    faces, face, pos = pg.faces, pg.dart_face, pg.dart_pos
    cut, d = [], start
    for _ in tri:
        f, p = face[d], pos[d]
        nearest = []
        for g in tri:
            if g != f:
                at = joins[f][g]
                q = at[bisect(at, p) % len(at)]
                nearest.append(((q - p - 1) % len(faces[f]), q))
        cut.append(d >> 1)
        d = faces[f].darts[min(nearest)[1]] ^ 1
    if d == start:
        return tuple(cut), tri, pg.graph.ends[start ^ 1]


def dual_triangles(pg: PlaneGraph):
    """The separating 3-edge-cuts of a pg in the class of inclusion_tree
    as (cut_edges, cut_faces), each once, by their smallest face: the dual
    triangles f < g < h, cut edges l1 f|g, l2 g|h and l3 h|f, whose l1 and
    l2 do not meet.

    The other dual triangles are facial, one round each vertex: there l1
    and l2 meet at the vertex, as the third edge there joins h|f, and no
    two cut edges of a separating triangle meet.

    Raises NotTriconnectedCubic, naming a witness, outside the class of
    inclusion_tree, the triconnected cubic graphs: unless every vertex has
    degree 3 and every edge joins its own pair of faces. The list does not
    depend on the external face, so it is built once per embedding and
    kept in pg.tables, which every with_external_face view shares; callers
    must not change it. A graph outside the class keeps nothing, and is
    refused again on every call.
    """
    tables = pg.tables
    if "dual_triangles" in tables:
        return tables["dual_triangles"]
    ends, darts = pg.graph.edges, iter(pg.dart_face)
    joins = [{} for _ in pg.faces]  # per face: neighbour -> joining edge
    in_class = pg.graph.is_cubic()
    for e, (f, g) in enumerate(zip(darts, darts)):
        in_class = in_class and f != g and g not in joins[f]
        joins[f][g] = joins[g][f] = e
    if not in_class:
        raise NotTriconnectedCubic(
            "3-cycle records need a triconnected cubic graph: "
            + _class_witness(pg))
    found = []
    for f, at_f in enumerate(joins):
        for g, l1 in at_f.items():
            if g < f:
                continue
            at_g = joins[g]
            small, big = ((at_f, at_g) if len(at_f) < len(at_g)
                          else (at_g, at_f))
            u, v = ends[l1]
            for h in small:
                if h > g and h in big:
                    l2 = at_g[h]
                    if u not in ends[l2] and v not in ends[l2]:
                        found.append(((l1, l2, at_f[h]), (f, g, h)))
    tables["dual_triangles"] = found
    return found


def _between(seq, i, j):
    """The items of seq strictly after position i and before position j,
    going round cyclically."""
    return seq[i + 1:j] if i < j else seq[i + 1:] + seq[:j]


def _cut_arcs(pg: PlaneGraph, cut, x):
    """The arcs facing the side of x, an end of cut[0], as spans (face, i,
    j) in walk order.

    Each cut face holds two cut edges, at positions i and j of its
    boundary, and the arcs strictly between them face the cut's two
    sides. The arcs facing x's side chain head to tail from the dart of
    cut[0] that ends at x, each walked with its face on the left; the arcs
    facing the other side are the rest of the same faces' boundaries, in
    reverse order. The dart tables give each cut edge's dart on a face,
    and its position there.
    """
    face, pos = pg.dart_face, pg.dart_pos
    e = cut[0]
    d = start = 2 * e + (pg.graph.edges[e][0] == x)  # the dart of e to x
    spans = []
    for _ in cut:
        f = face[d]
        for c in cut:
            dc = 2 * c + (face[2 * c] != f)  # c's dart on f, if c is on f
            if c != e and face[dc] == f:
                break
        else:
            raise AssertionError(f"cut face {f} holds one cut edge")
        spans.append((f, pos[d], pos[dc]))
        e, d = c, dc ^ 1
    assert d == start, "cut faces close no walk"
    return tuple(spans)


def _cycle_vertices(pg: PlaneGraph, cut, spans):
    """The vertices of the cycle the arcs `spans` chain, or None unless it
    is one simple cycle with every cut edge a leg: it has at least 3
    vertices, none twice, and each cut edge has one end on it."""
    faces, ends = pg.faces, pg.graph.edges
    walked = []
    for f, i, j in spans:  # _between, inline on this hot path
        t = faces[f].tails
        walked += t[i + 1:j] if i < j else t[i + 1:] + t[:j]
    vertices = set(walked)
    if len(walked) < 3 or len(vertices) < len(walked):
        return None
    for c in cut:
        u, v = ends[c]
        if (u in vertices) == (v in vertices):
            return None
    return vertices


def _record(pg: PlaneGraph, cycle_id, spans, degenerate):
    """The record of the extrovert cycle whose arcs `spans` chain in walk
    order. The cut faces lie outside, so the arcs are walked backwards,
    with the inside on the left. A path's leg is the cut edge at its tail
    and its leg face the arc's face. The path holding the cycle's smallest
    edge comes last. _cut_records builds the records of the separating
    cuts inline."""
    faces = pg.faces
    spans = spans[::-1]
    low = []  # per span, its smallest edge: min(_between(...)), inline
    for f, i, j in spans:
        es = faces[f].eids
        low.append(min(es[i + 1:j]) if i < j else min(es[i + 1:] + es[:j]))
    k = low.index(min(low)) + 1
    spans = spans[k:] + spans[:k]
    return CycleRecord(cycle_id, "extrovert", tuple([f for f, _, _ in spans]),
                       spans, degenerate, faces)


def _cut_walks(pg: PlaneGraph, cuts):
    """Per separating cut c of cuts, dual_triangles(pg), its checked walk:
    walks[2c] the spans of the arcs facing the side of the first end of
    cut[0], walks[2c + 1] those facing the other side. Each side's spans
    are in the order of its 3-extrovert cycle, walked backwards with its
    path holding the smallest dart last.

    One walk of the cut faces gives the arcs facing the first side, and
    the rest of each cut face's boundary faces the other side. Each arc's
    tails give its side's vertices, for the checks that each side closes
    a simple cycle with every cut edge a leg, and its darts its smallest
    dart. None of it depends on the external face, so the walks are built
    and checked once per embedding and kept in pg.tables, flat, two span
    triples per cut.
    """
    tables = pg.tables
    if "cut_walks" in tables:
        return tables["cut_walks"]
    faces, ends = pg.faces, pg.graph.edges
    walks = []
    for cut, _ in cuts:
        near = _cut_arcs(pg, cut, ends[cut[0]][0])
        walked_a, walked_b, low_a, low_b = [], [], [], []
        for f, j, k in near:  # _between, inline on this hot path
            face = faces[f]
            t, ds = face.tails, face.darts
            if j < k:
                walked_a += t[j + 1:k]
                walked_b += t[k + 1:] + t[:j]
                arc, far = ds[j + 1:k], ds[k + 1:] + ds[:j]
            else:
                walked_a += t[j + 1:] + t[:k]
                walked_b += t[k + 1:j]
                arc, far = ds[j + 1:] + ds[:k], ds[k + 1:j]
            low_a.append(min(arc))
            low_b.append(min(far))
        side_a, side_b = set(walked_a), set(walked_b)
        assert 3 <= len(walked_a) == len(side_a), \
            "side A's arcs close no cycle"
        assert 3 <= len(walked_b) == len(side_b), \
            "side B's arcs close no cycle"
        for c in cut:
            u, v = ends[c]
            assert (u in side_a) != (v in side_a), f"edge {c} is no leg of A"
            assert (u in side_b) != (v in side_b), f"edge {c} is no leg of B"
        back_b = tuple([(f, k, j) for f, j, k in near])  # B's, backwards
        for spans, low in ((near[::-1], low_a[::-1]), (back_b, low_b)):
            k = low.index(min(low)) + 1
            walks.append(spans[k:] + spans[:k])
    tables["cut_walks"] = walks
    return walks


def _cut_records(pg: PlaneGraph, walks, i, cut, x, intro_a, intro_b):
    """Records i and i + 1 of a separating cut, cut i // 2 of walks,
    _cut_walks: the cycles round the side of x, an end of cut[0], and
    round the other side, each phi-linked to the other. intro_a and
    intro_b say whether each is 3-introvert, with the cut faces and the
    other side inside it.

    The walks are checked once per embedding and stored from the first
    end of cut[0], so the sides swap when x is the other end. A record
    with the cut faces outside it is 3-extrovert and keeps the stored
    spans; one with them inside is 3-introvert, walked forwards, and its
    first two paths swap, so that the path holding the smallest dart
    still comes last.
    """
    a, b = walks[i], walks[i + 1]
    if x != pg.graph.edges[cut[0]][0]:
        a, b = b, a
    out = []
    for cid, spans, intro in ((i, a, intro_a), (i + 1, b, intro_b)):
        if intro:
            spans = spans[1], spans[0], spans[2]
        (f0, _, _), (f1, _, _), (f2, _, _) = spans
        out.append(CycleRecord(
            cid, "introvert" if intro else "extrovert", (f0, f1, f2), spans,
            False, pg.faces, cid ^ 1))
    return out


def _spanning_tree(pg: PlaneGraph, root):
    """A depth-first spanning tree of pg's graph from vertex root: per
    vertex its preorder number, its subtree's size and the edge to its
    parent (-1 at the root). The stack holds the darts into the vertices
    it has yet to visit, each the tree edge to its head if that is
    unvisited when popped."""
    edges, ends, adj = pg.graph.edges, pg.graph.ends, pg.graph.adj
    pre, up, order = [-1] * pg.n, [-1] * pg.n, [root]
    pre[root] = 0
    stack = adj[root][:]
    while stack:
        d = stack.pop()
        v = ends[d ^ 1]
        if pre[v] < 0:
            pre[v], up[v] = len(order), d >> 1
            order.append(v)
            for d in adj[v]:
                if pre[ends[d ^ 1]] < 0:
                    stack.append(d)
    size = [1] * pg.n
    for v in reversed(order[1:]):
        a, b = edges[up[v]]
        size[a + b - v] += size[v]  # v's parent
    return pre, size, up


def _below(tree, edges, cut, x):
    """Whether vertex x lies under an odd number of the cut's edges in
    tree, a _spanning_tree: whether it is on the side of the cut away from
    the tree's root."""
    pre, size, up = tree
    odd = False
    for e in cut:
        for c in edges[e]:
            if up[c] == e:  # e's end away from the root
                odd ^= pre[c] <= pre[x] < pre[c] + size[c]
    return odd


def _held(owner, parent, f):
    """The cuts whose side away from the root holds face f, in a cut tree
    _away_sides builds: f's owner and the owner's ancestors, upwards."""
    held, c = [], owner[f]
    while c >= 0:
        held.append(c)
        c = parent[c]
    return held


def _away_sides(pg: PlaneGraph, cuts, root):
    """The cut tree of `cuts` rooted at face `root`, a face on none of
    them, as (away, owner, parent, preorder): per cut the end of cut[0] on
    its side away from root, its parent cut (-1 at the root) and the cuts
    in preorder; per face its owner, the smallest side holding it, or -1.

    A side holds the vertices _below its cut in a spanning tree rooted on
    face root, and S such vertices bound (S - 1) / 2 faces. One pass per
    cut lists the tops of the subtrees under its tree edges, and both the
    side's size and the end of cut[0] on it are read off those tops.
    Smallest first, each side floods the faces no smaller side took and
    steps over a finished smaller side, now its child, to that side's cut
    faces, so each face is expanded once and owned by the smallest side
    holding it.
    """
    edges, face, across = pg.graph.edges, pg.dart_face, pg.face_index
    pre, size, up = _spanning_tree(pg, pg.faces[root].tails[0])
    count, away, tops = [], [], []
    for cut, _ in cuts:
        # A vertex is _below the cut when it lies under an odd number of
        # the tops. By inclusion-exclusion over their subtrees, one counts
        # + towards the side's size when its own top is _below, else -.
        tops.clear()
        for e in cut:
            a, b = edges[e]
            if up[a] == e:
                tops.append(a)
            elif up[b] == e:
                tops.append(b)
        s = 0
        for c in tops:
            odd, at = False, pre[c]
            for t in tops:
                odd ^= pre[t] <= at < pre[t] + size[t]
            s += size[c] if odd else -size[c]
        count.append((s - 1) // 2)
        u, v = edges[cut[0]]
        odd, at = False, pre[u]
        for t in tops:
            odd ^= pre[t] <= at < pre[t] + size[t]
        away.append(u if odd else v)

    owner = [-1] * len(across)  # the smallest side holding each face
    parent = [-1] * len(cuts)
    merged = list(range(len(cuts)))  # union-find over the finished sides

    def top(c):
        while merged[c] != c:
            merged[c] = c = merged[merged[c]]
        return c

    for c in sorted(range(len(cuts)), key=count.__getitem__):
        tri = cuts[c][1]
        stack = []
        for e in pg.rotation[away[c]]:
            stack += face[2 * e], face[2 * e + 1]
        took = 0
        while stack:
            f = stack.pop()
            if (o := owner[f]) == c or f in tri:
                continue
            if o < 0:
                owner[f] = c
                took += 1
                stack += across[f]
            elif (t := top(o)) != c:
                merged[t] = parent[t] = c
                took += count[t]
                stack += cuts[t][1]
        assert took == count[c], "a side's flood and Euler count disagree"

    kids = [[] for _ in range(len(cuts) + 1)]  # the last one is the root's
    for c, p in enumerate(parent):
        kids[p].append(c)
    preorder, stack = [], kids.pop()
    while stack:
        c = stack.pop()
        preorder.append(c)
        stack += kids[c]
    return away, owner, parent, preorder


def _default_root(pg: PlaneGraph, cuts):
    """(the cuts each face is on, r0) for `cuts`, the separating
    triangles dual_triangles(pg) lists: r0, the default root, is the
    lowest face that is on none. Both are kept per embedding in
    pg.tables."""
    tables = pg.tables
    if "default_root" not in tables:
        at = [()] * len(pg.faces)  # per face, the cuts it is on
        for c, (_, (f, g, h)) in enumerate(cuts):
            at[f] += (c,)
            at[g] += (c,)
            at[h] += (c,)
        assert () in at, "every face lies on a separating triangle"
        tables["default_root"] = at, at.index(())
    return tables["default_root"]


def _flipped(r):
    """Colored record r turned inside out: the same cycle, cycle id,
    colors and demanding flag, the other kind, and its first two paths
    and colors swapped, as _cut_records builds the other kind."""
    (f0, f1, f2), (s0, s1, s2), (x, y, z) = r.leg_faces, r.spans, r.colors
    kind = "introvert" if r.kind == "extrovert" else "extrovert"
    return CycleRecord(r.cycle_id, kind, (f1, f0, f2), (s1, s0, s2), False,
                       r.faces, r.phi_partner, (y, x, z), r.demanding)


# ---------------------------------------------------------------------------
# 2- and 3-extrovert cycles of any biconnected plane 3-graph


def extrovert_cycles(pg: PlaneGraph):
    """The 2- and 3-extrovert cycles of pg, as CycleRecords of kind
    "extrovert" with ids 0, 1, ... in the order listed; a cycle's k is
    len(legs).

    pg may be any biconnected plane 3-graph; an edge with one face on both
    sides, a bridge, raises NotBiconnected. Each side of a k-edge-cut that
    _dual_sides lists, k = 2 or 3, is bounded by the cycle the cut faces'
    arcs facing it chain, when that is a simple cycle with every cut edge
    a leg. The cycle is k-extrovert when its side does not hold the
    external face: when that face is a cut face, or the side is the one
    _below the cut in a spanning tree rooted on the external face, so no
    side is flooded. A 3-extrovert cycle is degenerate when its legs meet
    in one vertex off it. Each side is listed once, so no cycle comes
    twice.
    """
    ends = pg.graph.edges
    sides = _dual_sides(pg)
    if not sides:  # no tree then: a lone vertex's one face has no walk
        return []
    ext = pg.external_face
    tree = _spanning_tree(pg, pg.faces[ext].tails[0])
    found = []
    for cut, faces, x in sides:
        if ext in faces or _below(tree, ends, cut, x):
            spans = _cut_arcs(pg, cut, x)
            vertices = _cycle_vertices(pg, cut, spans)
            if vertices is not None:
                far = {v for e in cut for v in ends[e] if v not in vertices}
                found.append(_record(pg, len(found), spans,
                                     len(cut) == 3 and len(far) == 1))
    return found


# ---------------------------------------------------------------------------
# inclusion trees


class InclusionTree:
    """Containment tree over the cycles round the sides of pg's separating
    cuts away from reference_face, as 3-extrovert cycles there.

    The root is the sentinel None standing for the reference face. A
    cycle's parent is the smallest member whose side holds its own, which
    is the cut tree of _away_sides with record 2c of cut c as its node;
    nodes lists the members in preorder, and depth() counts the steps from
    a cycle up to the root. records holds both records of every separating
    cut, seen from pg's own external face, so a node is 3-introvert there
    when that face lies in its side; a record's id is its index there.
    _owner and _cut_parent are the cut tree's lists of _away_sides: per
    face the smallest side holding it and per cut its parent cut.
    """

    root = None

    def __init__(self, pg, records, reference_face, owner, parent,
                 preorder):
        self.pg = pg
        self.records = records
        self.reference_face = reference_face
        self._owner, self._cut_parent = owner, parent
        self.nodes = [2 * c for c in preorder]
        self.parent = {}
        self.children = defaultdict(list)
        self._depth = {None: 0}
        for c in preorder:
            par = 2 * parent[c] if parent[c] >= 0 else None
            self.parent[2 * c] = par
            self.children[par].append(2 * c)
            self._depth[2 * c] = self._depth[par] + 1

    def depth(self, cid) -> int:
        return self._depth[cid]


def inclusion_tree(pg: PlaneGraph) -> InclusionTree:
    """The inclusion tree of pg's 3-cycle records, the one way to them:
    both non-degenerate cycles of each separating cut c of dual_triangles,
    ids 2c and 2c + 1, phi-linked, as pg's external face sees them. It is
    rooted at reference_face, pg's external face when that is on no
    separating triangle, else the lowest face on none, the default root
    r0. Raises NotTriconnectedCubic, naming a witness, unless pg's graph
    is cubic and triconnected: unless every edge joins its own pair of
    faces.

    Record 2c is the cycle round the cut's side A away from the reference
    face and 2c + 1 the cycle round the other side B. Each has the side
    that does not hold pg's external face inside: record 2c A, or B and
    the cut faces when the face lies in A; record 2c + 1 B, or A and the
    cut faces when the face lies in B. The cut tree is built afresh on
    every call; demanding_sets keeps what it needs of r0's.
    """
    cuts = dual_triangles(pg)
    walks = _cut_walks(pg, cuts)
    at, r0 = _default_root(pg, cuts)
    ext = pg.external_face
    ref = r0 if at[ext] else ext
    away, owner, parent, preorder = _away_sides(pg, cuts, ref)
    held = set(_held(owner, parent, ext))
    records = []
    for c, ((cut, tri), x) in enumerate(zip(cuts, away)):
        in_a = c in held
        records += _cut_records(pg, walks, 2 * c, cut, x, in_a,
                                not in_a and ext not in tri)
    return InclusionTree(pg, records, ref, owner, parent, preorder)


def fx_counts(tree: InclusionTree):
    """Number of flexible edges on each contour path that has one, keyed
    by (cycle id, path index); a path that is not listed has none.

    Each face's boundary gets prefix sums of its flexible edges, and a
    path's count is the difference across its span; when the graph has
    no flexible edge, no face is summed and no path is listed.
    demanding_sets counts once per embedding, at its first query."""
    flexible = {e for e, k in tree.pg.graph.flex.items() if k > 0}
    if not flexible:
        return {}
    sums = [list(accumulate((e in flexible for e in f.eids), initial=0))
            for f in tree.pg.faces]
    fx = {}
    for r in tree.records:
        for j, (f, i, k) in enumerate(r.spans):
            a = sums[f]  # the flexible edges strictly between i and k
            if count := a[k] - a[i + 1] if i < k else a[-1] - a[i + 1] + a[k]:
                fx[r.cycle_id, j] = count
    return fx


# ---------------------------------------------------------------------------
# coloring


def color_3_extrovert(tree: InclusionTree, fx):
    """Two-step red-green-orange coloring of the tree's nodes, the
    non-degenerate 3-extrovert cycles at its reference face.

    Step 1 marks a path orange when it carries a flexible edge and green
    when a child's path on the same leg face, a slice of it, is already
    green; step 2 turns all-undefined cycles green (these are the
    demanding ones) and the remaining undefined paths red. fx is
    fx_counts(tree).
    """
    green = set()  # (parent id, leg face) of every green path
    for cid in reversed(tree.nodes):
        rec = tree.records[cid]
        cols = []
        for j, f in enumerate(rec.leg_faces):
            if (cid, j) in fx:
                cols.append("orange")
            elif (cid, f) in green:
                cols.append("green")
            else:
                cols.append(None)
        _settle(rec, cols)
        if "green" in rec.colors:
            parent = tree.parent[cid]
            for f, c in zip(rec.leg_faces, rec.colors):
                if c == "green":
                    green.add((parent, f))


def color_3_introvert(tree: InclusionTree, fx):
    """Color the nodes' phi partners, the 3-introvert cycles at the tree's
    reference face, without expanding them.

    The tree's nodes must already be colored by color_3_extrovert. Works
    top-down: for the children C_1..C_k of a node C, the relevant cycle
    set S is the children plus the partner of C itself. A partner path on
    leg face f' is orange exactly when it carries a flexible edge, and it
    contains a green path of another S-cycle exactly when that cycle has a
    green path incident to f'. fx is fx_counts of the tree.
    """
    records = tree.records
    green = [0] * len(tree.pg.faces)  # per face, green S-cycle paths on it
    for node in (tree.root, *tree.nodes):
        kids = tree.children.get(node)
        if not kids:
            continue
        s_cycles = [records[k] for k in kids]
        if node is not None:
            s_cycles.append(records[records[node].phi_partner])
        lit = [r for r in s_cycles if "green" in r.colors]
        for r in lit:
            for f, c in zip(r.leg_faces, r.colors):
                if c == "green":
                    green[f] += 1
        for kid in kids:
            ext = records[kid]
            intro = records[ext.phi_partner]
            cols = []
            for j, f in enumerate(intro.leg_faces):
                if (intro.cycle_id, j) in fx:
                    cols.append("orange")
                # green when another S-cycle than ext has a green path on f
                elif green[f] > (green[f] == 1 and ext.colors[
                        ext.leg_faces.index(f)] == "green"):
                    cols.append("green")
                else:
                    cols.append(None)
            _settle(intro, cols)
        for r in lit:
            for f, c in zip(r.leg_faces, r.colors):
                if c == "green":
                    green[f] -= 1


# the colors _settle gives each triple of step-1 colors, one shared tuple
# per triple, so records hold no tuple of their own
_SETTLED = {cols: tuple([c or "red" for c in cols]) if any(cols)
            else ("green",) * 3
            for cols in product((None, "green", "orange"), repeat=3)}


def _settle(rec, cols):
    """Step 2 of the coloring: a record whose paths are all undefined is
    demanding and all green, and its other undefined paths turn red."""
    rec.demanding = not any(cols)
    rec.colors = _SETTLED[tuple(cols)]


# ---------------------------------------------------------------------------
# demanding sets for an arbitrary external face


@dataclass
class DemandingSets:
    d_set: list  # pairwise non-intersecting demanding 3-extrovert cycles
    d_f: list  # members of d_set with the external face as a leg face
    reference_face: int  # the default root


def demanding_sets(pg: PlaneGraph) -> DemandingSets:
    """D(G) and D_f(G) for pg's own embedding, each in id order.

    A cycle keeps its coloring in every embedding where it stays
    3-extrovert, and a 3-introvert cycle takes the coloring of the same
    cycle as 3-extrovert in any embedding that turns it inside out. So
    the embedding's first query colors the inclusion tree of the default
    root r0 and keeps, under one key of pg.tables, r0, the cuts each face
    is on, the tree's owners and cut parents, its colored records and r0's
    D, and every query, the first too, reads them at its own external face
    f. Demanding cycles that were 3-introvert at r0, the nodes' partners,
    and share f as a leg face pairwise intersect, and drop out of D(G)
    when there are two or more of them.

    A query touches only what f changes: the cuts on f's owner chain and
    those with f as a cut face. D(f) is r0's D less the chain's records,
    plus the demanding records f turns 3-extrovert, less the dropped
    ones; only those are built, _flipped from r0's. Each query checks the
    class and lists the cuts once, in dual_triangles.
    """
    cuts = dual_triangles(pg)
    kept = pg.tables.get("colored")
    if kept is None:
        at, r0 = _default_root(pg, cuts)
        tree = inclusion_tree(pg.with_external_face(r0))
        fx = fx_counts(tree)
        color_3_extrovert(tree, fx)
        color_3_introvert(tree, fx)
        records = tree.records
        kept = pg.tables["colored"] = (
            r0, at, tree._owner, tree._cut_parent, records,
            [r for r in records[::2] if r.demanding])
    r0, at, owner, parent, records, d0 = kept
    f = pg.external_face
    held = _held(owner, parent, f)
    i_f = [c for c in at[f] if records[2 * c + 1].demanding]
    turned = {c: _flipped(records[2 * c + 1])
              for c in (held + i_f if len(i_f) < 2 else held)
              if records[2 * c + 1].demanding}
    gone = set(held)
    d_set = [r for r in d0 if r.cycle_id >> 1 not in gone]
    if turned:
        d_set += turned.values()
        d_set.sort(key=attrgetter("cycle_id"))
    d_f = [r for c in at[f] for r in (records[2 * c], turned.get(c))
           if r is not None and r.demanding]
    return DemandingSets(d_set, d_f, r0)
