"""Cycle machinery for plane triconnected cubic graphs, plus the 2- and
3-extrovert cycles of any biconnected plane 3-graph.

Everything here revolves around one fact: in a triconnected cubic plane
graph, the three legs of a 3-extrovert or 3-introvert cycle form a
3-edge-cut, and 3-edge-cuts are exactly the 3-cycles of the dual over
three distinct faces. Detection therefore enumerates dual triangles; no
simple-cycle enumeration happens in production code (the brute-force
route lives in the oracle module and is only used to cross-check this
one). One enumerator, _dual_cycles, lists the dual 2- and 3-cycles for
extrovert_cycles, on a wider class where two faces may share more than
one edge: each face maps its neighbours to the edges joining them, and
each joined pair f < g closes with every face h > g in the smaller of
their two maps, once per choice of joining edges. In the class of
inclusion_tree one edge joins each pair of adjacent faces, and
dual_triangles walks the same maps, each neighbour to its one edge, in
the same order, listing a triangle only when its cut edges share no
vertex.

A record is its cut plus the faces on its inside. The sides of the
separating cuts are laminar, so one numbering of the faces makes the side
of every cut away from a root face, on no separating triangle, a single
interval; their tree is the 4-block tree of the dual triangulation (Kant,
1997). A spanning tree of the graph gives each such side's size and the
end of cut[0] on it without a flood: the vertices under an odd number of
the cut's tree edges lie on that side, and a cubic side with S vertices
bounds (S - 1) / 2 faces. Taken from the smallest up, each side floods
only the faces no smaller side took, stepping over a finished smaller
side to its cut faces, so each face is expanded once; numbering the faces
by a depth-first walk of the resulting cut tree, each side's own faces
first, makes every side an interval. An inside is that interval or its
complement, with the cut's faces in or out, so membership and size are
O(1).

Each cut face holds two cut edges, at positions i and j of its
boundary, and its boundary between them splits into two arcs, one facing
each side. The cycle bounding a side is the chain of the arcs facing it,
walked with the inside on the left; each contour path is one arc, its
leg the cut edge at its tail and its leg face the arc's face. One walk of
the cut faces, from the dart of cut[0] that ends on one side, chains
that side's arcs as spans (f, i, j) of boundary positions; PlaneGraph's
dart tables give each cut edge's dart on a face and its position there.
The other side's arcs are the same faces in reverse order, as spans
(f, j, i). So each cut is walked once for both of its records, which
_cut_records builds in one step, slicing each arc's tails and darts
once: the tails for the checks that each side's arcs close a simple
cycle with every cut edge a leg, the darts for the smallest, which picks
the path that comes last. A record holds no dart: it keeps its spans,
plus one flag for a chain walked backwards, into its graph's faces,
which hold their darts, tails and edge ids; the darts, edges and
vertices are read off the faces on request.

A dual triangle whose three cut edges share a primal vertex v is facial:
its one degenerate cycle runs round v's face fan, 3-extrovert with every
face but the fan inside when v lies on the external boundary, and
3-introvert with the fan inside when v is internal. The count reads no
degenerate cycle, so the demanding path never builds one:
inclusion_tree holds records only for the separating triangles, those
whose three cut edges share no vertex, and facial_records builds the
degenerate cycles on request.

A separating triangle splits the other faces into two sides. With the
external face in side B, side A is the inside of a 3-extrovert cycle
and A plus the triangle's faces the inside of its 3-introvert partner
with the same legs; with the external face one of the triangle's own
faces, both sides are the insides of two 3-extrovert twins.

Moving the external face never changes which cycles and legs exist, only
which side of each cycle is its inside: the side that does not hold the
external face. So each query checks its graph's class, picks a reference
face on no separating triangle and numbers the faces once, rooted at that
face, without a copy of the embedding; then it builds each record once,
as the query's own external face sees it. The inclusion tree and the
colors belong to the cut sides away from the reference face: a tree node
is the cycle round such a side, 3-extrovert at the reference face, and
is 3-introvert at the query's face when that face lies in its side. A
color stays with its path's leg face, whichever way the path is walked.

Coloring follows the two-step green-counter formulation and reads each
record's own contour paths. A child's path on a leg face is a contiguous
slice of its parent's path on that face, and sibling slices do not
overlap, so a parent path is green exactly when a child path on its leg
face is green. Flexible edges are counted by per-face prefix sums along
the boundaries, so a path's count is a difference across its span and no
dart is walked.

extrovert_cycles serves the no-bend drawing alone, on a wider class: any
biconnected plane 3-graph, chains of degree-2 vertices included, so the
dual may have parallel edges. Each k-edge-cut, k = 2 or 3, is a dual
k-cycle over k distinct faces; the same walk gives the cycle next to
each of its sides as a CycleRecord built as the 3-cycle records are,
with its legs, leg vertices, leg faces and contour paths, and a dual
flood that never enters a cut face gives that cycle's inside as a
frozenset. It costs O(faces) per cut, so it is not linear, and the
demanding path never calls it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import accumulate, chain, combinations, product

from .errors import (
    NoTwin, NotBiconnected, NotTriconnectedCubic, ShortExternalFace,
)
# embed is unused here, but the benchmark's tests read it as cycles.embed
from .graph import PlaneGraph, dart_pairs, embed


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
    j', walked backwards with every dart reversed when `reverse`. The
    spans index `faces`, the PlaneGraph's faces, each with its boundary
    darts, their tails and their edge ids. contour_paths, edges, vertices
    and leg_vertices read them on request.
    """

    # from 0 when separating; -1 - v round vertex v; the index in the list
    # extrovert_cycles returns
    cycle_id: int
    kind: str  # "extrovert" | "introvert"
    legs: tuple
    leg_faces: tuple
    spans: tuple
    reverse: bool
    # an Inside for the 3-cycle records, a frozenset from extrovert_cycles
    inside_faces: Inside | frozenset
    degenerate: bool
    faces: list = field(repr=False)  # pg.faces
    # the cycle id of the other record of the same cut: the 3-introvert
    # partner of a 3-extrovert cycle, or its twin when the external face is
    # a cut face; None round a vertex
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
        return tuple(tuple(dart_pairs(arc, self.reverse))
                     for arc in self._arcs("darts"))

    @property
    def edges(self):
        return frozenset(chain.from_iterable(self._arcs("eids")))

    @property
    def vertices(self):  # the darts' tails, the same set walked either way
        return frozenset(chain.from_iterable(self._arcs("tails")))

    @property
    def leg_vertices(self):
        faces = self.faces
        if self.reverse:  # the head of the arc's last dart
            return tuple(faces[f].tails[j] for f, _, j in self.spans)
        return tuple(faces[f].tails[(i + 1) % len(faces[f])]
                     for f, i, _ in self.spans)


class Inside:
    """The inside faces of a record in O(1) space: `in` and len are O(1).

    numbering is (order, at), a face numbering shared by the records of
    one call and its inverse, in which faces lo..hi-1 are one side of the
    cut with faces `tri`. The inside is that side, or with `out` every face
    outside it and `tri`, plus `tri` exactly when `cut_faces`.
    """

    __slots__ = ("numbering", "lo", "hi", "tri", "out", "cut_faces")

    def __init__(self, numbering, lo, hi, tri, out, cut_faces):
        self.numbering = numbering
        self.lo, self.hi, self.tri = lo, hi, tri
        self.out, self.cut_faces = out, cut_faces

    def __contains__(self, f):
        if f in self.tri:
            return self.cut_faces
        return (self.lo <= self.numbering[1][f] < self.hi) != self.out

    def __len__(self):
        k = self.hi - self.lo
        if self.out:
            k = len(self.numbering[0]) - len(self.tri) - k
        return k + len(self.tri) * self.cut_faces

    def __iter__(self):  # O(faces), for checks
        return (f for f in self.numbering[0] if f in self)


def _class_index(pg: PlaneGraph):
    """pg.face_index; NotTriconnectedCubic, naming a witness, outside the
    class of inclusion_tree: triconnected cubic graphs."""
    across = pg.face_index
    if not pg.graph.is_cubic() or any(f in nbrs or len(set(nbrs)) < len(nbrs)
                                      for f, nbrs in enumerate(across)):
        raise NotTriconnectedCubic(
            "3-cycle records need a triconnected cubic graph: "
            + _class_witness(pg))
    return across


def _class_witness(pg: PlaneGraph):
    """Why pg is outside the class of inclusion_tree: a vertex whose
    degree is not 3, a bridge, which has one face on both sides, or two
    edges joining one pair of faces."""
    for v, nbrs in enumerate(pg.graph.adj):
        if len(nbrs) != 3:
            return f"vertex {v} has degree {len(nbrs)}"
    across = pg.face_index
    for f, nbrs in enumerate(across):
        if f in nbrs:
            return (f"edge {pg.faces[f].eids[nbrs.index(f)]} has face {f} "
                    "on both sides")
    for f, nbrs in enumerate(across):
        first = {}
        for g, e in zip(nbrs, pg.faces[f].eids):
            if g in first:
                return (f"edges {first[g]} and {e} both join faces "
                        f"{min(f, g)} and {max(f, g)}")
            first[g] = e
    raise AssertionError("no witness outside the class")


def _dual_cycles(pg: PlaneGraph, k):
    """The k-edge-cuts of pg, k = 2 or 3, each once, as (cut_edges,
    cut_faces): the dual k-cycles over k distinct faces, by their smallest
    face, the faces in increasing order. A triangle over faces (f, g, h)
    is (f|g, g|h, h|f), one per choice of the edges joining each pair.

    Each face maps its neighbours to the edges joining them, in increasing
    order, and h ranges over the smaller map of f and g. Raises
    NotBiconnected when an edge has one face on both sides."""
    joins = [{} for _ in pg.faces]  # per face: neighbour -> joining edges
    for e in range(pg.m):
        f, g = pg.faces_of_edge(e)
        if f == g:
            raise NotBiconnected(f"edge {e} is a bridge")
        fg = joins[f].get(g)
        if fg is None:
            joins[f][g] = joins[g][f] = [e]  # one list for both ends
        else:
            fg.append(e)
    found = []
    for f, at_f in enumerate(joins):
        for g, fg in at_f.items():
            if g < f:
                continue
            if k == 2:
                found += [(cut, (f, g)) for cut in combinations(fg, 2)]
                continue
            at_g = joins[g]
            small, big = ((at_f, at_g) if len(at_f) < len(at_g)
                          else (at_g, at_f))
            for h in small:
                if h > g and h in big:
                    tri = (f, g, h)
                    for cut in product(fg, at_g[h], at_f[h]):
                        found.append((cut, tri))
    return found


def dual_triangles(pg: PlaneGraph):
    """The separating 3-edge-cuts of a pg in the class of inclusion_tree
    as (cut_edges, cut_faces), each once, by their smallest face: the dual
    triangles of _dual_cycles whose cut edges l1 (f|g) and l2 (g|h) do not
    meet, in the same order.

    The other dual triangles are facial, one round each vertex: there l1
    and l2 meet at the vertex, as the third edge there joins h|f, and no
    two cut edges of a separating triangle meet. In the class one edge
    joins each pair of adjacent faces, so each face maps its neighbours to
    that edge, and a triangle is tested before it is listed.
    """
    ends, darts = pg.graph.edges, iter(pg._dart_face)
    joins = [{} for _ in pg.faces]  # per face: neighbour -> joining edge
    for e, (f, g) in enumerate(zip(darts, darts)):
        joins[f][g] = joins[g][f] = e
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
    return found


def _between(seq, i, j):
    """The items of seq strictly after position i and before position j,
    going round cyclically."""
    return seq[i + 1:j] if i < j else seq[i + 1:] + seq[:j]


def _cut_arcs(pg: PlaneGraph, cut, x):
    """The arcs facing the side of x, an end of cut[0], as spans (face, i,
    j) in walk order; None when the walk of the cut faces does not close.

    Each cut face holds two cut edges, at positions i and j of its
    boundary, and the arcs strictly between them face the cut's two
    sides. The arcs facing x's side chain head to tail from the dart of
    cut[0] that ends at x, each walked with its face on the left; the arcs
    facing the other side are _far_arcs of them. The dart tables give each
    cut edge's dart on a face, and its position there.
    """
    face, pos = pg._dart_face, pg._dart_pos
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
    if d != start:
        return None
    return tuple(spans)


def _far_arcs(spans):
    """The arcs facing the other side of the cut whose arcs facing one
    side are `spans`: the same faces in reverse order, each arc the rest
    of its face's boundary between the same two cut edges."""
    return tuple([(f, j, i) for f, i, j in reversed(spans)])


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


def _record(pg: PlaneGraph, cycle_id, spans, inside, degenerate, phi=None):
    """The record of the cycle whose arcs `spans` chain in walk order,
    whose inside is `inside`: 3-introvert exactly when the cut faces lie
    inside, and otherwise walked backwards, so the inside is always on the
    left. A path's leg is the cut edge at its tail and its leg face the
    arc's face. The path holding the cycle's smallest edge comes last.
    _cut_records builds the records of the separating cuts inline."""
    faces = pg.faces
    reverse = spans[0][0] not in inside
    if reverse:
        spans = spans[::-1]
    low = []  # per span, its smallest edge: min(_between(...)), inline
    for f, i, j in spans:
        es = faces[f].eids
        low.append(min(es[i + 1:j]) if i < j else min(es[i + 1:] + es[:j]))
    k = low.index(min(low)) + 1
    spans = spans[k:] + spans[:k]
    if reverse:
        legs = tuple([faces[f].eids[j] for f, _, j in spans])
    else:
        legs = tuple([faces[f].eids[i] for f, i, _ in spans])
    return CycleRecord(cycle_id, "extrovert" if reverse else "introvert",
                       legs, tuple([f for f, _, _ in spans]), spans, reverse,
                       inside, degenerate, faces, phi)


def _cut_records(pg: PlaneGraph, i, cut, x, inside_a, inside_b):
    """Records i and i + 1 of a separating cut: the cycles round the side
    of x, an end of cut[0], and round the other side, with insides
    inside_a and inside_b, each phi-linked to the other.

    One walk of the cut faces gives the arcs facing x's side, and the
    rest of each cut face's boundary faces the other side. Each arc's
    tails give its side's vertices, for the checks that each side closes
    a simple cycle with every cut edge a leg, and its darts its smallest
    dart. The rest is _record's, inline: a record is walked backwards
    exactly when the cut faces lie outside it, and its path holding the
    smallest edge comes last.
    """
    faces, ends = pg.faces, pg.graph.edges
    near = _cut_arcs(pg, cut, x)
    assert near, "cut faces close no walk"
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
    assert 3 <= len(walked_a) == len(side_a), "side A's arcs close no cycle"
    assert 3 <= len(walked_b) == len(side_b), "side B's arcs close no cycle"
    for c in cut:
        u, v = ends[c]
        assert (u in side_a) != (v in side_a), f"edge {c} is no leg of A"
        assert (u in side_b) != (v in side_b), f"edge {c} is no leg of B"
    low_b.reverse()
    out = []
    for cid, spans, low, inside in ((i, near, low_a, inside_a),
                                    (i + 1, _far_arcs(near), low_b,
                                     inside_b)):
        reverse = not inside.cut_faces
        if reverse:
            spans, low = spans[::-1], low[::-1]
        k = low.index(min(low)) + 1
        (f0, i0, j0), (f1, i1, j1), (f2, i2, j2) = spans = (spans[k:]
                                                            + spans[:k])
        if reverse:
            legs = faces[f0].eids[j0], faces[f1].eids[j1], faces[f2].eids[j2]
        else:
            legs = faces[f0].eids[i0], faces[f1].eids[i1], faces[f2].eids[i2]
        out.append(CycleRecord(
            cid, "extrovert" if reverse else "introvert", legs, (f0, f1, f2),
            spans, reverse, inside, False, faces, cid ^ 1))
    return out


def _spanning_tree(pg: PlaneGraph, root):
    """A depth-first spanning tree of pg's graph from vertex root: per
    vertex its preorder number, its subtree's size and the edge to its
    parent (-1 at the root)."""
    edges, adj = pg.graph.edges, pg.graph.adj
    pre, up, order = [-1] * pg.n, [-1] * pg.n, []
    stack = [(root, -1)]
    while stack:
        v, e = stack.pop()
        if pre[v] < 0:
            pre[v], up[v] = len(order), e
            order.append(v)
            for step in adj[v]:  # (neighbour, edge)
                if pre[step[0]] < 0:
                    stack.append(step)
    size = [1] * pg.n
    for v in reversed(order[1:]):
        a, b = edges[up[v]]
        size[a + b - v] += size[v]  # v's parent
    return pre, size, up


def _away_sides(pg: PlaneGraph, across, cuts, root):
    """A face numbering (order, at); per cut of `cuts`, the interval
    (lo, hi) of its side away from face `root`, on no cut, in that
    numbering, with the end of cut[0] on that side; and the cut tree, as
    each cut's parent (-1 at the root) and the cuts in preorder.

    A side holds the vertices under an odd number of its cut's tree edges,
    and S such vertices bound (S - 1) / 2 faces. Smallest first, each side
    floods the faces no smaller side took and steps over a finished
    smaller side, now its child, to that side's cut faces, so each face is
    expanded once. A depth-first walk of the cut tree, each side's own
    faces first, numbers every side as one interval.
    """
    edges, face = pg.graph.edges, pg._dart_face
    pre, size, up = _spanning_tree(pg, pg.faces[root].tails[0])
    count, ends = [], []
    for cut, _ in cuts:
        kids = []  # the ends of the cut's tree edges away from the root
        for e in cut:
            a, b = edges[e]
            if up[a] == e:
                kids.append(a)
            elif up[b] == e:
                kids.append(b)
        u, v = edges[cut[0]]
        s, odd = 0, False
        for c in kids:  # a subtree counts with the sign of its parity
            lo, hi = pre[c], pre[c] + size[c]
            sign = 1
            for d in kids:
                if d != c and pre[d] <= lo < pre[d] + size[d]:
                    sign = -sign
            s += sign * size[c]
            odd ^= lo <= pre[u] < hi
        count.append((s - 1) // 2)
        ends.append(u if odd else v)

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
        for e in pg.rotation[ends[c]]:
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

    own = [[] for _ in range(len(cuts) + 1)]  # the last one is the root's
    kids = [[] for _ in range(len(cuts) + 1)]
    for f, c in enumerate(owner):
        own[c].append(f)
    for c, p in enumerate(parent):
        kids[p].append(c)
    order, lo, walk, stack = [], [0] * (len(cuts) + 1), [], [-1]
    while stack:
        c = stack.pop()
        walk.append(c)
        lo[c] = len(order)
        order += own[c]
        stack += kids[c]
    at = [0] * len(order)
    for i, f in enumerate(order):
        at[f] = i
    return ((order, at), [(lo[c], lo[c] + count[c], ends[c])
                          for c in range(len(cuts))], parent, walk[1:])


def _reference_face(cuts, faces, f0):
    """f0 when it is on none of `cuts`, the separating triangles
    dual_triangles lists, else the lowest face of `faces` that is on
    none."""
    on_cut = {f for _, tri in cuts for f in tri}
    for f in (f0, *range(len(faces))):
        if f not in on_cut:
            return f
    raise AssertionError("every face lies on a separating triangle")


def _root_records(pg: PlaneGraph):
    """(records, parent, preorder, reference_face): both records of every
    separating cut c of pg, ids 2c and 2c + 1, as pg's external face sees
    them, with the cut tree of _away_sides rooted at the reference face
    _reference_face picks.

    Record 2c is the cycle round the cut's side A away from the reference
    face and 2c + 1 the cycle round the other side B. Each has the side
    that does not hold pg's external face inside: record 2c A, or B and
    the cut faces when the face lies in A; record 2c + 1 B, or A and the
    cut faces when the face lies in B. Raises NotTriconnectedCubic as
    inclusion_tree does.
    """
    across = _class_index(pg)
    cuts = dual_triangles(pg)
    ext = pg.external_face
    ref = _reference_face(cuts, pg.faces, ext)
    numbering, sides, parent, preorder = _away_sides(pg, across, cuts, ref)
    at_ext = numbering[1][ext]
    records = []
    for (cut, tri), (lo, hi, x) in zip(cuts, sides):
        in_a = lo <= at_ext < hi and ext not in tri
        in_b = not in_a and ext not in tri
        records += _cut_records(pg, len(records), cut, x,
                                Inside(numbering, lo, hi, tri, in_a, in_a),
                                Inside(numbering, lo, hi, tri, not in_b, in_b))
    return records, parent, preorder, ref


def facial_records(pg: PlaneGraph):
    """The degenerate 3-cycles of pg, one per vertex v with cycle id
    -1 - v: the cycle round v's face fan, whose legs are v's three edges.

    The cycle is 3-extrovert, with every face but the fan inside, when v
    lies on the external face, and 3-introvert with the fan inside when v
    is internal. Raises NotTriconnectedCubic as inclusion_tree does.
    """
    _class_index(pg)
    ext = pg.external_face
    faces = range(len(pg.faces))
    records = []
    for v, cut in enumerate(pg.rotation):
        fan = frozenset(f for e in cut for f in pg.faces_of_edge(e))
        outer = ext in fan
        u, w = pg.edge(cut[0])
        cut = tuple(cut)
        spans = _cut_arcs(pg, cut, w if u == v else u)
        simple = spans and _cycle_vertices(pg, cut, spans)
        assert simple, "fan arcs close no cycle with three legs"
        records.append(_record(
            pg, -1 - v, spans,
            Inside((faces, faces), 0, 0, fan, outer, not outer), True))
    return records


# ---------------------------------------------------------------------------
# 2- and 3-extrovert cycles of any biconnected plane 3-graph


def extrovert_cycles(pg: PlaneGraph, k):
    """The k-extrovert cycles of pg, k = 2 or 3, as CycleRecords of kind
    "extrovert" with ids 0, 1, ... in the order listed.

    pg may be any biconnected plane 3-graph; an edge with one face on both
    sides, a bridge, raises NotBiconnected, and a k other than 2 or 3
    ValueError. Each side of a k-edge-cut is bounded by the cycle the cut
    faces' arcs facing it chain, when that is a simple cycle with every
    cut edge a leg. Its inside, a frozenset, is a dual flood from the faces
    on its left that never enters a cut face, and the cycle is k-extrovert
    when that inside does not hold the external face. A 3-extrovert cycle
    is degenerate when its legs meet in one vertex off it. A k-extrovert
    cycle's legs are its cut, and each cut is listed once, so no cycle
    comes twice. O(faces) per cut.
    """
    if k not in (2, 3):
        raise ValueError(f"extrovert cycles have 2 or 3 legs, not {k}")
    across = pg.face_index
    ends = pg.graph.edges
    found = []
    for cut, faces in _dual_cycles(pg, k):
        near = _cut_arcs(pg, cut, ends[cut[0]][0])
        for spans in (near, _far_arcs(near)) if near else ():
            vertices = _cycle_vertices(pg, cut, spans)
            if vertices is None:
                continue
            # the faces on the left of the reversed darts
            inside = {g for f, i, j in spans
                      for g in _between(across[f], i, j)}
            stack = list(inside)
            while stack:
                for f in across[stack.pop()]:
                    if f not in inside and f not in faces:
                        inside.add(f)
                        stack.append(f)
            if pg.external_face not in inside:
                far = {v for e in cut for v in ends[e] if v not in vertices}
                found.append(_record(pg, len(found), spans,
                                     frozenset(inside),
                                     k == 3 and len(far) == 1))
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
    """

    root = None

    def __init__(self, pg, records, parent, preorder, reference_face):
        self.pg = pg
        self.records = records
        self.reference_face = reference_face
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
    ids 2c and 2c + 1, phi-linked; facial_records has the degenerate ones.
    It is rooted at reference_face, pg's external face when that is on no
    separating triangle, else the lowest face on none. Raises
    NotTriconnectedCubic, naming a witness, unless pg's graph is cubic and
    triconnected: unless every edge joins its own pair of faces."""
    return InclusionTree(pg, *_root_records(pg))


def fx_counts(tree: InclusionTree):
    """Number of flexible edges on each contour path that has one, keyed
    by (cycle id, path index); a path that is not listed has none.

    Each face's boundary gets prefix sums of its flexible edges once, and
    a path's count is the difference across its span; when the graph has
    no flexible edge, no face is summed and no path is listed."""
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


_ALL_GREEN = ("green",) * 3


def _settle(rec, cols):
    """Step 2 of the coloring: a record whose paths are all undefined is
    demanding and all green, and its other undefined paths turn red."""
    rec.demanding = not any(cols)
    rec.colors = (_ALL_GREEN if rec.demanding
                  else tuple([c or "red" for c in cols]))


# ---------------------------------------------------------------------------
# demanding sets for an arbitrary external face


@dataclass
class DemandingSets:
    # inclusion_tree(pg).records, colored: each record's colors belong to its
    # cycle as 3-extrovert or 3-introvert at the reference face
    records: list
    d_set: list  # pairwise non-intersecting demanding 3-extrovert cycles
    d_f: list  # members of d_set with the external face as a leg face
    reference_face: int


def demanding_sets(pg: PlaneGraph) -> DemandingSets:
    """D(G) and D_f(G) for pg's own embedding.

    The 3-cycle records are built once, as pg's external face sees them,
    and their inclusion tree is rooted and colored at a reference face. A
    cycle keeps its coloring in every embedding where it stays
    3-extrovert, and a 3-introvert cycle takes the coloring of the same
    cycle as 3-extrovert in any embedding that turns it inside out.
    Demanding cycles that were 3-introvert at the reference face, the
    nodes' partners, and share the external face as a leg face pairwise
    intersect, and drop out of D(G) when there are two or more of them.
    """
    tree = inclusion_tree(pg)
    fx = fx_counts(tree)
    color_3_extrovert(tree, fx)
    color_3_introvert(tree, fx)

    ext = pg.external_face
    records = tree.records
    partners = (records[records[c].phi_partner] for c in tree.nodes)
    i_f = {r.cycle_id for r in partners
           if r.demanding and ext in r.leg_faces}
    drop = i_f if len(i_f) >= 2 else set()
    d_set = [r for r in records
             if r.kind == "extrovert" and r.demanding
             and r.cycle_id not in drop]
    d_f = [r for r in d_set if ext in r.leg_faces]
    return DemandingSets(records, d_set, d_f, tree.reference_face)


# ---------------------------------------------------------------------------
# twins and covers


def twin(pg: PlaneGraph, c: CycleRecord, records) -> CycleRecord:
    """The other boundary cycle of c's own 3-edge-cut: its phi partner.

    Defined exactly when c is non-degenerate and shares an edge with the
    external boundary (equivalently the external face is a leg face); it
    is read from records, inclusion_tree(pg).records."""
    if c.degenerate:
        raise NoTwin("degenerate cycles have no twin")
    if pg.external_face not in c.leg_faces:
        raise NoTwin("cycle does not touch the external boundary")
    return next(r for r in records if r.cycle_id == c.phi_partner)


def intersecting_cover(pg: PlaneGraph, cycles, records):
    """Two non-adjacent external edges e1, e2 such that every cycle of a
    pairwise-intersecting family contains one of them; records are
    inclusion_tree(pg).records, where twin finds a cycle's twin."""
    boundary = pg.faces[pg.external_face].edge_ids()
    if len(boundary) < 4:
        raise ShortExternalFace(
            f"external face {pg.external_face} has {len(boundary)} edges; "
            "a cover needs two non-adjacent ones")
    nondeg = [c for c in cycles if not c.degenerate]
    if nondeg:
        c1 = nondeg[0]
        t = twin(pg, c1, records)
        ext = set(boundary)
        own = sorted(c1.edges & ext)
        other = sorted(t.edges & ext)
        assert own and other, "twin pair misses the external boundary"
        e1, e2 = own[0], other[0]
        assert not set(pg.edge(e1)) & set(pg.edge(e2))
        return e1, e2
    # all degenerate (or empty): any two non-adjacent external edges do
    e1 = boundary[0]
    for e2 in boundary[2:]:
        if not set(pg.edge(e1)) & set(pg.edge(e2)):
            return e1, e2
    raise AssertionError("external face has no non-adjacent edge pair")

