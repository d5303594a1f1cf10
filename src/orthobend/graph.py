"""Planar 3-graph core: graphs, combinatorial embeddings, faces.

Chirality convention used everywhere in this package: rotation lists give
the incident edges in clockwise order around each vertex, and a face
boundary walk keeps its face on the LEFT of every dart. With that pair of
choices internal faces come out counterclockwise and the external face
clockwise, which is what the angle arithmetic in orthorep expects.

Edges are identified by their index into the edge list. A dart is the
flat int d = 2 * e + o of edge e: orient o = 0 runs u -> v as stored,
o = 1 the reverse. Its edge is d >> 1, its orient d & 1 and its reverse
d ^ 1. This is the one dart form of the package: adjacency rows, faces,
dart tables, corner keys, contour paths and the oracle all use it.
Graph.ends is the flat tail table, the edge list's ends in order:
ends[d] is the tail of dart d and ends[d ^ 1] its head. Graph.adj[v]
lists the darts leaving v, those with tail v, in edge-id order.
trace_faces walks parallel edges too, as it orients each dart by the
vertex it leaves, but Graph, the graph of every PlaneGraph, rejects them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import (
    DegreeTooHigh,
    Disconnected,
    NotPlanar,
    NotSimple,
    ParseError,
)

class Graph:
    """Simple connected graph with maximum degree three.

    flexibility, None or a dict, maps edge id -> int in [0, 4]; absent
    means 0. Raises ParseError for a malformed vertex count, edge list or
    flexibility map; a bool is not an int here.
    """

    def __init__(self, vertex_count, edges, flexibility=None):
        self.n = vertex_count
        if not (flexibility is None or isinstance(flexibility, dict)):
            raise ParseError(f"flexibility {flexibility!r} is not a dict")
        self.flex = dict(flexibility or {})
        try:
            self.edges = [tuple(e) for e in edges]
        except TypeError as exc:
            raise ParseError(f"bad edges: {exc}") from None
        self._validate()
        self.ends = ends = list(chain.from_iterable(self.edges))  # d's tail
        self.adj = adj = [[] for _ in range(self.n)]  # per vertex, darts out
        for d, v in enumerate(ends):
            adj[v].append(d)
        if self.n > 0 and not _connected(adj, ends):
            raise Disconnected("graph is not connected")

    def _validate(self):
        if type(self.n) is not int or self.n < 0:
            raise ParseError(f"vertex count {self.n!r} is not an int >= 0")
        if self.n > len(self.edges) + 1:
            raise Disconnected(
                f"{self.n} vertices cannot be connected by "
                f"{len(self.edges)} edges")
        n, seen = self.n, set()
        deg = [0] * n
        try:
            for i, (u, v) in enumerate(self.edges):
                if not (type(u) is int and type(v) is int
                        and 0 <= u < n and 0 <= v < n):
                    raise ParseError(f"edge {i} endpoint out of range")
                if u == v:
                    raise NotSimple(f"self-loop at vertex {u}")
                key = u * n + v if u < v else v * n + u
                if key in seen:
                    raise NotSimple(f"parallel edge {u}-{v}")
                seen.add(key)
                deg[u] += 1
                deg[v] += 1
        except ValueError:  # an edge that does not unpack to two ends
            i = next(i for i, e in enumerate(self.edges) if len(e) != 2)
            raise ParseError(f"edge {i} is {self.edges[i]}, not a pair of "
                             "ends") from None
        for v, d in enumerate(deg):
            if d > 3:
                raise DegreeTooHigh(f"vertex {v} has degree {d}")
        for e, k in self.flex.items():
            if not (type(e) is int and type(k) is int
                    and 0 <= e < len(self.edges) and 0 <= k <= 4):
                raise ParseError(f"bad flexibility entry {e}: {k}")

    def degree(self, v):
        return len(self.adj[v])

    def edge_id(self, u, v):
        for d in self.adj[u]:
            if self.ends[d ^ 1] == v:
                return d >> 1
        raise KeyError((u, v))

    def flexibility(self, e):
        return self.flex.get(e, 0)

    @property
    def m(self):
        return len(self.edges)

    def is_cubic(self):
        return all(len(a) == 3 for a in self.adj)

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"


def _connected(adj, ends):
    n = len(adj)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        v = stack.pop()
        for d in adj[v]:
            w = ends[d ^ 1]
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == n


@dataclass(slots=True)
class Face:
    """A face's boundary walk, with the face on the left of each dart: its
    flat darts, their tails and their edge ids, each in walk order."""

    id: int
    darts: list
    tails: list
    eids: list

    def edge_ids(self):
        return self.eids

    def __len__(self):
        return len(self.darts)


class PlaneGraph:
    """A graph plus rotation system plus a choice of external face.
    Raises ParseError unless rotation[v] lists each of v's edges once.

    The rotation rows are kept, not copied: the caller hands over lists
    that nothing else changes. Two flat tables, filled while the faces are
    traced, index every dart d: dart_face[d] is its face and dart_pos[d]
    its position on that face's walk, so
    faces[dart_face[d]].darts[dart_pos[d]] == d. face_index lists per
    face the faces across its boundary darts in walk order.

    tables, empty when the faces are traced, holds what other modules
    derive from the embedding alone, whatever its external face: cycles
    keeps its class check, separating cuts, their checked walks, the cuts
    on each face, and its default root's sides, cut tree, colored records
    and D, which every query reads and none changes, under its own keys.
    with_external_face views share it, as they share the faces and
    face_index, so each such table is built once per embedding.
    Nothing but that filling changes a PlaneGraph once built: its views,
    and the load_plane_graph results of texts that differ from its own in
    the external line alone, read the same lists.
    """

    def __init__(self, graph, rotation, external_face=0):
        self.graph = graph
        self.rotation = rotation
        face = self.dart_face = [-1] * (2 * len(graph.edges))
        self.dart_pos = [0] * len(face)
        self.faces = trace_faces(graph.n, graph.edges, rotation, face,
                                 self.dart_pos, graph.ends)
        self.external_face = _face_id(self.faces, external_face)
        if graph.n - len(graph.edges) + len(self.faces) != 2:
            raise NotPlanar("rotation system is not planar (Euler check)")
        self.face_index = [[face[d ^ 1] for d in f.darts] for f in self.faces]
        self.tables = {}

    @property
    def n(self):
        return self.graph.n

    @property
    def m(self):
        return len(self.graph.edges)

    def edge(self, e):
        return self.graph.edges[e]

    def dart_tail(self, d):
        return self.graph.edges[d >> 1][d & 1]

    def dart_head(self, d):
        return self.graph.edges[d >> 1][~d & 1]

    def faces_of_edge(self, e) -> tuple[int, int]:
        return self.dart_face[2 * e], self.dart_face[2 * e + 1]

    def with_external_face(self, f: int) -> "PlaneGraph":
        """Same embedding, different external face. Face ids are stable.

        The faces are not traced again: the view shares the faces and
        every map with self.
        """
        other = object.__new__(PlaneGraph)
        vars(other).update(vars(self))
        other.external_face = _face_id(self.faces, f)
        return other


def _face_id(faces, f):
    """f, the id of one of `faces`; ParseError when it is none."""
    if not (type(f) is int and 0 <= f < len(faces)):
        raise ParseError(f"external face {f} out of range")
    return f


def _successors(n, edges, rotation):
    """after[d], the dart after d on its face, per dart d: the dart that
    leaves d's head next in clockwise order after d's reverse. Parallel
    edges share their ends, so each dart is oriented by the vertex it
    leaves. Raises ParseError unless rotation has n rows and row v lists
    each of v's edges exactly once: the rows name 2m edge ends in all, and
    each fills a fresh slot of after, so none is left empty."""
    after = [-1] * (2 * len(edges))
    try:
        fits = len(rotation) == n and sum(map(len, rotation)) == len(after)
    except TypeError:
        fits = False
    if not fits:
        raise ParseError(f"rotation does not list {len(after)} edge ends "
                         f"over {n} vertices")
    for v, row in enumerate(rotation):
        last = -1
        for e in row:
            try:
                d = 2 * e + edges[e].index(v)  # negative exactly when e is
            except (IndexError, TypeError, ValueError):
                d = -1
            if d < 0:
                raise ParseError(f"rotation at {v} lists an edge not at {v}")
            if last < 0:
                first = d
            else:
                after[last ^ 1] = d
            last = d
        if last >= 0:
            after[last ^ 1] = first
    if -1 in after:  # 2m writes left a slot empty: some row repeats a dart
        d = after.index(-1) ^ 1  # the dart its tail's row misses
        raise ParseError(f"rotation at {edges[d >> 1][d & 1]} does not list "
                         "its edges")
    return after


def trace_faces(n, edges, rotation, dart_face=None, dart_pos=None,
                ends=None):
    """Decompose darts into faces (face on the left of each dart).
    Raises ParseError unless rotation[v] lists v's edges, each once.

    The dart after d on its face leaves d's head next in clockwise
    order after d's reverse. dart_face and dart_pos, when given, are 2m
    slots, those of dart_face all -1, filled with each dart's face and
    its position on that face's walk. ends, when given, is the flat tail
    table of edges, Graph.ends; else it is built here."""
    after = _successors(n, edges, rotation)
    if dart_face is None:
        dart_face, dart_pos = [-1] * len(after), [0] * len(after)
    if ends is None:
        ends = list(chain.from_iterable(edges))  # ends[d], the tail of d
    faces = []
    for start in range(len(after)):
        if dart_face[start] >= 0:
            continue
        f = len(faces)
        walk = []
        d = start
        while dart_face[d] < 0:
            dart_face[d] = f
            dart_pos[d] = len(walk)
            walk.append(d)
            d = after[d]
        faces.append(Face(f, walk, [ends[d] for d in walk],
                          [d >> 1 for d in walk]))
    if not edges and n == 1:
        faces.append(Face(0, [], [], []))
    return faces


def embed(g: Graph, external_face=0) -> PlaneGraph:
    """The left-right planarity test's embedding of g, with face
    `external_face` outside; NotPlanar if g has none.

    The rotation lists are identical to those of networkx's
    `check_planarity` on the same vertex and edge order, so face ids match
    its embedding.
    """
    from .planarity import lr_rotation  # only texts without rotation lines

    return PlaneGraph(g, lr_rotation(g), external_face)


def load_graph(text: str) -> Graph:
    """The graph of a text; ParseError when its rotation lines, which
    the graph does not keep, do not list each vertex's edges once."""
    g, rotation, _, _ = _parse(_lines(text))
    if rotation is not None:
        _successors(g.n, g.edges, rotation)
    return g


# The last embedding load_plane_graph built, as (its text before its
# external line, its text after that line, the PlaneGraph); None while a
# text is parsed and after a text with no external line.
_last = None


def load_plane_graph(text: str) -> PlaneGraph:
    """Like load_graph but honors optional rotation/external lines.

    A text without rotation lines gets `embed`'s embedding: the left-right
    planarity test's, identical to networkx's `check_planarity`.

    The last embedding built from a text with an external line is kept,
    with the text split round that line. A text that is the same but for
    one line there that _parse would take as the external line is not
    split or parsed: it gets the embedding's with_external_face view,
    which shares the faces and every table with the earlier result, or
    the ParseError a cold load raises for a face out of range. Any other
    text empties the slot before it is parsed.
    """
    global _last
    if _last is not None:
        head, tail = _last[0], _last[1]
        line = text[len(head):len(text) - len(tail)]
        key, colon, face = line.partition(":")
        if (text.startswith(head) and text.endswith(tail) and colon
                and key.split() == ["external"]
                and line.splitlines() == [line]):
            try:
                return _last[2].with_external_face(int(face))
            except ValueError:  # int's; _face_id raises ParseError
                pass
        _last = None  # no local name keeps the old embedding alive
    lines = _lines(text)
    g, rotation, external, at = _parse(lines)
    if rotation is None:
        pg = embed(g, external)
    else:
        pg = PlaneGraph(g, rotation, external)
    if at is not None:  # the one raw line that strips to the external line
        raw = text.splitlines(keepends=True)
        i = [ln.strip() for ln in raw].index(lines[at])
        head = "".join(raw[:i])
        _last = head, text[len(head) + len(raw[i].splitlines()[0]):], pg
    return pg


def _lines(text):
    """The lines of a text that _parse reads: stripped, with blank lines
    and comments dropped."""
    return [ln for ln in map(str.strip, text.splitlines())
            if ln and ln[0] != "#"]


def _parse(lines):
    """(graph, rotation or None, external face, index of the external
    line in lines or None) of a text's _lines."""
    if not lines:
        raise ParseError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"bad header {lines[0]!r}, want 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"bad header {lines[0]!r}") from None
    if m < 0:
        raise ParseError(f"negative edge count {m}")
    edges = []
    flex = {}
    orders = {}
    external = at = None
    rest = lines[1:]
    if len(rest) < m:
        raise ParseError(f"expected {m} edge lines, found {len(rest)}")
    for i in range(m):
        parts = rest[i].split()
        if len(parts) not in (2, 3):
            raise ParseError(f"bad edge line {rest[i]!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            k = int(parts[2]) if len(parts) == 3 else 0
        except ValueError:
            raise ParseError(f"bad edge line {rest[i]!r}") from None
        edges.append((u, v))
        if k:
            if not (0 <= k <= 4):
                raise ParseError(f"flex {k} out of range on line {rest[i]!r}")
            flex[i] = k
    for i, ln in enumerate(rest[m:], m + 1):
        # "rotation v: e e e" or "external: f", the keyword a whole word
        head, colon, body = ln.partition(":")
        key = head.split()
        word = key[0] if key else ""
        if word == "rotation" and colon and len(key) == 2:
            try:
                v = int(key[1])
                order = list(map(int, body.split()))
            except ValueError:
                raise ParseError(f"bad rotation line {ln!r}") from None
            if v in orders:
                raise ParseError(f"two rotation lines for vertex {v}")
            orders[v] = order
        elif word == "external" and colon and len(key) == 1:
            if external is not None:
                raise ParseError("two external lines")
            try:
                external = int(body)
            except ValueError:
                raise ParseError(f"bad external line {ln!r}") from None
            at = i
        elif word in ("rotation", "external"):
            raise ParseError(f"bad {word} line {ln!r}")
        else:
            raise ParseError(f"unrecognized line {ln!r}")
    g = Graph(n, edges, flex)
    rotation = None
    if orders:
        if not all(0 <= v < n for v in orders):
            raise ParseError(f"rotation line for a vertex outside 0..{n - 1}")
        rotation = list(map(orders.get, range(n)))
        for v, row in enumerate(rotation):
            if row is None:  # no rotation line: its edges in input order
                rotation[v] = [d >> 1 for d in g.adj[v]]
    return g, rotation, 0 if external is None else external, at


def dump_graph(g: Graph) -> str:
    out = [f"{g.n} {len(g.edges)}"]
    for i, (u, v) in enumerate(g.edges):
        k = g.flexibility(i)
        out.append(f"{u} {v} {k}" if k else f"{u} {v}")
    return "\n".join(out) + "\n"
