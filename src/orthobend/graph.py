"""Planar 3-graph core: graphs, combinatorial embeddings, faces.

Chirality convention used everywhere in this package: rotation lists give
the incident edges in clockwise order around each vertex, and a face
boundary walk keeps its face on the LEFT of every dart. With that pair of
choices internal faces come out counterclockwise and the external face
clockwise, which is what the angle arithmetic in orthorep expects.

Edges are identified by their index into the edge list. Darts are
(edge_id, orient) pairs; orient 0 runs u -> v as stored, orient 1 the
reverse. A Face holds each dart as the flat int 2 * edge_id + orient,
whose reverse is d ^ 1, and dart_pairs turns flat darts back into pairs.
trace_faces walks parallel edges too, as it orients each dart by the
vertex it leaves, but Graph, the graph of every PlaneGraph, rejects them.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import chain

from .errors import (
    DegreeTooHigh,
    Disconnected,
    NotPlanar,
    NotSimple,
    ParseError,
)

Dart = tuple[int, int]


def dart_reverse(d: Dart) -> Dart:
    return (d[0], 1 - d[1])


def dart_pairs(darts, backwards=False):
    """Flat darts as (edge_id, orient) pairs; backwards, the same walk run
    the other way, last dart first and each dart reversed."""
    if backwards:
        return [(d >> 1, (d & 1) ^ 1) for d in reversed(darts)]
    return [(d >> 1, d & 1) for d in darts]


class Graph:
    """Simple connected graph with maximum degree three.

    flexibility maps edge id -> int in [0, 4]; absent means 0. Raises
    ParseError for a malformed vertex count, edge list or flexibility map.
    """

    def __init__(self, vertex_count, edges, flexibility=None):
        self.n = vertex_count
        try:
            self.edges = [tuple(e) for e in edges]
            self.flex = dict(flexibility or {})
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad edges or flexibility: {exc}") from None
        self._validate()
        self.adj = adjacency(self.n, self.edges)
        if self.n > 0 and not _connected(self.adj):
            raise Disconnected("graph is not connected")

    def _validate(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ParseError(f"vertex count {self.n!r} is not an int >= 0")
        if self.n > len(self.edges) + 1:
            raise Disconnected(
                f"{self.n} vertices cannot be connected by "
                f"{len(self.edges)} edges")
        seen = set()
        deg = [0] * self.n
        try:
            for i, (u, v) in enumerate(self.edges):
                if not (isinstance(u, int) and isinstance(v, int)
                        and 0 <= u < self.n and 0 <= v < self.n):
                    raise ParseError(f"edge {i} endpoint out of range")
                if u == v:
                    raise NotSimple(f"self-loop at vertex {u}")
                key = (min(u, v), max(u, v))
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
            if not (isinstance(e, int) and isinstance(k, int)
                    and 0 <= e < len(self.edges) and 0 <= k <= 4):
                raise ParseError(f"bad flexibility entry {e}: {k}")

    def degree(self, v):
        return len(self.adj[v])

    def edge_id(self, u, v):
        for w, e in self.adj[u]:
            if w == v:
                return e
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


def adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        adj[u].append((v, i))
        adj[v].append((u, i))
    return adj


def _connected(adj):
    n = len(adj)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        v = stack.pop()
        for w, _ in adj[v]:
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

    @property
    def boundary(self):
        """The darts as (edge_id, orient) pairs."""
        return dart_pairs(self.darts)

    def edge_ids(self):
        return self.eids

    def __len__(self):
        return len(self.darts)


class PlaneGraph:
    """A graph plus rotation system plus a choice of external face.
    Raises ParseError unless rotation[v] lists each of v's edges once.

    The rotation rows are kept, not copied: the caller hands over lists
    that nothing else changes. Two flat tables, filled while the faces are
    traced, index every dart d = 2e + o: _dart_face[d] is the face of dart
    (e, o) and _dart_pos[d] its position on that face's walk, so
    faces[_dart_face[d]].darts[_dart_pos[d]] == d. face_index lists per
    face the faces across its boundary darts in walk order.
    """

    def __init__(self, graph, rotation, external_face=0):
        self.graph = graph
        self.rotation = rotation
        face = self._dart_face = [-1] * (2 * len(graph.edges))
        self._dart_pos = [0] * len(face)
        self.faces = trace_faces(graph.n, graph.edges, rotation, face,
                                 self._dart_pos)
        self.external_face = _face_id(self.faces, external_face)
        if graph.n - len(graph.edges) + len(self.faces) != 2:
            raise NotPlanar("rotation system is not planar (Euler check)")
        self.face_index = [[face[d ^ 1] for d in f.darts] for f in self.faces]

    @property
    def n(self):
        return self.graph.n

    @property
    def m(self):
        return len(self.graph.edges)

    def edge(self, e):
        return self.graph.edges[e]

    def dart_tail(self, d: Dart):
        u, v = self.graph.edges[d[0]]
        return u if d[1] == 0 else v

    def dart_head(self, d: Dart):
        u, v = self.graph.edges[d[0]]
        return v if d[1] == 0 else u

    def face_of_dart(self, d: Dart) -> int:
        return self._dart_face[2 * d[0] + d[1]]

    def faces_of_edge(self, e) -> tuple[int, int]:
        return self._dart_face[2 * e], self._dart_face[2 * e + 1]

    def with_external_face(self, f: int) -> "PlaneGraph":
        """Same embedding, different external face. Face ids are stable.

        The faces are not traced again: the copy shares the faces and
        every map with self.
        """
        other = copy.copy(self)
        other.external_face = _face_id(self.faces, f)
        return other

    def external_boundary_edges(self):
        return set(self.faces[self.external_face].edge_ids())


def _face_id(faces, f):
    """f, the id of one of `faces`; ParseError when it is none."""
    if not (isinstance(f, int) and 0 <= f < len(faces)):
        raise ParseError(f"external face {f} out of range")
    return f


def _rotation_slots(n, edges, rotation):
    """Per vertex v, the flat darts leaving v in the order of rotation[v];
    parallel edges share their ends, so each is oriented by v. Raises
    ParseError unless rotation has n rows and row v lists each of v's
    edges exactly once: the rows name 2m edge ends in all, and each names
    a fresh one."""
    seen = bytearray(2 * len(edges))
    try:
        fits = len(rotation) == n and sum(map(len, rotation)) == len(seen)
    except TypeError:
        fits = False
    if not fits:
        raise ParseError(f"rotation does not list {len(seen)} edge ends "
                         f"over {n} vertices")
    slots = []
    for v, row in enumerate(rotation):
        slots.append(out := [])
        for e in row:
            try:
                d = 2 * e + edges[e].index(v)  # negative exactly when e is
            except (IndexError, TypeError, ValueError):
                d = -1
            if d < 0 or seen[d]:
                raise ParseError(f"rotation at {v} does not list its edges")
            seen[d] = 1
            out.append(d)
    return slots


def trace_faces(n, edges, rotation, dart_face=None, dart_pos=None):
    """Decompose darts into faces (face on the left of each dart).
    Raises ParseError unless rotation[v] lists v's edges, each once.

    The dart after d on its face leaves d's head next in clockwise
    order after d's reverse. dart_face and dart_pos, when given, are 2m
    slots, those of dart_face all -1, filled with each dart's face and
    its position on that face's walk."""
    after = [0] * (2 * len(edges))
    for row in _rotation_slots(n, edges, rotation):
        if row:
            last = row[-1]
            for d in row:
                after[last ^ 1] = d
                last = d
    if dart_face is None:
        dart_face, dart_pos = [-1] * len(after), [0] * len(after)
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
    g, rotation, _ = _parse(text)
    if rotation is not None:
        _rotation_slots(g.n, g.edges, rotation)
    return g


def load_plane_graph(text: str) -> PlaneGraph:
    """Like load_graph but honors optional rotation/external lines.

    A text without rotation lines gets `embed`'s embedding: the left-right
    planarity test's, identical to networkx's `check_planarity`.
    """
    g, rotation, external = _parse(text)
    if rotation is None:
        return embed(g, external)
    return PlaneGraph(g, rotation, external)


def _parse(text: str):
    lines = [ln for ln in map(str.strip, text.splitlines())
             if ln and ln[0] != "#"]
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
    external = 0
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
    for ln in rest[m:]:
        if ln.startswith("rotation"):
            try:
                lhs, rhs = ln.split(":", 1)
                v = int(lhs.split()[1])
                order = list(map(int, rhs.split()))
            except (ValueError, IndexError):
                raise ParseError(f"bad rotation line {ln!r}") from None
            if v in orders:
                raise ParseError(f"two rotation lines for vertex {v}")
            orders[v] = order
        elif ln.startswith("external"):
            try:
                external = int(ln.split(":", 1)[1])
            except (ValueError, IndexError):
                raise ParseError(f"bad external line {ln!r}") from None
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
                rotation[v] = [e for _, e in g.adj[v]]
    return g, rotation, external


def dump_graph(g: Graph) -> str:
    out = [f"{g.n} {len(g.edges)}"]
    for i, (u, v) in enumerate(g.edges):
        k = g.flexibility(i)
        out.append(f"{u} {v} {k}" if k else f"{u} {v}")
    return "\n".join(out) + "\n"
