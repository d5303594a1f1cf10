"""Planar 3-graph core: graphs, combinatorial embeddings, faces.

Chirality convention used everywhere in this package: rotation lists give
the incident edges in clockwise order around each vertex, and a face
boundary walk keeps its face on the LEFT of every dart. With that pair of
choices internal faces come out counterclockwise and the external face
clockwise, which is what the angle arithmetic in orthorep expects.

Edges are identified by their index into the edge list. Darts are
(edge_id, orient) pairs; orient 0 runs u -> v as stored, orient 1 the
reverse. Parallel edges are tolerated by trace_faces (SPQR skeletons need
them) but rejected by Graph, which is the graph of every PlaneGraph.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

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


class Graph:
    """Simple connected graph with maximum degree three.

    flexibility maps edge id -> int in [0, 4]; absent means 0.
    """

    def __init__(self, vertex_count, edges, flexibility=None):
        self.n = vertex_count
        self.edges = [tuple(e) for e in edges]
        self.flex = dict(flexibility or {})
        self._validate()
        self.adj = adjacency(self.n, self.edges)

    def _validate(self):
        if self.n < 0:
            raise ParseError(f"negative vertex count {self.n}")
        if self.n > len(self.edges) + 1:
            raise Disconnected(
                f"{self.n} vertices cannot be connected by "
                f"{len(self.edges)} edges")
        seen = set()
        deg = [0] * self.n
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
        for v, d in enumerate(deg):
            if d > 3:
                raise DegreeTooHigh(f"vertex {v} has degree {d}")
        for e, k in self.flex.items():
            if not (0 <= e < len(self.edges)) or not (0 <= k <= 4):
                raise ParseError(f"bad flexibility entry {e}: {k}")
        if self.n > 0 and not _connected(self.n, self.edges):
            raise Disconnected("graph is not connected")

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

    def degrees(self):
        return [len(a) for a in self.adj]

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


def _connected(n, edges):
    adj = adjacency(n, edges)
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


@dataclass
class Face:
    id: int
    boundary: list  # darts in walk order, face on the left of each
    is_external: bool = False

    def edge_ids(self):
        return [e for e, _ in self.boundary]

    def __len__(self):
        return len(self.boundary)


class PlaneGraph:
    """A graph plus rotation system plus a choice of external face."""

    def __init__(self, graph, rotation, external_face=0):
        self.graph = graph
        self.rotation = [list(r) for r in rotation]
        self.faces = trace_faces(graph.n, graph.edges, self.rotation)
        if not (0 <= external_face < len(self.faces)):
            raise ParseError(f"external face {external_face} out of range")
        self.external_face = external_face
        for f in self.faces:
            f.is_external = f.id == external_face
        if graph.n - len(graph.edges) + len(self.faces) != 2:
            raise NotPlanar("rotation system is not planar (Euler check)")
        self._dart_face = {}
        for f in self.faces:
            for d in f.boundary:
                self._dart_face[d] = f.id
        self._edge_faces = [
            (self._dart_face[(e, 0)], self._dart_face[(e, 1)])
            for e in range(len(graph.edges))
        ]
        self._rotpos = [
            {e: i for i, e in enumerate(r)} for r in self.rotation
        ]

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
        return self._dart_face[d]

    def faces_of_edge(self, e) -> tuple[int, int]:
        return self._edge_faces[e]

    def other_face(self, e, f) -> int:
        a, b = self._edge_faces[e]
        if a == f:
            return b
        if b == f:
            return a
        raise KeyError(f"face {f} not incident to edge {e}")

    def with_external_face(self, f: int) -> "PlaneGraph":
        """Same embedding, different external face. Face ids are stable."""
        return PlaneGraph(self.graph, self.rotation, f)

    def external_boundary_edges(self):
        return set(self.faces[self.external_face].edge_ids())


def trace_faces(n, edges, rotation):
    """Decompose darts into faces (face on the left of each dart)."""
    rotpos = [{e: i for i, e in enumerate(r)} for r in rotation]
    adj_count = [len(r) for r in rotation]

    def head(d):
        u, v = edges[d[0]]
        return v if d[1] == 0 else u

    def next_dart(d):
        w = head(d)
        i = rotpos[w][d[0]]
        e2 = rotation[w][(i + 1) % adj_count[w]]
        u2, v2 = edges[e2]
        # leave w along e2; parallel edges share endpoints so orient by w
        return (e2, 0) if u2 == w else (e2, 1)

    assigned = {}
    faces = []
    for e in range(len(edges)):
        for o in (0, 1):
            d = (e, o)
            if d in assigned:
                continue
            boundary = []
            cur = d
            while cur not in assigned:
                assigned[cur] = len(faces)
                boundary.append(cur)
                cur = next_dart(cur)
            faces.append(Face(len(faces), boundary))
    if not edges and n == 1:
        faces.append(Face(0, []))
    return faces


def rotations_from_networkx(g: Graph):
    """Clockwise rotation lists from a networkx planar embedding."""
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    ok, emb = nx.check_planarity(G)
    if not ok:
        raise NotPlanar("graph admits no planar embedding")
    rotation = []
    for v in range(g.n):
        order = list(emb.neighbors_cw_order(v)) if g.degree(v) else []
        rotation.append([g.edge_id(v, w) for w in order])
    return rotation


def embed(g: Graph, external_face=0) -> PlaneGraph:
    """Any correct combinatorial embedding with an arbitrary external face."""
    return PlaneGraph(g, rotations_from_networkx(g), external_face)


def load_graph(text: str) -> Graph:
    g, _, _ = _parse(text)
    return g


def load_plane_graph(text: str) -> PlaneGraph:
    """Like load_graph but honors optional rotation/external lines."""
    g, rotation, external = _parse(text)
    if rotation is None:
        return embed(g, external)
    return PlaneGraph(g, rotation, external)


def check_rotation(g: Graph, rotation):
    """Raise ParseError unless rotation[v] lists exactly v's edges."""
    for v, order in enumerate(rotation):
        incident = sorted(e for _, e in g.adj[v])
        if not (isinstance(order, list)
                and all(isinstance(e, int) for e in order)
                and sorted(order) == incident):
            raise ParseError(f"rotation at {v} does not list its edges")


def _parse(text: str):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"bad header {lines[0]!r}, want 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"bad header {lines[0]!r}") from None
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
                order = [int(x) for x in rhs.split()]
            except (ValueError, IndexError):
                raise ParseError(f"bad rotation line {ln!r}") from None
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
        rotation = [orders.get(v, [e for _, e in g.adj[v]]) for v in range(n)]
        check_rotation(g, rotation)
    return g, rotation, external


def dump_graph(g: Graph) -> str:
    out = [f"{g.n} {len(g.edges)}"]
    for i, (u, v) in enumerate(g.edges):
        k = g.flexibility(i)
        out.append(f"{u} {v} {k}" if k else f"{u} {v}")
    return "\n".join(out) + "\n"
