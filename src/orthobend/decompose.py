"""Decomposition trees: blocks at cutvertices, triconnected pieces at
split pairs.

The SPQR construction leans on the degree bound. In a biconnected
multigraph with all degrees at most three, two edges lie in a common
2-edge-cut exactly when they belong to the same series class, and the
series classes are computable in one pass with randomized cycle-space
labels: give every non-tree edge a random word, push the words down a
spanning tree, and two edges are in series iff their accumulated labels
match. Each class of size at least two is the edge set of one S-node;
parallel pairs (which are never cuts here) each spawn one P-node; what
survives with no class, no parallel pair and minimum degree three is
triconnected, hence an R-node skeleton. Because a virtual edge can
never land in a pre-existing series class of its piece, the tree this
produces is already canonical: no two S-nodes and no two P-nodes are
ever adjacent.

Labels use a fixed seed, so node numbering is reproducible run to run.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
import random

import networkx as nx

from .errors import Disconnected, NotBiconnected
from .graph import Graph


# ---------------------------------------------------------------- blocks


@dataclass(frozen=True)
class Block:
    """One biconnected piece of the host graph.

    graph is a relabelled standalone copy; vmap/emap translate host
    vertex and edge ids into it. A trivial block is a single edge.
    """

    edges: tuple
    vertices: tuple
    graph: Graph
    vmap: dict
    emap: dict
    trivial: bool


class BcTree:
    """Block-cutvertex tree of a connected graph.

    Tree nodes are the blocks plus the cutvertices; a block is adjacent
    to every cutvertex it contains. The structure is bipartite by
    construction and the blocks partition the edge set.
    """

    def __init__(self, n, edges, blocks, cutvertices):
        self.n = n
        self.edges = list(edges)
        self.blocks = blocks
        self.cutvertices = tuple(cutvertices)
        self._cutset = set(cutvertices)
        self.block_of_edge = {}
        for bi, blk in enumerate(blocks):
            for e in blk.edges:
                self.block_of_edge[e] = bi

    def blocks_at(self, v):
        """Indices of the blocks containing cutvertex v."""
        return [bi for bi, blk in enumerate(self.blocks)
                if v in blk.vertices]

    def cuts_of_block(self, bi):
        return [v for v in self.blocks[bi].vertices if v in self._cutset]

    def tree_edges(self):
        return [(bi, v) for bi in range(len(self.blocks))
                for v in self.cuts_of_block(bi)]


def bc_tree_from_edges(n, edges):
    """BC-tree of an arbitrary connected simple graph.

    The host graph may exceed degree three (a cutvertex shared by two
    nontrivial blocks does); the blocks themselves are still well within
    the validated Graph type whenever the input is.
    """
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from(edges)
    if n > 0 and not nx.is_connected(nxg):
        raise Disconnected("block decomposition needs a connected graph")
    eid = {}
    for i, (u, v) in enumerate(edges):
        eid[(u, v)] = i
        eid[(v, u)] = i
    cuts = sorted(nx.articulation_points(nxg))
    blocks = []
    for comp in nx.biconnected_component_edges(nxg):
        ids = sorted(eid[uv] for uv in comp)
        verts = sorted({w for e in ids for w in edges[e]})
        vmap = {w: i for i, w in enumerate(verts)}
        emap = {}
        local = []
        for e in ids:
            u, v = edges[e]
            emap[e] = len(local)
            local.append((vmap[u], vmap[v]))
        blocks.append(Block(tuple(ids), tuple(verts),
                            Graph(len(verts), local), vmap, emap,
                            trivial=len(ids) == 1))
    blocks.sort(key=lambda b: b.edges[0])
    return BcTree(n, edges, blocks, cuts)


def build_bc_tree(g: Graph) -> BcTree:
    return bc_tree_from_edges(g.n, list(g.edges))


# ------------------------------------------------------------- SPQR tree


class SkelEdge:
    """One edge of a skeleton: real (carries a host edge id) or virtual
    (carries a twin in the neighbouring skeleton)."""

    __slots__ = ("u", "v", "edge_id", "twin", "node", "pos", "_serial")

    def __init__(self, u, v, edge_id=None, serial=-1):
        self.u = u
        self.v = v
        self.edge_id = edge_id
        self.twin = None
        self.node = -1
        self.pos = -1
        self._serial = serial

    @property
    def is_real(self):
        return self.edge_id is not None

    def ends(self):
        return (self.u, self.v)

    def other(self, w):
        return self.v if w == self.u else self.u

    def _key(self):
        # real edges sort by host id, virtual ones by creation order
        if self.is_real:
            return (0, self.edge_id)
        return (1, self._serial)

    def __repr__(self):
        tag = f"e{self.edge_id}" if self.is_real else f"virt{self._serial}"
        return f"<{tag} {self.u}-{self.v}>"


@dataclass(eq=False)
class SpqrNode:
    kind: str  # "S" | "P" | "R" | "Q"
    index: int
    edges: list  # SkelEdge, cycle order for S; empty for Q
    vertices: tuple
    edge_id: int | None = None  # Q-nodes only


class SpqrTree:
    """Unrooted SPQR tree over a biconnected graph.

    nodes[i].edges hold the skeletons; every host edge appears as a real
    skeleton edge exactly once and additionally as its own Q-node leaf.
    """

    def __init__(self, g, nodes, owner_edge):
        self.g = g
        self.nodes = nodes
        self.owner_edge = owner_edge  # host edge id -> real SkelEdge
        self.q_of_edge = {}
        for node in nodes:
            if node.kind == "Q":
                self.q_of_edge[node.edge_id] = node.index

    def neighbors(self, i):
        node = self.nodes[i]
        if node.kind == "Q":
            return [self.owner_edge[node.edge_id].node]
        out = []
        for e in node.edges:
            out.append(self.q_of_edge[e.edge_id] if e.is_real
                       else e.twin.node)
        return out

    def tree_edges(self):
        out = []
        for node in self.nodes:
            if node.kind == "Q":
                continue
            for e in node.edges:
                if e.is_real:
                    out.append((node.index, self.q_of_edge[e.edge_id]))
                elif node.index < e.twin.node:
                    out.append((node.index, e.twin.node))
        return out

    def structural_nodes(self):
        return [node for node in self.nodes if node.kind != "Q"]


def _series_classes(W, adj, verts):
    """Edges grouped by cycle-space label; only groups of size >= 2.

    Two edges of a biconnected multigraph share a label iff removing
    both disconnects it. Deterministic via the fixed seed.
    """
    rng = random.Random(0x51C2A7)
    root = verts[0]
    parent = {root: None}
    parent_edge = {root: None}
    order = [root]
    label = {}
    acc = {v: 0 for v in verts}
    stack = [root]
    tree_edges = set()
    while stack:
        v = stack.pop()
        for e in adj[v]:
            w = e.other(v)
            if w not in parent:
                tree_edges.add(id(e))
                parent[w] = v
                parent_edge[w] = e
                order.append(w)
                stack.append(w)
    for e in W:
        if id(e) in tree_edges:
            continue
        r = rng.getrandbits(64)
        label[id(e)] = r
        acc[e.u] ^= r
        acc[e.v] ^= r
    for v in reversed(order):
        e = parent_edge[v]
        if e is None:
            continue
        label[id(e)] = acc[v]
        acc[parent[v]] ^= acc[v]
    groups = defaultdict(list)
    for e in W:
        groups[label[id(e)]].append(e)
    classes = [sorted(grp, key=SkelEdge._key)
               for grp in groups.values() if len(grp) >= 2]
    classes.sort(key=lambda c: c[0]._key())
    return classes


def _adjacency(W):
    adj = defaultdict(list)
    for e in W:
        adj[e.u].append(e)
        adj[e.v].append(e)
    return adj


def build_spqr_tree(g: Graph) -> SpqrTree:
    if len(g.edges) < 3:
        raise NotBiconnected("need at least 3 edges")
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    if not nx.is_biconnected(nxg):
        raise NotBiconnected("graph has a cutvertex or too few vertices")

    nodes = []
    serial = [0]

    def fresh_pair(u, v):
        a = SkelEdge(u, v, serial=serial[0])
        b = SkelEdge(u, v, serial=serial[0] + 1)
        serial[0] += 2
        a.twin = b
        b.twin = a
        return a, b

    def register(kind, edges, vertices):
        idx = len(nodes)
        for p, e in enumerate(edges):
            e.node = idx
            e.pos = p
        nodes.append(SpqrNode(kind, idx, list(edges), tuple(vertices)))
        return idx

    work = [[SkelEdge(u, v, edge_id=i) for i, (u, v) in enumerate(g.edges)]]
    while work:
        W = work.pop()
        adj = _adjacency(W)
        verts = sorted(adj)

        if len(verts) == 2:
            assert len(W) >= 3, "degenerate bond"
            register("P", sorted(W, key=SkelEdge._key), verts)
            continue

        pair_count = defaultdict(list)
        for e in W:
            pair_count[frozenset(e.ends())].append(e)
        parallel = [es for es in pair_count.values() if len(es) >= 2]

        if not parallel and all(len(adj[v]) == 2 for v in verts):
            register("S", _cycle_order(W, adj), verts)
            continue

        if parallel:
            es = min(parallel, key=lambda es: es[0]._key())
            e1, e2 = sorted(es, key=SkelEdge._key)[:2]
            u, v = e1.ends()
            a, b = fresh_pair(u, v)
            register("P", [e1, e2, a], sorted((u, v)))
            rest = [e for e in W if e is not e1 and e is not e2]
            rest.append(b)
            work.append(rest)
            continue

        classes = _series_classes(W, adj, verts)
        if classes:
            cls = classes[0]
            skel, pieces = _split_series(W, cls, fresh_pair)
            sverts = []
            for e in skel:
                if e.u not in sverts:
                    sverts.append(e.u)
                if e.v not in sverts:
                    sverts.append(e.v)
            register("S", skel, sverts)
            work.extend(pieces)
            continue

        # simple, min degree 3, no 2-edge-cut: triconnected
        assert len(verts) >= 4
        register("R", sorted(W, key=SkelEdge._key), verts)

    owner_edge = {}
    for node in nodes:
        for e in node.edges:
            if e.is_real:
                assert e.edge_id not in owner_edge, "edge in two skeletons"
                owner_edge[e.edge_id] = e
    assert len(owner_edge) == len(g.edges), "lost edges during splitting"

    for i, (u, v) in enumerate(g.edges):
        idx = len(nodes)
        nodes.append(SpqrNode("Q", idx, [], (u, v), edge_id=i))

    tree = SpqrTree(g, nodes, owner_edge)
    ne = len(tree.tree_edges())
    assert ne == len(nodes) - 1, "decomposition is not a tree"
    return tree


def _cycle_order(W, adj):
    """Edges of a simple cycle, in traversal order from the lowest one."""
    e0 = min(W, key=SkelEdge._key)
    out = [e0]
    cur = e0.v
    while cur != e0.u:
        nxt = next(e for e in adj[cur] if e is not out[-1])
        out.append(nxt)
        cur = nxt.other(cur)
    assert len(out) == len(W), "cycle case saw a chord"
    return out


def _split_series(W, cls, fresh_pair):
    """S-node skeleton for one series class, plus the piece subgraphs.

    Removing the class edges splits W into pieces; the class edges and
    the pieces alternate around one cycle. Single-vertex pieces sit on
    the cycle as shared vertices, larger pieces contribute a virtual
    edge between the two spots where the cycle touches them.
    """
    in_cls = {id(e) for e in cls}
    piece_of = {}
    piece_edges = defaultdict(list)
    adj2 = defaultdict(list)
    for e in W:
        if id(e) not in in_cls:
            adj2[e.u].append(e)
            adj2[e.v].append(e)
    vs = {w for e in W for w in e.ends()}
    pid = 0
    for v0 in sorted(vs):
        if v0 in piece_of:
            continue
        piece_of[v0] = pid
        stack = [v0]
        while stack:
            x = stack.pop()
            for e in adj2[x]:
                piece_edges[pid].append(e)
                y = e.other(x)
                if y not in piece_of:
                    piece_of[y] = pid
                    stack.append(y)
        pid += 1
    for p in piece_edges:
        piece_edges[p] = list({id(e): e for e in piece_edges[p]}.values())

    touch = defaultdict(list)  # piece -> [(class edge, endpoint inside)]
    for e in cls:
        assert piece_of[e.u] != piece_of[e.v], "class edge inside a piece"
        touch[piece_of[e.u]].append((e, e.u))
        touch[piece_of[e.v]].append((e, e.v))
    for p, inc in touch.items():
        assert len(inc) == 2, "series class revisits a piece"

    e0 = cls[0]
    skel = [e0]
    pieces = []
    cur = e0.v
    came = e0
    while True:
        p = piece_of[cur]
        (ea, xa), (eb, xb) = touch[p]
        exit_edge, exit_v = (eb, xb) if ea is came else (ea, xa)
        if len(piece_edges[p]) > 0:
            assert cur != exit_v, "piece dangles from one vertex"
            a, b = fresh_pair(cur, exit_v)
            skel.append(a)
            pieces.append(piece_edges[p] + [b])
        else:
            assert cur == exit_v
        if exit_edge is e0:
            break
        skel.append(exit_edge)
        cur = exit_edge.other(exit_v)
        came = exit_edge
    assert sum(1 for e in skel if id(e) in in_cls) == len(cls), \
        "series walk missed class edges"
    return skel, pieces

