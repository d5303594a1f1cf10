"""Orthogonal representations as angle labelings.

An OrthoRep attaches to a PlaneGraph:

  * one angle in {90, 180, 270, 360} per face corner. A corner is keyed by
    the dart that ARRIVES at the vertex inside the face walk, so vertex v
    owns exactly deg(v) corners (a degree-1 vertex owns a single 360 one);
  * one bend string over {L, R} per edge, read while walking orientation 0
    (u -> v). Walking the reverse dart you read the string backward with
    the letters swapped.

An L bend turns left, so it puts a 90 angle into the face on the left of
the dart being walked and a 270 into the other face. With the package's
chirality convention (faces keep their interior on the left) the two
classical properties become:

  H1  corner angles around each vertex sum to 360;
  H2  per face, N90 - N270 - 2*N360 equals 4 (internal) or -4 (external),
      counting both corner and bend angles.
"""

from __future__ import annotations

from dataclasses import dataclass
import json

from .errors import (
    H1Violation,
    H2Violation,
    NotAPath,
    NotShapeEquivalent,
    ParseError,
)
from .graph import Dart, Face, Graph, PlaneGraph, check_rotation, dart_reverse

ANGLES = (90, 180, 270, 360)


def swap_letters(s: str) -> str:
    return s.translate(str.maketrans("LR", "RL"))


class OrthoRep:
    def __init__(self, plane: PlaneGraph, angles: dict, bends: dict | None = None):
        self.plane = plane
        self.angles = dict(angles)
        self.bends = {e: "" for e in range(plane.m)}
        for e, s in (bends or {}).items():
            self.bends[e] = s

    def bends_of_dart(self, d: Dart) -> str:
        s = self.bends[d[0]]
        return s if d[1] == 0 else swap_letters(s[::-1])

    def total_bends(self) -> int:
        return sum(len(s) for s in self.bends.values())

    def bend_count(self, e) -> int:
        return len(self.bends[e])

    def cost(self) -> int:
        """Sum over edges of max(0, bends - flexibility)."""
        g = self.plane.graph
        return sum(
            max(0, len(self.bends[e]) - g.flexibility(e))
            for e in range(self.plane.m)
        )

    def __repr__(self):
        return (f"OrthoRep(n={self.plane.n}, m={self.plane.m}, "
                f"bends={self.total_bends()})")


def validate(h: OrthoRep) -> bool:
    """Assert H1 and H2; raises H1Violation / H2Violation."""
    pg = h.plane
    per_vertex = [0] * pg.n
    corner_count = [0] * pg.n
    for f in pg.faces:
        for d in f.boundary:
            a = h.angles.get(d)
            if a not in ANGLES:
                raise H1Violation(pg.dart_head(d), a)
            per_vertex[pg.dart_head(d)] += a
            corner_count[pg.dart_head(d)] += 1
    for v in range(pg.n):
        if per_vertex[v] != 360:
            raise H1Violation(v, per_vertex[v])
    for f in pg.faces:
        val = _h2_sum(h, f)
        expected = -4 if f.is_external else 4
        if val != expected:
            raise H2Violation(f.id, val, expected)
    return True


def _h2_sum(h: OrthoRep, f: Face) -> int:
    val = 0
    for d in f.boundary:
        a = h.angles[d]
        if a == 90:
            val += 1
        elif a == 270:
            val -= 1
        elif a == 360:
            val -= 2
        for c in h.bends_of_dart(d):
            val += 1 if c == "L" else -1
    return val


def is_valid(h: OrthoRep) -> bool:
    try:
        validate(h)
        return True
    except (H1Violation, H2Violation):
        return False


# -- turns ------------------------------------------------------------------

def angle_left(h: OrthoRep, e_in: int, w: int, e_out: int) -> int:
    """Total angle on the left of a walk entering w via e_in, leaving via e_out."""
    pg = h.plane
    rot = pg.rotation[w]
    pos = pg._rotpos[w]
    total = 0
    e = e_in
    while True:
        d = _arrival_dart(pg, e, w)
        total += h.angles[d]
        e = rot[(pos[e] + 1) % len(rot)]
        if e == e_out:
            break
    return total


def _arrival_dart(pg: PlaneGraph, e: int, w: int) -> Dart:
    u, v = pg.edge(e)
    return (e, 0) if v == w else (e, 1)


def path_to_darts(pg: PlaneGraph, p) -> list[Dart]:
    """Accept a dart list or a vertex list; return darts."""
    if not p:
        raise NotAPath("empty path")
    if isinstance(p[0], tuple):
        darts = list(p)
        for a, b in zip(darts, darts[1:]):
            if pg.dart_head(a) != pg.dart_tail(b):
                raise NotAPath("darts do not chain")
        return darts
    darts = []
    g = pg.graph
    for u, v in zip(p, p[1:]):
        try:
            e = g.edge_id(u, v)
        except KeyError:
            raise NotAPath(f"no edge between {u} and {v}") from None
        eu, _ = pg.edge(e)
        darts.append((e, 0) if eu == u else (e, 1))
    if not darts:
        raise NotAPath("single vertex is not a path")
    return darts


def turns_signed(h: OrthoRep, darts: list[Dart]) -> int:
    """#left - #right along the walk (bends plus vertex turns)."""
    pg = h.plane
    t = 0
    for d in darts:
        for c in h.bends_of_dart(d):
            t += 1 if c == "L" else -1
    for a, b in zip(darts, darts[1:]):
        w = pg.dart_head(a)
        al = angle_left(h, a[0], w, b[0])
        t += (180 - al) // 90
    return t


def turn_number(h: OrthoRep, p) -> int:
    """t(p): |#right - #left| turns along a walk."""
    return abs(turns_signed(h, path_to_darts(h.plane, p)))


# -- components --------------------------------------------------------------


@dataclass
class Component:
    """A pertinent subgraph inside a host representation.

    Just the edge set and the two poles in a fixed order; everything else
    (inner vertices, boundary paths, side faces) is derived from the host.
    """

    edges: frozenset
    poles: tuple

    def __post_init__(self):
        self.edges = frozenset(self.edges)
        if len(self.poles) != 2 or self.poles[0] == self.poles[1]:
            raise ParseError("a component needs two distinct poles")

    def vertices(self, pg: PlaneGraph) -> set:
        out = set()
        for e in self.edges:
            out.update(pg.edge(e))
        return out


def component_sides(pg: PlaneGraph, comp: Component):
    """(inside face ids, two (face, run) pairs).

    A run is the stretch of component darts inside one outer face's walk,
    in walk order; the two runs are the boundary paths of the component
    and they start at opposite poles.
    """
    inside = set()
    outer = []
    for f in pg.faces:
        if not f.boundary:
            continue
        hits = [d[0] in comp.edges for d in f.boundary]
        if all(hits):
            inside.add(f.id)
        elif any(hits):
            outer.append(f)
    assert pg.external_face not in inside, "component swallows the boundary"
    assert len(outer) == 2, f"component borders {len(outer)} outer faces"
    runs = []
    for f in outer:
        b = f.boundary
        n = len(b)
        member = [d[0] in comp.edges for d in b]
        starts = [i for i in range(n) if member[i] and not member[i - 1]]
        assert len(starts) == 1, "component meets a face along two stretches"
        run = [b[(starts[0] + t) % n] for t in range(sum(member))]
        ends = {pg.dart_tail(run[0]), pg.dart_head(run[-1])}
        assert ends == set(comp.poles), "boundary run misses a pole"
        runs.append((f.id, run))
    assert pg.dart_tail(runs[0][1][0]) != pg.dart_tail(runs[1][1][0]), \
        "boundary runs start at the same pole"
    return inside, runs


def _run_contribution(h: OrthoRep, run) -> int:
    """N90 - N270 along a boundary run, seen from its outer face."""
    c = 0
    for d in run:
        for ch in h.bends_of_dart(d):
            c += 1 if ch == "L" else -1
    for d in run[:-1]:
        c += (180 - h.angles[d]) // 90
    return c


def spirality(h: OrthoRep, comp: Component) -> int:
    """Turn number between the alias vertices of an S-component.

    A pole of inner degree two gets a temporary alias vertex splitting its
    one outer edge, with the pole-side half kept straight; a pole of inner
    degree one is its own alias. The turn number of an alias-to-alias path
    inside the component is the spirality; when the component offers more
    than one such path a second one is checked against the first.
    """
    pg = h.plane
    counts = {}
    outer_of = {}
    for w in comp.poles:
        inner = [e for e in pg.rotation[w] if e in comp.edges]
        assert len(inner) in (1, 2), f"pole {w} has inner degree {len(inner)}"
        if len(inner) == 2:
            outer = [e for e in pg.rotation[w] if e not in comp.edges]
            assert len(outer) == 1, f"aliased pole {w} needs one outer edge"
            outer_of[w] = outer[0]
            counts[outer[0]] = counts.get(outer[0], 0) + 1
    sub, hosts, segs = subdivide_plane(pg, counts)
    host_at = {(e, i): nv for nv, (e, i) in hosts.items()}

    angles = {}
    for w in range(pg.n):
        for e in pg.rotation[w]:
            ss = segs[e]
            arr = ss[-1] if w == pg.edge(e)[1] else ss[0]
            angles[_arrival_dart(sub, arr, w)] = h.angles[_arrival_dart(pg, e, w)]
    for nv in hosts:
        for e2 in sub.rotation[nv]:
            angles[_arrival_dart(sub, e2, nv)] = 180
    bends = {}
    for e in range(pg.m):
        ss = segs[e]
        if len(ss) == 1:
            bends[ss[0]] = h.bends[e]
        elif len(ss) == 3:
            # both poles alias onto this edge, bends stay in the middle
            bends[ss[1]] = h.bends[e]
        else:
            pole = next(w for w, eo in outer_of.items() if eo == e)
            straight = ss[0] if pg.edge(e)[0] == pole else ss[1]
            other = ss[1] if straight == ss[0] else ss[0]
            bends[other] = h.bends[e]
    h_sub = OrthoRep(sub, angles, bends)

    allowed = set()
    for e in comp.edges:
        allowed.update(segs[e])
    ends = []
    for w in comp.poles:
        if w not in outer_of:
            ends.append(w)
            continue
        e = outer_of[w]
        ss = segs[e]
        if pg.edge(e)[0] == w:
            allowed.add(ss[0])
            ends.append(host_at[(e, 0)])
        else:
            allowed.add(ss[-1])
            ends.append(host_at[(e, len(ss) - 2)])

    p1 = _bfs_darts(sub, allowed, ends[0], ends[1])
    assert p1 is not None, "poles are not connected inside the component"
    k = abs(turns_signed(h_sub, p1))
    for d in p1:
        p2 = _bfs_darts(sub, allowed, ends[0], ends[1], banned=d[0])
        if p2 is not None and p2 != p1:
            assert abs(turns_signed(h_sub, p2)) == k, \
                "alias-to-alias paths disagree on the turn number"
            break
    return k


def _bfs_darts(sub: PlaneGraph, allowed, s, t, banned=None):
    prev = {s: None}
    queue = [s]
    at = 0
    while at < len(queue):
        x = queue[at]
        at += 1
        if x == t:
            break
        for e in sub.rotation[x]:
            if e not in allowed or e == banned:
                continue
            a, b = sub.edge(e)
            y = b if a == x else a
            if y not in prev:
                prev[y] = (e, 0) if a == x else (e, 1)
                queue.append(y)
    if t not in prev:
        return None
    darts = []
    x = t
    while prev[x] is not None:
        darts.append(prev[x])
        x = sub.dart_tail(prev[x])
    return darts[::-1]


class _ChiralityMismatch(Exception):
    pass


def substitute(h: OrthoRep, comp: Component, h2: OrthoRep,
               comp2: Component | None = None) -> OrthoRep:
    """Swap comp inside h for the shape-equivalent comp2 inside h2.

    comp.poles[i] is identified with comp2.poles[i]. h2 is flipped
    automatically when its chirality disagrees with h's. Inside the
    replacement the angles and bends are h2's, outside they are h's, and
    the four pole corners facing the outer sides keep h's values. The
    result exposes sub_vertex_map / sub_edge_map (h2 id -> result id).
    """
    if comp2 is None:
        comp2 = comp
    sides = component_sides(h.plane, comp)
    try:
        return _substitute(h, comp, h2, comp2, sides)
    except _ChiralityMismatch:
        pass
    try:
        return _substitute(h, comp, flip(h2), comp2, sides)
    except _ChiralityMismatch:
        raise NotShapeEquivalent(
            "boundary turn numbers match in neither orientation") from None


def _substitute(h, comp, h2, comp2, sides):
    pg, pg2 = h.plane, h2.plane
    _, runs = sides
    _, runs2 = component_sides(pg2, comp2)

    # pair boundary runs through the pole bijection and compare the turn
    # contributions each run makes to its outer face
    pole2 = dict(zip(comp.poles, comp2.poles))
    by_start2 = {pg2.dart_tail(r[0]): (f, r) for f, r in runs2}
    pairing = {}
    for f, run in runs:
        f2, run2 = by_start2[pole2[pg.dart_tail(run[0])]]
        if _run_contribution(h, run) != _run_contribution(h2, run2):
            raise _ChiralityMismatch
        pairing[f] = f2

    inner_v = sorted(comp.vertices(pg) - set(comp.poles))
    inner_v2 = sorted(comp2.vertices(pg2) - set(comp2.poles))
    drop_v, drop_e = set(inner_v), set(comp.edges)
    kept_v = [w for w in range(pg.n) if w not in drop_v]
    kept_e = [e for e in range(pg.m) if e not in drop_e]
    if len(inner_v2) == len(inner_v):
        vmap_h = {w: w for w in kept_v}
        vmap_2 = dict(zip(inner_v2, inner_v))
    else:
        vmap_h = {w: i for i, w in enumerate(kept_v)}
        vmap_2 = {w2: len(kept_v) + j for j, w2 in enumerate(inner_v2)}
    for a, b in pole2.items():
        vmap_2[b] = vmap_h[a]
    add_e = sorted(comp2.edges)
    if len(add_e) == len(comp.edges):
        emap_h = {e: e for e in kept_e}
        emap_2 = dict(zip(add_e, sorted(comp.edges)))
    else:
        emap_h = {e: i for i, e in enumerate(kept_e)}
        emap_2 = {e2: len(kept_e) + j for j, e2 in enumerate(add_e)}

    m_new = len(kept_e) + len(add_e)
    new_edges = [None] * m_new
    flex_new = {}
    for e in kept_e:
        a, b = pg.edge(e)
        new_edges[emap_h[e]] = (vmap_h[a], vmap_h[b])
        k = pg.graph.flexibility(e)
        if k:
            flex_new[emap_h[e]] = k
    for e2 in add_e:
        a, b = pg2.edge(e2)
        new_edges[emap_2[e2]] = (vmap_2[a], vmap_2[b])
        k = pg2.graph.flexibility(e2)
        if k:
            flex_new[emap_2[e2]] = k

    rotation = [None] * (len(kept_v) + len(inner_v2))
    pole_seq = {}
    for w in kept_v:
        if w in comp.poles:
            seq, block2 = _splice_block(h, comp, h2, comp2, pairing,
                                        w, pole2[w])
            pole_seq[w] = (seq, block2)
            row = ([emap_2[e2] for e2 in block2]
                   + [emap_h[e] for e in seq[len(block2):]])
            # keep the list phase of h where possible, purely cosmetic
            old0 = pg.rotation[w][0]
            tgt = (emap_2.get(old0) if old0 in comp.edges
                   else emap_h[old0])
            if tgt in row:
                i0 = row.index(tgt)
                row = row[i0:] + row[:i0]
            rotation[vmap_h[w]] = row
        else:
            rotation[vmap_h[w]] = [emap_h[e] for e in pg.rotation[w]]
    for w2 in inner_v2:
        rotation[vmap_2[w2]] = [emap_2[e] for e in pg2.rotation[w2]]

    shell = Graph(len(kept_v) + len(inner_v2), new_edges, flex_new)
    npg = PlaneGraph(shell, rotation, 0)
    old_ext = pg.faces[pg.external_face]
    d_ext = next(d for d in old_ext.boundary if d[0] not in drop_e)
    npg = npg.with_external_face(npg.face_of_dart((emap_h[d_ext[0]], d_ext[1])))

    added_set = set(emap_2.values())
    angles = {}
    for w in kept_v:
        if w in comp.poles:
            continue
        for e in pg.rotation[w]:
            angles[_arrival_dart(npg, emap_h[e], vmap_h[w])] = \
                h.angles[_arrival_dart(pg, e, w)]
    for w2 in inner_v2:
        for e2 in pg2.rotation[w2]:
            angles[_arrival_dart(npg, emap_2[e2], vmap_2[w2])] = \
                h2.angles[_arrival_dart(pg2, e2, w2)]
    for w in comp.poles:
        seq, block2 = pole_seq[w]
        w2 = pole2[w]
        kb = len(block2)
        a_pre = h.angles[_arrival_dart(pg, seq[-1], w)]
        a_post = h.angles[_arrival_dart(pg, seq[kb - 1], w)]
        if kb == 2:
            # the corner wedged between the two inner edges comes from h2,
            # so the angle sum at the pole only survives if h had the same
            inner_old = h.angles[_arrival_dart(pg, seq[0], w)]
            inner_new = h2.angles[_arrival_dart(pg2, block2[0], w2)]
            if inner_old != inner_new:
                raise NotShapeEquivalent(
                    f"pole {w} inner angle {inner_old} vs {inner_new}")
        rot_new = rotation[vmap_h[w]]
        nw = len(rot_new)
        for i, p in enumerate(rot_new):
            q = rot_new[(i + 1) % nw]
            key = _arrival_dart(npg, p, vmap_h[w])
            if p in added_set and q in added_set:
                angles[key] = h2.angles[_arrival_dart(pg2, block2[0], w2)]
            elif p in added_set:
                angles[key] = a_post
            elif q in added_set:
                angles[key] = a_pre
            else:
                back = next(e for e in seq if emap_h.get(e) == p)
                angles[key] = h.angles[_arrival_dart(pg, back, w)]

    bends = {}
    for e in kept_e:
        bends[emap_h[e]] = h.bends[e]
    for e2 in add_e:
        bends[emap_2[e2]] = h2.bends[e2]

    out = OrthoRep(npg, angles, bends)
    out.sub_vertex_map = vmap_2
    out.sub_edge_map = emap_2
    validate(out)
    return out


def _splice_block(h, comp, h2, comp2, pairing, w, w2):
    """Rotation at pole w, rotated so its comp block leads; plus the comp2
    block in the order that keeps the paired sides together."""
    pg, pg2 = h.plane, h2.plane
    rot = pg.rotation[w]
    n = len(rot)
    member = [e in comp.edges for e in rot]
    starts = [i for i in range(n) if member[i] and not member[i - 1]]
    assert len(starts) == 1, "component edges not contiguous at a pole"
    seq = [rot[(starts[0] + t) % n] for t in range(n)]
    kb = sum(member)
    assert all(e in comp.edges for e in seq[:kb])

    rot2 = pg2.rotation[w2]
    n2 = len(rot2)
    member2 = [e in comp2.edges for e in rot2]
    starts2 = [i for i in range(n2) if member2[i] and not member2[i - 1]]
    assert len(starts2) == 1, "replacement edges not contiguous at a pole"
    block2 = [rot2[(starts2[0] + t) % n2] for t in range(sum(member2))]
    if len(block2) != kb:
        raise NotShapeEquivalent(f"pole inner degrees differ at {w}")

    # the face entered through the corner before the block walks straight
    # into the block, so it is the face whose run starts here; the pairing
    # must agree or the replacement is mirrored relative to the hole
    f_pre = pg.face_of_dart(_arrival_dart(pg, seq[-1], w))
    g_pre = pg2.face_of_dart(_arrival_dart(pg2, rot2[starts2[0] - 1], w2))
    if pairing[f_pre] != g_pre:
        raise _ChiralityMismatch
    return seq, block2


# -- basic transforms -------------------------------------------------------

def flip(h: OrthoRep) -> OrthoRep:
    """Mirror image: reverse rotations, swap bend letters, re-key corners."""
    pg = h.plane
    new_rot = [list(reversed(r)) for r in pg.rotation]
    shell = PlaneGraph(pg.graph, new_rot, 0)
    # locate the flipped external face by any dart of the old one
    old_ext = pg.faces[pg.external_face]
    if old_ext.boundary:
        ext = shell.face_of_dart(dart_reverse(old_ext.boundary[0]))
    else:
        ext = 0
    flipped = PlaneGraph(pg.graph, new_rot, ext)
    angles = {}
    for w in range(pg.n):
        rot = pg.rotation[w]
        k = len(rot)
        for i, e in enumerate(rot):
            # old corner keyed by arrival along e spans the cw gap (e, e');
            # after mirroring the same gap is keyed by arrival along e'.
            e2 = rot[(i + 1) % k]
            d_old = _arrival_dart(pg, e, w)
            d_new = _arrival_dart(flipped, e2, w)
            angles[d_new] = h.angles[d_old]
    bends = {e: swap_letters(s) for e, s in h.bends.items()}
    return OrthoRep(flipped, angles, bends)


def rectilinear_image(h: OrthoRep):
    """Replace each bend by a degree-2 vertex.

    Returns (image, hosts) where hosts maps every new vertex id to
    (host edge id, index along orientation 0). `smooth` inverts this.
    """
    pg = h.plane
    g = pg.graph
    counts = {e: len(h.bends[e]) for e in range(pg.m)}
    sub_pg, hosts, seg_of_edge = subdivide_plane(pg, counts)
    angles = {}
    # original corners carry over, re-keyed by the last segment of the
    # arriving edge
    for w in range(pg.n):
        for e in pg.rotation[w]:
            d_old = _arrival_dart(pg, e, w)
            segs = seg_of_edge[e]
            u, v = pg.edge(e)
            arr_seg = segs[-1] if w == v else segs[0]
            d_new = _arrival_dart(sub_pg, arr_seg, w)
            angles[d_new] = h.angles[d_old]
    # bend vertices become corners
    for nv, (e, idx) in hosts.items():
        letter = h.bends[e][idx]
        segs = seg_of_edge[e]
        before, after = segs[idx], segs[idx + 1]
        d_before = _arrival_dart(sub_pg, before, nv)
        d_after = _arrival_dart(sub_pg, after, nv)
        if letter == "L":
            angles[d_before] = 90
            angles[d_after] = 270
        else:
            angles[d_before] = 270
            angles[d_after] = 90
    return OrthoRep(sub_pg, angles), hosts


def subdivide_plane(pg: PlaneGraph, counts: dict):
    """Subdivide edge e by counts[e] degree-2 vertices.

    Returns (new PlaneGraph, hosts, seg_of_edge). The new external face is
    the one corresponding to the old one. Flexibilities are dropped; the
    caller tracks budgets itself.
    """
    g = pg.graph
    n_new = pg.n
    new_edges = []
    seg_of_edge = {}
    hosts = {}
    for e in range(pg.m):
        u, v = pg.edge(e)
        k = counts.get(e, 0)
        chain = [u]
        for i in range(k):
            hosts[n_new] = (e, i)
            chain.append(n_new)
            n_new += 1
        chain.append(v)
        segs = []
        for a, b in zip(chain, chain[1:]):
            segs.append(len(new_edges))
            new_edges.append((a, b))
        seg_of_edge[e] = segs
    rotation = [None] * n_new
    for w in range(pg.n):
        row = []
        for e in pg.rotation[w]:
            segs = seg_of_edge[e]
            u, v = pg.edge(e)
            row.append(segs[0] if w == u else segs[-1])
        rotation[w] = row
    for nv, (e, idx) in hosts.items():
        segs = seg_of_edge[e]
        rotation[nv] = [segs[idx], segs[idx + 1]]
    sub = PlaneGraph(Graph(n_new, new_edges), rotation, 0)
    # find the image of the old external face
    old_ext = pg.faces[pg.external_face]
    if old_ext.boundary:
        e0, o0 = old_ext.boundary[0]
        segs = seg_of_edge[e0]
        d_new = (segs[0], o0) if o0 == 0 else (segs[-1], o0)
        sub = sub.with_external_face(sub.face_of_dart(d_new))
    return sub, hosts, seg_of_edge


def smooth(h_sub: OrthoRep, original: PlaneGraph, hosts: dict,
           seg_of_edge: dict | None = None) -> OrthoRep:
    """Inverse of rectilinear_image: fold marked degree-2 vertices into bends.

    h_sub must be bend-free on the segments of subdivided edges. A marked
    vertex whose two corners are (180, 180) vanishes without a bend.
    """
    pg_sub = h_sub.plane
    if seg_of_edge is None:
        seg_of_edge = _recover_segments(pg_sub, original, hosts)
    angles = {}
    for w in range(original.n):
        for e in original.rotation[w]:
            segs = seg_of_edge[e]
            u, v = original.edge(e)
            arr_seg = segs[-1] if w == v else segs[0]
            d_new = _arrival_dart(pg_sub, arr_seg, w)
            d_old = _arrival_dart(original, e, w)
            angles[d_old] = h_sub.angles[d_new]
    bends = {}
    for e in range(original.m):
        segs = seg_of_edge[e]
        u, _ = original.edge(e)
        merged = []
        prev = u
        for i, seg in enumerate(segs):
            # segment orientation 0 always agrees with walking e from u to v
            merged.append(h_sub.bends_of_dart((seg, 0)))
            if i + 1 < len(segs):
                nv = _far_end(pg_sub, seg, prev)
                ang = h_sub.angles[_arrival_dart(pg_sub, seg, nv)]
                if ang == 90:
                    merged.append("L")
                elif ang == 270:
                    merged.append("R")
                elif ang != 180:
                    raise ParseError(f"subdivision vertex {nv} has angle {ang}")
                prev = nv
        bends[e] = "".join(merged)
    return OrthoRep(original, angles, bends)


def _far_end(pg_sub, seg, near):
    a, b = pg_sub.edge(seg)
    return b if a == near else a


def _recover_segments(pg_sub, original, hosts):
    by_edge = {}
    for nv, (e, idx) in hosts.items():
        by_edge.setdefault(e, []).append((idx, nv))
    seg_of_edge = {}
    # segment edges were generated in edge order, walk them back
    seg_iter = 0
    for e in range(original.m):
        k = len(by_edge.get(e, []))
        seg_of_edge[e] = list(range(seg_iter, seg_iter + k + 1))
        seg_iter += k + 1
    return seg_of_edge


# -- JSON -------------------------------------------------------------------

def to_json(h: OrthoRep) -> str:
    pg = h.plane
    verts = []
    for v in range(pg.n):
        rot = pg.rotation[v]
        angs = [h.angles[_arrival_dart(pg, e, v)] for e in rot]
        verts.append({"id": v, "rotation": rot, "angles": angs})
    edges = [
        {"id": e, "u": pg.edge(e)[0], "v": pg.edge(e)[1], "bends": h.bends[e]}
        for e in range(pg.m)
    ]
    return json.dumps(
        {"vertices": verts, "edges": edges, "external_face": pg.external_face},
        indent=2,
    )


def from_json(text: str) -> OrthoRep:
    try:
        data = json.loads(text)
        n = len(data["vertices"])
        edge_recs = sorted(data["edges"], key=lambda x: x["id"])
        edges = [(e["u"], e["v"]) for e in edge_recs]
        bends = {e["id"]: e.get("bends", "") for e in edge_recs}
        rotation = [None] * n
        ang_rows = [None] * n
        for rec in data["vertices"]:
            rotation[rec["id"]] = rec["rotation"]
            ang_rows[rec["id"]] = rec["angles"]
        ext = data["external_face"]
    except (AttributeError, IndexError, KeyError, TypeError,
            ValueError) as exc:
        raise ParseError(f"bad representation JSON: {exc}") from None
    if list(bends) != list(range(len(edges))):
        raise ParseError("edge ids must run 0..m-1")
    if not all(isinstance(s, str) and set(s) <= {"L", "R"}
               for s in bends.values()):
        raise ParseError("bends must be strings over L and R")
    if not isinstance(ext, int):
        raise ParseError(f"external face {ext!r} is not an integer")
    g = Graph(n, edges)
    check_rotation(g, rotation)
    for v, row in enumerate(ang_rows):
        if not (isinstance(row, list) and len(row) == len(rotation[v])):
            raise ParseError(f"vertex {v} needs one angle per rotation entry")
    pg = PlaneGraph(g, rotation, ext)
    angles = {}
    for v in range(n):
        for e, a in zip(rotation[v], ang_rows[v]):
            angles[_arrival_dart(pg, e, v)] = a
    return OrthoRep(pg, angles, bends)
