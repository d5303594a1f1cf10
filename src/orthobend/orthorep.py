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

import json

from .errors import H1Violation, H2Violation, ParseError
from .graph import Dart, Face, Graph, PlaneGraph

ANGLES = (90, 180, 270, 360)


def arrival_dart(pg: PlaneGraph, e: int, w: int) -> Dart:
    """The dart of edge e that arrives at its end w: the key of w's corner
    in the face whose walk holds that dart."""
    u, v = pg.edge(e)
    return (e, 0) if v == w else (e, 1)


def swap_letters(s: str) -> str:
    return s.translate(str.maketrans("LR", "RL"))


class OrthoRep:
    def __init__(self, plane: PlaneGraph, angles: dict, bends: dict | None = None):
        self.plane = plane
        self.angles = dict(angles)
        self.bends = {e: "" for e in range(plane.m)}
        for e, s in (bends or {}).items():
            if e not in self.bends:
                raise ParseError(f"bends on edge {e!r}, which is not an edge")
            self.bends[e] = s

    def bends_of_dart(self, d: Dart) -> str:
        s = self.bends[d[0]]
        return s if d[1] == 0 else swap_letters(s[::-1])

    def total_bends(self) -> int:
        return sum(len(s) for s in self.bends.values())

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
    for f in pg.faces:
        for d in f.boundary:
            a = h.angles.get(d)
            if a not in ANGLES:
                raise H1Violation(pg.dart_head(d), dart=d, angle=a)
            per_vertex[pg.dart_head(d)] += a
    for v in range(pg.n):
        if per_vertex[v] != 360:
            raise H1Violation(v, per_vertex[v])
    for f in pg.faces:
        val = _h2_sum(h, f)
        expected = -4 if f.id == pg.external_face else 4
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


# -- basic transforms -------------------------------------------------------

def rectilinear_image(h: OrthoRep):
    """Replace each bend by a degree-2 vertex.

    Returns (image, seg_of_edge) where seg_of_edge lists, per edge, the
    ids of its segments in the image from u to v, as subdivide_plane
    numbers them. `smooth` inverts this given that map.
    """
    pg = h.plane
    counts = {e: len(h.bends[e]) for e in range(pg.m)}
    sub_pg, hosts, seg_of_edge = subdivide_plane(pg, counts)
    # original corners carry over, re-keyed by the arriving segment
    angles = {new: h.angles[old]
              for old, new in _corners(pg, sub_pg, seg_of_edge)}
    # bend vertices become corners
    for nv, (e, idx) in hosts.items():
        letter = h.bends[e][idx]
        segs = seg_of_edge[e]
        before, after = segs[idx], segs[idx + 1]
        d_before = arrival_dart(sub_pg, before, nv)
        d_after = arrival_dart(sub_pg, after, nv)
        if letter == "L":
            angles[d_before] = 90
            angles[d_after] = 270
        else:
            angles[d_before] = 270
            angles[d_after] = 90
    return OrthoRep(sub_pg, angles), seg_of_edge


def subdivide_plane(pg: PlaneGraph, counts: dict):
    """Subdivide edge e by counts[e] degree-2 vertices.

    Returns (new PlaneGraph, hosts, seg_of_edge). The new external face is
    the one corresponding to the old one. Flexibilities are dropped; the
    caller tracks budgets itself.
    """
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


def smooth(h_sub: OrthoRep, original: PlaneGraph,
           seg_of_edge: dict) -> OrthoRep:
    """Inverse of rectilinear_image: fold the vertices between the segments
    of each edge into bends.

    seg_of_edge is the map rectilinear_image or subdivide_plane returned
    with h_sub's plane graph. h_sub must be bend-free on the segments of
    subdivided edges. A vertex whose two corners are (180, 180) vanishes
    without a bend.
    """
    pg_sub = h_sub.plane
    angles = {old: h_sub.angles[new]
              for old, new in _corners(original, pg_sub, seg_of_edge)}
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
                ang = h_sub.angles[arrival_dart(pg_sub, seg, nv)]
                if ang == 90:
                    merged.append("L")
                elif ang == 270:
                    merged.append("R")
                elif ang != 180:
                    raise ParseError(f"subdivision vertex {nv} has angle {ang}")
                prev = nv
        bends[e] = "".join(merged)
    return OrthoRep(original, angles, bends)


def _corners(pg: PlaneGraph, sub: PlaneGraph, seg_of_edge: dict):
    """Per corner of pg, its arrival dart there and in sub: pg with each
    edge e split into seg_of_edge[e], from its end u to its end v."""
    for w, row in enumerate(pg.rotation):
        for e in row:
            segs = seg_of_edge[e]
            seg = segs[-1] if w == pg.edge(e)[1] else segs[0]
            yield arrival_dart(pg, e, w), arrival_dart(sub, seg, w)


def _far_end(pg_sub, seg, near):
    a, b = pg_sub.edge(seg)
    return b if a == near else a


# -- JSON -------------------------------------------------------------------

def to_json(h: OrthoRep) -> str:
    pg = h.plane
    verts = []
    for v in range(pg.n):
        rot = pg.rotation[v]
        angs = [h.angles[arrival_dart(pg, e, v)] for e in rot]
        verts.append({"id": v, "rotation": rot, "angles": angs})
    edges = [
        {"id": e, "u": pg.edge(e)[0], "v": pg.edge(e)[1], "bends": h.bends[e]}
        for e in range(pg.m)
    ]
    for e, k in pg.graph.flex.items():
        if k:
            edges[e]["flex"] = k
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
        flex = {e["id"]: e["flex"] for e in edge_recs if "flex" in e}
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
    pg = PlaneGraph(Graph(n, edges, flex), rotation, ext)
    for v, row in enumerate(ang_rows):
        if not (isinstance(row, list) and len(row) == len(rotation[v])):
            raise ParseError(f"vertex {v} needs one angle per rotation entry")
    angles = {}
    for v in range(n):
        for e, a in zip(rotation[v], ang_rows[v]):
            angles[arrival_dart(pg, e, v)] = a
    return OrthoRep(pg, angles, bends)
