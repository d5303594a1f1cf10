"""Left-right planarity test (Brandes, *The Left-Right Planarity Test*, 2009).

An iterative port of networkx 3.6.1's `LRPlanarity.lr_planarity` onto flat
lists indexed by edge id, giving the same clockwise rotation lists that
networkx's `check_planarity` gives for the same graph. Once the DFS has
oriented an edge, head[e] is the end it was oriented towards. A conflict
pair is a list [left low, left high, right low, right high] of edge ids,
-1 standing for none; stack_bottom is compared by identity, as networkx
compares its pair objects.

Every vertex of a Graph has degree at most 3, so sorting a vertex's
outgoing edges by nesting depth sorts at most 3 items and the test runs in
linear time.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import NotPlanar


def lr_rotation(g) -> list[list[int]]:
    """Clockwise rotation lists of edge ids for `g`; NotPlanar if none.

    g is a Graph, hence connected: one DFS from vertex 0 reaches every
    vertex. rotation[v][0] is the neighbour networkx calls v's leftmost,
    so the lists match `nx.check_planarity`'s `neighbors_cw_order` item
    for item.

    The test reads g's darts as ints, and builds no tuple per edge: the
    neighbour order is one flat list of darts, the edges out of a vertex
    are its rotation row, sorted in place, and the back edges are placed
    into the rows as the last DFS walks them.
    """
    n, m = g.n, g.m
    if n == 0:
        return []
    # networkx embeds a copy built from G.edges: u ascending, then u's
    # neighbours w > u in adjacency order, appended at both ends. So v's
    # darts out, nbrs[first[v]:first[v + 1]], go to its neighbours u < v
    # in ascending order, then to those w > v in edge-id order.
    ends = g.ends
    first = list(accumulate(map(len, g.adj), initial=0))
    fill = first[:n]
    nbrs = [0] * (2 * m)
    for u, darts in enumerate(g.adj):
        for d in darts:
            w = ends[d ^ 1]
            if w > u:
                nbrs[fill[u]] = d
                fill[u] += 1
                nbrs[fill[w]] = d ^ 1
                fill[w] += 1

    height = [-1] * n
    parent = [-1] * n  # edge to the DFS parent
    tail = [-1] * m
    head = [-1] * m
    out = [[] for _ in range(n)]  # edges oriented away; later the rotation
    lowpt = [0] * m
    lowpt2 = [0] * m
    nesting = [0] * m

    # -- orientation: DFS, lowpoints and nesting depths ----------------------
    ind = first[:n]
    height[0] = 0
    stack = [0]
    while stack:
        v = stack.pop()
        e = parent[v]
        i, stop = ind[v], first[v + 1]
        while i < stop:
            d = nbrs[i]
            vw = d >> 1
            if tail[vw] < 0:  # not yet oriented
                w = ends[d ^ 1]
                tail[vw], head[vw] = v, w
                out[v].append(vw)
                lowpt[vw] = lowpt2[vw] = height[v]
                if height[w] < 0:  # tree edge: visit w, then resume here
                    parent[w] = vw
                    height[w] = height[v] + 1
                    stack.append(v)
                    stack.append(w)
                    break
                lowpt[vw] = height[w]  # back edge
            elif tail[vw] != v:  # oriented from the other end
                i += 1
                continue
            nesting[vw] = 2 * lowpt[vw] + (lowpt2[vw] < height[v])
            if e >= 0:
                if lowpt[vw] < lowpt[e]:
                    lowpt2[e] = min(lowpt[e], lowpt2[vw])
                    lowpt[e] = lowpt[vw]
                elif lowpt[vw] > lowpt[e]:
                    lowpt2[e] = min(lowpt2[e], lowpt[vw])
                else:
                    lowpt2[e] = min(lowpt2[e], lowpt2[vw])
            i += 1
        ind[v] = i

    # -- testing: constraints on the conflict-pair stack ----------------------
    for o in out:
        o.sort(key=nesting.__getitem__)
    ref = [-1] * m
    side = [1] * m
    lowpt_edge = [-1] * m
    stack_bottom = [None] * m
    S = []

    def conflicting(high, b):
        return high >= 0 and lowpt[high] > lowpt[b]

    def add_constraints(ei, e):
        P = [-1, -1, -1, -1]
        while True:  # merge the return edges of ei into P's right
            Q = S.pop()
            if Q[0] >= 0 or Q[1] >= 0:
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
            if Q[0] >= 0 or Q[1] >= 0:
                raise NotPlanar("graph admits no planar embedding")
            if lowpt[Q[2]] > lowpt[e]:
                if P[2] < 0 and P[3] < 0:
                    P[3] = Q[3]
                else:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:
                ref[Q[2]] = lowpt_edge[e]
            if (S[-1] if S else None) is stack_bottom[ei]:
                break
        # merge the conflicting return edges of earlier siblings into P's left
        while S and (conflicting(S[-1][1], ei) or conflicting(S[-1][3], ei)):
            Q = S.pop()
            if conflicting(Q[3], ei):
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
            if conflicting(Q[3], ei):
                raise NotPlanar("graph admits no planar embedding")
            if P[2] >= 0:
                ref[P[2]] = Q[3]
            if Q[2] >= 0:
                P[2] = Q[2]
            if P[0] < 0 and P[1] < 0:
                P[1] = Q[1]
            elif P[0] >= 0:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if P != [-1, -1, -1, -1]:
            S.append(P)

    def lowest(P):
        if P[0] < 0 and P[1] < 0:
            return lowpt[P[2]]
        if P[2] < 0 and P[3] < 0:
            return lowpt[P[0]]
        return min(lowpt[P[0]], lowpt[P[2]])

    def remove_back_edges(e):
        u = tail[e]
        while S and lowest(S[-1]) == height[u]:  # drop whole pairs
            P = S.pop()
            if P[0] >= 0:
                side[P[0]] = -1
        if S:  # trim the top pair
            P = S[-1]
            while P[1] >= 0 and head[P[1]] == u:
                P[1] = ref[P[1]]
            if P[1] < 0 and P[0] >= 0:  # just emptied
                ref[P[0]] = P[2]
                side[P[0]] = -1
                P[0] = -1
            while P[3] >= 0 and head[P[3]] == u:
                P[3] = ref[P[3]]
            if P[3] < 0 and P[2] >= 0:
                ref[P[2]] = P[0]
                side[P[2]] = -1
                P[2] = -1
        if lowpt[e] < height[u]:  # e's side is that of a highest return edge
            hl, hr = S[-1][1], S[-1][3]
            ref[e] = hl if hl >= 0 and (hr < 0 or lowpt[hl] > lowpt[hr]) \
                else hr

    ind = [0] * n
    entered = [False] * m
    stack = [0]
    while stack:
        v = stack.pop()
        e = parent[v]
        adj = out[v]
        i = ind[v]
        descended = False
        while i < len(adj):
            ei = adj[i]
            if not entered[ei]:
                entered[ei] = True
                stack_bottom[ei] = S[-1] if S else None
                w = head[ei]
                if parent[w] == ei:  # tree edge: test w, then resume here
                    stack.append(v)
                    stack.append(w)
                    descended = True
                    break
                lowpt_edge[ei] = ei  # back edge
                S.append([-1, -1, ei, ei])
            if lowpt[ei] < height[v]:  # ei has a return edge
                if i == 0:
                    lowpt_edge[e] = lowpt_edge[ei]
                else:
                    add_constraints(ei, e)
            i += 1
        ind[v] = i
        if not descended and e >= 0:
            remove_back_edges(e)

    # -- embedding: absolute sides, then place the back edges ---------------
    chain = []
    for e in range(m):  # resolve each side along its ref chain
        x = e
        while ref[x] >= 0:
            chain.append(x)
            x = ref[x]
        while chain:
            y = chain.pop()
            side[y] *= side[ref[y]]
            ref[y] = -1
        nesting[e] *= side[e]
    # A stable sort keeps equal final nestings in orientation order, as
    # their first nestings were equal too, so sorting the rows again sorts
    # them as sorting their orientation order would.
    rotation = out
    for o in rotation:
        o.sort(key=nesting.__getitem__)
    left_ref = [-1] * n
    right_ref = [-1] * n
    ind = [0] * n  # per row, the position of its next edge out
    stack = [0]
    while stack:
        v = stack.pop()
        rv = rotation[v]
        i = ind[v]
        while i < len(rv):
            ei = rv[i]
            i += 1
            w = head[ei]
            rw = rotation[w]
            # each edge placed into row w lands before w's next edge out
            ind[w] += 1
            if parent[w] == ei:  # tree edge: w's first, then embed w
                rw.insert(0, ei)
                left_ref[v] = right_ref[v] = ei
                stack.append(v)
                stack.append(w)
                break
            if side[ei] == 1:  # clockwise after right_ref[w]
                rw.insert(rw.index(right_ref[w]) + 1, ei)
            else:  # counterclockwise before left_ref[w]
                rw.insert(rw.index(left_ref[w]), ei)
                left_ref[w] = ei
        ind[v] = i
    return rotation
