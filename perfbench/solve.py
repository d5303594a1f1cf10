"""The solve query and its referee.

A solve query parses and embeds a graph text, computes the demanding
sets of that embedding and turns them into the counting cost

    |D| + 4 - min(4, |D_f| + sum of flex over external edges).

The referee compares that cost with the min-cost-flow optimum of the
same embedding. The contract is the one `oracle.brute_cost_formula`
documents: equal when no external edge is flexible, a lower bound
otherwise.
"""

from __future__ import annotations

from orthobend import cycles, graph, oracle


def external_flex(pg):
    return sum(pg.graph.flexibility(e)
               for e in set(pg.faces[pg.external_face].edge_ids()))


def solve(text):
    """Returns (plane graph, demanding sets, cost).

    The structures are returned, not dropped, so that a caller timing the
    query frees them after its clock stops.
    """
    pg = graph.load_plane_graph(text)
    ds = cycles.demanding_sets(pg)
    cost = len(ds.d_set) + 4 - min(4, len(ds.d_f) + external_flex(pg))
    return pg, ds, cost


def check_input(query, pg):
    """The embedding the program built is one of the query's graph."""
    g = pg.graph
    if pg.n != query.n or [tuple(e) for e in g.edges] != query.edges:
        return "edge list differs from the query"
    if g.flex != query.flex:
        return "flexibilities differ from the query"
    if len(pg.faces) != len(query.edges) - query.n + 2:
        return "face count breaks Euler's formula"
    if query.external is not None and pg.external_face != query.external:
        return "external face differs from the query"
    return None


def referee(query, pg, cost):
    """Returns (exact rule applied, reason for failure or None, flow cost)."""
    exact = external_flex(pg) == 0
    bad = check_input(query, pg)
    if bad:
        return exact, bad, None
    flow_cost, _ = oracle.flow_min_bends(pg)
    if exact and cost != flow_cost:
        return exact, f"cost {cost} != flow optimum {flow_cost}", flow_cost
    if not exact and cost > flow_cost:
        return exact, f"cost {cost} > flow optimum {flow_cost}", flow_cost
    return exact, None, flow_cost
