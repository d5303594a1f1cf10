"""Child process of the solve-query benchmark; `run.py` starts it.

    python3 worker.py solve   JOB   closed loop of solve queries, timed
    python3 worker.py referee JOB   flow-oracle check of reported costs
    python3 worker.py sweep   JOB   traced deep-nest size sweep

JOB is a JSON object with the workload, seed, seconds and trace flag.
The referee reads the solve results on standard input. Each mode writes
one JSON line per query to standard output as it goes, so a run that is
killed still reports what it finished, and a last line with the
process's peak resident memory and, when traced, per-layer figures.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import solve as S  # noqa: E402
import workloads as W  # noqa: E402
from spans import Tracer  # noqa: E402

TRACED_MODULES = ["graph", "cycles", "oracle", "orthorep"]
SWEEP_SIZES = [100, 200, 400, 800, 1600, 3200]
SWEEP_STAGES = [
    "graph.load_plane_graph", "graph.embed", "cycles.dual_triangles",
    "cycles.three_cycle_records", "cycles.inclusion_tree",
    "cycles.color_3_extrovert", "cycles.demanding_sets",
    "oracle.flow_min_bends",
]
SELF_TIMED = [
    "graph.load_plane_graph", "graph.embed", "graph.rotations_from_networkx",
    "graph.trace_faces", "cycles.dual_triangles",
    "cycles.three_cycle_records", "cycles.compute_reference_embedding",
    "cycles.inclusion_tree", "cycles.contour_paths_explicit",
    "cycles.color_3_extrovert", "cycles.color_3_introvert",
    "cycles.demanding_sets",
]
CALLS_COUNTED = ["cycles.dual_triangles", "cycles.three_cycle_records"]
OUT_DIR = Path(".perfbench")


def emit(obj):
    print(json.dumps(obj), flush=True)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def failure(exc):
    return f"{type(exc).__name__}: {exc}"


# -- counters read off traced return values ----------------------------------

def _count_faces(tr, args, faces):
    tr.count("faces", len(faces))


def _count_records(tr, args, records):
    facial = sum(1 for r in records if r.degenerate)
    tr.count("records", len(records))
    tr.count("facial", facial)
    tr.count("separating", (len(records) - facial) / 2)
    inside = sum(len(r.inside_faces) for r in records)
    q = tr.counters[tr.query]
    q["inside_faces"] = max(q["inside_faces"], inside)


def _count_tree(tr, args, tree):
    q = tr.counters[tr.query]
    depth = max((tree.depth(c) for c in tree.nodes), default=0)
    q["tree_depth"] = max(q["tree_depth"], depth)


def _count_demanding(tr, args, ds):
    tr.count("d_set", len(ds.d_set))
    tr.count("d_f", len(ds.d_f))
    tr.count("nonref", ds.reference_face != args[0].external_face)


HOOKS = {
    "graph.trace_faces": _count_faces,
    "cycles.three_cycle_records": _count_records,
    "cycles.inclusion_tree": _count_tree,
    "cycles.demanding_sets": _count_demanding,
}


def new_tracer():
    tracer = Tracer(HOOKS)
    tracer.install("orthobend", TRACED_MODULES)
    return tracer


def write_spans(tracer, name):
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{name}.jsonl", "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer, queries):
    """Per-layer figures over the traced queries `queries` (ids)."""
    selfs = tracer.self_times()
    calls = tracer.call_counts()
    cnt = tracer.counters
    k = len(queries)

    def med(values):
        return statistics.median(values) if values else 0.0

    def per_query_sum(name):
        return sum(cnt[q][name] for q in queries)

    out = {}
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = med([selfs.get((q, name), 0.0)
                                     for q in queries])
    for name in CALLS_COUNTED:
        out[f"{name}.calls_per_query"] = \
            sum(calls.get((q, name), 0) for q in queries) / k
    triangles = per_query_sum("separating") + per_query_sum("facial")
    out.update({
        "cycles.records_per_query": per_query_sum("records") / k,
        "cycles.separating_frac":
            per_query_sum("separating") / triangles if triangles else 0.0,
        "cycles.nonref_frac": per_query_sum("nonref") / k,
        "cycles.tree_depth": med([cnt[q]["tree_depth"] for q in queries]),
        "cycles.d_set_size": per_query_sum("d_set") / k,
        "cycles.d_f_size": per_query_sum("d_f") / k,
        "cycles.inside_faces_total": per_query_sum("inside_faces") / k,
        "graph.faces_per_query": per_query_sum("faces") / k,
        "trace.spans_per_query": len(tracer.spans) / k,
    })
    return out


# -- modes --------------------------------------------------------------------

def timed_solve(text):
    t0 = time.perf_counter()
    pg, _, cost = S.solve(text)
    dt = time.perf_counter() - t0
    ext = sorted(set(pg.faces[pg.external_face].edge_ids()))
    return dt, cost, ext


def run_solve(job):
    """Closed loop, one query at a time, for job['seconds'] seconds.

    Traced, each query runs twice, traced and untraced in alternating
    order, so the two medians give the tracing overhead.
    """
    queries = W.WORKLOADS[job["workload"]](job["seed"])
    S.solve(W.sweep(job["seed"], [100])[0].text)  # warm up lazy imports
    tracer = Tracer(HOOKS) if job["trace"] else None
    traced_ids = []
    end = time.perf_counter() + job["seconds"]
    i = 0
    while time.perf_counter() < end:
        idx = i % len(queries)
        row = {"i": idx, "n": queries[idx].n}
        try:
            if tracer is None:
                row["s"], row["cost"], row["ext"] = \
                    timed_solve(queries[idx].text)
            else:
                runs = {}
                for traced in ((False, True) if i % 2 == 0
                               else (True, False)):
                    if traced:
                        tracer.query = i
                        tracer.install("orthobend", TRACED_MODULES)
                    try:
                        runs[traced] = timed_solve(queries[idx].text)
                    finally:
                        tracer.uninstall()
                traced_ids.append(i)
                row["s"], row["cost"], row["ext"] = runs[False]
                row["traced_s"] = runs[True][0]
                if runs[True][1:] != runs[False][1:]:
                    row["err"] = (f"traced result {runs[True][1:]} != "
                                  f"untraced {runs[False][1:]}")
        except Exception as exc:  # a failed query is counted, not fatal
            row["err"] = failure(exc)
        emit(row)
        i += 1
    last = {"done": True, "rss_mb": peak_rss_mb()}
    if tracer and traced_ids:
        last["layers"] = layer_metrics(tracer, traced_ids)
        write_spans(tracer,
                    f"solve-{job['workload']}-{job['seed']}")
    emit(last)


def run_referee(job):
    """Referee each distinct (query, cost, external face) reported."""
    queries = W.WORKLOADS[job["workload"]](job["seed"])
    results = json.load(sys.stdin)
    tracer = new_tracer() if job["trace"] else None
    for j, (idx, cost, ext) in enumerate(results):
        row = {"key": [idx, cost, ext]}
        if tracer:
            tracer.query = j
        try:
            pg = S.graph.load_plane_graph(queries[idx].text)
            if sorted(set(pg.faces[pg.external_face].edge_ids())) != ext:
                row["err"] = "reloaded embedding has another external face"
            else:
                row["exact"], row["err"], _ = \
                    S.referee(queries[idx], pg, cost)
        except Exception as exc:
            row["err"] = failure(exc)
        emit(row)
    last = {"done": True, "rss_mb": peak_rss_mb()}
    if tracer:
        incl = tracer.inclusive_times()
        last["flow_s"] = [incl[(j, "oracle.flow_min_bends")]
                          for j in range(len(results))
                          if (j, "oracle.flow_min_bends") in incl]
        write_spans(tracer, f"referee-{job['workload']}-{job['seed']}")
    emit(last)


def run_sweep(job):
    """Traced solve plus oracle per size; inclusive seconds per stage."""
    tracer = new_tracer()
    for q in W.sweep(job["seed"], SWEEP_SIZES):
        tracer.query = q.n
        row = {"n": q.n}
        try:
            pg, _, cost = S.solve(q.text)
            _, row["err"], _ = S.referee(q, pg, cost)
        except Exception as exc:
            row["err"] = failure(exc)
        incl = tracer.inclusive_times()
        row["stages"] = {s: incl.get((q.n, s), 0.0) for s in SWEEP_STAGES}
        emit(row)
    write_spans(tracer, f"sweep-{job['seed']}")
    emit({"done": True, "rss_mb": peak_rss_mb()})


if __name__ == "__main__":
    mode, job = sys.argv[1], json.loads(sys.argv[2])
    {"solve": run_solve, "referee": run_referee, "sweep": run_sweep}[mode](job)
