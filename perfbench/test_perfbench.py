"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import solve as S  # noqa: E402
import workloads as W  # noqa: E402
import worker  # noqa: E402
from orthobend import cycles, graph  # noqa: E402
from spans import Tracer  # noqa: E402

DIGEST = ("import hashlib, workloads as W\n"
          "h = hashlib.sha256()\n"
          "for name, make in sorted(W.WORKLOADS.items()):\n"
          "    for q in make(7):\n"
          "        h.update(q.text.encode())\n"
          "print(h.hexdigest())\n")


def small_queries(seed=3):
    return W.every_face(seed, count=2, n=16) + W.deep_nest(seed, count=2, n=60)


def test_generators_repeat_byte_for_byte():
    for make in W.WORKLOADS.values():
        assert [q.text for q in make(5)] == [q.text for q in make(5)]
        assert [q.text for q in make(5)] != [q.text for q in make(6)]


def test_generators_ignore_the_hash_seed():
    digests = set()
    for hash_seed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", DIGEST], cwd=HERE,
                             env=env, capture_output=True, text=True,
                             check=True, timeout=120)
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_generated_texts_are_the_queries_they_describe():
    for q in small_queries():
        pg = graph.load_plane_graph(q.text)
        assert S.check_input(q, pg) is None
        assert pg.graph.is_cubic()


def test_every_face_queries_cover_every_face():
    qs = W.every_face(1, count=1, n=16)
    assert [q.external for q in qs] == list(range(len(qs)))
    assert len(qs) == 16 // 2 + 2


def test_traced_costs_equal_untraced_costs():
    qs = small_queries()
    plain = [S.solve(q.text)[2] for q in qs]
    originals = (graph.embed, cycles.embed, cycles.dual_triangles)
    tracer = Tracer(worker.HOOKS)
    tracer.install("orthobend", worker.TRACED_MODULES)
    try:
        assert cycles.embed is graph.embed is not originals[0]
        traced = []
        for i, q in enumerate(qs):
            tracer.query = i
            traced.append(S.solve(q.text)[2])
    finally:
        tracer.uninstall()
    assert (graph.embed, cycles.embed, cycles.dual_triangles) == originals
    assert traced == plain
    calls = tracer.call_counts()
    assert all(calls[(i, "cycles.demanding_sets")] == 1
               for i in range(len(qs)))
    metrics = worker.layer_metrics(tracer, list(range(len(qs))))
    assert metrics["cycles.dual_triangles.calls_per_query"] >= 1
    assert metrics["graph.faces_per_query"] > 0


def test_self_time_subtracts_child_coverage():
    tracer = Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1, 0],
                    ["inner", 1.0, 4.0, 0, 0],
                    ["inner", 5.0, 6.0, 0, 0],
                    ["leaf", 2.0, 3.0, 1, 0]]
    selfs = tracer.self_times()
    assert selfs[(0, "outer")] == pytest.approx(6.0)
    assert selfs[(0, "inner")] == pytest.approx(3.0)
    assert selfs[(0, "leaf")] == pytest.approx(1.0)


def test_referee_flags_a_wrong_cost():
    inflexible = W.every_face(2, count=1, n=16)[0]
    pg, _, cost = S.solve(inflexible.text)
    assert S.referee(inflexible, pg, cost)[:2] == (True, None)
    for wrong in (cost - 1, cost + 1):
        exact, err, _ = S.referee(inflexible, pg, wrong)
        assert exact and err
    flexible = next(q for q in W.every_face(2, count=2, n=16)
                    if q.flex and S.external_flex(
                        graph.load_plane_graph(q.text)))
    pg, _, cost = S.solve(flexible.text)
    exact, err, flow = S.referee(flexible, pg, cost)
    assert not exact and err is None and cost <= flow
    assert S.referee(flexible, pg, flow + 1)[1]


def test_referee_flags_another_embedding():
    q = W.every_face(2, count=1, n=16)[0]
    other = graph.load_plane_graph(q.text).with_external_face(q.external + 1)
    assert "external face" in S.check_input(q, other)


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "every-face",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
