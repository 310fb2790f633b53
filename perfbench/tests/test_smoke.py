"""Smoke test of the benchmark at tiny sizes; no timing is asserted.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = wl.Sizes(
    table_sizes=(100,), table_blocks=(3,), walk_horizon=200,
    graph_vertices=300, graph_edges=1200, graph_marked=4, graph_horizon=40,
    verify_sizes=(8,), verify_max_side=2,
)


def tiny_workload(name: str, workdir: Path) -> wl.Workload:
    edges, marked = wl.generate_graph(7, TINY.graph_vertices, TINY.graph_edges, TINY.graph_marked)
    wl.write_graph_files(workdir, edges, marked)
    ref = wl.reference_graph_walk(TINY.graph_vertices, edges, marked, TINY.graph_horizon)
    return wl.build_workload(name, workdir, TINY, ref)


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(wl.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    e2e = run.end_to_end({"op_s": [1.0, 2.0], "inv_ms": [3.0], "arc_steps_per_op": 10, "peak_rss_kb": 2048}, [0.1])
    assert set(bounds) <= set(e2e)


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_workload_runs_and_passes_its_checks(name, tmp_path):
    result = worker.measure(tiny_workload(name, tmp_path), seconds=0.0)
    assert result["failed"] == 0, result["problems"]
    assert result["attempted"] >= 1 and result["arc_steps_per_op"] > 0


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    result = worker.traced(name, tiny_workload(name, tmp_path), TINY, tmp_path)
    assert result["failed"] == 0, result["problems"]
    assert result["absent"] == []
    assert set(result["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert {s["run"] for s in result["spans"]} == {"replay", "probe"}


def test_checks_reject_wrong_outputs(tmp_path):
    from coinwalk.cli import main

    table = tiny_workload("table", tmp_path).invocations[0]
    assert wl.judge(table, *wl.call(main, table.argv)) is None
    rows = tmp_path / "table_rows.csv"
    rows.write_text(rows.read_text().replace("318", "319"))
    assert "table cell" in table.check(0, "")

    report = {"target": "grid-block", "conditions": {"a": True, "b": False, "c": True},
              "residual": 0.0, "oracle_residual": 0.0, "tolerance": 1e-12, "passed": True}
    verify = wl.build_workload("verify", tmp_path, TINY).invocations[1]  # 1x2 block on n=8
    assert "conditions" in verify.check(0, json.dumps(report))
    report["conditions"]["b"] = True
    assert verify.check(0, json.dumps(report)) is None
    del report["oracle_residual"]
    assert "oracle" in verify.check(0, json.dumps(report))
    odd = wl.build_workload("verify", tmp_path, TINY).invocations[0]  # 1x1 block
    assert odd.check(4, "") is None and "exited 0" in odd.check(0, json.dumps(report))


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_layer_function_is_reported_absent(tmp_path, monkeypatch):
    import coinwalk.grid

    monkeypatch.delattr(coinwalk.grid, "step_into")
    monkeypatch.delattr(coinwalk.grid, "apply_coin")
    result = worker.traced("walk", tiny_workload("walk", tmp_path), TINY, tmp_path)
    assert result["failed"] == 0, result["problems"]
    absent = set(result["absent"])
    assert {"grid.step_us.n100", "grid.coin_us", "runner.self_us_per_step", "self_s.grid"} <= absent
    assert absent.isdisjoint(result["per_layer"])
    assert "graph.step_us" in result["per_layer"]


def test_witness_arc_counts_match_the_constructions():
    from coinwalk.graph import GenericThreeSpec, build_generic_three, build_symmetric_ring, build_two_marked

    for tail in wl.GRAPH_WITNESSES:
        vals = [int(v) for v in tail[-1].split(",")]
        if tail[0] == "--graph-two-marked":
            g = build_two_marked(*vals)[0]
        elif tail[0] == "--graph-three":
            g = build_generic_three(GenericThreeSpec(*vals))[0]
        else:
            g = build_symmetric_ring(*vals)[0]
        assert wl.witness_arcs(tail) == g.arc_count, tail
