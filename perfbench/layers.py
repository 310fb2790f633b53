"""The traced run: spans around calls into coinwalk's public functions.

A traced run replays its workload layer by layer. The root span wraps the
real CLI call; its children re-run, with the same inputs, the library calls
that CLI call makes (``run_walk`` per table cell, ``parse_edge_list``, the
stationary constructions, ...). A ``run_walk`` span gets replayed ``grid``
children: ``step_into`` and the per-step reductions for the same n and step
count. Children are re-runs, not nested calls, so a span's self time is its
duration minus the durations of its children.

The fixed layer probes then time each layer on the inputs of the workload
it belongs to. A probe whose library function is gone reports its metrics
as absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import workloads as wl

LAYERS = ("cli", "runner", "grid", "graph", "stationary")
# Grid sides of the kernel-only sweep; 500 and 1000 are beyond every workload.
SWEEP_SIZES = (100, 200, 500, 1000)
TORUS_SIDE = 100


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    calls: int = 1

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; written out by the caller when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None, run: str = "replay", calls: int = 1):
        sid = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, run, calls))
        try:
            yield sid
        finally:
            self.spans[sid].end = time.perf_counter()

    def child_time(self) -> list[float]:
        total = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                total[s.parent] += s.duration
        return total

    def self_times(self, run: str | None = None) -> dict[str, float]:
        """Seconds of self time per layer, over spans of ``run`` (all runs if None)."""
        out = dict.fromkeys(LAYERS, 0.0)
        for s, child in zip(self.spans, self.child_time()):
            if run is None or s.run == run:
                out[s.layer] = out.get(s.layer, 0.0) + s.duration - child
        return out

    def per_call(self, name: str, run: str = "probe") -> float:
        """Median seconds per call over the spans called ``name``."""
        return statistics.median(s.duration / s.calls for s in self.spans if s.name == name and s.run == run)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _horizon(n: int) -> int:
    """The CLI's default horizon, ceil(4 sqrt(N ln N)) for N = n^2."""
    big_n = n * n
    return math.ceil(4.0 * math.sqrt(big_n * math.log(big_n)))


def _centered(n: int, side: int):
    from coinwalk.grid import MarkedSet

    return MarkedSet.from_block(n, (n // 2 - side // 2, n // 2 - side // 2), side, side)


def _replay_grid_steps(tr: Tracer, parent: int, n: int, marked, scheme, steps: int, run: str) -> None:
    """Re-run ``steps`` calls of ``step_into`` and of the two per-step reductions."""
    from coinwalk.grid import GridState, marked_probability, step_into, uniform_state

    amp = uniform_state(n).amp
    out = np.empty_like(amp)
    half = np.empty((n, n))
    with tr.span("grid.step_into", parent, run, calls=steps):
        for _ in range(steps):
            step_into(amp, out, scheme, marked, half)
            amp, out = out, amp
    state = GridState(n, amp)
    a0 = 1.0 / math.sqrt(4.0 * n * n)
    with tr.span("grid.reduce", parent, run, calls=steps):
        for _ in range(steps):
            marked_probability(state, marked)
            a0 * float(amp.sum())


# ---------------------------------------------------------------------------
# workload replays


@dataclass
class ReplayCounts:
    grid_step_calls: int = 0
    runner_steps: int = 0
    constructions: int = 0
    bytes_written: int = 0
    complete: bool = True  # False when a replayed layer function was missing or failed


def replay(tr: Tracer, name: str, workload: wl.Workload, sizes: wl.Sizes, workdir: Path, check_failures: list[str]) -> ReplayCounts:
    """Run the workload's CLI calls under root spans and replay their layers."""
    from coinwalk.cli import main

    counts = ReplayCounts()
    for inv in workload.invocations:
        with tr.span("cli.main") as root:
            code, stdout, error = wl.call(main, inv.argv)
        problem = wl.judge(inv, code, stdout, error)
        if problem:
            check_failures.append(problem)
        counts.bytes_written += len(stdout.encode()) + sum(p.stat().st_size for p in workload.files if p.exists())
        try:
            if name == "table":
                _replay_table(tr, root, sizes, workdir, counts)
            elif name == "walk":
                _replay_walk(tr, root, sizes, workdir, counts)
            elif name == "graph":
                _replay_graph(tr, root, sizes, workdir, counts)
            else:
                _replay_verify(tr, root, inv.argv, counts)
        except Exception:  # a missing or changed layer function: report, keep going
            traceback.print_exc(file=sys.stderr)
            counts.complete = False
    return counts


def _replay_table(tr, root, sizes, workdir, counts):
    from coinwalk.cli import write_table_csv
    from coinwalk.grid import CoinScheme
    from coinwalk.runner import run_walk

    rows = []
    for n, k, coin in wl.table_cells(sizes):
        marked = _centered(n, math.isqrt(k))
        scheme = CoinScheme(coin)
        with tr.span("runner.run_walk", root) as sid:
            series = run_walk(n, marked, scheme, _horizon(n), record_overlap=False, stop_at_halt=True)
        steps = series.halt_step or _horizon(n)
        counts.runner_steps += steps
        counts.grid_step_calls += steps
        _replay_grid_steps(tr, sid, n, marked, scheme, steps, "replay")
        prob = series.halt_probability or 0.0
        rows.append({"n": n, "k": k, "scheme": coin, "steps": steps, "probability": prob,
                     "runtime": steps / math.sqrt(prob) if prob > 0.0 else 0.0})
    with tr.span("cli.write_table", root):
        write_table_csv(workdir / "replay_rows.csv", rows)


def _replay_walk(tr, root, sizes, workdir, counts):
    from coinwalk.cli import write_series_csv
    from coinwalk.grid import CoinScheme
    from coinwalk.runner import run_walk

    n, horizon = sizes.walk_n, sizes.walk_horizon
    marked = _centered(n, 2)
    with tr.span("runner.run_walk", root) as sid:
        series = run_walk(n, marked, CoinScheme.GROVER, horizon)
    counts.runner_steps += horizon
    counts.grid_step_calls += horizon
    _replay_grid_steps(tr, sid, n, marked, CoinScheme.GROVER, horizon, "replay")
    with tr.span("cli.write_series", root):
        write_series_csv(workdir / "replay_series.csv", series)


def _replay_graph(tr, root, sizes, workdir, counts):
    from coinwalk.cli import write_series_csv
    from coinwalk.graph import graph_step, graph_uniform_state, parse_edge_list, parse_vertex_ids
    from coinwalk.grid import CoinScheme
    from coinwalk.runner import run_graph_walk

    with tr.span("graph.build", root):
        g = parse_edge_list((workdir / "graph.txt").read_text())
    marked = parse_vertex_ids((workdir / "marked.txt").read_text())
    horizon = sizes.graph_horizon
    with tr.span("runner.run_graph_walk", root) as sid:
        series = run_graph_walk(g, marked, CoinScheme.GROVER, horizon)
    counts.runner_steps += horizon
    state = graph_uniform_state(g)
    with tr.span("graph.step", sid, calls=horizon):
        for _ in range(horizon):
            state = graph_step(state, marked, CoinScheme.GROVER)
    with tr.span("cli.write_series", root):
        write_series_csv(workdir / "replay_series.csv", series)


def _replay_verify(tr, root, argv, counts):
    from coinwalk.grid import CoinScheme, dense_step_matrix, step

    if argv[1] == "--n":
        from coinwalk.stationary import BlockSpec, build_block_layered, check_conditions, decompose_initial

        n = int(argv[2])
        m, l = (int(v) for v in argv[4].split("@")[0].split("x"))
        with tr.span("stationary.build", root):
            try:
                cand = build_block_layered(n, BlockSpec((1, 1), m, l))
            except ValueError:  # odd-by-odd: no construction exists
                return
        counts.constructions += 1
        with tr.span("stationary.check", root):
            check_conditions(cand)
        with tr.span("grid.step", root):
            step(cand.state, CoinScheme.GROVER, cand.marked)
        counts.grid_step_calls += 1
        with tr.span("stationary.decompose", root):
            decompose_initial(n, cand)
        if n <= wl.GRID_ORACLE_CAP:
            with tr.span("grid.oracle", root):
                dense_step_matrix(n, CoinScheme.GROVER, cand.marked)
        return
    from coinwalk.graph import decompose_graph_initial, graph_check_conditions, graph_dense_step_matrix, graph_step

    with tr.span("graph.build", root):
        g, marked, state = _build_witness(argv[1:])
    with tr.span("graph.check", root):
        graph_check_conditions(state, marked)
    with tr.span("graph.step", root):
        graph_step(state, marked, CoinScheme.GROVER)
    with tr.span("graph.decompose", root):
        decompose_graph_initial(state, marked)
    with tr.span("graph.oracle", root):
        graph_dense_step_matrix(g, marked, CoinScheme.GROVER)


def _build_witness(tail: list[str]):
    from coinwalk.graph import GenericThreeSpec, build_generic_three, build_symmetric_ring, build_two_marked

    if tail[0] == "--graph-two-marked":
        return build_two_marked(int(tail[2]))
    vals = [int(v) for v in tail[1].split(",")]
    if tail[0] == "--graph-three":
        return build_generic_three(GenericThreeSpec(*vals))
    return build_symmetric_ring(*vals)


# ---------------------------------------------------------------------------
# layer probes

# Computed traffic of one step_into plus the runner's two reductions, per
# grid cell: each pass over the (n, n, 4) float64 array moves 32 bytes a
# cell and each pass over the (n, n) half-sum plane 8. The coin's sum reads
# 32 and writes 8, the halving reads and writes 8 each, the subtraction
# reads 8 + 32 and writes 32, the shift reads and writes 32 each, and the
# overlap sum reads 32: 224 bytes. Flops per cell: 3 adds for the sum, 1
# multiply, 4 subtractions, 4 adds for the overlap sum.
GRID_BYTES_PER_CELL = 224
GRID_FLOPS_PER_CELL = 12


def graph_step_bytes(arcs: int, vertices: int) -> int:
    """Computed traffic of one graph_step: 8-byte values and 8-byte indices.

    Per arc: reduceat reads the amplitudes (8), repeat writes its result
    (8), the subtraction reads two arc arrays and writes one (24), and the
    partner gather reads the indices and values and writes the result (24).
    Per vertex: reduceat reads the offsets and writes the sums (16), the
    doubling reads and writes (16), the division by the degrees reads two
    and writes one (24), and repeat reads its values and the degrees (16).
    """
    return arcs * (8 + 8 + 24 + 24) + vertices * (16 + 16 + 24 + 16)


class Probes:
    """Per-layer timings on fixed inputs; metrics whose function is gone are absent."""

    def __init__(self, tr: Tracer, sizes: wl.Sizes, workdir: Path):
        self.tr, self.sizes, self.workdir = tr, sizes, workdir
        self.metrics: dict[str, float] = {}
        self.absent: list[str] = []

    def run(self, names: tuple[str, ...], fn) -> None:
        try:
            self.metrics.update(fn())
        except Exception:  # a missing or changed layer function: report, keep going
            traceback.print_exc(file=sys.stderr)
            self.absent.extend(names)

    def timed(self, name: str, reps: int, fn) -> float:
        for _ in range(reps):
            with self.tr.span(name, run="probe"):
                fn()
        return self.tr.per_call(name)

    def all(self) -> None:
        self.metrics["grid.bytes_per_step"] = float(GRID_BYTES_PER_CELL * 200 * 200)
        self.metrics["grid.ops_per_byte"] = GRID_FLOPS_PER_CELL / GRID_BYTES_PER_CELL
        self.run(tuple(f"grid.step_us.n{n}" for n in SWEEP_SIZES), self.grid_sweep)
        self.run(("grid.coin_us",), self.grid_coin)
        self.run(("grid.shift_us",), self.grid_shift)
        self.run(("grid.reduce_us",), self.grid_reduce)
        self.run(("grid.oracle_ms",), self.grid_oracle)
        self.run(("runner.cell_s.n100", "runner.cell_s.n200", "runner.self_us_per_step"), self.runner_cells)
        self.run(("graph.build_s", "graph.arcs", "graph.bytes_per_step"), self.graph_build)
        self.run(("graph.step_us", "runner.graph_run_s"), self.graph_run)
        self.run(("graph.marked_idx_us",), self.graph_marked_idx)
        self.run(("graph.step_us.torus100",), self.graph_torus)
        self.run(("graph.oracle_ms",), self.graph_oracle)
        self.run(("stationary.build_us", "stationary.check_us", "stationary.decompose_us"), self.stationary)
        self.run(("cli.write_series_ms",), self.cli_write_series)
        self.run(("cli.write_table_ms",), self.cli_write_table)

    def grid_sweep(self) -> dict:
        from coinwalk.grid import CoinScheme, step_into, uniform_state

        out = {}
        for n in SWEEP_SIZES:
            marked = _centered(n, 3)
            amp = uniform_state(n).amp
            buf, half = np.empty_like(amp), np.empty((n, n))
            reps = max(5, min(200, int(2e6 // (n * n))))  # about 0.1-0.4 s per size
            out[f"grid.step_us.n{n}"] = 1e6 * self.timed(
                f"grid.step_into.n{n}", reps, lambda: step_into(amp, buf, CoinScheme.GROVER, marked, half))
        return out

    def grid_coin(self) -> dict:
        from coinwalk.grid import CoinScheme, apply_coin, uniform_state

        state, marked = uniform_state(100), _centered(100, 3)
        return {"grid.coin_us": 1e6 * self.timed(
            "grid.apply_coin", 100, lambda: apply_coin(state, CoinScheme.GROVER, marked))}

    def grid_shift(self) -> dict:
        from coinwalk.grid import apply_shift, uniform_state

        state = uniform_state(100)
        return {"grid.shift_us": 1e6 * self.timed("grid.apply_shift", 100, lambda: apply_shift(state))}

    def grid_reduce(self) -> dict:
        from coinwalk.grid import marked_probability, uniform_state

        state, marked = uniform_state(100), _centered(100, 3)
        a0 = 1.0 / math.sqrt(4.0 * 100 * 100)
        return {"grid.reduce_us": 1e6 * self.timed(
            "grid.reduce", 200, lambda: (marked_probability(state, marked), a0 * float(state.amp.sum())))}

    def grid_oracle(self) -> dict:
        from coinwalk.grid import CoinScheme, MarkedSet, dense_step_matrix

        marked = MarkedSet.from_block(8, (1, 1), 2, 2)
        return {"grid.oracle_ms": 1e3 * self.timed(
            "grid.oracle", 5, lambda: dense_step_matrix(8, CoinScheme.GROVER, marked))}

    def runner_cells(self) -> dict:
        """The 3x3 Grover table cell run to the halt step at n=100 and n=200.

        Each ``run_walk`` span gets replayed grid children, so its self time
        per step is run_walk's own per-step cost.
        """
        from coinwalk.grid import CoinScheme
        from coinwalk.runner import run_walk

        out = {}
        self_per_step = []
        for n, reps in ((100, 3), (200, 1)):
            marked = _centered(n, 3)
            for _ in range(reps):
                with self.tr.span(f"runner.run_walk.n{n}", run="probe") as sid:
                    series = run_walk(n, marked, CoinScheme.GROVER, _horizon(n), record_overlap=False, stop_at_halt=True)
                steps = series.halt_step
                _replay_grid_steps(self.tr, sid, n, marked, CoinScheme.GROVER, steps, "probe")
                if n == 100:
                    children = self.tr.child_time()[sid]
                    self_per_step.append(1e6 * (self.tr.spans[sid].duration - children) / steps)
            out[f"runner.cell_s.n{n}"] = self.tr.per_call(f"runner.run_walk.n{n}")
        out["runner.self_us_per_step"] = statistics.median(self_per_step)
        return out

    def _graph_input(self):
        from coinwalk.graph import parse_edge_list, parse_vertex_ids

        if not hasattr(self, "_graph"):
            text = (self.workdir / "graph.txt").read_text()
            with self.tr.span("graph.build", run="probe"):
                g = parse_edge_list(text)
            self._graph = g, parse_vertex_ids((self.workdir / "marked.txt").read_text())
        return self._graph

    def graph_build(self) -> dict:
        g, _marked = self._graph_input()
        return {
            "graph.build_s": self.tr.per_call("graph.build"),
            "graph.arcs": float(g.arc_count),
            "graph.bytes_per_step": float(graph_step_bytes(g.arc_count, g.n)),
        }

    def graph_run(self) -> dict:
        """``run_graph_walk`` on the graph workload's input, with replayed ``graph_step`` children."""
        from coinwalk.graph import graph_step, graph_uniform_state
        from coinwalk.grid import CoinScheme
        from coinwalk.runner import run_graph_walk

        g, marked = self._graph_input()
        horizon = self.sizes.graph_horizon
        with self.tr.span("runner.run_graph_walk", run="probe") as sid:
            run_graph_walk(g, marked, CoinScheme.GROVER, horizon)
        state = graph_uniform_state(g)
        with self.tr.span("graph.step", sid, run="probe", calls=horizon):
            for _ in range(horizon):
                state = graph_step(state, marked, CoinScheme.GROVER)
        return {"graph.step_us": 1e6 * self.tr.per_call("graph.step"),
                "runner.graph_run_s": self.tr.spans[sid].duration}

    def graph_marked_idx(self) -> dict:
        g, marked = self._graph_input()
        return {"graph.marked_idx_us": 1e6 * self.timed(
            "graph.marked_arc_indices", 200, lambda: g.marked_arc_indices(marked))}

    def graph_torus(self) -> dict:
        from coinwalk.graph import graph_step, graph_uniform_state, torus_graph
        from coinwalk.grid import CoinScheme

        n = TORUS_SIDE
        g = torus_graph(n)
        marked = [x * n + y for x, y in _centered(n, 3)]
        state = graph_uniform_state(g)
        return {"graph.step_us.torus100": 1e6 * self.timed(
            "graph.step.torus", 100, lambda: graph_step(state, marked, CoinScheme.GROVER))}

    def graph_oracle(self) -> dict:
        from coinwalk.graph import graph_dense_step_matrix
        from coinwalk.grid import CoinScheme

        built = [_build_witness(tail) for tail in wl.GRAPH_WITNESSES]
        for _ in range(3):
            for g, marked, _state in built:
                with self.tr.span("graph.oracle", run="probe"):
                    graph_dense_step_matrix(g, marked, CoinScheme.GROVER)
        return {"graph.oracle_ms": 1e3 * self.tr.per_call("graph.oracle")}

    def stationary(self) -> dict:
        from coinwalk.stationary import (
            BlockSpec, build_block_layered, build_block_tiling, check_conditions, decompose_initial)

        blocks = [(n, BlockSpec((1, 1), m, l)) for n, m, l in wl.verify_blocks(self.sizes) if (m * l) % 2 == 0]
        cands = []
        for n, block in blocks:
            with self.tr.span("stationary.build", run="probe"):
                cands.append((n, build_block_layered(n, block)))
            with self.tr.span("stationary.build", run="probe"):
                build_block_tiling(n, block, None, _canonical_tiling(block))
        for n, cand in cands:
            with self.tr.span("stationary.check", run="probe"):
                check_conditions(cand)
            with self.tr.span("stationary.decompose", run="probe"):
                decompose_initial(n, cand)
        return {
            "stationary.build_us": 1e6 * self.tr.per_call("stationary.build"),
            "stationary.check_us": 1e6 * self.tr.per_call("stationary.check"),
            "stationary.decompose_us": 1e6 * self.tr.per_call("stationary.decompose"),
        }

    def cli_write_series(self) -> dict:
        from coinwalk.cli import write_series_csv

        rng = np.random.default_rng(0)
        steps = self.sizes.walk_horizon + 1
        series = SimpleNamespace(probability=rng.random(steps) * 1e-3, overlap=1.0 - rng.random(steps) * 1e-3)
        path = self.workdir / "probe_series.csv"
        return {"cli.write_series_ms": 1e3 * self.timed("cli.write_series", 5, lambda: write_series_csv(path, series))}

    def cli_write_table(self) -> dict:
        from coinwalk.cli import write_table_csv

        rows = [{"n": n, "k": k, "scheme": s, "steps": st, "probability": p, "runtime": st / math.sqrt(p)}
                for (n, k, s), (st, p) in sorted(wl.load_reference_rows().items())]
        path = self.workdir / "probe_rows.csv"
        return {"cli.write_table_ms": 1e3 * self.timed("cli.write_table", 20, lambda: write_table_csv(path, rows))}


def _canonical_tiling(block):
    """Dominoes laid along the block's even side."""
    ox, oy = block.origin
    m, l = block.width, block.height
    if m % 2 == 0:
        return [((ox + i, oy + j), True) for i in range(0, m, 2) for j in range(l)]
    return [((ox + i, oy + j), False) for i in range(m) for j in range(0, l, 2)]
