"""The benchmark's workloads: CLI argument lists, seeded inputs and output checks.

Each workload is a list of ``coinwalk`` CLI invocations; every invocation
carries the check its output must pass and the number of arc-steps (walk
steps times arcs) it performs. Callers do the timing.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_ROWS = Path(__file__).resolve().parent / "reference" / "table_rows.csv"

WORKLOADS = ("table", "walk", "graph", "verify")

# Table rows the paper prints (criteria 1-2): (n, k, coin) -> (steps, probability).
ACCEPTANCE_ROWS = {
    (100, 9, "akr"): (156, 0.086454),
    (100, 9, "grover"): (318, 0.556187),
    (200, 9, "akr"): (345, 0.066591),
    (200, 9, "grover"): (653, 0.527665),
}
# AKR/Grover runtime ratios at n=100 (criterion 3), checked within 1%.
ACCEPTANCE_RATIOS_N100 = {9: 1.2436, 25: 1.0165, 49: 0.7710, 81: 0.6246}

EXIT_OK = 0
EXIT_IMPOSSIBLE = 4


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the four workloads; the defaults are the benchmark's."""

    table_sizes: tuple[int, ...] = (100, 200)
    table_blocks: tuple[int, ...] = (3, 5, 7, 9)
    walk_n: int = 100
    walk_horizon: int = 10_000
    graph_vertices: int = 20_000
    graph_edges: int = 80_000
    graph_marked: int = 32
    graph_horizon: int = 1500
    verify_sizes: tuple[int, ...] = (8, 10, 12)
    verify_max_side: int = 6


@dataclass
class Invocation:
    """One CLI call: its argv, the check of its output, and its arc-steps."""

    argv: list[str]
    check: Callable[[int, str], str | None]
    arc_steps: int = 0


@dataclass
class Workload:
    invocations: list[Invocation]
    files: list[Path] = field(default_factory=list)  # outputs one operation writes


def call(main, argv: list[str]) -> tuple[int | None, str, str | None]:
    """Run one CLI invocation quietly: (exit code, stdout, traceback or None)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a raising CLI call is a failed operation, not a crashed run
        return None, out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), None


def judge(inv: Invocation, code, stdout: str, error: str | None) -> str | None:
    """The failure message for one invocation's outcome, or None if it passed."""
    if error is not None:
        return f"{inv.argv[0]} raised:\n{error}"
    try:
        return inv.check(code, stdout)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"{inv.argv[0]}: unreadable output ({exc!r})"


# ---------------------------------------------------------------------------
# graph input


def generate_graph(seed: int, vertices: int, edges: int, marked: int):
    """Seeded simple graph with irregular degrees, and a marked vertex set.

    A ring through a random permutation keeps every vertex at degree >= 2
    (the walk's coin is undefined at isolated vertices); the remaining
    edges join endpoints drawn with weights (1 + rank)^-0.7, which gives a
    heavy-tailed degree sequence. Returns (edge array (m, 2), marked ids).
    """
    rng = np.random.default_rng(seed)
    if edges < vertices:
        raise ValueError("need at least as many edges as vertices for the ring")
    perm = rng.permutation(vertices)
    ring = np.stack([perm, np.roll(perm, -1)], axis=1)
    keys = set((np.minimum(ring[:, 0], ring[:, 1]) * vertices + np.maximum(ring[:, 0], ring[:, 1])).tolist())
    weights = (1.0 + np.arange(vertices)) ** -0.7
    weights = weights[rng.permutation(vertices)]
    weights /= weights.sum()
    extra: list[int] = []
    while len(keys) < edges:
        need = edges - len(keys)
        uv = rng.choice(vertices, size=(2 * need + 16, 2), p=weights)
        for u, v in uv.tolist():
            if u == v:
                continue
            key = min(u, v) * vertices + max(u, v)
            if key not in keys:
                keys.add(key)
                extra.append(key)
                if len(keys) == edges:
                    break
    extra_arr = np.array(extra, dtype=np.int64)
    more = np.stack([extra_arr // vertices, extra_arr % vertices], axis=1)
    all_edges = np.concatenate([ring, more])
    all_edges = all_edges[rng.permutation(len(all_edges))]
    flip = rng.random(len(all_edges)) < 0.5
    all_edges[flip] = all_edges[flip][:, ::-1]
    marked_ids = np.sort(rng.choice(vertices, size=marked, replace=False))
    return all_edges, marked_ids


def write_graph_files(workdir: Path, edge_arr: np.ndarray, marked_ids: np.ndarray) -> None:
    """The only input graph-sim gets: an edge list and a marked-vertex file."""
    (workdir / "graph.txt").write_text("".join(f"{u} {v}\n" for u, v in edge_arr.tolist()))
    (workdir / "marked.txt").write_text("".join(f"{v}\n" for v in marked_ids.tolist()))


def reference_graph_walk(vertices: int, edge_arr: np.ndarray, marked_ids, horizon: int) -> dict:
    """Grover-coin walk written independently of ``coinwalk.graph``.

    Arc 2e runs along edge e as listed and arc 2e+1 against it, so the
    reverse of arc a is a ^ 1. Returns the probability series and the
    peak and halt steps by the same rules as the CLI summary.
    """
    tail = edge_arr.reshape(-1).copy()  # arc 2e tail = u, arc 2e+1 tail = v
    reverse = np.arange(tail.size) ^ 1
    deg = np.bincount(tail, minlength=vertices).astype(float)
    is_marked = np.zeros(vertices, dtype=bool)
    is_marked[np.asarray(marked_ids)] = True
    marked_arcs = is_marked[tail]
    a0 = 1.0 / math.sqrt(tail.size)
    amp = np.full(tail.size, a0)
    prob = np.empty(horizon + 1)
    halt = None
    prob[0] = float(np.sum(amp[marked_arcs] ** 2))
    for t in range(1, horizon + 1):
        sums = np.bincount(tail, weights=amp, minlength=vertices)
        coin = 2.0 * (sums / deg)[tail] - amp
        coin[marked_arcs] *= -1.0
        amp = coin[reverse]
        prob[t] = float(np.sum(amp[marked_arcs] ** 2))
        if halt is None and a0 * float(amp.sum()) <= 0.0:
            halt = t
    peak = int(np.argmax(prob))
    return {
        "probability": prob.tolist(),
        "peak_step": peak,
        "peak_probability": float(prob[peak]),
        "halt_step": halt,
        "halt_probability": float(prob[halt]) if halt is not None else None,
    }


# ---------------------------------------------------------------------------
# checks


def _printed_close(got: float, want: float, rel: float) -> bool:
    """Equal within ``rel`` plus the quantum of the CLI's 9-significant-digit output."""
    quantum = 0.5 * 10.0 ** (math.floor(math.log10(abs(want))) - 8) if want else 0.0
    return abs(got - want) <= rel * abs(want) + quantum


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def load_reference_rows() -> dict:
    return {
        (int(r["n"]), int(r["k"]), r["scheme"]): (int(r["steps"]), float(r["probability"]))
        for r in _read_csv(REFERENCE_ROWS)
    }


def _check_table(rows_path: Path, ratios_path: Path, cells: list[tuple[int, int, str]]):
    reference = load_reference_rows()

    def check(code: int, _stdout: str) -> str | None:
        if code != EXIT_OK:
            return f"table exited {code}"
        rows = {(int(r["n"]), int(r["k"]), r["scheme"]): r for r in _read_csv(rows_path)}
        if sorted(rows) != sorted(cells):
            return f"table rows {sorted(rows)} differ from the requested cells"
        for cell, row in rows.items():
            steps, prob = int(row["steps"]), float(row["probability"])
            want_steps, want_prob = reference[cell]
            if steps != want_steps or not _printed_close(prob, want_prob, 1e-6):
                return f"table cell {cell}: got ({steps}, {prob}), want ({want_steps}, {want_prob})"
            if cell in ACCEPTANCE_ROWS:
                acc_steps, acc_prob = ACCEPTANCE_ROWS[cell]
                if steps != acc_steps or abs(prob - acc_prob) > 1e-6:
                    return f"table cell {cell}: got ({steps}, {prob}), paper ({acc_steps}, {acc_prob})"
        for r in _read_csv(ratios_path):
            n, k = int(r["n"]), int(r["k"])
            if n == 100 and k in ACCEPTANCE_RATIOS_N100:
                want = ACCEPTANCE_RATIOS_N100[k]
                if abs(float(r["ratio"]) / want - 1.0) > 0.01:
                    return f"ratio n=100 k={k}: got {r['ratio']}, paper {want}"
        return None

    return check


def _check_walk(series_path: Path, n: int, horizon: int):
    # The 2x2 block's stationary state (two dominoes) differs from the
    # uniform state on four amplitudes, each by 4a with a = 1/(2n), so
    # ||delta||^2 = 16/n^2 and the overlap stays >= 1 - 2 ||delta||^2.
    bound = 1.0 - 2.0 * 16.0 / (n * n)

    def check(code: int, _stdout: str) -> str | None:
        if code != EXIT_OK:
            return f"simulate exited {code}"
        rows = _read_csv(series_path)
        if len(rows) != horizon + 1:
            return f"series has {len(rows)} rows, want {horizon + 1}"
        summary = json.loads(series_path.with_suffix(".summary.json").read_text())
        if summary["halt_step"] is not None:
            return f"exceptional 2x2 walk halted at step {summary['halt_step']}"
        min_overlap = min(float(r["overlap"]) for r in rows)
        max_prob = max(float(r["probability"]) for r in rows)
        if min_overlap < bound:
            return f"min overlap {min_overlap} below {bound}"
        if max_prob > 0.01:
            return f"max probability {max_prob} above 0.01"
        return None

    return check


def _check_graph(series_path: Path, ref: dict):
    def check(code: int, _stdout: str) -> str | None:
        if code != EXIT_OK:
            return f"graph-sim exited {code}"
        summary = json.loads(series_path.with_suffix(".summary.json").read_text())
        for key in ("peak_step", "halt_step"):
            if summary[key] != ref[key]:
                return f"graph {key} {summary[key]} != reference {ref[key]}"
        for key in ("peak_probability", "halt_probability"):
            got, want = summary[key], ref[key]
            if (got is None) != (want is None) or (want is not None and not _printed_close(got, want, 1e-9)):
                return f"graph {key} {got} != reference {want}"
        rows = _read_csv(series_path)
        if len(rows) != len(ref["probability"]):
            return f"graph series has {len(rows)} rows, want {len(ref['probability'])}"
        for t, (row, want) in enumerate(zip(rows, ref["probability"])):
            if not _printed_close(float(row["probability"]), want, 1e-9):
                return f"graph probability at step {t}: {row['probability']} != {want}"
        return None

    return check


def _check_verify(expect_exit: int, need_oracle: bool):
    """Judge a verify report by its own fields; ``passed`` gates on the residual alone."""

    def check(code: int, stdout: str) -> str | None:
        if code != expect_exit:
            return f"verify exited {code}, want {expect_exit}"
        if expect_exit != EXIT_OK:
            return None
        report = json.loads(stdout)
        tol = report["tolerance"]
        if not all(report["conditions"].values()):
            return f"verify {report.get('target')}: conditions {report['conditions']}"
        if not report["residual"] <= tol:
            return f"verify {report.get('target')}: residual {report['residual']}"
        if "oracle_residual" in report:
            if not report["oracle_residual"] <= tol:
                return f"verify {report.get('target')}: oracle residual {report['oracle_residual']}"
        elif need_oracle:
            return f"verify {report.get('target')}: no oracle residual"
        return None

    return check


# ---------------------------------------------------------------------------
# workloads

GRID_ORACLE_CAP = 8  # the CLI's default dense-oracle cap for grid blocks

# The verify arguments of the 12 graph witnesses of acceptance criterion 7.
GRAPH_WITNESSES = (
    [["--graph-two-marked", "--k", str(k)] for k in range(1, 6)]
    + [["--graph-three", "1,2,3"]]
    + [["--graph-ring", f"{r},{k}"] for r in (2, 3, 4) for k in (2, 3)]
)


def verify_blocks(sizes: Sizes) -> list[tuple[int, int, int]]:
    return [
        (n, m, l)
        for n in sizes.verify_sizes
        for m in range(1, sizes.verify_max_side + 1)
        for l in range(1, sizes.verify_max_side + 1)
    ]


def witness_arcs(tail: list[str]) -> int:
    """Arc count of a graph witness: core edges plus private edges plus the private cycle."""
    if tail[0] == "--graph-two-marked":
        core, private = 1, [int(tail[2])] * 2
    elif tail[0] == "--graph-three":
        l12, l23, l31 = (int(v) for v in tail[1].split(","))
        core, private = 3, [l12 + l31, l12 + l23, l23 + l31]
    else:
        r, k = (int(v) for v in tail[1].split(","))
        core, private = (1 if r == 2 else r), [k] * r
    p = sum(private)
    cycle = 1 if p == 2 else (p if p >= 3 else 0)
    return 2 * (core + p + cycle)


def table_cells(sizes: Sizes) -> list[tuple[int, int, str]]:
    return [(n, b * b, c) for n in sizes.table_sizes for b in sizes.table_blocks for c in ("akr", "grover")]


def build_workload(name: str, workdir: Path, sizes: Sizes = Sizes(), graph_ref: dict | None = None) -> Workload:
    """The invocations of one workload; their inputs and outputs live in ``workdir``.

    The graph workload reads the files :func:`write_graph_files` wrote there
    and needs ``graph_ref``, the :func:`reference_graph_walk` of that input.
    """
    if name == "table":
        prefix = workdir / "table"
        argv = [
            "table", "--sizes", ",".join(map(str, sizes.table_sizes)),
            "--blocks", ",".join(map(str, sizes.table_blocks)),
            "--coins", "akr,grover", "--output", str(prefix),
        ]
        reference = load_reference_rows()
        cells = table_cells(sizes)
        arc_steps = sum(reference[c][0] * 4 * c[0] * c[0] for c in cells)
        rows, ratios = Path(f"{prefix}_rows.csv"), Path(f"{prefix}_ratios.csv")
        return Workload([Invocation(argv, _check_table(rows, ratios, cells), arc_steps)], [rows, ratios])
    if name == "walk":
        n, horizon = sizes.walk_n, sizes.walk_horizon
        out = workdir / "walk.csv"
        argv = ["simulate", "--n", str(n), "--block", "2x2", "--coin", "grover",
                "--horizon", str(horizon), "--output", str(out)]
        return Workload([Invocation(argv, _check_walk(out, n, horizon), horizon * 4 * n * n)],
                        [out, out.with_suffix(".summary.json")])
    if name == "graph":
        if graph_ref is None:
            raise ValueError("the graph workload needs its reference walk")
        out = workdir / "graph_series.csv"
        argv = ["graph-sim", "--graph", str(workdir / "graph.txt"), "--marked-file", str(workdir / "marked.txt"),
                "--coin", "grover", "--horizon", str(sizes.graph_horizon), "--output", str(out)]
        arcs = 2 * sizes.graph_edges
        return Workload([Invocation(argv, _check_graph(out, graph_ref), sizes.graph_horizon * arcs)],
                        [out, out.with_suffix(".summary.json")])
    if name == "verify":
        invocations = []
        for n, m, l in verify_blocks(sizes):
            odd_odd = m % 2 == 1 and l % 2 == 1
            argv = ["verify", "--n", str(n), "--block", f"{m}x{l}@1,1"]
            check = _check_verify(EXIT_IMPOSSIBLE if odd_odd else EXIT_OK, n <= GRID_ORACLE_CAP)
            # each report applies one walk step to the candidate (the residual)
            invocations.append(Invocation(argv, check, 0 if odd_odd else 4 * n * n))
        for tail in GRAPH_WITNESSES:
            invocations.append(Invocation(["verify", *tail], _check_verify(EXIT_OK, True), witness_arcs(tail)))
        return Workload(invocations)
    raise ValueError(f"unknown workload {name!r}")
