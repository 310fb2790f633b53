"""Command-line front end and the on-disk formats.

Subcommands: ``simulate`` (torus walk time series), ``verify`` (stationary
construction report), ``table`` (benchmark table reproduction), and
``graph-sim`` (graph-target variant of simulate).

Exit codes are contract values: 0 success, 1 verification failure, 2 invalid
configuration, 3 time budget exceeded, 4 impossible construction.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .graph import (
    DEFAULT_GRAPH_ORACLE_CAP,
    GenericThreeSpec,
    build_generic_three,
    build_symmetric_ring,
    build_two_marked,
    decompose_graph_initial,
    graph_check_conditions,
    graph_dense_step_matrix,
    graph_step,
    parse_edge_list,
    parse_vertex_ids,
)
from .grid import (
    DEFAULT_ORACLE_CAP,
    CoinScheme,
    MarkedSet,
    dense_step_matrix,
    step,
)
from .runner import (
    RunSeries,
    default_horizon,
    reproduce_tables,
    run_graph_walk,
    run_walk,
    runtime_metric,
)
from .stationary import (
    BlockSpec,
    OddOddBlockError,
    build_block_layered,
    check_conditions,
    decompose_initial,
)

__all__ = [
    "ConfigError",
    "main",
    "read_series_csv",
    "read_series_json",
    "read_table_csv",
    "read_table_json",
    "write_series_csv",
    "write_series_json",
    "write_table_csv",
    "write_table_json",
]

OUTPUT_DIR_ENV = "COINWALK_OUTPUT_DIR"
RESIDUAL_TOL = 1e-12

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_IMPOSSIBLE = 4


class ConfigError(ValueError):
    """Invalid command-line configuration; maps to exit code 2."""


def _fmt(x: float) -> str:
    """Serialize a float with 9 significant digits."""
    return format(float(x), ".9g")


# ---------------------------------------------------------------------------
# file formats


# rows formatted per write: one join per chunk without holding the whole file
_CSV_CHUNK = 1024


def write_series_csv(path: Path, series: RunSeries) -> None:
    # the bytes csv.writer gives: no field needs quoting, lines end in \r\n
    with_overlap = series.overlap is not None
    with open(path, "w", newline="") as fh:
        fh.write("step,probability,overlap\r\n" if with_overlap else "step,probability\r\n")
        for start in range(0, len(series.probability), _CSV_CHUNK):
            stop = start + _CSV_CHUNK
            prob = series.probability[start:stop].tolist()
            if with_overlap:
                rows = zip(range(start, stop), prob, series.overlap[start:stop].tolist())
                lines = [f"{t},{_fmt(p)},{_fmt(o)}\r\n" for t, p, o in rows]
            else:
                lines = [f"{t},{_fmt(p)}\r\n" for t, p in enumerate(prob, start)]
            fh.write("".join(lines))


def read_series_csv(path: Path) -> dict:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader if row]
    out: dict = {"step": [], "probability": []}
    has_overlap = "overlap" in header
    if has_overlap:
        out["overlap"] = []
    for row in rows:
        out["step"].append(int(row[0]))
        out["probability"].append(float(row[1]))
        if has_overlap:
            out["overlap"].append(float(row[2]))
    return out


def write_series_json(path: Path, series: RunSeries) -> None:
    doc = {
        "step": list(range(len(series.probability))),
        "probability": [float(_fmt(p)) for p in series.probability],
    }
    if series.overlap is not None:
        doc["overlap"] = [float(_fmt(v)) for v in series.overlap]
    path.write_text(json.dumps(doc, indent=1) + "\n")


def read_series_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def write_table_csv(path: Path, rows: Sequence[dict]) -> None:
    if not rows:
        Path(path).write_text("")
        return
    header = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [_fmt(v) if isinstance(v, float) else str(v) for v in (row[h] for h in header)]
            )


def read_table_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        out = []
        for row in reader:
            parsed = {}
            for key, val in row.items():
                try:
                    parsed[key] = int(val)
                except ValueError:
                    try:
                        parsed[key] = float(val)
                    except ValueError:
                        parsed[key] = val
            out.append(parsed)
    return out


def write_table_json(path: Path, rows: Sequence[dict]) -> None:
    rounded = [
        {k: (float(_fmt(v)) if isinstance(v, float) else v) for k, v in row.items()}
        for row in rows
    ]
    Path(path).write_text(json.dumps(rounded, indent=1) + "\n")


def read_table_json(path: Path) -> list[dict]:
    return json.loads(Path(path).read_text())


def _summary_dict(n: int, k: int, scheme: CoinScheme, series: RunSeries) -> dict:
    halted = series.halt_step is not None
    return {
        "n": n,
        "k": k,
        "scheme": scheme.value,
        "peak_step": series.peak_step,
        "peak_probability": float(_fmt(series.peak_probability)),
        "halt_step": series.halt_step,
        "halt_probability": float(_fmt(series.halt_probability)) if halted else None,
        "runtime": float(_fmt(runtime_metric(series.halt_step, series.halt_probability)))
        if halted and series.halt_probability > 0.0
        else None,
    }


# ---------------------------------------------------------------------------
# argument parsing helpers

_BLOCK_RE = re.compile(r"^(\d+)x(\d+)(?:@(-?\d+),(-?\d+))?$")


def _parse_block(text: str, n: int) -> BlockSpec:
    m = _BLOCK_RE.match(text)
    if not m:
        raise ConfigError(f"--block must look like 'MxL' or 'MxL@x,y', got {text!r}")
    width, height = int(m.group(1)), int(m.group(2))
    if m.group(3) is not None:
        origin = (int(m.group(3)) % n, int(m.group(4)) % n)
    else:
        origin = (n // 2 - width // 2, n // 2 - height // 2)
    return BlockSpec(origin, width, height)


def _parse_cells(text: str) -> list[tuple[int, int]]:
    text = text.strip()
    if not text:
        return []
    cells = []
    for part in text.split(";"):
        bits = part.split(",")
        if len(bits) != 2:
            raise ConfigError(f"--cells entries must be 'x,y' pairs, got {part!r}")
        try:
            cells.append((int(bits[0]), int(bits[1])))
        except ValueError:
            raise ConfigError(f"--cells entries must be integers, got {part!r}")
    return cells


def _parse_int_list(text: str, flag: str) -> list[int]:
    text = text.strip()
    if not text:
        raise ConfigError(f"{flag} needs at least one value")
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} must be a comma-separated list of integers, got {text!r}")


def _parse_coins(text: str) -> list[CoinScheme]:
    out = []
    for part in text.split(","):
        part = part.strip().lower()
        if not part:
            continue
        try:
            out.append(CoinScheme(part))
        except ValueError:
            raise ConfigError(f"unknown coin {part!r}; choose from akr, grover")
    if not out:
        raise ConfigError("--coins needs at least one of akr, grover")
    return out


def _output_path(arg: str | None, default_name: str) -> Path:
    if arg:
        path = Path(arg)
    else:
        path = Path(os.environ.get(OUTPUT_DIR_ENV, ".")) / default_name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# subcommands


def _emit_series(
    args: argparse.Namespace,
    default_stem: str,
    n: int,
    k: int,
    scheme: CoinScheme,
    series: RunSeries,
) -> int:
    """Write the series file and its summary, and print the summary line."""
    out = _output_path(args.output, f"{default_stem}.{args.format}")
    if args.format == "csv":
        write_series_csv(out, series)
    else:
        write_series_json(out, series)
    summary = _summary_dict(n, k, scheme, series)
    out.with_suffix(".summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps(summary))
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    if (args.block is None) == (args.cells is None):
        raise ConfigError("pass exactly one marked-set descriptor: --block or --cells")
    n = args.n
    if args.block is not None:
        spec = _parse_block(args.block, n)
        try:
            marked = spec.marked_set(n)
        except ValueError as exc:
            raise ConfigError(f"--block: {exc}")
    else:
        marked = MarkedSet(n, _parse_cells(args.cells))
    scheme = CoinScheme(args.coin)
    horizon = args.horizon if args.horizon is not None else default_horizon(n)

    series = run_walk(
        n,
        marked,
        scheme,
        horizon,
        record_overlap=not args.no_overlap,
        stop_at_halt=args.stop_at_halt,
    )
    return _emit_series(args, "series", n, len(marked), scheme, series)


def _verify_grid(args: argparse.Namespace) -> dict:
    n = args.n
    spec = _parse_block(args.block, n)
    try:
        candidate = build_block_layered(n, spec)
    except ValueError as exc:
        if isinstance(exc, OddOddBlockError):
            raise
        raise ConfigError(f"--block: {exc}")
    conds = check_conditions(candidate, tol=args.tolerance)
    after = step(candidate.state, CoinScheme.GROVER, candidate.marked)
    dec = decompose_initial(n, candidate)
    report = {
        "target": "grid-block",
        "n": n,
        "block": f"{spec.width}x{spec.height}@{spec.origin[0]},{spec.origin[1]}",
        "conditions": {
            "uniform_unmarked": conds[0],
            "zero_sum_marked": conds[1],
            "facing_equal": conds[2],
        },
        "residual": float(np.max(np.abs(after.amp - candidate.state.amp))),
        "delta_norm_sq": float(_fmt(dec.delta_norm_sq)),
        "tolerance": args.tolerance,
    }
    cap = args.oracle_cap if args.oracle_cap is not None else DEFAULT_ORACLE_CAP
    if n <= cap:
        m = dense_step_matrix(n, CoinScheme.GROVER, candidate.marked, cap=cap)
        flat = candidate.state.flatten()
        report["oracle_residual"] = float(np.max(np.abs(m @ flat - flat)))
    return report


def _verify_graph(args: argparse.Namespace) -> dict:
    if args.graph_two_marked:
        if args.k is None:
            raise ConfigError("--graph-two-marked needs --k")
        g, marked, state = build_two_marked(args.k)
        target = f"graph-two-marked k={args.k}"
    elif args.graph_three:
        vals = _parse_int_list(args.graph_three, "--graph-three")
        if len(vals) != 3:
            raise ConfigError("--graph-three takes 'l12,l23,l31'")
        l12, l23, l31 = vals
        g, marked, state = build_generic_three(GenericThreeSpec(l12, l23, l31))
        target = f"graph-three l=({l12},{l23},{l31})"
    else:
        vals = _parse_int_list(args.graph_ring, "--graph-ring")
        if len(vals) != 2:
            raise ConfigError("--graph-ring takes 'r,k'")
        g, marked, state = build_symmetric_ring(vals[0], vals[1])
        target = f"graph-ring r={vals[0]} k={vals[1]}"

    conds = graph_check_conditions(state, marked, tol=args.tolerance)
    after = graph_step(state, marked, CoinScheme.GROVER)
    dec = decompose_graph_initial(state, marked)
    report = {
        "target": target,
        "vertices": g.n,
        "arcs": g.arc_count,
        "marked": list(marked),
        "conditions": {
            "uniform_unmarked": conds[0],
            "zero_sum_marked": conds[1],
            "arc_symmetric": conds[2],
        },
        "residual": float(np.max(np.abs(after.amp - state.amp))),
        "delta_norm_sq": float(_fmt(dec.delta_norm_sq)),
        "tolerance": args.tolerance,
    }
    cap = args.oracle_cap if args.oracle_cap is not None else DEFAULT_GRAPH_ORACLE_CAP
    if g.arc_count <= cap:
        m = graph_dense_step_matrix(g, marked, CoinScheme.GROVER, cap=cap)
        report["oracle_residual"] = float(np.max(np.abs(m @ state.amp - state.amp)))
    return report


def cmd_verify(args: argparse.Namespace) -> int:
    graph_targets = [
        bool(args.graph_two_marked),
        args.graph_three is not None,
        args.graph_ring is not None,
    ]
    grid_target = args.block is not None
    if grid_target + sum(graph_targets) != 1:
        raise ConfigError(
            "pass exactly one construction: --block (with --n), "
            "--graph-two-marked, --graph-three, or --graph-ring"
        )
    if grid_target:
        if args.n is None:
            raise ConfigError("--block needs --n")
        report = _verify_grid(args)
    else:
        report = _verify_graph(args)

    tol = args.tolerance
    report["passed"] = (
        report["residual"] <= tol
        and all(report["conditions"].values())
        and report.get("oracle_residual", 0.0) <= tol
    )
    text = json.dumps(report, indent=1)
    print(text)
    if args.output:
        path = _output_path(args.output, "verify.json")
        path.write_text(text + "\n")
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


def cmd_table(args: argparse.Namespace) -> int:
    sizes = _parse_int_list(args.sizes, "--sizes")
    sides = _parse_int_list(args.blocks, "--blocks")
    coins = _parse_coins(args.coins)
    report = reproduce_tables(
        sizes,
        sides,
        coins,
        large_n_opt_in=args.large,
        time_budget_s=args.budget,
        horizon=args.horizon,
    )

    row_dicts = [
        {
            "n": r.n,
            "k": r.k,
            "scheme": r.scheme.value,
            "steps": r.steps,
            "probability": r.probability,
            "runtime": r.runtime,
        }
        for r in report.rows
    ]
    ratio_dicts = [
        {
            "n": r.n,
            "k": r.k,
            "akr_runtime": r.akr_runtime,
            "grover_runtime": r.grover_runtime,
            "ratio": r.ratio,
        }
        for r in report.ratios
    ]
    prefix = args.output or "table"
    rows_path = _output_path(None, f"{prefix}_rows.{args.format}") if not args.output else Path(f"{prefix}_rows.{args.format}")
    ratios_path = rows_path.with_name(rows_path.name.replace("_rows.", "_ratios."))
    rows_path.parent.mkdir(parents=True, exist_ok=True)
    if args.format == "csv":
        write_table_csv(rows_path, row_dicts)
        write_table_csv(ratios_path, ratio_dicts)
    else:
        write_table_json(rows_path, row_dicts)
        write_table_json(ratios_path, ratio_dicts)
    print(f"wrote {rows_path} ({len(row_dicts)} rows) and {ratios_path} ({len(ratio_dicts)} ratios)")
    if report.truncated:
        for marker in report.truncated:
            print(f"truncated: {marker}", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def cmd_graph_sim(args: argparse.Namespace) -> int:
    graph_path = Path(args.graph)
    if not graph_path.is_file():
        raise ConfigError(f"graph file not found: {graph_path}")
    g = parse_edge_list(graph_path.read_text())
    if args.marked_file:
        marked_path = Path(args.marked_file)
        if not marked_path.is_file():
            raise ConfigError(f"marked-vertex file not found: {marked_path}")
        marked = parse_vertex_ids(marked_path.read_text())
    else:
        marked = []
    vs = g.check_marked(marked)
    scheme = CoinScheme(args.coin)
    horizon = args.horizon if args.horizon is not None else max(
        1, math.ceil(4.0 * math.sqrt(g.n * max(1.0, math.log(g.n))))
    )
    series = run_graph_walk(
        g, vs, scheme, horizon, record_overlap=not args.no_overlap
    )
    return _emit_series(args, "graph_series", g.n, len(vs), scheme, series)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coinwalk",
        description="Coined quantum-walk search on torus grids and general graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a torus walk and record its time series")
    sim.add_argument("--n", type=int, required=True, help="grid side")
    sim.add_argument("--block", help="marked block 'MxL' or 'MxL@x,y' (default origin: center)")
    sim.add_argument("--cells", help="explicit marked cells 'x,y;x,y;...' (empty for none)")
    sim.add_argument("--coin", choices=["akr", "grover"], required=True)
    sim.add_argument("--horizon", type=int, help="steps to run (default 4*sqrt(N ln N))")
    sim.add_argument("--output", help="series file path")
    sim.add_argument("--format", choices=["csv", "json"], default="csv")
    sim.add_argument("--no-overlap", action="store_true", help="do not store the overlap column")
    sim.add_argument("--stop-at-halt", action="store_true", help="stop once the overlap crosses zero")
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify", help="build a stationary construction and verify it")
    ver.add_argument("--n", type=int, help="grid side (grid-block target)")
    ver.add_argument("--block", help="marked block 'MxL' or 'MxL@x,y'")
    ver.add_argument("--graph-two-marked", action="store_true", help="two adjacent marked vertices")
    ver.add_argument("--k", type=int, help="private-neighbor count for --graph-two-marked")
    ver.add_argument("--graph-three", help="generic three-vertex weights 'l12,l23,l31'")
    ver.add_argument("--graph-ring", help="symmetric ring 'r,k'")
    ver.add_argument("--tolerance", type=float, default=RESIDUAL_TOL)
    ver.add_argument("--oracle-cap", type=int, help="also cross-check via the dense oracle up to this size")
    ver.add_argument("--output", help="also write the JSON report here")
    ver.set_defaults(func=cmd_verify)

    tab = sub.add_parser("table", help="reproduce the step/probability/runtime tables")
    tab.add_argument("--sizes", required=True, help="comma-separated grid sides")
    tab.add_argument("--blocks", required=True, help="comma-separated block sides (sqrt of k)")
    tab.add_argument("--coins", default="akr,grover")
    tab.add_argument("--horizon", type=int, help="per-run step cap (default 4*sqrt(N ln N))")
    tab.add_argument("--large", action="store_true", help="allow grid sides >= 500")
    tab.add_argument("--budget", type=float, help="wall-clock budget in seconds")
    tab.add_argument("--output", help="output path prefix (default 'table')")
    tab.add_argument("--format", choices=["csv", "json"], default="csv")
    tab.set_defaults(func=cmd_table)

    gsim = sub.add_parser("graph-sim", help="run a walk on a graph from an edge-list file")
    gsim.add_argument("--graph", required=True, help="edge list: one 'u v' per line, # comments")
    gsim.add_argument("--marked-file", help="marked vertex ids, one per line")
    gsim.add_argument("--coin", choices=["akr", "grover"], required=True)
    gsim.add_argument("--horizon", type=int)
    gsim.add_argument("--output", help="series file path")
    gsim.add_argument("--format", choices=["csv", "json"], default="csv")
    gsim.add_argument("--no-overlap", action="store_true")
    gsim.set_defaults(func=cmd_graph_sim)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OddOddBlockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IMPOSSIBLE
    except ValueError as exc:  # ConfigError, or an invalid input the library rejected
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
