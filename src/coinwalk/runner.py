"""Walk drivers, halt-rule measurement, and reproduction of the benchmark tables.

A run records the marked-set probability (and optionally the overlap with the
start state) after every step. Two step counts come out of a series:

* ``peak_step``: the global argmax of the probability over the horizon.
* ``halt_step``: the first step at which the overlap with the start state
  drops to zero or below. This is the measurement rule behind the benchmark
  tables; the probability argmax is not (its AKR peak lands tens of steps
  earlier at a visibly different probability).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .graph import Graph, _arc_probability, _step_arcs, graph_uniform_state
from .grid import CoinScheme, MarkedSet, step_into, uniform_state

__all__ = [
    "LARGE_N_THRESHOLD",
    "RatioRow",
    "RunSeries",
    "TableReport",
    "TableRow",
    "centered_block",
    "default_horizon",
    "detect_peak",
    "reproduce_tables",
    "run_graph_walk",
    "run_walk",
    "runtime_metric",
]

LARGE_N_THRESHOLD = 500


@dataclass
class RunSeries:
    """Per-step record of one deterministic walk.

    ``probability[t]`` and ``overlap[t]`` describe the state after t steps
    (index 0 is the start state). ``halt_step`` is None when the overlap
    never crosses zero within the horizon, which is exactly what happens for
    the exceptional marked configurations.
    """

    probability: np.ndarray
    overlap: np.ndarray | None
    peak_step: int
    peak_probability: float
    halt_step: int | None
    halt_probability: float | None

    def __len__(self) -> int:
        return len(self.probability)


def detect_peak(series: "RunSeries | np.ndarray") -> tuple[int, float]:
    """Global probability argmax over the horizon; smallest index on ties."""
    prob = series.probability if isinstance(series, RunSeries) else np.asarray(series)
    if prob.size == 0:
        raise ValueError("empty probability series")
    t = int(np.argmax(prob))
    return t, float(prob[t])


def runtime_metric(steps: float, probability: float) -> float:
    """Effective cost of one run: steps divided by sqrt(success probability)."""
    if probability <= 0.0:
        raise ValueError(f"runtime metric undefined for probability {probability}")
    return steps / math.sqrt(probability)


def default_horizon(n: int) -> int:
    """ceil(4 sqrt(N ln N)) for N = n**2; covers every tabulated halt step."""
    big_n = n * n
    return math.ceil(4.0 * math.sqrt(big_n * math.log(big_n)))


def centered_block(n: int, width: int, height: int) -> MarkedSet:
    """Block at the grid center; placement is cosmetic by translation symmetry."""
    return MarkedSet.from_block(n, (n // 2 - width // 2, n // 2 - height // 2), width, height)


def _drive(
    amp: np.ndarray,
    advance: Callable[[np.ndarray], np.ndarray],
    marked_prob: Callable[[np.ndarray], float],
    horizon: int,
    record_overlap: bool,
    stop_at_halt: bool,
) -> RunSeries:
    """The halt-rule loop shared by every target.

    ``amp`` is the uniform start state and ``advance`` returns the state one
    step later; it may overwrite its argument, so the loop never reads a
    state again after advancing it. The overlap with the start state is tracked every step (it
    is one array reduction) to detect the halt crossing; ``record_overlap``
    only controls whether the series is kept. With ``stop_at_halt`` the run
    ends right after the crossing and the series is truncated there.
    """
    a0 = float(amp.flat[0])
    prob = np.empty(horizon + 1)
    ov = np.empty(horizon + 1) if record_overlap else None

    prob[0] = marked_prob(amp)
    overlap_now = a0 * float(amp.sum())
    if ov is not None:
        ov[0] = overlap_now

    halt_step: int | None = None
    steps_done = horizon
    for t in range(1, horizon + 1):
        amp = advance(amp)
        prob[t] = marked_prob(amp)
        overlap_now = a0 * float(amp.sum())
        if ov is not None:
            ov[t] = overlap_now
        if halt_step is None and overlap_now <= 0.0:
            halt_step = t
            if stop_at_halt:
                steps_done = t
                break

    prob = prob[: steps_done + 1]
    if ov is not None:
        ov = ov[: steps_done + 1]
    peak_step, peak_probability = detect_peak(prob)
    halt_probability = float(prob[halt_step]) if halt_step is not None else None
    return RunSeries(prob, ov, peak_step, peak_probability, halt_step, halt_probability)


def run_walk(
    n: int,
    marked: MarkedSet,
    scheme: CoinScheme,
    horizon: int,
    record_overlap: bool = True,
    stop_at_halt: bool = False,
) -> RunSeries:
    """Run the torus walk from the uniform state for up to ``horizon`` steps.

    See :func:`_drive` for the halt rule and the two flags.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    amp = uniform_state(n).amp
    if marked.n != n:
        raise ValueError(f"marked set is on a side-{marked.n} grid, expected {n}")
    spare = np.empty_like(amp)
    half = np.empty((n, n))

    def advance(a: np.ndarray) -> np.ndarray:
        nonlocal spare
        out, spare = spare, a
        step_into(a, out, scheme, marked, half)
        return out

    return _drive(amp, advance, marked.probability, horizon, record_overlap, stop_at_halt)


def run_graph_walk(
    g: Graph,
    marked: Iterable[int],
    scheme: CoinScheme,
    horizon: int,
    record_overlap: bool = True,
    stop_at_halt: bool = False,
) -> RunSeries:
    """Graph-target variant of :func:`run_walk`, starting from the arc-uniform state."""
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    idxs = g.marked_arc_indices(marked)
    return _drive(
        graph_uniform_state(g).amp,
        lambda a: _step_arcs(g, a, idxs, scheme),
        lambda a: _arc_probability(a, idxs),
        horizon,
        record_overlap,
        stop_at_halt,
    )


@dataclass(frozen=True)
class TableRow:
    """One (grid, marked count, coin) cell of the benchmark tables."""

    n: int
    k: int
    scheme: CoinScheme
    steps: int
    probability: float
    runtime: float


@dataclass(frozen=True)
class RatioRow:
    """AKR-to-Grover runtime ratio for one (grid, marked count) pair."""

    n: int
    k: int
    akr_runtime: float
    grover_runtime: float
    ratio: float


@dataclass
class TableReport:
    """Rows plus ratios, with truncation markers for cells that did not run."""

    rows: list[TableRow] = field(default_factory=list)
    ratios: list[RatioRow] = field(default_factory=list)
    truncated: list[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.truncated


def reproduce_tables(
    sizes: Sequence[int],
    block_sides: Sequence[int],
    schemes: Sequence[CoinScheme] = (CoinScheme.AKR, CoinScheme.GROVER),
    *,
    large_n_opt_in: bool = False,
    time_budget_s: float | None = None,
    horizon: int | None = None,
) -> TableReport:
    """Run the (n, k, scheme) grid of halt-rule measurements and their ratios.

    Sizes at or above ``LARGE_N_THRESHOLD`` require ``large_n_opt_in``. Each
    run stops at ``horizon`` steps (default :func:`default_horizon` of its
    size). A wall clock budget, when given, is checked before each cell;
    cells that do not run are listed as truncation markers instead of raising.
    """
    if not sizes:
        raise ValueError("no grid sizes given")
    if not block_sides:
        raise ValueError("no block sides given")
    if not schemes:
        raise ValueError("no coin schemes given")
    for n in sizes:
        if n >= LARGE_N_THRESHOLD and not large_n_opt_in:
            raise ValueError(
                f"grid size {n} is above the desk-scale threshold "
                f"{LARGE_N_THRESHOLD}; pass large_n_opt_in=True to run it"
            )

    started = time.monotonic()
    report = TableReport()
    for n in sizes:
        cap = horizon if horizon is not None else default_horizon(n)
        for side in block_sides:
            for scheme in schemes:
                cell = f"n={n} k={side * side} {scheme.value}"
                if time_budget_s is not None and time.monotonic() - started > time_budget_s:
                    report.truncated.append(f"{cell}: skipped, time budget exceeded")
                    continue
                series = run_walk(
                    n,
                    centered_block(n, side, side),
                    scheme,
                    cap,
                    record_overlap=False,
                    stop_at_halt=True,
                )
                if series.halt_step is None:
                    report.truncated.append(
                        f"{cell}: overlap never crossed zero "
                        f"within {cap} steps (exceptional configuration?)"
                    )
                    continue
                report.rows.append(
                    TableRow(
                        n=n,
                        k=side * side,
                        scheme=scheme,
                        steps=series.halt_step,
                        probability=series.halt_probability,
                        runtime=runtime_metric(series.halt_step, series.halt_probability),
                    )
                )

    report.rows.sort(key=lambda r: (r.n, r.k, r.scheme.value))
    by_cell = {(r.n, r.k, r.scheme): r for r in report.rows}
    for n in sorted(set(r.n for r in report.rows)):
        for k in sorted(set(r.k for r in report.rows if r.n == n)):
            akr = by_cell.get((n, k, CoinScheme.AKR))
            grover = by_cell.get((n, k, CoinScheme.GROVER))
            if akr and grover:
                report.ratios.append(
                    RatioRow(n, k, akr.runtime, grover.runtime, akr.runtime / grover.runtime)
                )
    return report
