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
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .graph import Graph, _arc_probability, _arc_steps, _jagged_arcs, graph_uniform_state
from .grid import CoinScheme, MarkedSet, _check_side, _frame_coins, uniform_state

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


def _horizon(vertices: int) -> int:
    """ceil(4 sqrt(N max(1, ln N))) steps for a walk on N vertices."""
    return math.ceil(4.0 * math.sqrt(vertices * max(1.0, math.log(vertices))))


def default_horizon(n: int) -> int:
    """ceil(4 sqrt(N ln N)) for N = n**2; covers every tabulated halt step."""
    return _horizon(n * n)


def _centre_origin(n: int, width: int, height: int) -> tuple[int, int]:
    """Origin of a width x height block centred on the side-n torus."""
    return n // 2 - width // 2, n // 2 - height // 2


def centered_block(n: int, width: int, height: int) -> MarkedSet:
    """Block at the grid center; placement is cosmetic by translation symmetry."""
    return MarkedSet.from_block(n, _centre_origin(n, width, height), width, height)


class _OutOfTime(Exception):
    """A run passed its wall-clock deadline; ``args[0]`` is the step it stopped after."""


# steps between deadline checks; a torus step at n=200 takes about 0.2 ms
_DEADLINE_EVERY = 64

# bound on the error of the fast overlap of a unit state, derived in _drive
_OVERLAP_BOUND = 128 * np.finfo(float).eps


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _drive(
    amp: np.ndarray,
    advance: Callable[[np.ndarray], tuple[np.ndarray, float]],
    marked_prob: Callable[[np.ndarray], float],
    horizon: int,
    record_overlap: bool,
    stop_at_halt: bool,
    deadline: float | None = None,
) -> RunSeries:
    """The halt-rule loop shared by every target.

    ``amp`` is the uniform start state and ``advance`` returns the state one
    step later together with its amplitude total; it may overwrite its
    argument, so the loop never reads a state again after advancing it. The
    overlap with the start state, ``amp[0]`` times the total, is tracked every
    step to detect the halt crossing; step 0 sums the start state directly,
    later totals come from the coin's own sums (see :func:`_torus_walk` and
    :func:`_graph_walk`). ``record_overlap`` only controls whether the series
    is kept. With ``stop_at_halt`` the run ends right after the crossing and
    the series is truncated there. With a ``deadline`` (a ``time.monotonic()``
    value) the clock is read every ``_DEADLINE_EVERY`` steps and the run
    raises :class:`_OutOfTime` once it has passed. A series larger than
    physical memory raises ``ValueError`` before anything is allocated.

    The halt step is the first t whose state has an exact total <= 0, so it
    does not depend on the order of the coin's sums. The fast overlap decides
    it wherever it lies outside ``±c eps`` (``_OVERLAP_BOUND``, c = 128);
    inside, the step falls back to ``amp[0] * math.fsum(state)``. ``amp`` is
    always a permutation of the state's amplitudes, so that is the exactly
    rounded overlap, and it is what the series records at such a step.

    The bound: numpy's pairwise sum of m terms takes each term through at
    most L(m) <= 26 + max(0, ceil(log2(m / 128))) roundings (8 accumulators
    of up to 16 terms, 3 combining levels, up to 7 terms left over, one level
    per halving), so it is off by at most L(m) u sum(|x|), u = eps / 2. The
    torus total sums n^2 cell sums and subtracts the k marked ones twice, and
    the coin adds 5 roundings per amplitude: (L(n^2) + 2 L(k) + 5) u sum(|x|).
    The graph total sums n vertex sums of degree at most d and subtracts k
    twice, and the coin adds 4: (L(n) + 2 L(k) + L(d) + 4) u sum(|x|). A unit
    state of M amplitudes has sum(|x|) <= sqrt(M) = 1 / amp[0], so with n^2,
    k and d below 2^31 (L <= 50) the overlap is off by at most
    204 u < 128 eps.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    series_bytes = 8 * (horizon + 1) * (2 if record_overlap else 1)
    memory = _physical_memory()
    if memory is not None and series_bytes > memory:
        raise ValueError(
            f"horizon {horizon} needs {series_bytes} bytes for its series, "
            f"more than the {memory} bytes of physical memory"
        )
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
        amp, total = advance(amp)
        prob[t] = marked_prob(amp)
        overlap_now = a0 * total
        if abs(overlap_now) <= _OVERLAP_BOUND:
            # the memoryview of the flat buffer hands fsum Python floats without a list
            overlap_now = a0 * math.fsum(amp.reshape(-1).data)
        if ov is not None:
            ov[t] = overlap_now
        if halt_step is None and overlap_now <= 0.0:
            halt_step = t
            if stop_at_halt:
                steps_done = t
                break
        if deadline is not None and t % _DEADLINE_EVERY == 0 and time.monotonic() > deadline:
            raise _OutOfTime(t)

    prob = prob[: steps_done + 1]
    if ov is not None:
        ov = ov[: steps_done + 1]
    peak_step, peak_probability = detect_peak(prob)
    halt_probability = float(prob[halt_step]) if halt_step is not None else None
    return RunSeries(prob, ov, peak_step, peak_probability, halt_step, halt_probability)


def _torus_walk(
    n: int, marked: MarkedSet, scheme: CoinScheme
) -> tuple[np.ndarray, Callable[[np.ndarray], tuple[np.ndarray, float]], Callable[[np.ndarray], float]]:
    """Start state, step and marked-probability gather of the torus walk for :func:`_drive`.

    The state stays in one buffer, which the coins of :func:`grid._frame_coins`
    take from frame 0 to frame 1 and back; the gather reads the marked
    amplitudes through the current frame's index. Everything is bound to that
    buffer once, and a step ignores the array it is passed.

    Both coins leave ``half`` holding half of every cell's amplitude sum.
    Grover diffusion keeps a cell's sum, both marked coins negate it and the
    shift only moves amplitudes, so the total after the step is
    ``2 * (half.sum() - 2 * half[marked cells].sum())``.
    """
    amp = uniform_state(n).amp
    if marked.n != n:
        raise ValueError(f"marked set is on a side-{marked.n} grid, expected {n}")
    half = np.empty((n, n))
    coins, index = zip(*_frame_coins(amp, scheme, marked, half))
    flat, half_flat, cells = amp.reshape(-1), half.reshape(-1), marked.xs * n + marked.ys
    sel, cell_half = np.empty(4 * len(marked)), np.empty(len(marked))
    frame = 0

    def advance(a: np.ndarray) -> tuple[np.ndarray, float]:
        nonlocal frame
        coins[frame]()
        frame ^= 1
        half_flat.take(cells, out=cell_half, mode="clip")
        return a, 2.0 * (float(np.add.reduce(half_flat)) - 2.0 * float(np.add.reduce(cell_half)))

    def probability(a: np.ndarray) -> float:
        flat.take(index[frame], out=sel, mode="clip")
        np.multiply(sel, sel, out=sel)
        return float(np.add.reduce(sel))

    return amp, advance, probability


def run_walk(
    n: int,
    marked: MarkedSet,
    scheme: CoinScheme,
    horizon: int,
    record_overlap: bool = True,
    stop_at_halt: bool = False,
) -> RunSeries:
    """Run the torus walk from the uniform state for up to ``horizon`` steps.

    See :func:`_drive` for the halt rule and the two flags. Probabilities are
    bit-identical to a composition of :func:`grid.step` calls. The overlap of
    step t >= 1 is summed from the coin's half sums, n^2 cell values with the
    marked cells subtracted twice, not from the 4n^2 amplitudes (see
    :func:`_torus_walk`); it agrees with an exact sum of the state to about
    3e-16. Where it is zero up to rounding, :func:`_drive` takes the exact
    sum, so the halt step is that of the exact totals.
    """
    return _drive(*_torus_walk(n, marked, scheme), horizon, record_overlap, stop_at_halt)


def _graph_walk(
    g: Graph, marked: Iterable[int], scheme: CoinScheme
) -> tuple[np.ndarray, Callable[[np.ndarray], tuple[np.ndarray, float]], Callable[[np.ndarray], float]]:
    """Start state, step and marked-probability gather of the graph walk for :func:`_drive`.

    The state is held in the jagged arc layout of :func:`graph._jagged_arcs`,
    whose vertex sums have the bits of ``reduceat`` with one add per row for
    every vertex of degree up to 16; ``head``, ``tail``, ``partner``, the
    degrees and the marked arcs are remapped into it once, and every view of
    the state, the vertex sums and the coin output is bound once, so a step
    allocates no array longer than the marked arcs. The steps alternate
    between the two forms of :func:`graph._arc_steps`. An odd step writes the
    coin output ``c`` with one broadcast per row and a ``take`` for the
    row-major tail, and gathers the new state ``c[partner]``, the only arc
    gather of the pair. It keeps ``c``, which is the new state's
    ``amp[partner]``, so the even step after it needs only the per-vertex
    gather at each arc's head. Both write the state into the one buffer
    ``_drive`` holds, so every amplitude is bit-identical to
    :func:`graph.graph_step` after every step. The gather reads the marked
    arcs in :meth:`Graph.marked_arc_indices` order, so the probabilities are
    bit-identical too. The total after a step is
    ``s.sum() - 2 * s[marked].sum()`` over the vertex sums ``s`` before it,
    in the layout's vertex order, by the identity of :func:`_torus_walk`.
    """
    vs = np.array(g.check_marked(marked), dtype=np.intp)
    order, arcs, bind = _jagged_arcs(g)
    rank = np.empty_like(order)
    rank[order] = np.arange(g.n)
    position = np.empty_like(arcs)
    position[arcs] = np.arange(g.arc_count)
    idxs = position[g.marked_arc_indices(vs)]
    head, tail, partner = rank[g.head[arcs]], rank[g.tail[arcs]], position[g.partner[arcs]]
    marked_vertices = rank[vs]

    amp = graph_uniform_state(g).amp
    c = np.empty_like(amp)
    s, marked_s = np.empty(g.n), np.empty(vs.size)
    vertex_sums, spread = bind(amp, s, c)
    coin, recoin = _arc_steps(
        head, tail, partner, g.degrees[order].astype(float), idxs, scheme, spread
    )
    odd = True

    def advance(a: np.ndarray) -> tuple[np.ndarray, float]:
        nonlocal odd
        vertex_sums()
        if odd:
            coin(a, s, c)
            np.take(c, partner, out=a, mode="clip")
        else:
            recoin(a, s, c)
        odd = not odd
        s.take(marked_vertices, out=marked_s, mode="clip")
        return a, float(s.sum()) - 2.0 * float(marked_s.sum())

    return amp, advance, lambda a: _arc_probability(a, idxs)


def run_graph_walk(
    g: Graph,
    marked: Iterable[int],
    scheme: CoinScheme,
    horizon: int,
    record_overlap: bool = True,
    stop_at_halt: bool = False,
) -> RunSeries:
    """Graph-target variant of :func:`run_walk`, starting from the arc-uniform state.

    Probabilities are bit-identical to a composition of :func:`graph.graph_step`
    calls. The run holds the state in a private jagged arc order: row j
    holds the j-th arc of every vertex of degree 16 or less above j, the
    higher degrees follow row-major. It alternates a step that gathers the
    new state from the coin output with one that reuses that output (see
    :func:`_graph_walk`); ``g`` is not changed. Its vertex sums copy numpy's
    pairwise add order, which
    ``TestDegreeBuckets.test_sums_match_reduceat_bit_for_bit`` in
    ``tests/test_graph.py`` guards; if a numpy release changes that order,
    the fix is to sum with ``reduceat``, not to loosen the test. The overlap
    of step t >= 1 is summed from those vertex sums, one value per vertex
    with the marked vertices subtracted twice, not from the arc amplitudes,
    so it can differ from a direct sum in the last bits, about 3e-16; where
    that decides the sign, :func:`_drive` takes the exact sum.
    """
    return _drive(*_graph_walk(g, marked, scheme), horizon, record_overlap, stop_at_halt)


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
    size). A wall clock budget, when given, is checked before each cell and
    every ``_DEADLINE_EVERY`` steps inside it; cells that do not finish in it
    are listed as truncation markers instead of raising. A size below 2 or a
    NaN or negative budget raises ``ValueError`` before any cell runs.
    """
    if not sizes:
        raise ValueError("no grid sizes given")
    if not block_sides:
        raise ValueError("no block sides given")
    if not schemes:
        raise ValueError("no coin schemes given")
    if time_budget_s is not None and not time_budget_s >= 0.0:
        raise ValueError(f"time budget must be a number of seconds >= 0, got {time_budget_s}")
    for n in sizes:
        _check_side(n)
        if n >= LARGE_N_THRESHOLD and not large_n_opt_in:
            raise ValueError(
                f"grid size {n} is above the desk-scale threshold "
                f"{LARGE_N_THRESHOLD}; pass large_n_opt_in=True to run it"
            )

    deadline = None if time_budget_s is None else time.monotonic() + time_budget_s
    report = TableReport()
    for n in sizes:
        cap = horizon if horizon is not None else default_horizon(n)
        for side in block_sides:
            for scheme in schemes:
                cell = f"n={n} k={side * side} {scheme.value}"
                if deadline is not None and time.monotonic() > deadline:
                    report.truncated.append(f"{cell}: skipped, time budget exceeded")
                    continue
                try:
                    series = _drive(
                        *_torus_walk(n, centered_block(n, side, side), scheme),
                        cap,
                        record_overlap=False,
                        stop_at_halt=True,
                        deadline=deadline,
                    )
                except _OutOfTime as stop:
                    report.truncated.append(
                        f"{cell}: stopped after {stop.args[0]} steps, time budget exceeded"
                    )
                    continue
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
