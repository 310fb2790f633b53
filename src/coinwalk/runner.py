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
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .graph import Graph, _jagged_arcs, graph_uniform_state
from .grid import CoinScheme, MarkedSet, _Band, _check_block, _check_grid, _check_memory, _check_side, _frame_coins

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
    never crosses zero within the steps run, which is exactly what happens
    for the exceptional marked configurations.
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


# steps between deadline checks, and the most steps in one block of _drive; a table cell's step
# takes about 21 us at n=100 and 41 us at n=200 (3x3 block), so one check covers about 1.3 ms
# and 2.7 ms of stepping
_DEADLINE_EVERY = 64


# most values the rows of one block may hold together, 64 KiB of floats, so that a block adds
# little to the band a walk holds: 64 rows of a 3x3 block's 36 marked amplitudes take 2304
# values, and a 9x9 block gets 16 rows of 324
_BLOCK_VALUES = 8192


def _block_rows(values: int, state: int) -> int:
    """Steps in a block whose rows take ``values`` each, a power of two up to ``_DEADLINE_EVERY``.

    The most whose rows together hold no more than ``_BLOCK_VALUES`` and no
    more values than the ``state``, and at least one.
    """
    rows = _DEADLINE_EVERY
    while rows > 1 and rows * values > min(state, _BLOCK_VALUES):
        rows //= 2
    return rows


class _Walk(NamedTuple):
    """What a target hands :func:`_drive`: its start state, its block rows and callables bound to its state.

    ``block`` is a ``(rows, width)`` array, a row for each step of a block
    and a column for each marked amplitude. ``advance()`` takes one step.
    After it, ``gather(r)`` copies the state's marked amplitudes into row r
    of ``block``, ``tally()`` returns the amplitude total from the coin's
    sums of that step, and ``marked_sum()`` the total of the marked cells'
    (or vertices') amplitude sums before the step. ``exact()`` returns the
    state's exactly rounded total. ``tally`` may overwrite what
    ``marked_sum`` reads, so a step calls ``marked_sum()`` first, if at all.
    """

    start: np.ndarray
    block: np.ndarray
    advance: Callable[[], None]
    gather: Callable[[int], None]
    tally: Callable[[], float]
    marked_sum: Callable[[], float]
    exact: Callable[[], float]


# bound on the error of the fast overlap of a unit state, derived in _drive
_OVERLAP_BOUND = 128 * np.finfo(float).eps

# bound on what one step adds to the error of the running overlap, derived in _drive
_STEP_BOUND = 160 * np.finfo(float).eps


def _deadline(time_budget_s: float | None) -> float | None:
    """The ``time.monotonic()`` value a budget of that many seconds from now ends at, or None without one.

    A NaN or negative budget raises ``ValueError``.
    """
    if time_budget_s is None:
        return None
    if not time_budget_s >= 0.0:
        raise ValueError(f"time budget must be a number of seconds >= 0, got {time_budget_s}")
    return time.monotonic() + time_budget_s


def _expired(deadline: float | None) -> bool:
    """Whether the clock is past ``deadline``, a :func:`_deadline` value; never without one."""
    return deadline is not None and time.monotonic() > deadline


def _check_horizon(horizon: int, record_overlap: bool) -> None:
    """Reject a horizon below 1, or one whose series memory cannot hold (see ``grid._check_memory``)."""
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    series_bytes = 8 * (horizon + 1) * (2 if record_overlap else 1)
    _check_memory(series_bytes, f"horizon {horizon} needs {series_bytes} bytes for its series")


def _drive(
    walk: _Walk,
    horizon: int,
    record_overlap: bool,
    stop_at_halt: bool,
    deadline: float | None = None,
) -> RunSeries:
    """The halt-rule loop shared by every target.

    ``walk.start`` is the uniform start state, read only for its first
    amplitude ``a0`` and, in a recording run, for the step-0 overlap,
    ``a0`` times its sum. The overlap with the start state is ``a0`` times
    the state's amplitude total. ``record_overlap`` controls whether that
    series is kept. The run ends at the horizon, right after the crossing
    with ``stop_at_halt``, or, given a ``deadline`` (a ``time.monotonic()``
    value), at the first multiple of ``_DEADLINE_EVERY`` below the horizon
    that finds the clock past it. The series is cut at the step the run
    ended after, so one the deadline stopped has fewer than ``horizon + 1``
    entries. A horizon below 1 or a series larger than memory
    (:func:`_check_horizon`) raises ``ValueError`` before anything is
    allocated.

    The run goes in blocks of ``len(walk.block)`` steps, a power of two
    that divides ``_DEADLINE_EVERY``, the last one cut at the horizon. A
    step only fills its row of ``walk.block`` with the marked amplitudes
    (``gather``). Once per block the loop squares the rows in place and
    adds each in numpy's pairwise order, the order of a one-row reduction
    (:func:`grid._located_probability`), so every probability of either
    target has the bits a step-by-step run gives.

    The halt step is the first t whose state has an exact total <= 0, so it
    does not depend on the order of the coin's sums. Each step's overlap is
    decided as the step ends, by one rule. It is ``a0`` times
    ``walk.tally()``, the fast total from the coin's own sums (see
    :func:`_torus_walk` and :func:`_graph_walk`), wherever that lies outside
    ``±c eps`` (``_OVERLAP_BOUND``, c = 128); inside, the step falls back to
    ``a0`` times ``walk.exact()``, an ``math.fsum`` of every amplitude of the
    state (the torus walk's band weighs each amplitude it holds by the torus
    cells its cell stands for), so that is the exactly rounded overlap. A
    recording run takes it every step, records it and reads the halt from
    it at once, so with ``stop_at_halt`` it ends at the halt step.

    A run that records no overlap needs only its sign, and certifies it
    from a running overlap instead, every step, so it stops at its halt
    step. The coin keeps every unmarked sum and negates every marked one,
    so a step takes ``2 a0 M`` off the overlap, ``M`` the marked sums
    before it (``walk.marked_sum()``, O(k) reads). The run keeps
    ``running -= 2 a0 M`` and a bound ``err`` on its distance from the
    exact overlap, which grows by ``c' eps`` a step (``_STEP_BOUND``, c' =
    160). Where ``|running| > err`` its sign is the exact overlap's.
    Elsewhere, and on step 1, which has no anchor yet, the step takes the
    overlap by the rule above, and ``running`` and ``err`` restart from it
    and ``c eps``. No running value is ever recorded, so a series or a
    summary has the same bits either way.

    The bound: numpy's pairwise sum of m terms takes each term through at
    most L(m) <= 26 + max(0, ceil(log2(m / 128))) roundings (8 accumulators
    of up to 16 terms, 3 combining levels, up to 7 terms left over, one level
    per halving), so it is off by at most L(m) u sum(|x|), u = eps / 2. The
    torus total is one sum over the band's w x h cells of each cell's half
    sum times the number of torus cells it stands for, negated at the marked
    ones: +-1, +-2 or +-4, so the products are exact. Numpy sums the w h
    products in one pairwise sum, so a term goes through at most L(w h)
    roundings. The terms are the torus's cell sums grouped by mirror image,
    so their absolute sum is the torus's, and the coin adds 3 roundings per
    amplitude (two adds and the subtraction): (L(w h) + 3) u sum(|x|) for
    the whole torus, a half or a quarter alike. The graph total sums n
    vertex sums of degree at most d and subtracts k twice, and the coin
    adds 4: (L(n) + 2 L(k) + L(d) + 4) u sum(|x|). A unit state of M
    amplitudes has sum(|x|) <= sqrt(M) = 1 / amp[0], so with every count
    below 2^31 (L <= 50) the overlap is off by at most 204 u < 128 eps, and
    the torus's by at most 53 u.

    The step bound, in units of u, with ``a0 sum(|x|) <= 1`` over any part
    of a unit state, the marked amplitudes' ``A`` included:

    * The coin. A torus cell's half sum is ``(s + e) / 2`` with ``|e| <= 2 u
      sum(|x|)`` over the cell (two adds), and an unmarked or Grover-marked
      cell's new sum is ``4 half - s``, off ``s`` by ``2 e`` plus a rounding
      per subtraction: 5 per step over the whole torus, the states before
      and after both counted. AKR negates exactly. A band cell stands for
      1, 2 or 4 torus cells with the same bits, so the torus's cells are
      what count. A graph vertex's sum is off by ``L(d)``, its
      ``mean2 = s / (d / 2)`` (``d / 2`` exact) adds a rounding, and ``d``
      copies of ``mean2`` minus the arcs give ``s`` plus twice the two, plus
      the subtractions: 2 L(d) + 3.
    * The marked sum. The torus takes the half sum of each of the k marked
      torus cells (a band cell once per marked cell it stands for) and sums
      them pairwise: off by (L(k) + 2) u A, twice that in ``2 a0 M``. The
      graph sums its k computed vertex sums: 2 (L(d) + L(k)).
    * The update ``running - (2 a0) M``: one rounding of a product at most
      2 in size and one of a difference at most 1, 3.

    That is 2 L(k) + 12 on the torus and 4 L(d) + 2 L(k) + 6 on a graph, at
    most 306 u < 160 eps with every count below 2^31; the norm of the state
    may grow by 4% before this slack is spent.
    """
    _check_horizon(horizon, record_overlap)
    amp, block, advance, gather, tally, marked_sum, exact = walk
    a0 = float(amp.flat[0])
    prob = np.empty(horizon + 1)
    ov = np.empty(horizon + 1) if record_overlap else None

    def overlap() -> float:
        now = a0 * tally()
        return a0 * exact() if abs(now) <= _OVERLAP_BOUND else now

    def probabilities(m: int) -> np.ndarray:
        rows = block[:m]
        np.multiply(rows, rows, out=rows)
        return np.add.reduce(rows, axis=1)

    gather(0)
    prob[0] = probabilities(1)[0]
    if ov is not None:
        ov[0] = a0 * float(amp.sum())
    # the overlap the halt is read from; an unrecorded run's running overlap and its error
    # bound, unanchored before step 1
    running, err = 0.0, math.inf

    halt_step: int | None = None
    t = 0
    while t < horizon:
        m = min(len(block), horizon - t)
        for r in range(m):
            advance()
            gather(r)
            if ov is not None:
                running = ov[t + r + 1] = overlap()
            elif halt_step is None:
                running -= 2.0 * a0 * marked_sum()
                err += _STEP_BOUND
                if abs(running) <= err:
                    running, err = overlap(), _OVERLAP_BOUND
            if halt_step is None and running <= 0.0:
                halt_step = t + r + 1
                if stop_at_halt:
                    m = r + 1
                    break
        prob[t + 1 : t + m + 1] = probabilities(m)
        t += m
        if halt_step is not None and stop_at_halt:
            break
        if t % _DEADLINE_EVERY == 0 and t < horizon and _expired(deadline):
            break

    prob = prob[: t + 1]
    if ov is not None:
        ov = ov[: t + 1]
    peak_step, peak_probability = detect_peak(prob)
    halt_probability = float(prob[halt_step]) if halt_step is not None else None
    return RunSeries(prob, ov, peak_step, peak_probability, halt_step, halt_probability)


def _torus_walk(
    n: int, marked: MarkedSet, scheme: CoinScheme
) -> _Walk:
    """The torus walk as the :class:`_Walk` that :func:`_drive` runs.

    The state stays in one (4, w, h) band, :meth:`grid._Band.of` the marked
    set: the whole torus, or, along each axis where the set has a mirror,
    one fundamental domain of it, so a block is held on a quarter of the torus.
    The coin adds ``(u + d) + (l + r)``, the y-mirror swaps ``u`` and ``d``
    and the x-mirror ``l`` and ``r``, so each maps the walk state onto
    itself bit for bit and the band holds the whole state. The coins of
    :func:`grid._frame_coins`, handed the band to read its edges from its
    folds' :meth:`grid._Fold.seams`, take it from frame 0 to frame 1 and
    back, and the gather reads the marked amplitudes through the current
    frame's positions, in ``marked.flat`` order, into a row of the block.
    Everything is bound to the band once, the only state allocated besides
    the block's rows, which hold no more values than the band unless one
    row alone does (:func:`_block_rows`). The start state is a stride-0
    view whose step-0 sum has the bits of the filled ``(4, n, n)`` array's.

    Both coins leave ``half`` holding half of every cell's amplitude sum.
    Grover diffusion keeps a cell's sum, both marked coins negate it and the
    shift only moves amplitudes, so the total after the step is twice the
    torus's half sums with the marked ones negated. A band cell stands for
    itself and its mirror images, the product of its row's and its column's
    :attr:`grid._Fold.weights`: 1, 2 or 4, all marked or all unmarked. So
    the total is twice one pairwise sum over the flat band of ``half`` times
    these counts, negated at the marked cells (``signed``), taken as the
    step ends. On a quarter that is ``2 (4 H - 2 A_col - 2 A_row + A_both - 2
    M)`` (H the band's half sums, A those of its axis columns, rows and
    their crossings, M the marked cells'), but summed in that grouping the
    marked sum cancels against the whole: on 400 dense doubly symmetric sets
    it was off an exact sum by up to 1.2e-15, the signed sum by at most
    3.3e-16. The marked sum is twice the ``half`` of each marked torus
    cell's band cell, taken before ``tally`` scales ``half`` in place. The
    exact total is an ``math.fsum`` of the band's amplitudes times the same
    counts; multiplying by 1, 2 or 4 is exact, so it is the exactly rounded
    total of the whole torus.
    """
    _check_grid(n, marked)
    a = 1.0 / math.sqrt(4.0 * n * n)  # the uniform amplitude, as grid.uniform_state rounds it
    band = _Band.of(marked)
    w, h = band.x.size, band.y.size
    work = np.full((4, w, h), a)
    half = np.empty((w, h))
    index = band.frames(marked)
    coins = _frame_coins(work, scheme, half, index, band)
    flat = work.reshape(-1)
    # how many torus cells each band cell stands for, negated at the marked ones
    signed = np.multiply.outer(band.x.weights, band.y.weights)
    i, j = band.x.fold(marked.xs)[0], band.y.fold(marked.ys)[0]
    signed[i, j] = -signed[i, j]
    # the band cell of each marked torus cell, in half's flat order
    marked_cells, marked_half = i * h + j, np.empty(len(marked))
    # a block's marked amplitudes, a row a step
    picked = np.empty((_block_rows(4 * len(marked), work.size), 4 * len(marked)))
    # the rows as views bound once; every per-step call passes its output
    # positionally, as in grid._frame_coins
    picked_rows, flat_half = list(picked), half.reshape(-1)
    take, take_half, multiply, reduce = flat.take, half.take, np.multiply, np.add.reduce
    frame = 0

    def advance() -> None:
        nonlocal frame
        coins[frame]()
        frame ^= 1

    def gather(r: int) -> None:
        take(index[frame], None, picked_rows[r], "wrap")

    def tally() -> float:
        # half is scratch once the coin has run: the next coin writes all of it
        multiply(half, signed, half)
        return 2.0 * float(reduce(flat_half))

    def marked_sum() -> float:
        take_half(marked_cells, None, marked_half, "wrap")
        return 2.0 * float(reduce(marked_half))

    def exact() -> float:
        # the memoryview of the flat product hands fsum Python floats without a list
        return math.fsum((work * np.abs(signed)).reshape(-1).data)

    return _Walk(np.broadcast_to(a, (4, n, n)), picked, advance, gather, tally, marked_sum, exact)


def run_walk(
    n: int,
    marked: MarkedSet,
    scheme: CoinScheme,
    horizon: int,
    record_overlap: bool = True,
    stop_at_halt: bool = False,
    deadline: float | None = None,
) -> RunSeries:
    """Run the torus walk from the uniform state for up to ``horizon`` steps.

    See :func:`_drive` for the halt rule, the two flags and the
    ``deadline``, a ``time.monotonic()`` value (see :func:`_deadline`) that
    the run checks every ``_DEADLINE_EVERY`` steps. Amplitudes and
    probabilities are bit-identical to a composition of :func:`grid.step`
    calls; the run allocates only the band it steps (see :func:`_torus_walk`).
    The overlap of step t >= 1 is summed from the coin's half sums, one
    signed value per band cell, not from the 4n^2 amplitudes; it agrees with
    an exact sum of the state to about 3e-16. Where it is zero up to
    rounding, :func:`_drive` takes the exact sum as the step ends, so the
    halt step is the exact totals'. The run gathers the marked amplitudes a
    step at a time and squares and adds them once per block of up to
    ``_DEADLINE_EVERY`` steps, in the order a step-by-step run adds them.
    Without ``record_overlap`` the sign comes from a running overlap that
    subtracts the k marked cells' sums each step, and the band sum is taken
    only where that sign is not certain; the halt step is the same.
    """
    return _drive(_torus_walk(n, marked, scheme), horizon, record_overlap, stop_at_halt, deadline)


def _graph_walk(
    g: Graph, marked: Iterable[int], scheme: CoinScheme
) -> _Walk:
    """The graph walk as the :class:`_Walk` that :func:`_drive` runs.

    The state is held in the jagged arc layout of :func:`graph._jagged_arcs`,
    whose vertex sums have the bits of ``reduceat`` with one add per row for
    every vertex of degree up to 16. ``head``, ``partner``, the degrees and
    the marked arcs are remapped into it once. The state and the coin output
    share two buffers, the rows of one (2, arcs) array (``start.base``), and
    every view of both, the vertex sums and ``mean2 = 2 s / d`` is bound
    once, so a step allocates no array longer than the marked arcs. The
    marked arcs' coin output is ``-amp`` under AKR and ``-(mean2 - amp)`` at
    their tail under GROVER, as in :func:`graph.graph_step`.

    The steps alternate. An odd step writes its coin into the state's own
    buffer, in place: one subtract per row, and for the row-major tail a
    ``take`` into a scratch array of its arc count and a subtract (see
    :func:`graph._jagged_arcs`). It fixes the marked arcs and gathers the
    new state ``c[partner]`` into the other buffer, the only arc gather of
    the pair. ``partner`` is an involution, so the coin output ``c`` left
    behind is the new state's ``amp[partner]`` bit for bit. The even step
    then writes ``mean2`` at each arc's head minus ``c`` over the state,
    with the fix-ups at ``partner[idxs]``, which needs only the per-vertex
    gather. So the buffers swap roles every pair of steps: after step t the
    state is in row ``(t + 1) // 2 % 2``. Every amplitude is bit-identical
    to :func:`graph.graph_step` after every step. The gather reads the
    marked arcs in :meth:`Graph.marked_arc_indices` order, so the
    probabilities are bit-identical too. The total after a step is
    ``s.sum() - 2 * s[marked].sum()`` over the vertex sums ``s`` before it,
    in the layout's vertex order, by the identity of :func:`_torus_walk`;
    ``s[marked].sum()`` is the marked sum. As on the torus, a step only
    gathers its marked arcs into its row of the block, and ``tally``
    returns the step's total.
    """
    vs = np.array(g.check_marked(marked), dtype=np.intp)
    order, arcs, bind = _jagged_arcs(g)
    rank = np.empty_like(order)
    rank[order] = np.arange(g.n)
    position = np.empty_like(arcs)
    position[arcs] = np.arange(g.arc_count)
    idxs = position[g.marked_arc_indices(vs)]
    head, partner = rank[g.head[arcs]], position[g.partner[arcs]]
    fix_arcs, fix_vertices = partner[idxs], rank[g.tail[arcs[idxs]]]
    # (2 s) / d and s / (d / 2) round the same real number, and d / 2 is exact
    half_degrees, marked_vertices = g.degrees[order] / 2.0, rank[vs]
    akr = scheme is CoinScheme.AKR

    # the state and the coin output, which swap rows every pair of steps; row at holds the state
    buffers = np.empty((2, g.arc_count))
    buffers[0] = graph_uniform_state(g).amp
    states = tuple(buffers)
    mean2, s, marked_s = np.empty(g.n), np.empty(g.n), np.empty(vs.size)
    kernels = [bind(amp, s, mean2) for amp in states]
    odd, at = True, 0

    def advance() -> None:
        nonlocal odd, at
        amp, other = states[at], states[at ^ 1]
        vertex_sums, spread = kernels[at]
        vertex_sums()
        kept = amp[idxs]
        np.divide(s, half_degrees, out=mean2)
        fixed = -kept if akr else -(mean2[fix_vertices] - kept)
        # every index is in range, so mode="wrap" never wraps; it costs less than
        # "clip"'s per-index clamp, and with out= the default "raise" buffers the output
        if odd:
            spread()
            amp[idxs] = fixed
            np.take(amp, partner, out=other, mode="wrap")
            at ^= 1
        else:
            np.take(mean2, head, out=amp, mode="wrap")
            np.subtract(amp, other, out=amp)
            amp[fix_arcs] = fixed
        odd = not odd
        s.take(marked_vertices, out=marked_s, mode="wrap")

    # a block's marked amplitudes, a row a step, as views bound once
    picked = np.empty((_block_rows(idxs.size, g.arc_count), idxs.size))
    picked_rows = list(picked)

    def gather(r: int) -> None:
        states[at].take(idxs, None, picked_rows[r], "wrap")

    return _Walk(
        states[0],
        picked,
        advance,
        gather,
        lambda: float(s.sum()) - 2.0 * float(marked_s.sum()),
        lambda: float(marked_s.sum()),
        # the memoryview of the flat buffer hands fsum Python floats without a list
        lambda: math.fsum(states[at].data),
    )


def run_graph_walk(
    g: Graph,
    marked: Iterable[int],
    scheme: CoinScheme,
    horizon: int,
    record_overlap: bool = True,
    stop_at_halt: bool = False,
    deadline: float | None = None,
) -> RunSeries:
    """Graph-target variant of :func:`run_walk`, starting from the arc-uniform state.

    Amplitudes and probabilities are bit-identical to a composition of
    :func:`graph.graph_step` calls, which write the same coin with plain
    numpy and no shared code, so
    ``TestDegreeBuckets.test_walk_matches_step_arcs_bit_for_bit`` in
    ``tests/test_graph.py`` checks one against the other. The run holds the
    state in a private jagged arc order and alternates a step that gathers
    the new state from the coin output with one that reuses that output
    (see :func:`_graph_walk`); ``g`` is not changed. Its vertex sums copy
    numpy's pairwise add order; if a numpy release changes that order,
    ``test_sums_match_reduceat_bit_for_bit`` fails, and the fix is to sum
    with ``reduceat``, not to loosen the test. The overlap of step t >= 1
    is summed from those vertex sums, one value per vertex with the marked
    vertices subtracted twice, not from the arc amplitudes, so it can
    differ from a direct sum in the last bits, about 3e-16; where that
    decides the sign, :func:`_drive` takes the exact sum as the step ends,
    as :func:`run_walk` does. The probabilities are squared and added once
    per block, in numpy's pairwise order, as on the torus. Without
    ``record_overlap`` the sign comes from a running overlap, and
    ``deadline`` stops the run, as in :func:`run_walk`.
    """
    return _drive(_graph_walk(g, marked, scheme), horizon, record_overlap, stop_at_halt, deadline)


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
    """Rows plus ratios, and a marker for every cell without a row.

    Such a cell was skipped, stopped by the budget, or had no crossing within the horizon.
    """

    rows: list[TableRow] = field(default_factory=list)
    ratios: list[RatioRow] = field(default_factory=list)
    truncated: list[str] = field(default_factory=list)


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

    Sizes at or above ``LARGE_N_THRESHOLD`` require ``large_n_opt_in``. A
    size, block side or scheme given twice runs once, where it first
    appears. Each run stops at ``horizon`` steps (default
    :func:`default_horizon` of its size). A wall clock budget, when given,
    is checked before each cell and every ``_DEADLINE_EVERY`` steps inside
    it. A cell it skips, or stops inside the walk, is listed as a
    truncation marker, the latter with the step it stopped after; a cell
    that ran all its steps is not truncated by it. A size below 2, a block
    side that is not positive or wraps onto itself at some size, a horizon
    below 1 or with a series beyond memory, or a NaN or negative budget
    raises ``ValueError`` before any cell runs.
    """
    if not sizes:
        raise ValueError("no grid sizes given")
    if not block_sides:
        raise ValueError("no block sides given")
    if not schemes:
        raise ValueError("no coin schemes given")
    deadline = _deadline(time_budget_s)
    if horizon is not None:
        _check_horizon(horizon, record_overlap=False)
    # a repeated entry would run its cells twice: keep each once, where it first appears
    sizes, block_sides, schemes = (list(dict.fromkeys(v)) for v in (sizes, block_sides, schemes))
    for n in sizes:
        _check_side(n)
        if n >= LARGE_N_THRESHOLD and not large_n_opt_in:
            raise ValueError(
                f"grid size {n} is above the desk-scale threshold "
                f"{LARGE_N_THRESHOLD}; pass large_n_opt_in=True to run it"
            )
        for side in block_sides:
            _check_block(n, side, side)

    report = TableReport()
    for n in sizes:
        cap = horizon if horizon is not None else default_horizon(n)
        for side in block_sides:
            for scheme in schemes:
                cell = f"n={n} k={side * side} {scheme.value}"
                if _expired(deadline):
                    report.truncated.append(f"{cell}: skipped, time budget exceeded")
                    continue
                block = centered_block(n, side, side)
                series = run_walk(n, block, scheme, cap, record_overlap=False, stop_at_halt=True, deadline=deadline)
                if series.halt_step is not None:
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
                elif len(series) <= cap:
                    report.truncated.append(
                        f"{cell}: stopped after {len(series) - 1} steps, time budget exceeded"
                    )
                else:
                    report.truncated.append(
                        f"{cell}: overlap never crossed zero "
                        f"within {cap} steps (exceptional configuration?)"
                    )

    report.rows.sort(key=lambda r: (r.n, r.k, r.scheme.value))
    grover = {(r.n, r.k): r.runtime for r in report.rows if r.scheme is CoinScheme.GROVER}
    report.ratios = [
        RatioRow(r.n, r.k, r.runtime, grover[r.n, r.k], r.runtime / grover[r.n, r.k])
        for r in report.rows
        if r.scheme is CoinScheme.AKR and (r.n, r.k) in grover
    ]
    return report
