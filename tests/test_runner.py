import itertools
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_same_bits, fake_clock, planes
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from coinwalk.graph import (
    Graph,
    GraphState,
    graph_marked_probability,
    graph_step,
    graph_uniform_state,
    parse_edge_list,
    parse_vertex_ids,
    torus_graph,
)
from coinwalk.graph import _jagged_arcs
from coinwalk.grid import (
    CoinScheme,
    GridState,
    MarkedSet,
    _Band,
    _Fold,
    _frame_coins,
    _mirror_axis,
    apply_coin,
    marked_probability,
    step,
    uniform_state,
)
from coinwalk import runner
from coinwalk.runner import (
    _DEADLINE_EVERY,
    _OVERLAP_BOUND,
    _STEP_BOUND,
    RunSeries,
    _graph_walk,
    _horizon,
    centered_block,
    default_horizon,
    detect_peak,
    reproduce_tables,
    run_graph_walk,
    run_walk,
    runtime_metric,
)


DATA = Path(__file__).parent / "data"


def edge_pair_walk(n, edges, marked, scheme, horizon):
    """Reference walk written without ``coinwalk.graph``.

    Arc 2e runs along edge e as listed and arc 2e + 1 against it, so the
    shift swaps neighbouring pairs; vertex sums come from ``bincount``.
    Returns the probability and overlap series.
    """
    tail = np.asarray(edges).ravel()
    degrees = np.bincount(tail, minlength=n)
    on_marked = np.isin(tail, marked)
    amp = np.full(tail.size, 1.0 / math.sqrt(tail.size))
    a0 = amp[0]
    prob, overlap = [], []
    for t in range(horizon + 1):
        if t:
            coin = (2.0 * np.bincount(tail, weights=amp, minlength=n) / degrees)[tail] - amp
            coin[on_marked] = -amp[on_marked] if scheme is CoinScheme.AKR else -coin[on_marked]
            amp = coin.reshape(-1, 2)[:, ::-1].ravel()
        prob.append(float(amp[on_marked] @ amp[on_marked]))
        overlap.append(a0 * float(amp.sum()))
    return np.array(prob), np.array(overlap)


def half_sums(amp):
    """Half of each cell's amplitude sum in an (n, n, 4) state, added ``(u + d) + (l + r)`` as the coin adds it."""
    return ((amp[..., 0] + amp[..., 1]) + (amp[..., 2] + amp[..., 3])) * 0.5


def band_lines(band):
    """The torus rows and columns that the band holds, in its order."""
    return [(fold.start + np.arange(fold.size)) % fold.n for fold in band]


def band_images(band):
    """How many torus rows and columns each band row and column stands for.

    2 along a mirror, 1 on its axis or without one, read from the lines' positions alone.
    """
    return [
        np.array([1 if fold.c is None or (2 * p - fold.c) % fold.n == 0 else 2 for p in ps])
        for fold, ps in zip(band, band_lines(band))
    ]


def fast_total(h, marked, band):
    """The torus walk's total after a coin, from that coin's half sums ``h`` on the whole torus.

    Each of the band's half sums times the number of torus cells it stands
    for (see :func:`band_images`), negated at the marked cells, in one sum:
    the formula of the path the walk takes.
    """
    lines, images = band_lines(band), band_images(band)
    held = h[np.ix_(*lines)] * images[0][:, None] * images[1]
    held[marked.mask[np.ix_(*lines)]] *= -1.0
    # the walk sums its (w, h) band in one pairwise sum, in the band's flat order
    return 2.0 * np.add.reduce(held.reshape(-1))


def mirrored(amp, c, axis):
    """The (n, n, 4) state ``amp`` reflected through p -> c - p (mod n) along x (axis 0) or y (axis 1).

    The x-mirror swaps LEFT and RIGHT, the y-mirror UP and DOWN.
    """
    n = amp.shape[0]
    directions = [0, 1, 3, 2] if axis == 0 else [1, 0, 2, 3]
    return np.take(amp[..., directions], (c - np.arange(n)) % n, axis=axis)


def transposed(marked):
    """The marked set with x and y swapped: its y-mirror is the set's x-mirror."""
    return MarkedSet(marked.n, [(y, x) for x, y in marked])


@st.composite
def mirror_sets(draw):
    """Side 4..13 and a marked set with a mirror: a block, maybe wrapping, or cells and their images.

    The images are under a y-mirror, an x-mirror or both, so a set can have
    either axis alone or both.
    """
    n = draw(st.integers(4, 13))
    coord = st.integers(0, n - 1)
    if draw(st.booleans()):
        side = st.integers(1, n)
        marked = MarkedSet.from_block(n, (draw(coord), draw(coord)), draw(side), draw(side))
    else:
        cells = draw(st.lists(st.tuples(coord, coord), max_size=n))
        mirrors = draw(st.sampled_from(["y", "x", "xy"]))
        if "y" in mirrors:
            c = draw(coord)
            cells = cells + [(x, c - y) for x, y in cells]
        if "x" in mirrors:
            c = draw(coord)
            cells = cells + [(c - x, y) for x, y in cells]
        marked = MarkedSet(n, cells)
    return n, marked, draw(st.sampled_from(list(CoinScheme)))


@st.composite
def plain_sets(draw):
    """Side 2..13 and up to n cells anywhere, most without a mirror, and a coin."""
    n = draw(st.integers(2, 13))
    coord = st.integers(0, n - 1)
    marked = MarkedSet(n, draw(st.lists(st.tuples(coord, coord), max_size=n)))
    return n, marked, draw(st.sampled_from(list(CoinScheme)))


@st.composite
def seam_walks(draw):
    """Small torus, marked set with cells on both seams, coin and horizon."""
    n = draw(st.integers(2, 9))
    coord = st.integers(0, n - 1)
    edge = st.sampled_from([0, n - 1])
    cells = draw(st.lists(st.tuples(coord, coord), max_size=n * n // 2))
    cells += [(draw(edge), draw(coord)), (draw(coord), draw(edge))]
    scheme = draw(st.sampled_from(list(CoinScheme)))
    return n, MarkedSet(n, cells), scheme, draw(st.integers(1, 40))


class TestDetectPeak:
    def test_monotone_series_peaks_at_end(self):
        assert detect_peak(np.array([0.0, 0.1, 0.2, 0.3])) == (3, 0.3)

    def test_constant_series_ties_to_first(self):
        assert detect_peak(np.array([0.5, 0.5, 0.5])) == (0, 0.5)

    def test_accepts_run_series(self):
        series = RunSeries(np.array([0.1, 0.9, 0.4]), None, 0, 0.0, None, None)
        assert detect_peak(series) == (1, 0.9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            detect_peak(np.array([]))


class TestRuntimeMetric:
    def test_definition(self):
        assert runtime_metric(100, 1.0) == 100.0
        assert runtime_metric(50, 0.25) == pytest.approx(100.0, abs=1e-9)

    def test_table_values_within_one_percent(self):
        assert runtime_metric(156, 0.086454) == pytest.approx(531, rel=0.01)
        assert runtime_metric(318, 0.556187) == pytest.approx(427, rel=0.01)

    @pytest.mark.parametrize("p", [0.0, -0.1])
    def test_nonpositive_probability_rejected(self, p):
        with pytest.raises(ValueError):
            runtime_metric(10, p)


class TestRunWalk:
    def test_empty_marked_set(self):
        # the state stays uniform, so every step's overlap is the flat total of the uniform
        # band's half sums, bit for bit, which misses 1.0 by an ulp at some sides
        for n in range(4, 41):
            marked = MarkedSet(n)
            series = run_walk(n, marked, CoinScheme.GROVER, 50)
            state = uniform_state(n)
            fast = state.amp[0, 0, 0] * fast_total(half_sums(state.amp), marked, _Band.of(marked))
            assert_same_bits(series.overlap[1:], np.full(50, fast))
            assert np.all(np.abs(series.overlap - 1.0) <= _OVERLAP_BOUND)
            assert_array_equal(series.probability, np.zeros(51))
            assert series.halt_step is None
            assert series.peak_step == 0
        # a graph with no marked vertex: its block rows have no column, and sum to 0.0
        series = run_graph_walk(parse_edge_list((DATA / "graph.txt").read_text()), [], CoinScheme.GROVER, 50)
        assert_same_bits(series.probability, np.zeros(51))
        assert series.halt_step is None

    def test_table_cell_overlaps_are_the_flat_total(self):
        # n = 100 9x9 Grover to its halt step: every overlap the run records is the flat sum
        # of the band's signed half sums, bit for bit, and within 3.3e-16 of the exact one:
        # three ulps of an overlap in [0.5, 1)
        n, marked, scheme = 100, centered_block(100, 9, 9), CoinScheme.GROVER
        series = run_walk(n, marked, scheme, default_horizon(n), stop_at_halt=True)
        assert series.halt_step == 767
        band = _Band.of(marked)
        lines = band_lines(band)
        counts = np.multiply.outer(*band_images(band))
        signed = np.where(marked.mask[np.ix_(*lines)], -counts, counts)
        state = uniform_state(n)
        a0 = state.amp[0, 0, 0]
        work, half = planes(state.amp)[:, lines[0][:, None], lines[1]].copy(), np.empty(counts.shape)
        coins = _frame_coins(work, scheme, half, band.frames(marked), band)
        for t in range(1, series.halt_step + 1):
            coins[(t - 1) % 2]()
            exact = a0 * math.fsum((work * counts).ravel().tolist())
            assert abs(series.overlap[t] - exact) <= 1.5 * np.finfo(float).eps
            assert_same_bits(series.overlap[t], a0 * (2.0 * np.add.reduce((half * signed).ravel())))

    def test_overlap_starts_at_one(self):
        series = run_walk(10, centered_block(10, 2, 1), CoinScheme.GROVER, 5)
        assert series.overlap[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("scheme", list(CoinScheme))
    def test_matches_pure_step_composition(self, scheme):
        n, horizon = 8, 30
        marked = MarkedSet(n, [(1, 1), (5, 2)])
        series = run_walk(n, marked, scheme, horizon)
        state = uniform_state(n)
        for t in range(horizon + 1):
            assert series.probability[t] == marked_probability(state, marked)
            state = step(state, scheme, marked)

    @settings(deadline=None, max_examples=150)
    @given(seam_walks())
    def test_frames_match_step_composition(self, walk):
        # probabilities bit-identical; overlaps come from the coin's half sums, bit for bit,
        # by the formula of the band the walk holds (a symmetric set is held in a mirror
        # band), except within the bound, where they are exact sums; the exact sum's halt step
        n, marked, scheme, horizon = walk
        series = run_walk(n, marked, scheme, horizon)
        band = _Band.of(marked)
        state = uniform_state(n)
        a0 = state.amp[0, 0, 0]
        prob, exact, direct = np.empty(horizon + 1), np.empty(horizon + 1), np.empty(horizon + 1)
        halves = np.empty(horizon + 1)
        for t in range(horizon + 1):
            prob[t] = marked_probability(state, marked)
            exact[t] = a0 * math.fsum(state.amp.ravel())
            direct[t] = a0 * float(state.amp.sum())
            halves[t] = a0 * fast_total(half_sums(state.amp), marked, band)
            state = step(state, scheme, marked)
        assert_array_equal(series.probability, prob)
        assert series.overlap[0] == direct[0]
        fast = halves[:-1]
        assert_array_equal(series.overlap[1:], np.where(np.abs(fast) <= _OVERLAP_BOUND, exact[1:], fast))
        np.testing.assert_allclose(series.overlap, exact, rtol=0, atol=1e-15)
        crossed = np.flatnonzero(exact <= 0.0)
        assert series.halt_step == (int(crossed[0]) if crossed.size else None)

    def test_deterministic_reruns_bit_identical(self):
        kwargs = dict(n=30, marked=centered_block(30, 3, 3), scheme=CoinScheme.GROVER, horizon=120)
        a = run_walk(**kwargs)
        b = run_walk(**kwargs)
        assert_array_equal(a.probability, b.probability)
        assert_array_equal(a.overlap, b.overlap)
        assert a.halt_step == b.halt_step

    def test_no_overlap_recording_still_detects_halt(self):
        series = run_walk(30, centered_block(30, 3, 3), CoinScheme.AKR, 200, record_overlap=False)
        assert series.overlap is None
        assert series.halt_step is not None
        assert series.halt_probability == series.probability[series.halt_step]

    def test_stop_at_halt_truncates(self):
        full = run_walk(30, centered_block(30, 3, 3), CoinScheme.AKR, 200)
        short = run_walk(30, centered_block(30, 3, 3), CoinScheme.AKR, 200, stop_at_halt=True)
        assert short.halt_step == full.halt_step
        assert len(short) == short.halt_step + 1
        assert_array_equal(short.probability, full.probability[: len(short)])

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            run_walk(10, MarkedSet(10), CoinScheme.AKR, 0)

    def test_marked_set_on_another_side_rejected(self):
        with pytest.raises(ValueError, match="^marked set is on a side-4 grid, state on 5$"):
            run_walk(5, MarkedSet(4, [(0, 0)]), CoinScheme.AKR, 10)

    @pytest.mark.parametrize("scheme", list(CoinScheme))
    def test_torus_graph_walk_matches_grid_walk(self, scheme):
        # one halt-rule loop serves both targets; only the summation order differs
        n = 12
        marked = centered_block(n, 3, 3)
        horizon = default_horizon(n)
        grid = run_walk(n, marked, scheme, horizon)
        graph = run_graph_walk(torus_graph(n), [x * n + y for x, y in marked], scheme, horizon)
        assert grid.halt_step is not None
        assert (graph.halt_step, graph.peak_step) == (grid.halt_step, grid.peak_step)
        np.testing.assert_allclose(graph.probability, grid.probability, rtol=0, atol=1e-12)
        np.testing.assert_allclose(graph.overlap, grid.overlap, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scheme", list(CoinScheme))
    def test_graph_walk_matches_edge_pair_walk(self, scheme):
        # irregular graph whose marked set holds its degree-14 hub
        text = (DATA / "graph.txt").read_text()
        g = parse_edge_list(text)
        marked = parse_vertex_ids((DATA / "graph_marked.txt").read_text())
        edges = [tuple(map(int, line.split())) for line in text.splitlines() if not line.startswith("#")]
        assert int(g.degrees[marked].max()) == int(g.degrees.max()) == 14
        horizon = 300
        series = run_graph_walk(g, marked, scheme, horizon)
        prob, overlap = edge_pair_walk(g.n, edges, marked, scheme, horizon)
        assert series.halt_step == int(np.argmax(overlap <= 0.0))
        assert series.peak_step == int(np.argmax(prob))
        np.testing.assert_allclose(series.probability, prob, rtol=1e-12)
        np.testing.assert_allclose(series.overlap, overlap, rtol=1e-12)

    @pytest.mark.parametrize("scheme", list(CoinScheme))
    @pytest.mark.parametrize("name", ["graph", "hub"])
    def test_graph_probability_is_the_pairwise_sum(self, name, scheme):
        # every step's probability is numpy's pairwise sum of the squared marked amplitudes,
        # as on the torus; a BLAS dot product adds in its own order and misses it by an ulp
        # at about half the steps
        g = parse_edge_list((DATA / f"{name}.txt").read_text())
        marked = parse_vertex_ids((DATA / f"{name}_marked.txt").read_text())
        idxs = g.marked_arc_indices(marked)
        horizon = 300
        series = run_graph_walk(g, marked, scheme, horizon)
        state, want = graph_uniform_state(g), []
        for t in range(horizon + 1):
            if t:
                state = graph_step(state, marked, scheme)
            sel = state.amp[idxs]
            want.append(np.add.reduce(sel * sel))
        assert_same_bits(series.probability, np.array(want))


class TestMirrorBand:
    """A set with an x-mirror, a y-mirror or both runs on a fundamental domain, with the same bits."""

    @settings(deadline=None, max_examples=100)
    @given(mirror_sets(), st.integers(1, 2))
    @example((5, MarkedSet.from_block(5, (3, 4), 2, 3), CoinScheme.AKR), 1)  # wraps both ways
    @example((8, MarkedSet.from_block(8, (2, 7), 3, 2), CoinScheme.GROVER), 1)  # site rows, bond columns
    @example((8, MarkedSet.from_block(8, (2, 6), 3, 3), CoinScheme.AKR), 1)  # site axes both ways
    @example((10, MarkedSet.from_block(10, (9, 4), 2, 2), CoinScheme.GROVER), 1)  # bond axes, wraps
    @example((9, MarkedSet.from_block(9, (3, 3), 3, 3), CoinScheme.GROVER), 1)  # odd n: site, bond
    @example((9, MarkedSet(9), CoinScheme.GROVER), 1)
    @example((7, MarkedSet(7, [(1, 0), (5, 0), (2, 3), (4, 3)]), CoinScheme.AKR), 1)  # x-mirror only
    @example((6, MarkedSet(6, [(5, 1), (1, 1), (0, 2)]), CoinScheme.GROVER), 1)  # x-mirror only, wraps
    @example((10, MarkedSet(10, [(1, 2), (9, 2), (1, 6), (9, 6), (0, 4)]), CoinScheme.AKR), 1)  # no block
    def test_walk_matches_step_composition(self, case, reach):
        n, marked, scheme = case
        assert _mirror_axis(marked) is not None or _mirror_axis(transposed(marked)) is not None
        horizon = reach * default_horizon(n)
        series = run_walk(n, marked, scheme, horizon)
        state = uniform_state(n)
        a0 = state.amp[0, 0, 0]
        exact = np.empty(horizon + 1)
        for t in range(horizon + 1):
            assert series.probability[t] == marked_probability(state, marked)
            exact[t] = a0 * math.fsum(state.amp.ravel())
            state = step(state, scheme, marked)
        np.testing.assert_allclose(series.overlap, exact, rtol=0, atol=1e-15)
        want = fsum_halt(uniform_state(n), lambda s: step(s, scheme, marked), horizon)
        assert series.halt_step == want

    @settings(deadline=None, max_examples=150)
    @given(mirror_sets(), st.integers(0, 2**32 - 1))
    @example((8, MarkedSet.from_block(8, (2, 6), 3, 3), CoinScheme.AKR), 0)  # site axes both ways
    @example((10, MarkedSet.from_block(10, (9, 4), 2, 2), CoinScheme.GROVER), 1)  # bond axes both ways
    @example((9, MarkedSet.from_block(9, (3, 3), 3, 3), CoinScheme.AKR), 2)  # odd n
    @example((6, MarkedSet(6, [(5, 1), (1, 1), (0, 2)]), CoinScheme.GROVER), 3)  # x-mirror only
    def test_band_coins_match_two_steps(self, case, seed):
        # a random state with the set's mirrors, not only the uniform one: frame 0 then
        # frame 1 on the band equal two full steps at the band's cells, bit for bit; the
        # band's seam rows and columns read the torus wrap or the mirror images
        n, marked, scheme = case
        band = _Band.of(marked)
        if band.x.c is None and band.y.c is None:
            return
        rng = np.random.default_rng(seed)
        amp = rng.standard_normal((n, n, 4))
        folds = [(0, band.x), (1, band.y)]
        for axis, fold in folds:
            if fold.c is not None:
                amp += mirrored(amp, fold.c, axis)
        for axis, fold in folds:
            if fold.c is not None:
                assert_array_equal(mirrored(amp, fold.c, axis), amp)
        cells = np.ix_(*[(fold.start + np.arange(fold.size)) % n for fold in band])
        work, half = planes(amp)[:, cells[0], cells[1]].copy(), np.empty((band.x.size, band.y.size))
        flats = band.frames(marked)
        coin0, coin1 = _frame_coins(work, scheme, half, flats, band)
        coin0()
        coined = apply_coin(GridState(n, amp), scheme, marked).amp
        assert_same_bits(half, half_sums(amp)[cells])
        assert_same_bits(work, planes(coined)[:, cells[0], cells[1]])
        once = step(GridState(n, amp), scheme, marked)
        sel = work.reshape(-1)[flats[1]]
        assert float(np.sum(sel * sel)) == marked_probability(once, marked)
        coin1()
        assert_same_bits(half, half_sums(once.amp)[cells])
        assert_same_bits(work, planes(step(once, scheme, marked).amp)[:, cells[0], cells[1]])

    @settings(deadline=None, max_examples=100)
    @given(mirror_sets())
    @example((9, MarkedSet.from_block(9, (3, 3), 3, 3), CoinScheme.GROVER))
    @example((10, MarkedSet.from_block(10, (4, 4), 2, 2), CoinScheme.AKR))
    def test_step_keeps_both_mirrors_bit_for_bit(self, case):
        # the coin adds (u + d) + (l + r), so neither mirror moves a bit of the whole-torus state
        n, marked, scheme = case
        cx, cy = _mirror_axis(transposed(marked)), _mirror_axis(marked)
        assume(cx is not None and cy is not None)
        state = uniform_state(n)
        for _ in range(3 * n):
            state = step(state, scheme, marked)
            assert_same_bits(mirrored(state.amp, cx, 0), state.amp)
            assert_same_bits(mirrored(state.amp, cy, 1), state.amp)

    @settings(deadline=None, max_examples=200)
    @given(st.integers(2, 9).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                                 max_size=n), st.integers(0, n - 1), st.booleans())))
    @example((2, [(0, 0)], 0, True))
    @example((2, [(0, 0), (1, 1)], 1, False))
    @example((3, [(1, 0), (1, 2)], 2, True))
    @example((3, [(0, 0), (0, 1)], 1, True))
    @example((4, [(0, 0), (0, 1)], 1, True))  # bond axes, a 2-column domain
    @example((6, [(0, 0), (2, 1), (3, 5)], 0, False))  # no axis
    def test_axis_maps_set_onto_itself(self, case):
        n, cells, c, mirror = case
        if mirror:
            cells = cells + [(x, c - y) for x, y in cells]
        marked = MarkedSet(n, cells)
        axes = [a for a in range(n) if {(x, (a - y) % n) for x, y in marked} == marked.cells]
        found = _mirror_axis(marked)
        assert found == (axes[0] if axes else None)
        band = _Band.of(marked)
        # the rows are folded as the columns of the transposed set, read through views
        assert _mirror_axis(marked, transposed=True) == _mirror_axis(transposed(marked))
        assert band.x == _Band.of(transposed(marked)).y
        fold = band.y
        if found is None or fold.c is None:
            # no axis, or a domain of fewer than 3 columns: the whole axis
            assert fold == _Fold(n, 0, n, None)
            assert found is None or n <= 4
            return
        assert fold.c == found and 3 <= fold.size <= n // 2 + 1
        columns = (fold.start + np.arange(fold.size)) % n
        fixed = [j for j, y in enumerate(columns) if (2 * y - found) % n == 0]
        # the axis columns are the ones the fold maps a single torus column onto
        assert fixed == np.flatnonzero(fold.weights == 1).tolist()
        # the band and its mirror image cover the torus, overlapping only on the axis columns
        image = (found - columns) % n
        assert set(columns) | set(image) == set(range(n))
        assert set(columns) & set(image) == set(columns[fixed])


class TestBandCounts:
    """How many torus cells each band cell stands for, and the exact total that reads those counts."""

    @settings(deadline=None, max_examples=150)
    @given(st.one_of(mirror_sets(), plain_sets()))
    @example((9, MarkedSet(9, [(0, 0), (2, 1), (3, 5)]), CoinScheme.AKR))  # no mirror
    @example((10, MarkedSet(10, [(1, 2), (1, 6), (4, 4)]), CoinScheme.GROVER))  # y-mirror only
    @example((10, MarkedSet.from_block(10, (9, 4), 2, 2), CoinScheme.GROVER))  # bond axes both ways
    @example((9, MarkedSet.from_block(9, (3, 3), 3, 3), CoinScheme.AKR))  # odd n: site, bond
    def test_counts_cover_the_torus(self, case):
        n, marked, _ = case
        band = _Band.of(marked)
        counts = np.multiply.outer(band.x.weights, band.y.weights)
        assert counts.sum() == n * n
        images = band_images(band)
        assert_array_equal(counts, np.multiply.outer(*images))
        # every torus cell folds onto the band cell that counts it
        i, j = band.x.fold(np.arange(n))[0], band.y.fold(np.arange(n))[0]
        assert_array_equal(counts, np.bincount((i[:, None] * band.y.size + j).ravel()).reshape(counts.shape))

    @settings(deadline=None, max_examples=150)
    @given(st.one_of(mirror_sets(), plain_sets()), st.integers(0, 40))
    @example((9, MarkedSet(9, [(0, 0), (2, 1), (3, 5)]), CoinScheme.AKR), 7)  # no mirror
    @example((10, MarkedSet(10, [(1, 2), (1, 6), (4, 4)]), CoinScheme.GROVER), 5)  # y-mirror only
    @example((10, MarkedSet.from_block(10, (9, 4), 2, 2), CoinScheme.GROVER), 3)  # bond axes both ways
    @example((9, MarkedSet.from_block(9, (3, 3), 3, 3), CoinScheme.AKR), 4)  # odd n: site, bond
    def test_exact_total_is_the_whole_torus_fsum(self, case, t):
        # after an odd step the band holds the coin's output, a permutation of the state's;
        # each step's marked sum and fast total read the coin's half sums of the state before it
        n, marked, scheme = case
        walk = runner._torus_walk(n, marked, scheme)
        band = _Band.of(marked)
        state = uniform_state(n)
        for _ in range(t):
            walk.advance()
            h = half_sums(state.amp)
            assert_same_bits(walk.marked_sum(), 2.0 * np.add.reduce(h[marked.xs, marked.ys]))
            assert_same_bits(walk.tally(), fast_total(h, marked, band))
            state = step(state, scheme, marked)
        assert_same_bits(walk.exact(), math.fsum(state.amp.ravel()))


class TestStartState:
    """The torus walk allocates only its band; its start state is a stride-0 view."""

    def test_holds_less_than_twice_its_band(self):
        n, marked = 200, centered_block(200, 3, 3)
        band = _Band.of(marked)
        band_bytes = 32 * band.x.size * band.y.size
        runner._torus_walk(n, marked, CoinScheme.GROVER)  # first-call set-up is not the walk's
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            walk = runner._torus_walk(n, marked, CoinScheme.GROVER)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert walk[0].shape == (4, n, n) and not walk[0].flags.writeable
        # the band, its half sums, their signed counts and the coin's scratch: 7 w h floats;
        # the block's 64 rows of 36 marked amplitudes: 0.23 w h more
        assert held < 2 * band_bytes

    def test_start_state_sums_as_the_filled_one(self):
        # _drive takes the step-0 overlap from the start state's sum; if a numpy release sums
        # the stride-0 view in another order than the filled array, this fails
        for n in range(2, 131):
            start = runner._torus_walk(n, MarkedSet(n), CoinScheme.GROVER)[0]
            filled = uniform_state(n).amp
            assert start.shape == (4, n, n) and start.strides == (0, 0, 0) and start.size == filled.size
            assert start.flat[0] == filled.flat[0]
            assert_same_bits(start.sum(), filled.sum())


class TestGroverTie:
    """A Grover marked amplitude equal to 2 s / d: every path writes -(2 s / d - alpha), a -0.0."""

    def test_every_path_writes_the_same_zero(self):
        n, scheme, cell = 4, CoinScheme.GROVER, (1, 1)
        marked = MarkedSet(n, [cell])
        amp = np.zeros((n, n, 4))
        amp[1, 1] = 1.0, 1.0, 0.0, 0.0
        stepped = step(GridState(n, amp), scheme, marked).amp
        # UP and DOWN of cell (1, 1) move to DOWN of (1, 0) and UP of (1, 2)
        assert np.signbit(stepped[1, 0, 1]) and np.signbit(stepped[1, 2, 0])
        whole = _Fold(n, 0, n, None)
        band = _Band(whole, whole)
        work, half = planes(amp).copy(), np.empty((n, n))
        coin0 = _frame_coins(work, scheme, half, band.frames(marked), band)[0]
        coin0()
        assert_same_bits(work, planes(apply_coin(GridState(n, amp), scheme, marked).amp))

        g, v = torus_graph(n), cell[0] * n + cell[1]
        arc_amp = np.zeros(g.arc_count)
        arc_amp[g.arc_slice(v)] = 1.0, 1.0, 0.0, 0.0
        arc_stepped = graph_step(GraphState(g, arc_amp), [v], scheme).amp
        assert np.signbit(arc_stepped[g.partner[g.arc_slice(v)][:2]]).all()
        walk = _graph_walk(g, [v], scheme)
        arcs = _jagged_arcs(g)[1]
        walk.start[...] = arc_amp[arcs]
        walk.advance()
        # an odd step gathers the new state into the second buffer
        assert_same_bits(walk.start.base[1], arc_stepped[arcs])


class TestDiagonalBaseline:
    """The paper's baseline from Ambainis and Rivosh (2008): marked diagonals of the torus.

    The marked probability never moves from its start, under either coin.
    The halt rule still calls these runs a success where the overlap first
    crosses zero; that is not asserted here.
    """

    LINES = {
        "diagonal": lambda n: [(i, i) for i in range(n)],
        "anti-diagonal": lambda n: [(i, -i) for i in range(n)],
        "two-diagonals": lambda n: [(i, i) for i in range(n)] + [(i, i + 3) for i in range(n)],
    }

    @pytest.mark.parametrize("scheme", list(CoinScheme))
    @pytest.mark.parametrize("lines", list(LINES))
    @pytest.mark.parametrize("n", [8, 16, 17])
    def test_marked_probability_never_moves(self, n, lines, scheme):
        series = run_walk(n, MarkedSet(n, self.LINES[lines](n)), scheme, 4 * n)
        assert np.max(np.abs(series.probability - series.probability[0])) == 0.0

    @pytest.mark.parametrize("scheme", list(CoinScheme))
    @pytest.mark.parametrize("n", [8, 16, 17])
    def test_diagonal_overlap_falls_linearly(self, n, scheme):
        series = run_walk(n, MarkedSet(n, self.LINES["diagonal"](n)), scheme, n)
        t = np.arange(n + 1)
        np.testing.assert_allclose(series.overlap, 1.0 - 2.0 * t / n, rtol=0, atol=1e-15)


def fsum_halt(state, advance, horizon):
    """First step t in 1..horizon of ``advance`` compositions whose exact overlap is <= 0, or None."""
    a0 = state.amp.flat[0]
    for t in range(1, horizon + 1):
        state = advance(state)
        if a0 * math.fsum(state.amp.ravel()) <= 0.0:
            return t
    return None


@st.composite
def small_torus_sets(draw):
    """Side 3..12, up to 6 cells anywhere or within a 3 x 3 patch, and a coin."""
    n = draw(st.integers(3, 12))
    offsets = st.tuples(st.integers(0, 2), st.integers(0, 2))
    if draw(st.booleans()):
        x0, y0 = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        cells = [(x0 + dx, y0 + dy) for dx, dy in draw(st.lists(offsets, min_size=1, max_size=6))]
    else:
        coord = st.integers(0, n - 1)
        cells = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=6))
    return n, cells, draw(st.sampled_from(list(CoinScheme)))


@st.composite
def small_graphs(draw):
    """A ring of 4..15 vertices with random chords, 1..3 marked vertices and a coin."""
    n = draw(st.integers(4, 15))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = {tuple(sorted((v, (v + 1) % n))) for v in range(n)}
    edges |= {tuple(sorted(e)) for e in draw(st.lists(pairs, max_size=n))}
    marked = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    return n, sorted(edges), marked, draw(st.sampled_from(list(CoinScheme)))


class TestHaltRule:
    """The halt step is the first step whose exact amplitude total is <= 0.

    The examples halted a step or more early, or late, when the fast overlap's
    sign decided alone: rounding moved it across zero.
    """

    @settings(deadline=None, max_examples=100)
    @given(small_torus_sets())
    @example((3, [(0, 0), (2, 0)], CoinScheme.GROVER))  # 3 against 23
    @example((5, [(1, 0), (1, 1), (3, 3), (4, 0)], CoinScheme.GROVER))  # 3 against 4
    @example((6, [(0, 0), (0, 1), (0, 3), (0, 4), (1, 4), (2, 2)], CoinScheme.AKR))  # 3 against 4
    @example((10, [(2, 8), (6, 0)], CoinScheme.AKR))  # 10 against 11
    def test_torus_halt_is_the_exact_sums(self, case):
        n, cells, scheme = case
        marked, horizon = MarkedSet(n, cells), 4 * default_horizon(n)
        series = run_walk(n, marked, scheme, horizon, record_overlap=False, stop_at_halt=True)
        assert series.halt_step == fsum_halt(uniform_state(n), lambda s: step(s, scheme, marked), horizon)

    @settings(deadline=None, max_examples=100)
    @given(small_graphs())
    @example((10, [(0, 1), (0, 4), (0, 9), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (5, 8),
                   (6, 7), (6, 9), (7, 8), (8, 9)], [0, 1, 8], CoinScheme.GROVER))  # 3 against 2
    @example((11, [(0, 1), (0, 10), (1, 2), (2, 3), (3, 4), (4, 5), (4, 9), (5, 6), (6, 7), (7, 8),
                   (8, 9), (9, 10)], [0, 5, 7], CoinScheme.AKR))  # 2 against 3
    @example((15, [(0, 1), (0, 14), (1, 2), (2, 3), (3, 4), (3, 10), (4, 5), (5, 6), (6, 7), (7, 8),
                   (7, 9), (8, 9), (9, 10), (10, 11), (11, 12), (12, 13), (13, 14)], [4, 9],
              CoinScheme.GROVER))  # 3 against 4
    def test_graph_halt_is_the_exact_sums(self, case):
        n, edges, marked, scheme = case
        g, horizon = Graph.from_edges(n, edges), 4 * _horizon(n)
        series = run_graph_walk(g, marked, scheme, horizon, record_overlap=False, stop_at_halt=True)
        want = fsum_halt(graph_uniform_state(g), lambda s: graph_step(s, marked, scheme), horizon)
        assert series.halt_step == want


def unrecorded_matches_recording(run):
    """``run(record_overlap, stop_at_halt)`` without the overlap gives the recording run's halt, peak and bits."""
    for stop in (False, True):
        rec, unrec = run(True, stop), run(False, stop)
        assert unrec.overlap is None
        assert (unrec.halt_step, unrec.peak_step) == (rec.halt_step, rec.peak_step)
        assert_same_bits(unrec.probability, rec.probability)
        assert_same_bits(unrec.peak_probability, rec.peak_probability)
        assert unrec.halt_probability == rec.halt_probability


def running_errors(walk, steps):
    """How far :func:`runner._drive`'s running overlap lies from the exact one, and its ``err``, at ``steps``.

    The walk's ``marked_sum``, which a run that records no overlap calls
    once a step until it halts, is wrapped to read the driver's locals as
    it is called: at step t they hold ``running`` and ``err`` of step t - 1,
    paired here with the exact overlap of that step's state, taken at the
    call before. The run stops at its halt step, which must be the last of
    ``steps``, and that step's pair is read from the driver's frame once it
    has returned; no step may be 0. Returns one (distance, err) pair per
    step of ``steps``.
    """
    a0, last = float(walk.start.flat[0]), max(steps)
    pairs, exact, driver = [], {}, []
    calls = itertools.count(1)

    def pair(loop, t):
        if t in exact:
            pairs.append((abs(loop["running"] - exact[t]), loop["err"]))

    def marked_sum():
        t = next(calls)
        driver[:] = [sys._getframe(1)]
        pair(driver[0].f_locals, t - 1)
        if t in steps:
            exact[t] = a0 * walk.exact()
        return walk.marked_sum()

    series = runner._drive(walk._replace(marked_sum=marked_sum), last, record_overlap=False, stop_at_halt=True)
    assert series.halt_step == last and next(calls) == last + 1
    pair(driver[0].f_locals, last)
    return pairs


class TestCertifiedSign:
    """A run that records no overlap decides each step from a running overlap and its error bound.

    It must halt where the recording run halts: at the first exact total <= 0.
    """

    @settings(deadline=None, max_examples=100)
    @given(st.one_of(mirror_sets(), plain_sets()), st.integers(1, 300))
    @example((16, MarkedSet(16, [(i, i) for i in range(16)]), CoinScheme.GROVER), 40)  # AR08 diagonal
    @example((16, MarkedSet(16, [(i, i) for i in range(16)]), CoinScheme.AKR), 40)
    @example((2, MarkedSet(2, [(0, 0)]), CoinScheme.GROVER), 30)
    @example((2, MarkedSet(2, [(0, 1)]), CoinScheme.AKR), 30)
    @example((9, MarkedSet(9), CoinScheme.AKR), 50)
    @example((3, MarkedSet(3, [(x, y) for x in range(3) for y in range(3)]), CoinScheme.AKR), 20)
    @example((3, MarkedSet(3, [(x, y) for x in range(3) for y in range(3)]), CoinScheme.GROVER), 20)
    @example((100, centered_block(100, 2, 2), CoinScheme.GROVER), 10_000)  # never halts
    def test_torus_matches_recording_run(self, case, horizon):
        n, marked, scheme = case
        unrecorded_matches_recording(
            lambda record, stop: run_walk(n, marked, scheme, horizon, record_overlap=record, stop_at_halt=stop))

    @settings(deadline=None, max_examples=100)
    @given(small_graphs(), st.integers(1, 300))
    def test_graph_matches_recording_run(self, case, horizon):
        n, edges, marked, scheme = case
        g = Graph.from_edges(n, edges)
        unrecorded_matches_recording(
            lambda record, stop: run_graph_walk(g, marked, scheme, horizon, record_overlap=record, stop_at_halt=stop))

    def test_table_cell_takes_few_totals(self):
        # the n=100 3x3 AKR cell: step 1 anchors the running overlap, which then certifies
        # every sign to the halt step
        calls = []
        walk = runner._torus_walk(100, centered_block(100, 3, 3), CoinScheme.AKR)

        def tally():
            calls.append(1)
            return walk.tally()

        series = runner._drive(walk._replace(tally=tally), default_horizon(100), False, True)
        assert series.halt_step == 156
        assert 1 <= len(calls) <= 4

    @pytest.mark.parametrize("n,every", [(100, 1), (200, 8)])
    def test_running_overlap_stays_well_inside_its_bound(self, n, every):
        # the 16 benchmark cells: the running overlap's distance from the exact one stays
        # at a quarter of its bound or less, at every step to the halt step at n=100; at
        # n=200, where an exact sum costs 0.4 ms, at every 8th step and the last 8
        worst = 0.0
        for side in (3, 5, 7, 9):
            marked = centered_block(n, side, side)
            for scheme in CoinScheme:
                halt = run_walk(n, marked, scheme, default_horizon(n), record_overlap=False, stop_at_halt=True).halt_step
                steps = set(range(1, halt + 1, every)) | set(range(max(1, halt - every), halt + 1))
                pairs = running_errors(runner._torus_walk(n, marked, scheme), steps)
                assert len(pairs) == len(steps)
                worst = max(worst, max(d / e for d, e in pairs))
        assert worst <= 0.25

    @pytest.mark.parametrize("drift", [1.0, -1.0])
    def test_sign_holds_against_a_drift_within_the_step_bound(self, drift):
        # a target whose marked sums are off by 0.9 of the step bound, all one way: the
        # running overlap drifts a step bound a step from an exact one that crosses zero at
        # step 40 (up: past the crossing; down: below zero early), and only its growing
        # bound sends the step back to the full total in time
        a0, slope = 0.5, 1e-13
        t = 0

        def exact_overlap(step):
            return slope * (40 - step)

        def advance():
            nonlocal t
            t += 1

        def marked_sum():
            return (exact_overlap(t - 1) - exact_overlap(t) - drift * 0.9 * _STEP_BOUND) / (2.0 * a0)

        def total():
            return exact_overlap(t) / a0

        block = np.empty((_DEADLINE_EVERY, 0))
        walk = runner._Walk(np.full(4, a0), block, advance, lambda r: None, total, marked_sum, total)
        series = runner._drive(walk, 100, record_overlap=False, stop_at_halt=True)
        assert series.halt_step == 40


class TestDeadline:
    """A deadline ends :func:`runner._drive` as a halt does: the series is cut where the run stopped."""

    @pytest.mark.parametrize(
        "target,record_overlap,stop_at_halt",
        [(lambda: runner._torus_walk(100, centered_block(100, 3, 3), CoinScheme.AKR), False, True),
         (lambda: _graph_walk(torus_graph(20), [9 * 20 + 9, 9 * 20 + 10, 10 * 20 + 9, 10 * 20 + 10],
                              CoinScheme.GROVER), True, False)],
        ids=["torus", "graph"],
    )
    def test_passed_deadline_returns_the_steps_run(self, target, record_overlap, stop_at_halt, monkeypatch):
        horizon = 3 * _DEADLINE_EVERY
        whole = runner._drive(target(), horizon, True, stop_at_halt)
        assert whole.halt_step is None or whole.halt_step > _DEADLINE_EVERY
        fake_clock(monkeypatch, 0)
        series = runner._drive(target(), horizon, record_overlap, stop_at_halt, deadline=1.0)
        assert len(series) == _DEADLINE_EVERY + 1
        assert series.halt_step is None and series.halt_probability is None
        assert_array_equal(series.probability, whole.probability[: _DEADLINE_EVERY + 1])
        if record_overlap:
            assert_array_equal(series.overlap, whole.overlap[: _DEADLINE_EVERY + 1])


class TestBlocks:
    """:func:`runner._drive` runs in blocks: a step fills its rows, the block reduces them once."""

    @pytest.mark.parametrize("stop_at_halt", [False, True])
    @pytest.mark.parametrize("scheme", list(CoinScheme))
    @pytest.mark.parametrize("n,last", [(16, True), (20, False), (128, True)])
    def test_doubtful_step_takes_the_exact_sum(self, n, last, scheme, stop_at_halt):
        # the AR08 diagonal's fast overlap is zero up to rounding at t = n/2, here the last
        # step of a block at n = 16 and 128 and inside one at n = 20; the run takes that
        # step's overlap from the exact sum of its state as the step ends, and steps on as if
        # it had not
        marked = MarkedSet(n, [(i, i) for i in range(n)])
        walk = runner._torus_walk(n, marked, scheme)
        at = n // 2
        if last:
            walk = walk._replace(block=walk.block[: math.gcd(at, len(walk.block))])
        rows = len(walk.block)
        horizon = at + 2 * rows
        assert (at % rows == 0) == last
        calls = []

        def exact():
            calls.append(1)
            return walk.exact()

        series = runner._drive(walk._replace(exact=exact), horizon, True, stop_at_halt)
        state = uniform_state(n)
        a0 = state.amp.flat[0]
        states = [state]
        for _ in range(horizon):
            states.append(step(states[-1], scheme, marked))
        assert calls
        assert series.overlap[at] == a0 * math.fsum(states[at].amp.ravel())
        assert series.halt_step == fsum_halt(state, lambda s: step(s, scheme, marked), horizon) == at
        assert len(series) == (at if stop_at_halt else horizon) + 1
        assert_array_equal(series.probability, [marked_probability(s, marked) for s in states[: len(series)]])

    @pytest.mark.parametrize("stop_at_halt", [False, True])
    @pytest.mark.parametrize("scheme", list(CoinScheme))
    @pytest.mark.parametrize("n", [16, 20, 128])
    def test_doubtful_graph_step_takes_the_exact_sum(self, n, scheme, stop_at_halt):
        # the graph twin of the test above: the AR08 diagonal on torus_graph(n) has the same
        # doubtful step t = n/2, the last step of a block at n = 128 and inside one at n = 16
        # and 20 in the blocks the run picks
        g, marked = torus_graph(n), [x * n + x for x in range(n)]
        walk = _graph_walk(g, marked, scheme)
        at, horizon = n // 2, n // 2 + 2 * len(walk.block)
        assert (at % len(walk.block) == 0) == (n == 128)
        calls = []

        def exact():
            calls.append(1)
            return walk.exact()

        series = runner._drive(walk._replace(exact=exact), horizon, True, stop_at_halt)
        state = graph_uniform_state(g)
        a0 = state.amp[0]
        states = [state]
        for _ in range(horizon):
            states.append(graph_step(states[-1], marked, scheme))
        assert calls
        assert series.overlap[at] == a0 * math.fsum(states[at].amp)
        assert series.halt_step == fsum_halt(state, lambda s: graph_step(s, marked, scheme), horizon) == at
        assert len(series) == (at if stop_at_halt else horizon) + 1
        assert_array_equal(series.probability, [graph_marked_probability(s, marked) for s in states[: len(series)]])
        # blocks of one step start on odd and on even steps, and so do blocks of three (not a
        # length a run picks): where a block ends moves no bit
        for rows in (1, 3):
            walk = _graph_walk(g, marked, scheme)
            again = runner._drive(walk._replace(block=walk.block[:rows]), horizon, True, stop_at_halt)
            assert_same_bits(again.probability, series.probability)
            assert_same_bits(again.overlap, series.overlap)
            assert again.halt_step == series.halt_step

    @pytest.mark.parametrize("scheme", list(CoinScheme))
    @pytest.mark.parametrize(
        "n,graph", [(16, False), (20, False), (128, False), (128, True)],
        ids=["torus-16", "torus-20", "torus-128", "graph-128"],
    )
    def test_recording_run_steps_to_its_halt(self, n, graph, scheme):
        # the AR08 diagonals halt at their doubtful step t = n/2, inside a block at n = 20:
        # a recording run decides each overlap as its step ends, so it takes no step past the
        # halt and none twice
        diagonal = [(i, i) for i in range(n)]
        if graph:
            walk = _graph_walk(torus_graph(n), [x * n + y for x, y in diagonal], scheme)
        else:
            walk = runner._torus_walk(n, MarkedSet(n, diagonal), scheme)
        calls = []

        def advance():
            calls.append(1)
            walk.advance()

        series = runner._drive(walk._replace(advance=advance), n, True, True)
        assert series.halt_step == n // 2 == len(calls) == len(series) - 1

    @pytest.mark.parametrize("record_overlap", [True, False])
    @pytest.mark.parametrize(
        "run",
        [lambda h, record: run_walk(100, centered_block(100, 3, 3), CoinScheme.AKR, h, record),
         lambda h, record: run_walk(20, centered_block(20, 3, 3), CoinScheme.AKR, h, record),
         lambda h, record: run_graph_walk(
             parse_edge_list((DATA / "graph.txt").read_text()),
             parse_vertex_ids((DATA / "graph_marked.txt").read_text()), CoinScheme.GROVER, h, record)],
        ids=["torus-64-rows", "torus-8-rows", "graph"],
    )
    def test_series_is_a_prefix_of_a_longer_run(self, run, record_overlap):
        # a horizon that ends a block early, on its edge or just past it
        whole = run(200, record_overlap)
        for horizon in (1, 63, 64, 65, 129):
            series = run(horizon, record_overlap)
            assert len(series) == horizon + 1
            assert_same_bits(series.probability, whole.probability[: horizon + 1])
            if record_overlap:
                assert_same_bits(series.overlap, whole.overlap[: horizon + 1])
            halted = whole.halt_step is not None and whole.halt_step <= horizon
            assert series.halt_step == (whole.halt_step if halted else None)

    def test_block_rows_stay_within_the_band(self):
        # one row of a fully marked n = 64 torus, 4 n^2 marked amplitudes, already holds more
        # than its quarter band: such a set gets one row, what a step-by-step gather holds
        cases = [
            (MarkedSet(64, [(x, y) for x in range(64) for y in range(64)]), 1),
            (centered_block(100, 2, 2), 64),
            (centered_block(200, 9, 9), 16),
            (MarkedSet(4, [(0, 0)]), 8),
        ]
        for marked, rows in cases:
            walk = runner._torus_walk(marked.n, marked, CoinScheme.GROVER)
            band = _Band.of(marked)
            # a step's row of marked amplitudes, against the band's values
            per_step, held = 4 * len(marked), 4 * band.x.size * band.y.size
            assert len(walk.block) == rows
            assert rows == 1 or rows * per_step <= min(held, runner._BLOCK_VALUES)


class TestDefaultHorizon:
    def test_monotone_and_covers_tabulated_steps(self):
        assert default_horizon(100) >= 800
        assert default_horizon(200) > default_horizon(100)


class TestReproduceTables:
    def test_small_grid_rows_and_ratio(self):
        report = reproduce_tables([50], [3])
        assert not report.truncated
        assert [r.scheme for r in report.rows] == [CoinScheme.AKR, CoinScheme.GROVER]
        akr, grover = report.rows
        assert akr.k == grover.k == 9
        for row in report.rows:
            assert row.runtime == pytest.approx(
                runtime_metric(row.steps, row.probability), abs=1e-9
            )
        (ratio,) = report.ratios
        assert ratio.ratio == pytest.approx(akr.runtime / grover.runtime, abs=1e-12)

    def test_large_n_needs_opt_in(self):
        with pytest.raises(ValueError):
            reproduce_tables([500], [3])

    def test_empty_configs_rejected(self):
        with pytest.raises(ValueError):
            reproduce_tables([], [3])
        with pytest.raises(ValueError):
            reproduce_tables([50], [])
        with pytest.raises(ValueError, match="no coin schemes"):
            reproduce_tables([50], [3], schemes=())

    @pytest.mark.parametrize("n", [0, -3])
    def test_side_below_two_rejected_up_front(self, n):
        # before the horizon's log or the block check sees the size
        with pytest.raises(ValueError, match=rf"^grid side must be at least 2, got {n}$"):
            reproduce_tables([50, n], [1])

    @pytest.mark.parametrize(
        "sides,budget,message",
        [([3, 11], None, "^11x11 block wraps onto itself on a side-10 torus$"),
         # with no time left every cell would be skipped, so nothing but the check can raise
         ([0], 0.0, "^block sides must be positive, got 0x0$")],
        ids=["wraps", "not-positive"],
    )
    def test_block_sides_checked_against_every_size_before_any_cell(self, sides, budget, message, monkeypatch):
        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran before the configuration was checked")

        monkeypatch.setattr(runner, "_drive", no_cell)
        with pytest.raises(ValueError, match=message):
            reproduce_tables([200, 10], sides, time_budget_s=budget)

    @pytest.mark.parametrize("budget", [None, 0.0])
    @pytest.mark.parametrize(
        "horizon,message",
        [(0, "^horizon must be at least 1, got 0$"),
         (-1, "^horizon must be at least 1, got -1$"),
         (10**15, f"^horizon {10**15} needs {8 * (10**15 + 1)} bytes for its series, more than the ")],
        ids=["zero", "negative", "beyond-memory"],
    )
    def test_horizon_checked_before_any_cell(self, horizon, message, budget, monkeypatch):
        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran before the configuration was checked")

        monkeypatch.setattr(runner, "_drive", no_cell)
        with pytest.raises(ValueError, match=message):
            reproduce_tables([10], [1], horizon=horizon, time_budget_s=budget)

    def test_repeated_cells_run_once_in_first_seen_order(self):
        akr, grover = CoinScheme.AKR, CoinScheme.GROVER
        report = reproduce_tables([20, 10, 20], [1, 1], (grover, akr, grover), time_budget_s=0.0)
        assert [m.split(":")[0] for m in report.truncated] == [
            "n=20 k=1 grover", "n=20 k=1 akr", "n=10 k=1 grover", "n=10 k=1 akr",
        ]

    @pytest.mark.parametrize("budget", [math.nan, -1.0, -1e-9])
    def test_nan_or_negative_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="time budget"):
            reproduce_tables([50], [3], time_budget_s=budget)

    def test_zero_budget_truncates_everything(self):
        report = reproduce_tables([50], [3], time_budget_s=0.0)
        assert report.truncated
        assert not report.rows
        assert len(report.truncated) == 2

    def test_budget_stops_a_running_cell(self):
        # the n=300 AKR cell takes about 60 ms to its halt step on a 2-core Xeon, six
        # times the budget: it is stopped inside the walk instead of finishing past
        # the budget, and the second cell is skipped
        report = reproduce_tables([300], [3], time_budget_s=0.01)
        assert not report.rows
        assert len(report.truncated) == 2
        assert all(m.endswith("time budget exceeded") for m in report.truncated)

    def test_budget_marks_the_step_a_cell_stopped_after(self, monkeypatch):
        # reads: the deadline, the check before the first cell, then the first check inside it
        fake_clock(monkeypatch, 2)
        report = reproduce_tables([100], [3], time_budget_s=1.0)
        assert not report.rows
        assert report.truncated == [
            "n=100 k=9 akr: stopped after 64 steps, time budget exceeded",
            "n=100 k=9 grover: skipped, time budget exceeded",
        ]

    def test_deadline_on_the_last_step_leaves_the_cell_complete(self, monkeypatch):
        # the clock would read past the deadline at step 64, but that is the horizon's last step
        fake_clock(monkeypatch, 2)
        report = reproduce_tables([20], [2], (CoinScheme.GROVER,), horizon=64, time_budget_s=1.0)
        assert report.truncated == [
            "n=20 k=4 grover: overlap never crossed zero within 64 steps (exceptional configuration?)"
        ]

    def test_even_block_yields_truncation_marker(self):
        # exceptional configuration: the overlap never crosses zero
        report = reproduce_tables([20], [2], horizon=150)
        grover_markers = [m for m in report.truncated if "grover" in m]
        assert grover_markers

    def test_table_rows_equal_single_runs(self):
        report = reproduce_tables([40], [3, 5])
        assert not report.truncated and len(report.rows) == 4
        for row in report.rows:
            side = math.isqrt(row.k)
            series = run_walk(
                40,
                centered_block(40, side, side),
                row.scheme,
                default_horizon(40),
                stop_at_halt=True,
            )
            assert (row.steps, row.probability) == (
                series.halt_step,
                series.halt_probability,
            )
