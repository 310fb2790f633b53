import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from coinwalk.graph import (
    Graph,
    graph_step,
    graph_uniform_state,
    parse_edge_list,
    parse_vertex_ids,
    torus_graph,
)
from coinwalk.grid import CoinScheme, MarkedSet, _coin_into, marked_probability, step, uniform_state
from coinwalk.runner import (
    _OVERLAP_BOUND,
    RunSeries,
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
        series = run_walk(20, MarkedSet.empty(20), CoinScheme.GROVER, 50)
        assert_array_equal(series.probability, np.zeros(51))
        assert_array_equal(series.overlap, np.ones(51))
        assert series.halt_step is None
        assert series.peak_step == 0

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
        # except within the bound, where they are exact sums; the exact sum's halt step
        n, marked, scheme, horizon = walk
        series = run_walk(n, marked, scheme, horizon)
        state = uniform_state(n)
        a0 = state.amp[0, 0, 0]
        prob, exact, direct = np.empty(horizon + 1), np.empty(horizon + 1), np.empty(horizon + 1)
        halves = np.empty(horizon + 1)
        h = np.empty((n, n))
        for t in range(horizon + 1):
            prob[t] = marked_probability(state, marked)
            exact[t] = a0 * math.fsum(state.amp.ravel())
            direct[t] = a0 * float(state.amp.sum())
            _coin_into(state.amp.copy(), scheme, marked, h)
            halves[t] = a0 * (2.0 * (h.sum() - 2.0 * h[marked.xs, marked.ys].sum()))
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
            run_walk(10, MarkedSet.empty(10), CoinScheme.AKR, 0)

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


class TestDefaultHorizon:
    def test_monotone_and_covers_tabulated_steps(self):
        assert default_horizon(100) >= 800
        assert default_horizon(200) > default_horizon(100)


class TestReproduceTables:
    def test_small_grid_rows_and_ratio(self):
        report = reproduce_tables([50], [3])
        assert report.complete
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

    @pytest.mark.parametrize("n", [0, -3])
    def test_side_below_two_rejected_up_front(self, n):
        # before the horizon's log or the block check sees the size
        with pytest.raises(ValueError, match=rf"^grid side must be at least 2, got {n}$"):
            reproduce_tables([50, n], [1])

    @pytest.mark.parametrize("budget", [math.nan, -1.0, -1e-9])
    def test_nan_or_negative_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="time budget"):
            reproduce_tables([50], [3], time_budget_s=budget)

    def test_zero_budget_truncates_everything(self):
        report = reproduce_tables([50], [3], time_budget_s=0.0)
        assert not report.complete
        assert not report.rows
        assert len(report.truncated) == 2

    def test_budget_stops_a_running_cell(self):
        # an n=300 cell runs for about a second: the first is stopped inside the
        # walk instead of finishing past the budget, the second is skipped
        report = reproduce_tables([300], [3], time_budget_s=0.05)
        assert not report.rows
        assert len(report.truncated) == 2
        assert all(m.endswith("time budget exceeded") for m in report.truncated)

    def test_even_block_yields_truncation_marker(self):
        # exceptional configuration: the overlap never crosses zero
        report = reproduce_tables([20], [2], horizon=150)
        grover_markers = [m for m in report.truncated if "grover" in m]
        assert grover_markers

    def test_table_rows_equal_single_runs(self):
        report = reproduce_tables([40], [3, 5])
        assert report.complete and len(report.rows) == 4
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
