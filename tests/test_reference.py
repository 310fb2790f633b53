"""The dense S C Q oracle and the stationarity conditions, written once for both targets.

``grid._dense_scq`` and ``grid._stationarity`` serve the torus and the graph
alike. These tests hold them to a loop-by-loop assembly of each target's
operator and conditions: the oracles must agree to the bit, the condition
tuples exactly, also with one amplitude moved just inside or just outside
the tolerance.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from coinwalk.graph import (
    GenericThreeSpec,
    Graph,
    GraphState,
    build_generic_three,
    build_symmetric_ring,
    build_two_marked,
    graph_check_conditions,
    graph_dense_step_matrix,
    graph_uniform_state,
)
from coinwalk.grid import _DX, _DY, CoinScheme, Direction, GridState, MarkedSet, _shift_into
from coinwalk.grid import dense_step_matrix, uniform_state
from coinwalk.stationary import BlockSpec, StationaryCandidate, build_block_layered, check_conditions

TOL = 1e-12


def loop_torus_oracle(n, scheme, marked):
    """S C Q on the torus, one cell and one direction at a time."""
    dim = 4 * n * n

    def idx(x, y, d):
        return (x * n + y) * 4 + d

    q = np.eye(dim)
    for x, y in sorted(marked.cells):
        for d in range(4):
            q[idx(x, y, d), idx(x, y, d)] = -1.0
    d4 = 0.5 * np.ones((4, 4)) - np.eye(4)
    c = np.zeros((dim, dim))
    for x in range(n):
        for y in range(n):
            block = np.eye(4) if (x, y) in marked and scheme is CoinScheme.AKR else d4
            base = idx(x, y, 0)
            c[base : base + 4, base : base + 4] = block
    s = np.zeros((dim, dim))
    for x in range(n):
        for y in range(n):
            for d in Direction:
                nx, ny = (x + _DX[d]) % n, (y + _DY[d]) % n
                s[idx(nx, ny, d.opposite), idx(x, y, d)] = 1.0
    return s @ c @ q


def loop_graph_oracle(g, marked, scheme):
    """S C Q over a graph's arcs, one vertex and one arc at a time."""
    dim, vs = g.arc_count, set(g.check_marked(marked))
    q = np.eye(dim)
    for v in vs:
        sl = g.arc_slice(v)
        q[sl, sl] = -np.eye(sl.stop - sl.start)
    c = np.zeros((dim, dim))
    for v in range(g.n):
        d, sl = int(g.degrees[v]), g.arc_slice(v)
        if v in vs and scheme is CoinScheme.AKR:
            c[sl, sl] = np.eye(d)
        else:
            c[sl, sl] = (2.0 / d) * np.ones((d, d)) - np.eye(d)
    s = np.zeros((dim, dim))
    for k in range(dim):
        s[g.partner[k], k] = 1.0
    return s @ c @ q


def loop_torus_conditions(amp, marked, tol):
    """The three conditions on a (4, n, n) state, the shift taken from the kernel."""
    unmarked = amp[:, ~marked.mask]
    cond1 = unmarked.size == 0 or bool(np.max(np.abs(unmarked - unmarked.mean())) <= tol)
    cond2 = bool(np.all(np.abs(amp[:, marked.xs, marked.ys].sum(axis=0)) <= tol))
    shifted = np.empty_like(amp)
    _shift_into(amp, shifted)
    return cond1, cond2, bool(np.max(np.abs(shifted - amp)) <= tol)


def loop_graph_conditions(g, amp, marked, tol):
    """The three conditions on an arc state, one marked vertex at a time."""
    vs = g.check_marked(marked)
    unmarked_mask = np.ones(g.arc_count, dtype=bool)
    unmarked_mask[g.marked_arc_indices(vs)] = False
    vals = amp[unmarked_mask]
    cond1 = vals.size == 0 or bool(np.max(np.abs(vals - vals.mean())) <= tol)
    cond2 = all(abs(float(amp[g.arc_slice(v)].sum())) <= tol for v in vs)
    return cond1, cond2, bool(np.max(np.abs(amp - amp[g.partner])) <= tol)


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert_array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def torus_marked_sets(draw, n_max=6):
    """A side n = 2..n_max and an empty, random or full set of marked cells."""
    n = draw(st.integers(2, n_max))
    cells = list(itertools.product(range(n), range(n)))
    chosen = draw(st.one_of(st.just([]), st.just(cells), st.lists(st.sampled_from(cells), max_size=n * n)))
    return n, MarkedSet(n, chosen)


@st.composite
def small_graphs(draw):
    """A hub with pendant spokes, a path through the other vertices and random chords."""
    hub = draw(st.integers(1, 6))
    n = hub + 1 + draw(st.integers(0, 6))
    edges = {(0, v) for v in range(1, hub + 1)}
    edges |= {(v - 1, v) for v in range(hub + 1, n)}
    pairs = [(u, v) for u in range(1, n) for v in range(u + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=8))) if pairs else set()
    return Graph.from_edges(n, sorted(edges))


# a perturbation just inside or just outside the tolerance, of either sign
perturbations = st.tuples(st.sampled_from([0.999, 1.001]), st.sampled_from([-1.0, 1.0])).map(
    lambda fs: fs[0] * fs[1] * TOL
)


class TestOracle:
    @settings(deadline=None, max_examples=60)
    @given(torus_marked_sets(), st.sampled_from(list(CoinScheme)))
    def test_torus_matches_loop_assembly(self, case, scheme):
        n, marked = case
        assert_same_bits(dense_step_matrix(n, scheme, marked), loop_torus_oracle(n, scheme, marked))

    @settings(deadline=None, max_examples=60)
    @given(small_graphs(), st.data(), st.sampled_from(list(CoinScheme)))
    def test_graph_matches_loop_assembly(self, g, data, scheme):
        marked = data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n))
        assert_same_bits(graph_dense_step_matrix(g, marked, scheme), loop_graph_oracle(g, marked, scheme))


class TestConditions:
    @settings(deadline=None, max_examples=80)
    @given(torus_marked_sets(), st.data(), perturbations)
    def test_torus_matches_loop_check(self, case, data, eps):
        n, marked = case
        amp = uniform_state(n).amp
        if n >= 3 and data.draw(st.booleans()):
            # a block state, whose marked sums vanish
            w, h = data.draw(st.sampled_from([(2, 1), (1, 2), (2, 2), (2, 3)]))
            cand = build_block_layered(n, BlockSpec((0, 0), w, h))
            amp, marked = cand.state.amp, cand.marked
        for delta in (0.0, eps):
            moved = amp.copy()
            moved.reshape(-1)[data.draw(st.integers(0, amp.size - 1))] += delta
            got = check_conditions(StationaryCandidate(GridState(n, moved), marked, 1.0), TOL)
            assert got == loop_torus_conditions(moved, marked, TOL)

    @settings(deadline=None, max_examples=80)
    @given(small_graphs(), st.data(), perturbations)
    def test_graph_matches_loop_check(self, g, data, eps):
        marked = data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n))
        amp = graph_uniform_state(g).amp
        for delta in (0.0, eps):
            moved = amp.copy()
            moved[data.draw(st.integers(0, amp.size - 1))] += delta
            got = graph_check_conditions(GraphState(g, moved), marked, TOL)
            assert got == loop_graph_conditions(g, moved, marked, TOL)

    @pytest.mark.parametrize(
        "build", [lambda: build_two_marked(3), lambda: build_generic_three(GenericThreeSpec(1, 2, 3)),
                  lambda: build_symmetric_ring(4, 2), lambda: build_symmetric_ring(5, 3)],
        ids=["two", "three", "ring-even", "ring-odd"],
    )
    def test_witness_perturbations_match_loop_check(self, build):
        g, marked, state = build()
        assert graph_check_conditions(state, marked, TOL) == (True, True, True)
        rng = np.random.default_rng(3)
        for factor in (0.999, 1.001, -0.999, -1.001):
            moved = state.amp.copy()
            moved[rng.integers(moved.size)] += factor * TOL
            got = graph_check_conditions(GraphState(g, moved), marked, TOL)
            assert got == loop_graph_conditions(g, moved, marked, TOL)


class TestSideMismatch:
    @pytest.mark.parametrize("n,side", [(4, 2), (2, 4)])
    def test_oracle_rejects_marked_set_of_another_side(self, n, side):
        with pytest.raises(ValueError, match=f"marked set is on a side-{side} grid, state on {n}"):
            dense_step_matrix(n, CoinScheme.AKR, MarkedSet(side, [(0, 0)]))

    def test_conditions_reject_marked_set_of_another_side(self):
        for n, side in ((4, 2), (2, 4)):
            cand = StationaryCandidate(uniform_state(n), MarkedSet(side, [(1, 1)]), 1.0)
            with pytest.raises(ValueError, match=f"marked set is on a side-{side} grid, state on {n}"):
                check_conditions(cand)
