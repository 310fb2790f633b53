"""The dense S C Q oracle, the stationarity conditions and the reference step, written once for both targets.

``grid._dense_scq``, ``grid._stationarity`` and ``grid._located_step`` serve
the torus and the graph alike. These tests hold them to a loop-by-loop
assembly of each target's operator, conditions and step: the oracles and the
steps must agree to the bit, the condition tuples exactly, also with one
amplitude moved just inside or just outside the tolerance.

The torus walk's mirror band reads its weights and seams off one map,
``grid._Fold.fold``; these tests also hold them to the axis lines derived by
hand, for every fold of every side up to 60.
"""

import itertools

import numpy as np
import pytest
from conftest import assert_same_bits
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk.graph import (
    GenericThreeSpec,
    Graph,
    GraphState,
    build_generic_three,
    build_symmetric_ring,
    build_two_marked,
    graph_check_conditions,
    graph_dense_step_matrix,
    graph_step,
    graph_uniform_state,
)
from coinwalk.grid import _DX, _DY, CoinScheme, Direction, GridState, MarkedSet, _Fold
from coinwalk.grid import dense_step_matrix, step, uniform_state
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


def loop_torus_shift(amp):
    """The flip-flop shift of an (n, n, 4) state, one cell and one direction at a time."""
    n = amp.shape[0]
    shifted = np.empty_like(amp)
    for x in range(n):
        for y in range(n):
            for d in Direction:
                shifted[(x + _DX[d]) % n, (y + _DY[d]) % n, d.opposite] = amp[x, y, d]
    return shifted


def loop_torus_conditions(amp, marked, tol):
    """The three conditions on an (n, n, 4) state, one cell at a time for the shift."""
    unmarked = amp[~marked.mask]
    cond1 = unmarked.size == 0 or bool(np.max(np.abs(unmarked - unmarked.mean())) <= tol)
    cond2 = bool(np.all(np.abs(amp[marked.xs, marked.ys].sum(axis=1)) <= tol))
    return cond1, cond2, bool(np.max(np.abs(loop_torus_shift(amp) - amp)) <= tol)


def loop_coin(alpha, mean2, marked, scheme):
    """One amplitude's coin output, the query folded in; ``mean2`` is 2 s / d of its location."""
    if not marked:
        return mean2 - alpha
    return -alpha if scheme is CoinScheme.AKR else -(mean2 - alpha)


def loop_torus_step(amp, marked, scheme):
    """S C Q on an (n, n, 4) state, one cell at a time, its sum added ``(u + d) + (l + r)``."""
    n = amp.shape[0]
    coined = np.empty_like(amp)
    for x in range(n):
        for y in range(n):
            u, d, l, r = (float(a) for a in amp[x, y])
            mean2 = ((u + d) + (l + r)) * 2.0 / 4
            for k in Direction:
                coined[x, y, k] = loop_coin(float(amp[x, y, k]), mean2, (x, y) in marked, scheme)
    return loop_torus_shift(coined)


def pairwise_sum(terms):
    """numpy's pairwise sum of ``terms`` as ``graph._JAGGED_DEGREE``'s comment documents it, below 16 terms.

    Fewer than 8 terms one by one; 8 to 15 as ((t0 + t1) + (t2 + t3)) +
    ((t4 + t5) + (t6 + t7)), then the rest one by one.
    """
    assert len(terms) < 16
    if len(terms) < 8:
        total = terms[0]
        for t in terms[1:]:
            total += t
        return total
    t = terms
    total = ((t[0] + t[1]) + (t[2] + t[3])) + ((t[4] + t[5]) + (t[6] + t[7]))
    for rest in t[8:]:
        total += rest
    return total


def loop_graph_step(g, amp, marked, scheme):
    """S C Q over a graph's arcs, one vertex at a time, its sum c0 + p(c1 .. c_{d-1}) as ``reduceat`` adds."""
    vs = set(g.check_marked(marked))
    out = np.empty_like(amp)
    for v in range(g.n):
        sl = g.arc_slice(v)
        arcs = [float(a) for a in amp[sl]]
        s = arcs[0] if len(arcs) == 1 else arcs[0] + pairwise_sum(arcs[1:])
        mean2 = s * 2.0 / len(arcs)
        for k, alpha in zip(range(sl.start, sl.stop), arcs):
            out[g.partner[k]] = loop_coin(alpha, mean2, v in vs, scheme)
    return out


def loop_graph_conditions(g, amp, marked, tol):
    """The three conditions on an arc state, one marked vertex at a time."""
    vs = g.check_marked(marked)
    unmarked_mask = np.ones(g.arc_count, dtype=bool)
    unmarked_mask[g.marked_arc_indices(vs)] = False
    vals = amp[unmarked_mask]
    cond1 = vals.size == 0 or bool(np.max(np.abs(vals - vals.mean())) <= tol)
    cond2 = all(abs(float(amp[g.arc_slice(v)].sum())) <= tol for v in vs)
    return cond1, cond2, bool(np.max(np.abs(amp - amp[g.partner])) <= tol)


def hand_axis(fold):
    """The fold's site-axis lines: the lines j with 2 (start + j) = c (mod n), none on the whole axis."""
    if fold.c is None:
        return []
    return [j for j in range(fold.size) if (2 * (fold.start + j) - fold.c) % fold.n == 0]


def hand_weights(fold):
    """2 torus lines for each line off the mirror's axes, 1 on them and on the whole axis."""
    weights = np.full(fold.size, 1.0 if fold.c is None else 2.0)
    weights[hand_axis(fold)] = 1.0
    return weights


def hand_seams(fold, before, after, half):
    """Lines -1 and ``size``: the torus wraps them to ``size - 1`` and 0; the mirror swaps the
    planes and reads them at ``near`` and ``far``, the first and last lines off the axes."""
    if fold.c is None:
        return before[fold.size - 1], half[fold.size - 1], after[0], half[0]
    off = [j for j in range(fold.size) if j not in hand_axis(fold)]
    near, far = off[0], off[-1]
    return after[near], half[near], before[far], half[far]


def view(a):
    """What makes two arrays the same view: data pointer, shape and strides."""
    return a.__array_interface__["data"][0], a.shape, a.strides


def every_fold(sides):
    """Each side's fold of every mirror axis, and its whole axis."""
    for n in sides:
        yield _Fold(n, 0, n, None)
        yield from (_Fold.of(n, c) for c in range(n))


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


# a random state, or small integers, whose exact ties put a marked amplitude at 2 s / d and a
# coin output at zero
states = st.tuples(st.integers(0, 2**32 - 1), st.booleans())


def draw_amp(shape, seed, integers):
    rng = np.random.default_rng(seed)
    return rng.integers(-2, 3, shape).astype(float) if integers else rng.standard_normal(shape)


class TestStep:
    @settings(deadline=None, max_examples=80)
    @given(torus_marked_sets(), states, st.sampled_from(list(CoinScheme)))
    def test_torus_matches_loop_step(self, case, state, scheme):
        n, marked = case
        amp = draw_amp((n, n, 4), *state)
        got = step(GridState(n, amp.copy()), scheme, marked).amp
        assert_same_bits(got, loop_torus_step(amp, marked, scheme))

    @settings(deadline=None, max_examples=80)
    @given(small_graphs(), st.data(), states, st.sampled_from(list(CoinScheme)))
    def test_graph_matches_loop_step(self, g, data, state, scheme):
        marked = data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n))
        amp = draw_amp(g.arc_count, *state)
        got = graph_step(GraphState(g, amp.copy()), marked, scheme).amp
        assert_same_bits(got, loop_graph_step(g, amp, marked, scheme))

    @pytest.mark.parametrize("scheme", list(CoinScheme))
    def test_hub_above_degree_eight_matches_loop_step(self, scheme):
        # a hub of degree 12, whose sum takes numpy's block of eight accumulators
        g = Graph.from_edges(13, [(0, v) for v in range(1, 13)])
        for seed, marked in enumerate(([], [0], [0, 3])):
            amp = draw_amp(g.arc_count, seed, False)
            got = graph_step(GraphState(g, amp.copy()), marked, scheme).amp
            assert_same_bits(got, loop_graph_step(g, amp, marked, scheme))


class TestFold:
    def test_weights_match_hand_axis(self):
        for fold in every_fold(range(2, 61)):
            assert_same_bits(fold.weights, hand_weights(fold))

    @pytest.mark.parametrize("transpose", [False, True], ids=["rows", "columns"])
    def test_seams_match_hand_axis(self, transpose):
        # the same views of the same planes: data pointer, shape and strides
        for fold in every_fold(range(2, 61)):
            planes = [np.empty((3, fold.size)).T if transpose else np.empty((fold.size, 3)) for _ in range(3)]
            got, want = fold.seams(*planes), hand_seams(fold, *planes)
            assert [view(v) for v in got] == [view(v) for v in want]


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
