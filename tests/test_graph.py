import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from coinwalk.graph import (
    GenericThreeSpec,
    Graph,
    GraphState,
    InvalidGraphError,
    build_generic_three,
    build_symmetric_ring,
    build_two_marked,
    decompose_graph_initial,
    graph_check_conditions,
    graph_dense_step_matrix,
    graph_marked_probability,
    graph_overlap,
    graph_step,
    graph_uniform_state,
    parse_edge_list,
    parse_vertex_ids,
    torus_graph,
)
from coinwalk.graph import _JAGGED_DEGREE, _jagged_arcs, _parse_edge_lines, _plain_edge_array
from coinwalk.grid import CoinScheme, Direction, GridState, MarkedSet, step
from coinwalk.grid import OracleTooLargeError
from coinwalk.runner import _graph_walk, run_graph_walk


def triangle():
    return Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])


def random_simple_graph(rng, n_lo=4, n_hi=13, p=0.4):
    n = int(rng.integers(n_lo, n_hi))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    deg = np.zeros(n, dtype=int)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    for v in range(n):
        if deg[v] == 0:
            u = (v + 1) % n
            edges.append((min(u, v), max(u, v)))
            deg[u] += 1
            deg[v] += 1
    return Graph.from_edges(n, edges)


@st.composite
def shuffled_edge_lists(draw):
    """A random simple graph with no isolated vertex, its edges in random order and direction."""
    n = draw(st.integers(2, 12))
    chosen = draw(st.sets(st.sampled_from(list(itertools.combinations(range(n), 2)))))
    covered = {v for edge in chosen for v in edge}
    chosen |= {tuple(sorted((v, (v + 1) % n))) for v in range(n) if v not in covered}
    edges = draw(st.permutations(sorted(chosen)))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return n, [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]


@st.composite
def irregular_graphs(draw):
    """A hub, a path through the rest, random chords and satellites of pinned degree.

    The hub's pendant spokes give degree 1; its own degree is drawn on both
    sides of 130, where numpy's pairwise sum of the 129 terms after the first
    splits its 128-term block. The chords spread the other degrees over
    roughly 2..20. Each satellite joins 8, 9, 16 or 17 random vertices,
    either side of the jagged layout's two cuts: the 8-accumulator block
    from degree 9 and ``reduceat`` above degree 16.
    """
    hub = draw(st.one_of(st.integers(9, 40), st.integers(120, 160)))
    n = hub + 1 + draw(st.integers(11, 50))
    edges = {(0, v) for v in range(1, hub + 1)}
    edges |= {(v - 1, v) for v in range(hub + 1, n)}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.0, 15.0)) / n
    edges |= {(u, v) for u in range(1, n) for v in range(u + 1, n) if rng.random() < density}
    satellites = draw(st.lists(st.sampled_from([8, 9, 16, 17]), max_size=4))
    for w, d in enumerate(satellites, start=n):
        edges |= {(int(u), w) for u in rng.choice(n, d, replace=False)}
    return Graph.from_edges(n + len(satellites), sorted(edges))


@st.composite
def irregular_walks(draw):
    """An irregular graph, a marked set that may hold the hub, a coin and a horizon.

    The walk alternates two kinds of step, so the horizon's parity is drawn
    on its own: an odd horizon ends on a coin-and-gather step, an even one on
    the step that reuses the kept coin output.
    """
    g = draw(irregular_graphs())
    marked = draw(st.lists(st.integers(0, g.n - 1), max_size=6))
    horizon = 2 * draw(st.integers(0, 14)) + draw(st.sampled_from([1, 2]))
    return g, marked, draw(st.sampled_from(list(CoinScheme))), horizon


_ID_TOKENS = st.one_of(
    st.integers(0, 9).map(str),
    st.sampled_from(["007", "+3", "-1", "1_0", "\u0663", "x", "9" * 18, "9223372036854775808"]),
)
_ODD_LINES = st.sampled_from(["", "# c", "0 1 # c", " 0 1", "0 1 ", "0\t1", "0  1", "0 1 2", "3"])


@st.composite
def edge_texts(draw):
    """Edge-list text, mostly plain ``u v`` lines, with odd lines, ids and line ends mixed in."""
    pair = st.tuples(_ID_TOKENS, _ID_TOKENS).map(" ".join)
    lines = draw(st.lists(st.one_of(pair, pair, pair, _ODD_LINES), max_size=12))
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def loop_parse(text):
    """``parse_edge_list`` as it was before the array path: the line loop alone."""
    return Graph.from_edges(*_parse_edge_lines(text))


def parse_outcome(parse, text):
    """The vertex count and arcs a parse gives, or the error it raises.

    Both paths must fail alike, and only with the graph's own error: an id far
    beyond the edge count isolates a vertex, which is reported before numpy
    could overflow a key or run out of memory.
    """
    try:
        g = parse(text)
    except InvalidGraphError as exc:
        return type(exc).__name__, str(exc)
    return g.n, g.tail.tolist(), g.head.tolist()


def brute_force_arcs(n, edges):
    """Arc order, offsets, degrees and reverse arcs from per-vertex neighbor lists."""
    adjacency = [set() for _ in range(n)]
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    arcs = [(i, j) for i in range(n) for j in sorted(adjacency[i])]
    position = {arc: k for k, arc in enumerate(arcs)}
    degrees = [len(nbrs) for nbrs in adjacency]
    offsets = [0, *itertools.accumulate(degrees)]
    return arcs, offsets, degrees, [position[(j, i)] for i, j in arcs]


def residual(g, marked, state, scheme=CoinScheme.GROVER):
    return float(np.max(np.abs(graph_step(state, marked, scheme).amp - state.amp)))


class TestGraphStructure:
    def test_validation(self):
        with pytest.raises(InvalidGraphError):
            Graph.from_edges(3, [(0, 0)])
        with pytest.raises(InvalidGraphError):
            Graph.from_edges(3, [(0, 1), (1, 0)])
        with pytest.raises(InvalidGraphError):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(InvalidGraphError):
            Graph.from_edges(3, [(0, 1)])  # vertex 2 isolated
        empty = np.empty(0, dtype=np.intp)
        with pytest.raises(InvalidGraphError, match="no vertices"):
            Graph(0, empty, empty)

    @pytest.mark.parametrize(
        "edges,message",
        [
            ([(0, 1), (1, 0), (0, 5)], "parallel edge (1, 0)"),
            ([(0, 1), (1, 2), (2, 1), (1, 1)], "parallel edge (2, 1)"),
            ([(0, 1), (2, 2), (1, 0), (0, 5)], "self-loop at vertex 2"),
            ([(0, 5), (1, 1), (0, 1), (1, 0)], "edge (0, 5) out of range for n=3"),
            ([(0, 1), (1, 2), (-1, 2), (2, 2)], "edge (-1, 2) out of range for n=3"),
        ],
    )
    def test_first_bad_edge_in_input_order(self, edges, message):
        with pytest.raises(InvalidGraphError) as err:
            Graph.from_edges(3, edges)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "edges",
        [np.array([[0, 1, 2], [3, 4, 5]]), np.arange(6), [(0, 1, 2), (3, 4, 5)], [(0, 1), (1, 2, 3)]],
        ids=["m-by-3", "flat", "triples", "ragged"],
    )
    def test_edges_not_pairs_rejected(self, edges):
        # the first three hold six ids, which read as pairs would make a valid 3-edge graph
        with pytest.raises(InvalidGraphError, match="vertex pairs"):
            Graph.from_edges(6, edges)

    @pytest.mark.parametrize(
        "edges",
        [[(0.5, 1), (1, 2), (2, 0)], [("0", "1"), ("1", "2"), ("2", "0")], np.array([[0.0, 1], [1, 2], [2, 0]])],
        ids=["float", "string", "float-array"],
    )
    def test_non_integer_ids_rejected(self, edges):
        # each would otherwise be read as the triangle on 0, 1, 2
        with pytest.raises(InvalidGraphError, match="integer vertex pairs"):
            Graph.from_edges(3, edges)

    @pytest.mark.parametrize(
        "edges",
        [
            [(True, 2), (2, 0), (0, 1)],
            [(np.True_, 2), (2, 0), (0, 1)],
            [(0, 1), (1, 2), (2, False)],
            [np.array([True, False]), (1, 2), (2, 0)],
            np.array([[True, False], [False, True]]),
        ],
        ids=["python-bool", "numpy-bool", "last-id", "bool-row", "bool-array"],
    )
    def test_bool_ids_rejected(self, edges):
        # np.asarray reads a bool among integer ids as 0 or 1: the first four would be triangles
        with pytest.raises(InvalidGraphError, match="integer vertex pairs"):
            Graph.from_edges(3, edges)

    @pytest.mark.parametrize("edges", [[(2**63, 1)], [(2**70, 1)], np.array([[2**63, 1]], dtype=np.uint64)])
    def test_id_beyond_index_array_rejected(self, edges):
        with pytest.raises(InvalidGraphError, match="vertex id too large for an index array"):
            Graph.from_edges(3, edges)

    @pytest.mark.parametrize(
        "n,edges,message",
        [
            (3_000_000_001, [(3_000_000_000, 0)], "vertex 1 is isolated; the coin is undefined there"),
            (10**18, [(0, 1), (1, 2), (3, 0)], "vertex 4 is isolated; the coin is undefined there"),
            (2**63 - 1, [(2, 1), (5, 4), (3, 0)], "vertex 6 is isolated; the coin is undefined there"),
            (10**18, [(0, 1), (1, 0), (10**18 - 1, 2)], "parallel edge (1, 0)"),
            (10**18, [(0, 1), (7, 7), (1, 0)], "self-loop at vertex 7"),
            (10**18, [(0, 1), (10**18, 0), (1, 1)], f"edge ({10**18}, 0) out of range for n={10**18}"),
            (5, [], "vertex 0 is isolated; the coin is undefined there"),
        ],
    )
    def test_far_vertex_id_isolates_a_vertex(self, n, edges, message):
        # more vertices than endpoints: no array of length n is made and no key
        # u * n + v is formed, and a bad edge still comes first in input order
        with pytest.raises(InvalidGraphError) as err:
            Graph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
        assert str(err.value) == message

    @settings(deadline=None)
    @given(shuffled_edge_lists())
    def test_matches_brute_force_construction(self, case):
        n, edges = case
        g = Graph.from_edges(n, edges)
        arcs, offsets, degrees, partner = brute_force_arcs(n, edges)
        assert g.arcs == arcs
        assert g.offsets.tolist() == offsets
        assert g.degrees.tolist() == degrees
        assert g.partner.tolist() == partner
        assert [g.arc_index(i, j) for i, j in arcs] == list(range(len(arcs)))

    def test_arc_index_rejects_non_arcs(self):
        g = triangle()
        # ids out of range, also one past int64, raise KeyError and not IndexError
        for i, j in [(0, 0), (0, 5), (-1, 2), (3, 0), (2**64, 0)]:
            with pytest.raises(KeyError):
                g.arc_index(i, j)
        # vertex 0's one head is 2, so the search for head 3 runs past its slice onto arc (1, 3)
        g = Graph.from_edges(4, [(0, 2), (1, 3), (2, 3)])
        assert g.arc_index(1, 3) == 1
        with pytest.raises(KeyError):
            g.arc_index(0, 3)

    def test_partner_is_involution(self):
        g = random_simple_graph(np.random.default_rng(0))
        assert_array_equal(g.partner[g.partner], np.arange(g.arc_count))
        for k, (i, j) in enumerate(g.arcs):
            assert g.arcs[g.partner[k]] == (j, i)

    @settings(deadline=None)
    @given(
        st.one_of(irregular_graphs(), shuffled_edge_lists().map(lambda e: Graph.from_edges(*e)))
    )
    def test_partner_reverses_every_arc(self, g):
        assert_array_equal(g.partner[g.partner], np.arange(g.arc_count))
        assert_array_equal(g.tail[g.partner], g.head)
        assert_array_equal(g.head[g.partner], g.tail)

    def test_arc_count_is_degree_sum(self):
        g = triangle()
        assert g.arc_count == 6 == int(g.degrees.sum())


class TestUniformState:
    def test_triangle_amplitudes(self):
        # 6 arcs, so the unit-norm uniform amplitude is 1/sqrt(6)
        st = graph_uniform_state(triangle())
        assert_allclose(st.amp, 1.0 / math.sqrt(6.0), atol=0)
        assert st.norm() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("scheme", list(CoinScheme))
    def test_no_marked_fixed_point(self, scheme):
        g = random_simple_graph(np.random.default_rng(1))
        st = graph_uniform_state(g)
        out = graph_step(st, [], scheme)
        assert_allclose(out.amp, st.amp, atol=1e-15)


class TestGraphStep:
    def test_degree_four_matches_grid_coin(self):
        # on a torus every vertex has degree 4, so 2s/d - alpha == s/2 - alpha
        rng = np.random.default_rng(2)
        for n in (3, 4, 5):
            tg = torus_graph(n)
            grid_cells = [(1, 2), (0, 0), (n - 1, 1)]
            marked_v = [x * n + y for x, y in grid_cells]
            v = rng.normal(size=(n, n, 4))

            deltas = {
                Direction.UP: (0, -1),
                Direction.DOWN: (0, 1),
                Direction.LEFT: (-1, 0),
                Direction.RIGHT: (1, 0),
            }
            arc_of = {}
            arc_amp = np.empty(tg.arc_count)
            for x in range(n):
                for y in range(n):
                    for d, (dx, dy) in deltas.items():
                        a = tg.arc_index(x * n + y, ((x + dx) % n) * n + (y + dy) % n)
                        arc_of[(x, y, d)] = a
                        arc_amp[a] = v[x, y, d]

            for scheme in CoinScheme:
                out_grid = step(GridState(n, v.copy()), scheme, MarkedSet(n, grid_cells)).amp
                out_graph = graph_step(GraphState(tg, arc_amp.copy()), marked_v, scheme).amp
                diff = max(
                    abs(out_grid[x, y, d] - out_graph[arc_of[(x, y, d)]])
                    for x in range(n)
                    for y in range(n)
                    for d in Direction
                )
                assert diff <= 1e-12

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_simple_graph(rng)
            marked = [int(v) for v in rng.choice(g.n, size=int(rng.integers(0, g.n // 2 + 1)), replace=False)]
            scheme = CoinScheme.AKR if rng.integers(2) else CoinScheme.GROVER
            v = rng.normal(size=g.arc_count)
            v /= np.linalg.norm(v)
            m = graph_dense_step_matrix(g, marked, scheme)
            got = graph_step(GraphState(g, v.copy()), marked, scheme).amp
            assert_allclose(got, m @ v, atol=1e-12)

    def test_norm_preserved_over_1000_steps(self):
        rng = np.random.default_rng(4)
        g = random_simple_graph(rng, n_lo=30, n_hi=51, p=0.12)
        marked = [0, 3, 7]
        st = graph_uniform_state(g)
        for _ in range(1000):
            st = graph_step(st, marked, CoinScheme.GROVER)
            assert abs(st.norm() - 1.0) <= 1e-12


class TestDegreeBuckets:
    """The jagged arc layout ``run_graph_walk`` holds its state in."""

    @settings(deadline=None, max_examples=200)
    @given(irregular_graphs(), st.integers(0, 2**32 - 1))
    def test_sums_match_reduceat_bit_for_bit(self, g, seed):
        # the row sums copy numpy's pairwise add order; do not loosen to a tolerance
        rng = np.random.default_rng(seed)
        amp = rng.standard_normal(g.arc_count) * 10.0 ** rng.integers(-8, 9, g.arc_count)
        amp[rng.random(g.arc_count) < rng.choice([0.0, 0.2, 0.9])] = -0.0
        order, arcs, bind = _jagged_arcs(g)
        degrees = g.degrees.tolist()
        jagged = [v for v in range(g.n) if degrees[v] <= _JAGGED_DEGREE]
        jagged.sort(key=lambda v: -degrees[v])
        rest = [v for v in range(g.n) if degrees[v] > _JAGGED_DEGREE]
        assert order.tolist() == jagged + rest
        # row j holds the j-th arc of every vertex of degree above j; the rest row-major
        want_arcs = [g.offsets[v] + j for j in range(_JAGGED_DEGREE) for v in jagged if degrees[v] > j]
        want_arcs += [k for v in rest for k in range(g.offsets[v], g.offsets[v + 1])]
        assert arcs.tolist() == want_arcs
        layout, s, c, mean2 = amp[arcs], np.empty(g.n), np.empty(g.arc_count), np.empty(g.n)
        sums, spread = bind(layout, s, c, mean2)
        sums()
        want = np.add.reduceat(amp, g.offsets[:-1])[order]
        assert_array_equal(s.view(np.int64), want.view(np.int64))
        # spread() reads the bound mean2 as it is at each call, so refill it in place
        for _ in range(2):
            values = rng.standard_normal(g.n)
            mean2[...] = values[order]
            spread()
            want = (np.repeat(values, g.degrees) - amp)[arcs]
            assert_array_equal(c.view(np.int64), want.view(np.int64))

    @settings(deadline=None, max_examples=100)
    @given(irregular_walks())
    def test_walk_matches_step_arcs_bit_for_bit(self, walk):
        g, marked, scheme, horizon = walk
        series = run_graph_walk(g, marked, scheme, horizon)
        target = _graph_walk(g, marked, scheme)
        order, arcs = _jagged_arcs(g)[:2]
        vs = np.array(g.check_marked(marked), dtype=np.intp)
        state = graph_uniform_state(g)
        for t in range(horizon + 1):
            if t:
                target.advance()
                # the marked sum and the total read the vertex sums of the state before the
                # step, in the layout's vertex order
                sums = np.add.reduceat(state.amp, g.offsets[:-1])
                marked_sum = float(sums[vs].sum())
                assert target.marked_sum() == marked_sum
                assert target.total() == float(sums[order].sum()) - 2.0 * marked_sum
                state = graph_step(state, marked, scheme)
            # every step, odd or even, writes the whole state in the layout
            assert_array_equal(target.start.view(np.int64), state.amp[arcs].view(np.int64))
            assert series.probability[t] == graph_marked_probability(state, marked)

    @settings(deadline=None, max_examples=100)
    @given(irregular_walks())
    def test_overlap_from_vertex_sums(self, walk):
        # within 1e-15 of an exact sum, and the exact sum's halt step
        g, marked, scheme, horizon = walk
        series = run_graph_walk(g, marked, scheme, horizon)
        state = graph_uniform_state(g)
        a0 = state.amp[0]
        exact = np.empty(horizon + 1)
        for t in range(horizon + 1):
            exact[t] = a0 * math.fsum(state.amp)
            state = graph_step(state, marked, scheme)
        assert_allclose(series.overlap, exact, rtol=0, atol=1e-15)
        crossed = np.flatnonzero(exact <= 0.0)
        assert series.halt_step == (int(crossed[0]) if crossed.size else None)


class TestDenseOracle:
    def test_path_graph_two_vertices(self):
        g = Graph.from_edges(2, [(0, 1)])
        m = graph_dense_step_matrix(g, [], CoinScheme.GROVER)
        assert m.shape == (2, 2)
        assert_allclose(m.T @ m, np.eye(2), atol=1e-14)

    def test_triangle_uniform_fixed(self):
        g = triangle()
        st = graph_uniform_state(g)
        m = graph_dense_step_matrix(g, [], CoinScheme.AKR)
        assert_allclose(m @ st.amp, st.amp, atol=1e-14)

    def test_cap_enforced(self):
        g = torus_graph(12)  # 576 arcs
        with pytest.raises(OracleTooLargeError):
            graph_dense_step_matrix(g, [], CoinScheme.GROVER)
        graph_dense_step_matrix(g, [], CoinScheme.GROVER, cap=600)


class TestTwoMarked:
    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="positive integer, got 0"):
            build_two_marked(0)

    def test_k1_zero_sum(self):
        g, marked, st = build_two_marked(1)
        for v in marked:
            assert float(st.amp[g.arc_slice(v)].sum()) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_stationary(self, k):
        g, marked, st = build_two_marked(k)
        assert residual(g, marked, st) <= 1e-12
        assert graph_check_conditions(st, marked) == (True, True, True)
        m = graph_dense_step_matrix(g, marked, CoinScheme.GROVER)
        assert_allclose(m @ st.amp, st.amp, atol=1e-12)

    def test_marked_arcs_carry_minus_k_a(self):
        k = 3
        g, (i, j), st = build_two_marked(k)
        a = 1.0 / math.sqrt(g.arc_count)
        assert st.amp[g.arc_index(i, j)] == pytest.approx(-k * a)
        assert st.amp[g.arc_index(j, i)] == pytest.approx(-k * a)

    def test_perturbed_marked_pair_fails_zero_sum_only(self):
        # both arcs between the marked vertices move together: still symmetric,
        # still uniform off the marked set, but neither marked sum is zero
        g, (i, j), st = build_two_marked(2)
        st.amp[[g.arc_index(i, j), g.arc_index(j, i)]] += 1e-6
        assert graph_check_conditions(st, (i, j)) == (True, False, True)

    def test_decomposition_needs_a_nonzero_free_arc(self):
        g, marked, st = build_two_marked(1)
        with pytest.raises(ValueError, match="baseline is zero"):
            decompose_graph_initial(GraphState(g, np.zeros(g.arc_count)), marked)
        with pytest.raises(ValueError, match="no arc with an unmarked endpoint"):
            decompose_graph_initial(st, range(g.n))

    def test_decomposition_lives_on_the_marked_arc_pair(self):
        k = 4
        g, (i, j), st = build_two_marked(k)
        dec = decompose_graph_initial(st, (i, j))
        a = 1.0 / math.sqrt(g.arc_count)
        expected = np.zeros(g.arc_count)
        expected[g.arc_index(i, j)] = (k + 1) * a
        expected[g.arc_index(j, i)] = (k + 1) * a
        assert_allclose(dec.delta.amp, expected, atol=1e-15)
        assert dec.delta_norm_sq == pytest.approx(2 * ((k + 1) * a) ** 2, rel=1e-12)


class TestGenericThree:
    def test_worked_example_counts(self):
        spec = GenericThreeSpec(1, 2, 3)
        assert (spec.m1, spec.m2, spec.m3) == (4, 3, 5)

    def test_eq1_consistency_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            l12, l23, l31 = (int(v) for v in rng.integers(1, 9, 3))
            spec = GenericThreeSpec(l12, l23, l31)
            assert spec.m1 == l12 + l31
            assert spec.m2 == l12 + l23
            assert spec.m3 == l23 + l31

    def test_stationary_and_symmetric(self):
        g, marked, st = build_generic_three(GenericThreeSpec(1, 2, 3))
        assert residual(g, marked, st) <= 1e-12
        assert graph_check_conditions(st, marked) == (True, True, True)
        assert_allclose(st.amp, st.amp[g.partner], atol=0)
        # marked vertex p has m_p private neighbors on top of its 2 marked ones
        assert int(g.degrees[0]) == 2 + 4
        assert int(g.degrees[1]) == 2 + 3
        assert int(g.degrees[2]) == 2 + 5

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            GenericThreeSpec(0, 1, 1)


class TestSymmetricRing:
    def test_r2_is_two_marked(self):
        g1, m1, s1 = build_symmetric_ring(2, 3)
        g2, m2, s2 = build_two_marked(3)
        assert g1.arcs == g2.arcs and m1 == m2
        assert_array_equal(s1.amp, s2.amp)

    def test_r3_k2_equals_generic_111(self):
        g1, m1, s1 = build_symmetric_ring(3, 2)
        g2, m2, s2 = build_generic_three(GenericThreeSpec(1, 1, 1))
        assert g1.arcs == g2.arcs and m1 == m2
        assert_array_equal(s1.amp, s2.amp)

    @pytest.mark.parametrize("r,k", [(2, 1), (3, 2), (3, 3), (4, 2), (4, 3), (5, 4)])
    def test_stationary(self, r, k):
        g, marked, st = build_symmetric_ring(r, k)
        assert residual(g, marked, st) <= 1e-12
        assert graph_check_conditions(st, marked) == (True, True, True)

    def test_odd_k_integral_scaling(self):
        g, marked, st = build_symmetric_ring(3, 3)
        a = 1.0 / math.sqrt(g.arc_count)
        assert st.amp[g.arc_index(0, 1)] == pytest.approx(-3 * a)
        private = int(g.head[g.arc_slice(0)][-1])  # highest-numbered neighbor is private
        assert st.amp[g.arc_index(0, private)] == pytest.approx(2 * a)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_symmetric_ring(1, 2)
        with pytest.raises(ValueError):
            build_symmetric_ring(3, 0)


class TestSearchFailure:
    # On the minimal witnesses the marked pair is a constant fraction of the
    # graph, so the moving part is large and the bound is weak (often
    # vacuous); it must still hold.
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: build_two_marked(2),
            lambda: build_symmetric_ring(4, 2),
            lambda: build_generic_three(GenericThreeSpec(1, 2, 3)),
        ],
    )
    def test_overlap_never_leaves_delta_ball(self, builder):
        g, marked, st = builder()
        dec = decompose_graph_initial(st, marked)
        series = run_graph_walk(g, marked, CoinScheme.GROVER, 10_000)
        assert series.overlap.min() >= 1.0 - 2.0 * dec.delta_norm_sq - 1e-9

    def test_embedded_witness_really_fails_search(self):
        # two adjacent marked vertices with k = 2 privates, the unmarked side
        # stretched into a long cycle: the moving part is now a small
        # fraction of psi0 and the overlap stays pinned near 1
        k = 2
        extras = 200
        privates = [2, 3, 4, 5]
        ring = privates + list(range(6, 6 + extras))
        edges = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]
        edges += [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]
        g = Graph.from_edges(6 + extras, edges)

        a = 1.0 / math.sqrt(g.arc_count)
        amp = np.full(g.arc_count, a)
        amp[g.arc_index(0, 1)] = -k * a
        amp[g.arc_index(1, 0)] = -k * a
        st = GraphState(g, amp)
        marked = (0, 1)
        assert graph_check_conditions(st, marked) == (True, True, True)
        assert residual(g, marked, st) <= 1e-12

        dec = decompose_graph_initial(st, marked)
        bound = 1.0 - 2.0 * dec.delta_norm_sq
        assert bound > 0.9
        series = run_graph_walk(g, marked, CoinScheme.GROVER, 10_000)
        assert series.overlap.min() >= bound
        assert series.halt_step is None


class TestObservables:
    def test_marked_probability(self):
        g = triangle()
        st = graph_uniform_state(g)
        # vertex 0 carries two arcs of squared amplitude 1/18 each
        assert graph_marked_probability(st, [0]) == pytest.approx(2.0 / 6.0, rel=1e-12)
        assert graph_marked_probability(st, []) == 0.0

    def test_overlap(self):
        g = triangle()
        st = graph_uniform_state(g)
        assert graph_overlap(st, st) == pytest.approx(1.0, abs=1e-15)

    def test_overlap_across_graphs_rejected(self):
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="different graphs"):
            graph_overlap(graph_uniform_state(triangle()), graph_uniform_state(path))


class TestParsing:
    def test_edge_list_with_comments(self):
        g = parse_edge_list("# triangle\n0 1\n1 2 # back edge\n2 0\n\n")
        assert g.n == 3 and g.arc_count == 6

    def test_edge_list_errors(self):
        with pytest.raises(InvalidGraphError):
            parse_edge_list("0 1 2\n")
        with pytest.raises(InvalidGraphError):
            parse_edge_list("a b\n")
        with pytest.raises(InvalidGraphError):
            parse_edge_list("")
        with pytest.raises(InvalidGraphError):
            parse_edge_list("-1 0\n")

    @pytest.mark.parametrize(
        "text",
        [
            "# triangle\n0 1\n1 2\n2 0\n",
            "0 1\r\n1 2\r\n2 0\r\n",
            "+2 0\n0 1\n1 2\n",
            "1_0 0\n",
            "\u0660 \u0661\n\u0661 \u0662\n\u0662 \u0660\n",
            "0 1 2\n",
            "",
            "9223372036854775808 0\n",
            "0 1\n\n1 2\n2 0\n",
            "0  1\n1 2\n2 0",
        ],
        ids=["comment", "crlf", "plus", "underscore", "unicode", "three", "empty", "int64", "blank", "spaces"],
    )
    def test_fallback_cases_take_the_line_loop(self, text):
        assert _plain_edge_array(text) is None
        assert parse_outcome(parse_edge_list, text) == parse_outcome(loop_parse, text)

    def test_plain_text_takes_the_array_path(self):
        text = "0 1\n1 2\n2 0\n000 3\n3 1"
        assert_array_equal(_plain_edge_array(text), [[0, 1], [1, 2], [2, 0], [0, 3], [3, 1]])
        assert parse_outcome(parse_edge_list, text) == parse_outcome(loop_parse, text)

    @settings(deadline=None, max_examples=300)
    @given(edge_texts())
    # 18-digit ids are the longest the array path takes; a float parse would round them
    @example("999999999999999999 0\n123456789012345678 999999999999999998\n")
    @example("0 1\n1 2\n2 0\n000 123456789012345678")
    def test_array_path_accepts_only_what_the_loop_accepts(self, text):
        fast = _plain_edge_array(text)
        if fast is not None:
            n, edges = _parse_edge_lines(text)
            assert n == int(fast.max()) + 1
            assert_array_equal(fast, np.array(edges, dtype=np.int64).reshape(-1, 2))
        assert parse_outcome(parse_edge_list, text) == parse_outcome(loop_parse, text)

    def test_vertex_ids(self):
        assert parse_vertex_ids("0\n# note\n2\n\n5\n") == [0, 2, 5]
        with pytest.raises(ValueError):
            parse_vertex_ids("x\n")

    def test_torus_graph_requires_n3(self):
        with pytest.raises(InvalidGraphError):
            torus_graph(2)
