"""Acceptance gate: one test per criterion, each printed in the run summary.

Step counts and probabilities are measured by the halt rule (first step at
which the overlap with the start state becomes non-positive); the argmax
peak demonstrably does not reproduce the benchmark values.
"""

import numpy as np
import pytest
from conftest import planes, record_criterion
from numpy.testing import assert_array_equal

from coinwalk.graph import (
    GenericThreeSpec,
    Graph,
    GraphState,
    build_generic_three,
    build_symmetric_ring,
    build_two_marked,
    graph_dense_step_matrix,
    graph_step,
    torus_graph,
)
from coinwalk.grid import (
    CoinScheme,
    GridState,
    MarkedSet,
    dense_step_matrix,
    step,
    uniform_state,
)
from coinwalk.grid import _Band, _Fold, _frame_coins
from coinwalk.runner import (
    centered_block,
    default_horizon,
    reproduce_tables,
    run_graph_walk,
    run_walk,
    runtime_metric,
)
from coinwalk.stationary import (
    BlockSpec,
    OddOddBlockError,
    build_block_layered,
    build_block_tiling,
    decompose_initial,
)

GROVER = CoinScheme.GROVER
AKR = CoinScheme.AKR


def block_residual(candidate):
    after = step(candidate.state, GROVER, candidate.marked)
    return float(np.max(np.abs(after.amp - candidate.state.amp)))


def canonical_tiling(block: BlockSpec):
    """Dominoes laid along the even side of the block."""
    ox, oy = block.origin
    m, l = block.width, block.height
    if m % 2 == 0:
        return [((ox + i, oy + j), True) for i in range(0, m, 2) for j in range(l)]
    return [((ox + i, oy + j), False) for i in range(m) for j in range(0, l, 2)]


class TestCriterion1:
    def test_table1_n100(self):
        marked = centered_block(100, 3, 3)
        akr = run_walk(100, marked, AKR, 250, stop_at_halt=True)
        grover = run_walk(100, marked, GROVER, 400, stop_at_halt=True)
        akr_rt = runtime_metric(akr.halt_step, akr.halt_probability)
        grover_rt = runtime_metric(grover.halt_step, grover.halt_probability)

        ok = (
            abs(akr.halt_step - 156) <= 2
            and abs(akr.halt_probability - 0.086454) <= 1e-3
            and abs(grover.halt_step - 318) <= 2
            and abs(grover.halt_probability - 0.556187) <= 1e-3
            and abs(akr_rt / 531 - 1) <= 0.01
            and abs(grover_rt / 427 - 1) <= 0.01
        )
        record_criterion(
            1,
            "benchmark row n=100, 3x3 block (steps, probabilities, runtimes)",
            ok,
            f"akr=({akr.halt_step}, {akr.halt_probability:.6f}) "
            f"grover=({grover.halt_step}, {grover.halt_probability:.6f})",
        )
        assert abs(akr.halt_step - 156) <= 2
        assert akr.halt_probability == pytest.approx(0.086454, abs=1e-3)
        assert abs(grover.halt_step - 318) <= 2
        assert grover.halt_probability == pytest.approx(0.556187, abs=1e-3)
        assert akr_rt == pytest.approx(531, rel=0.01)
        assert grover_rt == pytest.approx(427, rel=0.01)


class TestCriterion2:
    def test_table1_n200(self):
        marked = centered_block(200, 3, 3)
        akr = run_walk(200, marked, AKR, 500, stop_at_halt=True)
        grover = run_walk(200, marked, GROVER, 800, stop_at_halt=True)
        ok = (
            abs(akr.halt_step - 345) <= 3
            and abs(akr.halt_probability - 0.066591) <= 1e-3
            and abs(grover.halt_step - 653) <= 3
            and abs(grover.halt_probability - 0.527665) <= 1e-3
        )
        record_criterion(
            2,
            "benchmark row n=200, 3x3 block",
            ok,
            f"akr=({akr.halt_step}, {akr.halt_probability:.6f}) "
            f"grover=({grover.halt_step}, {grover.halt_probability:.6f})",
        )
        assert abs(akr.halt_step - 345) <= 3
        assert akr.halt_probability == pytest.approx(0.066591, abs=1e-3)
        assert abs(grover.halt_step - 653) <= 3
        assert grover.halt_probability == pytest.approx(0.527665, abs=1e-3)


class TestCriterion3:
    def test_runtime_ratios_at_n100(self):
        expected = {9: 1.2436, 25: 1.0165, 49: 0.7710, 81: 0.6246}
        report = reproduce_tables([100], [3, 5, 7, 9])
        assert not report.truncated
        got = {r.k: r.ratio for r in report.ratios}
        ok = all(abs(got[k] / expected[k] - 1) <= 0.01 for k in expected)
        record_criterion(
            3,
            "AKR/Grover runtime ratios at n=100 for k=9,25,49,81",
            ok,
            " ".join(f"k={k}:{got[k]:.4f}" for k in sorted(got)),
        )
        for k, want in expected.items():
            assert got[k] == pytest.approx(want, rel=0.01), f"k={k}"

    def test_table_n100_through_the_graph_kernel(self):
        check_table_through_the_graph_kernel(100, 3.5)

    def test_table_n200_through_the_graph_kernel(self):
        check_table_through_the_graph_kernel(200, 3.6)


def check_table_through_the_graph_kernel(n, criterion):
    """The 8 table cells of side n on a second kernel: the graph walk on the torus graph.

    The graph has no mirror band and no frames and sums each cell in its own
    order; both kernels decide the halt from the certified running overlap.
    They must halt at the same steps. Over the 16 cells at n=100 and 200 the
    halt probabilities were measured 2.4e-15 apart at most; the margin is 4x that.
    """
    margin = 1e-14
    g, horizon = torus_graph(n), default_horizon(n)
    halts, worst = [], 0.0
    for side in (3, 5, 7, 9):
        marked = centered_block(n, side, side)
        for scheme in (AKR, GROVER):
            band = run_walk(n, marked, scheme, horizon, record_overlap=False, stop_at_halt=True)
            graph = run_graph_walk(
                g, [x * n + y for x, y in marked], scheme, horizon, record_overlap=False, stop_at_halt=True
            )
            halts.append((band.halt_step, graph.halt_step))
            worst = max(worst, abs(graph.halt_probability - band.halt_probability))
    ok = all(b is not None and b == h for b, h in halts) and worst <= margin
    record_criterion(
        criterion,
        f"the n={n} table cells halt at the same steps on the graph kernel",
        ok,
        f"{len(halts)} cells, max |dp| {worst:.1e}",
    )
    assert all(b is not None for b, _ in halts)
    assert [b for b, _ in halts] == [h for _, h in halts]
    assert worst <= margin


class TestCriterion4:
    def test_stationarity_suite(self):
        worst = 0.0
        checked = 0
        for n in (8, 10, 12):
            for m in range(1, 7):
                for l in range(1, 7):
                    block = BlockSpec((1, 1), m, l)
                    if (m * l) % 2 == 1:
                        with pytest.raises(OddOddBlockError):
                            build_block_layered(n, block)
                        continue
                    layered = build_block_layered(n, block)
                    tiled = build_block_tiling(n, block, None, canonical_tiling(block))
                    worst = max(worst, block_residual(layered), block_residual(tiled))
                    checked += 2
        ok = worst <= 1e-12
        record_criterion(
            4,
            "layered and tiled blocks (m,l <= 6, even area) stationary on n=8,10,12",
            ok,
            f"{checked} constructions, worst residual {worst:.2e}",
        )
        assert worst <= 1e-12


class TestCriterion5:
    def test_exceptional_2x2_block(self):
        n = 100
        block = BlockSpec((n // 2 - 1, n // 2 - 1), 2, 2)
        candidate = build_block_tiling(n, block, None, canonical_tiling(block))
        dec = decompose_initial(n, candidate)
        bound = 1.0 - 2.0 * dec.delta_norm_sq

        series = run_walk(n, candidate.marked, GROVER, 10_000)
        min_overlap = float(series.overlap.min())
        max_prob = float(series.probability.max())
        ok = min_overlap >= bound and max_prob <= 0.01
        record_criterion(
            5,
            "2x2 block on n=100 stays near psi0 for 10^4 steps",
            ok,
            f"min overlap {min_overlap:.6f} >= {bound:.6f}, max prob {max_prob:.2e}",
        )
        assert min_overlap >= bound
        assert max_prob <= 0.01


class TestCriterion6:
    def test_oracle_equivalence(self):
        rng = np.random.default_rng(606)
        worst_grid = 0.0
        for trial in range(50):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(0, n * n + 1))
            marked = MarkedSet(n, [tuple(map(int, rng.integers(0, n, 2))) for _ in range(k)])
            scheme = AKR if trial % 2 else GROVER
            v = rng.normal(size=(n, n, 4))  # oracle basis order (x, y, d)
            v /= np.linalg.norm(v)
            m = dense_step_matrix(n, scheme, marked)
            got = step(GridState(n, v), scheme, marked).amp.reshape(-1)
            worst_grid = max(worst_grid, float(np.max(np.abs(got - m @ v.reshape(-1)))))

        worst_graph = 0.0
        for trial in range(50):
            nv = int(rng.integers(4, 16))
            edges = [
                (i, j) for i in range(nv) for j in range(i + 1, nv) if rng.random() < 0.4
            ]
            deg = np.zeros(nv, dtype=int)
            for u, v_ in edges:
                deg[u] += 1
                deg[v_] += 1
            for v_ in range(nv):
                if deg[v_] == 0:
                    u = (v_ + 1) % nv
                    edges.append((min(u, v_), max(u, v_)))
                    deg[u] += 1
                    deg[v_] += 1
            g = Graph.from_edges(nv, edges)
            assert g.arc_count <= 400
            marked_v = [
                int(x) for x in rng.choice(nv, size=int(rng.integers(0, nv // 2 + 1)), replace=False)
            ]
            scheme = AKR if trial % 2 else GROVER
            vec = rng.normal(size=g.arc_count)
            vec /= np.linalg.norm(vec)
            m = graph_dense_step_matrix(g, marked_v, scheme)
            got = graph_step(GraphState(g, vec.copy()), marked_v, scheme).amp
            worst_graph = max(worst_graph, float(np.max(np.abs(got - m @ vec))))

        ok = worst_grid <= 1e-12 and worst_graph <= 1e-12
        record_criterion(
            6,
            "structured step matches the dense oracle (50 grid + 50 graph cases)",
            ok,
            f"worst grid {worst_grid:.2e}, worst graph {worst_graph:.2e}",
        )
        assert worst_grid <= 1e-12
        assert worst_graph <= 1e-12


class TestCriterion7:
    def test_graph_constructions(self):
        worst = 0.0
        cases = []
        for k in range(1, 6):
            g, marked, st = build_two_marked(k)
            cases.append((f"two-marked k={k}", g, marked, st))
        spec = GenericThreeSpec(1, 2, 3)
        assert (spec.m1, spec.m2, spec.m3) == (4, 3, 5)
        g, marked, st = build_generic_three(spec)
        cases.append(("generic three (1,2,3)", g, marked, st))
        for r in (2, 3, 4):
            for k in (2, 3):
                g, marked, st = build_symmetric_ring(r, k)
                cases.append((f"ring r={r} k={k}", g, marked, st))

        for label, g, marked, st in cases:
            res = float(np.max(np.abs(graph_step(st, marked, GROVER).amp - st.amp)))
            worst = max(worst, res)
        ok = worst <= 1e-12
        record_criterion(
            7,
            "graph witness constructions are stationary",
            ok,
            f"{len(cases)} witnesses, worst residual {worst:.2e}",
        )
        assert worst <= 1e-12


class TestCriterion8:
    def test_unitarity_over_ten_thousand_steps(self):
        # the run's whole-torus coin pair, 5000 times: an even step count leaves the buffer in
        # frame 0, where it is the state after 10^4 steps
        n = 100
        marked = centered_block(n, 3, 3)
        amp = planes(uniform_state(n).amp).copy()
        half = np.empty((n, n))
        whole = _Fold(n, 0, n, None)
        band = _Band(whole, whole)
        coins = _frame_coins(amp, GROVER, half, band.frames(marked), band)
        for _ in range(5000):
            for coin in coins:
                coin()
        drift = abs(float(np.sqrt(np.sum(amp * amp))) - 1.0)
        ok = drift <= 1e-9
        record_criterion(8, "norm drift over 10^4 steps at n=100", ok, f"drift {drift:.2e}")
        assert drift <= 1e-9

    def test_reruns_bit_identical(self):
        marked = centered_block(100, 3, 3)
        a = run_walk(100, marked, GROVER, 400)
        b = run_walk(100, marked, GROVER, 400)
        ok = (
            np.array_equal(a.probability, b.probability)
            and np.array_equal(a.overlap, b.overlap)
            and a.halt_step == b.halt_step
        )
        record_criterion(8.5, "identical reruns are bit-identical", ok)
        assert_array_equal(a.probability, b.probability)
        assert_array_equal(a.overlap, b.overlap)
        assert a.halt_step == b.halt_step


class TestCriterion9:
    def test_odd_block_outshines_even_block(self):
        n = 100
        odd_cells = MarkedSet.from_block(n, (49, 49), 3, 3)
        even_cells = MarkedSet.from_block(n, (10, 10), 2, 2)
        marked = MarkedSet(n, list(odd_cells.cells | even_cells.cells))

        state = uniform_state(n)
        amp = state.amp

        def total(sel, a):
            s = a[sel.xs, sel.ys]
            return float(np.sum(s * s))

        best_prob = total(marked, amp)
        best_amp = amp.copy()
        for _ in range(400):
            state = step(state, GROVER, marked)
            amp = state.amp
            p = total(marked, amp)
            if p > best_prob:
                best_prob = p
                best_amp[...] = amp

        per_cell_odd = total(odd_cells, best_amp) / len(odd_cells)
        even_total = total(even_cells, best_amp)
        ratio = per_cell_odd / even_total
        ok = ratio >= 10.0
        record_criterion(
            9,
            "3x3 block dominates a simultaneous 2x2 block at the peak",
            ok,
            f"per-cell odd {per_cell_odd:.4f} vs even total {even_total:.2e} (x{ratio:.0f})",
        )
        assert ratio >= 10.0
