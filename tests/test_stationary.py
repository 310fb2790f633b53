import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from coinwalk.grid import CoinScheme, Direction, GridState, MarkedSet, step, uniform_state
from coinwalk.runner import run_walk
from coinwalk.stationary import (
    BlockSpec,
    InvalidTilingError,
    OddOddBlockError,
    StationaryCandidate,
    build_block_layered,
    build_block_tiling,
    build_domino_state,
    check_conditions,
    decompose_initial,
)


def residual(candidate, scheme=CoinScheme.GROVER):
    after = step(candidate.state, scheme, candidate.marked)
    return float(np.max(np.abs(after.amp - candidate.state.amp)))


def enumerate_tilings(width, height):
    """Brute-force every domino tiling of a width x height rectangle.

    Placements use block-local coordinates; anchors are the left/top cell.
    """
    cells = [(i, j) for i in range(width) for j in range(height)]

    def fill(remaining, acc, out):
        if not remaining:
            out.append(list(acc))
            return
        i, j = min(remaining)
        for horizontal, other in ((True, (i + 1, j)), (False, (i, j + 1))):
            if other in remaining:
                nxt = remaining - {(i, j), other}
                acc.append(((i, j), horizontal))
                fill(nxt, acc, out)
                acc.pop()

    out = []
    fill(frozenset(cells), [], out)
    return out


def shifted_tiling(tiling, origin):
    ox, oy = origin
    return [((ox + i, oy + j), h) for (i, j), h in tiling]


_OFFSETS = {Direction.UP: (0, -1), Direction.DOWN: (0, 1), Direction.LEFT: (-1, 0), Direction.RIGHT: (1, 0)}


def assert_layered_census(c, block):
    """Every amplitude of a layered block state is bitwise a, -a or -3a, where it belongs.

    A cell at peeling depth d lies on a ring when its layer is at least 2x2 and
    on the leftover 1 x even strip otherwise. A ring cell has exactly two -a
    amplitudes; a strip cell has one -3a, facing the -3a of its domino partner.
    Everything off the block is a.
    """
    n, a = c.state.n, c.baseline
    bits = c.state.amp.view(np.int64)
    plus, minus, minus3 = np.array([a, -a, -3.0 * a]).view(np.int64)
    assert np.isin(bits, [plus, minus, minus3]).all()
    assert (bits[~c.marked.mask] == plus).all()
    (ox, oy), m, l = block.origin, block.width, block.height
    for i, j in itertools.product(range(m), range(l)):
        x, y = (ox + i) % n, (oy + j) % n
        cell = bits[x, y]
        where = (n, m, l, (i, j))
        if min(m, l) - 2 * min(i, j, m - 1 - i, l - 1 - j) >= 2:
            assert (cell == minus).sum() == 2 and (cell == plus).sum() == 2, where
        else:
            assert (cell == minus3).sum() == 1 and (cell == plus).sum() == 3, where
            d = next(d for d in Direction if cell[d] == minus3)
            dx, dy = _OFFSETS[d]
            assert bits[(x + dx) % n, (y + dy) % n, d.opposite] == minus3, where


class TestDominoState:
    def test_amplitude_census(self):
        c = build_domino_state(100, (30, 40), horizontal=True)
        a = 1.0 / 200.0
        flat = c.state.amp.reshape(-1)
        assert np.sum(np.isclose(flat, -3 * a)) == 2
        assert np.sum(np.isclose(flat, a)) == 4 * 100 * 100 - 2

    def test_conditions_hold(self):
        c = build_domino_state(50, (0, 0), horizontal=False)
        assert check_conditions(c) == (True, True, True)

    @pytest.mark.parametrize("horizontal", [True, False])
    def test_step_invariant(self, horizontal):
        c = build_domino_state(20, (19, 7), horizontal=horizontal)
        assert residual(c) <= 1e-12

    def test_akr_does_not_fix_it(self):
        c = build_domino_state(10, (2, 2))
        assert residual(c, CoinScheme.AKR) > 1e-3

    def test_fixed_point_of_dense_oracle(self):
        from coinwalk.grid import dense_step_matrix

        c = build_domino_state(4, (1, 1), horizontal=False)
        assert c.marked.cells == frozenset({(1, 1), (1, 2)})
        m = dense_step_matrix(4, CoinScheme.GROVER, c.marked)
        flat = c.state.amp.reshape(-1)
        assert np.max(np.abs(m @ flat - flat)) <= 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_domino_state(1, (0, 0))
        with pytest.raises(ValueError):
            build_domino_state(10, (0, 0), a=0.0)


class TestLayeredConstruction:
    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_even_blocks_are_stationary(self, n):
        for m in range(1, 7):
            for l in range(1, 7):
                if (m * l) % 2 == 1:
                    continue
                c = build_block_layered(n, BlockSpec((1, 1), m, l))
                assert check_conditions(c) == (True, True, True), (m, l)
                assert residual(c) <= 1e-12, (m, l)

    @pytest.mark.parametrize("m,l", [(1, 1), (3, 3), (5, 3), (1, 5)])
    def test_odd_odd_rejected(self, m, l):
        with pytest.raises(OddOddBlockError):
            build_block_layered(12, BlockSpec((0, 0), m, l))

    def test_4x5_example(self):
        c = build_block_layered(12, BlockSpec((3, 3), 4, 5))
        assert check_conditions(c) == (True, True, True)
        assert residual(c) <= 1e-12
        # perimeter-facing amplitudes of the outer ring sit at -a
        a = c.baseline
        assert c.state.amp[3, 3, Direction.RIGHT] == -a  # origin corner points right at its ring neighbor

    def test_1x4_is_two_dominoes(self):
        n = 9
        layered = build_block_layered(n, BlockSpec((4, 2), 1, 4))
        tiled = build_block_tiling(
            n, BlockSpec((4, 2), 1, 4), None, [((4, 2), False), ((4, 4), False)]
        )
        assert_array_equal(layered.state.amp, tiled.state.amp)

    def test_1x2_equals_domino(self):
        layered = build_block_layered(9, BlockSpec((4, 4), 1, 2))
        domino = build_domino_state(9, (4, 4), horizontal=False)
        assert_array_equal(layered.state.amp, domino.state.amp)

    def test_wrapped_block(self):
        c = build_block_layered(10, BlockSpec((8, 7), 4, 5))
        assert check_conditions(c) == (True, True, True)
        assert residual(c) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 10))
    def test_amplitude_census(self, n):
        sides = range(1, min(n, 6) + 1)
        origins = [(0, 0), (n - 1, n - 1), (1, n - 2)]
        for m, l, origin, a in itertools.product(sides, sides, origins, (None, 1 / 3)):
            if m * l % 2 == 0:
                block = BlockSpec(origin, m, l)
                assert_layered_census(build_block_layered(n, block, a), block)

    @pytest.mark.parametrize("a", [5e307, -5.9e307])
    def test_census_exact_near_overflow(self, a):
        # 4a overflows here while -3a does not: no step may pass through 4a
        block = BlockSpec((3, 3), 3, 6)
        assert_layered_census(build_block_layered(8, block, a), block)
        domino = build_domino_state(8, (1, 1), a=a).state.amp
        assert domino[1, 1, Direction.RIGHT].view(np.int64) == np.float64(-3.0 * a).view(np.int64)

    @pytest.mark.parametrize("m, l", [(100_000, 2), (2, 1_000_000_000)])
    def test_oversized_block_rejected_before_peeling(self, m, l):
        with pytest.raises(ValueError, match=f"^{m}x{l} block wraps onto itself on a side-8 torus$"):
            build_block_layered(8, BlockSpec((0, 0), m, l))


class TestTilingConstruction:
    def test_2x2_both_tilings(self):
        n = 8
        block = BlockSpec((2, 3), 2, 2)
        horiz = build_block_tiling(n, block, None, [((2, 3), True), ((2, 4), True)])
        vert = build_block_tiling(n, block, None, [((2, 3), False), ((3, 3), False)])
        assert residual(horiz) <= 1e-12
        assert residual(vert) <= 1e-12
        assert not np.array_equal(horiz.state.amp, vert.state.amp)

    def test_1x2_degenerate_tiling_equals_domino(self):
        c1 = build_block_tiling(8, BlockSpec((1, 1), 2, 1), None, [((1, 1), True)])
        c2 = build_domino_state(8, (1, 1), horizontal=True)
        assert_array_equal(c1.state.amp, c2.state.amp)

    # Tilings of a 2 x l block are sequences of horizontal rows (H) and 2x2
    # vertical blocks (B). From 2x4 on that span is degenerate: the states of
    # HHHH and BB sum to those of HHB and BHH exactly, so five tilings only
    # span rank 4. Distinctness always holds; full independence does not.
    @pytest.mark.parametrize(
        "width,height,expected_rank", [(2, 2, 2), (2, 3, 3), (2, 4, 4)]
    )
    def test_exhaustive_tilings_stationary_and_distinct(self, width, height, expected_rank):
        n = 10
        origin = (3, 3)
        block = BlockSpec(origin, width, height)
        tilings = enumerate_tilings(width, height)
        assert len(tilings) >= 2
        states = []
        for t in tilings:
            c = build_block_tiling(n, block, None, shifted_tiling(t, origin))
            assert residual(c) <= 1e-12
            assert check_conditions(c) == (True, True, True)
            states.append(c.state.amp.reshape(-1))
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                assert not np.array_equal(states[i], states[j])
        rank = np.linalg.matrix_rank(np.stack(states))
        assert rank == expected_rank

    def test_overlap_rejected(self):
        block = BlockSpec((0, 0), 2, 2)
        with pytest.raises(InvalidTilingError):
            build_block_tiling(8, block, None, [((0, 0), True), ((0, 0), False)])

    def test_gap_rejected(self):
        block = BlockSpec((0, 0), 2, 2)
        with pytest.raises(InvalidTilingError):
            build_block_tiling(8, block, None, [((0, 0), True)])

    def test_outside_cell_rejected(self):
        block = BlockSpec((0, 0), 2, 2)
        with pytest.raises(InvalidTilingError):
            build_block_tiling(8, block, None, [((1, 0), True), ((0, 1), True)])


class TestConditions:
    def test_psi0_fails_zero_sum_only(self):
        n = 10
        cand = StationaryCandidate(
            uniform_state(n),
            MarkedSet.from_block(n, (2, 2), 2, 1),
            1.0 / math.sqrt(4.0 * n * n),
        )
        assert check_conditions(cand) == (True, False, True)

    def test_perturbation_detected(self):
        c = build_block_layered(10, BlockSpec((2, 2), 4, 5))
        c.state.amp[2, 2, Direction.UP] += 1e-6
        assert not all(check_conditions(c))

    def test_sufficiency_on_random_tilings(self):
        # any state passing all three conditions is unchanged by a Grover step
        rng = np.random.default_rng(11)
        even_blocks = [
            (m, l) for m in range(1, 7) for l in range(1, 7) if (m * l) % 2 == 0
        ]
        for _ in range(100):
            m, l = even_blocks[rng.integers(len(even_blocks))]
            n = int(rng.integers(max(m, l) + 1, 14))
            origin = (int(rng.integers(n)), int(rng.integers(n)))
            a = float(rng.uniform(0.1, 2.0)) * (1 if rng.integers(2) else -1)
            tilings = enumerate_tilings(m, l)
            tiling = shifted_tiling(tilings[rng.integers(len(tilings))], origin)
            c = build_block_tiling(n, BlockSpec(origin, m, l), a, tiling)
            assert check_conditions(c) == (True, True, True)
            assert residual(c) <= 1e-12 * max(1.0, abs(a))

    def test_scaled_state_still_stationary(self):
        c = build_block_layered(9, BlockSpec((1, 1), 2, 3))
        for scale in (-2.5, 0.3, 17.0):
            scaled = StationaryCandidate(
                GridState(c.state.n, scale * c.state.amp), c.marked, scale * c.baseline
            )
            assert residual(scaled) <= 1e-12 * max(1.0, abs(scale))


class TestDecomposition:
    def test_single_domino_norms(self):
        n = 100
        c = build_domino_state(n, (10, 10))
        dec = decompose_initial(n, c)
        assert dec.delta_norm_sq == pytest.approx(8.0 / n**2, rel=1e-12)
        # exact reconstruction, remainder confined to the marked cells
        assert_allclose(
            dec.stationary.amp + dec.delta.amp, uniform_state(n).amp, atol=1e-15
        )
        off_block = dec.delta.amp[~c.marked.mask]
        assert np.all(off_block == 0.0)

    def test_empty_marked_gives_zero_delta(self):
        n = 12
        a0 = 1.0 / math.sqrt(4.0 * n * n)
        cand = StationaryCandidate(uniform_state(n), MarkedSet.empty(n), a0)
        dec = decompose_initial(n, cand)
        assert dec.delta_norm_sq == 0.0

    def test_baseline_mismatch_rejected(self):
        c = build_domino_state(10, (1, 1), a=0.3)
        with pytest.raises(ValueError):
            decompose_initial(10, c)

    def test_overlap_never_leaves_delta_ball(self):
        # psi0 = phi + delta with phi frozen, so <psi(t)|psi0> >= 1 - 2 |delta|^2
        n = 50
        c = build_domino_state(n, (20, 20))
        dec = decompose_initial(n, c)
        series = run_walk(n, c.marked, CoinScheme.GROVER, 2000)
        bound = 1.0 - 2.0 * dec.delta_norm_sq
        assert series.overlap.min() >= bound
        assert series.halt_step is None
