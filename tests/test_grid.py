import numpy as np
import pytest
from conftest import assert_same_bits, from_planes, planes
from numpy.testing import assert_allclose, assert_array_equal

from coinwalk.grid import (
    CoinScheme,
    Direction,
    GridState,
    MarkedSet,
    OracleTooLargeError,
    apply_coin,
    apply_shift,
    dense_step_matrix,
    marked_probability,
    overlap,
    step,
    uniform_state,
)
from coinwalk.grid import _Band, _Fold, _frame_coins

RNG = np.random.default_rng(20240517)


def random_state(n, rng=RNG):
    v = rng.normal(size=(n, n, 4))
    return GridState(n, v / np.linalg.norm(v))


def random_marked(n, rng=RNG):
    k = int(rng.integers(0, n * n + 1))
    cells = [tuple(map(int, rng.integers(0, n, 2))) for _ in range(k)]
    return MarkedSet(n, cells)


def torus_coins(work, scheme, marked, half):
    """The frame coins of the whole torus, each paired with its marked positions."""
    whole = _Fold(marked.n, 0, marked.n, None)
    band = _Band(whole, whole)
    flats = band.frames(marked)
    return zip(_frame_coins(work, scheme, half, flats, band), flats)


class TestDirection:
    def test_opposite_pairs(self):
        assert Direction.UP.opposite is Direction.DOWN
        assert Direction.DOWN.opposite is Direction.UP
        assert Direction.LEFT.opposite is Direction.RIGHT
        assert Direction.RIGHT.opposite is Direction.LEFT

    def test_opposite_is_involution(self):
        for d in Direction:
            assert d.opposite.opposite is d


class TestMarkedSet:
    def test_modular_reduction_and_dedup(self):
        m = MarkedSet(5, [(0, 0), (5, 5), (-1, 2)])
        assert m.cells == frozenset({(0, 0), (4, 2)})
        assert (0, 0) in m and (4, 2) in m and (1, 1) not in m
        assert len(m) == 2

    def test_from_block(self):
        m = MarkedSet.from_block(10, (8, 9), 3, 2)
        assert len(m) == 6
        assert (8, 9) in m and (0, 0) in m and (9, 0) in m

    def test_block_wrap_rejected(self):
        with pytest.raises(ValueError):
            MarkedSet.from_block(4, (0, 0), 5, 1)

    def test_empty(self):
        m = MarkedSet.empty(4)
        assert len(m) == 0 and not m


class TestUniformState:
    def test_n2_all_quarter(self):
        st = uniform_state(2)
        assert_array_equal(st.amp, np.full((2, 2, 4), 0.25))

    def test_n100_amplitude(self):
        st = uniform_state(100)
        assert_allclose(st.amp, 0.005, rtol=0, atol=0)

    def test_normalized(self):
        assert uniform_state(3).norm() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("n", [0, 1, -3])
    def test_invalid_size(self, n):
        with pytest.raises(ValueError):
            uniform_state(n)


class TestCoin:
    def test_uniform_cell_fixed(self):
        st = uniform_state(3)
        out = apply_coin(st, CoinScheme.GROVER, MarkedSet.empty(3))
        assert_allclose(out.amp, st.amp, atol=1e-15)

    def test_first_column_of_diffusion(self):
        amp = np.zeros((2, 2, 4))
        amp[0, 0, Direction.UP] = 1.0
        out = apply_coin(GridState(2, amp), CoinScheme.GROVER, MarkedSet.empty(2))
        assert_allclose(out.amp[0, 0], [-0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_marked_grover_zero_sum_fixed(self):
        # oracle: explicit -D multiply on the zero-sum vector (a, a, a, -3a)
        d = 0.5 * np.ones((4, 4)) - np.eye(4)
        v = np.array([0.1, 0.1, 0.1, -0.3])
        assert_allclose(-d @ v, v, atol=1e-16)

        amp = np.full((3, 3, 4), 0.1)
        amp[1, 1] = v
        out = apply_coin(GridState(3, amp), CoinScheme.GROVER, MarkedSet(3, [(1, 1)]))
        assert_allclose(out.amp[1, 1], v, atol=1e-15)

    def test_marked_akr_negates(self):
        st = random_state(4)
        out = apply_coin(st, CoinScheme.AKR, MarkedSet(4, [(2, 3)]))
        assert_array_equal(out.amp[2, 3], -st.amp[2, 3])

    @pytest.mark.parametrize("scheme", list(CoinScheme))
    def test_coin_is_involution(self, scheme):
        st = random_state(5)
        m = random_marked(5)
        twice = apply_coin(apply_coin(st, scheme, m), scheme, m)
        assert_allclose(twice.amp, st.amp, atol=1e-15)


class TestShift:
    def test_uniform_unchanged(self):
        st = uniform_state(6)
        assert_array_equal(apply_shift(st).amp, st.amp)

    def test_involution(self):
        st = random_state(5)
        assert_array_equal(apply_shift(apply_shift(st)).amp, st.amp)

    def test_unit_mass_moves_right(self):
        amp = np.zeros((2, 2, 4))
        amp[0, 0, Direction.RIGHT] = 1.0
        out = apply_shift(GridState(2, amp))
        assert out.amp[1, 0, Direction.LEFT] == 1.0
        assert np.sum(np.abs(out.amp)) == 1.0

    def test_shift_table(self):
        n = 4
        for d, (dx, dy) in [
            (Direction.UP, (0, -1)),
            (Direction.DOWN, (0, 1)),
            (Direction.LEFT, (-1, 0)),
            (Direction.RIGHT, (1, 0)),
        ]:
            amp = np.zeros((n, n, 4))
            amp[2, 3, d] = 1.0
            out = apply_shift(GridState(n, amp))
            assert out.amp[(2 + dx) % n, (3 + dy) % n, d.opposite] == 1.0


class TestStep:
    @pytest.mark.parametrize("scheme", list(CoinScheme))
    def test_no_marked_fixed_point(self, scheme):
        st = uniform_state(7)
        out = step(st, scheme, MarkedSet.empty(7))
        assert_array_equal(out.amp, st.amp)

    def test_marked_set_on_another_side_rejected(self):
        with pytest.raises(ValueError, match="side-5 grid, state on 4"):
            step(uniform_state(4), CoinScheme.AKR, MarkedSet(5, [(0, 0)]))

    @pytest.mark.parametrize("scheme", list(CoinScheme))
    def test_norm_preserved(self, scheme):
        st = random_state(6)
        m = random_marked(6)
        out = step(st, scheme, m)
        assert out.norm() == pytest.approx(st.norm(), abs=1e-12)

    def test_matches_dense_oracle_n4(self):
        marked = MarkedSet(4, [(1, 1), (1, 2)])
        for scheme in CoinScheme:
            st = random_state(4)
            m = dense_step_matrix(4, scheme, marked)
            assert_allclose(step(st, scheme, marked).amp.reshape(-1), m @ st.amp.reshape(-1), atol=1e-12)

    def test_matches_dense_oracle_random(self):
        rng = np.random.default_rng(99)
        for _ in range(12):
            n = int(rng.integers(2, 7))
            marked = random_marked(n, rng)
            scheme = CoinScheme.AKR if rng.integers(2) else CoinScheme.GROVER
            st = random_state(n, rng)
            m = dense_step_matrix(n, scheme, marked)
            assert_allclose(step(st, scheme, marked).amp.reshape(-1), m @ st.amp.reshape(-1), atol=1e-12)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(5)
        n = 6
        st = random_state(n, rng)
        cells = [(1, 1), (1, 2), (4, 0)]
        dx, dy = 3, 5
        moved_cells = [((x + dx) % n, (y + dy) % n) for x, y in cells]
        for scheme in CoinScheme:
            stepped = step(st, scheme, MarkedSet(n, cells)).amp
            translated = GridState(n, np.roll(st.amp, (dx, dy), axis=(0, 1)))
            stepped_translated = step(translated, scheme, MarkedSet(n, moved_cells)).amp
            assert_array_equal(np.roll(stepped, (dx, dy), axis=(0, 1)), stepped_translated)


    @pytest.mark.parametrize("n", range(2, 10))
    def test_frame_kernels_match_two_steps(self, n):
        # the bound frame-0 coin then the frame-1 coin equal two full steps, bit for bit;
        # the marked cells sit on both seam columns and both wrap rows
        rng = np.random.default_rng(n)
        cells = [(0, 0), (n - 1, 1), (1, n - 1), (n // 2, n // 2), (0, n - 1), (n - 1, 0)]
        for scheme in CoinScheme:
            for marked in (MarkedSet(n, cells), MarkedSet.empty(n)):
                st = random_state(n, rng)
                work, half = planes(st.amp).copy(), np.empty((n, n))
                (coin0, _), (coin1, flat1) = torus_coins(work, scheme, marked, half)
                coin0()
                once = step(st, scheme, marked)
                assert_same_bits(apply_shift(GridState(n, from_planes(work))).amp, once.amp)
                sel = work.reshape(-1)[flat1]
                assert float(np.sum(sel * sel)) == marked_probability(once, marked)
                # the frame-1 half sums are the frame-0 ones of the shifted state
                half_ref = np.empty((n, n))
                next(torus_coins(planes(once.amp).copy(), scheme, marked, half_ref))[0]()
                coin1()
                assert_same_bits(half, half_ref)
                assert_same_bits(work, planes(step(once, scheme, marked).amp))

    @pytest.mark.parametrize(
        "n, cell",
        [(n, (x, y)) for n in (2, 3) for x in range(n) for y in range(n) if {x, y} & {0, n - 1}],
    )
    def test_frame_kernels_seam_cells(self, n, cell):
        # one marked cell at a time on the seam columns and seam rows, which read the seams
        rng = np.random.default_rng(10 * n + cell[0] * n + cell[1])
        marked = MarkedSet(n, [cell])
        for scheme in CoinScheme:
            st = random_state(n, rng)
            work = planes(st.amp).copy()
            coins = torus_coins(work, scheme, marked, np.empty((n, n)))
            for t, (coin, _) in enumerate(coins, 1):
                coin()
                st = step(st, scheme, marked)
                if t == 2:
                    assert_same_bits(work, planes(st.amp))
                else:
                    assert_same_bits(apply_shift(GridState(n, from_planes(work))).amp, st.amp)


class TestDenseOracle:
    def test_orthogonal(self):
        m = dense_step_matrix(2, CoinScheme.GROVER, MarkedSet.empty(2))
        assert_allclose(m.T @ m, np.eye(16), atol=1e-12)

    def test_uniform_fixed(self):
        st = uniform_state(2)
        m = dense_step_matrix(2, CoinScheme.AKR, MarkedSet.empty(2))
        assert_allclose(m @ st.amp.reshape(-1), st.amp.reshape(-1), atol=1e-15)

    def test_cap_enforced(self):
        with pytest.raises(OracleTooLargeError):
            dense_step_matrix(9, CoinScheme.GROVER, MarkedSet.empty(9))
        # explicit override widens the cap
        dense_step_matrix(9, CoinScheme.GROVER, MarkedSet.empty(9), cap=9)


class TestObservables:
    def test_uniform_marked_probability(self):
        st = uniform_state(100)
        m = MarkedSet.from_block(100, (10, 10), 3, 3)
        assert marked_probability(st, m) == pytest.approx(0.0009, abs=1e-15)

    def test_empty_marked_probability(self):
        assert marked_probability(uniform_state(5), MarkedSet.empty(5)) == 0.0

    def test_overlap_self(self):
        st = uniform_state(10)
        assert overlap(st, st) == pytest.approx(1.0, abs=1e-12)

    def test_overlap_evolved_norm(self):
        st = uniform_state(8)
        m = MarkedSet.from_block(8, (2, 2), 2, 1)
        for _ in range(50):
            st = step(st, CoinScheme.GROVER, m)
        assert overlap(st, st) == pytest.approx(1.0, abs=1e-9)

    def test_overlap_dimension_mismatch(self):
        with pytest.raises(ValueError):
            overlap(uniform_state(4), uniform_state(5))


class TestRoundTripHelpers:
    def test_flatten_ordering(self):
        # a state's flat buffer is the oracle basis: index (x * n + y) * 4 + d
        n = 3
        amp = np.arange(n * n * 4, dtype=float).reshape(n, n, 4)
        flat = GridState(n, amp).amp.reshape(-1)
        assert flat[(2 * n + 1) * 4 + Direction.LEFT] == amp[2, 1, Direction.LEFT]
        assert_array_equal(GridState(n, flat.reshape(n, n, 4)).amp, amp)

    def test_oracle_basis_order_pinned(self):
        # the dense oracle's basis index (x * n + y) * 4 + d is amp[x, y, d]
        n = 3
        for x in range(n):
            for y in range(n):
                for d in Direction:
                    v = np.zeros(4 * n * n)
                    v[(x * n + y) * 4 + d] = 1.0
                    st = GridState(n, v.reshape(n, n, 4))
                    assert st.amp[x, y, d] == 1.0
                    assert np.sum(np.abs(st.amp)) == 1.0

    def test_marked_flat_is_the_oracle_basis(self):
        # cell by cell in sorted order, four directions each
        m = MarkedSet(5, [(3, 1), (0, 4)])
        assert_array_equal(m.flat, [(x * 5 + y) * 4 + d for x, y in ((0, 4), (3, 1)) for d in range(4)])


class TestShapeCheck:
    @pytest.mark.parametrize("shape", [(4, 5, 5), (5, 5), (5, 4, 5), (5, 5, 4, 1)])
    def test_other_shapes_rejected(self, shape):
        with pytest.raises(ValueError, match=r"side-5 state has shape \(5, 5, 4\)"):
            GridState(5, np.zeros(shape))

    def test_side_four_shapes_agree(self):
        # the one side where a direction-major array passes the check: only values can tell
        assert GridState(4, np.zeros((4, 4, 4))).amp.shape == (4, 4, 4)
