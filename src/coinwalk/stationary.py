"""Stationary states for rectangular marked blocks on the torus.

Builders for the domino (1x2) state, the layer-peeling construction for
general even-area blocks, and domino-tiling superpositions, plus the three
stationarity conditions and the split of the uniform start state into a
frozen part and a moving remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .grid import Direction, GridState, MarkedSet, _check_grid, _check_side, uniform_state
from .grid import _stationarity, _torus_arcs

if TYPE_CHECKING:
    from .graph import GraphState

__all__ = [
    "BlockSpec",
    "Decomposition",
    "DominoPlacement",
    "InvalidTilingError",
    "OddOddBlockError",
    "StationaryCandidate",
    "build_block_layered",
    "build_block_tiling",
    "build_domino_state",
    "check_conditions",
    "decompose_initial",
]

# A domino is its anchor cell plus the right neighbor (horizontal) or the
# down neighbor (vertical).
DominoPlacement = tuple[tuple[int, int], bool]


class OddOddBlockError(ValueError):
    """No stationary construction exists for an odd-by-odd marked block."""


class InvalidTilingError(ValueError):
    """Domino placements overlap or fail to cover the block exactly."""


@dataclass(frozen=True)
class BlockSpec:
    """Rectangular block of marked cells: origin (x, y), width along x, height along y."""

    origin: tuple[int, int]
    width: int
    height: int

    def marked_set(self, n: int) -> MarkedSet:
        return MarkedSet.from_block(n, self.origin, self.width, self.height)


@dataclass
class StationaryCandidate:
    """A state built to be step-invariant, with its marked set and unmarked baseline."""

    state: GridState
    marked: MarkedSet
    baseline: float


@dataclass
class Decomposition:
    """Split of the uniform start state: psi0 = stationary + delta (torus or graph)."""

    stationary: GridState | GraphState
    delta: GridState | GraphState
    delta_norm_sq: float


def _baseline(n: int, a: float | None) -> float:
    """The unmarked amplitude ``a``, by default 1/sqrt(4N); checks the side first."""
    _check_side(n)
    a = 1.0 / math.sqrt(4.0 * n * n) if a is None else float(a)
    if a == 0.0:
        raise ValueError("baseline amplitude a must be nonzero")
    return a


def build_domino_state(
    n: int,
    cell: tuple[int, int],
    horizontal: bool = True,
    a: float | None = None,
) -> StationaryCandidate:
    """Stationary state for a 1x2 marked pair.

    The one-domino tiling of :func:`build_block_tiling`: every amplitude
    equals ``a`` except the two amplitudes of the pair that point at each
    other, which equal ``-3 a``. Defaults ``a`` to the uniform amplitude
    1/sqrt(4N).
    """
    block = BlockSpec(cell, *((2, 1) if horizontal else (1, 2)))
    return build_block_tiling(n, block, a, [(cell, horizontal)])


def _superpose_tilings(
    n: int, marked: MarkedSet, a: float, tilings: Sequence[Sequence[DominoPlacement]]
) -> StationaryCandidate:
    """Equal-weight superposition of domino tilings of the marked block.

    One tiling's state is ``a`` everywhere except each domino's facing pair
    at ``-3 a``, so the mean lowers each domino's pair by ``4 a / len(tilings)``.
    Every tiling must cover the block's cells exactly once. The drops are
    summed as multiples of ``a`` and scaled once, so one or two tilings give
    ``a``, ``-a`` or ``-3.0 * a`` to the bit and overflow no sooner than ``-3 a``.
    """
    factor = np.ones((n, n, 4))
    drop = 4.0 / len(tilings)
    for tiling in tilings:
        covered: set[tuple[int, int]] = set()
        for (x, y), horizontal in tiling:
            c1 = (x % n, y % n)
            c2 = ((x + 1) % n, y % n) if horizontal else (x % n, (y + 1) % n)
            for c in (c1, c2):
                if c not in marked.cells:
                    raise InvalidTilingError(f"domino cell {c} lies outside the block")
                if c in covered:
                    raise InvalidTilingError(f"domino placements overlap at {c}")
                covered.add(c)
            d1, d2 = (Direction.RIGHT, Direction.LEFT) if horizontal else (Direction.DOWN, Direction.UP)
            factor[(*c1, d1)] -= drop
            factor[(*c2, d2)] -= drop
        if covered != marked.cells:
            missing = len(marked.cells - covered)
            raise InvalidTilingError(f"tiling leaves {missing} block cells uncovered")
    return StationaryCandidate(GridState(n, a * factor), marked, a)


def _ring_cycle(x0: int, y0: int, x1: int, y1: int) -> list[tuple[int, int]]:
    """Perimeter cells of [x0..x1] x [y0..y1], clockwise from (x0, y0).

    Requires both sides >= 2; every perimeter cell appears exactly once and
    consecutive cells (cyclically) are grid neighbors.
    """
    top = [(i, y0) for i in range(x0, x1 + 1)]
    right = [(x1, j) for j in range(y0 + 1, y1 + 1)]
    bottom = [(i, y1) for i in range(x1 - 1, x0 - 1, -1)]
    left = [(x0, j) for j in range(y1 - 1, y0, -1)]
    return top + right + bottom + left


def build_block_layered(
    n: int, block: BlockSpec, a: float | None = None
) -> StationaryCandidate:
    """Stationary state for an m x l block via perimeter-layer peeling.

    Each layer is a rectangular ring, a cycle of even length, which splits
    into two domino tilings of itself: its edges (0,1), (2,3), ... and (1,2),
    ..., (L-1,0). The state is the mean of the two block tilings these give,
    so every ring cell points at its two ring neighbors with -a and keeps +a
    on its other two directions. A leftover 1 x even strip gets the same
    dominoes in both tilings. Raises :class:`OddOddBlockError` when both
    sides are odd, for which no such state exists.
    """
    a = _baseline(n, a)
    m, l = block.width, block.height
    if m % 2 == 1 and l % 2 == 1:
        raise OddOddBlockError(
            f"no stationary construction for an odd-by-odd block ({m}x{l})"
        )
    marked = block.marked_set(n)
    ox, oy = block.origin
    tilings: tuple[list[DominoPlacement], list[DominoPlacement]] = ([], [])
    x0, y0, x1, y1 = 0, 0, m - 1, l - 1
    while x1 - x0 >= 1 and y1 - y0 >= 1:
        ring = _ring_cycle(x0, y0, x1, y1)
        for p, cell in enumerate(ring):
            (i, j), other = sorted((cell, ring[(p + 1) % len(ring)]))
            tilings[p % 2].append(((ox + i, oy + j), j == other[1]))
        x0 += 1
        y0 += 1
        x1 -= 1
        y1 -= 1

    # what is left is empty or a 1 x even strip (1x1 would be odd-by-odd)
    strip: list[DominoPlacement] = []
    if x0 == x1:
        strip = [((ox + x0, oy + j), False) for j in range(y0, y1, 2)]
    elif y0 == y1:
        strip = [((ox + i, oy + y0), True) for i in range(x0, x1, 2)]
    for tiling in tilings:
        tiling.extend(strip)
    return _superpose_tilings(n, marked, a, tilings)


def build_block_tiling(
    n: int,
    block: BlockSpec,
    a: float | None = None,
    tiling: Sequence[DominoPlacement] = (),
) -> StationaryCandidate:
    """Stationary state from an explicit domino tiling of the block.

    Every amplitude is ``a`` except each domino's facing pair at ``-3 a``.
    The placements must cover the block's cells exactly once.
    """
    a = _baseline(n, a)
    return _superpose_tilings(n, block.marked_set(n), a, [tiling])


def check_conditions(
    candidate: StationaryCandidate, tol: float = 1e-12
) -> tuple[bool, bool, bool]:
    """Evaluate the three stationarity conditions.

    1. all unmarked directional amplitudes are equal,
    2. the four amplitudes of each marked cell sum to zero,
    3. amplitudes of adjacent cells pointing at each other are equal
       (equivalently, the state is shift-invariant).

    A state satisfying all three is unchanged by a Grover-coin step.
    Checked by :func:`grid._stationarity` on the state's oracle-basis buffer.
    """
    _check_grid(candidate.state.n, candidate.marked)
    return _stationarity(candidate.state.amp.reshape(-1), *_torus_arcs(candidate.marked), tol)


def decompose_initial(n: int, candidate: StationaryCandidate) -> Decomposition:
    """Split psi0 into the candidate's stationary part plus a moving remainder.

    Requires the candidate's baseline to equal the uniform amplitude
    1/sqrt(4N) so that the remainder is supported on marked cells only.
    """
    a0 = _baseline(n, None)
    if not math.isclose(candidate.baseline, a0, rel_tol=1e-12, abs_tol=0.0):
        raise ValueError(
            f"candidate baseline {candidate.baseline!r} does not match the "
            f"uniform amplitude 1/sqrt(4N) = {a0!r}"
        )
    if candidate.state.n != n:
        raise ValueError(f"candidate grid side {candidate.state.n} differs from {n}")
    delta = uniform_state(n).amp - candidate.state.amp
    norm_sq = float(np.sum(delta * delta))
    return Decomposition(candidate.state.copy(), GridState(n, delta), norm_sq)
