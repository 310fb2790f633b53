"""Coined quantum walk on the n x n torus.

The walker's state lives on (cell, direction) basis states with real
amplitudes. A step applies a per-cell coin (with the marked-cell query
folded in) followed by the flip-flop shift. A dense-matrix oracle mirrors
the same operator for cross-checking on small grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Iterable

import numpy as np

__all__ = [
    "DEFAULT_ORACLE_CAP",
    "CoinScheme",
    "Direction",
    "GridState",
    "MarkedSet",
    "OracleTooLargeError",
    "apply_coin",
    "apply_query",
    "apply_shift",
    "dense_step_matrix",
    "marked_probability",
    "overlap",
    "step",
    "uniform_state",
]

DEFAULT_ORACLE_CAP = 8


class OracleTooLargeError(ValueError):
    """Dense-matrix oracle requested above the configured size cap."""


class Direction(IntEnum):
    """Coin-register basis order. RIGHT increases x, DOWN increases y."""

    UP = 0
    DOWN = 1
    LEFT = 2
    RIGHT = 3

    @property
    def opposite(self) -> "Direction":
        # pairs (UP, DOWN) and (LEFT, RIGHT) differ in the low bit
        return Direction(self ^ 1)


# Cell displacement per direction, indexed by Direction value.
_DX = (0, 0, -1, 1)
_DY = (-1, 1, 0, 0)


class CoinScheme(Enum):
    """Which coin pair a step applies.

    AKR: Grover diffusion D at unmarked cells, -I at marked cells.
    GROVER: D at unmarked cells, -D at marked cells.
    """

    AKR = "akr"
    GROVER = "grover"


@dataclass
class GridState:
    """Walker state on an n x n torus.

    ``amp`` has shape (4, n, n) and is indexed [direction, x, y] with real
    double-precision amplitudes (every operator here is real orthogonal).
    """

    n: int
    amp: np.ndarray

    def copy(self) -> "GridState":
        return GridState(self.n, self.amp.copy())

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.amp * self.amp)))

    def flatten(self) -> np.ndarray:
        """Amplitudes in the oracle basis order: x-major, then y, then direction."""
        return np.moveaxis(self.amp, 0, -1).flatten()

    @classmethod
    def from_flat(cls, n: int, vec: np.ndarray) -> "GridState":
        """Inverse of :meth:`flatten`."""
        return cls(n, np.moveaxis(np.asarray(vec, dtype=float).reshape((n, n, 4)), -1, 0).copy())


class MarkedSet:
    """Set of marked cells with a dense boolean membership plane.

    Coordinates are reduced modulo n; duplicates collapse. ``xs``/``ys`` hold
    the cells in sorted order for deterministic kernels. ``flat`` indexes their
    amplitudes in a flattened (4, n, n) array, cell by cell, four directions each.
    """

    def __init__(self, n: int, cells: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise ValueError(f"grid side must be positive, got {n}")
        reduced = sorted({(x % n, y % n) for x, y in cells})
        self.n = n
        self.cells = frozenset(reduced)
        self.xs = np.array([c[0] for c in reduced], dtype=np.intp)
        self.ys = np.array([c[1] for c in reduced], dtype=np.intp)
        self.mask = np.zeros((n, n), dtype=bool)
        self.mask[self.xs, self.ys] = True
        self.flat = ((self.xs * n + self.ys)[:, None] + n * n * np.arange(4)).reshape(-1)

    @classmethod
    def empty(cls, n: int) -> "MarkedSet":
        return cls(n, ())

    @classmethod
    def from_block(
        cls, n: int, origin: tuple[int, int], width: int, height: int
    ) -> "MarkedSet":
        """Rectangular block of cells anchored at ``origin`` (may wrap the torus)."""
        if width < 1 or height < 1:
            raise ValueError(f"block sides must be positive, got {width}x{height}")
        if width > n or height > n:
            raise ValueError(
                f"{width}x{height} block wraps onto itself on a side-{n} torus"
            )
        ox, oy = origin
        cells = [((ox + i) % n, (oy + j) % n) for i in range(width) for j in range(height)]
        return cls(n, cells)

    def __contains__(self, cell: tuple[int, int]) -> bool:
        x, y = cell
        return bool(self.mask[x % self.n, y % self.n])

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(zip(self.xs.tolist(), self.ys.tolist()))

    def __repr__(self) -> str:
        return f"MarkedSet(n={self.n}, k={len(self.cells)})"

    def probability(self, amp: np.ndarray) -> float:
        """Marked-set probability of a (4, n, n) amplitude array."""
        sel = amp.reshape(-1)[self.flat]
        return float(np.sum(sel * sel))


def _check_grid(state: GridState, marked: MarkedSet) -> None:
    if marked.n != state.n:
        raise ValueError(f"marked set is on a side-{marked.n} grid, state on {state.n}")


def uniform_state(n: int) -> GridState:
    """Equal superposition over all 4N basis states, amplitude 1/sqrt(4N)."""
    if n < 2:
        raise ValueError(f"grid side must be at least 2, got {n}")
    a = 1.0 / math.sqrt(4.0 * n * n)
    return GridState(n, np.full((4, n, n), a, dtype=float))


def apply_query(state: GridState, marked: MarkedSet) -> GridState:
    """Flip the sign of every amplitude at marked cells."""
    _check_grid(state, marked)
    out = state.amp.copy()
    out.reshape(-1)[marked.flat] *= -1.0
    return GridState(state.n, out)


def apply_coin(state: GridState, scheme: CoinScheme, marked: MarkedSet) -> GridState:
    """Per-cell coin with the query folded in; see :func:`_coin_into`."""
    _check_grid(state, marked)
    out = state.amp.copy()
    _coin_into(out, scheme, marked, np.empty((state.n, state.n)))
    return GridState(state.n, out)


def apply_shift(state: GridState) -> GridState:
    """Flip-flop shift: move to the adjacent cell and reverse the direction."""
    out = np.empty_like(state.amp)
    _shift_into(state.amp, out)
    return GridState(state.n, out)


def _shift_into(src: np.ndarray, dst: np.ndarray) -> None:
    """Shift permutation, written into a separate buffer (src is not read back)."""
    up, down, left, right = Direction.UP, Direction.DOWN, Direction.LEFT, Direction.RIGHT
    # UP amplitude moves to the cell above and becomes DOWN, and so on;
    # the single seam row/column carries the torus wrap.
    dst[down, :, :-1] = src[up, :, 1:]
    dst[down, :, -1] = src[up, :, 0]
    dst[up, :, 1:] = src[down, :, :-1]
    dst[up, :, 0] = src[down, :, -1]
    dst[right, :-1] = src[left, 1:]
    dst[right, -1] = src[left, 0]
    dst[left, 1:] = src[right, :-1]
    dst[left, 0] = src[right, -1]


def _coin_into(
    work: np.ndarray,
    scheme: CoinScheme,
    marked: MarkedSet,
    half_sum: np.ndarray,
) -> None:
    """Effective coin applied in place on ``work``; ``half_sum`` is (n, n) scratch.

    Unmarked cells get Grover diffusion (alpha -> s/2 - alpha with s the
    cell's amplitude sum); marked cells get the scheme's effective coin:
    -I under AKR, -D (alpha -> alpha - s/2) under GROVER.
    """
    np.add(work[0], work[1], out=half_sum)
    half_sum += work[2]
    half_sum += work[3]
    half_sum *= 0.5
    flat = work.reshape(-1)  # a view, since work is C-contiguous
    if scheme is CoinScheme.AKR:
        kept = flat[marked.flat]
    np.subtract(half_sum, work, out=work)
    if scheme is CoinScheme.GROVER:
        kept = flat[marked.flat]
    flat[marked.flat] = -kept


def step(state: GridState, scheme: CoinScheme, marked: MarkedSet) -> GridState:
    """One walk step: the fused query+coin, then the flip-flop shift.

    The operator equals S C Q where Q flips marked signs and C is the
    conditional coin (D at unmarked cells; I under AKR / D under GROVER at
    marked cells).
    """
    _check_grid(state, marked)
    src = state.amp.copy()
    dst = np.empty_like(src)
    step_into(src, dst, scheme, marked, np.empty((state.n, state.n)))
    return GridState(state.n, dst)


def step_into(
    src: np.ndarray,
    dst: np.ndarray,
    scheme: CoinScheme,
    marked: MarkedSet,
    half_sum: np.ndarray,
) -> None:
    """Allocation-light step kernel for hot loops.

    ``src`` and ``dst`` are C-contiguous (4, n, n) arrays. Mutates ``src``
    (coin phase) and writes the shifted result into ``dst``.
    """
    _coin_into(src, scheme, marked, half_sum)
    _shift_into(src, dst)


def dense_step_matrix(
    n: int,
    scheme: CoinScheme,
    marked: MarkedSet,
    cap: int = DEFAULT_ORACLE_CAP,
) -> np.ndarray:
    """Explicit S C Q as a 4N x 4N orthogonal matrix, for verification.

    Basis index is (x * n + y) * 4 + d with d in (UP, DOWN, LEFT, RIGHT).
    Assembled from the operator definitions independently of the
    structured kernel, so the two paths can check each other.
    """
    if n > cap:
        raise OracleTooLargeError(f"oracle for n={n} exceeds cap {cap}")
    dim = 4 * n * n

    def idx(x: int, y: int, d: int) -> int:
        return (x * n + y) * 4 + d

    q = np.eye(dim)
    for x, y in sorted(marked.cells):
        for d in range(4):
            q[idx(x, y, d), idx(x, y, d)] = -1.0

    d4 = 0.5 * np.ones((4, 4)) - np.eye(4)
    eye4 = np.eye(4)
    c = np.zeros((dim, dim))
    for x in range(n):
        for y in range(n):
            if (x, y) in marked and scheme is CoinScheme.AKR:
                block = eye4
            else:
                block = d4
            base = idx(x, y, 0)
            c[base : base + 4, base : base + 4] = block

    s = np.zeros((dim, dim))
    for x in range(n):
        for y in range(n):
            for d in Direction:
                nx = (x + _DX[d]) % n
                ny = (y + _DY[d]) % n
                s[idx(nx, ny, d.opposite), idx(x, y, d)] = 1.0

    return s @ c @ q


def marked_probability(state: GridState, marked: MarkedSet) -> float:
    """Probability of measuring the location register inside the marked set."""
    _check_grid(state, marked)
    return marked.probability(state.amp)


def overlap(a: GridState, b: GridState) -> float:
    """Real inner product of two states on the same grid."""
    if a.n != b.n:
        raise ValueError(f"grid sizes differ: {a.n} vs {b.n}")
    return float(np.dot(a.amp.reshape(-1), b.amp.reshape(-1)))
