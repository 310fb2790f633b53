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
from typing import Callable, Iterable, Iterator

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


def _check_side(n: int) -> None:
    """Reject a torus side below 2, or one whose 4 n^2 amplitudes no array can index.

    Runs before anything divides by the side or reduces modulo it.
    """
    if n < 2:
        raise ValueError(f"grid side must be at least 2, got {n}")
    if 4 * n * n > np.iinfo(np.intp).max:
        raise ValueError(f"grid side {n} is too large: its 4 n^2 amplitudes cannot be indexed")


class MarkedSet:
    """Set of marked cells with a dense boolean membership plane.

    Coordinates are reduced modulo n; duplicates collapse. ``xs``/``ys`` hold
    the cells in sorted order for deterministic kernels. ``flat`` indexes their
    amplitudes in a flattened (4, n, n) array, cell by cell, four directions each.
    """

    def __init__(self, n: int, cells: Iterable[tuple[int, int]] = ()):
        _check_side(n)
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
        _check_side(n)
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


def _check_grid(state: GridState, marked: MarkedSet) -> None:
    if marked.n != state.n:
        raise ValueError(f"marked set is on a side-{marked.n} grid, state on {state.n}")


def uniform_state(n: int) -> GridState:
    """Equal superposition over all 4N basis states, amplitude 1/sqrt(4N)."""
    _check_side(n)
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
    """Effective coin applied in place on ``work``: the frame-0 coin of :func:`_frame_coins`."""
    next(_frame_coins(work, scheme, marked, half_sum))[0]()


def _frame_coins(
    work: np.ndarray, scheme: CoinScheme, marked: MarkedSet, half: np.ndarray
) -> Iterator[tuple[Callable[[], None], np.ndarray]]:
    """Yield the in-place coin of ``work`` in frame 0, then in frame 1, each bound once.

    Unmarked cells get Grover diffusion (alpha -> s/2 - alpha with s the
    cell's amplitude sum); marked cells get the scheme's effective coin: -I
    under AKR, -D (alpha -> alpha - s/2) under GROVER. Either coin leaves
    s/2 in ``half`` ((n, n) scratch) in cell order.

    Frame 1 is the shift done as a relabel: after the frame-0 coin, the
    shifted state's amplitude of direction ``d`` at a cell is the one still
    stored in plane ``d ^ 1`` of the neighbour the shift takes it from:

        DOWN[x, y] = work[UP, x, y+1]      UP[x, y] = work[DOWN, x, y-1]
        RIGHT[x, y] = work[LEFT, x+1, y]   LEFT[x, y] = work[RIGHT, x-1, y]

    The frame-1 coin writes each amplitude back where it was read, so the
    next shift is again a relabel and leaves the state in frame 0. Both coins
    add in the same order, so every amplitude is bit-identical to
    ``step_into``. Each coin comes paired with the flat positions, in its
    frame, of the amplitudes ``marked.flat`` lists. A caller that needs only
    frame 0 takes ``next()``; frame 1 needs n >= 2.
    """
    up, down, left, right = work
    flat, kept = work.reshape(-1), np.empty(4 * len(marked))
    akr = scheme is CoinScheme.AKR

    def coin(diffuse: Callable[[], None], idx: np.ndarray) -> Callable[[], None]:
        def apply() -> None:
            # mode="clip" never clips here; with out=, the default mode buffers the output
            if akr:
                flat.take(idx, out=kept, mode="clip")
            diffuse()
            if not akr:
                flat.take(idx, out=kept, mode="clip")
            np.negative(kept, out=kept)
            flat[idx] = kept
        return apply

    def diffuse0() -> None:
        np.add(up, down, out=half)
        np.add(half, left, out=half)
        np.add(half, right, out=half)
        np.multiply(half, 0.5, out=half)
        np.subtract(half, work, out=work)

    yield coin(diffuse0, marked.flat), marked.flat

    n, h_flat = work.shape[1], half.reshape(-1)
    # frame 1 stores direction d of cell (x, y) in plane d ^ 1 of cell (x + dx, y + dy)
    xs1, ys1 = (marked.xs[:, None] + _DX) % n, (marked.ys[:, None] + _DY) % n
    flat1 = ((np.arange(4) ^ 1) * n * n + xs1 * n + ys1).reshape(-1)
    up_flat, down_flat, seam = up.reshape(-1), down.reshape(-1), np.empty(n)
    h_head, h_tail, l_tail, r_head = half[:-1], half[1:], left[1:], right[:-1]
    # rows (0, n-1) of half and the rows that wrap the torus into them: RIGHT's
    # row n-1 and LEFT's row 0, the rows 4n-1 and 2n of the (4n, n) state
    h_wraps, x_wraps = half[:: n - 1], work.reshape(4 * n, n)[4 * n - 1 : 1 : 1 - 2 * n]
    # UP + DOWN of cell (x, y) sit at down[x, y-1] and up[x, y+1]: one flat
    # offset op for the bulk; the seam columns y = 0 and n-1 wrap the torus,
    # one view for both: columns (0, n-1) of half <- (n-1, n-2) of down, (1, 0) of up
    ud_bulk = down_flat[:-2], up_flat[2:], h_flat[1:-1]
    ud_seams = down[:, :-3:-1], up[:, 1::-1], half[:, :: n - 1]
    h_col0, h_fwd, d_col_last, d_head = half[:, 0], h_flat[1:], down[:, -1], down_flat[:-1]
    h_col_last, h_back, u_col0, u_tail = half[:, -1], h_flat[:-1], up[:, 0], up_flat[1:]

    def diffuse1() -> None:
        np.add(*ud_bulk)
        np.add(*ud_seams)
        # RIGHT comes before LEFT in every cell, as in frame 0
        np.add(h_tail, r_head, out=h_tail)
        np.add(h_wraps, x_wraps, out=h_wraps)
        np.add(h_head, l_tail, out=h_head)
        np.multiply(half, 0.5, out=half)
        # the flat writes of the y-displaced planes run over their seam column
        # before it is read, so each seam goes through the scratch first
        np.subtract(h_col0, d_col_last, out=seam)
        np.subtract(h_fwd, d_head, out=d_head)
        d_col_last[...] = seam
        np.subtract(h_col_last, u_col0, out=seam)
        np.subtract(h_back, u_tail, out=u_tail)
        u_col0[...] = seam
        np.subtract(h_head, l_tail, out=l_tail)
        np.subtract(h_tail, r_head, out=r_head)
        np.subtract(h_wraps, x_wraps, out=x_wraps)

    yield coin(diffuse1, flat1), flat1


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
    """The reference step of :func:`step` on caller-owned buffers.

    ``src`` and ``dst`` are C-contiguous (4, n, n) arrays. Mutates ``src``
    (coin phase) and writes the shifted result into ``dst``. No run calls
    it: ``run_walk`` runs the coins of :func:`_frame_coins` without a shift.
    Tests and the benchmark's per-layer probes drive it.
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
    sel = state.amp.reshape(-1)[marked.flat]
    return float(np.sum(sel * sel))


def overlap(a: GridState, b: GridState) -> float:
    """Real inner product of two states on the same grid."""
    if a.n != b.n:
        raise ValueError(f"grid sizes differ: {a.n} vs {b.n}")
    return float(np.dot(a.amp.reshape(-1), b.amp.reshape(-1)))
