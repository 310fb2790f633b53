"""Coined quantum walk on the n x n torus.

The walker's state lives on (cell, direction) basis states with real
amplitudes. A step applies a per-cell coin (with the marked-cell query
folded in) followed by the flip-flop shift. A dense-matrix oracle mirrors
the same operator for cross-checking on small grids.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Callable, Iterable, NamedTuple

import numpy as np

try:
    import resource
except ImportError:  # not on every platform
    resource = None

__all__ = [
    "DEFAULT_ORACLE_CAP",
    "CoinScheme",
    "Direction",
    "GridState",
    "MarkedSet",
    "OracleTooLargeError",
    "apply_coin",
    "apply_shift",
    "dense_step_matrix",
    "marked_probability",
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

    ``amp`` has shape (n, n, 4) and is indexed [x, y, direction] with real
    double-precision amplitudes (every operator here is real orthogonal),
    so ``amp.reshape(-1)`` is the oracle basis of :func:`dense_step_matrix`.
    Any other shape raises ``ValueError``; n = 4 is the one side where a
    direction-major (4, n, n) array has the same shape.
    """

    n: int
    amp: np.ndarray

    def __post_init__(self) -> None:
        if np.shape(self.amp) != (self.n, self.n, 4):
            raise ValueError(f"a side-{self.n} state has shape {(self.n, self.n, 4)}, got {np.shape(self.amp)}")

    def copy(self) -> "GridState":
        return GridState(self.n, self.amp.copy())

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.amp * self.amp)))


def _check_memory(nbytes: int, need: str) -> None:
    """Raise ``ValueError`` when ``nbytes`` exceed usable memory, before they are allocated.

    That is the smaller of physical memory and the soft address-space limit
    (``RLIMIT_AS``), each where the platform states one. ``need`` says what
    needs the bytes and how many; the message adds the limit it exceeds.
    """
    limits = []
    try:
        limits.append((os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"), "physical memory"))
    except (AttributeError, ValueError, OSError):
        pass
    if resource is not None:
        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft != resource.RLIM_INFINITY:
            limits.append((soft, "the address-space limit"))
    if limits:
        memory, what = min(limits)
        if nbytes > memory:
            raise ValueError(f"{need}, more than the {memory} bytes of {what}")


def _check_side(n: int) -> None:
    """Reject a torus side below 2, or one whose 4 n^2 amplitudes no array can index or memory hold.

    Runs before anything divides by the side or reduces modulo it.
    """
    if n < 2:
        raise ValueError(f"grid side must be at least 2, got {n}")
    if 4 * n * n > np.iinfo(np.intp).max:
        raise ValueError(f"grid side {n} is too large: its 4 n^2 amplitudes cannot be indexed")
    _check_memory(32 * n * n, f"grid side {n} needs {32 * n * n} bytes for its state")


def _check_block(n: int, width: int, height: int) -> None:
    """Reject a block side below 1, or one longer than the side-n torus it would wrap onto itself on."""
    if width < 1 or height < 1:
        raise ValueError(f"block sides must be positive, got {width}x{height}")
    if width > n or height > n:
        raise ValueError(f"{width}x{height} block wraps onto itself on a side-{n} torus")


class MarkedSet:
    """Set of marked cells with a dense boolean membership plane.

    Coordinates are reduced modulo n; duplicates collapse. ``xs``/``ys`` hold
    the cells in sorted order for deterministic kernels. ``flat`` indexes their
    amplitudes in a flattened (n, n, 4) state, the oracle basis: cell by cell,
    four directions each.
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
        self.flat = ((self.xs * n + self.ys)[:, None] * 4 + np.arange(4)).reshape(-1)

    @classmethod
    def from_block(
        cls, n: int, origin: tuple[int, int], width: int, height: int
    ) -> "MarkedSet":
        """Rectangular block of cells anchored at ``origin`` (may wrap the torus)."""
        _check_side(n)
        _check_block(n, width, height)
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


def _check_grid(n: int, marked: MarkedSet) -> None:
    if marked.n != n:
        raise ValueError(f"marked set is on a side-{marked.n} grid, state on {n}")


def uniform_state(n: int) -> GridState:
    """Equal superposition over all 4N basis states, amplitude 1/sqrt(4N), as an (n, n, 4) state."""
    _check_side(n)
    a = 1.0 / math.sqrt(4.0 * n * n)
    return GridState(n, np.full((n, n, 4), a, dtype=float))


def apply_coin(state: GridState, scheme: CoinScheme, marked: MarkedSet) -> GridState:
    """Per-cell coin with the query folded in: :func:`step`, then the shift, its own inverse.

    Kept, as :func:`apply_shift` and :func:`step_into` are, for the benchmark's probes.
    """
    return apply_shift(step(state, scheme, marked))


def apply_shift(state: GridState) -> GridState:
    """Flip-flop shift: move to the adjacent cell and reverse the direction."""
    n = state.n
    out = np.empty((n, n, 4))
    out.reshape(-1)[_torus_shift(n)] = state.amp.reshape(-1)
    return GridState(n, out)


def _mirror_axis(marked: MarkedSet, transposed: bool = False) -> int | None:
    """An axis c with (x, y) marked iff (x, c - y mod n) marked, or None.

    With ``transposed`` x and y swap roles: the axis of the x-mirror, read
    from views of the set, not from a copy. The mirror of a marked cell lies
    in its own row x, so the candidates are the sums of the first cell's y
    with the y of each cell in its row; the smallest that maps the set into
    itself maps it onto itself.
    """
    if not len(marked):
        return 0
    n, xs, ys, mask = marked.n, marked.xs, marked.ys, marked.mask
    if transposed:
        xs, ys, mask = ys, xs, mask.T
    # a set, not np.unique: numpy's sort would page in code that no step runs
    for c in sorted({(int(ys[0]) + y) % n for y in ys[xs == xs[0]].tolist()}):
        if mask[xs, (c - ys) % n].all():
            return c
    return None


class _Fold(NamedTuple):
    """The lines ``start + j`` (mod n), ``j < size``, that a walk holds along one axis of the torus.

    A line is a row (fixed x) on the x axis and a column (fixed y) on the y
    axis. With ``c`` None the fold is the whole axis (``start = 0``, ``size
    = n``). Otherwise the state is symmetric under the mirror ``p -> c - p``
    (mod n) along the axis, which swaps the axis's two directions, and the
    fold is one fundamental domain: it runs from one axis of the mirror to
    the other. An axis through a line of cells (a site axis) is a line of
    the fold, one between two lines (a bond axis) lies beyond the fold's
    edge. :meth:`fold` is the one statement of this geometry: the fold's
    :attr:`weights` and :meth:`seams` are read off it.
    """

    n: int
    start: int
    size: int
    c: int | None

    @classmethod
    def of(cls, n: int, c: int | None) -> "_Fold":
        """One fundamental domain of the mirror ``p -> c - p`` along an axis of the side-n torus.

        The domain runs from the site axis (``2 start = c``) or from the line
        past the bond axis (``2 start = c + 1``), over ``n/2 + 1`` lines between
        two site axes, ``n/2`` between two bond axes and ``(n + 1)/2`` for odd
        n, which has one of each. No axis, or a domain of fewer than 3 lines,
        keeps the whole axis.
        """
        if c is not None:
            even = n % 2 == 0
            start = (c + 1) // 2 if even else c * (n + 1) // 2 % n
            size = n // 2 + 1 if even and c % 2 == 0 else (n + 1) // 2
            if size >= 3:
                return cls(n, start, size, c)
        return cls(n, 0, n, None)

    def fold(self, ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The fold's line of each position p on the axis, and whether it is its mirror image's."""
        n, start, size, c = self
        j = (ps - start) % n
        if c is None:
            return j, np.zeros(j.shape, dtype=bool)
        mirrored = j >= size
        return np.where(mirrored, (c - ps - start) % n, j), mirrored

    @property
    def weights(self) -> np.ndarray:
        """How many torus lines each line stands for: how many positions :meth:`fold` maps onto it.

        2 off the mirror's axes, 1 on its site axes and on the whole axis.
        """
        return np.bincount(self.fold(np.arange(self.n))[0], minlength=self.size).astype(float)

    def seams(self, before: np.ndarray, after: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, ...]:
        """Frame 1's sources at the fold's edges, the lines -1 and ``size``.

        ``before`` and ``half`` of line -1, then ``after`` and ``half`` of
        line ``size``. ``before`` is the plane of the direction that moves up
        the axis (DOWN or RIGHT), ``after`` its opposite; the fold's axis is
        the first axis of all three. Each line is read at its :meth:`fold`
        line, from the opposite plane where that is its mirror image.
        """
        (j0, j1), (m0, m1) = self.fold(np.array([self.start - 1, self.start + self.size]))
        return (after if m0 else before)[j0], half[j0], (before if m1 else after)[j1], half[j1]


class _Band(NamedTuple):
    """The cells that a walk holds: the rows of fold ``x`` crossed with the columns of fold ``y``.

    Each fold is the whole axis or one fundamental domain of a mirror
    along it (see :class:`_Fold`), so the band is the whole torus, half of
    it or a quarter. It holds a state in a (4, w, h) buffer, ``w`` and ``h``
    the folds' sizes; a cell outside it is read at its mirror image, with
    UP and DOWN swapped across the y-mirror and LEFT and RIGHT across the
    x-mirror. A band cell stands for ``x.weights[i] * y.weights[j]`` cells
    of the torus: 1, 2 or 4. :func:`_frame_coins` reads the cells just
    outside it from each fold's :meth:`_Fold.seams`.
    """

    x: _Fold
    y: _Fold

    @classmethod
    def of(cls, marked: MarkedSet) -> "_Band":
        """The band a walk on ``marked`` holds: a fundamental domain of the set's x-mirror and y-mirror, if any."""
        n = marked.n
        return cls(_Fold.of(n, _mirror_axis(marked, transposed=True)), _Fold.of(n, _mirror_axis(marked)))

    def positions(self, planes: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Flat positions in the band of the amplitudes (plane, x, y), any x and y."""
        i, x_mirrored = self.x.fold(xs)
        j, y_mirrored = self.y.fold(ys)
        planes = np.where(np.where(planes < 2, y_mirrored, x_mirrored), planes ^ 1, planes)
        return ((planes * self.x.size + i) * self.y.size + j).reshape(-1)

    def frames(self, marked: MarkedSet) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the marked amplitudes in frames 0 and 1, in ``marked.flat`` order.

        Frame 1 stores direction d of cell (x, y) in plane ``d ^ 1`` of cell
        (x + dx, y + dy); see :func:`_frame_coins`. In a mirror band two or
        four entries can share a position, the amplitude and its mirror images.
        """
        xs, ys, d = marked.xs[:, None], marked.ys[:, None], np.arange(4)
        return self.positions(d, xs, ys), self.positions(d ^ 1, xs + np.array(_DX), ys + np.array(_DY))


def _frame_coins(
    work: np.ndarray,
    scheme: CoinScheme,
    half: np.ndarray,
    flats: tuple[np.ndarray, ...],
    band: _Band,
) -> tuple[Callable[[], None], Callable[[], None]]:
    """The in-place coins of ``work`` in frame 0 and in frame 1, each bound once.

    ``work`` is a (4, w, h) state held on ``band`` (see :class:`_Band`) and ``half``
    (w, h) scratch. Unmarked cells get Grover diffusion (alpha -> s/2 -
    alpha with s the cell's amplitude sum); marked cells get the scheme's
    effective coin: -I under AKR, -D (alpha -> -(s/2 - alpha)) under GROVER.
    ``flats[f]`` lists the flat positions of the marked amplitudes in frame
    f; repeats are allowed. Either coin leaves s/2 in ``half`` in cell order.
    The sum is ``(u + d) + (l + r)``, so a mirror that swaps UP and DOWN or
    LEFT and RIGHT leaves its bits unchanged.

    Frame 1 is the shift done as a relabel: after the frame-0 coin, the
    shifted state's amplitude of direction ``d`` at a cell is the one still
    stored in plane ``d ^ 1`` of the neighbour the shift takes it from:

        DOWN[x, y] = work[UP, x, y+1]      UP[x, y] = work[DOWN, x, y-1]
        RIGHT[x, y] = work[LEFT, x+1, y]   LEFT[x, y] = work[RIGHT, x-1, y]

    The frame-1 coin writes each amplitude back where it was read, so the
    next shift is again a relabel and leaves the state in frame 0. Both coins
    add in the same order as :func:`step`, so after the two coins every
    amplitude equals that of two :func:`step` calls, bit for bit. At the
    band's edges frame 1 reads DOWN and ``half`` of column -1 and UP and
    ``half`` of column h from ``band.y``'s seams, RIGHT and ``half`` of row
    -1 and LEFT and ``half`` of row w from ``band.x``'s (see
    :meth:`_Fold.seams`); the kernel is the same for the torus seams and for
    the mirrors'. Frame 1 needs w, h >= 2.

    The coins make 11 and 21 numpy calls, most on planes of a few thousand
    values, so their dispatch is much of a step's cost. Every call passes its
    output positionally, through a name bound once: a keyword ``out=``
    adds 30 to 50 ns a call (352 against 320 ns for a 16-value add).
    Frame 0 subtracts ``half`` from the four planes one by one:
    broadcasting the (w, h) operand over (4, w, h) makes numpy build an
    iterator, 5.3 against 3.2-3.5 us at 50 x 50, while at 101 x 101 the
    one call and the four take the same 10-11 us within 5%.
    """
    up, down, left, right = work
    flat = work.reshape(-1)
    lr = np.empty_like(half)
    akr = scheme is CoinScheme.AKR
    # every per-step call passes its output positionally, through these names
    add, subtract, multiply, negative, take = np.add, np.subtract, np.multiply, np.negative, flat.take

    def coin(diffuse: Callable[[], None], idx: np.ndarray) -> Callable[[], None]:
        kept = np.empty(idx.size)

        def apply() -> None:
            # every index is in range, so mode="wrap" never wraps; it costs less than
            # "clip"'s per-index clamp, and with out= the default "raise" buffers the output
            if akr:
                take(idx, None, kept, "wrap")
            diffuse()
            if not akr:
                take(idx, None, kept, "wrap")
            negative(kept, kept)
            flat[idx] = kept
        return apply

    def diffuse0() -> None:
        add(up, down, half)
        add(left, right, lr)
        add(half, lr, half)
        multiply(half, 0.5, half)
        # plane by plane, which costs less than broadcasting half over work
        subtract(half, up, up)
        subtract(half, down, down)
        subtract(half, left, left)
        subtract(half, right, right)

    h_flat, seam = half.reshape(-1), np.empty(work.shape[1])
    up_flat, down_flat = up.reshape(-1), down.reshape(-1)
    down_before, half_before, up_after, half_after = band.y.seams(down.T, up.T, half.T)
    right_before, row_before, left_after, row_after = band.x.seams(right, left, half)
    # UP + DOWN of cell (x, y) sit at down[x, y-1] and up[x, y+1]: one flat
    # offset op for the bulk; the seam columns 0 and h-1 read the seams
    ud_bulk = down_flat[:-2], up_flat[2:], h_flat[1:-1]
    ud_first = down_before, up[:, 1], half[:, 0]
    ud_last = down[:, -2], up_after, half[:, -1]
    # LEFT + RIGHT of cell (x, y) sit at right[x-1, y] and left[x+1, y]; the
    # seam rows 0 and w-1 read the seams
    lr_bulk = right[:-2], left[2:], lr[1:-1]
    lr_first = right_before, left[1], lr[0]
    lr_last = right[-2], left_after, lr[-1]
    h_fwd, d_col_last, d_head = h_flat[1:], down[:, -1], down_flat[:-1]
    h_back, u_col0, u_tail = h_flat[:-1], up[:, 0], up_flat[1:]
    h_head, h_tail, l_tail, r_head = half[:-1], half[1:], left[1:], right[:-1]
    l_row0, r_row_last = left[0], right[-1]

    def diffuse1() -> None:
        add(*ud_bulk)
        add(*ud_first)
        add(*ud_last)
        add(*lr_bulk)
        add(*lr_first)
        add(*lr_last)
        add(half, lr, half)
        multiply(half, 0.5, half)
        # the flat writes of the y-displaced planes run over their seam column
        # before it is read, so each seam goes through the scratch first
        subtract(half_after, d_col_last, seam)
        subtract(h_fwd, d_head, d_head)
        d_col_last[...] = seam
        subtract(half_before, u_col0, seam)
        subtract(h_back, u_tail, u_tail)
        u_col0[...] = seam
        subtract(h_head, l_tail, l_tail)
        subtract(row_before, l_row0, l_row0)
        subtract(h_tail, r_head, r_head)
        subtract(row_after, r_row_last, r_row_last)

    return coin(diffuse0, flats[0]), coin(diffuse1, flats[1])


def step(state: GridState, scheme: CoinScheme, marked: MarkedSet) -> GridState:
    """One walk step: the fused query+coin, then the flip-flop shift.

    The operator equals S C Q where Q flips marked signs and C is the
    conditional coin (D at unmarked cells; I under AKR / D under GROVER at
    marked cells). It is the torus's reference step, :func:`_located_step`
    on the state's own oracle-basis buffer with each cell summed ``(u + d) +
    (l + r)``, the order of the run's coins; no run calls it.
    """
    _check_grid(state.n, marked)
    a = state.amp.reshape(-1)
    sums = (a[0::4] + a[1::4]) + (a[2::4] + a[3::4])
    return GridState(state.n, _located_step(a, *_torus_arcs(marked), scheme, sums).reshape(state.amp.shape))


def step_into(
    src: np.ndarray, dst: np.ndarray, scheme: CoinScheme, marked: MarkedSet, half_sum: np.ndarray
) -> None:
    """Write :func:`step` of the (n, n, 4) state ``src`` into ``dst``; kept for the benchmark's probes.

    ``src`` and ``half_sum`` are left as they are.
    """
    dst[...] = step(GridState(src.shape[0], src), scheme, marked).amp


def dense_step_matrix(
    n: int,
    scheme: CoinScheme,
    marked: MarkedSet,
    cap: int = DEFAULT_ORACLE_CAP,
) -> np.ndarray:
    """Explicit S C Q as a 4N x 4N orthogonal matrix, for verification.

    Basis index is (x * n + y) * 4 + d with d in (UP, DOWN, LEFT, RIGHT).
    Assembled by :func:`_dense_scq` from the operator definitions,
    independently of the structured kernel, so the two paths can check
    each other.
    """
    if n > cap:
        raise OracleTooLargeError(f"oracle for n={n} exceeds cap {cap}")
    _check_grid(n, marked)
    dim = 4 * n * n
    # at its peak the product holds five dim x dim matrices: q, c, s, s @ c and the result
    _check_memory(40 * dim * dim, f"oracle for n={n} needs {40 * dim * dim} bytes")
    return _dense_scq(*_torus_arcs(marked), scheme)


@functools.lru_cache(maxsize=4)
def _torus_shift(n: int) -> np.ndarray:
    """Where the flip-flop shift moves each amplitude, in the oracle basis.

    Direction d of cell (x, y) goes to direction d ^ 1 of cell (x + dx,
    y + dy). Built once per side, read-only, from ``_DX``/``_DY``, not from
    the kernel's shift, so the oracle and the conditions stay independent of it.
    """
    x, y, d = np.arange(n)[:, None, None], np.arange(n)[:, None], np.arange(4)
    target = (((x + np.array(_DX)) % n * n + (y + np.array(_DY)) % n) * 4 + (d ^ 1)).reshape(-1)
    target.flags.writeable = False
    return target


def _torus_arcs(marked: MarkedSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The torus in the oracle basis as located amplitudes: offsets, marked cells and shift target."""
    n = marked.n
    return np.arange(0, 4 * n * n + 1, 4), marked.xs * n + marked.ys, _torus_shift(n)


def _dense_scq(
    offsets: np.ndarray, marked: Iterable[int], target: np.ndarray, scheme: CoinScheme
) -> np.ndarray:
    """S C Q as a dense matrix over amplitudes grouped by location: a torus or a graph.

    Location v owns amplitudes ``offsets[v]:offsets[v + 1]``. Q negates the
    ``marked`` locations. C is the Grover diffusion (2/d) J - I of each
    location's degree d, or I at marked locations under AKR. S moves
    amplitude k to ``target[k]``.
    """
    dim, degrees = int(offsets[-1]), np.diff(offsets)
    owner = np.repeat(np.arange(degrees.size), degrees)
    marked_amps = np.flatnonzero(np.isin(owner, marked))
    q = np.eye(dim)
    q[marked_amps, marked_amps] = -1.0
    c = np.where(owner[:, None] == owner, (2.0 / degrees)[owner][:, None], 0.0)
    c.flat[:: dim + 1] -= 1.0
    if scheme is CoinScheme.AKR:
        c[marked_amps] = 0.0
        c[marked_amps, marked_amps] = 1.0
    s = np.zeros((dim, dim))
    s[target, np.arange(dim)] = 1.0
    return s @ c @ q


def _located_step(
    amp: np.ndarray,
    offsets: np.ndarray,
    marked: Iterable[int],
    target: np.ndarray,
    scheme: CoinScheme,
    sums: np.ndarray,
) -> np.ndarray:
    """S C Q applied to ``amp``, grouped as in :func:`_dense_scq`: the reference step of both targets.

    ``sums[v]`` is the amplitude sum of location v, added in the order the
    target's run adds it. Unmarked amplitudes get 2 s / d - alpha; marked
    ones -alpha under AKR and -(2 s / d - alpha) under GROVER, the query
    folded in. It shares no code with the run kernels, so the tests that
    compare a run with it check both.
    """
    degrees = np.diff(offsets)
    mean2 = np.repeat(sums * 2.0 / degrees, degrees)
    fix = np.repeat(np.isin(np.arange(degrees.size), marked), degrees)
    c = mean2 - amp
    c[fix] = -amp[fix] if scheme is CoinScheme.AKR else -c[fix]
    out = np.empty_like(c)
    out[target] = c
    return out


def _stationarity(
    amp: np.ndarray, offsets: np.ndarray, marked: Iterable[int], target: np.ndarray, tol: float
) -> tuple[bool, bool, bool]:
    """The three stationarity conditions, over amplitudes grouped as in :func:`_dense_scq`.

    1. the amplitudes of unmarked locations are all equal,
    2. the amplitudes of each marked location sum to zero,
    3. each amplitude equals the one at its shift target.
    """
    degrees = np.diff(offsets)
    is_marked = np.isin(np.arange(degrees.size), marked)
    unmarked = amp[~np.repeat(is_marked, degrees)]
    cond1 = unmarked.size == 0 or bool(np.max(np.abs(unmarked - unmarked.mean())) <= tol)
    cond2 = bool(np.all(np.abs(np.add.reduceat(amp, offsets[:-1])[is_marked]) <= tol))
    cond3 = bool(np.max(np.abs(amp - amp[target])) <= tol)
    return cond1, cond2, cond3


def _located_probability(amp: np.ndarray, idxs: np.ndarray) -> float:
    """The squared norm of ``amp[idxs]``, added pairwise as a run adds a block row: both targets' reference."""
    sel = amp[idxs]
    return float(np.add.reduce(sel * sel))


def marked_probability(state: GridState, marked: MarkedSet) -> float:
    """Probability of measuring the location register inside the marked set, by :func:`_located_probability`."""
    _check_grid(state.n, marked)
    return _located_probability(state.amp.reshape(-1), marked.flat)
