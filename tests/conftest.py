"""Shared test helpers: acceptance-criterion recording and summary printout, a bitwise array check,
the two views between a state's (n, n, 4) layout and the run's direction-major planes, and a fake
clock for the runner."""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import numpy as np
from numpy.testing import assert_array_equal

_ACCEPTANCE_RESULTS: list[tuple[float, str, bool, str]] = []


def record_criterion(num: float, description: str, passed: bool, detail: str = "") -> None:
    """Register one acceptance-criterion outcome for the terminal summary."""
    _ACCEPTANCE_RESULTS.append((num, description, passed, detail))


def assert_same_bits(a, b) -> None:
    """The two float arrays hold the same bits: unlike ``==``, this tells -0.0 from +0.0."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert_array_equal(a.view(np.int64), b.view(np.int64))


def planes(amp):
    """The (4, n, n) direction-major view of an (n, n, 4) state: the layout of the run's band."""
    return np.moveaxis(amp, -1, 0)


def from_planes(work):
    """The (n, n, 4) view of a direction-major (4, n, n) array: the layout of a ``GridState``."""
    return np.moveaxis(work, 0, -1)


def fake_clock(monkeypatch, calls):
    """Make the runner's clock read 0.0 for its first ``calls`` reads and 10.0 after."""
    from coinwalk import runner

    reads = itertools.count()
    monkeypatch.setattr(runner, "time", SimpleNamespace(monotonic=lambda: 0.0 if next(reads) < calls else 10.0))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, desc, ok, detail in sorted(_ACCEPTANCE_RESULTS, key=lambda r: r[0]):
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] criterion {num:g}: {desc}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)
