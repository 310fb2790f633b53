"""Coined quantum-walk search on torus grids and general graphs.

Simulates the walk under the AKR and Grover coin pairs, builds and verifies
the stationary states behind the exceptional marked configurations, and
reproduces the step/probability/runtime benchmark tables.

The package exports the ``__all__`` of each library module. ``coinwalk.cli``
is not imported here; the console script loads it.
"""

from . import graph, grid, runner, stationary
from .graph import *
from .grid import *
from .runner import *
from .stationary import *

__all__ = [*grid.__all__, *graph.__all__, *runner.__all__, *stationary.__all__]

__version__ = "0.1.0"
