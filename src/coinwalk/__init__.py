"""Coined quantum-walk search on torus grids and general graphs.

Simulates the walk under the AKR and Grover coin pairs, builds and verifies
the stationary states behind the exceptional marked configurations, and
reproduces the step/probability/runtime benchmark tables.
"""

from .graph import (
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
from .grid import (
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
from .runner import (
    RatioRow,
    RunSeries,
    TableReport,
    TableRow,
    centered_block,
    default_horizon,
    detect_peak,
    reproduce_tables,
    run_graph_walk,
    run_walk,
    runtime_metric,
)
from .stationary import (
    BlockSpec,
    Decomposition,
    InvalidTilingError,
    OddOddBlockError,
    StationaryCandidate,
    build_block_layered,
    build_block_tiling,
    build_domino_state,
    check_conditions,
    decompose_initial,
)

__version__ = "0.1.0"
