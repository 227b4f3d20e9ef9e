"""Recognition and certifying decomposition of (k,l)-sparse multigraphs.

The colored pebble game recognizes exactly the (k,l)-sparse multigraphs and
simultaneously colors and orients their edges; canonical play turns that
coloring into maps-and-trees (lower range) or proper tree decompositions
(upper range), with brute-force oracles alongside for verification.
"""

from .graph import (
    GraphFormatError,
    Multigraph,
    SparsityParams,
    induced_edge_count,
    parse_graph,
    write_graph,
)
from .pebbles import (
    AddEdgeMove,
    GameState,
    IllegalMoveError,
    InsufficientPebblesError,
    ColorNotAvailableError,
    PebbleGameError,
    SlideMove,
    TraceError,
    add_edge,
    apply_move,
    bring_pebble,
    check_invariants,
    find_pebble,
    init_game,
    pebble_slide,
    reject_fast,
    replay_trace,
    trace_to_lines,
    update_components,
)
from .canonical import (
    ConstructionResult,
    canonical_add_edge,
    collect_pebbles_canonically,
    creates_monochromatic_cycle,
    monochromatic_cycle_colors,
    route_pebble,
    run_canonical_game,
)
from .decompose import (
    Certificate,
    CertificateError,
    ColoredEdge,
    Decomposition,
    NotTightError,
    TreePiece,
    certificate_from_json,
    certificate_to_json,
    certify_coloring,
    count_tree_pieces,
    count_tree_pieces_exact,
    extract_certificate,
    extract_coloring,
    extract_maps_and_trees,
    extract_proper_ltk,
    result_decomposition,
    to_dot,
    tree_pieces,
    validate_certificate,
)
from .sliders import axis_parallel_slider_check, graded_tight_check
from .oracle import (
    OracleReport,
    OracleSizeError,
    brute_force_axis_parallel,
    brute_force_graded_tight,
    brute_force_partition,
    brute_force_sparse,
    enumerate_small_multigraphs,
    enumerate_tight_graphs,
    overfull_subset,
    random_tight_graph,
)

__version__ = "0.1.0"
