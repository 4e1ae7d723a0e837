"""Delta edge coloring of dense graphs.

Multigraphs with stable edge identities, overfull analytics, Kempe-chain
machinery, the classical constructive toolkit (Hakimi, Dirac, König,
matchings, path covers), a guarded Delta-coloring engine for dense near
star-multigraphs of even order, the odd-order reduction pipeline, and
exact brute-force oracles for small instances.
"""

from .coloring import (
    EdgeColoring,
    KempeChain,
    ProperReport,
    alternating_path,
    flip_path,
    kempe_chain,
    kempe_swap,
    verify_proper,
)
from .classic import (
    dirac_hamiltonian,
    hakimi_realize,
    konig_color,
    path_cover_matching,
    path_cover_star,
    perfect_matching_bipartite_star,
    perfect_matching_dense,
)
from .engine import EngineParams, classify_condition, dcolor, select_pairs
from .equalize import equalize_balanced_sides, equalize_classes, equalize_per_side
from .formats import emit_graph, parse_graph, read_graph, write_graph
from .multigraph import (
    DeficiencyReport,
    Multigraph,
    StarProfile,
    build_multigraph,
    compute_W,
    deficiency_report,
    detect_star_structure,
    is_overfull,
    overfull_deficiency,
)
from .oracle import OracleResult, brute_chromatic_index, brute_overfull_scan
from .partition import Partition, adjust_for_center, balanced_partition, build_split
from .reduction import color_odd_dense, derive_eta
from .trace import PipelineTrace, Result
from .vizing import misra_gries, near_star_color

__all__ = [
    "DeficiencyReport",
    "EdgeColoring",
    "EngineParams",
    "KempeChain",
    "Multigraph",
    "OracleResult",
    "Partition",
    "PipelineTrace",
    "ProperReport",
    "Result",
    "StarProfile",
    "adjust_for_center",
    "alternating_path",
    "balanced_partition",
    "brute_chromatic_index",
    "brute_overfull_scan",
    "build_multigraph",
    "build_split",
    "classify_condition",
    "color_odd_dense",
    "compute_W",
    "dcolor",
    "deficiency_report",
    "derive_eta",
    "detect_star_structure",
    "dirac_hamiltonian",
    "emit_graph",
    "equalize_balanced_sides",
    "equalize_classes",
    "equalize_per_side",
    "flip_path",
    "hakimi_realize",
    "is_overfull",
    "kempe_chain",
    "kempe_swap",
    "konig_color",
    "misra_gries",
    "near_star_color",
    "overfull_deficiency",
    "parse_graph",
    "path_cover_matching",
    "path_cover_star",
    "perfect_matching_bipartite_star",
    "perfect_matching_dense",
    "read_graph",
    "select_pairs",
    "verify_proper",
    "write_graph",
]
