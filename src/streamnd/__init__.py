"""Single-pass streaming algorithms for survivable network design:
fault-tolerant spanners, exact post-stream solving, and vertex-connectivity
augmentation for trees and 2-connected graphs, with brute-force oracles."""

from .errors import (
    ContractViolationError,
    InfeasibleError,
    ParseError,
    ResourceLimitError,
)
from .graph import (
    ConnectivityMode,
    Graph,
    RequirementMap,
    check_feasible,
    is_k_connected,
    load_graph,
    load_reliability,
    load_requirements,
    pair_connectivity,
    save_graph,
)
from .streams import BucketScheme, EdgeStream, StreamingMst, open_stream
from .spanner import (
    FaultMode,
    FtConfig,
    FtSpannerState,
    TestKind,
    build_spanner,
    extract_disjoint_paths,
    ft_test_exact,
    ft_test_peeling_eft,
    verify_ft_spanner,
)
from .framework import Analysis, FrameworkConfig, exact_solve, run_framework
from .cap1 import Cap1State, LinkRec, RootedTree
from .spqr import (
    SpqrNode,
    SpqrTree,
    build_spqr,
    enumerate_two_cuts,
    to_debug_lines,
)
from .cap2 import Cap2State
from .oracle import (
    Family,
    Instance,
    InstanceGenerator,
    brute_optimal,
    generate,
    max_disjoint_paths,
    offline_mst_weight,
)

__all__ = [
    "Analysis",
    "BucketScheme",
    "Cap1State",
    "Cap2State",
    "ConnectivityMode",
    "ContractViolationError",
    "EdgeStream",
    "Family",
    "FaultMode",
    "FrameworkConfig",
    "FtConfig",
    "FtSpannerState",
    "Graph",
    "InfeasibleError",
    "Instance",
    "InstanceGenerator",
    "LinkRec",
    "ParseError",
    "RequirementMap",
    "ResourceLimitError",
    "RootedTree",
    "SpqrNode",
    "SpqrTree",
    "StreamingMst",
    "TestKind",
    "brute_optimal",
    "build_spanner",
    "build_spqr",
    "check_feasible",
    "enumerate_two_cuts",
    "exact_solve",
    "extract_disjoint_paths",
    "ft_test_exact",
    "ft_test_peeling_eft",
    "generate",
    "is_k_connected",
    "load_graph",
    "load_reliability",
    "load_requirements",
    "max_disjoint_paths",
    "offline_mst_weight",
    "open_stream",
    "pair_connectivity",
    "run_framework",
    "save_graph",
    "to_debug_lines",
    "verify_ft_spanner",
]
