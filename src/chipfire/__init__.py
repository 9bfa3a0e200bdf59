"""Chip-firing on the first-quadrant lattice: streaming tables and checks.

The package computes the arrival table of the game that starts with
``2**n`` chips at the origin, derives the stable configuration, distance
distribution, firing counts, row structure, and difference tables from it,
and cross-validates everything against a brute-force simulator at small n.

Submodules ``render`` and ``cli`` (SVG figures and the command-line front
end) are imported on demand.
"""

from .core import (
    MAX_EXPONENT,
    ChipOverflowError,
    ChipfireError,
    Row,
    RowCapExceededError,
    initial_row,
    intermediate_configuration,
    next_row,
    row_bound,
)
from .stable import (
    DistanceDistribution,
    ParityError,
    StableRow,
    distance_distribution,
    firing_routes,
    second_raw_moment,
    stable_configuration,
    stable_row,
    total_firings,
)
from .structure import (
    BottomTriangleReport,
    DegenerateSegmentationError,
    LongestRow,
    RowProfile,
    Segmentation,
    check_bottom_conjecture,
    is_minimal,
    longest_row,
    minimal_row,
    minimal_row_sum,
    pascal_row,
    row_profile,
    segment,
)
from .difftable import (
    DiffRow,
    SignRow,
    diff_row,
    diff_table,
    row_max_abs,
    sign_map,
    unimodal_check,
)
from .oracle import (
    ConfluenceReport,
    OracleState,
    STRATEGIES,
    arrivals,
    confluence_check,
    simulate,
)
from .sequences import SEQUENCES, SequenceTable, generate, half_nonzero_rows
from .checks import CheckResult, failures, minimal_descent_check, run_checks

__version__ = "0.1.0"

__all__ = [
    "MAX_EXPONENT",
    "ChipfireError",
    "ChipOverflowError",
    "RowCapExceededError",
    "ParityError",
    "DegenerateSegmentationError",
    "Row",
    "initial_row",
    "next_row",
    "intermediate_configuration",
    "row_bound",
    "StableRow",
    "DistanceDistribution",
    "stable_row",
    "stable_configuration",
    "distance_distribution",
    "firing_routes",
    "second_raw_moment",
    "total_firings",
    "RowProfile",
    "LongestRow",
    "Segmentation",
    "BottomTriangleReport",
    "pascal_row",
    "row_profile",
    "longest_row",
    "minimal_row",
    "minimal_row_sum",
    "is_minimal",
    "segment",
    "check_bottom_conjecture",
    "DiffRow",
    "SignRow",
    "diff_row",
    "diff_table",
    "row_max_abs",
    "unimodal_check",
    "sign_map",
    "OracleState",
    "ConfluenceReport",
    "STRATEGIES",
    "simulate",
    "arrivals",
    "confluence_check",
    "SequenceTable",
    "SEQUENCES",
    "generate",
    "half_nonzero_rows",
    "CheckResult",
    "run_checks",
    "failures",
    "minimal_descent_check",
]
