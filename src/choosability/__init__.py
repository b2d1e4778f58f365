"""Extremal list assignments and separation choosability of complete graphs.

Builds finite-field list assignments on K_n that are valid for a given
pairwise-intersection cap yet use fewer colors than vertices, decides
list-colorability by bipartite matching with Hall-violator certificates,
and computes exact-rational bounds (with the windows of n where lower and
upper bound meet) plus a desk-scale exhaustive oracle.
"""

from .bounds import (
    AdmissibilityViolated,
    BoundsReport,
    ExactWindow,
    bounds_report,
    exact_window,
    is_admissible,
    johnson_bound,
    johnson_threshold,
    ktv_reference_bounds,
    lower_bound_constructive,
    upper_bound,
    vertex_count_bound,
)
from .construction import (
    ClassSpace,
    DesignReport,
    augmented_hypergraph,
    hard_instance,
    verify_design,
)
from .gf import FiniteField, NotPrimePower, OrderUnavailable
from .instances import ColorOutOfRange, ListAssignment
from .oracle import (
    ProbeReport,
    SearchTooLarge,
    SmallGraph,
    chi_l_complete_search,
    chi_l_graph_search,
    complete_graph,
    conjecture_probe,
    iter_canonical_assignments,
    list_colorable_graph,
)
from .solver import (
    ColorabilityResult,
    ValidityReport,
    check_certificate,
    colorable,
    validate_assignment,
    verify_coloring,
)

__version__ = "0.1.0"
