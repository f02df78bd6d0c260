"""Exact analysis of set-valued "interference" labelings on small graphs.

A labeling assigns each vertex a distinct nonempty subset of a ground set;
it interferes for a target vertex set D when every outside vertex shares a
label element with some neighbor inside D.  The package decides these
predicates, computes smallest-ground-set interference indices by complete
search, evaluates the structural criteria for neighborhood-derived, edge
(line-graph) and distance-pattern labelings, and cross-checks everything
against brute-force definitional oracles over exhaustive small-graph
catalogs.
"""

from .bitset import bit_list, check_set, iter_bits, mask_of
from .catalog import (
    MAX_CATALOG_N,
    all_graphs,
    certificate,
    connected_graphs,
    connected_graphs_upto,
    graphs_upto,
)
from .core import (
    Pattern,
    SetLabeling,
    Violation,
    build_complete_interference,
    expand_pattern,
    is_complete_interference,
    is_interference,
    is_pattern_interference,
    is_valid_labeling,
    overlap_graph,
    overlap_violation,
    pattern_violations,
)
from .domination import (
    all_dominating_sets,
    dominating_family,
    is_dominating,
    minimal_dominating_sets,
)
from .dpd import (
    distance_pattern,
    dpd_interference_check,
    is_dpd_set,
    path_dpd_set,
)
from .errors import (
    CapExceededError,
    GraphFormatError,
    HypothesisViolation,
    InterfereError,
    NoDominatingSetError,
    SearchBudgetExceeded,
)
from .families import (
    complete,
    complete_bipartite,
    crown,
    cycle,
    generate_family,
    helm,
    husimi,
    matching,
    parse_family_spec,
    path,
    star,
    star_polygon,
    wheel,
    windmill,
)
from .graphs import (
    INFINITY,
    Graph,
    bfs_layers,
    closed_neighborhood,
    complemented_neighborhood,
    components,
    diameter,
    fingerprint,
    from_edge_list,
    from_graph6,
    is_connected,
    is_point_determining,
    is_regular,
    line_graph,
    to_edge_list_text,
    to_graph6,
)
from .index_search import (
    DEFAULT_BUDGET,
    CrossIntersectingResult,
    IndexResult,
    PhaseOutcome,
    bipartite_index,
    bipartite_index_upper_bound,
    ceil_log2,
    exists_interference,
    index_lower_bound,
    interference_index,
    max_cross_intersecting,
    universal_upper_bound,
)
from .linegraph import (
    InjectivityReport,
    LineCompleteReport,
    edge_mask,
    line_complemented_independence_rule,
    line_complemented_regular_rule,
    line_complemented_size_rule,
    line_complete_report,
    line_injectivity_report,
)
from .neighborhood import (
    DEGREE_SUM_RULE,
    DISTANCE2_RULE,
    REGULAR_RULE,
    LabelingReport,
    closed_labeling,
    complemented_complete,
    complemented_escape_family,
    complemented_escapes,
    complemented_interference_of,
    complemented_labeling,
    complemented_sufficient_rule,
    neighborhood_complete,
    neighborhood_interference_of,
    neighborhood_labeling,
    two_path_complete,
    two_path_graph,
)

__version__ = "0.1.0"
