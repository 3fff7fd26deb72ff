"""Dependence-closed collections over pre-ordered atom sets.

The carrier is a set of atoms with a reflexive-transitive dependence
relation; the nonempty downward-closed subsets are the magmas of level 1,
the shifted relation lifts the pre-order to the powerset, and iterating
the construction through inclusion yields the hierarchy of higher levels.
Everything is decidable at desk scale and ships with an exhaustive
small-model verification harness (``magmas verify``).
"""

from .preorder import (
    AtomSet,
    CapExceeded,
    PreOrder,
    build,
    count_preorders,
    enumerate_preorders,
    format_atom_set,
    format_preorder,
    load_preorder,
    parse_atom_set,
    parse_preorder,
)
from .topology import (
    down_closure,
    enumerate_opens,
    is_lower_open,
    is_minimal_open,
    minimal_opens,
)
from .shifting import (
    ConnectionCheck,
    check_connection,
    powerset_masks,
    pr_plus,
    preorder_of_opens,
    shift_leq,
    shifted_is_total,
    shifted_opens_match,
)
from .symbolic import (
    GenOpen,
    SymbolicPreOrder,
    binary_string_model,
    clustered_model,
    gen_equal,
    gen_intersect,
    gen_member,
    gen_subset,
    members_up_to,
    model_by_name,
    strict_shrink,
    validate_model,
)
from .hierarchy import (
    Hierarchy,
    HierarchyLevel,
    MElem,
    Membership,
    UnionReport,
    hf_rank,
    hf_union,
    parse_value,
    render_value,
)
from .verify import (
    ConfigError,
    Counterexample,
    Report,
    SuiteConfig,
    SUITES,
    render_report,
    replay,
    report_to_json,
    run_suite,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
