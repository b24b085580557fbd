"""Exact decision procedures for group-valued flow-continuous edge maps.

An edge map between multidigraphs is flow-continuous over a group when
every flow on the target pulls back to a flow on the source.  This
package decides that exactly for any finitely generated abelian group,
collapses the whole family of such questions per map into one gcd,
computes divisor down-sets at map and graph level, and constructs
digraph pairs realizing any prescribed down-set.
"""

from .algebra import (
    FFSet,
    Group,
    GroupSyntaxError,
    cone_member,
    decompose_in_cone,
    direct_product,
    divisors,
    exponent,
    next_prime_above,
    parse_group,
)
from .constructions import (
    DigonFamily,
    WitnessPlan,
    WitnessReport,
    as_digon_union,
    build_witness,
    digon_union_witness,
    ff_set_digons,
    verify_witness,
)
from .decide import (
    EdgeMap,
    FailureCertificate,
    constant_map,
    discrepancy,
    ff_gcd,
    format_edge_map,
    index_bijection,
    is_ff_group,
    is_ff_n,
    oracle_count_ff_maps,
    oracle_is_ff_group,
    parse_edge_map,
    refuting_flows,
)
from .ffsets import (
    EquivalenceReport,
    SearchOutcome,
    count_ff_maps,
    exists_ff_map,
    ff_set_of_graphs,
    gcd_histogram,
    subcubic_equivalence_check,
)
from .flows import (
    BudgetExceededError,
    DEFAULT_FLOW_BUDGET,
    DEFAULT_MAP_BUDGET,
    circuit_matrix,
    count_nowhere_zero_flows,
    enumerate_flows,
    filter_flows,
    incidence_matrix,
    is_flow,
)
from .graphs import (
    BUILTIN_NAMES,
    GraphFormatError,
    MultiDigraph,
    SpanningStructure,
    builtin,
    dicycle,
    digon,
    disjoint_union,
    format_digraph,
    k4,
    loop,
    parse_digraph,
    petersen,
    spanning_structure,
)
from .selftest import SuiteResult, run_selftest

__version__ = "0.1.0"

