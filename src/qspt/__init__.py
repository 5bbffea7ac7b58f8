"""qspt: exact q-series and partition-statistics toolkit.

Computes the smallest-part partition functions and their generalizations by
several independent routes (generating functions, combinatorial weights,
rank/crank-moment differences) with exact integer arithmetic throughout, and
verifies the identities tying the routes together.
"""

from .laurent import (
    BiSeries,
    LaurentPoly,
    build_crank_gf,
    build_jrank_gf,
    build_kn1_sides,
    build_rank_gf,
    dz_at_1,
    integer_binomial,
    symmetrized_extract,
)
from .partitions import (
    Partition,
    enumerate_partitions,
    frequency,
    is_rogers_ramanujan,
    marks,
    partition_count,
    successive_durfee,
    successive_lower_durfee,
)
from .series import (
    DiscrepancyError,
    TruncSeries,
    gauss_binomial,
    pochhammer_finite,
    pochhammer_inf,
)
from .spt import (
    SptRequest,
    chain_weight,
    gf_spt,
    gf_spt_j,
    gf_spt_k,
    gf_jspt_k,
    jspt_k,
    mark_weight,
    relation_sum,
    split_chain_weight,
    spt_j,
    spt_k,
    spt_weight,
    verify_appbp,
)
from .stats import (
    count_njm,
    crank,
    gf_njm,
    gf_sym_mu,
    jrank,
    moment,
    moment_via_sym,
    rank,
    sym_mu,
)

__version__ = "0.1.0"


__all__ = [
    "BiSeries",
    "DiscrepancyError",
    "LaurentPoly",
    "Partition",
    "SptRequest",
    "TruncSeries",
    "build_crank_gf",
    "build_jrank_gf",
    "build_kn1_sides",
    "build_rank_gf",
    "chain_weight",
    "count_njm",
    "crank",
    "dz_at_1",
    "enumerate_partitions",
    "frequency",
    "gauss_binomial",
    "gf_njm",
    "gf_spt",
    "gf_spt_j",
    "gf_spt_k",
    "gf_jspt_k",
    "gf_sym_mu",
    "integer_binomial",
    "is_rogers_ramanujan",
    "jrank",
    "jspt_k",
    "mark_weight",
    "marks",
    "moment",
    "moment_via_sym",
    "partition_count",
    "pochhammer_finite",
    "pochhammer_inf",
    "rank",
    "relation_sum",
    "split_chain_weight",
    "spt_j",
    "spt_k",
    "spt_weight",
    "successive_durfee",
    "successive_lower_durfee",
    "sym_mu",
    "symmetrized_extract",
    "verify_appbp",
]
