"""The input checks of the public functions: each bad argument raises ValueError
with its message, before any work is done."""

import re

import pytest

from qspt import laurent, partitions, series, spt, stats
from qspt.partitions import Partition
from qspt.series import TruncSeries

P = Partition((3, 2, 2, 1))
ROWS = laurent.build_crank_gf(5)

CHECKS = [
    # spt
    ("mark_weight", lambda: spt.mark_weight(P, 0), "j must be >= 1"),
    ("chain_weight", lambda: spt.chain_weight(P, 0), "k must be >= 1"),
    ("split_chain_weight", lambda: spt.split_chain_weight(P, 0, 1), "j and k must be >= 1"),
    ("spt_j", lambda: spt.spt_j(0, 1), "j and n must be >= 1"),
    ("spt_k", lambda: spt.spt_k(0, 1), "k and n must be >= 1"),
    ("jspt_k", lambda: spt.jspt_k(0, 1, 1), "j, k and n must be >= 1"),
    ("gf_spt_j", lambda: spt.gf_spt_j(0, 5), "j must be >= 1"),
    ("gf_spt_k", lambda: spt.gf_spt_k(0, 5), "k must be >= 1"),
    ("gf_jspt_k", lambda: spt.gf_jspt_k(0, 1, 5), "j and k must be >= 1"),
    ("appbp_sides", lambda: spt.appbp_sides(0, 1, 5), "r and k must be >= 1"),
    ("relation_sum", lambda: spt.relation_sum(0, 1), "j and n must be >= 1"),
    # laurent
    ("integer_binomial", lambda: laurent.integer_binomial(3, -1), "k must be nonnegative"),
    ("build_jrank_gf", lambda: laurent.build_jrank_gf(0, 5), "j must be >= 1"),
    ("build_kn1_sides", lambda: laurent.build_kn1_sides(0, 5), "j must be >= 1"),
    ("dz_at_1", lambda: laurent.dz_at_1(ROWS, -1), "derivative order must be nonnegative"),
    ("symmetrized_extract", lambda: laurent.symmetrized_extract(ROWS, 0), "k must be >= 1"),
    ("SymRows.truncate", lambda: ROWS.truncate(6), "truncation order 6 is outside 0..5"),
    # partitions: the enumeration checks n when it starts
    ("enumerate_partitions", lambda: next(partitions.enumerate_partitions(-1)),
     "n must be nonnegative"),
    ("is_rogers_ramanujan", lambda: partitions.is_rogers_ramanujan(P, 0), "s must be >= 1"),
    # series
    ("TruncSeries", lambda: TruncSeries([]),
     "a truncated series needs at least the q^0 coefficient"),
    ("TruncSeries.monomial", lambda: TruncSeries.monomial(-1, 5),
     "monomial exponent must be nonnegative"),
    ("inv_one_minus", lambda: series.inv_one_minus(0, 5), "exp and power must be positive"),
    ("gauss_binomial", lambda: series.gauss_binomial(-1, 0, 5), "n must be nonnegative"),
    # stats
    ("crank", lambda: stats.crank(Partition(())), "crank of the empty partition is undefined"),
    ("gf_njm", lambda: stats.gf_njm(0, 0, 5), "j must be >= 1"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in CHECKS],
                         ids=[case[0] for case in CHECKS])
def test_bad_argument_raises_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_negation_of_a_truncated_series():
    s = TruncSeries([1, -2, 0, 3])
    assert -s == TruncSeries([-1, 2, 0, -3])
    assert (-s).order == s.order and -(-s) == s
    assert -TruncSeries.zero(4) == TruncSeries.zero(4)
