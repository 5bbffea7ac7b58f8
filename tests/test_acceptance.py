"""Acceptance gate: twelve exact-arithmetic criteria, one report line each.

Every check is exact integer equality.  Each test prints a single
``ACCEPTANCE nn PASS/FAIL`` line (visible with ``pytest -s``); under
``pytest -v`` the per-test PASSED/FAILED status doubles as the report line.
"""

import sys
import time

from qspt.laurent import build_jrank_gf, build_kn1_sides, symmetrized_extract
from qspt.partitions import (
    Partition,
    enumerate_partitions,
    partition_count,
    successive_durfee,
    successive_lower_durfee,
)
from qspt.spt import (
    gf_genn1_lhs,
    gf_genn1_rhs,
    gf_jspt_k,
    gf_spt,
    gf_spt_j,
    jspt_k,
    mark_weight,
    split_chain_weight,
    spt_j,
    spt_weight,
    verify_appbp,
)
from qspt.stats import crank, gf_sym_mu, moment, moment_via_sym, sym_mu


def _report(num, desc, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL: {desc}", file=sys.stderr)
        raise
    print(f"ACCEPTANCE {num:02d} PASS: {desc}", file=sys.stderr)


def test_criterion_01_smallest_part_identity_to_60():
    def body():
        start = time.monotonic()
        gf = gf_spt(60)
        for n in range(1, 61):
            direct = spt_weight(n)
            half, rem = divmod(moment(2, 2, n), 2)
            assert rem == 0
            assert direct == n * partition_count(n) - half, n
            assert gf.coefficient(n) == direct, n
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"

    _report(1, "spt(n) = n*p(n) - N_2(n)/2 and gf agreement, n <= 60, < 10s", body)


def test_criterion_02_depth_j_identity_order_40():
    def body():
        for j in (1, 2, 3):
            assert gf_genn1_lhs(j, 40) == gf_genn1_rhs(j, 40), j
        # depth 1 must reproduce the classical smallest-part series
        assert gf_genn1_rhs(1, 40) == gf_spt(40)

    _report(2, "depth-j identity LHS = RHS to order 40, j in {1,2,3}", body)


def test_criterion_03_mark_weights_match_gf():
    def body():
        assert mark_weight(Partition((9, 8, 8, 8, 8, 6, 6, 5, 4, 4, 3)), 3) == 17
        assert mark_weight(Partition((4, 4, 3, 3, 2)), 3) == 7
        assert mark_weight(Partition((4, 4)), 3) == 3
        gfs = {j: gf_spt_j(j, 25) for j in (1, 2, 3, 4)}
        totals = {j: [0] * 26 for j in gfs}
        for n in range(1, 26):
            for p in enumerate_partitions(n):
                for j in gfs:
                    totals[j][n] += mark_weight(p, j)
        for j, gf in gfs.items():
            for n in range(1, 26):
                assert totals[j][n] == gf.coefficient(n), (j, n)

    _report(3, "sum of W_j weights equals the nested-sum gf, n <= 25, j <= 4", body)


def test_criterion_04_moment_route_and_saturation():
    def body():
        for j in range(1, 6):
            gf = gf_spt_j(j, 40)
            for n in range(1, 41):
                half, rem = divmod(moment(j + 1, 2, n), 2)
                assert rem == 0
                assert gf.coefficient(n) == n * partition_count(n) - half, (j, n)
        for n in range(1, 13):
            assert spt_j(n + 1, n, "moments") == n * partition_count(n), n
            assert spt_j(n + 4, n, "moments") == n * partition_count(n), n

    _report(4, "Spt_j(n) = n*p(n) - (j+1)-rank N_2(n)/2 (n <= 40, j <= 5); "
               "= n*p(n) for j > n", body)


def test_criterion_05_congruences():
    def body():
        for ell, m in ((5, 4), (7, 5), (11, 6)):
            t = 0
            while ell * t + m <= 30:
                arg = ell * t + m
                value = spt_j(arg + 1, arg, "moments")
                assert value == arg * partition_count(arg)
                assert value % ell == 0, (ell, arg)
                t += 1

    _report(5, "Spt_j(ln+m) = 0 mod l for (5,4),(7,5),(11,6), ln+m <= 30, j > ln+m",
            body)


def test_criterion_06_bivariate_nested_identity_order_30():
    def body():
        for j in (1, 2, 3):
            lhs, rhs = build_kn1_sides(j, 30)
            assert lhs == rhs, j

    _report(6, "bivariate nested-sum identity LHS = RHS to order 30, j in {1,2,3}",
            body)


def test_criterion_07_symmetrized_moment_gf():
    def body():
        for j in (1, 2, 3):
            gf = build_jrank_gf(j, 30)
            for k in (1, 2, 3):
                extracted = symmetrized_extract(gf, k)
                assert extracted == gf_sym_mu(j, k, 30), (j, k)
                for n in range(31):
                    assert extracted.coefficient(n) == sym_mu(j, 2 * k, n), (j, k, n)

    _report(7, "symmetrized extraction = closed form = binomial table, j,k <= 3, "
               "n <= 30", body)


def test_criterion_08_bailey_pair_instance():
    def body():
        for r in (1, 2, 3):
            for k in (1, 2):
                assert verify_appbp(r, k, 25), (r, k)

    _report(8, "Bailey-pair series identity to order 25, r <= 3, k <= 2", body)


def test_criterion_09_three_routes_for_jspt():
    def body():
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                nested = gf_jspt_k(j, k, 20, "nested")
                binom = gf_jspt_k(j, k, 20, "binomial")
                assert nested == binom, (j, k)
                for n in range(1, 21):
                    mom = jspt_k(j, k, n, "moments")
                    assert nested.coefficient(n) == mom, (j, k, n)
        weight_totals = {
            (j, k): [0] * 21 for j in (1, 2, 3) for k in (1, 2, 3)
        }
        for n in range(1, 21):
            for p in enumerate_partitions(n):
                for (j, k), acc in weight_totals.items():
                    acc[n] += split_chain_weight(p, j, k)
        for (j, k), acc in weight_totals.items():
            for n in range(1, 21):
                assert acc[n] == jspt_k(j, k, n, "moments"), (j, k, n)

    _report(9, "jspt three-route agreement incl. both gf forms, j,k <= 3, n <= 20",
            body)


def test_criterion_10_moment_basis_and_inequality():
    def body():
        thresholds = {}
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                last_tie = 0
                for n in range(1, 31):
                    lhs = moment(j, 2 * k, n)
                    assert lhs == moment_via_sym(j, k, n), (j, k, n)
                    rhs = moment(j + 1, 2 * k, n)
                    assert lhs >= rhs, (j, k, n)
                    if lhs == rhs:
                        last_tie = n
                thresholds[(j, k)] = last_tie + 1
        print(f"ACCEPTANCE 10 strictness thresholds (j,k)->n0: {thresholds}",
              file=sys.stderr)
        # the difference is a positive combination of the generalized spt
        # series for orders t = 1..k, whose earliest support is t+j-1; the
        # t = 1 term makes the difference strictly positive from n = j on
        for (j, k), n0 in thresholds.items():
            assert n0 == j, (j, k, n0)

    _report(10, "moment change-of-basis exact and j-rank moments dominate "
                "(j+1)-rank moments, strict from n = j", body)


def test_criterion_11_chain_lemmas_to_25():
    def body():
        for n in range(1, 26):
            for p in enumerate_partitions(n):
                lower = successive_lower_durfee(p)
                upper = successive_durfee(p)
                assert len(lower) == len(upper), p
                if len(lower) > 1:
                    consumed = sum(lower[:-1])
                    rr = sorted(p.parts)[consumed - 1] <= lower[-1]
                else:
                    rr = True
                if rr:
                    assert tuple(reversed(lower)) == upper, p

    _report(11, "chain lemmas (lengths agree; reversal for Rogers-Ramanujan "
                "partitions), exhaustive n <= 25", body)


def test_criterion_12_gf_forms_and_classical_moment_identity():
    def body():
        for j in (2, 3, 4):
            nested = build_jrank_gf(j, 25, "nested")
            assert nested == build_jrank_gf(j, 25, "bilateral"), j
            assert nested == build_jrank_gf(j, 25, "counts"), j
        for n in range(2, 41):
            assert 2 * n * partition_count(n) == moment(1, 2, n), n
        # the identity fails at n = 1 on the combinatorial crank: the single
        # partition (1) has crank -1, so the second moment is 1, not 2
        comb_m2 = sum(crank(p) ** 2 for p in enumerate_partitions(1))
        assert comb_m2 == 1
        assert comb_m2 != 2 * 1 * partition_count(1)
        print("ACCEPTANCE 12 note: n*p(n) = M_2(n)/2 fails at n=1 on the "
              "combinatorial crank (1 vs 2), as expected", file=sys.stderr)

    _report(12, "three j-rank gf forms agree to order 25 (j in {2,3,4}); "
                "n*p(n) = M_2(n)/2 for 2 <= n <= 40, failing at n = 1", body)
