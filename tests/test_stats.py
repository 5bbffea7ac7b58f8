"""Rank/crank/j-rank statistics, count series and moments.

The change of basis behind :func:`moment_via_sym` is pinned to a triangular
solve over the g_k polynomials, which lives here as its oracle.
"""

import math

import pytest
from click.testing import CliRunner

import tuple_sums
from qspt import stats
from qspt.cli import main
from qspt.partitions import Partition, enumerate_partitions, partition_count, successive_durfee
from qspt.stats import (
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


def g_poly(k):
    """Coefficients (index = x-exponent) of g_k(x) = prod_{i=0}^{k-1} (x^2 - i^2)."""
    coeffs = [1]  # polynomial in y = x^2
    for i in range(k):
        sq = i * i
        nxt = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d + 1] += c
            nxt[d] -= sq * c
        coeffs = nxt
    out = [0] * (2 * k + 1)
    for d, c in enumerate(coeffs):
        out[2 * d] = c
    return tuple(out)


def solved_row(k):
    """(S(k, 1), ..., S(k, k)) with x^(2k) = sum_t S(k, t) g_t(x), by a triangular solve."""
    residual = [0] * (2 * k + 1)
    residual[2 * k] = 1
    row = [0] * (k + 1)
    for t in range(k, 0, -1):
        c = residual[2 * t]  # g_t is monic in x^(2t)
        row[t] = c
        for d, gc in enumerate(g_poly(t)):
            residual[d] -= c * gc
    assert not any(residual), "change of basis did not close"
    return tuple(row[1:])


def recurrence_row(monkeypatch, k):
    """The change-of-basis row that moment_via_sym uses, one symmetrized moment at a time.

    With every symmetrized moment but the 2t-th set to 0 and that one to 1,
    moment_via_sym(j, k, n) for n >= k is (2t)! times the row's t-th entry.
    """
    row = []
    for t in range(1, k + 1):
        monkeypatch.setattr(stats, "sym_mu", lambda j, i, n, t=t: int(i == 2 * t))
        value, rem = divmod(moment_via_sym(1, k, k), math.factorial(2 * t))
        assert rem == 0, (k, t)
        row.append(value)
    return tuple(row)


def combinatorial_counts(j, n):
    """Count partitions of n by j-rank (j=1 means crank, j=2 rank)."""
    out = {}
    for p in enumerate_partitions(n):
        if j == 1:
            m = crank(p)
        elif j == 2:
            m = rank(p)
        else:
            m = jrank(p, j)
            if m is None:
                continue
        out[m] = out.get(m, 0) + 1
    return out


class TestPointStatistics:
    def test_rank_examples(self):
        assert rank(Partition((4, 1))) == 2
        assert rank(Partition((7,))) == 6
        assert rank(Partition((1,) * 7)) == -6

    def test_rank_histogram(self):
        assert combinatorial_counts(2, 3) == {2: 1, 0: 1, -2: 1}

    def test_rank_empty(self):
        with pytest.raises(ValueError):
            rank(Partition(()))

    def test_crank_examples(self):
        assert crank(Partition((3, 1, 1))) == -1
        assert crank(Partition((4, 2))) == 4
        assert crank(Partition((1,))) == -1

    def test_jrank_equals_rank(self):
        for n in range(1, 16):
            for p in enumerate_partitions(n):
                assert jrank(p, 2) == rank(p)

    def test_jrank_small(self):
        assert jrank(Partition((1, 1)), 3) == 0

    def test_jrank_undefined(self):
        assert jrank(Partition((3,)), 3) is None

    def test_jrank_rejects_one(self):
        with pytest.raises(ValueError):
            jrank(Partition((1,)), 1)


class TestCountTables:
    def test_rank_zero_at_three(self):
        assert gf_njm(2, 0, 5).coefficient(3) == 1

    def test_crank_anomaly(self):
        assert gf_njm(1, 0, 3).coefficient(1) == -1
        assert gf_njm(1, 1, 3).coefficient(1) == 1

    def test_jrank_three(self):
        assert gf_njm(3, 0, 4).coefficient(2) == 1

    @pytest.mark.parametrize("j", [2, 3, 4])
    def test_combinatorial_agreement(self, j):
        for n in range(1, 15):
            counts = combinatorial_counts(j, n)
            for m in range(-n, n + 1):
                assert count_njm(j, m, n) == counts.get(m, 0), (j, m, n)

    def test_crank_agreement_beyond_one(self):
        for n in range(2, 15):
            counts = combinatorial_counts(1, n)
            for m in range(-n, n + 1):
                assert count_njm(1, m, n) == counts.get(m, 0), (m, n)

    def test_support(self):
        assert count_njm(2, 7, 3) == 0
        assert count_njm(2, 0, -1) == 0

    def test_symmetry(self):
        for j in (1, 2, 3):
            for n in range(1, 12):
                for m in range(n + 1):
                    assert count_njm(j, m, n) == count_njm(j, -m, n)

    def test_total_is_partition_count(self):
        # for j >= 2, only partitions with >= j-1 Durfee squares are counted
        for j in (2, 3):
            for n in range(1, 12):
                total = sum(count_njm(j, m, n) for m in range(-n, n + 1))
                eligible = sum(
                    1
                    for p in enumerate_partitions(n)
                    if len(successive_durfee(p)) >= j - 1
                )
                assert total == eligible


class TestMoments:
    def test_rank_second_moment(self):
        assert moment(2, 2, 3) == 8

    def test_crank_second_is_np(self):
        for n in range(2, 31):
            assert moment(1, 2, n) == 2 * n * partition_count(n)

    def test_odd_moments_vanish(self):
        for j in (1, 2, 3):
            for n in range(1, 10):
                assert moment(j, 1, n) == 0
                assert moment(j, 3, n) == 0

    def test_zeroth_moment(self):
        assert moment(2, 0, 4) == partition_count(4)

    def test_first_moment_by_table(self):
        for j in (1, 2, 3):
            for n in range(1, 15):
                assert sum(m * count_njm(j, m, n) for m in range(-n, n + 1)) == 0

    # each of these returned a silent 0, or failed with "k must be >= 1"

    def test_odd_moment_rejects_j_zero(self):
        with pytest.raises(ValueError, match="^j must be >= 1$"):
            moment(0, 1, 5)

    def test_odd_moment_rejects_negative_j(self):
        with pytest.raises(ValueError, match="^j must be >= 1$"):
            moment(-1, 3, 5)

    def test_count_outside_the_support_rejects_j_zero(self):
        with pytest.raises(ValueError, match="^j must be >= 1$"):
            count_njm(0, 9, 5)

    def test_rejects_negative_odd_t(self):
        with pytest.raises(ValueError, match="^t must be >= 0$"):
            moment(1, -1, 5)

    def test_rejects_negative_even_t(self):
        with pytest.raises(ValueError, match="^t must be >= 0$"):
            moment(1, -2, 5)


class TestSymmetrizedMoments:
    def test_crank_mu2_at_one(self):
        assert sym_mu(1, 2, 1) == 1

    def test_rank_eta2_at_one(self):
        assert sym_mu(2, 2, 1) == 0

    def test_direct_sum_oracle(self):
        from qspt.laurent import integer_binomial

        # sym_mu reads gf_sym_mu; the oracle sums straight over the counts
        for j in (1, 2, 3, 4):
            for k in (1, 2, 3, 4, 5, 6):
                shift = (k - 1) // 2
                for n in range(1, 41):
                    direct = sum(
                        integer_binomial(m + shift, k) * count_njm(j, m, n)
                        for m in range(-n, n + 1)
                    )
                    assert sym_mu(j, k, n) == direct

    def test_columns_past_n_are_not_built(self):
        # the column of the 2k-th moments starts at q^(j - 1 + k), so past n sym_mu
        # is 0 without a gf_sym_mu entry; verify jgn reads only such columns
        stats.gf_sym_mu.cache_clear()
        result = CliRunner().invoke(main, ["verify", "jgn", "--n-max", "200"])
        assert result.exit_code == 0
        assert result.output == "PASS jgn (order 200, 200 checks)\n"
        assert stats.gf_sym_mu.cache_info().currsize == 0
        for j in (1, 2, 5):
            for k in (2, 4, 6):
                for n in range(j + k // 2 + 1):
                    assert sym_mu(j, k, n) == gf_sym_mu(j, k // 2, n).coefficient(n), (j, k, n)

    @pytest.mark.parametrize("j", [0, -1])
    def test_rejects_nonpositive_j(self, j):
        # these returned a silent zero, or failed on a negative shift exponent
        for call in (lambda: sym_mu(j, 40, 5), lambda: sym_mu(j, 2, 5),
                     lambda: sym_mu(j, 3, 5), lambda: moment(j, 2, 5),
                     lambda: gf_sym_mu(j, 20, 5), lambda: gf_sym_mu(j, 1, 2)):
            with pytest.raises(ValueError, match="must be >= 1"):
                call()

    @pytest.mark.parametrize("k", [0, -2])
    def test_gf_rejects_nonpositive_k(self, k):
        # this failed inside the series kernel, with a message about its arguments
        with pytest.raises(ValueError, match="k must be >= 1"):
            gf_sym_mu(2, k, 5)

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_column_matches_per_n_sum(self, j, k):
        # the per-n sum of scaled and shifted 1/(1-q^n)^(2k) series it replaced
        expected = tuple_sums.signed_sum(
            lambda n: n * ((2 * j - 1) * n - 1) // 2 + k * n, 2 * k, 300).coeffs
        for order in range(301):
            assert stats._sym_mu_column(j, k, order) == [-c for c in expected[: order + 1]]

    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_closed_form_gf(self, j, k):
        gf = gf_sym_mu(j, k, 16)
        for n in range(17):
            assert gf.coefficient(n) == sym_mu(j, 2 * k, n), (j, k, n)


def kept_and_fresh(j, k, ns):
    """moment_via_sym(j, k, n) over ns, read in ascending and in descending n
    off the kept central-factorial row, and with the row built afresh per n."""
    stats._central_factorials.cache_clear()
    ascending = [moment_via_sym(j, k, n) for n in ns]
    stats._central_factorials.cache_clear()
    descending = [moment_via_sym(j, k, n) for n in reversed(ns)][::-1]
    fresh = []
    for n in ns:
        stats._central_factorials.cache_clear()
        fresh.append(moment_via_sym(j, k, n))
    return ascending, descending, fresh


class TestGBasis:
    def test_g1(self):
        assert g_poly(1) == (0, 0, 1)

    def test_g2(self):
        assert g_poly(2) == (0, 0, -1, 0, 1)

    def test_g3(self):
        assert g_poly(3) == (0, 0, 4, 0, -5, 0, 1)

    def test_stirling_star_rows(self, monkeypatch):
        assert recurrence_row(monkeypatch, 1) == (1,)
        assert recurrence_row(monkeypatch, 2) == (1, 1)
        assert recurrence_row(monkeypatch, 3) == (1, 5, 1)

    def test_stirling_star_positivity(self, monkeypatch):
        for k in range(1, 7):
            row = recurrence_row(monkeypatch, k)
            assert row[0] == row[-1] == 1
            assert all(v > 0 for v in row)

    def test_recurrence_matches_solve(self, monkeypatch):
        for k in range(1, 13):
            assert recurrence_row(monkeypatch, k) == solved_row(k), k


class TestMomentViaSym:
    def test_k1_is_second_moment(self):
        for j in (1, 2):
            for n in range(1, 31):
                assert moment_via_sym(j, 1, n) == moment(j, 2, n)

    def test_fourth_crank_moment(self):
        # and every other 2k-th moment, k <= 6 (so also k > n), against sums
        # straight over the counts
        for j in (1, 2, 3, 4):
            for k in range(1, 7):
                for n in range(1, 41):
                    direct = sum(m ** (2 * k) * count_njm(j, m, n) for m in range(-n, n + 1))
                    assert moment_via_sym(j, k, n) == direct, (j, k, n)
                    assert moment(j, 2 * k, n) == direct, (j, k, n)

    def test_symmetrized_vanish_above_n(self):
        # binom(m + t - 1, 2t) = 0 for |m| <= n < t, which is why the sum stops at t = n
        for j in (1, 2, 3):
            for n in range(0, 12):
                for t in range(n + 1, n + 4):
                    assert sym_mu(j, 2 * t, n) == 0, (j, t, n)

    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_agreement(self, j, k):
        for n in range(1, 31):
            assert moment_via_sym(j, k, n) == moment(j, 2 * k, n)

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ValueError):
            moment_via_sym(2, 0, 3)

    def test_below_one_reads_no_row(self):
        # no symmetrized moment enters for n < 1, so no central-factorial row is built
        stats._central_factorials.cache_clear()
        assert [moment_via_sym(2, 3, n) for n in (0, -1, -5)] == [0, 0, 0]
        assert stats._central_factorials.cache_info().misses == 0

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_kept_row_matches_fresh_row(self, j, monkeypatch):
        # below k, with the true symmetrized moments; ascending reads rebuild
        # the kept row as n outgrows it
        ascending, descending, fresh = kept_and_fresh(j, 400, (3, 4, 40, 41, 120))
        assert ascending == descending == fresh
        # around k every entry up to T(k, k) is read, and the true symmetrized
        # moments there cost seconds per j, so a stand-in weighs each entry
        monkeypatch.setattr(stats, "sym_mu", lambda j, i, n: (i + 1) ** 3 * (n + j))
        ascending, descending, fresh = kept_and_fresh(j, 400, (3, 399, 400, 401, 800))
        assert ascending == descending == fresh
