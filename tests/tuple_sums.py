"""Nested sums one index tuple at a time: the oracle for the chain recursions.

The builders in ``qspt.spt`` and ``qspt.laurent`` sum each nested sum as one
recursion over the levels of its chain.  The functions here sum the same
series the slow, plain way: every weakly increasing index tuple of bounded
weight, found by ``itertools.combinations_with_replacement`` and a weight
filter, contributes one term built by dense products.  ``link_sum`` is the
same for one level: one dense link product per pair of chain ends.
``link_sums_per_end`` and ``chain_gf_per_end`` keep the power of (q)_c that
the smallest-part forms carry in every chain end, where ``qspt.spt`` carries
it once in the linear chain.  ``signed_sum`` and ``kn1_correction`` sum the
bilateral sums one term per n, the oracles for the column writers of
``qspt.stats`` and their layouts; ``kn1_column0`` sums every other column of
the kn1 correction into its column z^0.  ``bi_product``, ``bi_inverse`` and
``int_inverse`` are the product and inverses each ring had before the two
shared one series algebra: the oracles for ``qspt.series._Series``.
``mul_factor`` and ``div_factor`` are the one-pass bivariate factor kernels on
dict rows, and ``kn1_sides_by_factors`` builds both kn1 sides with them: 2N
factor passes per side and a dense product by 1/(q)_inf^2, the oracle for the
column and row builders of ``qspt.laurent.build_kn1_sides``.  ``crank_gf`` and
``jrank_gf`` are the crank and the three j-rank forms on dict rows, as
``qspt.laurent`` built them before its int rows: the oracles for its row
builders.  ``to_bi`` and ``to_rows`` convert between the two layouts, each
exactly.  ``poly_str`` prints a ``LaurentPoly`` as the verifiers printed each
bivariate row before the rows printed themselves: the oracle for
``qspt.laurent.SymRow.__str__``.
"""

import functools
import itertools
from math import isqrt
from operator import add

from qspt import laurent, series, spt, stats
from qspt.series import (
    TruncSeries,
    gauss_binomial,
    inv_one_minus,
    inv_pochhammer_finite,
    inv_pochhammer_inf,
    pochhammer_finite,
)


def difference_link(hi, lo, order):
    """1 / (q)_{hi - lo}: the chain link of the difference-product forms."""
    return inv_pochhammer_finite(1, hi - lo, order)


def link_sum(x, chain, link, order, shift=0, descending=False):
    """q**shift * the sum of link(max(x, y), min(x, y)) * chain[y] over the ends
    y <= x of ``chain`` (y >= x if descending), truncated at ``order``: one dense
    link product per pair of ends, the oracle for the running link sums."""
    reach = order - shift
    acc = [0] * (order + 1)
    for y, s in chain.items():  # chain[y] carries the factor q**(y*y)
        if y * y <= reach and (y >= x if descending else y <= x):
            term = s.truncate(reach) * link(max(x, y), min(x, y), s.order)
            for i, c in enumerate(term.coeffs, shift):
                acc[i] += c
    return TruncSeries(acc)


def link_sums_per_end(chain, step, xs, reach, power=0):
    """The running link sums of ``series._link_sums`` times (q)_x**power: every
    end keeps a full-length list and takes ``power`` passes of (1 - q**x) per x,
    reached or not, so an ascending pass must start at x = 1 when power > 0."""
    descending = xs.step < 0
    runs = {y: list(s.coeffs) for y, s in chain.items()}
    sums = {}
    for x in xs:
        top = reach(x) + 1
        acc = [0] * top
        for y, run in runs.items():
            if not descending:
                if y * y >= top:
                    continue
                del run[top:]
            reached = y >= x if descending else y <= x
            if reached and y != x:
                step(run, x, y)
            for _ in range(power):
                series._mul_one_minus(run, x)
            if reached:
                acc = list(map(add, acc, run))
        sums[x] = acc
    return sums


def chain_gf_per_end(levels, lo, form, k, order):
    """The nested sum of ``spt._chain_gf`` times (q)_inf, its (q)_c**power carried
    by every chain end of the last link sum, the linear chain carrying none."""
    step, power = spt._FORMS[form]
    chain = series._square_chain(levels, step, order, lo)
    seeds = link_sums_per_end(chain, step, range(1, order // k + 1),
                              lambda c: order - k * c, power)
    return series._linear_chain(seeds.values(), k, order)


def weighted_tuples(n_square, n_linear, bound, lo=1):
    """Weakly increasing tuples lo <= t_1 <= ... <= t_d, d = n_square + n_linear,
    whose first n_square entries weigh t**2 and the rest t, of total weight <= bound."""
    squares = itertools.combinations_with_replacement(range(lo, isqrt(bound) + 1), n_square)
    linears = list(itertools.combinations_with_replacement(range(lo, bound + 1), n_linear))
    for s in squares:
        for t in linears:
            if s and t and s[-1] > t[0]:
                continue
            if sum(v * v for v in s) + sum(t) <= bound:
                yield s + t


def diffs(tup):
    """The gaps of the chain 0 <= t_1 <= ... <= t_d."""
    return [tup[0]] + [b - a for a, b in zip(tup, tup[1:])]


def gf_spt_j(j, order):
    acc = TruncSeries.zero(order)
    for tup in weighted_tuples(j - 1, 1, order, lo=0):
        nj = tup[-1]
        if nj == 0:
            continue  # the sum runs over n_j >= 1
        weight = sum(v * v for v in tup[:-1]) + nj
        term = inv_one_minus(nj, order, 2) * inv_pochhammer_inf(nj + 1, order)
        for a, b in zip(tup, tup[1:]):
            term = term * gauss_binomial(b, a, order)
        acc = acc + term.shift(weight)
    return acc


def gf_genn1_lhs(j, order):
    acc = TruncSeries.zero(order)
    for tup in weighted_tuples(j - 1, 1, order, lo=0):
        nj = tup[-1]
        if nj == 0:
            continue
        weight = sum(v * v for v in tup[:-1]) + nj
        term = pochhammer_finite(1, nj, order)
        term = term * inv_one_minus(nj, order, 2) * inv_pochhammer_inf(nj + 1, order)
        for d in diffs(tup):
            term = term * inv_pochhammer_finite(1, d, order)
        acc = acc + term.shift(weight)
    return acc


@functools.lru_cache(maxsize=None)
def beta_sum(n1, r, order, min_m=0):
    """sum over min_m <= m_1 <= ... <= m_{r-1} <= n1 of q^(sum m_i^2) / the gap products."""
    acc = TruncSeries.zero(order)
    for ms in weighted_tuples(r - 1, 0, order, lo=min_m):
        chain = ms + (n1,)
        if len(chain) > 1 and chain[-2] > n1:
            continue
        term = TruncSeries.monomial(sum(v * v for v in ms), order)
        for d in diffs(chain):
            term = term * inv_pochhammer_finite(1, d, order)
        acc = acc + term
    return acc


def gf_jspt_k(j, k, order, form):
    acc = TruncSeries.zero(order)
    if form == "nested":
        for tup in weighted_tuples(0, k, order):
            n1 = tup[0]
            base = pochhammer_finite(1, n1, order) * inv_pochhammer_inf(n1 + 1, order)
            for v in tup:
                base = base * inv_one_minus(v, order, 2)
            acc = acc + base.shift(sum(tup)) * beta_sum(n1, j, order, 1)
        return acc
    for tup in weighted_tuples(j - 1, k, order):
        inner, outer = tup[: j - 1], tup[j - 1:]
        nj = outer[0]
        term = inv_one_minus(nj, order, 2) * inv_pochhammer_inf(nj + 1, order)
        for v in outer[1:]:
            term = term * inv_one_minus(v, order, 2)
        chain = list(inner) + [nj]
        for a, b in zip(chain, chain[1:]):
            term = term * gauss_binomial(b, a, order)
        acc = acc + term.shift(sum(v * v for v in inner) + sum(outer))
    return acc


def appbp_chain_sums(r, k, order):
    """Both sides of the Bailey-pair identity without the rhs correction sum."""
    lhs = TruncSeries.zero(order)
    rhs = TruncSeries.zero(order)
    for tup in weighted_tuples(0, k, order):
        n1 = tup[0]
        base = TruncSeries.monomial(sum(tup), order)
        for v in tup:
            base = base * inv_one_minus(v, order, 2)
        rhs = rhs + base
        poch = pochhammer_finite(1, n1, order)
        lhs = lhs + base * poch * poch * beta_sum(n1, r, order)
    return lhs, rhs


def jrank_scalars(j, order):
    """The scalar series of the nested j-rank sum, by the first index t_1."""
    out = {}
    for tup in weighted_tuples(j - 1, 0, order):
        scalar = TruncSeries.monomial(sum(v * v for v in tup), order)
        for a, b in zip(tup, tup[1:]):
            scalar = scalar * inv_pochhammer_finite(1, b - a, order)
        out[tup[0]] = out[tup[0]] + scalar if tup[0] in out else scalar
    return out


def kn1_scalars(j, order):
    """The scalar series S_o of the kn1 left side, by the outer index o = n_j."""
    out = {}
    for tup in weighted_tuples(j - 1, 1, order, lo=0):
        scalar = TruncSeries.monomial(sum(v * v for v in tup[:-1]) + tup[-1], order)
        for d in diffs(tup):
            scalar = scalar * inv_pochhammer_finite(1, d, order)
        out[tup[-1]] = out[tup[-1]] + scalar if tup[-1] in out else scalar
    return out


def signed_sum(exponent, power, order):
    """sum_{n>=1} (-1)^n q^exponent(n) (1+q^n) / (1-q^n)^power, exponent increasing,
    one scaled and shifted 1/(1-q^n)^power per n: the oracle for
    ``stats._sym_mu_column``, which is this sum negated at the (2j-1)-rank exponents."""
    acc = TruncSeries.zero(order)
    n = 1
    while exponent(n) <= order:
        inv = inv_one_minus(n, order, power).scale(-1 if n % 2 == 1 else 1)
        acc = acc + inv.shift(exponent(n)) + inv.shift(exponent(n) + n)
        n += 1
    return acc


def kn1_correction(j, order):
    """The kn1 correction sum 1 + sum_{n>=1} (-1)^n q^e (1+q^n) (1-z)(1-z^{-1}) /
    ((1-zq^n)(1-z^{-1}q^n)), e = n((2j+1)n+1)/2, one bivariate term per n built by
    factor passes: the oracle for the column layout of ``laurent._kn1_correction``."""
    numerator = mul_factor(mul_factor(laurent.BiSeries.one(order), 1, 0), -1, 0)
    correction = laurent.BiSeries.one(order)
    n = 1
    while (e := n * ((2 * j + 1) * n + 1) // 2) <= order:
        term = div_factor(div_factor(numerator, 1, n), -1, n).shift(e)
        term = term + term.shift(n)  # times 1 + q^n
        correction = correction - term if n % 2 == 1 else correction + term
        n += 1
    return correction


def mul_factor(a, z_exp, q_exp):
    """a times the one-term factor (1 - z**z_exp * q**q_exp), q_exp >= 0: one pass
    over the rows, row i losing row i - q_exp shifted by z**z_exp."""
    if q_exp < 0:
        raise ValueError("q_exp must be >= 0")
    rows = a.coeffs
    out = list(rows)
    for i in range(q_exp, len(rows)):
        out[i] = laurent._add_shifted(rows[i], rows[i - q_exp], z_exp, -1)
    return laurent.BiSeries(out)


def div_factor(a, z_exp, q_exp):
    """a divided by the one-term factor (1 - z**z_exp * q**q_exp), q_exp >= 1: one
    ascending pass, row i of the quotient gaining quotient row i - q_exp shifted by
    z**z_exp."""
    if q_exp < 1:
        raise ValueError("q_exp must be >= 1")
    out = list(a.coeffs)
    for i in range(q_exp, len(out)):
        out[i] = laurent._add_shifted(out[i], out[i - q_exp], z_exp, 1)
    return laurent.BiSeries(out)


def from_series(s):
    """A pure-q series as a BiSeries."""
    return laurent.BiSeries([laurent.LaurentPoly.const(c) for c in s.coeffs])


def to_bi(a):
    """The rows of a SymRows as a BiSeries, read through ``SymRows.coefficient``."""
    return laurent.BiSeries(map(a.coefficient, range(a.order + 1)))


def to_rows(a):
    """A BiSeries as a SymRows.  Raises unless it is symmetric in z with no z^m past
    |m| = n in row n, so comparing the rows loses nothing."""
    rows = laurent.SymRows([p.terms.get(m, 0) for m in range(n + 1)]
                           for n, p in enumerate(a.coeffs))
    if to_bi(rows) != a:
        raise AssertionError("not symmetric in z, or a term past z^n in row n")
    return rows


def poly_str(p):
    """The nonzero terms {c}z^{m} of a LaurentPoly by ascending m, joined by "+" with
    "+-" read as "-", or "0"."""
    if not p.terms:
        return "0"
    return "+".join(f"{c}z^{m}" for m, c in sorted(p.terms.items())).replace("+-", "-")


def dict_from_columns(cols):
    """The series symmetric in z whose z^m column is cols[|m|], zero past the last, on
    dict rows: row n reads columns 0..n, one dict entry per term."""
    top = len(cols) - 1
    return laurent.BiSeries(
        laurent.LaurentPoly({m: cols[abs(m)][n] for m in range(-min(n, top), min(n, top) + 1)})
        for n in range(len(cols[0])))


def crank_gf(order):
    """The crank on dict rows: 2N division passes, then times (q)_inf."""
    out = laurent.BiSeries.one(order)
    for e in range(1, order + 1):
        out = div_factor(div_factor(out, 1, e), -1, e)
    return out.mul_series(series.pochhammer_inf(1, order))


def jrank_gf(j, order, form):
    """The three j-rank forms on dict rows: the nested sum by Horner over its first index,
    two division passes each; the bilateral and count forms laid out from their columns,
    the bilateral rows times 1/(q)_inf."""
    if form == "nested":
        if j == 1:
            return crank_gf(order)
        chain = series._square_chain(j - 1, series._difference_step, order, lo=1,
                                     descending=True)
        acc = laurent.BiSeries.zero(order)
        for first in sorted(chain, reverse=True):
            acc = div_factor(div_factor(acc + from_series(chain[first]), 1, first), -1, first)
        return laurent.BiSeries.one(order) + acc
    out = dict_from_columns([stats.gf_njm(j, m, order).coeffs if form == "counts"
                             else stats._njm_column(j, m, order) for m in range(order + 1)])
    if form == "bilateral":
        out = out.mul_series(inv_pochhammer_inf(1, order))
    return out + laurent.BiSeries.one(order) if j >= 2 else out


def kn1_sides_by_factors(j, order):
    """Both kn1 sides by factor passes.  Left: a Horner suffix sum over the outer
    index o, acc = S_o + (1-zq^o)(1-z^{-1}q^o) acc, two passes per o.  Right: the
    correction times prod_{e>=1} (1-zq^e)(1-z^{-1}q^e), two passes per e, times the
    pure-q series 1/(q)_inf^2."""
    chain = series._square_chain(j - 1, series._difference_step, order)
    sums = list(series._link_sums(chain, series._difference_step, range(order + 1),
                                  lambda o: order - o))
    lhs = laurent.BiSeries.zero(order)
    for outer in range(order, -1, -1):
        lhs = mul_factor(mul_factor(lhs, 1, outer), -1, outer)
        lhs = lhs + from_series(TruncSeries([0] * outer + sums[outer]))
    rhs = kn1_correction(j, order)
    for e in range(1, order + 1):
        rhs = mul_factor(mul_factor(rhs, 1, e), -1, e)
    inv = inv_pochhammer_inf(1, order)
    return lhs, rhs.mul_series(inv * inv)


def kn1_column0(j, order):
    """Column z^0 of the kn1 correction as 1 - 2 * the sum of its columns m >= 1,
    which telescope to -sum (-1)^n q^e: O(N**2), the oracle for the one bilateral
    column that ``laurent._kn1_correction`` writes there."""
    cols = [stats._njm_column(j + 1, m, order) for m in range(1, order + 1)]
    return [1] + [-2 * sum(c[i] for c in cols) for i in range(1, order + 1)]


def bi_product(a, b):
    """a * b for two BiSeries, each pair of Laurent terms multiplied into one dict per row."""
    n = min(a.order, b.order)
    out = [dict() for _ in range(n + 1)]
    for i in range(n + 1):
        x = a.coeffs[i]
        if not x.terms:
            continue
        for j in range(n + 1 - i):
            y = b.coeffs[j]
            if not y.terms:
                continue
            acc = out[i + j]
            for m1, c1 in x.terms.items():
                for m2, c2 in y.terms.items():
                    k = m1 + m2
                    acc[k] = acc.get(k, 0) + c1 * c2
    return laurent.BiSeries([laurent.LaurentPoly(d) for d in out])


def bi_inverse(a):
    """1 / a for a BiSeries whose q^0 coefficient is a monomial +-z^m."""
    lead_inv = a.coeffs[0].unit_inverse()
    n = a.order
    out = [lead_inv] + [laurent.LaurentPoly()] * n
    for i in range(1, n + 1):
        acc = laurent.LaurentPoly()
        for j in range(1, i + 1):
            if a.coeffs[j].terms:
                acc = acc + a.coeffs[j] * out[i - j]
        out[i] = -(lead_inv * acc)
    return laurent.BiSeries(out)


def int_inverse(a):
    """1 / a for a TruncSeries whose constant term is +1 or -1."""
    c0 = a.coeffs[0]
    if c0 not in (1, -1):
        raise ValueError(f"constant term {c0} is not a unit")
    n = a.order
    out = [0] * (n + 1)
    out[0] = c0
    for i in range(1, n + 1):
        acc = 0
        for j in range(1, i + 1):
            if a.coeffs[j]:
                acc += a.coeffs[j] * out[i - j]
        out[i] = -c0 * acc
    return TruncSeries(out)


def clear_memos():
    """Empty every memo, so that a builder runs at the order it is asked for."""
    for mod in (series, stats, spt, laurent):
        for v in vars(mod).values():
            if hasattr(v, "cache_clear") and v.__module__ == mod.__name__:
                v.cache_clear()
