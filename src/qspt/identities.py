"""The identities that tie the routes together, as one registry of verifiers.

Each verifier expands both sides of a named identity and returns ``(rows, notes)``: a
row is ``(label, lhs, rhs, ok)``, its sides values, not text (ints, or for ``kn1`` and
``Rk-forms`` the int rows ``laurent.SymRow``, which only the CLI prints), and a note is
a diagnostic about the check itself.  :func:`verify` fills in the default parameters,
and raises ValueError for an unknown identity or out-of-range parameters, among them
an order above ``LEMMA_N_MAX`` for the verifiers that enumerate partitions.
"""

from __future__ import annotations

import itertools
import operator

from . import spt as sptmod
from . import laurent, stats
from .partitions import _durfee_sides, _lower_durfee_sides, _walk, partition_count
from .series import read_down


def _rows(lhs, rhs, order, start=1, tag="", ok=operator.eq):
    """Rows (label, lhs(n), rhs(n), ok(lhs(n), rhs(n))) for n = start..order."""
    def row(n):
        a, b = lhs(n), rhs(n)
        return f"n={n}{tag}", a, b, ok(a, b)

    return read_down(row, start, order)


def _verify_sptpn(j, k, r, order):
    weights = sptmod._spt_weight_row(1, order).coefficient
    rows = _rows(weights, lambda n: sptmod.spt_j(1, n, "moments"), order)
    gf = _rows(sptmod.gf_spt(order).coefficient, weights, order, tag=":gf")
    return [row for pair in zip(rows, gf) for row in pair], []


def _verify_genn1(j, k, r, order):
    lhs = sptmod.gf_genn1_lhs(j, order)
    rhs = sptmod.gf_genn1_rhs(j, order)
    via = sptmod.gf_spt_j(j, order)
    rows = _rows(lhs.coefficient, rhs.coefficient, order)
    return rows + _rows(via.coefficient, rhs.coefficient, order, tag=":sum"), []


def _verify_sptpng(j, k, r, order):
    # the moments route raises DiscrepancyError if the second moment is odd
    return _rows(sptmod.gf_spt_j(j, order).coefficient,
                 lambda n: sptmod.spt_j(j, n, "moments"), order), []


def _verify_jgn(j, k, r, order):
    return _rows(lambda n: sptmod.spt_j(n + 1, n, "moments"),
                 lambda n: n * partition_count(n), order), []


def _verify_sptdiff(j, k, r, order):
    if j < 2:
        raise ValueError("sptdiff needs j >= 2")
    # the left side by the gf route, so the moments route is not checked against itself
    hi, lo = sptmod.gf_spt_j(j, order), sptmod.gf_spt_j(j - 1, order)
    return _rows(lambda n: hi.coefficient(n) - lo.coefficient(n),
                 lambda n: sptmod._half_moment(j, n) - sptmod._half_moment(j + 1, n),
                 order), []


def _verify_kn1(j, k, r, order):
    lhs, rhs = laurent.build_kn1_sides(j, order)
    return _rows(lhs.rows.__getitem__, rhs.rows.__getitem__, order, start=0), []


def _verify_genjmu2k(j, k, r, order):
    extracted = laurent.symmetrized_extract(laurent.build_jrank_gf(j, order), k)
    closed = stats.gf_sym_mu(j, k, order)
    rows = _rows(extracted.coefficient, closed.coefficient, order)
    # the same weights applied straight to the counts N_j(m, n)
    counts = laurent.symmetrized_extract(laurent.build_jrank_gf(j, order, "counts"), k)
    table = _rows(extracted.coefficient, counts.coefficient, order, tag=":table")
    return rows + table, []


def _verify_appbp(j, k, r, order):
    lhs, rhs = sptmod.appbp_sides(r, k, order)
    return _rows(lhs.coefficient, rhs.coefficient, order, start=0), []


def _verify_gtjsptk(j, k, r, order):
    """The nested and binomial forms against each other and the moments route.

    At j = 1 the two forms reduce to the same one-term passes, so the moments
    rows are the independent side there.
    """
    nested = sptmod.gf_jspt_k(j, k, order, "nested")
    binom = sptmod.gf_jspt_k(j, k, order, "binomial")
    rows = _rows(nested.coefficient, binom.coefficient, order, tag=":forms")
    return rows + _rows(nested.coefficient, lambda n: sptmod.jspt_k(j, k, n, "moments"),
                        order), []


def _verify_relos(j, k, r, order):
    # moments straight from N_j(m, n)
    counts = laurent.build_jrank_gf(j, order, "counts").weighted(lambda m: m ** (2 * k))
    return _rows(counts.coefficient,
                 lambda n: stats.moment_via_sym(j, k, n), order), []


def _verify_fdyson(j, k, r, order):
    return (_rows(lambda n: n * partition_count(n), lambda n: sptmod._half_moment(1, n),
                  order, start=2),
            ["n=1 is excluded: the identity is stated for n > 1 only"])


def _verify_rk_forms(j, k, r, order):
    nested = laurent.build_jrank_gf(j, order, "nested").rows.__getitem__
    return [row for name in ("bilateral", "counts")
            for row in _rows(nested, laurent.build_jrank_gf(j, order, name).rows.__getitem__,
                             order, start=0, tag=f":{name}")], []


def _strict_rr(a, lower) -> bool:
    # Rogers-Ramanujan with the full chain of s lower-Durfee squares: every
    # part consumed by the first s-1 squares is at most the last side d_s.
    # This bounds the parts below the last square, where
    # partitions.is_rogers_ramanujan(p, s - 1) bounds the parts above the
    # (s-1)st; the two predicates differ on most partitions with s >= 2.
    # The squares of ``lower`` (its sides) consume every part of a, the first
    # s-1 all but the top d_s, so the largest part those consume is a[d_s].
    return len(lower) <= 1 or a[lower[-1]] <= lower[-1]


def _count_bad(order, is_bad):
    """Rows counting the partitions of each n that violate a lemma (0 expected).

    Both lemmas read the parts > 1 alone: the trailing ones end the Durfee
    chain and the reversed lower chain in the same unit squares.  So the bad
    partitions of n with a part 1 are those of n - 1, each with one more 1, and
    one walk of the order serves every n: ``is_bad(a, m)`` reads the parts > 1.
    """
    bad = [0] * (order + 1)
    for a, m, h in _walk(order):
        bad[order - m + h + 1] += is_bad(a, h + 1)
    return _rows(list(itertools.accumulate(bad)).__getitem__, lambda n: 0, order)


def _verify_lemma31(j, k, r, order):
    def is_bad(a, m):
        lower = _lower_durfee_sides(a, m)
        return _strict_rr(a, lower) and lower[::-1] != _durfee_sides(a, m)

    return _count_bad(order, is_bad), []


def _verify_lemma32(j, k, r, order):
    return _count_bad(order, lambda a, m: len(_lower_durfee_sides(a, m))
                      != len(_durfee_sides(a, m))), []


def _verify_genineq(j, k, r, order):
    rows = _rows(lambda n: stats.moment(j, 2 * k, n), lambda n: stats.moment(j + 1, 2 * k, n),
                 order, ok=operator.ge)
    # past the last tie, every row is strict
    threshold = max((n + 1 for n, (_, lhs, rhs, _) in enumerate(rows, 1) if lhs == rhs), default=1)
    return rows, [f"strict inequality holds for all tested n >= {threshold}"]


IDENTITIES = {
    "sptpn": (_verify_sptpn, {"order": 50}),
    "genn1": (_verify_genn1, {"j": 2, "order": 40}),
    "sptpng": (_verify_sptpng, {"j": 2, "order": 40}),
    "jgn": (_verify_jgn, {"order": 25}),
    "sptdiff": (_verify_sptdiff, {"j": 2, "order": 30}),
    "kn1": (_verify_kn1, {"j": 2, "order": 30}),
    "genjmu2k": (_verify_genjmu2k, {"j": 2, "k": 1, "order": 30}),
    "appbp": (_verify_appbp, {"r": 1, "k": 1, "order": 25}),
    "gtjsptk": (_verify_gtjsptk, {"j": 2, "k": 1, "order": 20}),
    "relos": (_verify_relos, {"j": 2, "k": 2, "order": 30}),
    "fdyson": (_verify_fdyson, {"order": 40}),
    "Rk-forms": (_verify_rk_forms, {"j": 2, "order": 25}),
    "lemma31": (_verify_lemma31, {"order": 20}),
    "lemma32": (_verify_lemma32, {"order": 20}),
    "genineq": (_verify_genineq, {"j": 2, "k": 1, "order": 40}),
}

# These verifiers enumerate the partitions of the order, one walk for every n
# up to it (p(60) = 966467), so they have a limit of their own.
_ENUMERATING = ("lemma31", "lemma32")
LEMMA_N_MAX = 60
# These read the 2k-th ordinary moments, whose cost grows with 2k (stats.MOMENT_ORDER_MAX).
_MOMENTS = ("relos", "genineq")


def verify(identity: str, j: int | None = None, k: int | None = None,
           r: int | None = None, order: int | None = None) -> tuple[int, list, list]:
    """Check a named identity and return ``(order, rows, notes)``.

    A parameter left as None takes the identity's default.
    """
    if identity not in IDENTITIES:
        raise ValueError(f"unknown identity {identity!r}; known: {', '.join(sorted(IDENTITIES))}")
    fn, defaults = IDENTITIES[identity]
    j = j if j is not None else defaults.get("j", 1)
    k = k if k is not None else defaults.get("k", 1)
    r = r if r is not None else defaults.get("r", 1)
    order = order if order is not None else defaults["order"]
    if min(j, k, r) < 1 or order < 1:
        raise ValueError("j, k, r and the order must be >= 1")
    if identity in _ENUMERATING and order > LEMMA_N_MAX:
        raise ValueError(f"{identity} enumerates partitions; the order must be <= {LEMMA_N_MAX}")
    if identity in _MOMENTS and 2 * k > stats.MOMENT_ORDER_MAX:
        raise ValueError(f"{identity} reads the 2k-th moments; 2k must be <= "
                         f"{stats.MOMENT_ORDER_MAX}")
    rows, notes = fn(j, k, r, order)
    return order, rows, notes
