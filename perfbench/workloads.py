"""Request sequences of the four benchmark workloads.

A CLI workload is a list of ``qspt`` argument vectors; the seed only fixes
their order.  ``lib-session`` is a list of library calls whose kinds and
arguments are drawn from the seed.  qspt receives only these generated
arguments.  See README.md for why each workload exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("cli-moments", "cli-gf", "cli-verify", "lib-session")
CLI_WORKLOADS = WORKLOADS[:3]

# Each is issued twice: the first issue misses the run-private --cache file
# (computes, then rewrites the cache), the second is answered from it.
MOMENT_COMPUTES = (
    "compute --family Spt_j --j 2 --n-max 600",
    "compute --family Spt_j --j 3 --n-max 300",
    "compute --family spt_k --k 2 --n-max 300",
    "compute --family jspt_k --j 2 --k 2 --n-max 300",
    "compute --family p --n-max 600",
    "compute --family spt --n-max 600",
)
MOMENT_TABLES = (
    "table --kind moment --j 2 --index 4 --n-max 300",
    "table --kind symmetrized --j 3 --index 4 --n-max 300",
)
GF_REQUESTS = (
    "compute --family Spt_j --j 2 --n-max 60 --route gf",
    "compute --family Spt_j --j 3 --n-max 60 --route gf",
    "compute --family spt_k --k 2 --n-max 60 --route gf",
    "compute --family jspt_k --j 2 --k 2 --n-max 50 --route gf",
    "verify genn1 --n-max 80",
    "verify appbp --k 2 --n-max 80",
)
IDENTITIES = (
    "sptpn", "genn1", "sptpng", "jgn", "sptdiff", "kn1", "genjmu2k", "appbp",
    "gtjsptk", "relos", "fdyson", "Rk-forms", "lemma31", "lemma32", "genineq",
)
VERIFY_REQUESTS = (
    "verify kn1 --n-max 90",
    "verify genjmu2k --n-max 90",
    "verify Rk-forms --n-max 70",
    "verify lemma31 --n-max 35",
    "verify lemma32 --n-max 35",
    "verify sptpn --n-max 300",
    *(f"verify {name}" for name in IDENTITIES),
    "compute --route all --family jspt_k --j 2 --k 1 --n-max 25",
    # The weight route enumerates all p(n) partitions by design, hence n <= 30.
    "compute --route weight --family Spt_j --j 2 --n-max 30",
)

LIB_CALLS_PER_KIND = 143  # seven kinds: 1001 calls per pass
LIB_N_MAX = 300
LIB_GF_N_MAX = 40
# (library function, leading arguments, trailing arguments, largest n)
LIB_KINDS = (
    ("spt_j", (2,), (), LIB_N_MAX),
    ("spt_j", (3,), (), LIB_N_MAX),
    ("jspt_k", (2, 2), (), LIB_N_MAX),
    ("moment", (2, 4), (), LIB_N_MAX),
    ("relation_sum", (3,), (), LIB_N_MAX),
    ("spt_j", (2,), ("gf",), LIB_GF_N_MAX),
    ("partition_count", (), (), LIB_N_MAX),
)
TOY_N_MAX = 12


@dataclass(frozen=True)
class Request:
    """One CLI request: its arguments and its class in the metrics.

    ``kind`` is "miss" or "hit" for the first and second issue of a
    cli-moments compute, which run with the --cache file, and "compute" for
    every other request.  Hit latencies go to hit_p50_s, the others to
    req_p50_s.
    """

    args: tuple[str, ...]
    kind: str = "compute"

    @property
    def key(self) -> str:
        """The reference key: the arguments as one string."""
        return " ".join(self.args)


def _toy(line: str) -> str:
    """Cap the order of a request at TOY_N_MAX (for the self-test)."""
    words = line.split()
    if "--n-max" in words:
        i = words.index("--n-max") + 1
        words[i] = str(min(int(words[i]), TOY_N_MAX))
    else:
        words += ["--n-max", str(TOY_N_MAX)]
    return " ".join(words)


def _rng(seed: int, pass_index: int) -> random.Random:
    # Each pass of a run draws its own inputs, so a run's medians pool
    # several orders (and, in lib-session, several call sequences).
    return random.Random(f"{seed}/{pass_index}")


def cli_requests(workload: str, seed: int, pass_index: int = 0,
                 toy: bool = False) -> list[Request]:
    """The seeded request order of one pass of a CLI workload."""
    if workload == "cli-moments":
        lines = [*MOMENT_COMPUTES, *MOMENT_COMPUTES, *MOMENT_TABLES]
    elif workload == "cli-gf":
        lines = list(GF_REQUESTS)
    elif workload == "cli-verify":
        lines = list(VERIFY_REQUESTS)
    else:
        raise ValueError(f"not a CLI workload: {workload}")
    if toy:
        lines = [_toy(line) for line in lines]
    _rng(seed, pass_index).shuffle(lines)
    seen: set[str] = set()
    out = []
    for line in lines:
        kind = "compute"
        if workload == "cli-moments" and line.startswith("compute"):
            kind = "hit" if line in seen else "miss"
        seen.add(line)
        out.append(Request(tuple(line.split()), kind))
    return out


def lib_calls(seed: int, pass_index: int = 0, toy: bool = False) -> list[list]:
    """The seeded call sequence of one lib-session pass: [function, [args...]] pairs.

    Every call kind is made equally often, and its n are drawn one from each
    of equal strata of [1, largest n], so that the mix of cheap and costly
    calls (which sets the median latency) is the same for every seed; the
    seed draws n within each stratum and the order of the calls, which
    decides which calls find their tables already built.
    """
    rng = _rng(seed, pass_index)
    per_kind = 6 if toy else LIB_CALLS_PER_KIND
    calls = []
    for fn, lead, tail, n_max in LIB_KINDS:
        n_max = min(n_max, TOY_N_MAX) if toy else n_max
        for i in range(per_kind):
            lo = 1 + i * n_max // per_kind
            hi = max(lo, (i + 1) * n_max // per_kind)
            calls.append([fn, [*lead, rng.randint(lo, hi), *tail]])
    rng.shuffle(calls)
    return calls


def lib_reference(refs: dict, fn: str, args: list) -> int:
    """The committed value of one lib-session call.

    Every call kind reads a value that some cli-moments request also prints:
    relation_sum(3, n) is Spt_3(n) and the gf route of spt_j must agree with
    the moments route.
    """
    n = args[-2] if args[-1] == "gf" else args[-1]
    table = {
        "spt_j": f"Spt_j{args[0]}",
        "relation_sum": f"Spt_j{args[0]}",
        "jspt_k": "jspt_k22",
        "moment": "moment24",
        "partition_count": "p",
    }[fn]
    return refs["lib"][table][n]
