"""Command-line front end: compute tables, verify identities, check congruences.

Exit codes: 0 = success / all checks pass, 1 = a mathematical discrepancy was
found, 2 = usage error, 3 = an internal or I/O error (such as a closed output
pipe), reported as one ``error:`` line on stderr.
"""

from __future__ import annotations

import os
import sys

import click

from . import __version__
from . import spt as sptmod
from . import stats
from .partitions import partition_count
from .series import DiscrepancyError, read_down

CACHE_ENV = "QSPT_CACHE"
CACHE_VERSION = 1

_FORMATS = click.Choice(["plain", "csv", "json"])


# ---------------------------------------------------------------------------
# output and cache helpers


def _emit(rows: list[tuple], header: tuple[str, ...], fmt: str) -> None:
    """Write one row at a time, JSON byte for byte as one ``json.dumps`` of the row dicts.

    The rows are flushed once, at the end: still inside the command, so that
    a closed pipe is reported as any other error is.
    """
    write = sys.stdout.write
    if fmt == "json":
        import json
        write("[")
        for i, row in enumerate(rows):
            cells = (x if isinstance(x, (int, str)) else str(x) for x in row)
            write((", " if i else "") + json.dumps(dict(zip(header, cells))))
        write("]\n")
    else:
        sep = "," if fmt == "csv" else " "
        if fmt == "csv":
            write(sep.join(header) + "\n")
        for row in rows:
            write(sep.join(map(str, row)) + "\n")
    sys.stdout.flush()


def _verdict(rows: list[tuple], fmt: str, passed: str, failed) -> None:
    """Report check rows (label, lhs, rhs, ok) and exit 0 if all hold, else 1.

    Plain output is the ``passed`` line or ``failed(first failing row)``.
    """
    ok = all(row[3] for row in rows)
    if fmt != "plain":
        _emit(rows, ("n", "lhs", "rhs", "ok"), fmt)
    elif ok:
        click.echo(passed)
    else:
        click.echo(failed(next(row for row in rows if not row[3])))
    sys.exit(0 if ok else 1)


def _load_cache(path: str | None) -> dict:
    """The cache document; a missing, unreadable or malformed file counts as empty."""
    empty = {"version": CACHE_VERSION, "entries": {}}
    if not path or not os.path.exists(path):
        return empty
    import json
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        click.echo(f"warning: ignoring cache {path}: {exc}", err=True)
        return empty
    if not (isinstance(doc, dict) and doc.get("version") == CACHE_VERSION
            and isinstance(doc.get("entries"), dict)):
        click.echo(f"warning: ignoring cache {path}: not a version {CACHE_VERSION} "
                   "cache document", err=True)
        return empty
    return doc


def _cached_values(entry, n_max: int) -> list[int] | None:
    """The values of a cache entry, or None unless it holds n_max integer strings."""
    if not (isinstance(entry, list) and len(entry) == n_max
            and all(isinstance(v, str) for v in entry)):
        return None
    try:
        return [int(v) for v in entry]
    except ValueError:
        return None


def _save_cache(path: str | None, doc: dict) -> None:
    """Write the cache through a temporary file, so readers never see a partial one."""
    if not path:
        return
    import json
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
        os.replace(tmp, path)
    except OSError as exc:
        click.echo(f"warning: cache {path} not written: {exc}", err=True)
        if os.path.exists(tmp):
            os.remove(tmp)


# ---------------------------------------------------------------------------
# commands


class _Main(click.Group):
    def invoke(self, ctx: click.Context):
        # every command reports a mathematical discrepancy the same way, and
        # keeps exit 1 for it: any other failure is exit 3
        try:
            return super().invoke(ctx)
        except DiscrepancyError as exc:
            click.echo(f"FAIL {exc}", err=True)
            sys.exit(1)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as exc:
            if isinstance(exc, BrokenPipeError):
                # the reader is gone: send what is still buffered nowhere, so
                # that the interpreter's last flush does not fail again
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(3)


@click.group(cls=_Main)
def main() -> None:
    """Exact smallest-part partition statistics: compute, verify, tabulate."""
    # exact values can run past CPython's default 4300-digit int-to-str cap
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


@main.command()
@click.option("--family", type=click.Choice(list(sptmod.FAMILIES)), required=True)
@click.option("--j", "j", type=int, default=None)
@click.option("--k", "k", type=int, default=None)
@click.option("--n-max", "n_max", type=int, required=True)
@click.option("--route", type=click.Choice(sptmod.ROUTES), default=None,
              help="Default: the family's first route.")
@click.option("--format", "fmt", type=_FORMATS, default="plain", show_default=True)
@click.option("--cache", type=click.Path(), default=None,
              help=f"JSON cache file (default from ${CACHE_ENV}).")
def compute(family, j, k, n_max, route, fmt, cache) -> None:
    """Print the values of a family for n = 1..n_max."""
    cache = cache or os.environ.get(CACHE_ENV)
    try:
        request = sptmod.SptRequest(family, n_max, j=j, k=k, route=route)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    # the version leads the key, so another release's entries are never read
    key = f"{__version__}|{family}|j={j}|k={k}|route={request.route}|N={n_max}"
    doc = _load_cache(cache)
    values = _cached_values(doc["entries"].get(key), n_max)
    if values is None:
        values = request.values()
        doc["entries"][key] = [str(v) for v in values]
        _save_cache(cache, doc)
    _emit(list(zip(range(1, n_max + 1), values)), ("n", "value"), fmt)


@main.command()
@click.argument("identity", type=str)
@click.option("--j", "j", type=int, default=None)
@click.option("--k", "k", type=int, default=None)
@click.option("--r", "r", type=int, default=None)
@click.option("--n-max", "--N", "order", type=int, default=None)
@click.option("--format", "fmt", type=_FORMATS, default="plain", show_default=True)
def verify(identity, j, k, r, order, fmt) -> None:
    """Expand both sides of a named identity and report PASS or the first gap."""
    from . import identities
    try:
        order, rows, notes = identities.verify(identity, j, k, r, order)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if fmt == "plain":
        for note in notes:
            click.echo(f"# {note}", err=True)
    _verdict(rows, fmt, f"PASS {identity} (order {order}, {len(rows)} checks)",
             lambda row: f"FAIL {identity} at {row[0]}: lhs={row[1]} rhs={row[2]}")


@main.command()
@click.option("--kind", type=click.Choice(["count", "moment", "symmetrized"]),
              required=True)
@click.option("--j", "j", type=int, required=True)
@click.option("--index", type=int, required=True,
              help="m for counts, t for moments, k for symmetrized moments.")
@click.option("--n-max", "n_max", type=int, required=True)
@click.option("--format", "fmt", type=_FORMATS, default="plain", show_default=True)
def table(kind, j, index, n_max, fmt) -> None:
    """Print a statistics table (counts, moments, or symmetrized moments)."""
    if j < 1 or n_max < 1:
        raise click.UsageError("j and n-max must be >= 1")
    if kind == "moment" and index < 0:
        raise click.UsageError("index must be nonnegative")
    if kind == "symmetrized" and index < 1:
        raise click.UsageError("index must be >= 1 for symmetrized moments")
    if kind == "moment" and index % 2 == 1:
        click.echo("# odd moments vanish identically", err=True)
    stat = {"count": stats.count_njm, "moment": stats.moment, "symmetrized": stats.sym_mu}[kind]
    _emit(read_down(lambda n: (n, stat(j, index, n)), 0, n_max), ("n", "value"), fmt)


@main.command()
@click.option("--n-max", "n_max", type=int, default=30, show_default=True)
@click.option("--format", "fmt", type=_FORMATS, default="plain", show_default=True)
def congruence(n_max, fmt) -> None:
    """Check the classical p(n) congruences and their Spt analogues."""
    if n_max < 1:
        raise click.UsageError("n-max must be >= 1")
    rows = []
    for ell, m in ((5, 4), (7, 5), (11, 6)):
        t = 0
        while ell * t + m <= n_max:
            arg = ell * t + m
            pv = partition_count(arg)
            rows.append((f"p({arg})%{ell}", pv % ell, 0, pv % ell == 0))
            sv = sptmod.spt_j(arg + 1, arg, "moments")
            rows.append((f"Spt_{arg + 1}({arg})%{ell}", sv % ell, 0, sv % ell == 0))
            t += 1
    _verdict(rows, fmt, f"PASS congruences ({len(rows)} checks, n <= {n_max})",
             lambda row: f"FAIL congruence at {row[0]}: residue {row[1]}")


if __name__ == "__main__":
    main()
