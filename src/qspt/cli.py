"""Command-line front end: compute tables, verify identities, check congruences.

Exit codes: 0 = success / all checks pass, 1 = a mathematical discrepancy was
found, 2 = usage error, 3 = an internal or I/O error (such as a closed output
pipe), reported as one ``error:`` line on stderr.

A usage error prints the command's usage line, a ``Try '<command> --help' for
help.`` line and a blank line, then ``Error: <message>``, all on stderr; a
missing or unexpected option value prints the ``Error:`` line alone.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from . import spt as sptmod
from . import stats
from .partitions import partition_count
from .series import DiscrepancyError, read_down

CACHE_ENV = "QSPT_CACHE"
CACHE_VERSION = 1

_FORMATS = ("plain", "csv", "json")


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
        print(passed, flush=True)
    else:
        print(failed(next(row for row in rows if not row[3])), flush=True)
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
        print(f"warning: ignoring cache {path}: {exc}", file=sys.stderr)
        return empty
    if not (isinstance(doc, dict) and doc.get("version") == CACHE_VERSION
            and isinstance(doc.get("entries"), dict)):
        print(f"warning: ignoring cache {path}: not a version {CACHE_VERSION} "
              "cache document", file=sys.stderr)
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
        print(f"warning: cache {path} not written: {exc}", file=sys.stderr)
        if os.path.exists(tmp):
            os.remove(tmp)


# ---------------------------------------------------------------------------
# the command line
#
# argparse declares every option and writes the help pages; the words are read
# by `_scan` against those declarations, because argparse's own reading differs
# from the CLI's in corner cases (a value that starts with "-" or is "--").


class _UsageError(Exception):
    """Exit 2 with ``Error: <message>``, after the usage lines unless ``bare``."""

    def __init__(self, message: str, bare: bool = False) -> None:
        super().__init__(message)
        self.bare = bare


def _int(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a valid integer.") from None


def _path(value: str) -> str:
    # a path may be new, but one that exists must be readable
    if os.path.exists(value) and not os.access(value, os.R_OK):
        raise argparse.ArgumentTypeError(f"Path {value!r} is not readable.")
    return value


def _one_of(choices: tuple[str, ...]):
    def choice(value: str) -> str:
        if value not in choices:
            raise argparse.ArgumentTypeError(
                f"{value!r} is not one of {', '.join(map(repr, choices))}.")
        return value
    return choice


def _opt(*flags: str, type=_int, choices=None, required: bool = False, default=None,
         help: str = "", **kwargs) -> tuple:
    """The flags and ``add_argument`` keywords of one option, its help marked
    ``(required)`` or with its default."""
    if choices is not None:
        choices = tuple(choices)
        type = _one_of(choices)
    if required:
        help = f"{help} (required)".lstrip()
    elif default is not None:
        help = f"{help} (default: %(default)s)".lstrip()
    return flags, dict(kwargs, type=type, choices=choices, required=required, default=default,
                       help=help)


_FORMAT = _opt("--format", dest="fmt", choices=_FORMATS, default="plain")
_HELP = "Show this message and exit."

# name -> (function, options, help of its IDENTITY argument or None), in the
# order of the help page
_COMMANDS: dict[str, tuple] = {}


def _command(*options: tuple, identity: str | None = None):
    """Register the decorated function as a command with these ``_opt`` options."""
    def register(fn):
        _COMMANDS[fn.__name__] = fn, options, identity
        return fn
    return register


def _parser(prog: str) -> tuple[argparse.ArgumentParser, dict]:
    """The program's parser, and each command's parser with its declared arguments.

    An argument is an argparse ``Action``: the IDENTITY argument first, then the
    options in their order on the help page.
    """
    parser = argparse.ArgumentParser(
        prog=prog, usage="%(prog)s [OPTIONS] COMMAND [ARGS]...", add_help=False,
        allow_abbrev=False,
        description="Exact smallest-part partition statistics: compute, verify, tabulate.")
    parser.add_argument("--help", action="store_true", help=_HELP)
    subparsers = parser.add_subparsers(title="commands", metavar="COMMAND")
    commands = {}
    for name, (fn, options, identity) in _COMMANDS.items():
        usage = "%(prog)s [OPTIONS] IDENTITY" if identity else "%(prog)s [OPTIONS]"
        sub = subparsers.add_parser(name, prog=f"{prog} {name}", usage=usage,
                                    help=fn.__doc__, description=fn.__doc__,
                                    add_help=False, allow_abbrev=False)
        declared = []
        if identity:
            declared.append(sub.add_argument("identity", metavar="IDENTITY", help=identity))
        declared += [sub.add_argument(*flags, **kwargs) for flags, kwargs in options]
        sub.add_argument("--help", action="store_true", help=_HELP)
        commands[name] = sub, declared
    return parser, commands


def _hint(action: argparse.Action) -> str:
    return " / ".join(f"'{flag}'" for flag in action.option_strings)


def _did_you_mean(word: str, known) -> str:
    """The close matches of a word that names no option or command, as a hint."""
    from difflib import get_close_matches
    close = sorted(get_close_matches(word, known))
    text = ", ".join(map(repr, close))
    if len(close) > 1:
        return f" (Did you mean one of: {text}?)"
    return f" Did you mean {text}?" if close else ""


def _scan(argv: list[str], options: dict[str, argparse.Action | None],
          interspersed: bool = True) -> tuple[list, list[str]]:
    """The options given, as (action, value) pairs in order, and the other words.

    Up to a ``--``, a word of two or more characters that starts with ``-`` is an
    option. A value option takes what follows ``=`` in its word, else the next
    word, whatever that is; ``options`` maps it to its action, and ``--help``,
    which takes no value, to None. Unless ``interspersed``, the first other word
    ends the options.
    """
    given, words = [], []
    rest = iter(argv)
    for arg in rest:
        if arg == "--":
            words += rest
        elif arg[:1] != "-" or len(arg) == 1:
            words.append(arg)
            if not interspersed:
                words += rest
        else:
            flag, eq, value = arg.partition("=")
            if flag not in options:
                if arg[1] != "-":
                    raise _UsageError(f"No such option {arg[:2]!r}.")
                raise _UsageError(f"No such option {flag!r}.{_did_you_mean(flag, options)}")
            action = options[flag]
            if action is None:
                if eq:
                    raise _UsageError(f"Option {flag!r} does not take a value.", bare=True)
            elif not eq:
                value = next(rest, None)
                if value is None:
                    raise _UsageError(f"Option {flag!r} requires an argument.", bare=True)
            given.append((action, value))
    return given, words


def _help(parser: argparse.ArgumentParser, given: list) -> None:
    """Print the help page and exit 0 if ``--help`` was given."""
    if any(action is None for action, _ in given):
        sys.stdout.write(parser.format_help())
        sys.exit(0)


def _read(parser: argparse.ArgumentParser, declared: list[argparse.Action],
          argv: list[str]) -> dict:
    """A command's keyword arguments from its words, or a usage error.

    The values are checked in this order: each option given (the last value of
    one given twice, where it was first given), the IDENTITY argument, the
    options not given; then any word left over is an error.
    """
    options = {flag: action for action in declared for flag in action.option_strings}
    given, words = _scan(argv, {**options, "--help": None})
    _help(parser, given)
    kwargs = {}
    # a dict keeps the place of a key's first entry and the value of its last
    for action, value in {action: value for action, value in given}.items():
        try:
            kwargs[action.dest] = action.type(value)
        except argparse.ArgumentTypeError as exc:
            raise _UsageError(f"Invalid value for {_hint(action)}: {exc}") from None
    for action in declared:
        if action.option_strings:
            continue
        if not words:
            raise _UsageError(f"Missing argument '{action.metavar}'.")
        kwargs[action.dest] = words.pop(0)
    for action in declared:
        if action.dest in kwargs:
            continue
        if action.required:
            choose = " Choose from:\n\t" + ",\n\t".join(action.choices) if action.choices else ""
            raise _UsageError(f"Missing option {_hint(action)}.{choose}")
        kwargs[action.dest] = action.default
    if words:
        raise _UsageError(f"Got unexpected extra argument{'s' if len(words) > 1 else ''} "
                          f"({' '.join(words)})")
    return kwargs


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Run one command line (``sys.argv[1:]`` unless ``args`` is given) as the program
    ``prog_name``; a usage error, a discrepancy and any other failure exit 2, 1 and 3."""
    argv = sys.argv[1:] if args is None else list(args)
    parser, commands = _parser(prog_name or os.path.basename(sys.argv[0]))
    shown = parser  # the parser whose usage line a usage error shows
    try:
        if not argv:
            sys.stderr.write(parser.format_help())
            sys.exit(2)
        given, words = _scan(argv, {"--help": None}, interspersed=False)
        _help(parser, given)
        if not words:
            raise _UsageError("Missing command.")
        name = words[0]
        if name not in commands:
            if name[:1] and not name[:1].isalnum():
                # read again as the program's options, so `qspt -- --help` shows help
                _help(parser, _scan(words, {"--help": None}, interspersed=False)[0])
            raise _UsageError(f"No such command {name!r}.{_did_you_mean(name, commands)}")
        shown, declared = commands[name]
        kwargs = _read(shown, declared, words[1:])
        # exact values can run past CPython's default 4300-digit int-to-str cap
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(0)
        # every command reports a mathematical discrepancy the same way, and
        # keeps exit 1 for it: any other failure is exit 3
        _COMMANDS[name][0](**kwargs)
    except _UsageError as exc:
        if not exc.bare:
            sys.stderr.write(f"Usage: {shown.usage % {'prog': shown.prog}}\n"
                             f"Try '{shown.prog} --help' for help.\n\n")
        sys.stderr.write(f"Error: {exc}\n")
        sys.exit(2)
    except DiscrepancyError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        sys.exit(1)
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        sys.exit(1)
    except Exception as exc:
        if isinstance(exc, BrokenPipeError):
            # the reader is gone: send what is still buffered nowhere, so
            # that the interpreter's last flush does not fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(3)


# the form ``main.main(args=..., prog_name=...)`` runs a command line in-process
main.main = main


# ---------------------------------------------------------------------------
# commands


@_command(
    _opt("--family", choices=sptmod.FAMILIES, required=True),
    _opt("--j"),
    _opt("--k"),
    _opt("--n-max", required=True),
    _opt("--route", choices=sptmod.ROUTES, help="Default: the family's first route."),
    _FORMAT,
    _opt("--cache", type=_path, metavar="PATH",
         help=f"JSON cache file (default from ${CACHE_ENV})."),
)
def compute(family, j, k, n_max, route, fmt, cache) -> None:
    """Print the values of a family for n = 1..n_max."""
    cache = cache or os.environ.get(CACHE_ENV)
    try:
        request = sptmod.SptRequest(family, n_max, j=j, k=k, route=route)
    except ValueError as exc:
        raise _UsageError(str(exc))
    # the version leads the key, so another release's entries are never read
    key = f"{__version__}|{family}|j={j}|k={k}|route={request.route}|N={n_max}"
    doc = _load_cache(cache)
    values = _cached_values(doc["entries"].get(key), n_max)
    if values is None:
        values = request.values()
        doc["entries"][key] = [str(v) for v in values]
        _save_cache(cache, doc)
    _emit(list(zip(range(1, n_max + 1), values)), ("n", "value"), fmt)


@_command(
    _opt("--j"),
    _opt("--k"),
    _opt("--r"),
    _opt("--n-max", "--N", dest="order"),
    _FORMAT,
    identity="The identity to check, one of qspt.identities.IDENTITIES.",
)
def verify(identity, j, k, r, order, fmt) -> None:
    """Expand both sides of a named identity and report PASS or the first gap."""
    from . import identities
    try:
        order, rows, notes = identities.verify(identity, j, k, r, order)
    except ValueError as exc:
        raise _UsageError(str(exc))
    if fmt == "plain":
        for note in notes:
            print(f"# {note}", file=sys.stderr)
    _verdict(rows, fmt, f"PASS {identity} (order {order}, {len(rows)} checks)",
             lambda row: f"FAIL {identity} at {row[0]}: lhs={row[1]} rhs={row[2]}")


@_command(
    _opt("--kind", choices=("count", "moment", "symmetrized"), required=True),
    _opt("--j", required=True),
    _opt("--index", required=True,
         help="m for counts, t for moments, k for symmetrized moments."),
    _opt("--n-max", required=True),
    _FORMAT,
)
def table(kind, j, index, n_max, fmt) -> None:
    """Print a statistics table (counts, moments, or symmetrized moments)."""
    if j < 1 or n_max < 1:
        raise _UsageError("j and n-max must be >= 1")
    if kind == "moment" and index < 0:
        raise _UsageError("index must be nonnegative")
    if kind == "symmetrized" and index < 1:
        raise _UsageError("index must be >= 1 for symmetrized moments")
    if kind == "moment" and index % 2 == 1:
        print("# odd moments vanish identically", file=sys.stderr)
    stat = {"count": stats.count_njm, "moment": stats.moment, "symmetrized": stats.sym_mu}[kind]
    _emit(read_down(lambda n: (n, stat(j, index, n)), 0, n_max), ("n", "value"), fmt)


@_command(_opt("--n-max", default=30), _FORMAT)
def congruence(n_max, fmt) -> None:
    """Check the classical p(n) congruences and their Spt analogues."""
    if n_max < 1:
        raise _UsageError("n-max must be >= 1")
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
    main(prog_name="python -m qspt.cli")
