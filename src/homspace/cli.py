"""Command-line front end.

One-shot queries only: humans read the text reports, programs pass --json.
Identical invocations produce byte-identical output (ANSI styling is applied
only on a terminal and can be disabled with HOMSPACE_NO_COLOR).

Exit codes: 0 success, 1 input error or an internal limit met by valid
input (``E_LIMIT``), 2 internal invariant violation.  Every error carries a
machine-readable code plus the JSON path or flag that caused it.  A command
that fails writes nothing to stdout.

Each command's flags are declared once, in ``_COMMAND_FLAGS``: name,
whether the flag takes a value, default, required, help.  The argparse
parser is built from that table, and a well-formed query is read straight
off it (``_parse_direct``): exact flag names or unique ``--`` abbreviations,
``--flag value`` or ``--flag=value``, each flag once and every required one
given, which argparse would read to the same namespace.  Anything else (no
command named, an unknown or repeated flag, help, a missing value) goes to
the argparse parser, so usage, help, ``--version`` and every error message
stay argparse's own, byte for byte.  Both readers give the command a
``types.SimpleNamespace``.

The console script starts a fresh interpreter for every query, so each
module a query imports is paid on every call, and a cold ``snf`` would
spend far longer importing the model stack than taking its Smith form.
This module therefore imports only ``intlinalg`` and the C string escaper
of ``_json``, which ``json.encoder`` re-exports, so that writing JSON loads
no ``json`` package.  The other commands' handlers live in modules of their
own, each imported at its command's first query (``_first_query``):

* ``snf`` loads nothing more;
* ``ext`` loads ``homspace.ext``, ``abgroups``, ``extensions`` and
  ``fractions``;
* ``describe``, ``invariants`` and ``weights`` load ``homspace.spec``, the
  group-spec format, and with it the model layers, none of which imports
  ``dataclasses``.  A ``--preset`` query loads nothing more; ``--spec``
  loads ``json`` to parse the document and ``fractions`` to read its torus
  parts, as does the ``GL(n)`` preset, whose torus part is a Fraction;
* ``re`` only for a fraction spelled with an exponent (``_split_exponent``),
  unless ``json`` or ``fractions`` loaded it already;
* ``argparse`` (and ``contextlib``) only for an argv that the direct
  reader leaves to the top-level parser, which is built then, once.

In one process, a repeated query writes what its first query kept: a model
keeps the fields that ``invariants`` and ``weights`` print
(``homspace.spec``), and ``ext`` keeps its answer per ``--group`` and
``--char`` text (``homspace.ext``).  Both are tagged with the digit limit,
so a query under another limit builds its answer again.
"""

from __future__ import annotations

import io
import os
import sys
from _json import encode_basestring_ascii as _encode_str
from collections import namedtuple
from functools import lru_cache
from types import SimpleNamespace

from . import __version__
from .intlinalg import format_matrix_literal, parse_matrix_literal, smith_normal_form


class CliError(Exception):
    """User-input error with a machine-readable code and location."""

    def __init__(self, code: str, where: str, message: str):
        super().__init__(message)
        self.code = code
        self.where = where
        self.message = message

    def render(self) -> str:
        return f"error[{self.code}] at {self.where}: {self.message}"


def _parse_fraction(text, where: str):
    import fractions

    if not isinstance(text, str):
        raise CliError("E_SCHEMA", where, f"fractions are strings like \"1/2\", got {text!r}")
    # plain ASCII "a/b" and "a" are read by int(), with the value and the
    # errors of Fraction(text); int() stays inside the try so that its
    # digit-limit ValueError is chained to the CliError (E_LIMIT)
    num, slash, den = text.partition("/")
    try:
        if text.isascii() and num.isdigit() and (den.isdigit() or not slash):
            value, power = fractions.Fraction(int(num), int(den or 1)), 0
        else:
            spelling, power = _split_exponent(text)
            value = fractions.Fraction(spelling)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError("E_FRACTION", where, f"malformed fraction {text!r}") from exc
    if power < 0 and value > 0:
        limit = sys.get_int_max_str_digits()
        raise CliError(
            "E_LIMIT",
            where,
            f"fraction {text!r} has a denominator past the int-to-str limit of {limit} digits "
            "(sys.get_int_max_str_digits())",
        )
    if not 0 <= value.numerator < value.denominator or (power > 0 and value):
        raise CliError("E_FRACTION", where, f"fraction {text!r} must be reduced into [0, 1)")
    return value


def _split_exponent(text: str):
    """(s, p) with Fraction(text) == Fraction(s) * 10**p, so that Fraction
    never raises 10 to an exponent e past the digit limit plus len(text):
    there s is text with e written as 0 and p is e, and otherwise s is text
    and p is 0.  Such an e leaves a nonzero value with a denominator of more
    than the digit limit's digits (e < 0), or at least 1 in absolute value
    (e > 0), because the mantissa has fewer than len(text) digits.  Fraction
    still reads the mantissa, and checks the spelling."""
    import re

    # the exponent of a decimal spelling such as "5e-1", as Fraction(text) reads it
    exponent = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", text)
    limit = sys.get_int_max_str_digits()
    if exponent is None or not limit:
        return text, 0
    power = int(exponent.group(1))
    if abs(power) <= limit + len(text):
        return text, 0
    return text[: exponent.start(1)] + "0" + text[exponent.end(1) :], power


class _Printer:
    def __init__(self, stream, color: bool):
        self.stream = stream
        self.color = color

    def line(self, text=""):
        self.stream.write(text + "\n")

    def header(self, text):
        if self.color:
            self.stream.write(f"\x1b[1m{text}\x1b[0m\n")
        else:
            self.stream.write(text + "\n")

    def json(self, payload):
        self.stream.write(json_text(payload) + "\n")


def json_text(value) -> str:
    """The text of ``json.dumps(value, indent=2)`` (ASCII, keys in insertion
    order) for dicts with str keys, lists, tuples, str, int, bool and None,
    where a ``WeightBrauerTable`` is written as the list of its rows, each
    the dict ``{"node", "weight", "restriction", "brauer_class",
    "trivial"}``.  ``json`` runs its pure-Python encoder whenever ``indent``
    is set; this writer builds the same text in one pass, one string per
    container, with the scalars of a container written in place, and a
    weight table straight from its restriction matrix.  Any other type,
    float included, raises TypeError."""
    kind = type(value)
    if kind is dict or kind is list or kind is tuple:
        return _json_container(value, kind, "\n")
    return _json_scalar(value, kind, "\n")


def _json_scalar(x, kind, newline: str) -> str:
    if kind is str:
        return _encode_str(x)
    if kind is int:
        return int.__repr__(x)
    if x is True:
        return "true"
    if x is False:
        return "false"
    if x is None:
        return "null"
    # a weight table is the one other type a payload holds; one exists only
    # once the invariants layer is loaded, which this module never imports
    tables = sys.modules.get("homspace.invariants")
    if tables is not None and kind is tables.WeightBrauerTable:
        return _json_weight_table(x, newline)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _json_container(x, kind, newline: str) -> str:
    if not x:
        return "{}" if kind is dict else "[]"
    inner = newline + "  "
    if kind is dict:
        keys, head, close = iter(x), "{" + inner, newline + "}"
    elif set(map(type, x)) == {int}:
        # weight vectors and lattice rows: exact ints only, since bools and
        # int subclasses print otherwise
        body = repr(list(x))[1:-1].replace(", ", "," + inner)
        return f"[{inner}{body}{newline}]"
    else:
        keys, head, close = None, "[" + inner, newline + "]"
    # one join over every piece: a value's text is copied once, into this
    # container's text, and never into an intermediate list of its own
    sep = "," + inner
    chunks = []
    for item in x.values() if keys else x:
        # _encode_str raises TypeError unless the key is a str
        chunks.append(head + _encode_str(next(keys)) + ": " if keys else head)
        head = sep
        t = type(item)
        if t is str:
            chunks.append(_encode_str(item))
        elif t is int:
            chunks.append(int.__repr__(item))
        elif t is dict or t is list or t is tuple:
            chunks.append(_json_container(item, t, inner))
        else:
            chunks.append(_json_scalar(item, t, inner))
    chunks.append(close)
    return "".join(chunks)


def _json_weight_table(table, newline: str) -> str:
    """The rows of ``table`` as ``_json_container`` writes their dicts.  Row
    i's weight e_i is a slice of one run of zeros with a 1 spliced in, and
    its restriction is written once and serves as its Brauer class too."""
    if not table.datum.rank:
        return "[]"
    row, key, item = newline + "  ", newline + "    ", newline + "      "
    sep = "," + item
    zeros = sep.join(["0"] * table.datum.rank)
    step = 1 + len(sep)  # a "0" and the separator after it
    rows = []
    for i, (label, column) in enumerate(table.columns()):
        restriction = f"[{item}{sep.join(map(str, column))}{key}]" if column else "[]"
        at = i * step
        rows.append(
            f'{{{key}"node": {_encode_str(label)},{key}"weight": [{item}{zeros[:at]}1{zeros[at + 1 :]}{key}],'
            f'{key}"restriction": {restriction},{key}"brauer_class": {restriction},'
            f'{key}"trivial": {"false" if any(column) else "true"}{row}}}'
        )
    return f"[{row}{(',' + row).join(rows)}{newline}]"


# ---------------------------------------------------------------------------
# subcommands

def _cmd_snf(args, out: _Printer) -> int:
    try:
        matrix = parse_matrix_literal(args.matrix)
    except ValueError as exc:
        raise CliError("E_INPUT", "--matrix", str(exc)) from exc
    res = smith_normal_form(matrix)
    payload = {
        "tool": {"name": "homspace", "version": __version__},
        "matrix": format_matrix_literal(matrix),
        "d": format_matrix_literal(res.d),
        "u": format_matrix_literal(res.u),
        "v": format_matrix_literal(res.v),
        "diagonal": list(res.diagonal()),
    }
    if args.json:
        out.json(payload)
        return 0
    out.header("smith normal form")
    out.line(f"D = {payload['d']}")
    out.line(f"U = {payload['u']}")
    out.line(f"V = {payload['v']}")
    return 0


class _Flag(namedtuple("_Flag", ("name", "takes_value", "default", "required", "help"), defaults=(None, False, None))):
    """One flag of a command.  A flag that takes a value stores it; any
    other flag is a switch, True when given."""

    __slots__ = ()

    @property
    def dest(self) -> str:
        return self.name[2:]


_MODEL_FLAGS = (
    _Flag("--preset", True, help="built-in model such as SO(7), GL(3), PGL(2), Spin(8), Sp(4)"),
    _Flag("--spec", True, help="path to a group-spec JSON document"),
    _Flag("--json", takes_value=False, default=False, help="machine-readable output"),
)

# every command's help line and flags, in the order --help lists them: the
# top-level parser is built from this table, and well-formed queries are
# read straight off it
_COMMAND_FLAGS = {
    "describe": (
        "show center generators/orders and pi1 data of a model",
        _MODEL_FLAGS
        + (_Flag("--expand", takes_value=False, default=False, help="print the JSON expansion of the model"),),
    ),
    "invariants": ("Picard/Brauer/topological invariant report for G/H", _MODEL_FLAGS),
    "weights": ("fundamental-weight Brauer table (semisimple models)", _MODEL_FLAGS),
    "ext": (
        "central extensions of a finite abelian group by Z",
        (
            _Flag("--group", True, required=True, help='invariant factors, e.g. "2,4"'),
            _Flag("--char", True, help='character values as fractions, e.g. "1/2,0"'),
            _Flag("--json", takes_value=False, default=False),
        ),
    ),
    "snf": (
        "Smith normal form of an integer matrix",
        (
            _Flag("--matrix", True, required=True, help='row-major literal, e.g. "2,4;6,8"'),
            _Flag("--json", takes_value=False, default=False),
        ),
    ),
}


# built on the first argv that the direct reader leaves to it, once
@lru_cache(maxsize=1)
def _parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="homspace",
        description="Exact Picard/Brauer invariants of homogeneous spaces G/H from combinatorial models of H.",
    )
    parser.add_argument("--version", action="version", version=f"homspace {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, flags) in _COMMAND_FLAGS.items():
        p = sub.add_parser(command, help=text)
        for flag in flags:
            p.add_argument(
                flag.name,
                action="store" if flag.takes_value else "store_true",
                default=flag.default,
                required=flag.required,
                help=flag.help,
            )
    return parser


def _spellings(flags) -> dict:
    """Every spelling that argparse resolves to one of ``flags``: a flag's
    name, and each prefix of it longer than "--" that no other flag's name
    and not "--help" starts with (``allow_abbrev``)."""
    names = [flag.name for flag in flags] + ["--help"]
    spellings = {}
    for flag in flags:
        for end in range(3, len(flag.name)):
            prefix = flag.name[:end]
            if sum(name.startswith(prefix) for name in names) == 1:
                spellings[prefix] = flag
    spellings.update((flag.name, flag) for flag in flags)
    return spellings


# per command: each spelling of a flag -> (its dest, whether it takes a
# value), the namespace's defaults, and the dests that must be given
_READERS = {
    command: (
        {spelling: (flag.dest, flag.takes_value) for spelling, flag in _spellings(flags).items()},
        {flag.dest: flag.default for flag in flags},
        frozenset(flag.dest for flag in flags if flag.required),
    )
    for command, (_, flags) in _COMMAND_FLAGS.items()
}
# snf's spellings of --matrix, the only command that has the flag
_SNF_MATRIX_SPELLINGS = frozenset(s for s, (dest, _) in _READERS["snf"][0].items() if dest == "matrix")


def _first_query(args, out: _Printer) -> int:
    # the first query of a command kept in another module imports that
    # module, whose handlers answer this query and every later one
    if args.command == "ext":
        from . import ext

        _COMMANDS["ext"] = ext._cmd_ext
    else:
        from . import spec

        _COMMANDS.update(describe=spec._cmd_describe, invariants=spec._cmd_invariants, weights=spec._cmd_weights)
    return _COMMANDS[args.command](args, out)


_COMMANDS = {**dict.fromkeys(_COMMAND_FLAGS, _first_query), "snf": _cmd_snf}


def _attach_matrix_values(argv) -> list:
    """On snf, write ``--matrix -1,2`` as ``--matrix=-1,2``, and each
    abbreviation such as ``--mat -1,2`` likewise: argparse takes a value that
    starts with a minus sign and is not a plain number for a flag.  Other
    commands have no ``--matrix``, so their argv is returned as given and
    argparse's errors quote it as typed."""
    if not argv or argv[0] != "snf":
        return argv
    attached = []
    for arg in argv:
        if attached and attached[-1] in _SNF_MATRIX_SPELLINGS and arg[:1] == "-" and arg[1:2].isdigit():
            attached[-1] = f"{attached[-1]}={arg}"
        else:
            attached.append(arg)
    return attached


# in both of CPython's messages for sys.get_int_max_str_digits(): int to str
# and str to int
_DIGIT_LIMIT = "for integer string conversion"


def _failure(args, exc: Exception) -> CliError:
    """The error that a command failing with ``exc`` reports.  Python's int
    and str digit limit, raised as a ValueError by ``exc`` or by an error it
    chains from, is an internal limit, ``E_LIMIT``: met while reading the
    input, it is reported where the input error was; met while printing, at
    the flag that gave the input.  Any other ValueError is an input error."""
    cause = exc
    while cause is not None and not (isinstance(cause, ValueError) and _DIGIT_LIMIT in str(cause)):
        cause = cause.__cause__ or cause.__context__
    if cause is None:
        return exc if isinstance(exc, CliError) else CliError("E_INPUT", args.command, str(exc))
    limit = f"limit of {sys.get_int_max_str_digits()} digits (sys.get_int_max_str_digits())"
    if isinstance(exc, CliError):
        return CliError("E_LIMIT", exc.where, f"an integer exceeds the str-to-int {limit}")
    if args.command == "snf":
        return CliError("E_LIMIT", "--matrix", f"an entry of D, U or V exceeds the int-to-str {limit}")
    where = "--group" if args.command == "ext" else "--preset" if args.preset is not None else "--spec"
    return CliError("E_LIMIT", where, f"an integer of the report exceeds the int-to-str {limit}")


def _parse_direct(argv):
    """The namespace of a well-formed query, read off the flag table of the
    command that ``argv[0]`` names, or None.  Well formed means: each
    argument after the command is a flag's name or unique abbreviation
    (see ``_spellings``), given at most once, a switch bare and any other
    flag as ``--flag=value`` or ``--flag value`` with a value that does not
    start with "-"; and every required flag is given.  Argparse reads such
    an argv to the same namespace."""
    reader = _READERS.get(argv[0]) if argv else None
    if reader is None:
        return None
    spellings, defaults, required = reader
    given = {}
    rest = iter(argv[1:])
    for arg in rest:
        spelling, eq, value = arg.partition("=")
        dest, takes_value = spellings.get(spelling, (None, False))
        if dest is None or dest in given or (eq and not takes_value):
            return None
        if not takes_value:
            value = True
        elif not eq:
            value = next(rest, "-")  # a missing value reads as "-"
            if value[:1] == "-":
                return None
        given[dest] = value
    if not required <= given.keys():
        return None
    return SimpleNamespace(**{**defaults, **given}, command=argv[0])


def run(argv, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    argv = _attach_matrix_values(argv)
    args = _parse_direct(argv)
    if args is None:
        from contextlib import redirect_stderr, redirect_stdout

        try:
            # argparse writes usage, help and errors to the sys streams
            with redirect_stdout(stdout), redirect_stderr(stderr):
                args = _parser().parse_args(argv, SimpleNamespace())
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 1
    # the report reaches stdout only once the command has succeeded
    report = io.StringIO()
    color = stdout.isatty() and "HOMSPACE_NO_COLOR" not in os.environ
    try:
        status = _COMMANDS[args.command](args, _Printer(report, color))
    except (CliError, ValueError) as exc:
        stderr.write(_failure(args, exc).render() + "\n")
        return 1
    except (AssertionError, RuntimeError) as exc:
        stderr.write(f"error[E_INTERNAL] invariant violation: {exc}\n")
        return 2
    stdout.write(report.getvalue())
    return status


def main() -> None:
    sys.exit(run(sys.argv[1:]))
