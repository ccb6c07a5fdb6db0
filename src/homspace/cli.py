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
This module therefore imports only ``intlinalg`` and what ``re`` and
``json`` load anyway; every other module is a ``_Lazy`` global, imported
the first time a command reads one of its names, after which the global
is the module itself:

* ``snf`` loads nothing more;
* ``ext`` loads ``abgroups``, ``extensions`` and ``fractions``;
* ``describe``, ``invariants`` and ``weights`` load ``abgroups``,
  ``rootdata``, ``groups`` and ``fractions``, and ``invariants`` and
  ``weights`` the ``invariants`` layer too;
* ``argparse`` (and ``contextlib``) only for an argv that the direct
  reader leaves to the top-level parser, which is built then, once.

The layers are read as ``_groups.pi1(...)``: a lookup in the module's own
namespace, so a function replaced there (by a tracer or a test) is the one
every query calls.

A model named again is not built again: ``groups.preset`` and the spec
reader here (keyed by the text of a document of at most 64 KiB) are
bounded caches that return the same model object, which keeps what it
derives, its report included.
"""

from __future__ import annotations

import io
import json
import os
import re
import sys
from collections import namedtuple
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _encode_str
from types import SimpleNamespace

from . import __version__
from .intlinalg import format_matrix_literal, parse_matrix_literal, smith_normal_form


class _Lazy:
    """The module ``module``, imported on the first read of one of its
    names, which also rebinds this module's global ``name`` from the
    placeholder to the module: every later read is a plain module lookup."""

    __slots__ = ("_name", "_module")

    def __init__(self, name: str, module: str):
        self._name, self._module = name, module

    def __getattr__(self, attr):
        __import__(self._module)
        module = globals()[self._name] = sys.modules[self._module]
        return getattr(module, attr)


_abgroups = _Lazy("_abgroups", "homspace.abgroups")
_extensions = _Lazy("_extensions", "homspace.extensions")
_groups = _Lazy("_groups", "homspace.groups")
_invariants = _Lazy("_invariants", "homspace.invariants")
_rootdata = _Lazy("_rootdata", "homspace.rootdata")
_fractions = _Lazy("_fractions", "fractions")
_argparse = _Lazy("_argparse", "argparse")
_contextlib = _Lazy("_contextlib", "contextlib")

_CONVENTION_NOTES = (
    "simple types use Bourbaki node numbering (see docs/conventions.md)",
    "extension classes use the sign convention fixed by the character round trip",
)


class CliError(Exception):
    """User-input error with a machine-readable code and location."""

    def __init__(self, code: str, where: str, message: str):
        super().__init__(message)
        self.code = code
        self.where = where
        self.message = message

    def render(self) -> str:
        return f"error[{self.code}] at {self.where}: {self.message}"


def _parse_fraction(text, where: str) -> _fractions.Fraction:
    if not isinstance(text, str):
        raise CliError("E_SCHEMA", where, f"fractions are strings like \"1/2\", got {text!r}")
    # plain ASCII "a/b" and "a" are read by int(), with the value and the
    # errors of Fraction(text); int() stays inside the try so that its
    # digit-limit ValueError is chained to the CliError (E_LIMIT)
    num, slash, den = text.partition("/")
    try:
        if text.isascii() and num.isdigit() and (den.isdigit() or not slash):
            value, power = _fractions.Fraction(int(num), int(den or 1)), 0
        else:
            value, power = _read_decimal(text)
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


# the exponent of a decimal spelling such as "5e-1", as Fraction(text) reads it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _read_decimal(text: str):
    """(m, p) with Fraction(text) == m * 10**p, without raising 10 to an
    exponent e past the digit limit plus len(text): p is e there and 0
    otherwise.  Such an e leaves a nonzero value with a denominator of more
    than the digit limit's digits (e < 0), or at least 1 in absolute value
    (e > 0), because the mantissa has fewer than len(text) digits.  Fraction
    reads the mantissa, and checks the spelling, with the exponent written
    as 0."""
    exponent = _EXPONENT.search(text)
    limit = sys.get_int_max_str_digits()
    if exponent is None or not limit:
        return _fractions.Fraction(text), 0
    power = int(exponent.group(1))
    if abs(power) <= limit + len(text):
        return _fractions.Fraction(text), 0
    return _fractions.Fraction(text[: exponent.start(1)] + "0" + text[exponent.end(1) :]), power


_DOC_KEYS = {"name", "preset", "semisimple", "torus_rank", "gluing", "unipotent_dim"}


def _field(doc: dict, key: str, default):
    """``doc[key]``, or ``default`` when the field is absent or null: any
    other value, a falsy one included, goes through the field's type check."""
    value = doc.get(key)
    return default if value is None else value


def parse_spec(text: str) -> _groups.ReductiveModel:
    """Read a group-spec JSON document into a model; errors carry JSON
    paths.  Every check of the document's shape runs before any check of
    the model it states, so a document with several faults reports the
    first shape fault."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise CliError("E_JSON", "/", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError("E_SCHEMA", "/", "document must be a JSON object")
    for key in doc:
        if key not in _DOC_KEYS:
            raise CliError("E_SCHEMA", f"/{key}", "unknown field")

    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise CliError("E_SCHEMA", "/name", "name must be a string")
    preset = doc.get("preset")
    if preset is not None and not isinstance(preset, str):
        raise CliError("E_SCHEMA", "/preset", "preset must be a string")

    explicit = [k for k in ("name", "semisimple", "torus_rank", "gluing", "unipotent_dim") if doc.get(k) is not None]
    if preset is not None and explicit:
        raise CliError(
            "E_SCHEMA", "/preset", f"preset and explicit fields are mutually exclusive (got {explicit})"
        )

    semisimple = []
    raw_ss = _field(doc, "semisimple", [])
    if not isinstance(raw_ss, list):
        raise CliError("E_SCHEMA", "/semisimple", "must be a list")
    for i, item in enumerate(raw_ss):
        if not isinstance(item, dict) or set(item) != {"family", "rank"}:
            raise CliError("E_SCHEMA", f"/semisimple/{i}", 'factors look like {"family": "D", "rank": 4}')
        fam, rank = item["family"], item["rank"]
        if not isinstance(fam, str) or not isinstance(rank, int) or isinstance(rank, bool):
            raise CliError("E_SCHEMA", f"/semisimple/{i}", "family must be a string and rank an integer")
        try:
            semisimple.append(_rootdata.SimpleType(fam, rank))
        except ValueError as exc:
            raise CliError("E_SCHEMA", f"/semisimple/{i}", str(exc)) from exc

    torus_rank = _field(doc, "torus_rank", 0)
    if not isinstance(torus_rank, int) or isinstance(torus_rank, bool) or torus_rank < 0:
        raise CliError("E_SCHEMA", "/torus_rank", "must be a nonnegative integer")

    unipotent_dim = _field(doc, "unipotent_dim", 0)
    if not isinstance(unipotent_dim, int) or isinstance(unipotent_dim, bool) or unipotent_dim < 0:
        raise CliError("E_SCHEMA", "/unipotent_dim", "must be a nonnegative integer")

    gluing = []
    raw_gluing = _field(doc, "gluing", [])
    if not isinstance(raw_gluing, list):
        raise CliError("E_SCHEMA", "/gluing", "must be a list")
    for i, item in enumerate(raw_gluing):
        if not isinstance(item, dict) or set(item) != {"center", "torus"}:
            raise CliError("E_SCHEMA", f"/gluing/{i}", 'generators look like {"center": [1], "torus": ["1/2"]}')
        coeffs = item["center"]
        if not isinstance(coeffs, list) or any(not isinstance(c, int) or isinstance(c, bool) for c in coeffs):
            raise CliError("E_SCHEMA", f"/gluing/{i}/center", "must be a list of integers")
        torus = item["torus"]
        if not isinstance(torus, list):
            raise CliError("E_SCHEMA", f"/gluing/{i}/torus", "must be a list of fraction strings")
        gluing.append((coeffs, torus))

    if preset is not None:
        try:
            return _groups.preset(preset)
        except ValueError as exc:
            raise CliError("E_PRESET", "/preset", str(exc)) from exc
    datum = _rootdata.build_datum(tuple(semisimple))
    cgroup = _rootdata.center(datum)
    pairs = []
    # each distinct torus spelling is read once per document, since the
    # entries repeat a handful of strings; a non-string skips the lookup and
    # fails _parse_fraction's type check at its own path
    by_spelling = {}
    for i, (coeffs, fractions) in enumerate(gluing):
        try:
            elem = cgroup.element(coeffs)
        except ValueError as exc:
            raise CliError(
                "E_SCHEMA",
                f"/gluing/{i}/center",
                f"expected {cgroup.ngens} coefficients over the center generators, got {len(coeffs)}",
            ) from exc
        if len(fractions) != torus_rank:
            raise CliError("E_SCHEMA", f"/gluing/{i}/torus", f"expected {torus_rank} fractions, got {len(fractions)}")
        torus = []
        for j, text in enumerate(fractions):
            value = by_spelling.get(text) if isinstance(text, str) else None
            if value is None:
                value = by_spelling[text] = _parse_fraction(text, f"/gluing/{i}/torus/{j}")
            torus.append(value)
        # every value is a Fraction that _parse_fraction reduced into [0, 1)
        pairs.append(_groups.GluingPair._from_checked(elem, tuple(torus)))
    try:
        return _groups.ReductiveModel(datum, torus_rank, tuple(pairs), unipotent_dim, name)
    except ValueError as exc:
        raise CliError("E_MODEL", "/", str(exc)) from exc


def model_to_document(model: _groups.ReductiveModel) -> dict:
    """JSON expansion of a model (used by describe --expand)."""
    return {
        "name": model.name,
        "preset": None,
        "semisimple": [{"family": t.family, "rank": t.rank} for t in model.ss.factors],
        "torus_rank": model.torus_rank,
        "gluing": [
            {
                "center": list(pair.center.coords),
                "torus": [str(v) for v in pair.torus],
            }
            for pair in model.gluing
        ],
        "unipotent_dim": model.unipotent_dim,
    }


def _load_model(args) -> _groups.ReductiveModel:
    if args.preset is not None and args.spec is not None:
        raise CliError("E_FLAGS", "--preset", "--preset and --spec are mutually exclusive")
    if args.preset is not None:
        try:
            return _groups.preset(args.preset)
        except ValueError as exc:
            raise CliError("E_PRESET", "--preset", str(exc)) from exc
    if args.spec is not None:
        try:
            with open(args.spec, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise CliError("E_IO", "--spec", f"cannot read {args.spec!r}: {exc}") from exc
        if sys.getsizeof(text) > 64 * 1024:  # parsed on every query, never kept
            return parse_spec(text)
        return _spec_model(text, sys.get_int_max_str_digits())
    raise CliError("E_FLAGS", "--preset", "one of --preset or --spec is required")


# Keyed by the document's text, so a rewritten file is read again, and by
# the digit limit, under which parse_spec may fail where it passed before.
# Bounded like build_datum: a stream of unique specs keeps the last 256,
# and their keys keep no text past 64 KiB alive (``_load_model``).
@lru_cache(maxsize=256)
def _spec_model(text: str, digit_limit: int) -> _groups.ReductiveModel:
    return parse_spec(text)


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
    # a weight table is the one other type a payload holds: this check
    # comes last, so that only a table or a type about to be refused reads
    # the invariants layer
    if kind is _invariants.WeightBrauerTable:
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


def _json_weight_table(table: _invariants.WeightBrauerTable, newline: str) -> str:
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

def _cmd_describe(args, out: _Printer) -> int:
    model = _load_model(args)
    if args.expand:
        out.json(model_to_document(model))
        return 0
    notes = _groups.validate(model)
    fundamental = _groups.pi1(model)
    gamma = model.gluing_type
    orders = model.ss.pq_group.invariant_factors
    payload = {
        "tool": {"name": "homspace", "version": __version__},
        "model": model.describe(),
        "semisimple_type": str(model.ss),
        "torus_rank": model.torus_rank,
        "unipotent_dim": model.unipotent_dim,
        "center_generator_orders": list(orders),
        "gluing_order": gamma.order(),
        "gluing_group": str(gamma),
        "pi1": str(fundamental),
        "pi1_derived": str(_abgroups.ext1_z(fundamental)),
        "certificates": notes,
    }
    if args.json:
        out.json(payload)
        return 0
    out.header(f"model {payload['model']}")
    out.line(f"semisimple type:         {payload['semisimple_type']}")
    out.line(f"torus rank:              {model.torus_rank}")
    out.line(f"unipotent dimension:     {model.unipotent_dim}")
    out.line(
        "center generator orders: "
        + (", ".join(str(d) for d in orders) if orders else "(trivial center)")
    )
    out.line(f"gluing subgroup:         {payload['gluing_group']} (order {payload['gluing_order']})")
    out.line(f"pi1(H):                  {payload['pi1']}")
    out.line(f"pi1 of derived subgroup: {payload['pi1_derived']}")
    for note in notes:
        out.line(f"  - {note}")
    return 0


def _cmd_invariants(args, out: _Printer) -> int:
    model = _load_model(args)
    report = _invariants.invariant_report(model)
    payload = {
        "tool": {"name": "homspace", "version": __version__},
        "spec": model_to_document(model),
        "conventions": list(_CONVENTION_NOTES),
        "invariants": {
            "pic_lattice_basis": report.pic_lattice.to_rows(),
            "pic_group": str(report.pic_group),
            "brauer": str(report.brauer),
            "e_al": str(report.e_al),
            "pi1_m": str(report.pi1_m),
            "pi2_m": str(report.pi2_m),
            "h2_m": str(report.h2_m),
            "tors_h3_m": str(report.tors_h3_m),
            "notes": list(report.notes),
        },
        "picard_of_group": str(report.e_al),
    }
    if args.json:
        # the weight table is printed in JSON only
        if model.torus_rank == 0 and model.unipotent_dim == 0:
            payload["weights"] = _invariants.weight_brauer_table(_groups.as_semisimple(model))
        out.json(payload)
        return 0
    out.header(f"invariants of G/H for H = {model.describe()}")
    out.line(f"Pic(G/H)       = {payload['invariants']['pic_group']}")
    if report.pic_lattice.rows:
        out.line(f"  lattice basis rows: {payload['invariants']['pic_lattice_basis']}")
    out.line(f"Br(G/H)        = {payload['invariants']['brauer']}   (= Br' = Br'an = Br an)")
    out.line(f"E_al(H, Gm)    = {payload['invariants']['e_al']}")
    out.line(f"Pic(H)         = {payload['picard_of_group']}")
    out.line(f"pi1(G/H)       = {payload['invariants']['pi1_m']}")
    out.line(f"pi2(G/H)       = {payload['invariants']['pi2_m']}")
    out.line(f"H^2(G/H, Z)    = {payload['invariants']['h2_m']}")
    out.line(f"Tors H^3(G/H)  = {payload['invariants']['tors_h3_m']}")
    for note in report.notes:
        out.line(f"  note: {note}")
    return 0


def _cmd_weights(args, out: _Printer) -> int:
    model = _load_model(args)
    try:
        sm = _groups.as_semisimple(model)
    except ValueError as exc:
        raise CliError("E_MODEL", "--preset" if args.preset is not None else "--spec", str(exc)) from exc
    table = _invariants.weight_brauer_table(sm)
    payload = {
        "tool": {"name": "homspace", "version": __version__},
        "model": model.describe(),
        "pi1": str(table.dual),
        "brauer": str(_abgroups.ext1_z(table.dual)),
        "rows": table,
    }
    if args.json:
        out.json(payload)
        return 0
    out.header(f"fundamental-weight Brauer table for H = {model.describe()}")
    out.line(f"pi1(H) = {payload['pi1']}, Br(G/H) = {payload['brauer']}")
    for label, column in table.columns():
        restriction = list(column)
        cls = f"class {restriction}" if any(column) else "trivial"
        out.line(f"  node {label:>6}: restriction {restriction} -> {cls}")
    return 0


def _parse_factors(text: str, where: str) -> _abgroups.FgAbGroup:
    # split like --char: a blank list is the trivial group, and an empty
    # item is refused
    parts = text.split(",") if text.strip() else []
    try:
        factors = tuple(int(part) for part in parts)
    except ValueError as exc:
        raise CliError("E_INPUT", where, f"bad factor list {text!r}") from exc
    try:
        return _abgroups.FgAbGroup(0, factors)
    except ValueError as exc:
        raise CliError("E_INPUT", where, str(exc)) from exc


def _cmd_ext(args, out: _Printer) -> int:
    group = _parse_factors(args.group, "--group")
    payload = {
        "tool": {"name": "homspace", "version": __version__},
        "group": str(group),
        "ext1_z": str(_abgroups.ext1_z(group)),
    }
    if args.char is not None:
        parts = [p.strip() for p in args.char.split(",")] if args.char.strip() else []
        if len(parts) != group.ngens:
            raise CliError("E_INPUT", "--char", f"expected {group.ngens} fractions, got {len(parts)}")
        values = [_parse_fraction(p, "--char") for p in parts]
        try:
            chi = _extensions.Character(group, tuple(values))
        except ValueError as exc:
            raise CliError("E_INPUT", "--char", str(exc)) from exc
        # round_trip_ok states the sign convention of docs/conventions.md:
        # the class of the pullback along chi is chi, proved by the tests
        payload.update(
            {
                "character": [str(v) for v in chi.values],
                "character_order": chi.order(),
                "middle_group": str(_extensions.middle_group(chi)),
                "round_trip_ok": True,
            }
        )
    if args.json:
        out.json(payload)
        return 0
    out.header(f"central extensions of {payload['group']} by Z")
    out.line(f"Ext^1(Gamma, Z) = {payload['ext1_z']}")
    if args.char is not None:
        out.line(f"character {args.char} has order {payload['character_order']}")
        out.line(f"extension middle group: {payload['middle_group']}")
        out.line("class round trip: ok")
    return 0


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
def _parser() -> _argparse.ArgumentParser:
    parser = _argparse.ArgumentParser(
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

_COMMANDS = {
    "describe": _cmd_describe,
    "invariants": _cmd_invariants,
    "weights": _cmd_weights,
    "ext": _cmd_ext,
    "snf": _cmd_snf,
}


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
        try:
            # argparse writes usage, help and errors to the sys streams
            with _contextlib.redirect_stdout(stdout), _contextlib.redirect_stderr(stderr):
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
