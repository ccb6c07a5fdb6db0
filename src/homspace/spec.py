"""The group-spec format, and the commands that read a model from
``--preset`` or ``--spec``: ``describe``, ``invariants`` and ``weights``.

``homspace.cli`` imports this module at the first model query, so ``snf``
and ``ext`` load none of ``groups``, ``rootdata`` and ``invariants``.  The
layers are read as ``groups.pi1(...)``: a lookup in the layer's own
namespace, so a function replaced there (by a tracer or a test) is the one
every query calls.  ``json`` is imported by ``parse_spec`` alone, so a
``--preset`` query loads no JSON parser.

A model named again is not built again: ``groups.preset`` and the spec
reader here (keyed by the text of a document of at most 64 KiB) are
bounded caches that return the same model object, which keeps what it
derives, its report included.  It also keeps the text fields that
``invariants`` and ``weights`` print, and the weight table that
``weights`` and ``invariants --json`` print (``_kept``): one entry of its
``__dict__``, tagged with the digit limit they were written under, so a
repeated query writes them and builds no text.  They live exactly as long
as the model, so those two caches bound them too.  ``invariants`` builds
the two fields that grow with the torus, the spec document and the Pic
lattice rows, on every query, and ``describe`` builds all it prints.
"""

from __future__ import annotations

import sys
from functools import lru_cache

from . import __version__, abgroups, groups, invariants, rootdata
from .cli import CliError, _parse_fraction, _Printer

_DOC_KEYS = {"name", "preset", "semisimple", "torus_rank", "gluing", "unipotent_dim"}


def _field(doc: dict, key: str, default):
    """``doc[key]``, or ``default`` when the field is absent or null: any
    other value, a falsy one included, goes through the field's type check."""
    value = doc.get(key)
    return default if value is None else value


def parse_spec(text: str) -> groups.ReductiveModel:
    """Read a group-spec JSON document into a model; errors carry JSON
    paths.  Every check of the document's shape runs before any check of
    the model it states, so a document with several faults reports the
    first shape fault."""
    import json

    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise CliError("E_JSON", "/", f"not valid JSON: {exc}") from exc
    except RecursionError as exc:  # valid JSON, nested deeper than the decoder goes
        limit = sys.getrecursionlimit()
        raise CliError("E_LIMIT", "/", f"the document nests past the recursion limit of {limit}") from exc
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
            semisimple.append(rootdata.SimpleType(fam, rank))
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
            return groups.preset(preset)
        except ValueError as exc:
            raise CliError("E_PRESET", "/preset", str(exc)) from exc
    datum = rootdata.build_datum(tuple(semisimple))
    cgroup = rootdata.center(datum)
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
        pairs.append(groups.GluingPair._from_checked(elem, tuple(torus)))
    try:
        return groups.ReductiveModel(datum, torus_rank, tuple(pairs), unipotent_dim, name)
    except ValueError as exc:
        raise CliError("E_MODEL", "/", str(exc)) from exc


def model_to_document(model: groups.ReductiveModel) -> dict:
    """JSON expansion of a model (used by describe --expand)."""
    return {
        "name": model.name,
        "preset": None,
        "semisimple": [{"family": t.family, "rank": t.rank} for t in model.ss.factors],
        "torus_rank": model.torus_rank,
        "gluing": [
            {"center": list(pair.center.coords), "torus": [str(v) for v in pair.torus]} for pair in model.gluing
        ],
        "unipotent_dim": model.unipotent_dim,
    }


def _load_model(args) -> groups.ReductiveModel:
    if args.preset is not None and args.spec is not None:
        raise CliError("E_FLAGS", "--preset", "--preset and --spec are mutually exclusive")
    if args.preset is not None:
        try:
            return groups.preset(args.preset)
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
def _spec_model(text: str, digit_limit: int) -> groups.ReductiveModel:
    return parse_spec(text)


# The one key of a model's ``__dict__`` under which ``_kept`` stores what
# the commands print, beside the model's ``invariant_report``.
_KEPT = "printed_fields"


def _kept(model: groups.ReductiveModel, key: str, build, source):
    """``build(source)``, what a command prints for ``model``, built at its
    first query and kept on the model, so a repeat builds no text.  The
    store is tagged with the digit limit it was written under, like
    ``_spec_model``'s key: under another limit a query builds it again, and
    fails where a fresh model would.  Every query shares what it holds, and
    the printer only reads it."""
    limit = sys.get_int_max_str_digits()
    store = vars(model).get(_KEPT)
    if store is None or store[0] != limit:
        store = vars(model)[_KEPT] = (limit, {})
    if key not in store[1]:
        store[1][key] = build(source)
    return store[1][key]


def _cmd_describe(args, out: _Printer) -> int:
    model = _load_model(args)
    if args.expand:
        out.json(model_to_document(model))
        return 0
    fundamental = groups.pi1(model)
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
        "pi1_derived": str(abgroups.ext1_z(fundamental)),
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
    return 0


def _invariants_fields(report: invariants.InvariantReport) -> dict:
    """The report's fields as text, but for the two that grow with the
    torus, the spec document and the Pic lattice rows, which each query
    builds again."""
    return {
        "pic_group": str(report.pic_group),
        "brauer": str(report.brauer),
        "e_al": str(report.e_al),
        "pi1_m": str(report.pi1_m),
        "pi2_m": str(report.pi2_m),
        "h2_m": str(report.h2_m),
        "tors_h3_m": str(report.tors_h3_m),
        "notes": list(report.notes),
    }


def _cmd_invariants(args, out: _Printer) -> int:
    model = _load_model(args)
    report = invariants.invariant_report(model)
    fields = _kept(model, "invariants_fields", _invariants_fields, report)
    payload = {
        "tool": {"name": "homspace", "version": __version__},
        "spec": model_to_document(model),
        "conventions": [
            "simple types use Bourbaki node numbering (see docs/conventions.md)",
            "extension classes use the sign convention fixed by the character round trip",
        ],
        "invariants": {"pic_lattice_basis": report.pic_lattice.to_rows(), **fields},
        "picard_of_group": fields["e_al"],
    }
    if args.json:
        # the weight table is printed in JSON only
        if model.torus_rank == 0 and model.unipotent_dim == 0:
            payload["weights"] = _kept(model, "weight_table", _weight_table, model)
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


def _weight_table(model: groups.ReductiveModel) -> invariants.WeightBrauerTable:
    return invariants.weight_brauer_table(groups.as_semisimple(model))


def _weights_fields(model: groups.ReductiveModel) -> dict:
    table = _kept(model, "weight_table", _weight_table, model)
    return {
        "tool": {"name": "homspace", "version": __version__},
        "model": model.describe(),
        "pi1": str(table.dual),
        "brauer": str(abgroups.ext1_z(table.dual)),
        "rows": table,
    }


def _cmd_weights(args, out: _Printer) -> int:
    model = _load_model(args)
    try:
        groups.as_semisimple(model)
    except ValueError as exc:
        raise CliError("E_MODEL", "--preset" if args.preset is not None else "--spec", str(exc)) from exc
    payload = _kept(model, "weights_fields", _weights_fields, model)
    table = payload["rows"]
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
