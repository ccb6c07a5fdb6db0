"""The ``ext`` command: Ext^1(Gamma, Z) for a finite abelian group Gamma
and, given a character of Gamma, the middle group of the central extension
pulled back along it.  ``homspace.cli`` imports this module at the first
``ext`` query, so ``snf`` loads neither layer.

An answer is computed once per ``--group`` and ``--char`` text: the
payload is kept in a bounded cache (``_payload``, the last 256),
keyed by both texts and by the digit limit, under which reading them
may fail where it passed before.  Errors are not kept, and texts of more
than 64 KiB together are answered on every query and never kept.  Text
mode prints the same payload as ``--json``.
"""

from __future__ import annotations

import sys
from functools import lru_cache

from . import __version__, abgroups, extensions
from .cli import CliError, _parse_fraction, _Printer


# Every query with these texts gets the same payload, which the printer
# only reads.  Keyed by the digit limit too, under which reading the texts
# may fail where it passed before.
@lru_cache(maxsize=256)
def _payload(group_text: str, char_text: str | None, digit_limit: int) -> dict:
    # split like --char: a blank list is the trivial group, and an empty
    # item is refused
    parts = group_text.split(",") if group_text.strip() else []
    try:
        factors = tuple(int(part) for part in parts)
    except ValueError as exc:
        raise CliError("E_INPUT", "--group", f"bad factor list {group_text!r}") from exc
    try:
        group = abgroups.FgAbGroup(0, factors)
    except ValueError as exc:
        raise CliError("E_INPUT", "--group", str(exc)) from exc
    payload = {
        "tool": {"name": "homspace", "version": __version__},
        "group": str(group),
        "ext1_z": str(abgroups.ext1_z(group)),
    }
    if char_text is not None:
        parts = [p.strip() for p in char_text.split(",")] if char_text.strip() else []
        if len(parts) != group.ngens:
            raise CliError("E_INPUT", "--char", f"expected {group.ngens} fractions, got {len(parts)}")
        values = [_parse_fraction(p, "--char") for p in parts]
        try:
            chi = extensions.Character(group, tuple(values))
        except ValueError as exc:
            raise CliError("E_INPUT", "--char", str(exc)) from exc
        # round_trip_ok states the sign convention of docs/conventions.md:
        # the class of the pullback along chi is chi, proved by the tests
        payload.update(
            {
                "character": [str(v) for v in chi.values],
                "character_order": chi.order(),
                "middle_group": str(extensions.middle_group(chi)),
                "round_trip_ok": True,
            }
        )
    return payload


def _cmd_ext(args, out: _Printer) -> int:
    # texts past 64 KiB together are answered on every query, never kept
    build = _payload.__wrapped__ if len(args.group) + len(args.char or "") > 64 * 1024 else _payload
    payload = build(args.group, args.char, sys.get_int_max_str_digits())
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
