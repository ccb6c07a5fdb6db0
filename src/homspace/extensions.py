"""Central extensions of a finite abelian group by Z: the dictionary between
characters and extension classes.

A character chi of Gamma pulls the exponential sequence 0 -> Z -> Q -> Q/Z
back to an abelian extension 0 -> Z -> E -> Gamma -> 0 whose class is chi
itself (Brown, Cohomology of Groups, GTM 87, IV.3).  Its middle group is
Z + ker chi in closed form (``middle_group``), the type of one kernel of
a hom from Gamma to a cyclic group: no extension is realized, no class is
read back and no inclusion of the kernel is built.

Sign convention: the class of the pullback extension of chi is chi itself
(the round trip identity).  The opposite sign would be equally consistent;
all downstream consumers only rely on the round trip and on additivity,
which hold either way.  ``ext --char`` states the convention in its
``round_trip_ok`` field and ``class round trip: ok`` line, and the weight
Brauer table reads each class off the restriction by it.

A ``Character`` is a frozen record, on the base in ``intlinalg``: its
values are reduced into [0, 1) when it is built, so equal characters have
equal fields.  Queries read its values and its order only; its value at an
element, sums and negatives are test oracles.

The tests prove the convention and the closed form on realized extensions,
kept in ``tests/oracles.py``: the extension presented by one lift per
generator, its class read back off those lifts, and symmetric cocycle
tables with their averaging lift.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm

from .abgroups import FgAbGroup, _mod_n_lattice, span_group
from .intlinalg import _Record


class Character(_Record):
    """Character of a finite group, one value in Q/Z per canonical
    generator; the generator order must kill its value."""

    __slots__ = ("group", "values")

    def __init__(self, group: FgAbGroup, values: Sequence[Fraction]):
        if not group.is_finite:
            raise ValueError("characters are only stored for finite groups")
        if any(isinstance(v, float) for v in values):
            raise TypeError(f"character values {tuple(values)!r} hold a float, which is not exact")
        values = tuple(Fraction(v) % 1 for v in values)
        if len(values) != group.ngens:
            raise ValueError(f"expected {group.ngens} values, got {len(values)}")
        for v, d in zip(values, group.invariant_factors):
            if (v * d).denominator != 1:
                raise ValueError(f"value {v} is not killed by the generator order {d}")
        self._set(group, values)

    def order(self) -> int:
        return lcm(1, *(v.denominator for v in self.values))


def middle_group(chi: Character) -> FgAbGroup:
    """Middle group of the extension pulled back along ``chi``: Z + ker chi.

    The pullback is {(q, g) in Q x Gamma : q mod Z = chi(g)}.  Its
    projection to Q has image (1/ord chi) * Z, which is free, and kernel
    {(0, g) : chi(g) = 0}, so one kernel of Gamma -> Z/ord chi, whose row
    is ord(chi) * chi(g_i), gives the torsion (Brown, GTM 87, IV.3).  Only
    the kernel's type is read: the span in Gamma of the combinations that
    the row kills modulo ord(chi), solved for with no hom built around the
    row.  For chi = 0 every combination qualifies and the kernel is Gamma."""
    n = chi.order()
    pre = _mod_n_lattice(n, [(v.numerator * (n // v.denominator),) for v in chi.values])
    return FgAbGroup(1, span_group(chi.group.orders, pre).invariant_factors)
