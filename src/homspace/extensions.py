"""Central extensions of a finite abelian group by Z: the dictionary between
characters and extension classes.

A character chi of Gamma pulls the exponential sequence 0 -> Z -> Q -> Q/Z
back to an abelian extension 0 -> Z -> E -> Gamma -> 0.  The lift
s_i = (chi(g_i), g_i) of the canonical generator g_i of order d_i satisfies
d_i * s_i = d_i * chi(g_i) in the injected Z, so E is presented by iota(1)
and the s_i with those k relations (``abgroups.extension_from_lifts`` with
r = 1).  The class is
read back off generator lifts of any realization: if d_i * s_i =
c_i * iota(1), it takes the value c_i / d_i on g_i (Brown, Cohomology of
Groups, GTM 87, IV.3).  That costs one preimage solve per generator and no
table over Gamma.

Sign convention: the class of the pullback extension of chi is chi itself
(round trip identity).  The opposite sign would be equally consistent; all
downstream consumers only rely on the round trip and on additivity, which
hold either way.

Only ``homspace ext --char``, on a group the user gives, and the tests reach
this module; the weight Brauer table reads each class off the restriction by
the round trip above.  The tests compare the lift formula with a second
route, symmetric cocycle tables and their averaging lift, kept in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .abgroups import AbElement, AbHom, FgAbGroup, extension_from_lifts, preimage_of


class Character:
    """Character of a finite group, one value in Q/Z per canonical
    generator; the generator order must kill its value."""

    __slots__ = ("group", "values")

    def __init__(self, group: FgAbGroup, values: Sequence[Fraction]):
        if not group.is_finite:
            raise ValueError("characters are only stored for finite groups")
        values = tuple(Fraction(v) % 1 for v in values)
        if len(values) != group.ngens:
            raise ValueError(f"expected {group.ngens} values, got {len(values)}")
        for v, d in zip(values, group.invariant_factors):
            if (v * d).denominator != 1:
                raise ValueError(f"value {v} is not killed by the generator order {d}")
        self.group = group
        self.values = values

    def evaluate(self, coords: Sequence[int]) -> Fraction:
        return sum((c * v for c, v in zip(coords, self.values)), Fraction(0)) % 1

    def __call__(self, elem: AbElement) -> Fraction:
        if elem.group != self.group:
            raise ValueError("element of a different group")
        return self.evaluate(elem.coords)

    def __add__(self, other: "Character") -> "Character":
        if self.group != other.group:
            raise ValueError("characters of different groups")
        return Character(self.group, tuple(a + b for a, b in zip(self.values, other.values)))

    def __neg__(self) -> "Character":
        return Character(self.group, tuple(-v for v in self.values))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Character) and self.group == other.group and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.group, self.values))

    def __repr__(self) -> str:
        return f"Character({self.group}, {self.values})"

    @property
    def is_trivial(self) -> bool:
        return all(v == 0 for v in self.values)

    def order(self) -> int:
        return lcm(1, *(v.denominator for v in self.values))


@dataclass(frozen=True)
class ExtensionData:
    """Realized abelian extension 0 -> Z -> E -> Gamma -> 0.  Exactness is
    proved by ``tests/test_extensions.py::TestCharacterToExtension``, not at
    construction."""

    middle: FgAbGroup
    inject: AbHom
    project: AbHom


def character_to_extension(chi: Character) -> ExtensionData:
    """Pull the exponential sequence back along a character: the middle group
    is {(q, g) in Q x Gamma : q mod Z = chi(g)}, presented by iota(1) = (1, 0)
    and the lifts (chi(g_i), g_i), whose d_i-th multiples are the integers
    d_i * chi(g_i)."""
    gamma = chi.group
    multiples = [[int(d * v)] for d, v in zip(gamma.invariant_factors, chi.values)]
    middle, inject, project = extension_from_lifts(gamma, 1, multiples)
    return ExtensionData(middle=middle, inject=inject, project=project)


def extension_class(ext: ExtensionData) -> Character:
    """Class of a realized extension, read off generator lifts.

    E has free rank 1 and iota(1) has infinite order, so E's one free
    coordinate detects the injected Z faithfully: d_i * s_i = c_i * iota(1)
    read there gives c_i / d_i = s_i[0] / iota(1)[0]."""
    gamma = ext.project.codomain
    unit = ext.inject.matrix[0, 0]
    values = []
    for i in range(gamma.ngens):
        lift = preimage_of(ext.project, gamma.generator(i))
        values.append(Fraction(lift.coords[0], unit))
    return Character(gamma, values)
