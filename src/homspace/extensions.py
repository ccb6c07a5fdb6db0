"""Central extensions of a finite abelian group by Z: the dictionary between
characters and extension classes.

A character chi of Gamma pulls the exponential sequence 0 -> Z -> Q -> Q/Z
back to an abelian extension 0 -> Z -> E -> Gamma -> 0; this module realizes
E concretely inside (1/N) Z x Gamma and reads the class back off generator
lifts: if s_i in E lifts the canonical generator g_i of order d_i, then
d_i * s_i lies in the injected Z, say d_i * s_i = c_i * iota(1), and the
class takes the value c_i / d_i on g_i (Brown, Cohomology of Groups, GTM 87,
IV.3).  That costs one preimage solve per generator and no table over Gamma.

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

from .abgroups import (
    AbElement,
    AbHom,
    FgAbGroup,
    express_in_subgroup,
    preimage_of,
    subgroup_from_generators,
)
from .intlinalg import IntMatrix


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
    is {(q, g) in Q x Gamma : q mod Z = chi(g)}, realized inside
    (1/N) Z x Gamma with N the order of chi."""
    gamma = chi.group
    n = chi.order()
    k = len(gamma.invariant_factors)
    ambient = FgAbGroup(1, gamma.invariant_factors)
    gens = [ambient.element([n] + [0] * k)]
    for i in range(k):
        coords = [int(chi.values[i] * n)] + [0] * k
        coords[1 + i] = 1
        gens.append(ambient.element(coords))
    sub = subgroup_from_generators(ambient, gens)
    middle = sub.computed

    unit = express_in_subgroup(sub, gens[0])
    inject = AbHom(FgAbGroup(1, ()), middle, IntMatrix.from_columns([list(unit.coords)], rows=middle.ngens))
    proj_rows = [list(sub.inclusion.matrix.row(1 + i)) for i in range(k)]
    project = AbHom(middle, gamma, IntMatrix.from_rows(proj_rows, cols=middle.ngens))
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
