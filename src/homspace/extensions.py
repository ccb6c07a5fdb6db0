"""Central extensions of a finite abelian group by Z: symmetric 2-cocycles,
Baer sums, and the dictionary between characters and extension classes.

A character chi of Gamma pulls the exponential sequence 0 -> Z -> Q -> Q/Z
back to an abelian extension 0 -> Z -> E -> Gamma -> 0; this module realizes
E concretely inside (1/N) Z x Gamma and extracts classes again by averaging:
for a symmetric cocycle c,

    f(g) = (1/|Gamma|) * sum_h c(g, h)

satisfies f(a) + f(b) - f(a+b) = c(a, b) exactly, so f mod Z is the class.
The averaging lift exists because the class dies over Q; no normalized
section bookkeeping is needed.

Sign convention: the class of the pullback extension of chi is chi itself
(round trip identity).  The opposite sign would be equally consistent; all
downstream consumers only rely on the round trip and on additivity, which
hold either way.

Cocycles are stored as full tables over Gamma, capped at |Gamma| <= 4096.
Only ``homspace ext --char``, on a group the user gives, and the tests build
them; the weight Brauer table reads each class off the restriction by the
round trip above.  The public constructor checks symmetry,
normalization and the full cocycle identity; operations whose results
satisfy the identity by algebra (sums, coboundaries, section extraction)
skip the O(n^3) recheck.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from typing import Sequence

from .abgroups import (
    AbElement,
    AbHom,
    FgAbGroup,
    cokernel_of,
    dual_finite,
    express_in_subgroup,
    is_exact_at,
    kernel_of,
    preimage_of,
    subgroup_from_generators,
)
from .intlinalg import IntMatrix

TABLE_CAP = 4096


@lru_cache(maxsize=None)
def _elements(group: FgAbGroup):
    order = group.order()
    if order is None:
        raise ValueError(f"{group} is not finite")
    if order > TABLE_CAP:
        raise ValueError(f"group of order {order} exceeds the table cap {TABLE_CAP}")
    elems = tuple(product(*(range(d) for d in group.invariant_factors)))
    index = {coords: i for i, coords in enumerate(elems)}
    return elems, index


@lru_cache(maxsize=None)
def _add_table(group: FgAbGroup):
    """add[a][b] = element index of elems[a] + elems[b]."""
    elems, index = _elements(group)
    factors = group.invariant_factors
    table = []
    for ea in elems:
        row = []
        for eb in elems:
            row.append(index[tuple((x + y) % d for x, y, d in zip(ea, eb, factors))])
        table.append(tuple(row))
    return tuple(table)


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


def character_from_dual_element(chi: AbElement) -> Character:
    """Reinterpret an element of dual_finite(G).group as a character of G."""
    group = chi.group
    values = tuple(Fraction(c, d) for c, d in zip(chi.coords, group.invariant_factors))
    return Character(group, values)


def all_characters(group: FgAbGroup):
    dual = dual_finite(group)
    return [character_from_dual_element(e) for e in dual.group.elements()]


class SymmetricCocycle:
    """Integer-valued symmetric normalized 2-cocycle, tabulated over the
    element enumeration of the group (lexicographic coordinates)."""

    __slots__ = ("group", "table")

    def __init__(self, group: FgAbGroup, table: Sequence[Sequence[int]]):
        elems, index = _elements(group)
        n = len(elems)
        table = tuple(tuple(int(x) for x in row) for row in table)
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError(f"table must be {n}x{n}")
        zero = index[(0,) * len(group.invariant_factors)]
        for i in range(n):
            if table[zero][i] or table[i][zero]:
                raise ValueError("cocycle is not normalized: c(0, -) must vanish")
            for j in range(i):
                if table[i][j] != table[j][i]:
                    raise ValueError("cocycle is not symmetric")
        add = _add_table(group)
        for a in range(n):
            row_a = table[a]
            add_a = add[a]
            for b in range(n):
                base = row_a[b]
                row_ab = table[add_a[b]]
                row_b = table[b]
                add_b = add[b]
                for h in range(n):
                    if base + row_ab[h] != row_b[h] + row_a[add_b[h]]:
                        raise ValueError("cocycle identity fails")
        self.group = group
        self.table = table

    @classmethod
    def _trusted(cls, group: FgAbGroup, table: tuple) -> "SymmetricCocycle":
        """Internal: skip the O(n^3) identity check for tables that satisfy
        it by construction (sums of cocycles, coboundaries, sections)."""
        self = object.__new__(cls)
        self.group = group
        self.table = table
        return self

    def value(self, a: AbElement, b: AbElement) -> int:
        _, index = _elements(self.group)
        return self.table[index[a.coords]][index[b.coords]]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymmetricCocycle) and self.group == other.group and self.table == other.table

    def __hash__(self) -> int:
        return hash((self.group, self.table))

    def __repr__(self) -> str:
        return f"SymmetricCocycle({self.group}, |table|={len(self.table)})"


def zero_cocycle(group: FgAbGroup) -> SymmetricCocycle:
    n = len(_elements(group)[0])
    return SymmetricCocycle._trusted(group, tuple((0,) * n for _ in range(n)))


def coboundary(group: FgAbGroup, lift_values: Sequence[int]) -> SymmetricCocycle:
    """The cocycle (a, b) -> g(a) + g(b) - g(a+b) of an integer-valued map g
    with g(0) = 0, given by its values on the nonzero elements in enumeration
    order."""
    elems, _ = _elements(group)
    n = len(elems)
    if len(lift_values) != n - 1:
        raise ValueError(f"need {n - 1} values for the nonzero elements")
    g = [0] + [int(v) for v in lift_values]
    add = _add_table(group)
    table = tuple(
        tuple(g[a] + g[b] - g[add[a][b]] for b in range(n)) for a in range(n)
    )
    return SymmetricCocycle._trusted(group, table)


class ExtensionData:
    """Realized abelian extension 0 -> Z -> E -> Gamma -> 0.  Exactness and
    surjectivity certificates are checked at construction."""

    __slots__ = ("middle", "inject", "project")

    def __init__(self, middle: FgAbGroup, inject: AbHom, project: AbHom):
        if inject.codomain != middle or project.domain != middle:
            raise ValueError("structure maps must pass through the middle group")
        if not kernel_of(inject).computed.is_trivial:
            raise ValueError("injection must be injective")
        if not is_exact_at(inject, project):
            raise ValueError("image of the injection must equal the kernel of the projection")
        coker, _ = cokernel_of(project)
        if not coker.is_trivial:
            raise ValueError("projection must be surjective")
        self.middle = middle
        self.inject = inject
        self.project = project

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ExtensionData)
            and self.middle == other.middle
            and self.inject == other.inject
            and self.project == other.project
        )

    def __repr__(self) -> str:
        return f"ExtensionData(0 -> Z -> {self.middle} -> {self.project.codomain} -> 0)"


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
    assert unit is not None
    inject = AbHom(FgAbGroup(1, ()), middle, IntMatrix.from_columns([list(unit.coords)], rows=middle.ngens))
    proj_rows = [list(sub.inclusion.matrix.row(1 + i)) for i in range(k)]
    project = AbHom(middle, gamma, IntMatrix.from_rows(proj_rows, cols=middle.ngens))
    return ExtensionData(middle=middle, inject=inject, project=project)


def _section(ext: ExtensionData):
    """Set-theoretic section of the projection with s(0) = 0, tabulated over
    the quotient's element enumeration."""
    gamma = ext.project.codomain
    elems, _ = _elements(gamma)
    lifts = []
    for i in range(gamma.ngens):
        lift = preimage_of(ext.project, gamma.generator(i))
        assert lift is not None, "projection is surjective"
        lifts.append(lift.coords)
    table = []
    for coords in elems:
        acc = [0] * ext.middle.ngens
        for c, lift in zip(coords, lifts):
            if c:
                acc = [x + c * y for x, y in zip(acc, lift)]
        table.append(ext.middle.reduce(acc))
    return table


def cocycle_of(ext: ExtensionData) -> SymmetricCocycle:
    """Symmetric cocycle of a realized extension through a section.

    Differences of section values land in ker(project) = im(inject) (that is
    the exactness certificate), and the injected Z is detected faithfully on
    any free coordinate where it is nonzero, so inversion reads off a single
    coordinate."""
    gamma = ext.project.codomain
    elems, _ = _elements(gamma)
    n = len(elems)
    section = _section(ext)
    middle = ext.middle
    j = ext.inject.matrix.column(0)
    pivot = next((p for p in range(middle.free_rank) if j[p] != 0), None)
    assert pivot is not None, "the injected Z has infinite order in the middle group"
    jp = j[pivot]
    piv = [s[pivot] for s in section]
    add = _add_table(gamma)
    table = []
    for a in range(n):
        pa = piv[a]
        add_a = add[a]
        row = []
        for b in range(n):
            x, rem = divmod(pa + piv[b] - piv[add_a[b]], jp)
            assert rem == 0, "section difference must come from the injected Z"
            row.append(x)
        table.append(tuple(row))
    return SymmetricCocycle._trusted(gamma, tuple(table))


def cocycle_class(c: SymmetricCocycle) -> Character:
    """Class of a cocycle via the averaging lift f(g) = (1/n) sum_h c(g, h).

    That the lift trivializes the cocycle over Q is tested in
    ``tests/test_extensions.py::TestCocycleClass``, not on every call."""
    gamma = c.group
    _, index = _elements(gamma)
    n = len(c.table)
    sums = [sum(row) for row in c.table]
    values = []
    for i in range(gamma.ngens):
        coords = [0] * gamma.ngens
        coords[i] = 1
        values.append(Fraction(sums[index[tuple(coords)]], n))
    return Character(gamma, tuple(values))


def baer_sum(c1: SymmetricCocycle, c2: SymmetricCocycle) -> SymmetricCocycle:
    """Baer sum; on symmetric cocycles this is the pointwise table sum."""
    if c1.group != c2.group:
        raise ValueError("cocycles over different groups")
    table = tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(c1.table, c2.table))
    return SymmetricCocycle._trusted(c1.group, table)


def are_equivalent(c1: SymmetricCocycle, c2: SymmetricCocycle) -> bool:
    """Extensions are equivalent exactly when the cocycles differ by a
    coboundary, i.e. when their classes agree."""
    if c1.group != c2.group:
        raise ValueError("cocycles over different groups")
    return cocycle_class(c1) == cocycle_class(c2)

