"""Finitely generated abelian groups in invariant-factor normal form.

A group ``Z^r x Z/d1 x ... x Z/dk`` (with ``d1 | d2 | ... | dk``, every
``di >= 2``) is a value: two groups are equal exactly when their canonical
data agree, so isomorphism testing is ``==``.  Elements carry coordinates
over the canonical generators, free generators first; torsion coordinates
are always stored reduced into ``[0, di)``.

A homomorphism is a plain ``IntMatrix`` over the canonical generators,
one column per domain generator, its torsion rows reduced like an
element's coordinates.  The two that queries read, a subgroup's inclusion
and a presentation's projection, are columns of U^-1 and rows of U of a
Smith form, so they are homomorphisms by construction and nothing checks
them at run time; the tests check each against the checked hom class of
``tests/oracles.py``.

The dual Hom(G, Q/Z) of a finite G has no type of its own: it is G again,
read through the pairing of docs/conventions.md, under which dual generator
i pairs with generator j to delta_ij / d_i.

Subgroup, kernel and Hom/Ext computations all reduce to Smith normal forms,
solution lattices and span types from :mod:`homspace.intlinalg`.  Lattices
``{x : A x = 0 mod n}`` and the relations of a span are the Hermite bases
of ``intlinalg.solution_lattice``, built modulo the orders of a finite
ambient: a free coordinate has no modulus, so :func:`span_group` and
:func:`subgroup_from_generators` take finite ambients only.  The lattice
comes back as rows, which are the columns of the relation matrix R, and a
combination of them is a row sum (``intlinalg._combination``).  Every
Smith quotient goes through one helper, which asks the Smith loop for U or
V only as needed.  A subgroup's inclusion (:func:`subgroup_from_generators`)
is all its callers read; it takes V alone and reads U^-1 as R V D^-1,
since U R V = D for its square, nonsingular relation matrix R.  A
presentation's projection (:func:`from_presentation`) reads U.  Every
group that a query prints without an inclusion is the bare type of a span
(:func:`span_group`), which takes no Smith form and no relation lattice:
its generators, scaled into (Z/e)^n with e the lcm of the orders, are
diagonalized there (``intlinalg._span_orders_mod``), and each diagonal
entry d gives a cyclic group of order e/gcd(d, e).  A direct sum of
cyclic groups (:func:`direct_sum_canonical`) is canonicalized by pairwise
gcd and lcm, with no Smith form.  The torus and character conditions of
``groups`` and ``extensions`` are integer vectors modulo one n > 1, one
per unknown (``_mod_n_lattice``, which returns rows), with no hom built
around them; other modules never call ``solution_lattice``,
``_span_orders_mod`` or ``_snf_transform`` themselves.  Homs as checked
values, preimage lattices of homs, kernels as subgroup presentations, spans
in groups of positive free rank, the exact Smith route to a span's type,
preimages of single elements, extensions realized by generator lifts, a
group's unit generators and element list, and the arithmetic of elements
(sums, negatives, orders) are test oracles (``tests/oracles.py``): no
query reads any of them.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd
from operator import index

from .intlinalg import (
    IntMatrix,
    _combination,
    _Record,
    _scaled_mod_lcm,
    _snf_transform,
    _span_orders_mod,
    solution_lattice,
)


class FgAbGroup(_Record):
    __slots__ = ("free_rank", "invariant_factors")

    def __init__(self, free_rank: int = 0, invariant_factors: tuple = ()):
        free_rank = index(free_rank)
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        factors = tuple(map(index, invariant_factors))
        prev = None
        for d in factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
            if prev is not None and d % prev:
                raise ValueError(f"invariant factors {prev}, {d} break the divisibility chain")
            prev = d
        # set one by one, as AbElement's fields are: on the records built
        # most often, that is faster than _set
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "invariant_factors", factors)

    @property
    def ngens(self) -> int:
        return self.free_rank + len(self.invariant_factors)

    @property
    def orders(self) -> tuple:
        """Per-generator orders; 0 marks an infinite-order generator."""
        return (0,) * self.free_rank + self.invariant_factors

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def reduce(self, coords: Sequence[int]) -> tuple:
        if len(coords) != self.ngens:
            raise ValueError(f"expected {self.ngens} coordinates, got {len(coords)}")
        out = list(map(index, coords))
        for i, d in enumerate(self.invariant_factors):
            j = self.free_rank + i
            out[j] %= d
        return tuple(out)

    def element(self, coords: Sequence[int]) -> "AbElement":
        return AbElement(self, tuple(coords))

    def __str__(self) -> str:
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " x ".join(parts) if parts else "0"


TRIVIAL_GROUP = FgAbGroup(0, ())
Z = FgAbGroup(1, ())


class AbElement(_Record):
    __slots__ = ("group", "coords")

    def __init__(self, group: FgAbGroup, coords: tuple):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", group.reduce(coords))

class SubgroupPresentation(_Record):
    """A subgroup of ``ambient``: its abstract type and the injective
    inclusion of its canonical generators back into the ambient group, a
    matrix with one column per generator, its ambient coordinates reduced
    like an element's."""

    __slots__ = ("ambient", "computed", "inclusion")

    def __init__(self, ambient: FgAbGroup, computed: FgAbGroup, inclusion: IntMatrix):
        self._set(ambient, computed, inclusion)


def _smith_quotient(relations: IntMatrix, want_u: bool = False, want_v: bool = False):
    """Z^n modulo the column span of ``relations`` (n its row count): the
    canonical group, the Smith transforms U and V, each only when asked for
    (None otherwise), and the positions of U's rows that give the canonical
    generators, free ones first."""
    n = relations.rows
    u, d, v = _snf_transform(relations, want_u, want_v)
    limit = min(d.rows, d.cols)
    diag = [d[i, i] for i in range(limit)]
    free_pos = [i for i in range(n) if i >= limit or diag[i] == 0]
    torsion_pos = [i for i in range(limit) if diag[i] >= 2]
    group = FgAbGroup(len(free_pos), tuple(diag[i] for i in torsion_pos))
    return group, u, v, free_pos + torsion_pos


def span_group(orders: Sequence[int], generator_coords: Sequence[Sequence[int]]) -> FgAbGroup:
    """Canonical type of the subgroup spanned by ``generator_coords`` inside
    a raw cyclic decomposition of the given orders (they need not form a
    divisibility chain, and each must be positive): the generators scaled
    into (Z/e)^n, e the lcm of the orders, and diagonalized there
    (``intlinalg._span_orders_mod``), with no relation lattice and no
    exact Smith form."""
    e, rows = _scaled_mod_lcm(generator_coords, orders)
    return direct_sum_canonical(0, _span_orders_mod(rows, e))


def from_presentation(n_generators: int, relations: IntMatrix):
    """Quotient Z^n by the column span of ``relations``; returns the group in
    canonical form and the projection from Z^n as a matrix: U's rows at the
    canonical generators, each torsion row reduced modulo its order."""
    if relations.rows != n_generators:
        raise ValueError(f"relations must have {n_generators} rows, got {relations.rows}")
    group, u, _, positions = _smith_quotient(relations, want_u=True)
    proj_rows = [[x % o for x in u.row(p)] if o else u.row(p) for p, o in zip(positions, group.orders)]
    return group, IntMatrix.from_rows(proj_rows, cols=n_generators)


def subgroup_from_generators(ambient: FgAbGroup, gens: Sequence[AbElement]) -> SubgroupPresentation:
    """The span of ``gens`` in a finite ambient: the generators' columns
    modulo their relation lattice R, one Smith quotient ``U R V == D``.
    Canonical generator p is the combination U^-1 e_p of the columns, read
    as R V e_p / d_p: R is the transposed Hermite basis of a lattice that
    contains e*Z^s, so it is square and nonsingular, every position is a
    torsion one, and the division is exact."""
    for g in gens:
        if g.group != ambient:
            raise ValueError(f"generator belongs to {g.group}, not to ambient {ambient}")
    orders = ambient.orders
    coords = [g.coords for g in gens]
    lattice = solution_lattice(coords, orders)
    group, _, v, positions = _smith_quotient(IntMatrix.from_columns(lattice, rows=len(lattice)), want_v=True)
    columns = []
    for p, d in zip(positions, group.invariant_factors):
        # R's columns are the lattice rows, so R V e_p is their combination
        combination = [x // d for x in _combination(lattice, v.column(p), len(lattice))]
        columns.append([x % o for x, o in zip(_combination(coords, combination, len(orders)), orders)])
    incl = IntMatrix.from_columns(columns, rows=ambient.ngens)
    return SubgroupPresentation(ambient=ambient, computed=group, inclusion=incl)


def _mod_n_lattice(n: int, generators: Sequence[Sequence[int]]) -> list:
    """Hermite basis, one vector per row, of ``{x : sum_j x_j g_j == 0 mod
    n}`` over the generator vectors g_j, one per unknown, all of one
    length; the identity for n == 1 or no unknowns.  The solver reduces the
    entries modulo n itself."""
    if n == 1 or not generators:
        return [[int(i == j) for j in range(len(generators))] for i in range(len(generators))]
    return solution_lattice(generators, (n,) * len(generators[0]))


def hom_group(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """Canonical form of Hom(A, B)."""
    free = a.free_rank * b.free_rank
    cyclics = []
    for _ in range(a.free_rank):
        cyclics.extend(b.invariant_factors)
    for d in a.invariant_factors:
        for e in b.invariant_factors:
            g = gcd(d, e)
            if g > 1:
                cyclics.append(g)
    return direct_sum_canonical(free, cyclics)


def direct_sum_canonical(free_rank: int, cyclic_orders: Sequence[int]) -> FgAbGroup:
    """Canonicalize a direct sum of cyclic groups of the given orders.

    Z/a x Z/b is Z/gcd(a, b) x Z/lcm(a, b), so replacing each pair (a_i,
    a_j), i < j, by (gcd, lcm) in turn keeps the group and leaves a_i
    dividing every later order: O(k^2) gcds and no Smith form."""
    orders = list(map(index, cyclic_orders))
    if any(c < 1 for c in orders):
        raise ValueError("cyclic orders must be positive")
    for i in range(len(orders)):
        a = orders[i]
        for j in range(i + 1, len(orders)):
            b = orders[j]
            g = gcd(a, b)
            orders[j] = a // g * b
            a = g
        orders[i] = a
    return FgAbGroup(free_rank, tuple(c for c in orders if c != 1))


def ext1_z(a: FgAbGroup) -> FgAbGroup:
    """Ext^1(A, Z): the free part dies, each Z/d contributes Z/d."""
    return FgAbGroup(0, a.invariant_factors)
