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

Subgroup, kernel and Hom/Ext computations all reduce to Smith normal forms
and solution lattices from :mod:`homspace.intlinalg`.  Lattices ``{x : A x
= 0 mod n}`` and the relations of a span are the Hermite bases of
``intlinalg.solution_lattice``, built modulo the orders of a finite
ambient: a free coordinate has no modulus, so :func:`span_group` and
:func:`subgroup_from_generators` take finite ambients only.  Every Smith
quotient goes through one helper, which asks the Smith loop for U or V
only as needed.  A subgroup's inclusion (:func:`subgroup_from_generators`)
is all its callers read; it takes V alone and reads U^-1 as R V D^-1,
since U R V = D for its square, nonsingular relation matrix R.  A
presentation's projection (:func:`from_presentation`) reads U, and the
bare type of a span (:func:`span_group`) takes neither.  A direct sum of
cyclic groups (:func:`direct_sum_canonical`) is canonicalized by pairwise
gcd and lcm, with no Smith form.  The torus and character conditions of
``groups`` and ``extensions`` are integer rows modulo one n > 1
(``_mod_n_lattice``), with no hom built around them; other modules never
call ``solution_lattice`` or ``_snf_transform`` themselves.  Homs as
checked values, preimage lattices of homs, kernels as subgroup
presentations, spans in groups of positive free rank, preimages of single
elements, extensions realized by generator lifts, and a group's unit
generators and element list are test oracles (``tests/oracles.py``): no
query reads any of them.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd
from operator import attrgetter, index

from .intlinalg import IntMatrix, solution_lattice, _snf_transform


class _Record:
    """A frozen value, as ``@dataclass(frozen=True)`` makes one, without
    importing ``dataclasses`` or ``exec``-ing its methods.  A record's
    fields are the parameters of its ``__init__``, in order, which checks
    and normalizes them and sets them with ``_set``, or one by one with
    ``object.__setattr__`` where that is faster to run.  Equality and the
    hash are those of the tuple of fields, and a record never equals one of
    another class.  The repr is the dataclass repr.  Assignment and deletion
    raise AttributeError, and copy and pickle rebuild a record through its
    constructor.  A record keeps its fields in ``__slots__``, or in a
    ``__dict__`` where a ``cached_property`` keeps what it derives."""

    __slots__ = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        cls._key = attrgetter(*cls._fields)

    def _set(self, *values):
        for key, value in zip(self._fields, values):
            object.__setattr__(self, key, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={value!r}" for key, value in zip(self._fields, self._key(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild a record from its fields, never by setattr
        return type(self), self._key(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "invariant_factors", factors)

    # the constructor, == and hash are written out, as AbElement's are: on
    # the records built and compared most often, that takes about 40% less
    # time than _set and the record's attrgetter key
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.free_rank, self.invariant_factors) == (other.free_rank, other.invariant_factors)
        return NotImplemented

    def __hash__(self):
        return hash((self.free_rank, self.invariant_factors))

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
    def is_trivial(self) -> bool:
        return self.ngens == 0

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def exponent(self) -> int:
        if not self.is_finite:
            raise ValueError("infinite group has no exponent")
        return self.invariant_factors[-1] if self.invariant_factors else 1

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

    def identity(self) -> "AbElement":
        return AbElement(self, (0,) * self.ngens)

    def __str__(self) -> str:
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " x ".join(parts) if parts else "0"


TRIVIAL_GROUP = FgAbGroup(0, ())
Z = FgAbGroup(1, ())


def cyclic(n: int) -> FgAbGroup:
    """Z/n, with Z/0 = Z and Z/1 trivial."""
    n = index(n)
    if n < 0:
        raise ValueError(f"cyclic order must be nonnegative, got {n}")
    if n < 2:
        return TRIVIAL_GROUP if n == 1 else Z
    return FgAbGroup(0, (n,))


class AbElement(_Record):
    __slots__ = ("group", "coords")

    def __init__(self, group: FgAbGroup, coords: tuple):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", group.reduce(coords))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.group, self.coords) == (other.group, other.coords)
        return NotImplemented

    def __hash__(self):
        return hash((self.group, self.coords))

    def __add__(self, other: "AbElement") -> "AbElement":
        if self.group != other.group:
            raise ValueError("elements of different groups")
        return AbElement(self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "AbElement":
        return AbElement(self.group, tuple(-a for a in self.coords))

    def __sub__(self, other: "AbElement") -> "AbElement":
        return self + (-other)

    def __mul__(self, n: int) -> "AbElement":
        return AbElement(self.group, tuple(n * a for a in self.coords))

    __rmul__ = __mul__

    @property
    def is_identity(self) -> bool:
        return all(c == 0 for c in self.coords)

    def order(self) -> int | None:
        """Element order, None when infinite."""
        if any(self.coords[: self.group.free_rank]):
            return None
        n = 1
        for c, d in zip(self.coords[self.group.free_rank :], self.group.invariant_factors):
            n = n * (d // gcd(c, d)) // gcd(n, d // gcd(c, d))
        return n


class SubgroupPresentation(_Record):
    """A subgroup of ``ambient``: its abstract type and the injective
    inclusion of its canonical generators back into the ambient group, a
    matrix with one column per generator, its ambient coordinates reduced
    like an element's."""

    __slots__ = ("ambient", "computed", "inclusion")

    def __init__(self, ambient: FgAbGroup, computed: FgAbGroup, inclusion: IntMatrix):
        self._set(ambient, computed, inclusion)

    def order(self) -> int | None:
        return self.computed.order()


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
    divisibility chain, and each must be positive).  The Smith loop builds
    no transform."""
    gcols = IntMatrix.from_columns([list(g) for g in generator_coords], rows=len(orders))
    return _smith_quotient(solution_lattice(gcols, orders).transpose())[0]


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
    gcols = IntMatrix.from_columns([list(g.coords) for g in gens], rows=ambient.ngens)
    relations = solution_lattice(gcols, orders).transpose()
    group, _, v, positions = _smith_quotient(relations, want_v=True)
    columns = []
    for p, d in zip(positions, group.invariant_factors):
        combination = [x // d for x in relations.apply(v.column(p))]
        columns.append([x % o for x, o in zip(gcols.apply(combination), orders)])
    incl = IntMatrix.from_columns(columns, rows=ambient.ngens)
    return SubgroupPresentation(ambient=ambient, computed=group, inclusion=incl)


def _mod_n_lattice(ngens: int, n: int, rows: Sequence[Sequence[int]]) -> IntMatrix:
    """Hermite basis (one vector per row) of ``{x in Z^ngens : row . x == 0
    mod n for every row}``; the identity for n == 1 or no rows.  The solver
    reduces the rows modulo n itself."""
    if n == 1 or not rows:
        return IntMatrix.identity(ngens)
    return solution_lattice(IntMatrix.from_rows(rows, cols=ngens), (n,) * len(rows))


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
