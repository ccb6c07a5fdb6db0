"""Test-only oracles: slow second routes and helpers that no query reaches.

* Realized extensions 0 -> Z^r -> E -> Gamma -> 0 of a finite group,
  presented by Z^r and one lift per generator of Gamma in one Smith
  quotient, its U^-1 inverted by sympy (``extension_from_lifts``); the
  pullback of a character (``character_to_extension``), whose middle group
  ``homspace.extensions.middle_group`` gives in closed form; and its class
  read back off the generator lifts (``extension_class``), one
  ``preimage_of`` per generator.  ``homspace ext --char`` realizes nothing:
  the tests prove on these realizations the round trip that its
  ``round_trip_ok`` field states.
* Extension classes through symmetric 2-cocycle tables over Gamma: a
  section of the projection, built from the same generator lifts, gives a
  cocycle, and the averaging lift

      f(g) = (1/|Gamma|) * sum_h c(g, h)

  satisfies f(a) + f(b) - f(a+b) = c(a, b) exactly, so f mod Z is the class.
  ``extension_class`` reads the same class off the lifts alone; the tests
  compare the two.  Tables cost |Gamma|^2 cells, so this route is for small
  groups only.
* Two more routes to ``homspace.groups.pi1``, which reads pi1(H) as Z^r
  plus the kernel of the gluing group's torus projection.  ``_pi1_span`` is
  the span of N*e_i and of one lift of each of the model's own gluing
  generators inside Z^r x Z(S_sc) (``span_subgroup``, below: the free
  coordinates have no modulus).  ``pi1_extension`` is the
  extension 0 -> Z^r -> pi1(H) -> Gamma -> 0 presented by Z^r and one lift
  of each canonical generator of Gamma, one Smith quotient with both
  transforms, whose entries blow up on wide torus models.
* The gluing subgroup Gamma with its inclusion (``gluing_span``), which
  the library keeps as a bare type only.  It is a Smith-V span
  (``_smith_v_span``, below), so ``pi1_extension`` shares no span code
  with ``pi1``.  Central pushouts of reductive models along characters of
  Gamma, the character map pi1(H) -> Z and the element table of Gamma read
  it.  A pushout reads each gluing generator's coordinates in Gamma by
  ``preimage_of`` on the span's inclusion, so the span keeps no projection
  for it.
* The kernel of Spin(n) -> SO(n) as the annihilator of the vector
  representation's weights (``so_kernel_generators``, through
  ``annihilator_in_center`` and ``full_center_subgroup``), the route that
  ``homspace.groups.preset`` replaced by a closed form.
* Weights as values (``Weight``, ``fundamental_weight``), the restriction
  of one weight to a central subgroup, the weight table's columns rebuilt
  weight by weight (``fundamental_restrictions``) and the character
  lattice of the quotient, all read off
  ``homspace.rootdata.restriction_matrix``; no query needs any of them.
* Homs as checked values (``AbHom``), which reduce their matrix modulo
  the codomain's orders and reject a matrix that is not well defined (a
  generator of order d must map to an element that d kills).  The library
  keeps the matrices of a subgroup's inclusion and of a presentation's
  projection bare; ``inclusion_hom`` wraps the first, and the tests check
  every such matrix the library builds against this class.
* Matrix, group, element, character and hom arithmetic that no query
  needs, as plain functions: the library's values keep only the methods
  that a query reads.
* Small homomorphism constructors, and verification tools that the library
  no longer exports: kernels as subgroup presentations (``kernel_of``),
  cokernels with their projection, image lattices and the exactness test
  ``image(f) == kernel(g)``, preimages of single elements
  (``preimage_of``) by one Smith solve with U and V (``solve_integer``),
  and ``lattice_row_basis``, the Hermite basis of a spanned lattice
  through ``_hermite_rows``, the exact Hermite elimination that left
  ``homspace.intlinalg``.  It clears each column with unimodular 2x2 steps
  of its own, on the extended gcd ``_bezout``, so neither it nor the mod-e
  route below shares elimination code with the library: of
  ``homspace.intlinalg`` the oracles import only ``IntMatrix`` and the
  Smith loop ``_snf_transform``.
* Determinants and inverses from sympy's integer matrices (``det``,
  ``inverse``), a route independent of ``homspace.intlinalg``.
* The Smith-V lattice route, the only one the oracles take: solution
  lattices ``{x : A x == 0 mod orders}`` as the Smith-V kernel of
  ``[A | R]``, R the relation columns of the nonzero orders, canonicalized
  by a Hermite form (``snf_solution_lattice``; ``snf_kernel`` when there
  is no order).  Zero orders, which ``homspace.intlinalg.solution_lattice``
  rejects, are legal here.  Preimage lattices and kernels of homs, and
  spans with their inclusion in any ambient, free coordinates included
  (``span_subgroup``, the library's ``subgroup_from_generators`` on finite
  ambients), are built on it, so the tests compare the library with a
  route that shares with it only the Smith loop's U, inverted by sympy
  where the library reads U^-1 as R V D^-1.
* The former route of ``homspace.abgroups.span_group``
  (``exact_span_group``): the span's relation lattice, by the former mod-e
  Hermite route below, then the exact Smith loop, whose entries grow with
  the orders.  The library now diagonalizes the generators modulo e
  instead; the tests compare the two types.
* The former mod-e route of ``homspace.intlinalg.solution_lattice``: one
  Hermite elimination of ``[(e/o_i) A^T | I]`` modulo e = lcm(orders),
  cubic in the number of unknowns.  The library now builds the same basis
  one unknown at a time over a span in (Z/e)^n; the tests compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from operator import index
from typing import Optional, Sequence

from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from homspace.abgroups import (
    AbElement,
    FgAbGroup,
    SubgroupPresentation,
    _smith_quotient,
    from_presentation,
    subgroup_from_generators,
)
from homspace.extensions import Character
from homspace.groups import GluingPair, ReductiveModel, SemisimpleModel, _spin_datum
from homspace.intlinalg import IntMatrix, _snf_transform
from homspace.rootdata import RootDatumSS, center, restriction_matrix


# ---------------------------------------------------------------------------
# matrix and hom helpers


def zero_matrix(rows: int, cols: int) -> IntMatrix:
    return IntMatrix(rows, cols, (0,) * (rows * cols))


def diagonal_matrix(values: Sequence[int]) -> IntMatrix:
    n = len(values)
    return IntMatrix(n, n, (values[i] if i == j else 0 for i in range(n) for j in range(n)))


def identity_matrix(n: int) -> IntMatrix:
    return diagonal_matrix([1] * n)


def transposed(m: IntMatrix) -> IntMatrix:
    return IntMatrix(m.cols, m.rows, (m.entries[i * m.cols + j] for j in range(m.cols) for i in range(m.rows)))


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product ``a @ b``."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    entries = (sum(x * y for x, y in zip(a.row(i), b.column(j))) for i in range(a.rows) for j in range(b.cols))
    return IntMatrix(a.rows, b.cols, entries)


def apply_matrix(m: IntMatrix, vector: Sequence[int]) -> tuple:
    """Matrix-vector product, the vector as a column."""
    return tuple(sum(x * y for x, y in zip(m.row(i), vector, strict=True)) for i in range(m.rows))


def snf_rank(res) -> int:
    """Rank of a Smith decomposition: its nonzero diagonal entries."""
    return sum(1 for x in res.diagonal() if x != 0)


def hstack(left: IntMatrix, right: IntMatrix) -> IntMatrix:
    """``[left | right]``."""
    if left.rows != right.rows:
        raise ValueError("row counts differ")
    entries = [x for i in range(left.rows) for x in left.row(i) + right.row(i)]
    return IntMatrix(left.rows, left.cols + right.cols, entries)


def is_zero_matrix(m: IntMatrix) -> bool:
    return not any(x for i in range(m.rows) for x in m.row(i))


class AbHom:
    """Homomorphism between canonical groups, as a matrix on generator
    coordinates (columns indexed by domain generators)."""

    __slots__ = ("domain", "codomain", "matrix")

    def __init__(self, domain: FgAbGroup, codomain: FgAbGroup, matrix: IntMatrix):
        if matrix.rows != codomain.ngens or matrix.cols != domain.ngens:
            raise ValueError(
                f"matrix shape {matrix.rows}x{matrix.cols} does not map "
                f"{domain.ngens} generators into {codomain.ngens}"
            )
        orders = codomain.orders
        reduced = []
        for i, o in enumerate(orders):
            row = matrix.row(i)
            reduced.extend([x % o for x in row] if o else row)
        matrix = IntMatrix(matrix.rows, matrix.cols, reduced)
        for j, d in enumerate(domain.orders):
            if d == 0:
                continue
            for x, o in zip(matrix.column(j), orders):
                x *= d
                if (o == 0 and x != 0) or (o != 0 and x % o):
                    raise ValueError(
                        f"not a homomorphism: generator {j} of order {d} maps to an element not killed by {d}"
                    )
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix

    def __call__(self, elem: AbElement) -> AbElement:
        if elem.group != self.domain:
            raise ValueError("element not in the domain")
        return AbElement(self.codomain, apply_matrix(self.matrix, elem.coords))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AbHom)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.matrix == other.matrix
        )

    def __hash__(self) -> int:
        return hash((self.domain, self.codomain, self.matrix))

    def __repr__(self) -> str:
        return f"AbHom({self.domain} -> {self.codomain}, {self.matrix!r})"


def inclusion_hom(sub: SubgroupPresentation) -> AbHom:
    """A subgroup's inclusion matrix as a checked hom into its ambient."""
    return AbHom(sub.computed, sub.ambient, sub.inclusion)


def compose(outer: AbHom, inner: AbHom) -> AbHom:
    """``outer`` after ``inner``."""
    if inner.codomain != outer.domain:
        raise ValueError("homs do not compose")
    return AbHom(inner.domain, outer.codomain, matmul(outer.matrix, inner.matrix))


def generator(group: FgAbGroup, i: int) -> AbElement:
    """The i-th canonical generator of ``group``."""
    coords = [0] * group.ngens
    coords[i] = 1
    return group.element(coords)


def elements(group: FgAbGroup):
    """All elements of a finite group, lexicographic in coordinates."""
    if not group.is_finite:
        raise ValueError("cannot enumerate an infinite group")
    for coords in product(*(range(d) for d in group.invariant_factors)):
        yield AbElement(group, coords)


def cyclic_group(n: int) -> FgAbGroup:
    """Z/n, with Z/0 = Z and Z/1 trivial."""
    n = index(n)
    if n < 0:
        raise ValueError(f"cyclic order must be nonnegative, got {n}")
    return FgAbGroup(1 if n == 0 else 0, (n,) if n > 1 else ())


def is_trivial_group(group: FgAbGroup) -> bool:
    return group.ngens == 0


def identity_element(group: FgAbGroup) -> AbElement:
    return AbElement(group, (0,) * group.ngens)


def add_elements(a: AbElement, b: AbElement) -> AbElement:
    return AbElement(a.group, tuple(x + y for x, y in zip(a.coords, b.coords)))


def negate_element(a: AbElement) -> AbElement:
    return AbElement(a.group, tuple(-x for x in a.coords))


def is_zero_element(a: AbElement) -> bool:
    return not any(a.coords)


def element_order(a: AbElement) -> int | None:
    """The lcm of the orders of the torsion coordinates; None when infinite."""
    if any(a.coords[: a.group.free_rank]):
        return None
    n = 1
    for c, d in zip(a.coords[a.group.free_rank :], a.group.invariant_factors):
        k = d // gcd(c, d)
        n = n * k // gcd(n, k)
    return n


def subgroup_order(sub: SubgroupPresentation) -> int | None:
    return sub.computed.order()


def character_value(chi: Character, coords: Sequence[int]) -> Fraction:
    """chi at the element of the given coordinates, in [0, 1)."""
    return sum((c * v for c, v in zip(coords, chi.values)), Fraction(0)) % 1


def add_characters(a: Character, b: Character) -> Character:
    return Character(a.group, tuple(x + y for x, y in zip(a.values, b.values)))


def negate_character(chi: Character) -> Character:
    return Character(chi.group, tuple(-v for v in chi.values))


def is_trivial_character(chi: Character) -> bool:
    return all(v == 0 for v in chi.values)


# ---------------------------------------------------------------------------
# lattices


def det(m: IntMatrix) -> int:
    """Exact determinant of a square matrix, by sympy over ZZ."""
    return int(DomainMatrix([[ZZ(x) for x in m.row(i)] for i in range(m.rows)], (m.rows, m.cols), ZZ).det())


def inverse(m: IntMatrix) -> IntMatrix:
    """Inverse of a square integer matrix whose inverse is integral (a
    unimodular U, say), by sympy over QQ: a route that shares nothing with
    ``homspace.intlinalg``."""
    dm = DomainMatrix([[ZZ(x) for x in m.row(i)] for i in range(m.rows)], (m.rows, m.cols), ZZ)
    rows = dm.to_field().inv().to_list()
    if any(x.denominator != 1 for row in rows for x in row):
        raise ValueError("the inverse is not integral")
    return IntMatrix.from_rows([[int(x) for x in row] for row in rows], cols=m.cols)


def _bezout(a: int, b: int) -> tuple:
    """(g, s, t) with s*a + t*b == g == gcd(a, b) >= 0: Euclid's algorithm
    on the triples (r, s, t), each of which keeps s*a + t*b == r."""
    x, y = (a, 1, 0), (b, 0, 1)
    while y[0]:
        q = x[0] // y[0]
        x, y = y, tuple(p - q * r for p, r in zip(x, y))
    return x if x[0] >= 0 else tuple(-c for c in x)


def _hermite_rows(a: list) -> list:
    """Row-style Hermite elimination of the rows ``a`` in place; returns
    ``a``.  The row transform is not built.  Each entry below the pivot
    row is cleared by one unimodular 2x2 step with ``_bezout``'s
    coefficients, which puts the gcd of the two entries in the pivot row
    (a zero pivot included), so intermediate entries stay near minor
    size."""
    rows = len(a)
    cols = len(a[0]) if a else 0
    prow = 0
    for col in range(cols):
        if prow >= rows:
            break
        for i in range(prow + 1, rows):
            x = a[i][col]
            if x:
                y = a[prow][col]
                g, s, t = _bezout(y, x)
                top, low = a[prow], a[i]
                a[prow] = [s * p + t * q for p, q in zip(top, low)]
                a[i] = [(y // g) * q - (x // g) * p for p, q in zip(top, low)]
        if not a[prow][col]:
            continue
        if a[prow][col] < 0:
            a[prow] = [-x for x in a[prow]]
        for i in range(prow):
            q = a[i][col] // a[prow][col]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[prow])]
        prow += 1
    return a


def lattice_row_basis(vectors: Sequence[Sequence[int]], ambient_dim: int) -> IntMatrix:
    """Canonical (Hermite) basis, one row per basis vector, of the lattice
    spanned by ``vectors`` inside Z^ambient_dim.  Zero rows are dropped, so
    equal lattices yield equal matrices."""
    h = _hermite_rows([list(v) for v in vectors])
    return IntMatrix.from_rows([r for r in h if any(r)], cols=ambient_dim)


def solve_integer(m: IntMatrix, b: Sequence[int]) -> Optional[tuple]:
    """One integer solution of ``m @ x == b``, or None when none exists:
    ``U m V = D`` turns the system into ``D y = U b``, solved entry by
    entry, and x = V y."""
    if len(b) != m.rows:
        raise ValueError(f"right-hand side length {len(b)} != {m.rows} rows")
    u, d, v = _snf_transform(m, want_u=True, want_v=True)
    c = apply_matrix(u, b)
    y = [0] * m.cols
    limit = min(m.rows, m.cols)
    for i in range(m.rows):
        di = d[i, i] if i < limit else 0
        if di == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % di:
                return None
            y[i] = c[i] // di
    return apply_matrix(v, y)


def snf_kernel(m: IntMatrix) -> IntMatrix:
    """Saturated kernel basis (columns) from the last columns of the Smith
    transform V, canonicalized by the Hermite form."""
    _, d, v = _snf_transform(m, want_u=False, want_v=True)
    rank = sum(1 for i in range(min(d.rows, d.cols)) if d[i, i] != 0)
    cols = [list(v.column(j)) for j in range(rank, m.cols)]
    return transposed(lattice_row_basis(cols, m.cols))


def snf_solution_lattice(m: IntMatrix, orders: Sequence[int]) -> IntMatrix:
    """Hermite basis (rows) of ``{x : m @ x == 0}``, row i read modulo
    ``orders[i]`` (0 meaning exactly): the kernel of ``[m | R]`` cut down
    to x, R the relation columns of the nonzero orders."""
    kern = snf_kernel(hstack(m, _relation_columns(orders)))
    vectors = [[kern[i, j] for i in range(m.cols)] for j in range(kern.cols)]
    return lattice_row_basis(vectors, m.cols)


def hermite_mod_solution_lattice(m: IntMatrix, orders: Sequence[int]) -> IntMatrix:
    """Hermite basis (rows) of ``{x : m @ x == 0}``, every order nonzero:
    one Hermite elimination of ``[(e/o_i) m^T | I]`` plus e*Z^(n+s) modulo
    e = lcm(orders), O(s^2 (n+s)), whose last s pivot rows, back-reduced,
    are the basis.  Every entry stays in [0, e] (Domich-Kannan-Trotter 1987;
    Cohen, GTM 138, Alg. 2.4.8).  Column ``col`` is eliminated by folding
    each working row into the pivot row, which starts as e*e_col; the
    working rows keep only the columns after ``col``."""
    n, s = m.rows, m.cols
    e = lcm(*orders)
    scale = [e // o for o in orders]
    work = [[c * x % e for c, x in zip(scale, m.column(j))] + [int(j == k) for k in range(s)] for j in range(s)]
    width = n + s
    pivots = []
    for col in range(width):
        p = [e] + [0] * (width - col - 1)
        for k, r in enumerate(work):
            x = r[0]
            if not x:
                continue
            if x % p[0] == 0:
                q = x // p[0]
                work[k] = [(y - q * z) % e for y, z in zip(r, p)]
            else:
                g, a, b = _bezout(p[0], x)
                p_g, x_g = p[0] // g, x // g
                p, work[k] = (
                    [(a * y + b * z) % e for y, z in zip(p, r)],
                    [(p_g * z - x_g * y) % e for y, z in zip(p, r)],
                )
        if col >= n:
            pivots.append([0] * (col - n) + p)
        work = [r[1:] for r in work if any(r)]
    for i, row in enumerate(pivots):
        for j in range(i + 1, len(pivots)):
            q = row[j] // pivots[j][j]
            if q:
                row[j:] = [x - q * y for x, y in zip(row[j:], pivots[j][j:])]
    return IntMatrix.from_rows(pivots, cols=s)


# ---------------------------------------------------------------------------
# homomorphisms


def _relation_columns(orders: Sequence[int]) -> IntMatrix:
    """Columns spanning the relations of cyclic coordinates of the given
    orders (0 marks a free coordinate)."""
    d = diagonal_matrix(orders)
    return IntMatrix.from_columns([d.column(i) for i, o in enumerate(orders) if o], rows=len(orders))


def preimage_of(f: AbHom, elem: AbElement) -> Optional[AbElement]:
    """One element of the domain that f maps to ``elem``, or None when
    ``elem`` lies outside the image: one ``solve_integer`` over the hom's
    matrix and the codomain's relations."""
    if elem.group != f.codomain:
        raise ValueError("element not in the codomain")
    big = hstack(f.matrix, _relation_columns(f.codomain.orders))
    sol = solve_integer(big, elem.coords)
    if sol is None:
        return None
    return AbElement(f.domain, sol[: f.domain.ngens])


def identity_hom(group: FgAbGroup) -> AbHom:
    return AbHom(group, group, identity_matrix(group.ngens))


def zero_hom(domain: FgAbGroup, codomain: FgAbGroup) -> AbHom:
    return AbHom(domain, codomain, zero_matrix(codomain.ngens, domain.ngens))


def multiplication_hom(group: FgAbGroup, n: int) -> AbHom:
    return AbHom(group, group, diagonal_matrix([n] * group.ngens))


def _smith_v_span(gcols: IntMatrix, orders: Sequence[int]):
    """The span of the columns of ``gcols`` in cyclic coordinates of the
    given orders (0 marks a free one): its canonical type and, one per
    canonical generator, that generator's coordinates, unreduced.  The
    relations of the columns are the Smith-V kernel
    (``snf_solution_lattice``), and U^-1 of their Smith form, inverted by
    sympy (``inverse``), maps the canonical generators back to
    combinations of the columns."""
    relations = transposed(snf_solution_lattice(gcols, orders))
    group, u, _, positions = _smith_quotient(relations, want_u=True)
    uinv = inverse(u)
    return group, [apply_matrix(gcols, uinv.column(p)) for p in positions]


def exact_span_group(orders: Sequence[int], generator_coords: Sequence[Sequence[int]]) -> FgAbGroup:
    """The former route of ``homspace.abgroups.span_group``: Z^s modulo the
    generators' relation lattice, one exact Smith quotient with no
    transform, whose entries grow with the orders where the library's mod-e
    diagonal keeps them below e.  The lattice is the Hermite basis that
    ``homspace.intlinalg.solution_lattice`` returns, built here by
    ``hermite_mod_solution_lattice``."""
    gcols = IntMatrix.from_columns([list(g) for g in generator_coords], rows=len(orders))
    return _smith_quotient(transposed(hermite_mod_solution_lattice(gcols, orders)))[0]


def span_subgroup(ambient: FgAbGroup, gens: Sequence[AbElement]) -> SubgroupPresentation:
    """The span of ``gens`` with its inclusion, in any ambient, free
    coordinates included: ``homspace.abgroups.subgroup_from_generators``
    by the Smith-V route."""
    gcols = IntMatrix.from_columns([list(g.coords) for g in gens], rows=ambient.ngens)
    group, incl = _smith_v_span(gcols, ambient.orders)
    incl = AbHom(group, ambient, IntMatrix.from_columns(incl, rows=ambient.ngens))
    return SubgroupPresentation(ambient, group, incl.matrix)


def preimage_lattice(f: AbHom) -> IntMatrix:
    """Hermite basis (one vector per row) of ``{x in Z^ngens : f(x) = 0 in
    the codomain}``, x read as coordinates over the domain's generators,
    by the Smith-V route.  It contains the domain's relations, because f is
    well defined, and Z^ngens modulo it is isomorphic to the image of f."""
    return snf_solution_lattice(f.matrix, f.codomain.orders)


def kernel_of(f: AbHom) -> SubgroupPresentation:
    """Kernel as a subgroup presentation of the domain: the span of the
    nonzero rows of its preimage lattice."""
    pre = preimage_lattice(f)
    gens = [AbElement(f.domain, pre.row(i)) for i in range(pre.rows)]
    return span_subgroup(f.domain, [g for g in gens if not is_zero_element(g)])


def cokernel_of(f: AbHom):
    """Cokernel in canonical form plus the projection hom from the codomain."""
    big = hstack(f.matrix, _relation_columns(f.codomain.orders))
    group, proj = from_presentation(f.codomain.ngens, big)
    return group, AbHom(f.codomain, group, proj)


def image_lattice(f: AbHom) -> IntMatrix:
    """Rows span ``im(f) + relations`` inside Z^(codomain generators)."""
    vectors = [list(f.matrix.column(j)) for j in range(f.matrix.cols)]
    vectors.extend(transposed(_relation_columns(f.codomain.orders)).to_rows())
    return lattice_row_basis(vectors, f.codomain.ngens)


def is_exact_at(f: AbHom, g: AbHom) -> bool:
    """True when image(f) equals kernel(g) inside codomain(f) = domain(g)."""
    if f.codomain != g.domain:
        raise ValueError("codomain of f must equal domain of g")
    return image_lattice(f) == preimage_lattice(g)


def is_surjective(f: AbHom) -> bool:
    group, _ = cokernel_of(f)
    return is_trivial_group(group)


# ---------------------------------------------------------------------------
# realized extensions


def extension_from_lifts(gamma: FgAbGroup, rank: int, lift_multiples: Sequence[Sequence[int]]):
    """The extension 0 -> Z^rank -> E -> gamma -> 0 of a finite canonical
    ``gamma`` in which a lift s_p of the canonical generator of order d_p
    satisfies d_p * s_p = ``lift_multiples[p]``, a vector of Z^rank.

    E is presented by the generators (e_1, ..., e_rank, s_1, ..., s_k) and
    the k relations d_p * s_p - sum_i lift_multiples[p][i] * e_i (Brown,
    GTM 87, IV.3), and one Smith quotient gives it.  Returns E, the
    injection of Z^rank, read off the Smith row transform U, and the
    projection onto gamma, read off U^-1 (``inverse``, by sympy)."""
    k = gamma.ngens
    cols = [
        [-x for x in mult] + [d if q == p else 0 for q in range(k)]
        for p, (d, mult) in enumerate(zip(gamma.invariant_factors, lift_multiples))
    ]
    middle, u, _, positions = _smith_quotient(IntMatrix.from_columns(cols, rows=rank + k), want_u=True)
    uinv = inverse(u)
    inject = IntMatrix.from_rows([u.row(p)[:rank] for p in positions], cols=rank)
    project = IntMatrix.from_rows([[uinv[rank + q, p] for p in positions] for q in range(k)], cols=middle.ngens)
    return middle, AbHom(FgAbGroup(rank, ()), middle, inject), AbHom(middle, gamma, project)


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
    d_i * chi(g_i).  ``homspace.extensions.middle_group`` gives the same
    middle group in closed form."""
    gamma = chi.group
    multiples = [[int(d * v)] for d, v in zip(gamma.invariant_factors, chi.values)]
    middle, inject, project = extension_from_lifts(gamma, 1, multiples)
    return ExtensionData(middle=middle, inject=inject, project=project)


def generator_lifts(ext: ExtensionData) -> list:
    """Coordinates in the middle group of one lift of each canonical
    generator of Gamma, each a ``preimage_of`` under the projection."""
    gamma = ext.project.codomain
    lifts = [preimage_of(ext.project, generator(gamma, i)) for i in range(gamma.ngens)]
    assert all(lift is not None for lift in lifts), "projection is surjective"
    return [lift.coords for lift in lifts]


def extension_class(ext: ExtensionData) -> Character:
    """Class of a realized extension, read off generator lifts.

    E has free rank 1 and iota(1) has infinite order, so E's one free
    coordinate detects the injected Z faithfully: d_i * s_i = c_i * iota(1)
    read there gives c_i / d_i = s_i[0] / iota(1)[0]."""
    unit = ext.inject.matrix[0, 0]
    return Character(ext.project.codomain, [Fraction(lift[0], unit) for lift in generator_lifts(ext)])


# ---------------------------------------------------------------------------
# characters and cocycle tables


def character_from_dual_element(chi: AbElement) -> Character:
    """Read an element of a finite G as the character of G it stands for
    under the pairing of docs/conventions.md: coordinate c_i is the value
    c_i / d_i on the i-th canonical generator."""
    group = chi.group
    values = tuple(Fraction(c, d) for c, d in zip(chi.coords, group.invariant_factors))
    return Character(group, values)


def all_characters(group: FgAbGroup):
    return [character_from_dual_element(e) for e in elements(group)]


@lru_cache(maxsize=None)
def _elements(group: FgAbGroup):
    if not group.is_finite:
        raise ValueError(f"{group} is not finite")
    elems = tuple(product(*(range(d) for d in group.invariant_factors)))
    index = {coords: i for i, coords in enumerate(elems)}
    return elems, index


@lru_cache(maxsize=None)
def _add_table(group: FgAbGroup):
    """add[a][b] = element index of elems[a] + elems[b]."""
    elems, index = _elements(group)
    factors = group.invariant_factors
    return tuple(
        tuple(index[tuple((x + y) % d for x, y, d in zip(ea, eb, factors))] for eb in elems)
        for ea in elems
    )


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
        """Skip the O(n^3) identity check for tables that satisfy it by
        construction (sums of cocycles, coboundaries, sections)."""
        self = object.__new__(cls)
        self.group = group
        self.table = table
        return self

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
    n = len(_elements(group)[0])
    if len(lift_values) != n - 1:
        raise ValueError(f"need {n - 1} values for the nonzero elements")
    g = [0] + [int(v) for v in lift_values]
    add = _add_table(group)
    table = tuple(tuple(g[a] + g[b] - g[add[a][b]] for b in range(n)) for a in range(n))
    return SymmetricCocycle._trusted(group, table)


def _section(ext: ExtensionData):
    """Set-theoretic section of the projection with s(0) = 0, tabulated over
    the quotient's element enumeration: sum_i c_i * s_i at the element of
    coordinates c, the s_i the generator lifts."""
    elems, _ = _elements(ext.project.codomain)
    lifts = generator_lifts(ext)
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

    Differences of section values land in ker(project) = im(inject), and the
    injected Z is detected faithfully on any free coordinate where it is
    nonzero, so inversion reads off a single coordinate."""
    gamma = ext.project.codomain
    n = len(_elements(gamma)[0])
    section = _section(ext)
    j = ext.inject.matrix.column(0)
    pivot = next((p for p in range(ext.middle.free_rank) if j[p] != 0), None)
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
    """Class of a cocycle via the averaging lift f(g) = (1/n) sum_h c(g, h)."""
    gamma = c.group
    _, index = _elements(gamma)
    n = len(c.table)
    values = []
    for i in range(gamma.ngens):
        coords = [0] * gamma.ngens
        coords[i] = 1
        values.append(Fraction(sum(c.table[index[tuple(coords)]]), n))
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


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class Weight:
    """Integral weight in fundamental-weight coordinates."""

    datum: RootDatumSS
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(map(int, self.coords)))
        if len(self.coords) != self.datum.rank:
            raise ValueError(f"expected {self.datum.rank} coordinates, got {len(self.coords)}")

    def __add__(self, other: "Weight") -> "Weight":
        if self.datum != other.datum:
            raise ValueError("weights of different data")
        return Weight(self.datum, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def pq_class(self) -> AbElement:
        datum = self.datum
        return datum.pq_group.element(apply_matrix(datum.pq_proj, self.coords))


def fundamental_weight(datum: RootDatumSS, index: int) -> Weight:
    """The unit vector e_index."""
    coords = [0] * datum.rank
    coords[index] = 1
    return Weight(datum, coords)


# ---------------------------------------------------------------------------
# presets


def vector_rep_weights(n: int, datum: RootDatumSS):
    """Weight basis of the standard orthogonal representation of SO(n),
    written in fundamental-weight coordinates of Spin(n)'s type."""
    m = datum.rank
    fam = datum.factors[0].family if datum.factors else None
    if n == 3:  # Spin(3) = SL2, vector rep = adjoint
        return [Weight(datum, (2,))]
    if n == 4:  # Spin(4) = SL2 x SL2
        return [Weight(datum, (1, 1)), Weight(datum, (-1, 1))]
    if n == 6:  # Spin(6) = SL4, e-basis through the exterior square
        return [Weight(datum, (0, 1, 0)), Weight(datum, (1, -1, 1)), Weight(datum, (-1, 0, 1))]
    if fam == "B":
        out = []
        for i in range(m - 1):
            coords = [0] * m
            coords[i] = 1
            if i:
                coords[i - 1] = -1
            out.append(Weight(datum, coords))
        last = [0] * m
        last[m - 1] = 2
        if m >= 2:
            last[m - 2] = -1
        out.append(Weight(datum, last))
        return out
    if fam == "D":
        out = []
        for i in range(m - 2):
            coords = [0] * m
            coords[i] = 1
            if i:
                coords[i - 1] = -1
            out.append(Weight(datum, coords))
        second = [0] * m
        second[m - 1] = 1
        second[m - 2] = 1
        if m >= 3:
            second[m - 3] = -1
        out.append(Weight(datum, second))
        last = [0] * m
        last[m - 1] = 1
        last[m - 2] = -1
        out.append(Weight(datum, last))
        return out
    raise ValueError("no vector representation table for this datum")


def full_center_subgroup(datum: RootDatumSS) -> SubgroupPresentation:
    group = center(datum)
    return subgroup_from_generators(group, [generator(group, i) for i in range(group.ngens)])


def annihilator_in_center(datum: RootDatumSS, weights: Sequence[Weight]) -> SubgroupPresentation:
    """Subgroup of the center pairing trivially with every given weight."""
    cgroup = center(datum)
    classes = [w.pq_class() for w in weights]
    classes = [c for c in classes if not is_zero_element(c)]
    if not classes:
        return full_center_subgroup(datum)
    d_orders = datum.pq_group.invariant_factors
    big = lcm(*d_orders) if d_orders else 1
    rows = []
    for c in classes:
        rows.append([(ci * (big // d)) % big for ci, d in zip(c.coords, d_orders)])
    target = FgAbGroup(0, (big,) * len(classes)) if big >= 2 else FgAbGroup(0, ())
    if is_trivial_group(target):
        return full_center_subgroup(datum)
    psi = AbHom(cgroup, target, IntMatrix.from_rows(rows, cols=cgroup.ngens))
    return kernel_of(psi)


def so_kernel_generators(n: int) -> list:
    """Dual coordinates of the canonical generators of ker(Spin(n) ->
    SO(n)) as the annihilator of the vector representation's weights, the
    route ``homspace.groups.preset`` took before its closed form."""
    datum = _spin_datum(n)
    kernel = annihilator_in_center(datum, vector_rep_weights(n, datum))
    return [inclusion_hom(kernel)(generator(kernel.computed, p)).coords for p in range(kernel.computed.ngens)]


# ---------------------------------------------------------------------------
# weight restriction


def restrict_weight(weight: Weight, sub: SubgroupPresentation) -> AbElement:
    """Character of the central subgroup obtained by pairing the weight's
    class in P/Q against each subgroup generator: ``restriction_matrix``
    applied to the weight, over the canonical generators of the dual of
    ``sub.computed``."""
    restriction = restriction_matrix(weight.datum, sub)
    return sub.computed.element(apply_matrix(restriction, weight.coords))


def fundamental_restrictions(datum: RootDatumSS, sub: SubgroupPresentation) -> list:
    """The restriction of each fundamental weight to ``sub``, one
    ``restrict_weight`` per weight, in node order: the weight table's
    columns, rebuilt weight by weight."""
    return [restrict_weight(fundamental_weight(datum, i), sub) for i in range(datum.rank)]


def character_lattice_of_quotient(datum: RootDatumSS, sub: SubgroupPresentation) -> IntMatrix:
    """Hermite basis (one weight per row) of the finite-index sublattice of P
    of weights whose restriction to the central subgroup is trivial: the
    preimage of 0 under ``restriction_matrix``."""
    restrict = AbHom(FgAbGroup(datum.rank, ()), sub.computed, restriction_matrix(datum, sub))
    return preimage_lattice(restrict)


# ---------------------------------------------------------------------------
# reductive models


@dataclass(frozen=True)
class GluingSpan:
    """The gluing subgroup Gamma spanned inside Z(S_sc) x (Z/N)^r, N the
    lcm of the torus parts' denominators: its canonical type and, one column
    per canonical generator, that generator's ambient coordinates."""

    torus_exponent: int
    orders: tuple  # the center factors, then r copies of N
    group: FgAbGroup
    inclusion_columns: IntMatrix

    def reduce_ambient(self, coords: Sequence[int]) -> tuple:
        return tuple(c % o for c, o in zip(coords, self.orders))


@lru_cache(maxsize=None)
def gluing_span(model: ReductiveModel) -> GluingSpan:
    """Gamma with its inclusion, by a route the library does not take: the
    Smith-V span (``_smith_v_span``) of the model's gluing generators."""
    n, torus_rows = model.torus_numerators
    orders = model.ss.pq_group.invariant_factors + (n,) * model.torus_rank
    gcols = IntMatrix.from_columns(
        [list(pair.center.coords + row) for pair, row in zip(model.gluing, torus_rows)], rows=len(orders)
    )
    group, incl = _smith_v_span(gcols, orders)
    incl = [[c % o for c, o in zip(col, orders)] for col in incl]
    return GluingSpan(n, orders, group, IntMatrix.from_columns(incl, rows=len(orders)))


def gluing_elements(model: ReductiveModel):
    """Materialized element table of the gluing subgroup, as gluing pairs."""
    span = gluing_span(model)
    n = span.torus_exponent
    k = len(model.ss.pq_group.invariant_factors)
    out = []
    for elem in elements(span.group):
        coords = span.reduce_ambient(apply_matrix(span.inclusion_columns, elem.coords))
        ce = center(model.ss).element(coords[:k])
        torus = tuple(Fraction(c, n) for c in coords[k:])
        out.append(GluingPair(ce, torus))
    return out


@lru_cache(maxsize=None)
def _pi1_span(model: ReductiveModel):
    """Fundamental group as a subgroup of Z^r (+) Z(S_sc), coordinates
    (N*v | center); returns the subgroup presentation in that ambient."""
    n = model.torus_numerators[0]
    r = model.torus_rank
    center_factors = model.ss.pq_group.invariant_factors
    ambient = FgAbGroup(r, center_factors)
    gens = []
    for i in range(r):
        coords = [0] * ambient.ngens
        coords[i] = n
        gens.append(ambient.element(coords))
    for pair in model.gluing:
        torus = [int(v * n) for v in pair.torus]
        coords = torus + list(pair.center.coords)
        gens.append(ambient.element(coords))
    return span_subgroup(ambient, gens)


def pi1_extension(model: ReductiveModel) -> FgAbGroup:
    """pi1(H) as the extension of the canonical gluing group by Z^r: a
    generator (z, t/N) of order d lifts to (t/N, z), and d times that lift is
    the integral loop d*t/N."""
    span = gluing_span(model)
    n = span.torus_exponent
    k = len(model.ss.pq_group.invariant_factors)
    incl = span.inclusion_columns
    multiples = [
        [d * incl[k + i, p] // n for i in range(model.torus_rank)]
        for p, d in enumerate(span.group.invariant_factors)
    ]
    return extension_from_lifts(span.group, model.torus_rank, multiples)[0]


def semisimple_as_reductive(sm: SemisimpleModel, name: Optional[str] = None) -> ReductiveModel:
    gens = []
    for p in range(sm.kernel.computed.ngens):
        elem = inclusion_hom(sm.kernel)(generator(sm.kernel.computed, p))
        gens.append(GluingPair(elem, ()))
    return ReductiveModel(ss=sm.datum, torus_rank=0, gluing=tuple(gens), unipotent_dim=0, name=name)


def psi_character_map(model: ReductiveModel, mu: Sequence[int]) -> AbHom:
    """The homomorphism pi1(H) -> Z induced by a character: (v, z) maps to
    <mu, v>.  Rejects mu outside the character lattice."""
    mu = tuple(int(c) for c in mu)
    if len(mu) != model.torus_rank:
        raise ValueError(f"character needs {model.torus_rank} coordinates")
    for pair in model.gluing:
        val = sum(m * v for m, v in zip(mu, pair.torus))
        if val.denominator != 1:
            raise ValueError(f"not a character of the model: pairing {val} with a gluing generator is not integral")
    lam = _pi1_span(model)
    n = model.torus_numerators[0]
    r = model.torus_rank
    images = []
    for p in range(lam.computed.ngens):
        w = lam.inclusion.column(p)[:r]
        num = sum(m * wi for m, wi in zip(mu, w))
        assert num % n == 0, "character pairing must be integral on pi1"
        images.append(num // n)
    return AbHom(lam.computed, FgAbGroup(1, ()), IntMatrix.from_rows([images], cols=lam.computed.ngens))


def central_pushout(model: ReductiveModel, gamma: Character) -> ReductiveModel:
    """Model of the central extension (H~ x Gm)/gluing attached to a
    character of the gluing subgroup: one extra torus coordinate, each
    gluing generator extended by the character's value on it."""
    span = gluing_span(model)
    if gamma.group != span.group:
        raise ValueError(f"character is defined on {gamma.group}, but the gluing subgroup is {span.group}")
    # the span's ambient Z(S_sc) x (Z/N)^r embeds into (Z/e)^m, e the lcm of
    # its orders, by x -> (e/o) x on each coordinate of order o > 1
    e = lcm(*span.orders)
    scales = [(i, e // o) for i, o in enumerate(span.orders) if o > 1]
    ambient = FgAbGroup(0, (e,) * len(scales))
    incl = span.inclusion_columns
    scaled = IntMatrix.from_rows([[c * x for x in incl.row(i)] for i, c in scales], cols=incl.cols)
    embed = AbHom(span.group, ambient, scaled)
    _, torus_rows = model.torus_numerators
    new_pairs = []
    for pair, row in zip(model.gluing, torus_rows):
        coords = pair.center.coords + row
        inside = preimage_of(embed, ambient.element([c * coords[i] for i, c in scales]))
        new_pairs.append(GluingPair(pair.center, pair.torus + (character_value(gamma, inside.coords),)))
    return ReductiveModel(
        ss=model.ss, torus_rank=model.torus_rank + 1, gluing=tuple(new_pairs), unipotent_dim=model.unipotent_dim
    )


def fiber_class_in_pi1(model: ReductiveModel) -> AbHom:
    """For a model with torus rank >= 1: the map Z -> pi1(H) classifying a
    loop around the last torus coordinate."""
    if model.torus_rank == 0:
        raise ValueError("model has no torus coordinate")
    lam = _pi1_span(model)
    n = model.torus_numerators[0]
    coords = [0] * lam.ambient.ngens
    coords[model.torus_rank - 1] = n
    inside = preimage_of(inclusion_hom(lam), lam.ambient.element(coords))
    assert inside is not None, "integral torus loops lie in pi1"
    return AbHom(
        FgAbGroup(1, ()),
        lam.computed,
        IntMatrix.from_columns([list(inside.coords)], rows=lam.computed.ngens),
    )
