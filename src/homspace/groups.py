"""Combinatorial models of connected complex algebraic groups.

A reductive group H is presented as (Z x S_sc) / gluing, where Z is a central
torus of rank r, S_sc the simply connected semisimple part given by its root
datum, and the gluing subgroup a finite subgroup of Z(S_sc) x (Q/Z)^r given
by generators.  A connected group additionally records an informational
unipotent dimension: no invariant computed here ever sees the unipotent
part, which is why the model drops it.

The ambient simply connected overgroup G is deliberately not part of the
model: every invariant exposed downstream depends only on H, and any model
embeds into some SL_N.

The fundamental group is the preimage lattice

    {(v, z) in Q^r x Z(S_sc) : (v mod Z^r, z) in gluing subgroup},

an extension 0 -> Z^r -> pi1(H) -> Gamma -> 0 of the gluing subgroup Gamma
by the integral torus loops.  It is free of rank r plus a torsion part, and
that torsion is pi1 of the derived subgroup: the kernel of Gamma's
projection to the torus (Q/Z)^r, a subgroup of Z(S_sc) (Sansuc 1981).
The model finds that kernel's generators from its own gluing generators,
never from Gamma: with N the lcm of the torus parts' denominators, one
solution lattice of the torus numerators modulo N gives the combinations
of the gluing generators whose torus parts sum to an integral vector, and
their center parts span the kernel.  ``pi1`` reads the kernel's bare type
(``ReductiveModel.kernel_type``, a ``span_group``), and so does Gamma's
type (``ReductiveModel.gluing_type``), which only ``describe`` reads:
neither builds an inclusion, a ``SemisimpleModel`` or an exact Smith form.
``ReductiveModel.derived`` spans the same generators with the kernel's
inclusion, the derived subgroup S_sc/kernel as a ``SemisimpleModel``,
which ``as_semisimple`` returns and only the weight table reads.  A model
computes each once and keeps it, as a semisimple model keeps its
restriction matrix and ``invariants`` keeps a model's report on the
model, so no module-level cache holds a model.

A gluing generator is one integer row over Z(S_sc) x (Z/N)^r
(``ReductiveModel``).  Both mod-N problems, the kernel generators and
``character_group``, hand slices of these rows to the solver, and Gamma's
type spans them as they are, so no query does ``Fraction`` arithmetic, and
since no cache is keyed by a model, no query hashes one.  Only the spec
reader and writer (``homspace.spec``) see a torus part as a fraction.

The tests keep two more routes to pi1 in ``tests/oracles.py``: the span of
the standard basis of Z^r and the lifts of the model's own gluing generators
inside Z^r x Z(S_sc), and the extension presented by Z^r and one lift of each
canonical generator of Gamma (``pi1_extension``), Gamma spanned there with
its inclusion by a reference route of its own.  They are compared with
``pi1`` in ``tests/test_groups.py::TestPi1`` and acceptance criteria 2 and
6, not on every query, and the kernel type with the derived kernel in
``TestDerivedSubgroup``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd
from operator import index

from .abgroups import (
    FgAbGroup,
    SubgroupPresentation,
    _mod_n_lattice,
    span_group,
    subgroup_from_generators,
)
from .intlinalg import IntMatrix, _combination, _Record
from .rootdata import RootDatumSS, SimpleType, build_datum, center, restriction_matrix

class ReductiveModel(_Record):
    """(Z x S_sc) / gluing: the semisimple part's root datum, the torus
    rank r, the torus denominator N and the gluing generators, one integer
    row each over Z(S_sc) x (Z/N)^r, an informational unipotent dimension
    and a name.  A row is the generator's center coordinates, reduced as
    ``FgAbGroup.reduce`` reduces them, then its torus part times N, each
    numerator in [0, N).  N is the lcm of the reduced denominators of the
    torus parts, 1 when there is none: rows given over a multiple of it
    are divided down to it, so equal models are equal records."""

    def __init__(
        self,
        ss: RootDatumSS,
        torus_rank: int,
        torus_denominator: int,
        gluing: tuple,
        unipotent_dim: int = 0,
        name: str | None = None,
    ):
        rank, n, unipotent = index(torus_rank), index(torus_denominator), index(unipotent_dim)
        if name is not None and not isinstance(name, str):
            raise TypeError(f"model name must be a str or None, not {type(name).__name__}")
        if rank < 0:
            raise ValueError("torus rank must be nonnegative")
        if n < 1:
            raise ValueError(f"torus denominator {n} must be positive")
        if unipotent < 0:
            raise ValueError("unipotent dimension must be nonnegative")
        cgroup = center(ss)
        width = cgroup.ngens
        rows = []
        for row in gluing:
            row = tuple(row)
            if len(row) != width + rank:
                raise ValueError(
                    f"gluing row has {len(row)} entries, model has {width} center coordinates and torus rank {rank}"
                )
            torus = tuple(map(index, row[width:]))
            if torus and not (min(torus) >= 0 and max(torus) < n):
                raise ValueError(f"torus numerators {torus} must lie in [0, {n})")
            rows.append(cgroup.reduce(row[:width]) + torus)
        # a/N reduced has denominator N/gcd(a, N), so their lcm is N/g
        g = gcd(n, *(a for row in rows for a in row[width:]))
        if g > 1:
            n //= g
            rows = [row[:width] + tuple(a // g for a in row[width:]) for row in rows]
        self._set(ss, rank, n, tuple(rows), unipotent, name)

    @cached_property
    def gluing_type(self) -> FgAbGroup:
        """Abstract type of the gluing subgroup, spanned inside
        Z(S_sc) x (Z/N)^r by the model's gluing generators."""
        orders = self.ss.pq_group.invariant_factors + (self.torus_denominator,) * self.torus_rank
        return span_group(orders, self.gluing)

    def _kernel_generators(self) -> list:
        """Center coordinates, unreduced, of generators of the kernel of the
        gluing subgroup's torus projection: the center parts of the
        combinations of the gluing generators whose torus parts sum to an
        integral vector, one combination per row of the solution lattice
        of the torus numerators modulo N.  With N = 1 every combination
        qualifies, and the lattice is the identity."""
        width = self.ss.pq_group.ngens
        centers = [row[:width] for row in self.gluing]
        lattice = _mod_n_lattice(self.torus_denominator, [row[width:] for row in self.gluing])
        return [_combination(centers, c, width) for c in lattice]

    @cached_property
    def kernel_type(self) -> FgAbGroup:
        """Abstract type of the kernel of the gluing subgroup's torus
        projection, pi1 of the derived subgroup: the bare span of the
        kernel generators in the center of S_sc."""
        return span_group(self.ss.pq_group.invariant_factors, self._kernel_generators())

    @cached_property
    def derived(self) -> SemisimpleModel:
        """The derived subgroup S_sc/kernel, the kernel spanned with its
        inclusion into the center of S_sc by the kernel generators."""
        kernel = subgroup_from_generators(center(self.ss), self._kernel_generators())
        return SemisimpleModel(datum=self.ss, kernel=kernel)

    def describe(self) -> str:
        return self.name or f"({self.ss}, r={self.torus_rank}, {len(self.gluing)} gluing generators)"


class SemisimpleModel(_Record):
    """Quotient of a simply connected semisimple group by a central subgroup;
    the fundamental group is that kernel."""

    def __init__(self, datum: RootDatumSS, kernel: SubgroupPresentation):
        if kernel.ambient != center(datum):
            raise ValueError("kernel must be a subgroup of the center")
        self._set(datum, kernel)

    @cached_property
    def restriction_matrix(self) -> IntMatrix:
        """The kernel's ``rootdata.restriction_matrix``: the weight table."""
        return restriction_matrix(self.datum, self.kernel)


def pi1(model: ReductiveModel) -> FgAbGroup:
    """Fundamental group of H (the unipotent part never contributes): Z^r
    plus pi1 of the derived subgroup as its torsion."""
    return FgAbGroup(model.torus_rank, model.kernel_type.invariant_factors)


def character_group(model: ReductiveModel):
    """Characters of H as a finite-index sublattice of Z^r (Hermite basis,
    one character per row) together with its abstract type."""
    r, width = model.torus_rank, model.ss.pq_group.ngens
    # one unknown per torus coordinate, one condition per gluing generator
    columns = [[row[k] for row in model.gluing] for k in range(width, width + r)]
    lattice = _mod_n_lattice(model.torus_denominator, columns)
    return IntMatrix.from_rows(lattice, cols=r), FgAbGroup(r, ())


def as_semisimple(model: ReductiveModel) -> SemisimpleModel:
    """Reinterpret a model with no torus and no unipotent part as a
    semisimple quotient S_sc/kernel, the kernel being the span of the gluing
    generators."""
    if model.torus_rank != 0 or model.unipotent_dim != 0:
        raise ValueError("model is not semisimple: it has a torus or unipotent part")
    return model.derived


# ---------------------------------------------------------------------------
# presets

def _spin_datum(n: int) -> RootDatumSS:
    if n == 3:
        return build_datum((SimpleType("A", 1),))
    if n == 4:
        return build_datum((SimpleType("A", 1), SimpleType("A", 1)))
    if n == 5:
        return build_datum((SimpleType("B", 2),))
    if n == 6:
        return build_datum((SimpleType("A", 3),))
    if n % 2:
        return build_datum((SimpleType("B", n // 2),))
    return build_datum((SimpleType("D", n // 2),))


def _so_kernel_generator(n: int, datum: RootDatumSS) -> tuple:
    """Dual coordinates of the generator of ker(Spin(n) -> SO(n)): the
    central element of order 2 that pairs trivially with the P/Q class of
    the vector representation's weights.  A cyclic center (Z/2 for B_m and
    A1, Z/4 for odd D_m and A3) has one element of order 2, d/2.  On
    (Z/2)^2 (even D_m, and A1 x A1 for n = 4) it is the nonzero element
    orthogonal mod 2 to the vector class (c0, c1), namely (c1, c0); that
    class is omega_1's, column 0 of pq_proj, or omega_1 + omega_1' for
    A1 x A1."""
    orders = datum.pq_group.invariant_factors
    if len(orders) == 1:
        return (orders[0] // 2,)
    proj = datum.pq_proj
    c0, c1 = proj.column(0) if n > 4 else map(sum, zip(proj.column(0), proj.column(1)))
    return (c1 % 2, c0 % 2)


def _torus_model(rank: int, name: str) -> ReductiveModel:
    return ReductiveModel(build_datum(()), rank, 1, (), 0, name=name)


_PRESET_KINDS = ("SL", "GL", "PGL", "SO", "Spin", "Sp")


# Bounded like build_datum; a repeated name gets the same model back.
@lru_cache(maxsize=256)
def preset(name: str) -> ReductiveModel:
    """Built-in models: SL(n), GL(n), PGL(n), SO(n), Sp(2n), Spin(n).

    Low-rank orthogonal and symplectic groups are expressed through the
    isomorphic type respecting the rank bounds (Spin(6) as A3, Sp(4) as B2,
    and so on).  Every kernel is read off in closed form: the generator of
    the center for PGL(n), and for SO(n) the central element of order 2 of
    Spin(n) that pairs trivially with the vector representation's weights,
    taken in O(1) from the P/Q class of omega_1 (``_so_kernel_generator``).
    ``tests/oracles.py`` keeps the annihilator of the vector-representation
    weights as the reference.
    """
    text = name.strip()
    if text != name:
        # a padded name shares its stripped name's cache entry; a bad one
        # falls through, so that its error quotes the name as given
        try:
            return preset(text)
        except ValueError:
            pass
    kind, _, rest = text.partition("(")
    # isdecimal() is true exactly on the Unicode digits (category Nd) that
    # int() reads
    if kind not in _PRESET_KINDS or rest[-1:] != ")" or not rest[:-1].isdecimal():
        raise ValueError(f"unknown preset {name!r}")
    num = int(rest[:-1])
    if kind in ("SL", "GL", "PGL"):
        if num < 1:
            raise ValueError(f"bad preset rank in {name!r}")
        if num == 1:
            return _torus_model(1 if kind == "GL" else 0, text)
        datum = build_datum((SimpleType("A", num - 1),))
        if kind == "SL":
            return ReductiveModel(datum, 0, 1, (), 0, name=text)
        if kind == "PGL":
            return ReductiveModel(datum, 0, 1, ((1,),), 0, name=text)
        # the center generator with the torus part 1/n
        return ReductiveModel(datum, 1, num, ((1, 1),), 0, name=text)
    if kind == "Sp":
        if num < 2 or num % 2:
            raise ValueError(f"Sp takes a positive even argument, got {name!r}")
        half = num // 2
        if half == 1:
            datum = build_datum((SimpleType("A", 1),))
        elif half == 2:
            datum = build_datum((SimpleType("B", 2),))
        else:
            datum = build_datum((SimpleType("C", half),))
        return ReductiveModel(datum, 0, 1, (), 0, name=text)
    # orthogonal family
    if num < 2:
        raise ValueError(f"{kind}(n) needs n >= 2, got {name!r}")
    if num == 2:
        return _torus_model(1, text)
    datum = _spin_datum(num)
    if kind == "Spin":
        return ReductiveModel(datum, 0, 1, (), 0, name=text)
    return ReductiveModel(datum, 0, 1, (_so_kernel_generator(num, datum),), 0, name=text)
