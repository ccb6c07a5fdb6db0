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
``ReductiveModel.derived`` computes that kernel from the model's own
generators, never from Gamma: with N the lcm of the torus parts'
denominators, one solution lattice of the torus numerators modulo N gives
the combinations of the gluing generators whose torus parts sum to an
integral vector, and their center parts span the kernel.  It is the derived
subgroup S_sc/kernel as a ``SemisimpleModel``: ``pi1`` reads the kernel's
type, and ``as_semisimple`` returns that object.  Gamma itself
(``ReductiveModel.gluing_type``) is a bare type that only ``describe``
reads.  A model computes each once and keeps it, as a semisimple model
keeps its restriction matrix and ``invariants`` keeps a model's report on
the model, so no module-level cache holds a model.

Torus parts are ``Fraction``s in [0, 1) (``GluingPair.torus``), but the
queries read them only as integers: N and one row of numerators per
generator (``ReductiveModel.torus_numerators``), which both mod-N problems,
the derived kernel and ``character_group``, hand to the solver as plain
integer rows.  Center parts are elements of ``center(ss)``, integer
coordinates over its canonical generators, so no query does ``Fraction``
arithmetic, and since no cache is keyed by a model, no query hashes one.
``fractions`` is imported only where a Fraction is made, a non-empty torus
part and the ``GL(n)`` preset, so no other preset loads it.

The tests keep two more routes to pi1 in ``tests/oracles.py``: the span of
the standard basis of Z^r and the lifts of the model's own gluing generators
inside Z^r x Z(S_sc), and the extension presented by Z^r and one lift of each
canonical generator of Gamma (``pi1_extension``), Gamma spanned there with
its inclusion by a reference route of its own.  They are compared with
``pi1`` in ``tests/test_groups.py::TestPi1`` and acceptance criteria 2 and
6, not on every query.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import lcm
from operator import index

from .abgroups import (
    AbElement,
    FgAbGroup,
    SubgroupPresentation,
    _mod_n_lattice,
    _Record,
    span_group,
    subgroup_from_generators,
)
from .intlinalg import IntMatrix
from .rootdata import RootDatumSS, SimpleType, build_datum, center, restriction_matrix

class GluingPair(_Record):
    """Generator of the gluing subgroup: a central element of S_sc together
    with a torsion point of the central torus."""

    __slots__ = ("center", "torus")

    def __init__(self, center: AbElement, torus: tuple):
        values = tuple(torus)
        if values:  # a pair with no torus part makes no Fraction
            from fractions import Fraction

            if any(isinstance(v, float) for v in values):
                raise TypeError(f"torus part {torus!r} holds a float, which is not exact")
            values = tuple(v if type(v) is Fraction else Fraction(v) for v in values)
            for v in values:
                if not 0 <= v.numerator < v.denominator:
                    raise ValueError(f"torus torsion point {v} must be reduced into [0, 1)")
        self._set(center, values)

    @classmethod
    def _from_checked(cls, center: AbElement, torus: tuple) -> GluingPair:
        """The pair of a torus part that is already a tuple of Fractions in
        [0, 1), such as the spec reader's, built without checking it again."""
        pair = object.__new__(cls)
        pair._set(center, torus)
        return pair


class ReductiveModel(_Record):
    def __init__(
        self, ss: RootDatumSS, torus_rank: int, gluing: tuple, unipotent_dim: int = 0, name: str | None = None
    ):
        rank, unipotent = index(torus_rank), index(unipotent_dim)
        if name is not None and not isinstance(name, str):
            raise TypeError(f"model name must be a str or None, not {type(name).__name__}")
        if rank < 0:
            raise ValueError("torus rank must be nonnegative")
        if unipotent < 0:
            raise ValueError("unipotent dimension must be nonnegative")
        gluing = tuple(gluing)
        for pair in gluing:
            if pair.center.group != center(ss):
                raise ValueError("gluing element does not lie in the stated center")
            if len(pair.torus) != rank:
                raise ValueError(f"gluing torus part has {len(pair.torus)} coordinates, model has torus rank {rank}")
        self._set(ss, rank, gluing, unipotent, name)

    @cached_property
    def torus_numerators(self) -> tuple:
        """(N, rows): N the lcm of the torus parts' denominators and, per
        gluing generator, its torus part times N as integers."""
        n = lcm(1, *(v.denominator for pair in self.gluing for v in pair.torus))
        return n, tuple(tuple(v.numerator * (n // v.denominator) for v in pair.torus) for pair in self.gluing)

    @cached_property
    def gluing_type(self) -> FgAbGroup:
        """Abstract type of the gluing subgroup, spanned inside
        Z(S_sc) x (Z/N)^r by the model's gluing generators."""
        n, torus_rows = self.torus_numerators
        orders = self.ss.pq_group.invariant_factors + (n,) * self.torus_rank
        return span_group(orders, [pair.center.coords + row for pair, row in zip(self.gluing, torus_rows)])

    @cached_property
    def derived(self) -> SemisimpleModel:
        """The derived subgroup S_sc/kernel.  Its kernel, that of the gluing
        subgroup's torus projection, is the subgroup of the center of S_sc
        spanned by the center parts of the combinations of the gluing
        generators whose torus parts sum to an integral vector.  With N = 1
        every combination qualifies, and the solution lattice is the
        identity."""
        n, torus_rows = self.torus_numerators
        combos = _mod_n_lattice(len(self.gluing), n, list(zip(*torus_rows)))
        cgroup = center(self.ss)
        centers = IntMatrix.from_columns([pair.center.coords for pair in self.gluing], rows=cgroup.ngens)
        kernel = subgroup_from_generators(cgroup, [cgroup.element(centers.apply(c)) for c in combos.to_rows()])
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
    return FgAbGroup(model.torus_rank, model.derived.kernel.computed.invariant_factors)


def character_group(model: ReductiveModel):
    """Characters of H as a finite-index sublattice of Z^r (Hermite basis,
    one character per row) together with its abstract type."""
    r = model.torus_rank
    if r == 0:
        return IntMatrix.identity(0), FgAbGroup(0, ())
    n, rows = model.torus_numerators
    return _mod_n_lattice(r, n, rows), FgAbGroup(r, ())


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
    return ReductiveModel(ss=build_datum(()), torus_rank=rank, gluing=(), unipotent_dim=0, name=name)


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
        cgen = center(datum).element((1,))
        if kind == "SL":
            return ReductiveModel(datum, 0, (), 0, name=text)
        if kind == "PGL":
            return ReductiveModel(datum, 0, (GluingPair(cgen, ()),), 0, name=text)
        from fractions import Fraction

        return ReductiveModel(datum, 1, (GluingPair(cgen, (Fraction(1, num),)),), 0, name=text)
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
        return ReductiveModel(datum, 0, (), 0, name=text)
    # orthogonal family
    if num < 2:
        raise ValueError(f"{kind}(n) needs n >= 2, got {name!r}")
    if num == 2:
        return _torus_model(1, text)
    datum = _spin_datum(num)
    if kind == "Spin":
        return ReductiveModel(datum, 0, (), 0, name=text)
    cgen = center(datum).element(_so_kernel_generator(num, datum))
    return ReductiveModel(datum, 0, (GluingPair(cgen, ()),), 0, name=text)
