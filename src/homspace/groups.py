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

The fundamental group is computed as the preimage lattice

    {(v, z) in Q^r x Z(S_sc) : (v mod Z^r, z) in gluing subgroup}

inside (1/N) Z^r x Z(S_sc), N the exponent of the torus parts, generated by
the standard basis of Z^r together with one lift of each gluing generator
(torus lifts take representatives in [0, 1), so presentations are
deterministic; the abstract group does not depend on the choice).

``pi1`` returns that group and nothing else.  Its torsion is pi1 of the
derived subgroup, which ``derived_subgroup`` computes by a second route, as
the kernel of the gluing subgroup's torus projection.  The two routes are
compared in the tests (``tests/test_groups.py::TestPi1`` and acceptance
criterion 6), not on every query.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Optional, Sequence

from .abgroups import (
    AbHom,
    CyclicSpan,
    FgAbGroup,
    SubgroupPresentation,
    preimage_lattice,
    span_in_cyclics,
    subgroup_from_generators,
)
from .intlinalg import IntMatrix
from .rootdata import (
    CenterElement,
    RootDatumSS,
    SimpleType,
    annihilator_in_center,
    build_datum,
    center,
    center_element_from_coords,
    Weight,
)

GLUING_ORDER_CAP = 10**6


class LimitExceeded(Exception):
    """A well-formed model exceeds an internal limit; the message names the
    limit and its value."""


@dataclass(frozen=True)
class GluingPair:
    """Generator of the gluing subgroup: a central element of S_sc together
    with a torsion point of the central torus."""

    center: CenterElement
    torus: tuple

    def __post_init__(self):
        torus = tuple(Fraction(v) for v in self.torus)
        for v in torus:
            if not 0 <= v < 1:
                raise ValueError(f"torus torsion point {v} must be reduced into [0, 1)")
        object.__setattr__(self, "torus", torus)


@dataclass(frozen=True)
class ReductiveModel:
    ss: RootDatumSS
    torus_rank: int
    gluing: tuple
    unipotent_dim: int = 0
    name: Optional[str] = None

    def __post_init__(self):
        if self.torus_rank < 0:
            raise ValueError("torus rank must be nonnegative")
        if self.unipotent_dim < 0:
            raise ValueError("unipotent dimension must be nonnegative")
        object.__setattr__(self, "gluing", tuple(self.gluing))
        for pair in self.gluing:
            if pair.center.datum != self.ss:
                raise ValueError("gluing element does not lie in the stated center")
            if len(pair.torus) != self.torus_rank:
                raise ValueError(
                    f"gluing torus part has {len(pair.torus)} coordinates, model has torus rank {self.torus_rank}"
                )

    def describe(self) -> str:
        return self.name or f"({self.ss}, r={self.torus_rank}, {len(self.gluing)} gluing generators)"


@dataclass(frozen=True)
class SemisimpleModel:
    """Quotient of a simply connected semisimple group by a central subgroup;
    the fundamental group is that kernel."""

    datum: RootDatumSS
    kernel: SubgroupPresentation

    def __post_init__(self):
        if self.kernel.ambient != center(self.datum).group:
            raise ValueError("kernel must be a subgroup of the center")


@dataclass(frozen=True)
class _GluingData:
    """Gluing subgroup resolved inside Z(S_sc) x (Z/N)^r."""

    model: ReductiveModel
    torus_exponent: int  # N
    ambient_orders: tuple  # center factors then r copies of N
    span: CyclicSpan

    @property
    def group(self) -> FgAbGroup:
        return self.span.group


@lru_cache(maxsize=None)
def _gluing(model: ReductiveModel) -> _GluingData:
    center_factors = model.ss.pq_group.invariant_factors
    n = lcm(1, *(v.denominator for pair in model.gluing for v in pair.torus))
    orders = center_factors + (n,) * model.torus_rank
    gens = []
    for pair in model.gluing:
        coords = list(pair.center.dual_coords()) + [int(v * n) for v in pair.torus]
        gens.append(coords)
    span = span_in_cyclics(orders, gens)
    data = _GluingData(model=model, torus_exponent=n, ambient_orders=orders, span=span)
    order = data.group.order()
    if order is None or order > GLUING_ORDER_CAP:
        raise LimitExceeded(f"gluing subgroup of order {order} exceeds GLUING_ORDER_CAP = {GLUING_ORDER_CAP}")
    return data


def gluing_group(model: ReductiveModel) -> FgAbGroup:
    """Abstract type of the gluing subgroup."""
    return _gluing(model).group


def gluing_order(model: ReductiveModel) -> int:
    return _gluing(model).group.order()


def validate(model: ReductiveModel):
    """Check the model and report human-readable certificates."""
    data = _gluing(model)
    certificates = []
    for i in range(len(model.gluing)):
        certificates.append(f"gluing generator {i} lies in the center of {model.ss}")
    certificates.append(f"gluing subgroup has order {data.group.order()}")
    certificates.append(f"gluing subgroup has exponent {data.group.exponent()}")
    certificates.append(f"unipotent dimension {model.unipotent_dim} is ignored by every invariant")
    return certificates


@lru_cache(maxsize=None)
def _pi1_span(model: ReductiveModel):
    """Fundamental group as a subgroup of Z^r (+) Z(S_sc), coordinates
    (N*v | center); returns the subgroup presentation in that ambient."""
    data = _gluing(model)
    n = data.torus_exponent
    r = model.torus_rank
    center_factors = model.ss.pq_group.invariant_factors
    k = len(center_factors)
    ambient = FgAbGroup(r, center_factors)
    gens = []
    for i in range(r):
        coords = [0] * ambient.ngens
        coords[i] = n
        gens.append(ambient.element(coords))
    for pair in model.gluing:
        torus = [int(v * n) for v in pair.torus]
        coords = torus + list(pair.center.dual_coords())
        gens.append(ambient.element(coords))
    return subgroup_from_generators(ambient, gens)


def _mod_n_hom(domain: FgAbGroup, n: int, rows: Sequence[Sequence[int]]) -> AbHom:
    """The hom from ``domain`` to (Z/n)^len(rows) with the given matrix
    rows; for n == 1 the codomain is trivial."""
    rows = [list(row) for row in rows] if n > 1 else []
    return AbHom(domain, FgAbGroup(0, (n,) * len(rows)), IntMatrix.from_rows(rows, cols=domain.ngens))


def _derived_kernel(model: ReductiveModel) -> SubgroupPresentation:
    """Kernel of the gluing subgroup's torus projection, as a subgroup of
    the center of S_sc."""
    data = _gluing(model)
    k = len(model.ss.pq_group.invariant_factors)
    incl = data.span.inclusion_columns
    torus_rows = [incl.row(k + j) for j in range(model.torus_rank)]
    basis = preimage_lattice(_mod_n_hom(data.group, data.torus_exponent, torus_rows))
    cgroup = center(model.ss).group
    gens = []
    for i in range(basis.rows):
        amb = data.span.reduce_ambient(incl.apply(basis.row(i)))
        gens.append(cgroup.element(amb[:k]))
    return subgroup_from_generators(cgroup, gens)


def pi1(model: ReductiveModel) -> FgAbGroup:
    """Fundamental group of H (the unipotent part never contributes).  Its
    torsion ``ext1_z(pi1(model))`` is pi1 of the derived subgroup."""
    return _pi1_span(model).computed


def derived_subgroup(model: ReductiveModel) -> SemisimpleModel:
    """Semisimple derived group: same root datum, kernel = gluing cap S_sc."""
    return SemisimpleModel(datum=model.ss, kernel=_derived_kernel(model))


def character_group(model: ReductiveModel):
    """Characters of H as a finite-index sublattice of Z^r (Hermite basis,
    one character per row) together with its abstract type."""
    n = _gluing(model).torus_exponent
    r = model.torus_rank
    if r == 0:
        return IntMatrix.identity(0), FgAbGroup(0, ())
    rows = [[int(v * n) for v in pair.torus] for pair in model.gluing]
    return preimage_lattice(_mod_n_hom(FgAbGroup(r, ()), n, rows)), FgAbGroup(r, ())


def as_semisimple(model: ReductiveModel) -> SemisimpleModel:
    """Reinterpret a model with no torus and no unipotent part as a
    semisimple quotient S_sc/kernel."""
    if model.torus_rank != 0 or model.unipotent_dim != 0:
        raise ValueError("model is not semisimple: it has a torus or unipotent part")
    return derived_subgroup(model)


# ---------------------------------------------------------------------------
# presets

def _vector_rep_weights(kind: int, datum: RootDatumSS):
    """Weight basis of the standard orthogonal representation of SO(n),
    written in fundamental-weight coordinates of Spin(n)'s type."""
    m = datum.rank
    fam = datum.factors[0].family if datum.factors else None
    if kind == 3:  # Spin(3) = SL2, vector rep = adjoint
        return [Weight(datum, (2,))]
    if kind == 4:  # Spin(4) = SL2 x SL2
        return [Weight(datum, (1, 1)), Weight(datum, (-1, 1))]
    if kind == 6:  # Spin(6) = SL4, e-basis through the exterior square
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


def _torus_model(rank: int, name: str) -> ReductiveModel:
    return ReductiveModel(ss=build_datum(()), torus_rank=rank, gluing=(), unipotent_dim=0, name=name)


def preset(name: str) -> ReductiveModel:
    """Built-in models: SL(n), GL(n), PGL(n), SO(n), Sp(2n), Spin(n).

    Low-rank orthogonal and symplectic groups are expressed through the
    isomorphic type respecting the rank bounds (Spin(6) as A3, Sp(4) as B2,
    and so on); the SO(n) kernel inside the center of Spin(n) is computed as
    the annihilator of the vector-representation weight lattice, never
    hard-coded.
    """
    text = name.strip()
    import re

    match = re.fullmatch(r"(SL|GL|PGL|SO|Spin|Sp)\((\d+)\)", text)
    if not match:
        raise ValueError(f"unknown preset {name!r}")
    kind, num = match.group(1), int(match.group(2))
    if kind in ("SL", "GL", "PGL"):
        if num < 1:
            raise ValueError(f"bad preset rank in {name!r}")
        if num == 1:
            return _torus_model(1 if kind == "GL" else 0, text)
        datum = build_datum((SimpleType("A", num - 1),))
        cgen = center_element_from_coords(datum, (1,))
        if kind == "SL":
            return ReductiveModel(datum, 0, (), 0, name=text)
        if kind == "PGL":
            return ReductiveModel(datum, 0, (GluingPair(cgen, ()),), 0, name=text)
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
    kernel = annihilator_in_center(datum, _vector_rep_weights(num if num in (3, 4, 6) else 0, datum))
    pairs = []
    for p in range(kernel.computed.ngens):
        elem = kernel.inclusion(kernel.computed.generator(p))
        pairs.append(GluingPair(center_element_from_coords(datum, elem.coords), ()))
    return ReductiveModel(datum, 0, tuple(pairs), 0, name=text)


PRESET_EXAMPLES = ("SL(3)", "GL(2)", "PGL(2)", "SO(7)", "Sp(4)", "Spin(8)")
