"""Root data for products of simple types: Cartan matrices, P/Q with
explicit Smith coordinates, and centers as duals.

Numbering is Bourbaki throughout (see docs/conventions.md for the node-by-
node tables).  The Cartan matrix convention is

    cartan[i][j] = <alpha_i, alpha_j^vee> = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j),

so the i-th simple root written in fundamental-weight coordinates is the
i-th *row* of the Cartan matrix, and the root-lattice inclusion Q -> P has
the transposed Cartan matrix (columns = simple roots).  A root datum keeps
P/Q and the projection ``pq_proj`` of P onto it, an integer matrix, not the
Cartan matrix: ``build_datum`` builds the block-diagonal transpose only to
present P/Q.

The center of the simply connected group is only ever exposed as the dual
of P/Q.  ``center`` returns the group P/Q itself, read through the pairing
fixed in docs/conventions.md: dual generator i pairs with the i-th Smith
generator of P/Q to 1/d_i, and with the others to 0.  A center element
is an element of that group, ``center(datum).element(coords)``, its
coordinates reduced mod d_i; ``restriction_matrix`` pairs by the same
rule, and no other identification of the center with a concrete cyclic
group is used.

Restriction of weights to a central subgroup is linear, so it is one
integer matrix (:func:`restriction_matrix`, one row per canonical generator
of the subgroup, one column per fundamental weight), built once per
subgroup by the integer pairing formula of docs/conventions.md; the weight
Brauer table is that matrix.  Weights as values, and the restriction of a
single weight, are test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from .abgroups import FgAbGroup, SubgroupPresentation, from_presentation
from .intlinalg import IntMatrix, _combination, _Record

_MIN_RANK = {"A": 1, "B": 2, "C": 3, "D": 4, "F": 4, "G": 2}


class SimpleType(_Record):
    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int):
        if type(rank) is not int:
            raise TypeError(f"rank must be an int, got {rank!r}")
        if family == "E":
            if rank not in (6, 7, 8):
                raise ValueError(f"E{rank} is not a simple type")
        elif family in ("F", "G"):
            if rank != _MIN_RANK[family]:
                raise ValueError(f"{family}{rank} is not a simple type")
        elif family in _MIN_RANK:
            if rank < _MIN_RANK[family]:
                raise ValueError(
                    f"{family}{rank} is excluded; rank bounds (A>=1, B>=2, C>=3, D>=4) keep type names unambiguous"
                )
        else:
            raise ValueError(f"unknown family {family!r}")
        self._set(family, rank)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def cartan_matrix(t: SimpleType) -> IntMatrix:
    """Bourbaki Cartan matrix of a simple type."""
    n = t.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i, j, vij=-1, vji=-1):
        a[i][j] = vij
        a[j][i] = vji

    if t.family == "A":
        for i in range(n - 1):
            edge(i, i + 1)
    elif t.family == "B":
        for i in range(n - 2):
            edge(i, i + 1)
        # last root short: <alpha_{n-1}, alpha_n^vee> = -2
        edge(n - 2, n - 1, -2, -1)
    elif t.family == "C":
        for i in range(n - 2):
            edge(i, i + 1)
        # last root long
        edge(n - 2, n - 1, -1, -2)
    elif t.family == "D":
        for i in range(n - 3):
            edge(i, i + 1)
        edge(n - 3, n - 2)
        edge(n - 3, n - 1)
    elif t.family == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][:n - 1]
        for i, j in zip(chain, chain[1:]):
            edge(i, j)
        edge(1, 3)
    elif t.family == "F":
        edge(0, 1)
        edge(1, 2, -2, -1)
        edge(2, 3)
    elif t.family == "G":
        edge(0, 1, -1, -3)
    return IntMatrix.from_rows(a)


class RootDatumSS(_Record):
    """Product of simple root systems with its P/Q data.

    ``pq_proj`` is the matrix that sends a weight (fundamental-weight
    coordinates, factors concatenated) to its class in P/Q over the
    Smith-normal-form generators: one row per generator of order d_j,
    entries in [0, d_j).
    """

    __slots__ = ("factors", "rank", "pq_group", "pq_proj")

    def __init__(self, factors: tuple, rank: int, pq_group: FgAbGroup, pq_proj: IntMatrix):
        self._set(factors, rank, pq_group, pq_proj)

    def node_labels(self) -> tuple:
        labels = []
        for t in self.factors:
            name = str(t)
            labels.extend(f"{name}:{i}" for i in range(1, t.rank + 1))
        return tuple(labels)

    def __str__(self) -> str:
        return " x ".join(str(t) for t in self.factors) if self.factors else "(trivial)"


@lru_cache(maxsize=256)
def build_datum(factors: tuple) -> RootDatumSS:
    """Assemble the root datum of a (possibly empty) product of simple
    types.  P/Q is presented by the block-diagonal transposed Cartan
    matrix, which the datum does not keep."""
    factors = tuple(factors)
    rank = sum(t.rank for t in factors)
    cartan = [[0] * rank for _ in range(rank)]
    offset = 0
    for t in factors:
        block = cartan_matrix(t)
        for i in range(t.rank):
            cartan[offset + i][offset : offset + t.rank] = block.row(i)
        offset += t.rank
    pq_group, pq_proj = from_presentation(rank, IntMatrix.from_columns(cartan, rows=rank))
    return RootDatumSS(factors=factors, rank=rank, pq_group=pq_group, pq_proj=pq_proj)


def center(datum: RootDatumSS) -> FgAbGroup:
    """Center of the simply connected group, as Hom(P/Q, Q/Z): the group
    P/Q itself, its generator i pairing with the i-th Smith generator of P/Q
    to 1/d_i (docs/conventions.md)."""
    return datum.pq_group


def _check_center_subgroup(datum: RootDatumSS, sub: SubgroupPresentation):
    if sub.ambient != center(datum):
        raise ValueError("subgroup does not live in the center of this datum")


def restriction_matrix(datum: RootDatumSS, sub: SubgroupPresentation) -> IntMatrix:
    """The restriction P -> Hom(sub, Q/Z) as one integer matrix: one row per
    canonical generator p of ``sub.computed`` (order m_p), one column per
    fundamental weight.  Entry (p, i) is m_p times the pairing of the i-th
    fundamental weight with generator p, an integer in [0, m_p).

    With L the lcm of the P/Q orders d_j, generator p pairs with weight i to
    S/L mod 1, where S = sum_j incl[j, p] * (L / d_j) * pq_proj[j, i]; the
    entry is (S mod L) * m_p / L."""
    _check_center_subgroup(datum, sub)
    d_orders = datum.pq_group.invariant_factors
    big = lcm(*d_orders)
    proj_rows = [datum.pq_proj.row(j) for j in range(len(d_orders))]
    incl = sub.inclusion
    rows = []
    for p, m in enumerate(sub.computed.invariant_factors):
        # S for every weight at once, one pq_proj row per nonzero incl[j, p]
        sums = _combination(proj_rows, [incl[j, p] * (big // d) for j, d in enumerate(d_orders)], datum.rank)
        rows.append([(s % big) * m // big for s in sums])
    return IntMatrix.from_rows(rows, cols=datum.rank)
