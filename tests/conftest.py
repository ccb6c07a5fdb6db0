"""Shared helpers: subgroup/group enumeration, cocycle-class counting oracle,
and randomized model generation."""

import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest

from homspace import groups, spec
from homspace.abgroups import FgAbGroup, TRIVIAL_GROUP, from_presentation, subgroup_from_generators
from homspace.groups import GluingPair, ReductiveModel
from homspace.intlinalg import IntMatrix
from homspace.rootdata import SimpleType, build_datum, center
from oracles import add_elements, elements, identity_element, snf_kernel, solve_integer


def clear_query_caches():
    """Empty the caches that a repeated query hits: the preset and spec
    models.  A model keeps its gluing type, derived subgroup, weight table's
    matrix and report, so the next query builds a fresh model that computes
    them again."""
    for cache in (groups.preset, spec._spec_model):
        cache.cache_clear()


@pytest.fixture(autouse=True)
def cold_query_caches():
    """Every test starts with no query cached, so a test that counts calls
    or times a query measures the work, not a lookup that an earlier test
    left behind.  ``build_datum`` is left to the tests that need it cold."""
    clear_query_caches()


def all_subgroups(group):
    """Every subgroup of a finite canonical group, one presentation each.
    Breadth first: each new subgroup is a known one plus one element, so the
    work grows with the number of subgroups, not of element sets."""
    members = list(elements(group))
    index = {e.coords: i for i, e in enumerate(members)}
    table = [[index[add_elements(a, b).coords] for b in members] for a in members]
    trivial = frozenset([index[identity_element(group).coords]])
    found = {trivial: []}
    frontier = [trivial]
    while frontier:
        grown = []
        for closure in frontier:
            for e in range(len(members)):
                if e in closure:
                    continue
                multiples = [e]
                while table[multiples[-1]][e] not in closure:
                    multiples.append(table[multiples[-1]][e])
                key = closure.union(table[h][m] for h in closure for m in multiples)
                if key not in found:
                    found[key] = found[closure] + [members[e]]
                    grown.append(key)
        frontier = grown
    return [subgroup_from_generators(group, gens) for gens in found.values()]


# products whose P/Q orders differ, so the pairing's L / d_j scaling matters
MIXED_CENTER_PRODUCTS = [
    (SimpleType("A", 3), SimpleType("A", 5), SimpleType("D", 4)),
    (SimpleType("A", 2), SimpleType("A", 2), SimpleType("E", 6)),
    (SimpleType("A", 1), SimpleType("B", 3), SimpleType("D", 5)),
]


_FAMILY_CHOICES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
    ("B", 2), ("B", 3), ("B", 4), ("B", 5), ("B", 6),
    ("C", 3), ("C", 4), ("C", 5), ("C", 6),
    ("D", 4), ("D", 5), ("D", 6),
    ("E", 6), ("G", 2), ("F", 4),
]


def random_model(
    rng: random.Random, max_factors=2, max_torus=3, max_gluing_order=48, unipotent_dim=0, max_gluing=2
):
    """Random reductive model with at most ``max_gluing`` gluing generators
    and a gluing subgroup of bounded order."""
    while True:
        nfac = rng.randint(0, max_factors)
        factors = tuple(SimpleType(*rng.choice(_FAMILY_CHOICES)) for _ in range(nfac))
        datum = build_datum(factors)
        r = rng.randint(0, max_torus)
        cgroup = center(datum)
        pairs = []
        for _ in range(rng.randint(0, max_gluing)):
            coords = [rng.randrange(d) for d in cgroup.invariant_factors]
            torus = tuple(
                Fraction(rng.randrange(den), den) for den in [rng.choice([1, 2, 3, 4, 6]) for _ in range(r)]
            )
            pairs.append(GluingPair(cgroup.element(coords), torus))
        model = ReductiveModel(ss=datum, torus_rank=r, gluing=tuple(pairs), unipotent_dim=unipotent_dim)
        if model.gluing_type.order() <= max_gluing_order:
            return model


def span_exponent(orders, gens):
    """The exponent of the span of ``gens`` in cyclic coordinates of the
    given positive orders: the lcm of the generators' orders."""
    return lcm(1, *(o // gcd(x, o) for g in gens for x, o in zip(g, orders)))


def small_groups(max_order):
    """All finite abelian groups of order <= max_order, canonical form."""
    groups = [TRIVIAL_GROUP]
    for order in range(2, max_order + 1):
        for k in range(1, order.bit_length() + 1):
            for chain in _chains(order, k):
                groups.append(FgAbGroup(0, chain))
    return groups


def random_chain(rng, k, max_ratio=10**4):
    """Invariant factors d_1 | ... | d_k of a random finite group, d_1 and
    each ratio d_(i+1) / d_i drawn below ``max_ratio`` (d_1 >= 2)."""
    chain = [rng.randrange(2, max_ratio)]
    while len(chain) < k:
        chain.append(chain[-1] * rng.randrange(1, max_ratio))
    return FgAbGroup(0, tuple(chain))


def random_character_values(rng, group):
    """One random character of a finite group, as values c_i / d_i."""
    return tuple(Fraction(rng.randrange(d), d) for d in group.invariant_factors)


def _chains(order, k, smallest=2):
    if k == 1:
        if order >= smallest:
            yield (order,)
        return
    d = smallest
    while d ** k <= order:
        if order % d == 0:
            for rest in _chains(order // d, k - 1, d):
                if rest[0] % d == 0:
                    yield (d,) + rest
        d += 1


def count_cocycle_classes(group):
    """Independent oracle: the lattice of normalized symmetric cocycle tables
    modulo coboundaries, computed with integer linear algebra only."""
    elems = list(product(*(range(d) for d in group.invariant_factors)))
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)

    def add(a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, group.invariant_factors))

    # unknowns: c(a, b) for unordered pairs of nonzero elements
    pairs = [(i, j) for i in range(1, n) for j in range(i, n)]
    pos = {p: t for t, p in enumerate(pairs)}

    def var(i, j):
        if i == 0 or j == 0:
            return None
        return pos[(i, j)] if i <= j else pos[(j, i)]

    rows = set()
    for a in range(n):
        for b in range(n):
            for h in range(n):
                row = [0] * len(pairs)
                ab = index[add(elems[a], elems[b])]
                bh = index[add(elems[b], elems[h])]
                for v, sign in ((var(a, b), 1), (var(ab, h), 1), (var(b, h), -1), (var(a, bh), -1)):
                    if v is not None:
                        row[v] += sign
                if any(row):
                    rows.add(tuple(row))
    constraint = IntMatrix.from_rows(sorted(rows), cols=len(pairs))
    cocycle_basis = snf_kernel(constraint)

    # coboundaries delta g for g supported on one nonzero element
    cols = []
    for g in range(1, n):
        vec = [0] * len(pairs)
        for i in range(1, n):
            for j in range(i, n):
                val = (1 if i == g else 0) + (1 if j == g else 0) - (1 if index[add(elems[i], elems[j])] == g else 0)
                vec[pos[(i, j)]] = val
        sol = solve_integer(cocycle_basis, vec)
        assert sol is not None, "coboundaries are cocycles"
        cols.append(list(sol))

    quotient, _ = from_presentation(cocycle_basis.cols, IntMatrix.from_columns(cols, rows=cocycle_basis.cols))
    return quotient


# central quotients with no torus: products of equal simple factors, and one
# model whose name JSON output must escape
QUOTIENT_SPECS = {
    "A1^8/Z2^3": {
        "semisimple": [{"family": "A", "rank": 1}] * 8,
        "torus_rank": 0,
        "gluing": [
            {"center": [1, 1, 1, 1, 1, 1, 1, 1], "torus": []},
            {"center": [1, 1, 0, 0, 1, 1, 0, 0], "torus": []},
            {"center": [0, 1, 0, 1, 0, 1, 0, 1], "torus": []},
        ],
    },
    "A2^5/Z3^2": {
        "semisimple": [{"family": "A", "rank": 2}] * 5,
        "torus_rank": 0,
        "gluing": [
            {"center": [1, 2, 0, 1, 1], "torus": []},
            {"center": [0, 1, 1, 2, 0], "torus": []},
        ],
    },
    # non-ASCII, a quote and a backslash
    "named-D4/Z2": {
        "name": 'D4/Z2 "\u00e9" \\ quotient',
        "semisimple": [{"family": "D", "rank": 4}],
        "torus_rank": 0,
        "gluing": [{"center": [1, 1], "torus": []}],
    },
}
