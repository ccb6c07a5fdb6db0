import random
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from conftest import MIXED_CENTER_PRODUCTS, all_subgroups
from homspace.abgroups import FgAbGroup, TRIVIAL_GROUP, cyclic, from_presentation, subgroup_from_generators
from homspace.intlinalg import IntMatrix
from homspace.rootdata import (
    SimpleType,
    build_datum,
    cartan_matrix,
    center,
    restriction_matrix,
)
from oracles import (
    AbHom,
    Weight,
    annihilator_in_center,
    character_from_dual_element,
    character_lattice_of_quotient,
    det,
    elements,
    full_center_subgroup,
    fundamental_weight,
    generator,
    inclusion_hom,
    lattice_row_basis,
    restrict_weight,
)


def simple_root(datum, index):
    """The simple root in fundamental-weight coordinates: a row of the
    Cartan matrix of the datum's one simple type."""
    (t,) = datum.factors
    return Weight(datum, cartan_matrix(t).row(index))


def pair(z, x):
    """The pairing of a center element z with a class x in P/Q, through
    the character z stands for (docs/conventions.md)."""
    return character_from_dual_element(z)(x)

# Bourbaki tables: Cartan determinant and fundamental group of the adjoint
# form for every simple family.
ALL_TYPES = (
    [SimpleType("A", n) for n in range(1, 9)]
    + [SimpleType("B", n) for n in range(2, 9)]
    + [SimpleType("C", n) for n in range(3, 9)]
    + [SimpleType("D", n) for n in range(4, 9)]
    + [SimpleType("E", n) for n in (6, 7, 8)]
    + [SimpleType("F", 4), SimpleType("G", 2)]
)


def expected_pq(t: SimpleType) -> FgAbGroup:
    if t.family == "A":
        return cyclic(t.rank + 1)
    if t.family in ("B", "C"):
        return cyclic(2)
    if t.family == "D":
        return FgAbGroup(0, (2, 2)) if t.rank % 2 == 0 else cyclic(4)
    if t.family == "E":
        return {6: cyclic(3), 7: cyclic(2), 8: TRIVIAL_GROUP}[t.rank]
    return TRIVIAL_GROUP


class TestSimpleType:
    def test_rank_bounds(self):
        for bad in [("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 1), ("H", 2)]:
            with pytest.raises(ValueError):
                SimpleType(*bad)


class TestCartanMatrices:
    def test_a1(self):
        assert cartan_matrix(SimpleType("A", 1)) == IntMatrix.from_rows([[2]])

    def test_a2(self):
        m = cartan_matrix(SimpleType("A", 2))
        assert m == IntMatrix.from_rows([[2, -1], [-1, 2]])
        assert det(m) == 3

    def test_d4(self):
        m = cartan_matrix(SimpleType("D", 4))
        assert det(m) == 4
        neighbors = {j for j in range(4) if j != 1 and m[1, j] == -1}
        assert neighbors == {0, 2, 3}

    def test_determinants(self):
        expected = {"A": lambda n: n + 1, "B": lambda n: 2, "C": lambda n: 2, "D": lambda n: 4}
        for t in ALL_TYPES:
            d = det(cartan_matrix(t))
            if t.family in expected:
                assert d == expected[t.family](t.rank)
            elif t.family == "E":
                assert d == {6: 3, 7: 2, 8: 1}[t.rank]
            else:
                assert d == 1

    def test_b_versus_c_direction(self):
        # B: the short root is the last node, so row n-1 pairs to -2 against it
        b = cartan_matrix(SimpleType("B", 3))
        assert (b[1, 2], b[2, 1]) == (-2, -1)
        c = cartan_matrix(SimpleType("C", 3))
        assert (c[1, 2], c[2, 1]) == (-1, -2)


class TestBuildDatum:
    def test_pq_examples(self):
        assert build_datum((SimpleType("A", 1),)).pq_group == cyclic(2)
        assert build_datum((SimpleType("A", 2),)).pq_group == cyclic(3)
        assert build_datum((SimpleType("D", 4),)).pq_group == FgAbGroup(0, (2, 2))

    def test_pq_order_matches_determinant(self):
        for t in ALL_TYPES:
            datum = build_datum((t,))
            assert datum.pq_group.order() == abs(det(cartan_matrix(t)))

    def test_simple_roots_die_in_pq(self):
        for t in ALL_TYPES:
            datum = build_datum((t,))
            for i in range(datum.rank):
                assert simple_root(datum, i).pq_class().is_identity

    def test_pq_proj_is_a_reduced_hom(self):
        # rows of the Smith transform U, so a hom P -> P/Q by construction:
        # the oracle class accepts it and leaves every entry as it is
        types = [SimpleType(f, n) for f, low in (("A", 1), ("B", 2), ("C", 3), ("D", 4)) for n in range(low, 17)]
        types += [SimpleType("E", n) for n in (6, 7, 8)] + [SimpleType("F", 4), SimpleType("G", 2)]
        for factors in [(t,) for t in types] + MIXED_CENTER_PRODUCTS:
            datum = build_datum(factors)
            assert AbHom(FgAbGroup(datum.rank, ()), datum.pq_group, datum.pq_proj).matrix == datum.pq_proj, factors

    def test_products(self):
        datum = build_datum((SimpleType("A", 1), SimpleType("A", 2)))
        assert datum.rank == 3
        assert datum.pq_group == cyclic(6)
        assert datum.node_labels() == ("A1:1", "A2:1", "A2:2")

    def test_data_built_apart_are_equal(self):
        # a datum is a value: data built apart from the same factors are
        # equal and hash alike, and other factors give another datum
        factors = (SimpleType("A", 3), SimpleType("D", 5), SimpleType("E", 7))
        build_datum.cache_clear()
        first = build_datum(factors)
        build_datum.cache_clear()
        second = build_datum(factors)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert first != build_datum(factors[:2])

    def test_datum_keeps_no_dense_matrix(self):
        # a datum keeps P/Q and its projection, not the rank x rank Cartan
        # matrix (about 128 KB of entries at rank 127)
        build_datum.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            datum = build_datum((SimpleType("A", 127),))
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert datum.pq_group == cyclic(128)
        assert retained < 16 * 1024, retained

    def test_empty(self):
        datum = build_datum(())
        assert datum.rank == 0
        assert datum.pq_group == TRIVIAL_GROUP


class TestCenter:
    def test_duals(self):
        assert center(build_datum((SimpleType("A", 1),))) == cyclic(2)
        for n in range(2, 7):
            assert center(build_datum((SimpleType("A", n - 1),))) == cyclic(n)
        assert center(build_datum(())) == TRIVIAL_GROUP

    def test_pairing_perfect(self):
        for t in ALL_TYPES:
            datum = build_datum((t,))
            for x in elements(datum.pq_group):
                if x.is_identity:
                    continue
                assert any(pair(z, x) != 0 for z in elements(center(datum)))

    def test_center_element_validation(self):
        # one coordinate per canonical generator of the center
        for types, coords in (((SimpleType("A", 1), SimpleType("A", 2)), (1, 0)), ((SimpleType("A", 1),), ())):
            with pytest.raises(ValueError, match="coordinates"):
                center(build_datum(types)).element(coords)

    def test_element_reduces_coordinates(self):
        # every element of each mixed center, from reduced, negative and
        # oversized coordinates alike: coordinate i is read mod d_i
        for types in MIXED_CENTER_PRODUCTS:
            cgroup = center(build_datum(types))
            factors = cgroup.invariant_factors
            for coords in product(*(range(d) for d in factors)):
                for shift in (0, -1, 1, 7):
                    assert cgroup.element([c + shift * d for c, d in zip(coords, factors)]).coords == coords


class TestRestrictWeight:
    def test_a1_fundamental(self):
        datum = build_datum((SimpleType("A", 1),))
        k = full_center_subgroup(datum)
        chi = restrict_weight(fundamental_weight(datum, 0), k)
        assert not chi.is_identity
        # value 1/2 on the generator
        assert chi.coords == (1,)

    def test_simple_roots_restrict_trivially(self):
        for t in [SimpleType("A", 3), SimpleType("B", 3), SimpleType("D", 4)]:
            datum = build_datum((t,))
            k = full_center_subgroup(datum)
            for i in range(datum.rank):
                assert restrict_weight(simple_root(datum, i), k).is_identity

    def test_spin_node_nontrivial(self):
        # Spin(2m+1): the end-node fundamental weight is nontrivial on the
        # kernel of Spin -> SO, the vector weight is trivial
        for m in range(2, 6):
            datum = build_datum((SimpleType("B", m),))
            k = full_center_subgroup(datum)
            assert not restrict_weight(fundamental_weight(datum, m - 1), k).is_identity
            assert restrict_weight(fundamental_weight(datum, 0), k).is_identity

    def test_additivity(self):
        rng = random.Random(31)
        for t in [SimpleType("A", 4), SimpleType("D", 5), SimpleType("E", 6)]:
            datum = build_datum((t,))
            for sub in all_subgroups(center(datum)):
                gens = [inclusion_hom(sub)(generator(sub.computed, p)) for p in range(sub.computed.ngens)]
                k = subgroup_from_generators(center(datum), gens)
                for _ in range(10):
                    l1 = Weight(datum, tuple(rng.randint(-4, 4) for _ in range(datum.rank)))
                    l2 = Weight(datum, tuple(rng.randint(-4, 4) for _ in range(datum.rank)))
                    assert restrict_weight(l1 + l2, k) == restrict_weight(l1, k) + restrict_weight(l2, k)

    def test_pairing_killed_by_generator_order(self):
        # the pairing of a weight with a subgroup generator of order m, read
        # through the center's evaluation pairing, is the restriction's
        # coordinate over m, so m kills it
        for t in ALL_TYPES:
            datum = build_datum((t,))
            for sub in all_subgroups(center(datum)):
                for i in range(datum.rank):
                    w = fundamental_weight(datum, i)
                    coords = restrict_weight(w, sub).coords
                    for p, m in enumerate(sub.computed.invariant_factors):
                        value = pair(inclusion_hom(sub)(generator(sub.computed, p)), w.pq_class())
                        assert Fraction(coords[p], m) == value

    def test_restriction_matrix_matches_center_pairing_on_products(self):
        # exhaustive over the subgroups of centers whose P/Q orders differ:
        # entry (p, i) over m_p is the center's Fraction pairing of
        # generator p with the class of the i-th fundamental weight, and
        # restrict_weight of any weight is read through the same pairing
        rng = random.Random(9)
        for factors in MIXED_CENTER_PRODUCTS:
            datum = build_datum(factors)
            for sub in all_subgroups(center(datum)):
                matrix = restriction_matrix(datum, sub)
                orders = sub.computed.invariant_factors
                assert (matrix.rows, matrix.cols) == (len(orders), datum.rank)
                gens = [inclusion_hom(sub)(generator(sub.computed, p)) for p in range(len(orders))]
                for i in range(datum.rank):
                    cls = fundamental_weight(datum, i).pq_class()
                    for p, m in enumerate(orders):
                        assert Fraction(matrix[p, i], m) == pair(gens[p], cls)
                w = Weight(datum, tuple(rng.randint(-6, 6) for _ in range(datum.rank)))
                coords = restrict_weight(w, sub).coords
                assert [Fraction(c, m) for c, m in zip(coords, orders)] == [pair(g, w.pq_class()) for g in gens]

    def test_rejects_foreign_subgroup(self):
        datum = build_datum((SimpleType("A", 1),))
        other = subgroup_from_generators(cyclic(4), [cyclic(4).element([1])])
        with pytest.raises(ValueError):
            restrict_weight(fundamental_weight(datum, 0), other)


class TestCharacterLattice:
    def test_a1_full_center(self):
        datum = build_datum((SimpleType("A", 1),))
        basis = character_lattice_of_quotient(datum, full_center_subgroup(datum))
        assert basis == IntMatrix.from_rows([[2]])

    def test_trivial_subgroup(self):
        datum = build_datum((SimpleType("A", 2),))
        basis = character_lattice_of_quotient(datum, subgroup_from_generators(center(datum), []))
        assert basis == IntMatrix.identity(2)

    def test_a2_full_center_is_root_lattice(self):
        datum = build_datum((SimpleType("A", 2),))
        basis = character_lattice_of_quotient(datum, full_center_subgroup(datum))
        assert abs(det(basis)) == 3
        # equals the root lattice
        roots = [list(simple_root(datum, i).coords) for i in range(2)]
        assert basis == lattice_row_basis(roots, 2)

    def test_index_and_quotient(self):
        for t in ALL_TYPES:
            datum = build_datum((t,))
            for sub in all_subgroups(center(datum)):
                basis = character_lattice_of_quotient(datum, sub)
                assert abs(det(basis)) == sub.order()
                quotient, _ = from_presentation(datum.rank, basis.transpose())
                assert quotient == sub.computed
                for i in range(basis.rows):
                    assert restrict_weight(Weight(datum, basis.row(i)), sub).is_identity

    def test_trivial_subgroup_kills_nothing(self):
        for t in [SimpleType("A", 4), SimpleType("D", 5)]:
            datum = build_datum((t,))
            trivial = subgroup_from_generators(center(datum), [])
            for i in range(datum.rank):
                assert restrict_weight(fundamental_weight(datum, i), trivial).is_identity


class TestAnnihilator:
    def test_b_vector_lattice_gives_full_center(self):
        # for odd orthogonal groups the vector weights lie in the root
        # lattice, so SO(2m+1) = Spin/(full center)
        for m in range(2, 5):
            datum = build_datum((SimpleType("B", m),))
            evecs = [fundamental_weight(datum, 0)]
            ann = annihilator_in_center(datum, evecs)
            assert ann.order() == 2

    def test_d4_vector_class(self):
        datum = build_datum((SimpleType("D", 4),))
        # e_1 = fundamental weight 1; its annihilator has index 2 in (Z/2)^2
        ann = annihilator_in_center(datum, [fundamental_weight(datum, 0)])
        assert ann.order() == 2

    def test_no_constraints(self):
        datum = build_datum((SimpleType("A", 3),))
        ann = annihilator_in_center(datum, [simple_root(datum, 0)])
        assert ann.order() == 4
