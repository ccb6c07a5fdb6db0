import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_cocycle_classes, random_chain, random_character_values, small_groups
from homspace.abgroups import FgAbGroup, TRIVIAL_GROUP, Z, cyclic, ext1_z
from homspace.extensions import Character, middle_group
from homspace.intlinalg import IntMatrix
from oracles import (
    AbHom,
    SymmetricCocycle,
    all_characters,
    are_equivalent,
    baer_sum,
    character_to_extension,
    coboundary,
    cocycle_class,
    cocycle_of,
    is_exact_at,
    is_surjective,
    is_trivial_character,
    kernel_of,
    zero_cocycle,
)


class TestCharacter:
    def test_validation(self):
        Character(cyclic(4), (Fraction(1, 2),))
        with pytest.raises(ValueError):
            Character(cyclic(4), (Fraction(1, 3),))
        with pytest.raises(ValueError):
            Character(Z, (Fraction(1, 2),))

    def test_evaluate(self):
        chi = Character(FgAbGroup(0, (2, 4)), (Fraction(1, 2), Fraction(1, 4)))
        assert chi.evaluate((1, 1)) == Fraction(3, 4)
        assert chi.evaluate((0, 2)) == Fraction(1, 2)
        assert chi.order() == 4

    def test_count(self):
        for g in [cyclic(6), FgAbGroup(0, (2, 4)), TRIVIAL_GROUP]:
            assert len(all_characters(g)) == g.order()


class TestCharacterToExtension:
    def test_z2_nontrivial(self):
        ext = character_to_extension(Character(cyclic(2), (Fraction(1, 2),)))
        assert ext.middle == Z

    def test_split(self):
        gamma = FgAbGroup(0, (2, 4))
        ext = character_to_extension(Character(gamma, (Fraction(0), Fraction(0))))
        assert ext.middle == FgAbGroup(1, (2, 4))

    def test_z4_order_two_character(self):
        ext = character_to_extension(Character(cyclic(4), (Fraction(1, 2),)))
        assert ext.middle == FgAbGroup(1, (2,))

    def test_certificates(self):
        # 0 -> Z -> E -> Gamma -> 0 is exact for every character
        for group in small_groups(16):
            for chi in all_characters(group):
                ext = character_to_extension(chi)
                assert ext.inject.codomain == ext.middle == ext.project.domain
                assert kernel_of(ext.inject).computed.is_trivial
                assert is_exact_at(ext.inject, ext.project)
                assert is_surjective(ext.project)


class TestMiddleGroup:
    """``middle_group`` (Z + ker chi, one kernel) against the middle group
    of the realized pullback extension (one Smith quotient of its lift
    presentation, in ``tests/oracles.py``)."""

    def test_examples(self):
        assert middle_group(Character(cyclic(2), (Fraction(1, 2),))) == Z
        assert middle_group(Character(cyclic(4), (Fraction(1, 2),))) == FgAbGroup(1, (2,))
        assert middle_group(Character(FgAbGroup(0, (2, 4)), (Fraction(0), Fraction(0)))) == FgAbGroup(1, (2, 4))
        assert middle_group(Character(TRIVIAL_GROUP, ())) == Z

    def test_every_character_of_small_groups(self):
        for group in small_groups(16):
            for chi in all_characters(group):
                assert middle_group(chi) == character_to_extension(chi).middle

    def test_random_divisibility_chains(self):
        # ratios below 10^4: realizing the extension takes a few ms here,
        # while reading its class back would take about a second at k = 8
        rng = random.Random(20261018)
        for _ in range(400):
            group = random_chain(rng, rng.randint(1, 8))
            chi = Character(group, random_character_values(rng, group))
            middle = middle_group(chi)
            assert middle == character_to_extension(chi).middle
            assert middle.free_rank == 1
            # |ker chi| * ord(chi) = |Gamma|
            assert FgAbGroup(0, middle.invariant_factors).order() * chi.order() == group.order()


    @given(st.data())
    @settings(derandomize=True, deadline=None, max_examples=300)
    def test_random_groups_against_the_kernel_and_the_realized_extension(self, data):
        k = data.draw(st.integers(0, 6))
        chain = [data.draw(st.integers(2, 200))] if k else []
        for _ in range(k - 1):
            chain.append(chain[-1] * data.draw(st.sampled_from((1, 2, 3, 4, 6, 12, 35, 360))))
        group = FgAbGroup(0, tuple(chain))
        chi = Character(group, tuple(Fraction(data.draw(st.integers(0, d - 1)), d) for d in chain))
        n = chi.order()
        row = [v.numerator * (n // v.denominator) for v in chi.values]
        hom = AbHom(group, cyclic(n), IntMatrix.from_rows([row] if n > 1 else [], cols=group.ngens))
        middle = middle_group(chi)
        assert middle == FgAbGroup(1, kernel_of(hom).computed.invariant_factors)
        assert middle == character_to_extension(chi).middle


class TestCocycleClass:
    def test_spec_example(self):
        c = SymmetricCocycle(cyclic(2), ((0, 0), (0, 1)))
        chi = cocycle_class(c)
        assert chi.values == (Fraction(1, 2),)

    def test_zero(self):
        assert is_trivial_character(cocycle_class(zero_cocycle(cyclic(4))))

    def test_coboundaries_are_trivial(self):
        # exhaustive over a value box for |Gamma| <= 4, random beyond
        from itertools import product as iproduct

        for group in small_groups(4):
            n = group.order()
            for g in iproduct((-1, 0, 1), repeat=n - 1):
                assert is_trivial_character(cocycle_class(coboundary(group, g)))
        rng = random.Random(13)
        for group in small_groups(8):
            n = group.order()
            for _ in range(4):
                g = [rng.randint(-3, 3) for _ in range(n - 1)]
                assert is_trivial_character(cocycle_class(coboundary(group, g)))

    def test_round_trip_small(self):
        for group in small_groups(16):
            for chi in all_characters(group):
                back = cocycle_class(cocycle_of(character_to_extension(chi)))
                assert back == chi


class TestBaerSum:
    def test_inverse(self):
        group = FgAbGroup(0, (2, 2))
        chi = Character(group, (Fraction(1, 2), Fraction(0)))
        c = cocycle_of(character_to_extension(chi))
        neg = SymmetricCocycle(group, tuple(tuple(-x for x in row) for row in c.table))
        assert is_trivial_character(cocycle_class(baer_sum(c, neg)))

    def test_two_torsion(self):
        c = SymmetricCocycle(cyclic(2), ((0, 0), (0, 1)))
        assert is_trivial_character(cocycle_class(baer_sum(c, c)))

    def test_identity(self):
        c = SymmetricCocycle(cyclic(2), ((0, 0), (0, 1)))
        assert cocycle_class(baer_sum(c, zero_cocycle(cyclic(2)))) == cocycle_class(c)

    def test_group_mismatch(self):
        with pytest.raises(ValueError):
            baer_sum(zero_cocycle(cyclic(2)), zero_cocycle(cyclic(3)))

    def test_additivity_random(self):
        rng = random.Random(7)
        groups = [g for g in small_groups(9) if not g.is_trivial]
        for _ in range(60):
            group = rng.choice(groups)
            chars = all_characters(group)
            c1 = cocycle_of(character_to_extension(rng.choice(chars)))
            n = group.order()
            c2 = baer_sum(
                cocycle_of(character_to_extension(rng.choice(chars))),
                coboundary(group, [rng.randint(-2, 2) for _ in range(n - 1)]),
            )
            assert cocycle_class(baer_sum(c1, c2)) == cocycle_class(c1) + cocycle_class(c2)


class TestEquivalence:
    def test_coboundary_shift(self):
        group = cyclic(4)
        chi = Character(group, (Fraction(1, 4),))
        c = cocycle_of(character_to_extension(chi))
        shifted = baer_sum(c, coboundary(group, [1, -2, 3]))
        assert are_equivalent(c, shifted)

    def test_distinct_classes(self):
        c = SymmetricCocycle(cyclic(2), ((0, 0), (0, 1)))
        assert not are_equivalent(c, zero_cocycle(cyclic(2)))

    def test_reflexive(self):
        c = SymmetricCocycle(cyclic(2), ((0, 0), (0, 1)))
        assert are_equivalent(c, c)


class TestExtGroup:
    def test_matches_ext1(self):
        # Ext^1 through the character dictionary equals the torsion route:
        # one character per element of the dual, which is the group itself
        for group in [cyclic(6), TRIVIAL_GROUP, FgAbGroup(0, (2, 4))]:
            assert ext1_z(group) == group
            assert len(set(all_characters(group))) == ext1_z(group).order()


class TestClassEnumeration:
    def test_class_count_matches_group_order(self):
        for group in small_groups(8):
            if group.order() == 1:
                continue
            quotient = count_cocycle_classes(group)
            assert quotient.order() == group.order()
            assert quotient == group

    def test_characters_hit_distinct_classes(self):
        for group in small_groups(8):
            chars = all_characters(group)
            cocycles = [cocycle_of(character_to_extension(chi)) for chi in chars]
            for i, c1 in enumerate(cocycles):
                for c2 in cocycles[i + 1 :]:
                    assert not are_equivalent(c1, c2)


class TestCocycleValidation:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            SymmetricCocycle(cyclic(2), ((0, 0), (1, 0)))

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            SymmetricCocycle(cyclic(2), ((1, 0), (0, 0)))

    def test_identity_enforced(self):
        with pytest.raises(ValueError):
            SymmetricCocycle(cyclic(3), ((0, 0, 0), (0, 1, 0), (0, 0, 0)))
