import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import random_chain
from homspace.abgroups import (
    FgAbGroup,
    TRIVIAL_GROUP,
    Z,
    _mod_n_lattice,
    cyclic,
    direct_sum_canonical,
    ext1_z,
    from_presentation,
    hom_group,
    subgroup_from_generators,
)
from homspace.extensions import Character
from homspace.intlinalg import IntMatrix, smith_normal_form
from oracles import (
    AbHom,
    all_characters,
    character_from_dual_element,
    cokernel_of,
    compose,
    det,
    elements,
    generator,
    identity_hom,
    image_lattice,
    inclusion_hom,
    is_exact_at,
    is_surjective,
    is_trivial_character,
    kernel_of,
    lattice_row_basis,
    multiplication_hom,
    preimage_lattice,
    preimage_of,
    span_subgroup,
    zero_hom,
    zero_matrix,
)


def random_group(rng, max_rank=2, max_factors=2, max_d=12):
    r = rng.randint(0, max_rank)
    k = rng.randint(0, max_factors)
    factors = []
    d = 1
    for _ in range(k):
        d *= rng.randint(2 if d == 1 else 1, 4)
        if d == 1:
            continue
        if d > max_d:
            break
        factors.append(d)
    return FgAbGroup(r, tuple(factors))


def random_torsion(rng):
    """A nonempty chain of invariant factors."""
    return random_group(rng, max_rank=0).invariant_factors or (rng.randint(2, 6),)


def random_hom(rng, domain, codomain):
    cols = []
    for d in domain.orders:
        col = []
        for o in codomain.orders:
            if d == 0:
                col.append(rng.randint(-4, 4) if o == 0 else rng.randrange(o))
            else:
                if o == 0:
                    col.append(0)
                else:
                    step = o // gcd(d, o)
                    col.append(step * rng.randrange(gcd(d, o)))
        cols.append(col)
    return AbHom(domain, codomain, IntMatrix.from_columns(cols, rows=codomain.ngens))


class TestFgAbGroup:
    def test_canonical_equality(self):
        assert FgAbGroup(1, (2,)) == FgAbGroup(1, (2,))
        assert FgAbGroup(0, (2, 4)) != FgAbGroup(0, (2, 2))

    def test_chain_enforced(self):
        with pytest.raises(ValueError):
            FgAbGroup(0, (2, 3))
        with pytest.raises(ValueError):
            FgAbGroup(0, (1,))

    def test_order(self):
        assert FgAbGroup(0, (2, 6)).order() == 12
        assert FgAbGroup(1, ()).order() is None
        assert TRIVIAL_GROUP.order() == 1

    def test_text_form(self):
        assert str(FgAbGroup(1, (2,))) == "Z^1 x Z/2"
        assert str(FgAbGroup(0, (2, 4))) == "Z/2 x Z/4"
        assert str(TRIVIAL_GROUP) == "0"
        assert str(Z) == "Z^1"

    def test_element_reduction(self):
        g = FgAbGroup(1, (4,))
        e = g.element([3, 7])
        assert e.coords == (3, 3)
        assert (e + e).coords == (6, 2)
        assert (-e).coords == (-3, 1)

    @pytest.mark.parametrize(
        "n, group", [(0, Z), (1, TRIVIAL_GROUP), (2, FgAbGroup(0, (2,))), (12, FgAbGroup(0, (12,)))]
    )
    def test_cyclic(self, n, group):
        assert cyclic(n) == group

    @pytest.mark.parametrize(
        "n, error", [(-1, ValueError), (-3, ValueError), (0.5, TypeError), (1.0, TypeError), ("4", TypeError)]
    )
    def test_cyclic_rejects_what_is_not_an_order(self, n, error):
        with pytest.raises(error):
            cyclic(n)

    def test_element_order(self):
        g = FgAbGroup(0, (2, 4))
        assert g.element([1, 2]).order() == 2
        assert g.element([0, 1]).order() == 4
        assert FgAbGroup(1, ()).element([1]).order() is None


class TestFromPresentation:
    def test_crt_merge(self):
        # Z/2 (+) Z/3 == Z/6: brute-force oracle.  In Z^2/<(2,0),(0,3)> the
        # class of (a, b) has order lcm(2/gcd(a,2), 3/gcd(b,3)); the maximum 6
        # equals the order |det| = 6, so the quotient is cyclic of order 6.
        orders = set()
        for a in range(2):
            for b in range(3):
                orders.add((2 // gcd(a, 2)) * (3 // gcd(b, 3)) // gcd(2 // gcd(a, 2), 3 // gcd(b, 3)))
        assert max(orders) == 6
        group, matrix = from_presentation(2, IntMatrix.from_columns([[2, 0], [0, 3]], rows=2))
        assert group == FgAbGroup(0, (6,))
        proj = AbHom(FgAbGroup(2, ()), group, matrix)
        assert proj(FgAbGroup(2, ()).element([2, 0])).is_identity
        assert proj(FgAbGroup(2, ()).element([0, 3])).is_identity

    def test_free(self):
        group, _ = from_presentation(1, zero_matrix(1, 0))
        assert group == Z

    def test_snf_example(self):
        group, _ = from_presentation(2, IntMatrix.from_columns([[2, 4], [6, 8]], rows=2))
        assert group == FgAbGroup(0, (2, 4))

    def test_canonical_under_column_ops_and_permutation(self):
        rng = random.Random(2024)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = rng.randint(0, 4)
            rel = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
            base, proj = from_presentation(n, IntMatrix.from_rows(rel, cols=m))
            # rows of U, so a hom by construction, free rows left as they are
            assert AbHom(FgAbGroup(n, ()), base, proj).matrix == proj
            cols = [[rel[i][j] for i in range(n)] for j in range(m)]
            for _ in range(8):
                if m >= 2:
                    a, b = rng.randrange(m), rng.randrange(m)
                    if a != b:
                        q = rng.randint(-3, 3)
                        cols[a] = [x + q * y for x, y in zip(cols[a], cols[b])]
                rng.shuffle(cols)
            redone, _ = from_presentation(n, IntMatrix.from_columns(cols, rows=n))
            assert redone == base
            perm = list(range(n))
            rng.shuffle(perm)
            permuted = [[rel[perm[i]][j] for j in range(m)] for i in range(n)]
            shuffled, _ = from_presentation(n, IntMatrix.from_rows(permuted, cols=m))
            assert shuffled == base


class TestSubgroups:
    def test_index_two_in_z4(self):
        g = cyclic(4)
        sub = subgroup_from_generators(g, [g.element([2])])
        assert sub.computed == cyclic(2)
        assert inclusion_hom(sub)(generator(sub.computed, 0)) == g.element([2])

    def test_mixed_ambient(self):
        g = FgAbGroup(1, (2,))
        sub = span_subgroup(g, [g.element([2, 0]), g.element([0, 1])])
        assert sub.computed == FgAbGroup(1, (2,))
        imgs = {inclusion_hom(sub)(generator(sub.computed, i)).coords for i in range(2)}
        assert imgs == {(2, 0), (0, 1)}

    def test_empty_generators(self):
        sub = subgroup_from_generators(cyclic(6), [])
        assert sub.computed == TRIVIAL_GROUP

    def test_mismatched_element(self):
        with pytest.raises(ValueError):
            subgroup_from_generators(cyclic(6), [cyclic(4).element([1])])

    def test_free_ambient_is_rejected(self):
        # a free coordinate has no modulus for the solution lattice; such
        # spans are the oracle span_subgroup's
        g = FgAbGroup(1, (2,))
        with pytest.raises(ValueError, match="positive orders"):
            subgroup_from_generators(g, [g.element([2, 0]), g.element([0, 1])])
        with pytest.raises(ValueError, match="positive orders"):
            subgroup_from_generators(Z, [])

    def test_subgroup_order_by_enumeration(self):
        rng = random.Random(8)
        for _ in range(40):
            g = random_group(rng, max_rank=0, max_factors=2, max_d=12)
            gens = [g.element([rng.randrange(d) for d in g.invariant_factors]) for _ in range(rng.randint(0, 3))]
            sub = subgroup_from_generators(g, gens)
            assert sub == span_subgroup(g, gens)
            # brute-force closure in the finite ambient group
            seen = {g.identity().coords}
            frontier = [g.identity()]
            while frontier:
                cur = frontier.pop()
                for h in gens:
                    nxt = cur + h
                    if nxt.coords not in seen:
                        seen.add(nxt.coords)
                        frontier.append(nxt)
            assert sub.order() == len(seen)

    def test_inclusion_is_a_reduced_hom_randomized(self):
        # columns of U^-1 applied to the generators, so a hom by
        # construction: the oracle class accepts it and leaves every entry
        # as it is
        rng = random.Random(77)
        for _ in range(200):
            g = random_chain(rng, rng.randint(1, 4), max_ratio=30)
            gens = [g.element([rng.randrange(d) for d in g.invariant_factors]) for _ in range(rng.randint(0, 5))]
            sub = subgroup_from_generators(g, gens)
            assert inclusion_hom(sub).matrix == sub.inclusion, (g, gens)

    def test_inclusion_is_injective_randomized(self):
        rng = random.Random(404)
        for _ in range(120):
            factors = random_torsion(rng)
            g = FgAbGroup(rng.randint(1, 2), factors)
            gens = [
                g.element([rng.randint(-6, 6) for _ in range(g.free_rank)] + [rng.randrange(d) for d in factors])
                for _ in range(rng.randint(0, 4))
            ]
            sub = span_subgroup(g, gens)
            assert kernel_of(inclusion_hom(sub)).computed.is_trivial
            relations = [[d if j == g.free_rank + i else 0 for j in range(g.ngens)] for i, d in enumerate(factors)]
            spanned = lattice_row_basis([list(x.coords) for x in gens] + relations, g.ngens)
            assert image_lattice(inclusion_hom(sub)) == spanned

    def test_express_in_subgroup(self):
        # coordinates in the subgroup are preimages under its inclusion
        g = FgAbGroup(1, (4,))
        sub = span_subgroup(g, [g.element([2, 1])])
        inside = preimage_of(inclusion_hom(sub), g.element([4, 2]))
        assert inside is not None
        assert inclusion_hom(sub)(inside) == g.element([4, 2])
        assert preimage_of(inclusion_hom(sub), g.element([1, 0])) is None


class TestHomExtDual:
    def test_hom_examples(self):
        assert hom_group(FgAbGroup(1, (2,)), Z) == Z
        assert hom_group(cyclic(4), cyclic(6)) == cyclic(2)
        assert hom_group(FgAbGroup(2, ()), Z) == FgAbGroup(2, ())

    def test_ext_examples(self):
        # oracle: apply Hom(-, Z) to 0 -> Z -n-> Z -> Z/n -> 0; the connecting
        # map identifies Ext^1(Z/n, Z) with coker(n: Z -> Z).
        for n in range(2, 10):
            ext_via_sequence, _ = cokernel_of(multiplication_hom(Z, n))
            assert ext1_z(cyclic(n)) == ext_via_sequence
        assert ext1_z(FgAbGroup(3, ())) == TRIVIAL_GROUP
        assert ext1_z(FgAbGroup(1, (2,))) == cyclic(2)

    def test_torsion(self):
        # Ext^1(A, Z) is the torsion subgroup of A
        assert ext1_z(FgAbGroup(2, (4,))) == cyclic(4)
        assert ext1_z(Z) == TRIVIAL_GROUP
        assert ext1_z(FgAbGroup(0, (2, 6))) == FgAbGroup(0, (2, 6))

    # the dual of a finite G is G read through the pairing of
    # docs/conventions.md: dual generator i pairs with generator j to
    # delta_ij / d_i, which is how an element of G stands for a character
    def test_dual_finite(self):
        for g in [cyclic(5), FgAbGroup(0, (2, 4)), TRIVIAL_GROUP]:
            characters = all_characters(g)
            assert len(set(characters)) == g.order()
            assert all(chi.group == g for chi in characters)

    def test_dual_rejects_infinite(self):
        with pytest.raises(ValueError):
            Character(Z, (Fraction(0),))

    def test_pairing_is_perfect(self):
        for g in [cyclic(6), FgAbGroup(0, (2, 4)), FgAbGroup(0, (3, 3))]:
            characters = all_characters(g)
            for x in elements(g):
                if x.is_identity:
                    continue
                assert any(chi(x) != 0 for chi in characters)
            for chi in characters:
                if is_trivial_character(chi):
                    continue
                assert any(chi(x) != 0 for x in elements(g))

    def test_pairing_values(self):
        g = FgAbGroup(0, (2, 4))

        def pair(dual_coords, x):
            return character_from_dual_element(g.element(dual_coords))(x)

        assert pair([1, 0], g.element([1, 0])) == Fraction(1, 2)
        assert pair([0, 1], g.element([0, 1])) == Fraction(1, 4)
        assert pair([1, 0], g.element([0, 1])) == 0

    def test_hom_ext_six_term_orders(self):
        # Hom(Z/m, -) applied to 0 -> Z -n-> Z -> Z/n -> 0: with Hom(Z/m, Z)
        # trivial, |Hom(Z/m, Z/n)| = |ker(n on Ext^1(Z/m, Z))| and the tail
        # gives |coker(n on Z/m)|; all equal the brute-force hom count.
        for m in range(1, 13):
            for n in range(1, 13):
                brute = sum(1 for k in range(n) if (m * k) % n == 0)
                zm = cyclic(m)
                zn = cyclic(n)
                assert hom_group(zm, zn).order() == brute
                mul = multiplication_hom(ext1_z(zm), n)
                assert kernel_of(mul).order() == brute
                coker, _ = cokernel_of(multiplication_hom(zm, n))
                assert coker.order() == brute


class TestKernelCokernelExactness:
    def test_kernel_examples(self):
        assert kernel_of(multiplication_hom(Z, 2)).computed == TRIVIAL_GROUP
        assert kernel_of(multiplication_hom(cyclic(4), 2)).computed == cyclic(2)
        proj = AbHom(FgAbGroup(2, ()), Z, IntMatrix.from_rows([[1, 0]]))
        assert kernel_of(proj).computed == Z

    def test_cokernel_examples(self):
        assert cokernel_of(multiplication_hom(Z, 2))[0] == cyclic(2)
        incl = AbHom(FgAbGroup(2, ()), FgAbGroup(2, ()), IntMatrix.diagonal([2, 3]))
        assert cokernel_of(incl)[0] == cyclic(6)
        assert cokernel_of(identity_hom(FgAbGroup(1, (4,))))[0] == TRIVIAL_GROUP

    def test_exactness_examples(self):
        # with g = 0 the sequence is exact at the middle iff f is surjective
        ident = identity_hom(Z)
        assert is_exact_at(ident, zero_hom(Z, cyclic(2))) is True
        assert is_exact_at(multiplication_hom(Z, 2), zero_hom(Z, cyclic(2))) is False

        times2 = multiplication_hom(Z, 2)
        to_z2 = AbHom(Z, cyclic(2), IntMatrix.from_rows([[1]]))
        assert is_exact_at(times2, to_z2) is True
        times4 = multiplication_hom(Z, 4)
        assert is_exact_at(times4, to_z2) is False

    def test_exactness_mismatch(self):
        with pytest.raises(ValueError):
            is_exact_at(identity_hom(Z), identity_hom(cyclic(2)))

    def test_kernel_cokernel_certificates(self):
        rng = random.Random(55)
        for _ in range(100):
            dom = random_group(rng)
            cod = random_group(rng)
            f = random_hom(rng, dom, cod)
            ker = kernel_of(f)
            assert is_exact_at(inclusion_hom(ker), f)
            _, proj = cokernel_of(f)
            assert is_exact_at(f, proj)
            assert is_surjective(proj)

    def test_mod_n_lattice_is_the_preimage_lattice_of_the_rows(self):
        # the rows handed to the solver as they are give the preimage
        # lattice of the hom Z^s -> (Z/n)^m they state, and n == 1 or no
        # rows give the identity
        rng = random.Random(23)
        for _ in range(200):
            s, m, n = rng.randint(0, 5), rng.randint(0, 3), rng.choice((1, 1, 2, 3, 4, 6, 12, 360))
            rows = [[rng.randint(-2 * n, 2 * n) for _ in range(s)] for _ in range(m)]
            lattice = _mod_n_lattice(s, n, rows)
            if n == 1 or not rows:
                assert lattice == IntMatrix.identity(s)
                continue
            f = AbHom(FgAbGroup(s, ()), FgAbGroup(0, (n,) * m), IntMatrix.from_rows(rows, cols=s))
            assert lattice == preimage_lattice(f)

    def test_preimage_lattice_randomized(self):
        rng = random.Random(93)
        for trial in range(120):
            cod = FgAbGroup(0, random_torsion(rng))
            dom = FgAbGroup(rng.randint(1, 3), ()) if trial % 2 else FgAbGroup(0, random_torsion(rng))
            f = random_hom(rng, dom, cod)
            basis = preimage_lattice(f)
            for i in range(basis.rows):
                assert f(dom.element(basis.row(i))).is_identity
            # |im f| by closing the column images under addition
            seen = {cod.identity()}
            frontier = list(seen)
            while frontier:
                cur = frontier.pop()
                for j in range(dom.ngens):
                    nxt = cur + f(generator(dom, j))
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            assert basis.rows == dom.ngens
            assert det(basis) == len(seen)

    def test_ill_defined_hom_rejected(self):
        with pytest.raises(ValueError):
            AbHom(cyclic(2), Z, IntMatrix.from_rows([[1]]))
        with pytest.raises(ValueError):
            AbHom(cyclic(4), cyclic(8), IntMatrix.from_rows([[1]]))

    def test_composition(self):
        rng = random.Random(31)
        for _ in range(30):
            a, b, c, d = (random_group(rng) for _ in range(4))
            f = random_hom(rng, a, b)
            g = random_hom(rng, b, c)
            h = random_hom(rng, c, d)
            assert compose(h, compose(g, f)) == compose(compose(h, g), f)
            assert compose(identity_hom(b), f) == f
            assert compose(f, identity_hom(a)) == f


class TestDirectSum:
    def test_merge(self):
        assert direct_sum_canonical(0, [2, 3]) == cyclic(6)
        assert direct_sum_canonical(1, [2, 4]) == FgAbGroup(1, (2, 4))
        assert direct_sum_canonical(0, [6, 4]) == FgAbGroup(0, (2, 12))
        assert direct_sum_canonical(2, []) == FgAbGroup(2, ())

    def test_pairwise_gcd_lcm_is_the_smith_form(self):
        # the invariant factors of a diagonal matrix, against its Smith form
        rng = random.Random(16)
        for _ in range(500):
            choices = (1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 25, 27, 30, 36, 97, 128)
            orders = [rng.choice(choices) for _ in range(rng.randint(0, 7))]
            free = rng.randint(0, 2)
            diagonal = smith_normal_form(IntMatrix.diagonal(orders)).diagonal()
            assert direct_sum_canonical(free, orders) == FgAbGroup(free, tuple(d for d in diagonal if d > 1)), orders
        with pytest.raises(ValueError):
            direct_sum_canonical(0, [2, 0])
