import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_chain, span_exponent
from homspace.abgroups import (
    FgAbGroup,
    TRIVIAL_GROUP,
    Z,
    _mod_n_lattice,
    direct_sum_canonical,
    ext1_z,
    from_presentation,
    hom_group,
    span_group,
    subgroup_from_generators,
)
from homspace.extensions import Character
from homspace.intlinalg import IntMatrix, smith_normal_form
from oracles import (
    AbHom,
    add_elements,
    all_characters,
    character_from_dual_element,
    character_value,
    cokernel_of,
    compose,
    cyclic_group,
    det,
    diagonal_matrix,
    element_order,
    elements,
    exact_span_group,
    generator,
    identity_element,
    identity_hom,
    identity_matrix,
    image_lattice,
    inclusion_hom,
    is_exact_at,
    is_surjective,
    is_trivial_character,
    is_trivial_group,
    is_zero_element,
    kernel_of,
    lattice_row_basis,
    multiplication_hom,
    negate_element,
    preimage_lattice,
    preimage_of,
    span_subgroup,
    subgroup_order,
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
        assert add_elements(e, e).coords == (6, 2)
        assert negate_element(e).coords == (-3, 1)

    @pytest.mark.parametrize(
        "n, group", [(0, Z), (1, TRIVIAL_GROUP), (2, FgAbGroup(0, (2,))), (12, FgAbGroup(0, (12,)))]
    )
    def test_cyclic(self, n, group):
        assert cyclic_group(n) == group

    @pytest.mark.parametrize(
        "n, error", [(-1, ValueError), (-3, ValueError), (0.5, TypeError), (1.0, TypeError), ("4", TypeError)]
    )
    def test_cyclic_rejects_what_is_not_an_order(self, n, error):
        with pytest.raises(error):
            cyclic_group(n)

    def test_element_order(self):
        g = FgAbGroup(0, (2, 4))
        assert element_order(g.element([1, 2])) == 2
        assert element_order(g.element([0, 1])) == 4
        assert element_order(FgAbGroup(1, ()).element([1])) is None
        # odd orders: an lcm that started at 2 would double both
        assert element_order(FgAbGroup(0, (3, 9)).element([1, 3])) == 3
        assert element_order(identity_element(FgAbGroup(0, (5,)))) == 1


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
        assert is_zero_element(proj(FgAbGroup(2, ()).element([2, 0])))
        assert is_zero_element(proj(FgAbGroup(2, ()).element([0, 3])))

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
        g = cyclic_group(4)
        sub = subgroup_from_generators(g, [g.element([2])])
        assert sub.computed == cyclic_group(2)
        assert inclusion_hom(sub)(generator(sub.computed, 0)) == g.element([2])

    def test_mixed_ambient(self):
        g = FgAbGroup(1, (2,))
        sub = span_subgroup(g, [g.element([2, 0]), g.element([0, 1])])
        assert sub.computed == FgAbGroup(1, (2,))
        imgs = {inclusion_hom(sub)(generator(sub.computed, i)).coords for i in range(2)}
        assert imgs == {(2, 0), (0, 1)}

    def test_empty_generators(self):
        sub = subgroup_from_generators(cyclic_group(6), [])
        assert sub.computed == TRIVIAL_GROUP

    def test_mismatched_element(self):
        with pytest.raises(ValueError):
            subgroup_from_generators(cyclic_group(6), [cyclic_group(4).element([1])])

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
            seen = {identity_element(g).coords}
            frontier = [identity_element(g)]
            while frontier:
                cur = frontier.pop()
                for h in gens:
                    nxt = add_elements(cur, h)
                    if nxt.coords not in seen:
                        seen.add(nxt.coords)
                        frontier.append(nxt)
            assert subgroup_order(sub) == len(seen)

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
            assert is_trivial_group(kernel_of(inclusion_hom(sub)).computed)
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
        assert hom_group(cyclic_group(4), cyclic_group(6)) == cyclic_group(2)
        assert hom_group(FgAbGroup(2, ()), Z) == FgAbGroup(2, ())

    def test_ext_examples(self):
        # oracle: apply Hom(-, Z) to 0 -> Z -n-> Z -> Z/n -> 0; the connecting
        # map identifies Ext^1(Z/n, Z) with coker(n: Z -> Z).
        for n in range(2, 10):
            ext_via_sequence, _ = cokernel_of(multiplication_hom(Z, n))
            assert ext1_z(cyclic_group(n)) == ext_via_sequence
        assert ext1_z(FgAbGroup(3, ())) == TRIVIAL_GROUP
        assert ext1_z(FgAbGroup(1, (2,))) == cyclic_group(2)

    def test_torsion(self):
        # Ext^1(A, Z) is the torsion subgroup of A
        assert ext1_z(FgAbGroup(2, (4,))) == cyclic_group(4)
        assert ext1_z(Z) == TRIVIAL_GROUP
        assert ext1_z(FgAbGroup(0, (2, 6))) == FgAbGroup(0, (2, 6))

    # the dual of a finite G is G read through the pairing of
    # docs/conventions.md: dual generator i pairs with generator j to
    # delta_ij / d_i, which is how an element of G stands for a character
    def test_dual_finite(self):
        for g in [cyclic_group(5), FgAbGroup(0, (2, 4)), TRIVIAL_GROUP]:
            characters = all_characters(g)
            assert len(set(characters)) == g.order()
            assert all(chi.group == g for chi in characters)

    def test_dual_rejects_infinite(self):
        with pytest.raises(ValueError):
            Character(Z, (Fraction(0),))

    def test_pairing_is_perfect(self):
        for g in [cyclic_group(6), FgAbGroup(0, (2, 4)), FgAbGroup(0, (3, 3))]:
            characters = all_characters(g)
            for x in elements(g):
                if is_zero_element(x):
                    continue
                assert any(character_value(chi, x.coords) != 0 for chi in characters)
            for chi in characters:
                if is_trivial_character(chi):
                    continue
                assert any(character_value(chi, x.coords) != 0 for x in elements(g))

    def test_pairing_values(self):
        g = FgAbGroup(0, (2, 4))

        def pair(dual_coords, x):
            return character_value(character_from_dual_element(g.element(dual_coords)), x.coords)

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
                zm = cyclic_group(m)
                zn = cyclic_group(n)
                assert hom_group(zm, zn).order() == brute
                mul = multiplication_hom(ext1_z(zm), n)
                assert subgroup_order(kernel_of(mul)) == brute
                coker, _ = cokernel_of(multiplication_hom(zm, n))
                assert coker.order() == brute


class TestKernelCokernelExactness:
    def test_kernel_examples(self):
        assert kernel_of(multiplication_hom(Z, 2)).computed == TRIVIAL_GROUP
        assert kernel_of(multiplication_hom(cyclic_group(4), 2)).computed == cyclic_group(2)
        proj = AbHom(FgAbGroup(2, ()), Z, IntMatrix.from_rows([[1, 0]]))
        assert kernel_of(proj).computed == Z

    def test_cokernel_examples(self):
        assert cokernel_of(multiplication_hom(Z, 2))[0] == cyclic_group(2)
        incl = AbHom(FgAbGroup(2, ()), FgAbGroup(2, ()), diagonal_matrix([2, 3]))
        assert cokernel_of(incl)[0] == cyclic_group(6)
        assert cokernel_of(identity_hom(FgAbGroup(1, (4,))))[0] == TRIVIAL_GROUP

    def test_exactness_examples(self):
        # with g = 0 the sequence is exact at the middle iff f is surjective
        ident = identity_hom(Z)
        assert is_exact_at(ident, zero_hom(Z, cyclic_group(2))) is True
        assert is_exact_at(multiplication_hom(Z, 2), zero_hom(Z, cyclic_group(2))) is False

        times2 = multiplication_hom(Z, 2)
        to_z2 = AbHom(Z, cyclic_group(2), IntMatrix.from_rows([[1]]))
        assert is_exact_at(times2, to_z2) is True
        times4 = multiplication_hom(Z, 4)
        assert is_exact_at(times4, to_z2) is False

    def test_exactness_mismatch(self):
        with pytest.raises(ValueError):
            is_exact_at(identity_hom(Z), identity_hom(cyclic_group(2)))

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
        # the columns of the rows, handed to the solver as they are, give
        # the preimage lattice of the hom Z^s -> (Z/n)^m the rows state,
        # and n == 1 or no rows give the identity
        rng = random.Random(23)
        for _ in range(200):
            s, m, n = rng.randint(0, 5), rng.randint(0, 3), rng.choice((1, 1, 2, 3, 4, 6, 12, 360))
            rows = [[rng.randint(-2 * n, 2 * n) for _ in range(s)] for _ in range(m)]
            lattice = IntMatrix.from_rows(_mod_n_lattice(n, [[row[j] for row in rows] for j in range(s)]), cols=s)
            if n == 1 or not rows:
                assert lattice == identity_matrix(s)
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
                assert is_zero_element(f(dom.element(basis.row(i))))
            # |im f| by closing the column images under addition
            seen = {identity_element(cod)}
            frontier = list(seen)
            while frontier:
                cur = frontier.pop()
                for j in range(dom.ngens):
                    nxt = add_elements(cur, f(generator(dom, j)))
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            assert basis.rows == dom.ngens
            assert det(basis) == len(seen)

    def test_ill_defined_hom_rejected(self):
        with pytest.raises(ValueError):
            AbHom(cyclic_group(2), Z, IntMatrix.from_rows([[1]]))
        with pytest.raises(ValueError):
            AbHom(cyclic_group(4), cyclic_group(8), IntMatrix.from_rows([[1]]))

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
        assert direct_sum_canonical(0, [2, 3]) == cyclic_group(6)
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
            diagonal = smith_normal_form(diagonal_matrix(orders)).diagonal()
            assert direct_sum_canonical(free, orders) == FgAbGroup(free, tuple(d for d in diagonal if d > 1)), orders
        with pytest.raises(ValueError):
            direct_sum_canonical(0, [2, 0])


@st.composite
def span_systems(draw, max_order=100, max_coords=4, max_generators=8):
    """(orders, generators): raw cyclic orders, in no divisibility chain,
    and generator coordinates, unreduced and of either sign, some of them
    sums and multiples of earlier ones."""
    orders = draw(st.lists(st.integers(1, max_order), max_size=max_coords))
    vector = st.tuples(*(st.integers(-2 * o, 2 * o) for o in orders)).map(list)
    gens = draw(st.lists(vector, max_size=max_generators))
    for _ in range(draw(st.integers(0, max_generators - len(gens)))):
        if not gens:
            break
        i, j = draw(st.integers(0, len(gens) - 1)), draw(st.integers(0, len(gens) - 1))
        c = draw(st.integers(-3, 3))
        gens.append([c * x + y for x, y in zip(gens[i], gens[j])])
    return orders, gens


def closure_order(orders, gens):
    """Size of the span, by adding generators until nothing new appears."""
    seen = {(0,) * len(orders)}
    frontier = list(seen)
    while frontier:
        point = frontier.pop()
        for g in gens:
            total = tuple((x + y) % o for x, y, o in zip(point, g, orders))
            if total not in seen:
                seen.add(total)
                frontier.append(total)
    return len(seen)


class TestSpanGroup:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(span_systems())
    def test_the_mod_e_diagonal_is_the_exact_smith_quotient(self, system):
        orders, gens = system
        assert span_group(orders, gens) == exact_span_group(orders, gens)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(span_systems(max_order=12, max_coords=3, max_generators=4))
    def test_order_by_enumeration(self, system):
        orders, gens = system
        assert span_group(orders, gens).order() == closure_order(orders, gens)

    def test_examples(self):
        assert span_group((4, 6), [[1, 0], [0, 1]]) == FgAbGroup(0, (2, 12))
        assert span_group((12,), [[4], [6]]) == cyclic_group(6)
        # the pivot 2 divides 4 but (2, 4) and (4, 0) are not multiples:
        # a divided entry is cleared by subtraction, never by a 2x2 step
        assert span_group((8, 8), [[2, 4], [4, 0]]) == cyclic_group(4)
        assert span_group((4, 2), [[2, 0], [2, 1], [0, 1]]) == FgAbGroup(0, (2, 2))
        assert span_group((), []) == span_group((5,), []) == span_group((5, 7), [[0, 7]]) == TRIVIAL_GROUP
        # coordinates of one part order 1 vanish
        assert span_group((1, 9), [[5, 3], [1, 0]]) == cyclic_group(3)

    def test_orders_must_be_positive(self):
        for orders in ((4, 0), (0,), (-3,)):
            with pytest.raises(ValueError, match="positive orders"):
                span_group(orders, [[1] * len(orders)])
        with pytest.raises(ValueError, match="one per order"):
            span_group((4, 4), [[1]])

    def test_entries_far_above_the_orders(self):
        # coordinates of hundreds of bits, one order near 10^6 and a
        # redundant sum: the type of the reduced system
        rng = random.Random(37)
        for _ in range(40):
            orders = [rng.randrange(1, 10**6) for _ in range(rng.randint(1, 4))]
            gens = [[rng.randrange(-(2**300), 2**300) for _ in orders] for _ in range(rng.randint(1, 5))]
            gens.append([x + 3 * y for x, y in zip(gens[0], gens[-1])])
            reduced = [[x % o for x, o in zip(g, orders)] for g in gens]
            group = span_group(orders, gens)
            assert group == exact_span_group(orders, reduced)
            assert (group.invariant_factors or (1,))[-1] == span_exponent(orders, gens)
