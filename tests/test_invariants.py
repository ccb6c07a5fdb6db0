import random

from conftest import MIXED_CENTER_PRODUCTS, all_subgroups, random_model
from homspace.abgroups import (
    FgAbGroup,
    TRIVIAL_GROUP,
    Z,
    hom_group,
    subgroup_from_generators,
)
from homspace.groups import ReductiveModel, SemisimpleModel, as_semisimple, character_group, preset, pi1
from homspace.intlinalg import IntMatrix
from homspace.invariants import (
    brauer,
    invariant_report,
    weight_brauer_table,
)
from homspace.rootdata import SimpleType, build_datum, center
from oracles import (
    character_from_dual_element,
    character_lattice_of_quotient,
    character_to_extension,
    cocycle_class,
    cocycle_of,
    cokernel_of,
    cyclic_group,
    det,
    fundamental_restrictions,
    multiplication_hom,
    subgroup_order,
)


def unipotent_only_model(dim=1):
    return ReductiveModel(ss=build_datum(()), torus_rank=0, gluing=(), unipotent_dim=dim)


class TestPicard:
    def test_semisimple(self):
        _, group = character_group(preset("SO(5)"))
        assert group == TRIVIAL_GROUP

    def test_unipotent_stabilizer(self):
        lattice, group = character_group(unipotent_only_model())
        assert group == TRIVIAL_GROUP
        assert lattice.rows == 0

    def test_gl(self):
        lattice, group = character_group(preset("GL(3)"))
        assert group == Z
        assert lattice == IntMatrix.from_rows([[3]])


class TestBrauer:
    def test_so2(self):
        assert brauer(preset("SO(2)")) == TRIVIAL_GROUP

    def test_so_n(self):
        for n in range(3, 11):
            assert brauer(preset(f"SO({n})")) == cyclic_group(2)

    def test_simply_connected(self):
        for name in ("Spin(7)", "Spin(10)", "Sp(6)", "SL(4)"):
            assert brauer(preset(name)) == TRIVIAL_GROUP

    def test_pgl(self):
        for n in range(2, 7):
            assert brauer(preset(f"PGL({n})")) == cyclic_group(n)


class TestExtensionGroup:
    def test_gm(self):
        assert invariant_report(preset("GL(1)")).e_al == TRIVIAL_GROUP

    def test_so_n(self):
        for n in range(3, 9):
            assert invariant_report(preset(f"SO({n})")).e_al == cyclic_group(2)

    def test_pgl(self):
        for n in range(2, 7):
            assert invariant_report(preset(f"PGL({n})")).e_al == cyclic_group(n)


class TestPicardOfGroup:
    def test_gl(self):
        for n in range(2, 7):
            assert invariant_report(preset(f"GL({n})")).e_al == TRIVIAL_GROUP

    def test_pgl(self):
        for n in range(2, 7):
            assert invariant_report(preset(f"PGL({n})")).e_al == cyclic_group(n)

    def test_sl(self):
        for n in range(2, 7):
            assert invariant_report(preset(f"SL({n})")).e_al == TRIVIAL_GROUP


class TestTopological:
    def test_so3(self):
        topo = invariant_report(preset("SO(3)"))
        assert topo.pi2_m == cyclic_group(2)
        assert topo.h2_m == TRIVIAL_GROUP
        assert topo.tors_h3_m == cyclic_group(2)

    def test_gl1(self):
        topo = invariant_report(preset("GL(1)"))
        assert topo.pi2_m == Z
        assert topo.h2_m == Z
        assert topo.tors_h3_m == TRIVIAL_GROUP

    def test_simply_connected(self):
        topo = invariant_report(preset("Spin(9)"))
        assert topo.pi1_m == TRIVIAL_GROUP
        assert topo.pi2_m == TRIVIAL_GROUP
        assert topo.h2_m == TRIVIAL_GROUP
        assert topo.tors_h3_m == TRIVIAL_GROUP


class TestReport:
    def test_brauer_chain_consistency(self):
        rng = random.Random(4)
        for _ in range(40):
            model = random_model(rng)
            report = invariant_report(model)
            assert report.brauer == report.e_al == report.tors_h3_m
            assert report.brauer.is_finite
            assert report.pi1_m == TRIVIAL_GROUP

    def test_unipotent_note(self):
        report = invariant_report(unipotent_only_model())
        assert any("unipotent" in note for note in report.notes)
        reductive = invariant_report(preset("GL(2)"))
        assert any("analytic Picard groups of G/H agree" in note for note in reductive.notes)

    def test_cotorsion_agreement(self):
        # Pic(M)_n versus Hom(pi1(H), Z)_n through the character isomorphism
        rng = random.Random(14)
        for _ in range(15):
            model = random_model(rng)
            _, pic = character_group(model)
            dual_pi1 = hom_group(pi1(model), Z)
            for n in range(1, 13):
                lhs, _ = cokernel_of(multiplication_hom(pic, n))
                rhs, _ = cokernel_of(multiplication_hom(dual_pi1, n))
                assert lhs == rhs


class TestSemisimpleSweep:
    def test_brauer_equals_dual_of_kernel_everywhere(self):
        # every central quotient of every simple type of rank <= 8: the
        # pi1-based Brauer computation must land on the dual of the kernel
        from conftest import _FAMILY_CHOICES
        from homspace.groups import SemisimpleModel
        from oracles import semisimple_as_reductive

        types = {SimpleType(f, r) for f, r in _FAMILY_CHOICES} | {
            SimpleType("E", 7),
            SimpleType("E", 8),
            SimpleType("A", 7),
            SimpleType("B", 8),
            SimpleType("D", 8),
        }
        for t in sorted(types, key=str):
            datum = build_datum((t,))
            for sub in all_subgroups(center(datum)):
                model = semisimple_as_reductive(SemisimpleModel(datum=datum, kernel=sub))
                assert pi1(model) == sub.computed
                assert brauer(model) == sub.computed
                assert invariant_report(model).e_al == sub.computed

    def test_brauer_additive_on_products(self):
        from homspace.groups import GluingPair

        # PGL(2) x PGL(3) modeled as one datum, whose center is Z/6 on one
        # generator: the elements 3 and 2 of orders 2 and 3 span it, and
        # Br = Z/2 (+) Z/3 = Z/6
        datum = build_datum((SimpleType("A", 1), SimpleType("A", 2)))
        assert center(datum) == cyclic_group(6)
        gens = (
            GluingPair(center(datum).element((3,)), ()),
            GluingPair(center(datum).element((2,)), ()),
        )
        model = ReductiveModel(ss=datum, torus_rank=0, gluing=gens)
        assert brauer(model) == cyclic_group(6)
        # SO(7) x SO(9): Br = Z/2 (+) Z/2
        d2 = build_datum((SimpleType("B", 3), SimpleType("B", 4)))
        g2 = (
            GluingPair(center(d2).element((1, 0)), ()),
            GluingPair(center(d2).element((0, 1)), ()),
        )
        m2 = ReductiveModel(ss=d2, torus_rank=0, gluing=g2)
        assert brauer(m2) == FgAbGroup(0, (2, 2))


class TestWeightTable:
    def test_so_odd_spin_row(self):
        for n in (5, 7, 9, 11):
            sm = as_semisimple(preset(f"SO({n})"))
            columns = [column for _, column in weight_brauer_table(sm).columns()]
            m = (n - 1) // 2
            assert any(columns[m - 1])  # spin node
            assert not any(columns[0])  # vector node

    def test_sl_all_trivial(self):
        table = weight_brauer_table(as_semisimple(preset("SL(4)")))
        assert not any(any(column) for _, column in table.columns())

    def test_pgl2(self):
        table = weight_brauer_table(as_semisimple(preset("PGL(2)")))
        assert list(table.columns()) == [("A1:1", (1,))]
        assert table.dual == cyclic_group(2)

    def test_table_columns_follow_the_nodes(self):
        cases = [as_semisimple(preset("SL(1)")), as_semisimple(preset("SL(3)"))]
        for factors in MIXED_CENTER_PRODUCTS:
            datum = build_datum(factors)
            cases.extend(SemisimpleModel(datum=datum, kernel=sub) for sub in all_subgroups(center(datum))[:8])
        for sm in cases:
            table = weight_brauer_table(sm)
            columns = list(table.columns())
            assert len(columns) == sm.datum.rank
            assert [node for node, _ in columns] == list(sm.datum.node_labels())
            # the columns the CLI writes are reduced coordinates in the dual
            assert table.dual == sm.kernel.computed
            assert [table.dual.element(column).coords for _, column in columns] == [column for _, column in columns]

    def test_rows_are_weight_restrictions_on_products(self):
        for factors in MIXED_CENTER_PRODUCTS:
            datum = build_datum(factors)
            for sub in all_subgroups(center(datum)):
                table = weight_brauer_table(SemisimpleModel(datum=datum, kernel=sub))
                restrictions = [table.dual.element(column) for _, column in table.columns()]
                assert restrictions == fundamental_restrictions(datum, sub)

    def test_restrictions_surject_and_kernel_index(self):
        a1, a2 = SimpleType("A", 1), SimpleType("A", 2)
        simple = ("A", 3), ("B", 3), ("D", 4), ("D", 5), ("E", 6), ("A", 11), ("D", 6), ("B", 6)
        # A11, D6 and B6 contain the kernels of PGL(12), SO(12) and SO(13)
        for types in [(SimpleType(*t),) for t in simple] + [(a1, a1, a1), (a2, a2)]:
            datum = build_datum(types)
            for sub in all_subgroups(center(datum)):
                table = weight_brauer_table(SemisimpleModel(datum=datum, kernel=sub))
                restrictions = [table.dual.element(column) for _, column in table.columns()]
                generated = subgroup_from_generators(sub.computed, restrictions)
                assert generated.computed == sub.computed
                for restriction in restrictions:
                    # the class written for a weight is its restriction: the
                    # class of the extension pulled back along it
                    chi = character_from_dual_element(restriction)
                    assert cocycle_class(cocycle_of(character_to_extension(chi))) == chi
                basis = character_lattice_of_quotient(datum, sub)
                assert abs(det(basis)) == subgroup_order(sub)
