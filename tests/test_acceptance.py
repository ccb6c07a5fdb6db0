"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its runtime budget.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time

from conftest import all_subgroups, count_cocycle_classes, random_model, small_groups
from homspace.abgroups import (
    TRIVIAL_GROUP,
    cyclic,
    ext1_z,
    hom_group,
    subgroup_from_generators,
    Z,
)
from homspace.groups import (
    ReductiveModel,
    character_group,
    pi1,
    preset,
)
from homspace.intlinalg import IntMatrix, smith_normal_form
from homspace.invariants import (
    brauer,
    invariant_report,
)
from homspace.rootdata import (
    SimpleType,
    build_datum,
    center,
)
from oracles import (
    Weight,
    all_characters,
    are_equivalent,
    baer_sum,
    character_lattice_of_quotient,
    character_to_extension,
    coboundary,
    cocycle_class,
    cocycle_of,
    cokernel_of,
    det,
    extension_class,
    fundamental_restrictions,
    gluing_elements,
    is_zero_matrix,
    lattice_row_basis,
    multiplication_hom,
    pi1_extension,
    psi_character_map,
    restrict_weight,
    snf_kernel,
    solve_integer,
)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.start = time.time()

    def done(self, detail=""):
        elapsed = time.time() - self.start
        assert elapsed < self.seconds, f"{self.name} took {elapsed:.1f}s, budget {self.seconds}s"
        print(f"PASS {self.name} ({elapsed:.2f}s < {self.seconds}s){': ' + detail if detail else ''}")


def test_criterion_1_paper_examples():
    budget = Budget("criterion 1: paper examples, exact", 1.0)
    assert brauer(preset("SO(2)")) == TRIVIAL_GROUP
    for n in range(3, 11):
        assert brauer(preset(f"SO({n})")) == cyclic(2)
    unipotent = ReductiveModel(ss=build_datum(()), torus_rank=0, gluing=(), unipotent_dim=1)
    _, pic = character_group(unipotent)
    assert pic == TRIVIAL_GROUP
    for n in range(2, 11):
        assert invariant_report(preset(f"GL({n})")).e_al == TRIVIAL_GROUP
        assert invariant_report(preset(f"PGL({n})")).e_al == cyclic(n)
    budget.done("Br(SL2/SO2)=0, Br(SLn/SOn)=Z/2, Pic(SL2/U)=0, Pic(GL/PGL)")


def test_criterion_2_brauer_chain_consistency():
    budget = Budget("criterion 2: Brauer = extension classes = Tors H^3", 30.0)
    rng = random.Random(20260809)
    counted = 0
    for _ in range(200):
        model = random_model(rng, max_torus=3, max_gluing_order=48)
        b = brauer(model)
        # these three read one expression, ext1_z(pi1(model)): they pin the
        # report's fields, not the theorem
        assert b == invariant_report(model).e_al
        assert b == invariant_report(model).tors_h3_m
        # independent routes: Ext^1 of pi1 as the extension of the gluing
        # group by Z^r, presented by one lift per generator
        assert b == ext1_z(pi1_extension(model))
        # and Ext^1(K, Z) of the derived kernel K as symmetric cocycle
        # tables modulo coboundaries
        kernel = model.derived.kernel.computed
        if kernel.order() <= 8:
            assert b == count_cocycle_classes(kernel)
            counted += 1
    budget.done(f"200 randomized reductive models, {counted} of them against cocycle classes")


def test_criterion_3_restriction_exact_sequence():
    budget = Budget("criterion 3: weight restriction exact sequence", 30.0)
    types = (
        [SimpleType("A", n) for n in range(1, 9)]
        + [SimpleType("B", n) for n in range(2, 9)]
        + [SimpleType("C", n) for n in range(3, 9)]
        + [SimpleType("D", n) for n in range(4, 9)]
        + [SimpleType("E", n) for n in (6, 7, 8)]
        + [SimpleType("F", 4), SimpleType("G", 2)]
    )
    checked = 0
    for t in types:
        datum = build_datum((t,))
        for sub in all_subgroups(center(datum)):
            generated = subgroup_from_generators(sub.computed, fundamental_restrictions(datum, sub))
            assert generated.computed == sub.computed
            basis = character_lattice_of_quotient(datum, sub)
            assert abs(det(basis)) == sub.order()
            for i in range(basis.rows):
                assert restrict_weight(Weight(datum, basis.row(i)), sub).is_identity
            checked += 1
    budget.done(f"{checked} (type, subgroup) pairs over all simple types of rank <= 8")


def test_criterion_4_extension_class_suite():
    budget = Budget("criterion 4: extension class dictionary", 60.0)
    # (a) brute-force class enumeration for |Gamma| <= 12, bijective with characters
    for group in small_groups(12):
        if group.is_trivial:
            continue
        quotient = count_cocycle_classes(group)
        assert quotient.order() == group.order()
        cocycles = [cocycle_of(character_to_extension(chi)) for chi in all_characters(group)]
        for i, c1 in enumerate(cocycles):
            for c2 in cocycles[i + 1 :]:
                assert not are_equivalent(c1, c2)
    # (b) round trip for |Gamma| <= 64, the class read by two routes: off
    # generator lifts, and by the averaging lift of the full cocycle table
    trips = 0
    for group in small_groups(64):
        for chi in all_characters(group):
            ext = character_to_extension(chi)
            assert extension_class(ext) == cocycle_class(cocycle_of(ext)) == chi
            trips += 1
    # (c) Baer-sum additivity on 500 random cocycle pairs
    rng = random.Random(4)
    groups = [g for g in small_groups(9) if not g.is_trivial]
    for _ in range(500):
        group = rng.choice(groups)
        chars = all_characters(group)
        n = group.order()
        c1 = baer_sum(
            cocycle_of(character_to_extension(rng.choice(chars))),
            coboundary(group, [rng.randint(-3, 3) for _ in range(n - 1)]),
        )
        c2 = baer_sum(
            cocycle_of(character_to_extension(rng.choice(chars))),
            coboundary(group, [rng.randint(-3, 3) for _ in range(n - 1)]),
        )
        assert cocycle_class(baer_sum(c1, c2)) == cocycle_class(c1) + cocycle_class(c2)
    budget.done(f"class enumeration <= 12, {trips} round trips <= 64, 500 Baer pairs")


def test_criterion_5_normal_form_suite():
    budget = Budget("criterion 5: SNF/HNF property suite", 10.0)
    rng = random.Random(11)
    for _ in range(500):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        m = IntMatrix(rows, cols, [rng.randint(-9, 9) for _ in range(rows * cols)])
        res = smith_normal_form(m)
        assert res.u @ m @ res.v == res.d
        assert abs(det(res.u)) == 1
        assert abs(det(res.v)) == 1
        diag = res.diagonal()
        for i in range(len(diag) - 1):
            assert diag[i] >= 0
            if diag[i]:
                assert diag[i + 1] % diag[i] == 0
            else:
                assert diag[i + 1] == 0
        # the Hermite basis and the rows of m span one lattice, of rank
        # rank(D): each row of one solves over the other
        h = lattice_row_basis(m.to_rows(), cols)
        assert h.rows == res.rank()
        assert all(solve_integer(m.transpose(), h.row(i)) is not None for i in range(h.rows))
        assert all(solve_integer(h.transpose(), m.row(i)) is not None for i in range(rows))
        if rows == cols and rows and det(m) != 0:
            prod = 1
            for x in diag:
                prod *= x
            assert prod == abs(det(m))
        k = snf_kernel(m)
        assert k.cols == cols - res.rank()
        if k.cols:
            assert is_zero_matrix(m @ k)
            assert set(smith_normal_form(k).diagonal()) == {1}
    budget.done("500 random matrices, dims <= 6, entries in [-9, 9]")


def test_criterion_6_structural_invariants():
    budget = Budget("criterion 6: structural invariants", 30.0)
    rng = random.Random(7)
    for _ in range(60):
        model = random_model(rng)
        res = pi1(model)
        # the Z^r-extension of the gluing group against the gluing kernel of
        # the torus projection, which pi1 reads
        extension = pi1_extension(model)
        assert ext1_z(extension) == model.derived.kernel.computed
        basis, abstract = character_group(model)
        assert abstract.free_rank == model.torus_rank
        assert extension.free_rank == model.torus_rank
        # assembled character map is an isomorphism onto Hom(pi1, Z)
        rows = []
        for i in range(model.torus_rank):
            hom = psi_character_map(model, basis.row(i))
            rows.append([hom.matrix[0, p] for p in range(res.free_rank)])
        mat = IntMatrix.from_rows(rows, cols=res.free_rank)
        assert abs(det(mat)) == 1
        # n-cotorsion agreement between Pic and Hom(pi1, Z)
        dual_pi1 = hom_group(res, Z)
        for n in range(1, 13):
            lhs, _ = cokernel_of(multiplication_hom(abstract, n))
            rhs, _ = cokernel_of(multiplication_hom(dual_pi1, n))
            assert lhs == rhs
    budget.done("60 randomized models, n-cotorsion for n <= 12")


def test_criterion_7_presentation_independence():
    budget = Budget("criterion 7: presentation independence", 30.0)
    rng = random.Random(3)
    pairs_checked = 0
    while pairs_checked < 50:
        model = random_model(rng, max_gluing_order=16)
        elements = gluing_elements(model)
        regenerated = tuple(e for e in elements if rng.random() < 0.7)
        alt = ReductiveModel(
            ss=model.ss, torus_rank=model.torus_rank, gluing=regenerated, unipotent_dim=model.unipotent_dim
        )
        if alt.gluing_type.order() != model.gluing_type.order():
            continue
        pairs_checked += 1
        assert pi1(alt) == pi1(model)
        assert brauer(alt) == brauer(model)
        assert character_group(alt) == character_group(model)
        assert invariant_report(alt).e_al == invariant_report(model).e_al
        fat = ReductiveModel(model.ss, model.torus_rank, model.gluing, unipotent_dim=5)
        assert pi1(fat) == pi1(model)
        assert character_group(fat) == character_group(model)
        assert brauer(fat) == brauer(model)
    budget.done("50 regenerated gluing presentations, unipotent_dim in {0, 5}")
