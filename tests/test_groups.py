import gc
import io
import json
import random
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import QUOTIENT_SPECS, random_model
from homspace import groups
from homspace.abgroups import FgAbGroup, TRIVIAL_GROUP, Z, direct_sum_canonical, ext1_z
from homspace.cli import run
from homspace.extensions import Character
from homspace.groups import (
    GluingPair,
    ReductiveModel,
    as_semisimple,
    character_group,
    pi1,
    preset,
)
from homspace.intlinalg import IntMatrix
from homspace.rootdata import SimpleType, build_datum, center
from homspace.spec import model_to_document, parse_spec
from oracles import (
    _pi1_span,
    add_elements,
    all_characters,
    central_pushout,
    character_value,
    cokernel_of,
    cyclic_group,
    det,
    elements,
    fiber_class_in_pi1,
    gluing_elements,
    gluing_span,
    identity_element,
    identity_matrix,
    inclusion_hom,
    is_zero_matrix,
    pi1_extension,
    psi_character_map,
    semisimple_as_reductive,
    so_kernel_generators,
    span_subgroup,
    subgroup_order,
)


def torus_only(rank):
    return ReductiveModel(ss=build_datum(()), torus_rank=rank, gluing=())


def generated_pairs(model):
    """The gluing subgroup as the set of gluing pairs that its generators
    reach by repeated addition in Z(S_sc) x (Q/Z)^r, the torus parts summed
    as Fractions: a route through neither a Smith form nor a span."""
    cgroup = center(model.ss)
    zero = GluingPair(cgroup.element((0,) * cgroup.ngens), (Fraction(0),) * model.torus_rank)
    seen, frontier = {zero}, [zero]
    while frontier:
        pair = frontier.pop()
        for gen in model.gluing:
            total = GluingPair(add_elements(pair.center, gen.center), tuple((a + b) % 1 for a, b in zip(pair.torus, gen.torus)))
            if total not in seen:
                seen.add(total)
                frontier.append(total)
    return seen


def assert_gluing_type_is_the_oracles(model):
    gamma = model.gluing_type
    assert gamma == gluing_span(model).group
    table = gluing_elements(model)
    assert gamma.order() == len(table) == len(set(table))
    assert set(table) == generated_pairs(model)


class TestGluingType:
    def test_gl_model(self):
        model = preset("GL(4)")
        assert_gluing_type_is_the_oracles(model)
        assert model.gluing_type == cyclic_group(4)

    def test_torus_only(self):
        model = torus_only(2)
        assert_gluing_type_is_the_oracles(model)
        assert model.gluing_type == TRIVIAL_GROUP

    @pytest.mark.parametrize("seed", range(40))
    def test_random_models(self, seed):
        assert_gluing_type_is_the_oracles(random_model(random.Random(seed), max_gluing=3))


class TestConstructorRejectsForeignGluing:
    def test_center_mismatch_rejected(self):
        datum_a = build_datum((SimpleType("A", 1),))
        datum_b = build_datum((SimpleType("A", 2),))
        elem = center(datum_b).element((1,))
        with pytest.raises(ValueError):
            ReductiveModel(ss=datum_a, torus_rank=0, gluing=(GluingPair(elem, ()),))

    def test_torus_length_mismatch(self):
        datum = build_datum((SimpleType("A", 1),))
        elem = center(datum).element((1,))
        with pytest.raises(ValueError):
            ReductiveModel(ss=datum, torus_rank=2, gluing=(GluingPair(elem, (Fraction(1, 2),)),))


class TestModelKeys:
    def model(self):
        datum = build_datum((SimpleType("A", 3), SimpleType("A", 1)))
        pairs = (
            GluingPair(center(datum).element((1, 1)), (Fraction(1, 2), Fraction(1, 3), Fraction(0))),
            GluingPair(center(datum).element((0, 2)), (Fraction(1, 4), Fraction(2, 3), Fraction(3, 4))),
        )
        return ReductiveModel(ss=datum, torus_rank=3, gluing=pairs)

    def test_queries_after_gluing_hash_no_fractions(self, monkeypatch, tmp_path):
        model = self.model()
        model.gluing_type  # spanned before the count starts
        calls = {name: [] for name in ("__hash__", "__mul__", "__mod__")}
        for name, seen in calls.items():
            original = getattr(Fraction, name)

            def counting(*args, original=original, seen=seen):
                seen.append(args)
                return original(*args)

            monkeypatch.setattr(Fraction, name, counting)
        pi1(model)
        character_group(model)
        assert calls["__hash__"] == []
        # a fresh torus spec read and answered by the CLI, a new model that
        # has derived nothing yet: no Fraction is hashed, multiplied or
        # reduced on the way
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "semisimple": [{"family": "A", "rank": 3}, {"family": "D", "rank": 4}],
            "torus_rank": 3,
            "gluing": [
                {"center": [1, 1, 0], "torus": ["1/2", "1/3", "0"]},
                {"center": [2, 0, 1], "torus": ["1/4", "2/3", "3/4"]},
            ],
        }))
        for command in ("invariants", "describe"):
            out, err = io.StringIO(), io.StringIO()
            assert run([command, "--json", "--spec", str(spec)], stdout=out, stderr=err) == 0, err.getvalue()
        assert {name: len(seen) for name, seen in calls.items()} == {"__hash__": 0, "__mul__": 0, "__mod__": 0}

    def test_hash_and_equality_agree(self, monkeypatch):
        # equal models, spelled differently too, hash alike and give equal
        # groups; each model object spans its gluing type, its kernel type
        # and its derived kernel once, however often they are read.  The
        # kernel type is spanned in the center, the gluing type in the
        # center times (Z/N)^r, so the orders passed tell the two apart
        spans, kernels = [], []
        original_span, original_kernel = groups.span_group, groups.subgroup_from_generators

        def counting_span(orders, gens):
            spans.append(tuple(orders))
            return original_span(orders, gens)

        def counting_kernel(*args):
            kernels.append(args)
            return original_kernel(*args)

        monkeypatch.setattr(groups, "span_group", counting_span)
        monkeypatch.setattr(groups, "subgroup_from_generators", counting_kernel)
        a = self.model()
        renamed = ReductiveModel(ss=a.ss, torus_rank=3, gluing=a.gluing, name="other")
        assert renamed != a

        def spec(center, torus):
            return parse_spec(json.dumps({
                "semisimple": [{"family": "A", "rank": 3}],
                "torus_rank": 2,
                "gluing": [{"center": center, "torus": torus}],
            }))

        datum = build_datum((SimpleType("A", 3),))
        elem = center(datum).element((1,))
        pairs = [
            (self.model(), self.model()),
            (spec([1], ["2/4", "1/3"]), spec([1], ["1/2", "1/3"])),
            (
                ReductiveModel(datum, 2, (GluingPair(elem, (Fraction(1, 2), Fraction(1, 3))),)),
                ReductiveModel(datum, 2, (GluingPair(elem, ("1/2", "1/3")),)),
            ),
            (spec([5], ["1/2", "1/3"]), spec([1], ["1/2", "1/3"])),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)
            spans.clear()
            kernels.clear()
            gluings = [m.gluing_type for m in (a, b, a, b)]
            types = [m.kernel_type for m in (a, b, a, b)]
            derived = [m.derived for m in (a, b, a, b)]
            kernel_orders = center(a.ss).orders
            gluing_orders = kernel_orders + (a.torus_numerators[0],) * a.torus_rank
            expected = [gluing_orders] * 2 + [kernel_orders] * 2
            assert spans == expected and len(kernels) == 2
            assert gluings[0] is gluings[2] and gluings[1] is gluings[3]
            assert types[0] is types[2] and types[1] is types[3]
            assert derived[0] is derived[2] and derived[1] is derived[3]
            assert gluings[0] == gluings[1] and a.gluing_type.order() == b.gluing_type.order()
            assert types[0] == types[1] == derived[0].kernel.computed
            assert derived[0] == derived[1] and hash(derived[0]) == hash(derived[1])
            assert pi1(a) == pi1(b)
            assert spans == expected and len(kernels) == 2
        assert spec([1], ["1/2", "2/3"]) != spec([1], ["1/2", "1/3"])

    def test_torus_numerators(self):
        assert self.model().torus_numerators == (12, ((6, 4, 0), (3, 8, 9)))
        assert preset("SO(8)").torus_numerators == (1, ((),))
        assert torus_only(2).torus_numerators == (1, ())

    def test_gluing_pair_keeps_fractions_and_checks_the_range(self):
        datum = build_datum((SimpleType("A", 1),))
        elem = center(datum).element((1,))
        half = Fraction(1, 2)
        assert GluingPair(elem, (half,)).torus[0] is half
        assert GluingPair(elem, ("1/3", 0)).torus == (Fraction(1, 3), Fraction(0))
        for bad in (Fraction(1), Fraction(-1, 2), Fraction(5, 3), Fraction(3, 2), "3/2"):
            with pytest.raises(ValueError, match=r"must be reduced into \[0, 1\)"):
                GluingPair(elem, (bad,))


def torsion_and_derived(model):
    """Tors pi1(H) from the extension of the gluing group by Z^r, and pi1 of
    the derived subgroup from the gluing kernel of the torus projection."""
    return ext1_z(pi1_extension(model)), model.derived.kernel.computed


class TestPi1:
    def test_gl_n(self):
        for n in (2, 3, 5):
            model = preset(f"GL({n})")
            assert pi1(model) == Z
            assert torsion_and_derived(model) == (TRIVIAL_GROUP, TRIVIAL_GROUP)

    def test_pgl(self):
        model = preset("PGL(2)")
        assert pi1(model) == cyclic_group(2)
        assert torsion_and_derived(model) == (cyclic_group(2), cyclic_group(2))
        for n in range(2, 8):
            assert pi1(preset(f"PGL({n})")) == cyclic_group(n)

    def test_so_n(self):
        for n in range(3, 11):
            model = preset(f"SO({n})")
            assert pi1(model) == cyclic_group(2)
            assert torsion_and_derived(model) == (cyclic_group(2), cyclic_group(2))

    def test_simply_connected(self):
        for name in ("SL(5)", "Spin(9)", "Spin(10)", "Sp(6)", "Sp(4)", "Sp(2)"):
            assert pi1(preset(name)) == TRIVIAL_GROUP

    def test_torus(self):
        assert pi1(torus_only(3)) == FgAbGroup(3, ())
        assert pi1(preset("SO(2)")) == Z

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.integers(0, 2**32))
    def test_extension_presentation_equals_span(self, seed):
        # three routes: Z^r plus the derived kernel, Z^r extended by the
        # canonical gluing group, and the span of N*e_i and the model's own
        # gluing lifts in Z^r x Z(S_sc)
        model = random_model(random.Random(seed), max_torus=6, max_gluing=4)
        assert pi1(model) == _pi1_span(model).computed == pi1_extension(model)

    def test_extension_presentation_equals_span_on_presets(self):
        names = [f"{kind}({n})" for kind in ("SL", "GL", "PGL") for n in range(1, 13)]
        names += [f"{kind}({n})" for kind in ("SO", "Spin") for n in range(2, 13)]
        names += [f"Sp({n})" for n in range(2, 13, 2)]
        for name in names:
            model = preset(name)
            assert pi1(model) == _pi1_span(model).computed == pi1_extension(model), name

    def test_free_rank_is_torus_rank(self):
        rng = random.Random(12)
        for _ in range(60):
            model = random_model(rng)
            assert pi1_extension(model).free_rank == model.torus_rank
            torsion, derived = torsion_and_derived(model)
            assert torsion == derived


class TestDerivedSubgroup:
    def test_gl_gives_sl(self):
        sm = preset("GL(3)").derived
        assert sm.kernel.computed == TRIVIAL_GROUP

    def test_pgl_is_its_own_derived(self):
        sm = preset("PGL(4)").derived
        assert sm.kernel.computed == cyclic_group(4)

    def test_torus_only(self):
        sm = torus_only(2).derived
        assert sm.datum.rank == 0
        assert sm.kernel.computed == TRIVIAL_GROUP

    def test_kernel_is_the_gluing_elements_without_torus_part(self):
        # element by element: the kernel of the torus projection, read back in
        # the center, is exactly the set of gluing elements with torus part 0
        rng = random.Random(41)
        for _ in range(40):
            model = random_model(rng, max_gluing_order=24)
            kernel = model.derived.kernel
            got = {inclusion_hom(kernel)(e).coords for e in elements(kernel.computed)}
            brute = {e.center.coords for e in gluing_elements(model) if not any(e.torus)}
            assert got == brute

    # the kernel's inclusion is columns of U^-1 applied to the generators,
    # so a hom into the center by construction: the oracle class accepts
    # it and leaves every entry as it is
    def test_kernel_inclusion_is_a_reduced_hom_on_presets_and_quotient_specs(self):
        models = [preset(f"{kind}({n})") for kind in ("SL", "GL", "PGL") for n in range(1, 65)]
        models += [preset(f"{kind}({n})") for kind in ("SO", "Spin") for n in range(2, 65)]
        models += [preset(f"Sp({n})") for n in range(2, 65, 2)]
        models += [parse_spec(json.dumps(spec)) for spec in QUOTIENT_SPECS.values()]
        for model in models:
            kernel = model.derived.kernel
            assert inclusion_hom(kernel).matrix == kernel.inclusion, model.name

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.integers(0, 2**32))
    def test_pi1_torsion_is_the_derived_kernel(self, seed):
        # two routes to pi1 of the derived subgroup: the bare type that pi1
        # reads, diagonalized modulo e, and the kernel spanned with its
        # inclusion by the exact Smith loop
        model = random_model(random.Random(seed), max_torus=6, max_gluing=4)
        assert model.kernel_type == model.derived.kernel.computed
        assert pi1(model) == FgAbGroup(model.torus_rank, model.derived.kernel.computed.invariant_factors)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.integers(0, 2**32))
    def test_kernel_inclusion_is_a_reduced_hom(self, seed):
        kernel = random_model(random.Random(seed), max_torus=6, max_gluing=4).derived.kernel
        assert inclusion_hom(kernel).matrix == kernel.inclusion

    def test_semisimple_fixed_point(self):
        for name in ("PGL(3)", "SO(7)", "SL(4)"):
            model = preset(name)
            sm = model.derived
            again = semisimple_as_reductive(sm).derived
            assert again.kernel.computed == sm.kernel.computed
            assert again.datum == sm.datum


class TestCharacterGroup:
    def test_gl_n(self):
        for n in (2, 3, 4):
            basis, abstract = character_group(preset(f"GL({n})"))
            assert basis == IntMatrix.from_rows([[n]])
            assert abstract == Z

    def test_semisimple_trivial(self):
        basis, abstract = character_group(preset("SO(7)"))
        assert abstract == TRIVIAL_GROUP
        assert basis.rows == 0

    def test_torus(self):
        basis, abstract = character_group(torus_only(2))
        assert basis == identity_matrix(2)
        assert abstract == FgAbGroup(2, ())

    def test_rank_matches_pi1(self):
        rng = random.Random(77)
        for _ in range(40):
            model = random_model(rng)
            basis, abstract = character_group(model)
            assert abstract.free_rank == model.torus_rank
            assert basis.rows == model.torus_rank
            assert pi1(model).free_rank == model.torus_rank


class TestPsiCharacterMap:
    def test_gl_determinant_character(self):
        model = preset("GL(3)")
        hom = psi_character_map(model, [3])
        # pairing of the lattice generator 3 with the 1/3 torus point is 1
        assert hom.codomain == Z
        assert set(hom.matrix.row(0)) <= {1, -1}
        assert any(x != 0 for x in hom.matrix.row(0))

    def test_zero_character(self):
        model = preset("GL(3)")
        hom = psi_character_map(model, [0])
        assert is_zero_matrix(hom.matrix)

    def test_rejects_non_character(self):
        model = preset("GL(3)")
        with pytest.raises(ValueError):
            psi_character_map(model, [1])
        with pytest.raises(ValueError):
            psi_character_map(preset("PGL(2)"), [1])

    def test_assembled_isomorphism(self):
        rng = random.Random(5)
        for _ in range(40):
            model = random_model(rng)
            basis, _ = character_group(model)
            res = pi1(model)
            r = model.torus_rank
            rows = []
            for i in range(r):
                hom = psi_character_map(model, basis.row(i))
                rows.append([hom.matrix[0, p] for p in range(res.free_rank)])
            mat = IntMatrix.from_rows(rows, cols=res.free_rank)
            assert abs(det(mat)) == 1 if r else det(mat) == 1

    def test_additive(self):
        model = preset("GL(4)")
        h1 = psi_character_map(model, [4])
        h2 = psi_character_map(model, [8])
        assert [2 * x for x in h1.matrix.row(0)] == list(h2.matrix.row(0))


class TestCentralPushout:
    def test_pgl2_nontrivial_character(self):
        model = preset("PGL(2)")
        gamma = model.gluing_type
        assert gamma == cyclic_group(2)
        chi = Character(gamma, (Fraction(1, 2),))
        pushed = central_pushout(model, chi)
        res = pi1(pushed)
        assert res == Z

    def test_trivial_character_splits(self):
        model = preset("PGL(3)")
        chi = Character(model.gluing_type, (Fraction(0),))
        pushed = central_pushout(model, chi)
        res = pi1(pushed)
        assert res == FgAbGroup(1, (3,))
        assert res.free_rank == pi1(model).free_rank + 1

    def test_simply_connected(self):
        model = preset("SL(3)")
        chi = Character(model.gluing_type, ())
        pushed = central_pushout(model, chi)
        assert pi1(pushed) == Z

    def test_rejects_wrong_group(self):
        model = preset("PGL(2)")
        with pytest.raises(ValueError):
            central_pushout(model, Character(cyclic_group(3), (Fraction(1, 3),)))

    def test_extension_exactness_at_model_level(self):
        # pi1 of the pushout maps onto pi1(H) with kernel the fiber Z
        rng = random.Random(9)
        for _ in range(25):
            model = random_model(rng, max_gluing_order=24)
            gamma = model.gluing_type
            for chi in all_characters(gamma)[:4]:
                pushed = central_pushout(model, chi)
                fiber = fiber_class_in_pi1(pushed)
                quotient, _ = cokernel_of(fiber)
                assert quotient == pi1(model)

    def test_predicted_torsion(self):
        # torsion of pi1(pushout) = kernel of the character on the derived
        # part of the gluing subgroup, checked by brute force
        rng = random.Random(23)
        for _ in range(25):
            model = random_model(rng, max_gluing_order=24)
            gamma = model.gluing_type
            data_elements = list(elements(gamma))
            for chi in all_characters(gamma)[:4]:
                pushed = central_pushout(model, chi)
                got, derived = torsion_and_derived(pushed)
                assert got == derived
                # brute force: derived part = gluing elements with zero torus
                # part; keep those killed by chi
                span = gluing_span(model)
                incl = span.inclusion_columns
                k = len(model.ss.pq_group.invariant_factors)
                kept = []
                for e in data_elements:
                    amb = [0] * len(span.orders)
                    for p, c in enumerate(e.coords):
                        amb = [x + c * y for x, y in zip(amb, incl.column(p))]
                    amb = span.reduce_ambient(amb)
                    if all(t == 0 for t in amb[k:]) and character_value(chi, e.coords) == 0:
                        kept.append(e)
                from homspace.abgroups import subgroup_from_generators

                brute = subgroup_from_generators(gamma, kept).computed
                assert got == brute


# the pattern that groups.preset matched names with before it read them
# with str.partition and str.isdecimal, kept as the oracle of that reader;
# \d matches the Unicode decimal digits
PRESET_NAME = re.compile(r"(SL|GL|PGL|SO|Spin|Sp)\((\d+)\)")
# what preset names are drawn from: every kind and a near miss, ASCII and
# Arabic-Indic decimal digits, a digit that is no decimal (superscript two)
# and leading zeros, parentheses and spaces
PRESET_WORDS = ("SL", "GL", "PGL", "SO", "Spin", "Sp", "S")
PRESET_DIGITS = ("0", "00", "1", "2", "3", "8", "\u0663", "\u00b2")
preset_names = st.one_of(
    st.lists(st.sampled_from((*PRESET_WORDS, *PRESET_DIGITS, "(", ")", " ")), max_size=8).map("".join),
    st.builds(
        "{}{}({}){}".format,
        st.sampled_from(("", " ", "  ")),
        st.sampled_from(PRESET_WORDS),
        st.lists(st.sampled_from(PRESET_DIGITS), max_size=3).map("".join),
        st.sampled_from(("", " ", ")")),
    ),
)


class TestPresets:
    @settings(max_examples=500, deadline=None)
    @given(preset_names)
    def test_reader_matches_the_regex(self, name):
        # where the pattern matches the stripped name, preset builds the
        # model of the ASCII spelling of the same number, under the stripped
        # name, or fails as that spelling does; elsewhere it is unknown
        match = PRESET_NAME.fullmatch(name.strip())
        if match is None:
            with pytest.raises(ValueError) as refused:
                preset(name)
            assert str(refused.value) == f"unknown preset {name!r}"
            return
        kind, num = match.group(1), int(match.group(2))
        assume(num <= 40)
        ascii_name = f"{kind}({num})"
        try:
            expected = preset(ascii_name)
        except ValueError as exc:
            with pytest.raises(ValueError) as refused:
                preset(name)
            assert str(refused.value) == str(exc).replace(repr(ascii_name), repr(name))
            return
        model = preset(name)
        assert model.name == name.strip()
        renamed = ReductiveModel(expected.ss, expected.torus_rank, expected.gluing, expected.unipotent_dim, model.name)
        assert model == renamed

    def test_a_padded_name_is_its_stripped_names_model(self):
        # one model per preset, whatever the padding: a padded name's cache
        # entry holds its stripped name's model
        model = preset(" SO(8) ")
        assert model is preset("SO(8)") and model is preset("\tSO(8)\n")
        assert model.name == "SO(8)"

    def test_so2_is_torus(self):
        model = preset("SO(2)")
        assert model.ss.rank == 0
        assert model.torus_rank == 1

    def test_low_rank_identifications(self):
        assert preset("SO(3)").ss.factors == (SimpleType("A", 1),)
        assert preset("SO(4)").ss.factors == (SimpleType("A", 1), SimpleType("A", 1))
        assert preset("SO(5)").ss.factors == (SimpleType("B", 2),)
        assert preset("SO(6)").ss.factors == (SimpleType("A", 3),)
        assert preset("SO(7)").ss.factors == (SimpleType("B", 3),)
        assert preset("SO(8)").ss.factors == (SimpleType("D", 4),)
        assert preset("Sp(2)").ss.factors == (SimpleType("A", 1),)
        assert preset("Sp(4)").ss.factors == (SimpleType("B", 2),)
        assert preset("Sp(8)").ss.factors == (SimpleType("C", 4),)

    def test_so4_pi1(self):
        assert pi1(preset("SO(4)")) == cyclic_group(2)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("SU(5)")
        with pytest.raises(ValueError):
            preset("Sp(3)")

    def test_trivial_groups(self):
        assert pi1(preset("SL(1)")) == TRIVIAL_GROUP
        assert pi1(preset("GL(1)")) == Z

    def test_so_kernel_closed_form_is_the_annihilator(self):
        # the closed-form generator against the annihilator of the vector
        # representation's weights, on every type Spin(n) takes: A1, A1 x A1,
        # B2, A3, then B_m and D_m of both parities
        for n in range(3, 131):
            model = preset(f"SO({n})")
            assert [pair.center.coords for pair in model.gluing] == so_kernel_generators(n), n
            assert pi1(model) == cyclic_group(2), n


class TestCacheBounds:
    CACHES = (groups.build_datum, groups.preset)

    def test_unique_models_stay_within_maxsize(self):
        # twice each cache's size of distinct keys: distinct data from pairs
        # of small types, distinct presets from their kinds and sizes; and
        # 2048 distinct torus models, which no cache keeps once answered
        for cache in self.CACHES:
            cache.cache_clear()
        types = [SimpleType(f, r) for f, r in (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("G", 2))]
        types += [SimpleType("A", r) for r in range(4, 21)]
        pairs = [(a, b) for a in types for b in types]
        datum_size = groups.build_datum.cache_info().maxsize
        assert len(pairs) >= 2 * datum_size
        for factors in pairs[: 2 * datum_size]:
            build_datum(factors)
        trivial = build_datum(())
        models = []
        for k in range(2, 2 + 2048):
            pair = GluingPair(identity_element(center(trivial)), (Fraction(1, k),))
            model = ReductiveModel(ss=trivial, torus_rank=1, gluing=(pair,))
            assert pi1(model) == Z and model.gluing_type.order() == k
            models.append(weakref.ref(model))
        del model
        gc.collect()
        assert [ref for ref in models if ref() is not None] == []
        preset_size = groups.preset.cache_info().maxsize
        kinds = ("SL", "GL", "PGL", "SO", "Spin", "Sp")
        names = [f"{kind}({n})" for n in range(2, preset_size) for kind in kinds if kind != "Sp" or n % 2 == 0]
        assert len(names) >= 2 * preset_size
        for name in names[: 2 * preset_size]:
            assert preset(name).name == name
        for cache in self.CACHES:
            info = cache.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize, info

    def test_repeated_presets_hit(self, monkeypatch):
        # a repeated preset is the cached model, which keeps its derived
        # subgroup: no root datum is looked up and no kernel is spanned
        names = [f"{kind}({n})" for kind in ("SL", "PGL", "SO", "Sp", "Spin") for n in (4, 8, 16, 64, 128)]
        for cache in self.CACHES:
            cache.cache_clear()
        first = {name: preset(name).derived for name in names}
        misses = [cache.cache_info().misses for cache in self.CACHES]
        datum_calls = groups.build_datum.cache_info()[:2]
        kernels = []
        original = groups.subgroup_from_generators

        def counting(*args):
            kernels.append(args)
            return original(*args)

        monkeypatch.setattr(groups, "subgroup_from_generators", counting)
        for name in names:
            assert preset(name).derived is first[name]
        assert kernels == []
        assert [cache.cache_info().misses for cache in self.CACHES] == misses
        assert groups.preset.cache_info().hits == len(names)
        assert groups.build_datum.cache_info()[:2] == datum_calls


def _gluing_pair_of(torus):
    return GluingPair(identity_element(center(build_datum(()))), torus)


class TestExactInput:
    # integer data is read with operator.index and fractions are never
    # taken of a binary float, so a float is refused where it would have
    # been truncated, printed as a rank, or read as its binary expansion
    # (0.1 as a denominator of 2^55); each exact spelling beside it answers
    @pytest.mark.parametrize(
        "build, exact",
        [
            (lambda: IntMatrix(1, 1, [2.9]), lambda: IntMatrix(1, 1, [2])),
            (lambda: FgAbGroup(0, (2.7,)), lambda: FgAbGroup(0, (2,))),
            (lambda: FgAbGroup(1.5), lambda: FgAbGroup(1)),
            (lambda: cyclic_group(4).reduce((5.5,)), lambda: cyclic_group(4).reduce((5,))),
            (lambda: direct_sum_canonical(0, (2.0, 4)), lambda: direct_sum_canonical(0, (2, 4))),
            (lambda: SimpleType("A", 2.0), lambda: SimpleType("A", 2)),
            (lambda: _gluing_pair_of((0.1,)), lambda: _gluing_pair_of(("1/10",))),
            (lambda: Character(cyclic_group(2), (0.5,)), lambda: Character(cyclic_group(2), (Fraction(1, 2),))),
        ],
        ids=["IntMatrix", "FgAbGroup-factor", "FgAbGroup-rank", "reduce", "direct_sum", "SimpleType", "GluingPair", "Character"],
    )
    def test_floats_are_refused(self, build, exact):
        with pytest.raises(TypeError):
            build()
        exact()

    @pytest.mark.parametrize("value", [2.0, Fraction(2), "2"], ids=["float", "Fraction", "str"])
    @pytest.mark.parametrize("field", ["torus_rank", "unipotent_dim"])
    def test_model_sizes_are_integers(self, field, value):
        # a model's torus rank and unipotent dimension are integers too:
        # each other spelling of 2 is refused, and the int beside it answers
        sizes = {"torus_rank": 0, "unipotent_dim": 0, field: value}
        with pytest.raises(TypeError):
            ReductiveModel(build_datum(()), gluing=(), **sizes)
        model = ReductiveModel(build_datum(()), gluing=(), **{**sizes, field: 2})
        assert getattr(model, field) == 2 and pi1(model) == FgAbGroup(model.torus_rank, ())

    @pytest.mark.parametrize("name", [5, 5.0, ["x"]], ids=["int", "float", "list"])
    def test_model_name_is_a_string(self, name):
        # a name is a str or None, so that describe() returns a str and the
        # expanded document of the model reads back; the str beside it answers
        with pytest.raises(TypeError):
            ReductiveModel(build_datum(()), 1, (), name=name)
        model = ReductiveModel(build_datum(()), 1, (), name="x")
        assert model.describe() == "x" and parse_spec(json.dumps(model_to_document(model))) == model


class TestPresentationIndependence:
    def test_regenerated_gluing(self):
        rng = random.Random(99)
        done = 0
        while done < 20:
            model = random_model(rng, max_gluing_order=16)
            elements = gluing_elements(model)
            regenerated = [e for e in elements if rng.random() < 0.7]
            alt = ReductiveModel(
                ss=model.ss,
                torus_rank=model.torus_rank,
                gluing=tuple(regenerated),
                unipotent_dim=model.unipotent_dim,
            )
            if alt.gluing_type.order() != model.gluing_type.order():
                continue
            done += 1
            assert pi1(alt) == pi1(model)
            assert character_group(alt) == character_group(model)
            assert alt.derived.kernel.computed == model.derived.kernel.computed

    def test_unipotent_dim_is_inert(self):
        rng = random.Random(101)
        for _ in range(10):
            base = random_model(rng, unipotent_dim=0)
            fat = ReductiveModel(base.ss, base.torus_rank, base.gluing, unipotent_dim=5)
            assert pi1(base) == pi1(fat)
            assert character_group(base) == character_group(fat)
            assert base.derived.kernel.computed == fat.derived.kernel.computed


class TestDeterminism:
    def test_pi1_presentation_is_deterministic(self):
        # torus lifts use representatives in [0, 1), so two separately built
        # copies of a model present pi1 with identical matrices
        a = ReductiveModel(preset("GL(4)").ss, 1, preset("GL(4)").gluing, 0, name="one")
        b = ReductiveModel(preset("GL(4)").ss, 1, preset("GL(4)").gluing, 0, name="two")
        assert _pi1_span(a).inclusion == _pi1_span(b).inclusion
        assert _pi1_span(a).computed == _pi1_span(b).computed

    def test_lift_representative_does_not_change_abstract_group(self):
        # shifting a torus lift by an integer vector lands in the span of the
        # standard basis generators, so the subgroup is unchanged
        rng = random.Random(6)
        for _ in range(15):
            model = random_model(rng)
            span = _pi1_span(model)
            n = model.torus_numerators[0]
            ambient = span.ambient
            shifted = [ambient.element([n * (i == j) for j in range(ambient.ngens)]) for i in range(model.torus_rank)]
            for p in range(span.computed.ngens):
                coords = list(span.inclusion.column(p))
                if model.torus_rank:
                    coords[rng.randrange(model.torus_rank)] += n * rng.randint(-2, 2)
                shifted.append(ambient.element(coords))
            assert span_subgroup(ambient, shifted).computed == span.computed


def assert_kernel_is_the_gluing_elements(model):
    kernel = as_semisimple(model).kernel
    image = {inclusion_hom(kernel)(e).coords for e in elements(kernel.computed)}
    assert len(image) == subgroup_order(kernel)
    assert image == {e.center.coords for e in gluing_elements(model)}


class TestSemisimpleConversions:
    def test_as_semisimple_requires_no_torus(self):
        with pytest.raises(ValueError):
            as_semisimple(preset("GL(2)"))
        sm = as_semisimple(preset("SO(7)"))
        assert sm.kernel.computed == cyclic_group(2)

    def test_round_trip(self):
        model = preset("PGL(3)")
        sm = as_semisimple(model)
        back = semisimple_as_reductive(sm)
        assert pi1(back) == pi1(model)

    # the kernel of S_sc -> H against brute force: its inclusion is
    # injective, and its image is the element table of the gluing subgroup
    def test_kernel_is_the_derived_kernel_on_presets(self):
        names = [f"{kind}({n})" for kind in ("SL", "PGL") for n in range(1, 13)]
        names += [f"{kind}({n})" for kind in ("SO", "Spin") for n in range(3, 13)]
        names += [f"Sp({n})" for n in range(2, 13, 2)]
        for name in names:
            model = preset(name)
            assert model.torus_rank == 0
            assert_kernel_is_the_gluing_elements(model)

    def test_kernel_is_the_derived_kernel_on_quotient_specs(self):
        for name, spec in QUOTIENT_SPECS.items():
            assert_kernel_is_the_gluing_elements(parse_spec(json.dumps(spec)))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.integers(0, 2**32))
    def test_kernel_is_the_derived_kernel(self, seed):
        assert_kernel_is_the_gluing_elements(random_model(random.Random(seed), max_torus=0, max_gluing=3))
