"""The twelve record classes of the package behave as frozen dataclasses.
Each is compared with a reference ``@dataclass(frozen=True)`` of the same
name and fields, built here: repr, ``==``, ``!=`` and hash, construction by
position, keyword and default, the TypeError of a missing or unknown
argument, the AttributeError of an assignment or a deletion, and the cached
properties of the two model classes; and copy and pickle."""

import copy
import json
import pickle
from dataclasses import field, make_dataclass
from fractions import Fraction
from itertools import product

import pytest

from homspace.abgroups import TRIVIAL_GROUP, AbElement, FgAbGroup, SubgroupPresentation
from homspace.extensions import Character
from homspace.groups import GluingPair, ReductiveModel, SemisimpleModel, pi1, preset
from homspace.intlinalg import IntMatrix
from homspace.invariants import InvariantReport, WeightBrauerTable, invariant_report, weight_brauer_table
from homspace.rootdata import RootDatumSS, SimpleType
from homspace.spec import parse_spec
from oracles import add_characters, identity_matrix, negate_character

# per class, its fields in order, a (name, default) pair for a field that
# has a default
FIELDS = {
    IntMatrix: ("rows", "cols", "entries"),
    FgAbGroup: (("free_rank", 0), ("invariant_factors", ())),
    AbElement: ("group", "coords"),
    Character: ("group", "values"),
    SubgroupPresentation: ("ambient", "computed", "inclusion"),
    SimpleType: ("family", "rank"),
    RootDatumSS: ("factors", "rank", "pq_group", "pq_proj"),
    GluingPair: ("center", "torus"),
    ReductiveModel: ("ss", "torus_rank", "gluing", ("unipotent_dim", 0), ("name", None)),
    SemisimpleModel: ("datum", "kernel"),
    InvariantReport: (
        "pic_lattice", "pic_group", "brauer", "e_al", "pi1_m", "pi2_m", "h2_m", "tors_h3_m", "notes",
    ),
    WeightBrauerTable: ("datum", "dual", "restrictions"),
}
TORUS_DOC = {
    "semisimple": [{"family": "A", "rank": 3}, {"family": "A", "rank": 1}],
    "torus_rank": 2,
    "gluing": [{"center": [1, 1], "torus": ["1/2", "1/3"]}, {"center": [2, 0], "torus": ["0", "3/4"]}],
    "unipotent_dim": 3,
}


def names(cls):
    return [f if isinstance(f, str) else f[0] for f in FIELDS[cls]]


def defaults(cls):
    return [f[1] for f in FIELDS[cls] if not isinstance(f, str)]


def reference(cls):
    """A frozen dataclass of the same name and fields as ``cls``."""
    spec = [(f, object) if isinstance(f, str) else (f[0], object, field(default=f[1])) for f in FIELDS[cls]]
    return make_dataclass(cls.__name__, spec, frozen=True)


def values(record, cls=None):
    return tuple(getattr(record, name) for name in names(cls or type(record)))


def samples():
    """Per class, records of it from presets, a torus spec and a few groups,
    and a rebuilt copy of the first: an equal but distinct object."""
    models = [preset(name) for name in ("GL(4)", "PGL(6)", "SO(8)", "Spin(8)", "SL(1)")]
    models.append(parse_spec(json.dumps(TORUS_DOC)))
    semisimple = [m.derived for m in models]
    chi = Character(FgAbGroup(0, (2, 4)), (Fraction(1, 2), Fraction(3, 4)))
    found = {
        IntMatrix: [IntMatrix(2, 2, [1, 2, 3, 4]), IntMatrix(0, 3, ()), IntMatrix(3, 0, ()), identity_matrix(2)]
        + [m.ss.pq_proj for m in models]
        + [sm.restriction_matrix for sm in semisimple],
        FgAbGroup: [FgAbGroup(), FgAbGroup(2, (3,)), FgAbGroup(0, (2, 4)), FgAbGroup(0, (2, 4))]
        + [pi1(m) for m in models],
        AbElement: [pair.center for m in models for pair in m.gluing],
        Character: [chi, negate_character(chi), add_characters(chi, chi), Character(TRIVIAL_GROUP, ())]
        + [Character(FgAbGroup(0, (2, 4)), (1, 5))]
        + [Character(sm.kernel.computed, tuple(Fraction(1, d) for d in sm.kernel.computed.orders)) for sm in semisimple],
        SubgroupPresentation: [sm.kernel for sm in semisimple],
        SimpleType: [t for m in models for t in m.ss.factors] + [SimpleType("E", 8)],
        RootDatumSS: [m.ss for m in models],
        GluingPair: [pair for m in models for pair in m.gluing],
        ReductiveModel: models,
        SemisimpleModel: semisimple,
        InvariantReport: [invariant_report(m) for m in models],
        WeightBrauerTable: [weight_brauer_table(sm) for sm in semisimple],
    }
    assert set(found) == set(FIELDS)
    for cls, records in found.items():
        records.append(cls(*values(records[0])))
    return found


SAMPLES = samples()


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
class TestAsFrozenDataclass:
    def test_repr_and_hash_are_the_dataclass_ones(self, cls):
        ref = reference(cls)
        for record in SAMPLES[cls]:
            assert repr(record) == repr(ref(*values(record)))
            assert hash(record) == hash(ref(*values(record)))
            assert type(record) is cls

    def test_equality_is_the_dataclass_one(self, cls):
        ref = reference(cls)
        records = SAMPLES[cls]
        assert any(a == b and a is not b for a, b in product(records, repeat=2)), "no equal pair drawn"
        assert any(a != b for a, b in product(records, repeat=2)), "no unequal pair drawn"
        for a, b in product(records, repeat=2):
            ra, rb = ref(*values(a)), ref(*values(b))
            assert (a == b, a != b) == (ra == rb, ra != rb)
            if a == b:
                assert hash(a) == hash(b)
        for record in records:
            # never equal to a record of another class with the same fields
            twin = ref(*values(record))
            assert record != twin and twin != record and not record == twin

    def test_construction_by_position_keyword_and_default(self, cls):
        ref = reference(cls)
        fields = names(cls)
        for record in SAMPLES[cls]:
            given = values(record)
            assert cls(*given) == record and values(cls(*given)) == given
            assert cls(**dict(zip(fields, given))) == record
            required = given[: len(fields) - len(defaults(cls))]
            assert values(cls(*required)) == values(ref(*required), cls) == (*required, *defaults(cls))
            assert repr(cls(*required)) == repr(ref(*required))

    def test_missing_and_unknown_arguments_are_type_errors(self, cls):
        ref = reference(cls)
        fields = names(cls)
        given = values(SAMPLES[cls][0])
        required = len(fields) - len(defaults(cls))
        calls = [
            ((*given, given[0]), {}),  # one positional too many
            (given, {"bogus": 1}),  # an unknown keyword
            (given[1:], {fields[0]: given[0], "bogus": 1}),
            (given, {fields[0]: given[0]}),  # a field given twice
        ]
        if required:
            calls.append((given[: required - 1], {}))  # the last required field missing
            calls.append(((), dict(zip(fields[1:], given[1:]))))  # the first one missing
        for args, kwargs in calls:
            for make in (cls, ref):
                with pytest.raises(TypeError):
                    make(*args, **kwargs)

    def test_assignment_and_deletion_raise_attribute_error(self, cls):
        for record in SAMPLES[cls]:
            before = values(record)
            for name in [*names(cls), "extra"]:
                with pytest.raises(AttributeError):
                    setattr(record, name, 0)
                with pytest.raises(AttributeError):
                    delattr(record, name)
            assert values(record) == before and not hasattr(record, "extra")

    def test_copies_and_pickles_are_equal_records(self, cls):
        for record in SAMPLES[cls]:
            for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
                assert type(twin) is cls and twin == record and repr(twin) == repr(record)


@pytest.mark.parametrize(
    "model",
    [ReductiveModel(*values(m)) for m in SAMPLES[ReductiveModel]]
    + [SemisimpleModel(*values(sm)) for sm in SAMPLES[SemisimpleModel]],
    ids=lambda model: type(model).__name__,
)
def test_cached_properties_are_computed_once_and_kept(model):
    # a fresh model object derives each kept value on its first read, keeps
    # it in its own __dict__, and equals and hashes as before
    kept = {
        ReductiveModel: ("torus_numerators", "gluing_type", "derived"),
        SemisimpleModel: ("restriction_matrix",),
    }[type(model)]
    twin = type(model)(*values(model))
    assert not set(kept) & set(vars(model))
    for name in kept:
        first = getattr(model, name)
        assert getattr(model, name) is first and vars(model)[name] is first
    assert model == twin and hash(model) == hash(twin)
