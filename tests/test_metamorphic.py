"""Presentation independence: the invariants depend on H alone, so two spec
documents of one group give the same report.  Each transform rewrites a
document by a random unimodular matrix, drawn from integer row operations,
a permutation and signs:

* a GL_r(Z) change of torus basis maps each torus part t, a row vector,
  to t A mod 1;
* a GL_k(Z) recombination of the gluing generators makes generator i the
  sum over j of B_ij times generator j, center parts combined over Z and
  reduced into the center, torus parts mod 1.

Both keep the group, so every field of the report but the Pic lattice's
basis stays the same, and on the random models the type of the gluing
subgroup too.  The four large-denominator specs (r = 10, ten generators)
are compared on the report only, and no transform adds a generator: the
gluing type's Smith form is the slow part of ``describe`` at many
generators.  The file runs in about 5 s on a 2-core x86 host.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_model
from homspace.invariants import invariant_report
from homspace.rootdata import center
from homspace.spec import model_to_document, parse_spec
from test_cli import LARGE_DENOMINATOR_DIGESTS, large_denominator_spec


@st.composite
def unimodular(draw, n):
    """A random n x n integer matrix of determinant +-1, as a list of rows."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    if n:
        index = st.integers(0, n - 1)
        for i, j, q in draw(st.lists(st.tuples(index, index, st.integers(-3, 3)), max_size=3 * n)):
            if i != j:
                rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    order = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return [[s * x for x in rows[p]] for p, s in zip(order, signs)]


def change_torus_basis(doc, a):
    gluing = []
    for pair in doc["gluing"]:
        t = [Fraction(v) for v in pair["torus"]]
        torus = [sum((t[i] * a[i][j] for i in range(len(t))), Fraction(0)) % 1 for j in range(len(t))]
        gluing.append({"center": pair["center"], "torus": [str(v) for v in torus]})
    return {**doc, "gluing": gluing}


def recombine_generators(doc, b, orders):
    centers = [pair["center"] for pair in doc["gluing"]]
    tori = [[Fraction(v) for v in pair["torus"]] for pair in doc["gluing"]]
    gluing = []
    for row in b:
        c = [sum(q * z[p] for q, z in zip(row, centers)) % d for p, d in enumerate(orders)]
        t = [sum((q * z[p] for q, z in zip(row, tori)), Fraction(0)) % 1 for p in range(doc["torus_rank"])]
        gluing.append({"center": c, "torus": [str(v) for v in t]})
    return {**doc, "gluing": gluing}


def document(model):
    doc = model_to_document(model)
    del doc["name"], doc["preset"]
    return doc


def invariants(doc):
    """Every field of the report but the Pic lattice's basis."""
    report = invariant_report(parse_spec(json.dumps(doc)))
    return {name: getattr(report, name) for name in report._fields if name != "pic_lattice"}


def transformed(data, model):
    """The model's document, and three rewrites of it: the torus basis
    changed, the generators recombined, and both."""
    doc = document(model)
    a = data.draw(unimodular(model.torus_rank), label="A")
    b = data.draw(unimodular(len(model.gluing)), label="B")
    orders = center(model.ss).orders
    rebased = change_torus_basis(doc, a)
    recombined = recombine_generators(doc, b, orders)
    return doc, [rebased, recombined, recombine_generators(rebased, b, orders)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.data())
def test_random_models_keep_their_invariants_and_gluing_type(seed, data):
    model = random_model(random.Random(seed), max_torus=4, max_gluing=3)
    doc, docs = transformed(data, model)
    expected = invariants(doc)
    for twin in docs:
        assert invariants(twin) == expected, twin
        assert parse_spec(json.dumps(twin)).gluing_type == model.gluing_type, twin


@pytest.mark.parametrize("seed", sorted(LARGE_DENOMINATOR_DIGESTS))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_large_denominator_specs_keep_their_invariants(seed, data):
    model = parse_spec(large_denominator_spec(seed))
    doc, docs = transformed(data, model)
    expected = invariants(doc)
    for twin in docs:
        assert invariants(twin) == expected, twin
