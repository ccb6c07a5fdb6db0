"""Picard and Brauer invariants of homogeneous spaces G/H.

For G connected, simply connected, semisimple and H closed connected, every
invariant exposed here depends on H alone, so the ambient G is never part of
a query; reports are valid for any admissible ambient group.  The dictionary
is:

* Pic(G/H) is the character group X(H); for reductive H the analytic Picard
  group agrees, while models with a unipotent part only get the algebraic
  statement (the analytic side can genuinely differ there).
* Br(G/H) is Ext^1(pi1(H), Z), which also equals the cohomological and the
  analytic Brauer groups and the torsion of H^3(G/H, Z).
* Central Gm-extensions of H up to Baer sum are the characters of
  pi1 of the derived subgroup, and that same dual group is Pic of H.
* G/H is simply connected with pi2 = pi1(H), so H^2(G/H, Z) is the
  Z-linear dual of pi1(H).

Brauer classes are carried by character data of the torsion of pi1(H); the
geometric realizations behind them (Azumaya algebras, projective-space
fibrations) are deliberately out of scope.

Every group in a report is read off one ``pi1`` result, so the report holds
values and checks nothing.  A model keeps its report in its own
``__dict__``, the store in which ``functools.cached_property`` keeps its
derived groups (``groups`` cannot import this module to declare one), so a
repeated query on one model object reads the report back and no cache is
keyed by a model.  ``pi1`` is Z^r plus pi1 of the derived
subgroup, the kernel of the gluing group's torus projection.  The identities
behind the dictionary are tested by independent routes instead: pi1
against the Z^r-extension of the gluing group and against the span of the
model's own gluing lifts in
``tests/test_groups.py::TestPi1`` and acceptance criterion 6;
Br and Pic(H) against the dual of the kernel on every central quotient of a
simple type in ``tests/test_invariants.py::TestSemisimpleSweep``; Pic(G/H)
against Hom(pi1(H), Z) by cotorsion counts in ``TestReport`` and criterion
6; the weight table in ``TestWeightTable``.

The weight table wraps ``SemisimpleModel.restriction_matrix``, which the
model computes once, as a ``WeightBrauerTable``: row i's weight is the unit
vector e_i and its restriction is column i, so the table builds no
per-weight pairing and takes no normal form.  The table keeps the matrix
with its root datum and dual group and builds no row objects.  The node
labels are the datum's (``RootDatumSS.node_labels``), built once per datum
and kept on it.  The CLI writes the rows straight from the matrix, with
per-table work: one pass over its columns for the restriction texts, and
one precomputed text from which each row's weight is a slice.
"""

from __future__ import annotations

from .abgroups import FgAbGroup, TRIVIAL_GROUP, Z, ext1_z, hom_group
from .groups import ReductiveModel, SemisimpleModel, character_group, pi1
from .intlinalg import IntMatrix, _Record
from .rootdata import RootDatumSS


class InvariantReport(_Record):
    __slots__ = ("pic_lattice", "pic_group", "brauer", "e_al", "pi1_m", "pi2_m", "h2_m", "tors_h3_m", "notes")

    def __init__(
        self,
        pic_lattice: IntMatrix,
        pic_group: FgAbGroup,
        brauer: FgAbGroup,
        e_al: FgAbGroup,
        pi1_m: FgAbGroup,
        pi2_m: FgAbGroup,
        h2_m: FgAbGroup,
        tors_h3_m: FgAbGroup,
        notes: tuple,
    ):
        self._set(pic_lattice, pic_group, brauer, e_al, pi1_m, pi2_m, h2_m, tors_h3_m, notes)


class WeightBrauerTable(_Record):
    """The weight table as the restriction matrix it is read from: one column
    per fundamental weight, one row per canonical generator of ``dual``."""

    __slots__ = ("datum", "dual", "restrictions")

    def __init__(self, datum: RootDatumSS, dual: FgAbGroup, restrictions: IntMatrix):
        self._set(datum, dual, restrictions)

    def columns(self):
        """(node label, restriction coordinates) per fundamental weight, in
        node order, for the text report; the labels are those the root
        datum keeps, and the coordinates are already reduced into [0, m_p).
        The JSON writer reads the labels and the matrix itself, per table."""
        return zip(self.datum.node_labels, map(self.restrictions.column, range(self.datum.rank)))


def brauer(model: ReductiveModel) -> FgAbGroup:
    """Br(G/H) = Ext^1(pi1(H), Z); equals the analytic Brauer group."""
    return ext1_z(pi1(model))


def invariant_report(model: ReductiveModel) -> InvariantReport:
    """All invariants of G/H for one model, with convention notes, kept on
    the model: a repeated query on the same object reads them back."""
    kept = vars(model)
    if "invariant_report" in kept:
        return kept["invariant_report"]
    lattice, pic = character_group(model)
    fundamental = pi1(model)
    torsion = ext1_z(fundamental)
    notes = [
        "results hold for any admissible ambient G (connected, simply connected, semisimple)",
        "brauer group = cohomological = analytic brauer group of G/H",
    ]
    if model.unipotent_dim > 0:
        notes.append(
            "model has a unipotent part: Pic(G/H) is the algebraic Picard group only; "
            "the analytic Picard group may be larger"
        )
    else:
        notes.append("H is reductive: algebraic and analytic Picard groups of G/H agree")
    kept["invariant_report"] = report = InvariantReport(
        pic_lattice=lattice,
        pic_group=pic,
        brauer=torsion,
        e_al=torsion,
        pi1_m=TRIVIAL_GROUP,
        pi2_m=fundamental,
        h2_m=hom_group(fundamental, Z),
        tors_h3_m=torsion,
        notes=tuple(notes),
    )
    return report


def weight_brauer_table(sm: SemisimpleModel) -> WeightBrauerTable:
    """One row per fundamental weight of the simply connected cover: the
    weight's restriction to pi1(H) and the Brauer class it induces.

    The class lives in Ext^1(pi1(H), Z), realized as the dual of the kernel.
    By the round-trip sign convention of docs/conventions.md, the class of
    the extension pulled back along a character is that character, so each
    class is the restriction itself, and no extension is realized.  The
    restrictions generate the full dual, because P -> P/Q -> Hom(pi1(H),
    Q/Z) is onto; the weights pairing trivially are exactly the characters
    of the quotient group.  Both facts, and the round trip of every row
    through the cocycle table of its realized extension (a test oracle),
    are checked by
    ``tests/test_invariants.py::TestWeightTable::test_restrictions_surject_and_kernel_index``.
    """
    return WeightBrauerTable(sm.datum, sm.kernel.computed, sm.restriction_matrix)
