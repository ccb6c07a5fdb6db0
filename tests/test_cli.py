import gc
import hashlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
import weakref
from contextlib import redirect_stderr, redirect_stdout
from enum import IntEnum
from fractions import Fraction
from math import prod
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    MIXED_CENTER_PRODUCTS,
    QUOTIENT_SPECS,
    all_subgroups,
    clear_query_caches,
    random_chain,
    random_character_values,
    random_model,
    span_exponent,
)
from homspace import __version__, groups, invariants
from homspace import spec as specmod
from homspace.abgroups import FgAbGroup, subgroup_from_generators
from homspace.cli import CliError, _parse_fraction, json_text, run
from homspace.extensions import Character
from homspace.groups import ReductiveModel, SemisimpleModel, as_semisimple, pi1, preset
from homspace.invariants import weight_brauer_table
from homspace.intlinalg import IntMatrix, format_matrix_literal, parse_matrix_literal, solution_lattice
from homspace.rootdata import RootDatumSS, SimpleType, build_datum, center
from homspace.spec import model_to_document, parse_spec
from oracles import (
    AbElement,
    character_to_extension,
    det,
    exact_span_group,
    fundamental_restrictions,
    fundamental_weight,
    is_zero_element,
    matmul,
    model_from_fractions,
    pi1_extension,
    span_subgroup,
)
from test_acceptance import Budget

REPO = Path(__file__).resolve().parents[1]


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def fresh_interpreter(script, *args, timeout=60):
    """The JSON that ``script`` prints as its last line, run with ``args``
    in a new interpreter that imports homspace from this checkout.  It
    runs with ``-S``: site hooks, which may import modules of their own at
    startup, stay out of the modules a query is seen to load."""
    path = os.pathsep.join(p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, *args],
        capture_output=True, text=True, timeout=timeout, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# runs each argv of the JSON list argv[1] through cli.run in one fresh
# interpreter, and prints each result with the modules loaded after it
RUN_AND_LIST_MODULES = (
    "import io, json, sys\n"
    "from homspace import cli\n"
    "results = []\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    out, err = io.StringIO(), io.StringIO()\n"
    "    code = cli.run(argv, stdout=out, stderr=err)\n"
    "    results.append([code, out.getvalue(), err.getvalue(), sorted(sys.modules)])\n"
    "print(json.dumps(results))\n"
)


class TestParseSpec:
    def test_preset_document(self):
        model = parse_spec('{"preset": "SO(5)"}')
        assert model.name == "SO(5)"
        assert str(model.ss) == "B2"

    def test_explicit_pgl2(self):
        text = '{"semisimple":[{"family":"A","rank":1}],"torus_rank":0,"gluing":[{"center":[1],"torus":[]}]}'
        model = parse_spec(text)
        assert pi1(model) == pi1(preset("PGL(2)"))

    def test_negative_torus_rank(self):
        with pytest.raises(CliError) as info:
            parse_spec('{"torus_rank": -1}')
        assert info.value.where == "/torus_rank"

    def test_unknown_field(self):
        with pytest.raises(CliError) as info:
            parse_spec('{"torus_rnk": 1}')
        assert info.value.where == "/torus_rnk"

    @pytest.mark.parametrize(
        "field, value",
        [("semisimple", 0), ("semisimple", {}), ("semisimple", ""), ("gluing", False), ("torus_rank", False),
         ("unipotent_dim", False)],
    )
    def test_wrong_typed_falsy_field_rejected(self, field, value):
        # only an absent or null field takes the default
        with pytest.raises(CliError) as info:
            parse_spec(json.dumps({field: value}))
        assert (info.value.code, info.value.where) == ("E_SCHEMA", f"/{field}")

    def test_null_fields_take_the_defaults(self):
        fields = ("semisimple", "torus_rank", "gluing", "unipotent_dim")
        assert parse_spec(json.dumps(dict.fromkeys(fields))) == parse_spec("{}")

    def test_preset_xor_explicit(self):
        with pytest.raises(CliError) as info:
            parse_spec('{"preset": "SO(5)", "torus_rank": 1}')
        assert info.value.where == "/preset"

    def test_preset_refuses_a_name(self, tmp_path):
        # "preset" combines with no other field, a name included, rather
        # than answer for the preset and drop the name; a null name is an
        # absent one
        with pytest.raises(CliError) as info:
            parse_spec('{"preset": "SO(8)", "name": "x"}')
        assert (info.value.code, info.value.where) == ("E_SCHEMA", "/preset")
        assert "['name']" in info.value.message
        assert parse_spec('{"preset": "SO(8)", "name": null}') is preset("SO(8)")
        path = tmp_path / "named_preset.json"
        path.write_text('{"preset": "SO(8)", "name": "x"}')
        code, out, err = invoke(["invariants", "--json", "--spec", str(path)])
        assert (code, out) == (1, "") and err.startswith("error[E_SCHEMA] at /preset: ")

    def test_malformed_fraction(self):
        text = '{"semisimple":[{"family":"A","rank":1}],"torus_rank":1,"gluing":[{"center":[1],"torus":["1/x"]}]}'
        with pytest.raises(CliError) as info:
            parse_spec(text)
        assert info.value.code == "E_FRACTION"
        assert info.value.where == "/gluing/0/torus/0"

    def test_unreduced_fraction(self):
        text = '{"semisimple":[{"family":"A","rank":1}],"torus_rank":1,"gluing":[{"center":[1],"torus":["3/2"]}]}'
        with pytest.raises(CliError) as info:
            parse_spec(text)
        assert info.value.code == "E_FRACTION"

    def test_wrong_center_length(self):
        # A1 has center Z/2 and A1 x A2 has Z/6: one coordinate each
        a1, a2 = {"family": "A", "rank": 1}, {"family": "A", "rank": 2}
        for semisimple, coords in (([a1], [1, 0]), ([a1], []), ([a1, a2], [1, 0])):
            doc = {"semisimple": semisimple, "gluing": [{"center": [0], "torus": []}, {"center": coords, "torus": []}]}
            with pytest.raises(CliError) as info:
                parse_spec(json.dumps(doc))
            assert (info.value.code, info.value.where) == ("E_SCHEMA", "/gluing/1/center")

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.data())
    def test_the_document_of_a_model_reads_back(self, data):
        # a library-built model, named or not, is the model that its
        # expanded document states
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        model = random_model(rng, unipotent_dim=data.draw(st.integers(0, 3)))
        name = data.draw(st.none() | st.text())
        model = ReductiveModel(
            model.ss, model.torus_rank, model.torus_denominator, model.gluing, model.unipotent_dim, name
        )
        assert parse_spec(json_text(model_to_document(model))) == model

    @pytest.mark.parametrize("kind", ["SL", "GL", "PGL", "SO", "Sp", "Spin"])
    def test_the_document_of_a_preset_reads_back(self, kind):
        for n in (2, 4, 5, 8, 16) if kind != "Sp" else (2, 4, 8, 16):
            model = preset(f"{kind}({n})")
            assert parse_spec(json_text(model_to_document(model))) == model, model.name

    def test_deep_nesting_is_a_limit(self, tmp_path):
        # valid JSON nested past the decoder's recursion limit meets a limit
        # of the reader: E_LIMIT at the document, not an internal error
        text = '{"name": ' + "[" * 100000 + "]" * 100000 + "}"
        with pytest.raises(CliError) as info:
            parse_spec(text)
        assert (info.value.code, info.value.where) == ("E_LIMIT", "/")
        assert info.value.message == f"the document nests past the recursion limit of {sys.getrecursionlimit()}"
        path = tmp_path / "deep.json"
        path.write_text(text)
        for command in ("describe", "invariants", "weights"):
            code, out, err = invoke([command, "--json", "--spec", str(path)])
            assert (code, out) == (1, ""), (command, err)
            assert err == f"error[E_LIMIT] at /: {info.value.message}\n", command

    def test_round_trip_through_expand(self):
        model = preset("GL(3)")
        text = json.dumps(model_to_document(model))
        again = parse_spec(text)
        assert pi1(again) == pi1(model)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.data())
    def test_expand_round_trip(self, data):
        # center coordinates outside [0, d) and unreduced torus fractions:
        # the expansion states the same model, and the report of the
        # document and of its expansion is the same bytes
        types = data.draw(st.sampled_from(MIXED_CENTER_PRODUCTS))
        orders = center(build_datum(types)).invariant_factors
        r = data.draw(st.integers(0, 3))

        def fraction(den):
            return f"{data.draw(st.integers(0, den - 1))}/{den}"

        doc = {
            "semisimple": [{"family": t.family, "rank": t.rank} for t in types],
            "torus_rank": r,
            "gluing": [
                {
                    "center": [data.draw(st.integers(-3 * d, 3 * d)) for d in orders],
                    "torus": [fraction(data.draw(st.integers(1, 12))) for _ in range(r)],
                }
                for _ in range(data.draw(st.integers(0, 3)))
            ],
        }
        with tempfile.TemporaryDirectory() as tmp:
            spec, expanded = Path(tmp) / "spec.json", Path(tmp) / "expanded.json"
            spec.write_text(json.dumps(doc))
            code, out, err = invoke(["describe", "--expand", "--spec", str(spec)])
            assert code == 0, err
            assert parse_spec(out) == parse_spec(json.dumps(doc))
            expanded.write_text(out)
            reports = [invoke(["invariants", "--json", "--spec", str(path)]) for path in (spec, expanded)]
        assert reports[0] == reports[1] and reports[0][0] == 0, reports[0][2]


# spellings of a torus string next to the plain "a/b" that the reader takes
# by its integer path: zero and repeated denominators, signs, spaces,
# underscores, decimals, exponents, non-ASCII digits and broken forms
FRACTION_SPELLINGS = [
    "1/0", "1/00", "1/-2", "2/4", "03/04", "\u0661/\u0662", "1_0/30", "0.5", "5e-1",
    "0", "1", "3/3", "4/3", "-1/2", " 1/2", "1/", "/2", "", "1/2/3", "\u00bd",
]
# the two spellings past Python's str-to-int digit limit of 4300: one on the
# integer path, one on the Fraction(text) path
DIGIT_LIMIT_FRACTIONS = ["1/" + "7" * 5000, "0." + "3" * 5000]


def assert_reads_like_fraction(text):
    """``_parse_fraction`` returns what ``Fraction(text)`` does where that
    lies in [0, 1), and reports E_FRACTION with the same message otherwise."""
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        expected = None
    if expected is not None and 0 <= expected < 1:
        value = _parse_fraction(text, "/x")
        assert type(value) is Fraction and value == expected, text
        return
    with pytest.raises(CliError) as info:
        _parse_fraction(text, "/x")
    assert (info.value.code, info.value.where) == ("E_FRACTION", "/x"), text
    reason = f"malformed fraction {text!r}" if expected is None else f"fraction {text!r} must be reduced into [0, 1)"
    assert info.value.message == reason


class TestFractionReader:
    def test_spellings_read_like_fraction(self):
        assert len(FRACTION_SPELLINGS) + len(DIGIT_LIMIT_FRACTIONS) == 22
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for text in FRACTION_SPELLINGS + DIGIT_LIMIT_FRACTIONS:
                assert_reads_like_fraction(text)
        finally:
            sys.set_int_max_str_digits(saved)

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(st.text(alphabet=" +-_./e0123456789\u0661", max_size=10))
    def test_short_strings_read_like_fraction(self, text):
        # Fraction(text) computes 10**exponent: keep exponents short
        assume(not re.search(r"e[-+]?[\d_]{4,}", text))
        assert_reads_like_fraction(text)

    @pytest.mark.parametrize(
        "text, expected", [("1e-99999999", "E_LIMIT"), ("0e-99999999", Fraction(0)), ("1e99999999", "E_FRACTION")]
    )
    def test_long_exponents_answer_at_once(self, text, expected, tmp_path):
        # Fraction(text) would raise 10 to the exponent: a 330-million-bit
        # power for the first and last spelling
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            start = time.perf_counter()
            try:
                value = _parse_fraction(text, "/x")
            except CliError as exc:
                assert exc.where == "/x"
                value = exc.code
            assert time.perf_counter() - start < 0.1
            assert value == expected
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"torus_rank": 1, "gluing": [{"center": [], "torus": [text]}]}))
            for argv, where in (
                (["describe", "--json", "--spec", str(spec)], "/gluing/0/torus/0"),
                (["ext", "--json", "--group", "2", "--char", text], "--char"),
            ):
                code, out, err = invoke(argv)
                if expected == 0:
                    assert code == 0, err
                else:
                    assert (code, out) == (1, "")
                    assert err.startswith(f"error[{expected}] at {where}: "), err
        finally:
            sys.set_int_max_str_digits(saved)

    def test_digit_limit_is_a_limit_at_the_json_path(self, tmp_path):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for text in DIGIT_LIMIT_FRACTIONS:
                spec = tmp_path / "spec.json"
                spec.write_text(json.dumps({"torus_rank": 2, "gluing": [{"center": [], "torus": ["1/2", text]}]}))
                code, out, err = invoke(["describe", "--json", "--spec", str(spec)])
                assert (code, out) == (1, "")
                assert err.startswith("error[E_LIMIT] at /gluing/0/torus/1: "), err
        finally:
            sys.set_int_max_str_digits(saved)


def torus_doc(rows, semisimple=()):
    """A spec document of torus rank len(rows[0]) with one gluing
    generator per row, its center part 0."""
    datum = build_datum(tuple(semisimple))
    return {
        "semisimple": [{"family": t.family, "rank": t.rank} for t in semisimple],
        "torus_rank": len(rows[0]) if rows else 0,
        "gluing": [{"center": [0] * center(datum).ngens, "torus": list(row)} for row in rows],
    }


class TestSpellingMemo:
    # parse_spec reads each distinct torus spelling once per document and
    # hands the same value to every entry that repeats it
    @pytest.mark.parametrize("bad", [2, 0, True, None, ["1/2"], {"1/2": 1}])
    def test_non_string_after_a_repeated_spelling_is_a_schema_error(self, bad, tmp_path):
        doc = torus_doc([["1/2", "1/3", "1/2"], ["1/3", "1/2", bad]])
        with pytest.raises(CliError) as info:
            parse_spec(json.dumps(doc))
        assert (info.value.code, info.value.where) == ("E_SCHEMA", "/gluing/1/torus/2")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        code, out, err = invoke(["describe", "--json", "--spec", str(spec)])
        assert (code, out) == (1, "")
        assert err.startswith("error[E_SCHEMA] at /gluing/1/torus/2: "), err

    @pytest.mark.parametrize("bad", ["1/x", "3/2", "-1/2"])
    def test_repeated_bad_spelling_reports_its_first_location(self, bad):
        doc = torus_doc([["1/2", "1/2"], ["1/3", bad], [bad, "1/2"]])
        with pytest.raises(CliError) as info:
            parse_spec(json.dumps(doc))
        assert (info.value.code, info.value.where) == ("E_FRACTION", "/gluing/1/torus/1")

    def test_reader_hands_its_checked_values_to_the_model(self):
        # parse_spec reads each torus value as a Fraction once, and hands
        # the model integer rows over N, the lcm of their denominators
        datum = build_datum((SimpleType("A", 1),))
        rows = [["1/2", "1/3", "0"], ["5/6", "1/2", "0.25"]]
        expected = model_from_fractions(datum, 3, [((0,), tuple(map(Fraction, row))) for row in rows])
        model = parse_spec(json.dumps(torus_doc(rows, (SimpleType("A", 1),))))
        assert model == expected and hash(model) == hash(expected)
        assert (model.torus_denominator, model.gluing) == (12, ((0, 6, 4, 0), (0, 10, 6, 3)))
        assert all(type(v) is int for row in model.gluing for v in row)

    def test_spellings_of_one_value_read_as_one_value(self, tmp_path):
        doc = torus_doc([["2/4", "1/2", "0.5"], ["0.5", "2/4", "1/2"]], (SimpleType("A", 1),))
        model = parse_spec(json.dumps(doc))
        assert (model.torus_denominator, set(model.gluing)) == (2, {(0, 1, 1, 1)})
        assert model == parse_spec(json.dumps(torus_doc([["1/2"] * 3] * 2, (SimpleType("A", 1),))))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        code, out, err = invoke(["describe", "--expand", "--spec", str(spec)])
        assert code == 0, err
        assert [g["torus"] for g in json.loads(out)["gluing"]] == [["1/2"] * 3] * 2

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.data())
    def test_documents_read_like_each_entry_alone(self, data):
        # a document drawn from the spelling list, with repeats, gives the
        # model (or the first error) of reading every entry on its own
        spellings = st.sampled_from(FRACTION_SPELLINGS + ["1/2", "1/3", "2/3", "3/4", "5/6"])
        r = data.draw(st.integers(1, 4))
        rows = data.draw(st.lists(st.lists(spellings, min_size=r, max_size=r), min_size=1, max_size=4))
        text = json.dumps(torus_doc(rows))
        try:
            expected = [
                tuple(_parse_fraction(t, f"/gluing/{i}/torus/{j}") for j, t in enumerate(row))
                for i, row in enumerate(rows)
            ]
        except CliError as first:
            with pytest.raises(CliError) as info:
                parse_spec(text)
            assert (info.value.code, info.value.where, info.value.message) == (first.code, first.where, first.message)
            return
        model = parse_spec(text)
        assert model == model_from_fractions(build_datum(()), r, [((), torus) for torus in expected])
        assert all(type(v) is int for row in model.gluing for v in row)


class TestCommands:
    def test_invariants_so7(self):
        code, out, err = invoke(["invariants", "--preset", "SO(7)"])
        assert code == 0 and not err
        assert "Br(G/H)        = Z/2" in out

    def test_invariants_so2(self):
        code, out, _ = invoke(["invariants", "--preset", "SO(2)"])
        assert code == 0
        assert "Br(G/H)        = 0" in out

    def test_snf_worked_example(self):
        code, out, _ = invoke(["snf", "--matrix", "2,4;6,8"])
        assert code == 0
        assert "D = 2,0;0,4" in out

    def test_snf_json(self):
        code, out, _ = invoke(["snf", "--matrix", "2,4;6,8", "--json"])
        payload = json.loads(out)
        assert payload["d"] == "2,0;0,4"
        assert payload["diagonal"] == [2, 4]

    def test_snf_json_transforms_randomized(self):
        rng = random.Random(21)
        for trial in range(36):
            n = rng.randint(1, 8)
            kind = ("square", "wide", "rank-deficient")[trial % 3]
            cols = n + rng.randint(1, 4) if kind == "wide" else n
            rows = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(n)]
            if kind == "rank-deficient":
                for i in range(n // 2, n):
                    rows[i] = [rng.choice((-1, 1)) * x for x in rows[rng.randrange(n // 2 or 1)]]
            m = IntMatrix.from_rows(rows)
            code, out, err = invoke(["snf", "--json", "--matrix", format_matrix_literal(m)])
            assert code == 0, err
            payload = json.loads(out)
            u, d, v = (parse_matrix_literal(payload[key]) for key in ("u", "d", "v"))
            assert matmul(matmul(u, m), v) == d
            assert abs(det(u)) == abs(det(v)) == 1

    def test_describe_lists_center_orders(self):
        code, out, _ = invoke(["describe", "--preset", "PGL(4)"])
        assert code == 0
        assert "center generator orders: 4" in out

    def test_describe_expand_is_valid_spec(self):
        code, out, _ = invoke(["describe", "--preset", "Spin(8)", "--expand"])
        assert code == 0
        model = parse_spec(out)
        assert model.ss.factors == (SimpleType("D", 4),)

    def test_weights_so7(self):
        code, out, _ = invoke(["weights", "--preset", "SO(7)"])
        assert code == 0
        lines = [l for l in out.splitlines() if "node" in l]
        assert len(lines) == 3
        assert "trivial" in lines[0]
        assert "class" in lines[2]

    def test_weights_rejects_torus(self):
        code, _, err = invoke(["weights", "--preset", "GL(2)"])
        assert code == 1
        assert "E_MODEL" in err

    def test_ext_round_trip(self):
        code, out, _ = invoke(["ext", "--group", "2,4", "--char", "1/2,0"])
        assert code == 0
        assert "round trip: ok" in out

    def test_ext_char_beyond_any_table(self):
        # 2^13 and 2^20 elements: the middle group is one kernel of a hom
        # to a cyclic group, never a table over the group
        for k in (13, 20):
            group = ",".join(["2"] * k)
            char = ",".join(["1/2", "0"] * (k // 2) + ["1/2"] * (k % 2))
            start = time.perf_counter()
            code, out, err = invoke(["ext", "--json", "--group", group, "--char", char])
            assert time.perf_counter() - start < 2.0
            assert code == 0, err
            payload = json.loads(out)
            assert payload["round_trip_ok"] is True
            assert payload["middle_group"] == str(FgAbGroup(1, (2,) * (k - 1)))

    @pytest.mark.parametrize("k", [12, 24, 48])
    def test_ext_char_on_long_chains_answers_within_a_second(self, k):
        # random divisibility chains with ratios below 10^4: reading the
        # class back off a realized extension gave no answer within 40 s at
        # k = 12.  The child process times the command itself, and the
        # timeout fails the test instead of letting it hang.
        rng = random.Random(k)
        group = random_chain(rng, k)
        values = random_character_values(rng, group)
        argv = [
            "ext", "--json",
            "--group", ",".join(map(str, group.invariant_factors)),
            "--char", ",".join(map(str, values)),
        ]
        child = (
            "import io, json, sys, time\n"
            "from homspace.cli import run\n"
            "out, err = io.StringIO(), io.StringIO()\n"
            "start = time.perf_counter()\n"
            "code = run(sys.argv[1:], stdout=out, stderr=err)\n"
            "seconds = time.perf_counter() - start\n"
            "print(json.dumps({'code': code, 'seconds': seconds, 'out': out.getvalue(), 'err': err.getvalue()}))\n"
        )
        result = fresh_interpreter(child, *argv, timeout=10)
        assert result["code"] == 0, result["err"]
        assert result["seconds"] < 1.0, result["seconds"]
        payload = json.loads(result["out"])
        assert payload["round_trip_ok"] is True
        # Z + ker chi, and |ker chi| = |Gamma| / ord(chi)
        free, *torsion = payload["middle_group"].split(" x ")
        assert free == "Z^1"
        assert prod(int(t[2:]) for t in torsion) * payload["character_order"] == group.order()
        if k <= 24:
            # the oracle reads the projection off U^-1, and the Smith row
            # transform U itself blows up on these chains past k = 24
            assert payload["middle_group"] == str(character_to_extension(Character(group, values)).middle)

    def test_ext_bad_chain(self):
        code, _, err = invoke(["ext", "--group", "2,3"])
        assert code == 1
        assert "E_INPUT" in err

    def test_headers_are_bold_on_a_terminal_only(self, monkeypatch):
        # on a terminal the text report's first line, its header, is bold;
        # JSON is never styled, and with HOMSPACE_NO_COLOR set, whatever its
        # value, a terminal gets the bytes a pipe gets
        class Terminal(io.StringIO):
            def isatty(self):
                return True

        def on_terminal(argv):
            out, err = Terminal(), io.StringIO()
            return run(argv, stdout=out, stderr=err), out.getvalue(), err.getvalue()

        monkeypatch.delenv("HOMSPACE_NO_COLOR", raising=False)
        text = [
            ["invariants", "--preset", "SO(8)"],
            ["describe", "--preset", "GL(4)"],
            ["weights", "--preset", "PGL(4)"],
            ["ext", "--group", "2,4", "--char", "1/2,0"],
        ]
        for argv in text:
            code, out, err = invoke(argv)
            header, rest = out.split("\n", 1)
            assert code == 0 and header and rest, err
            assert on_terminal(argv) == (0, f"\x1b[1m{header}\x1b[0m\n{rest}", "")
        for argv in text:
            argv = [*argv, "--json"]
            assert on_terminal(argv) == invoke(argv)
        for value in ("1", ""):
            monkeypatch.setenv("HOMSPACE_NO_COLOR", value)
            for argv in text:
                assert on_terminal(argv) == invoke(argv)

    def test_ext_refuses_an_empty_factor(self):
        # --group splits like --char: an empty item is refused, not
        # dropped, and a blank list is still the trivial group
        for group in ("2,,4", "2,4,"):
            assert invoke(["ext", "--group", group]) == (1, "", f"error[E_INPUT] at --group: bad factor list {group!r}\n")
        for group in ("", " "):
            code, out, err = invoke(["ext", "--json", "--group", group])
            assert (code, err, json.loads(out)["group"]) == (0, "", "0")

    def test_spec_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"preset": "SO(8)", "name": null}')
        code, out, _ = invoke(["invariants", "--spec", str(path), "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["invariants"]["brauer"] == "Z/2"

    def test_missing_model_flags(self):
        code, _, err = invoke(["invariants"])
        assert code == 1
        assert "E_FLAGS" in err

    def test_both_model_flags(self):
        code, _, err = invoke(["invariants", "--preset", "SO(5)", "--spec", "x.json"])
        assert code == 1
        assert "E_FLAGS" in err

    def test_empty_model_flag_values_are_given_values(self):
        # an empty value is still a given flag: it is read, and fails as
        # that flag's input, never as a missing flag
        cases = (
            (
                ["describe", "--preset", "SL(2)", "--spec", ""],
                "error[E_FLAGS] at --preset: --preset and --spec are mutually exclusive\n",
            ),
            (["describe", "--preset", ""], "error[E_PRESET] at --preset: unknown preset ''\n"),
            (
                ["describe", "--spec", ""],
                "error[E_IO] at --spec: cannot read '': [Errno 2] No such file or directory: ''\n",
            ),
        )
        for argv, expected in cases:
            assert invoke(argv) == (1, "", expected), argv

    def test_spec_that_is_not_utf8_is_an_io_error(self, tmp_path):
        # the decoding error is the file's, so it is reported at --spec
        # like any other unreadable file, never at the command's name
        path = tmp_path / "spec.json"
        path.write_bytes(b"\xff\xfe{}")
        for command in ("invariants", "describe", "weights"):
            assert invoke([command, "--spec", str(path)]) == (
                1,
                "",
                f"error[E_IO] at --spec: cannot read {str(path)!r}: "
                "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n",
            )

    def test_unreadable_spec_path_is_quoted(self):
        # quoted, a path with spaces or a colon cannot run into the reason
        assert invoke(["describe", "--spec", "no such dir/spec: 1.json"]) == (
            1,
            "",
            "error[E_IO] at --spec: cannot read 'no such dir/spec: 1.json': "
            "[Errno 2] No such file or directory: 'no such dir/spec: 1.json'\n",
        )

    def test_snf_negative_literal_both_spellings(self):
        spaced = invoke(["snf", "--matrix", "-1,2;3,4", "--json"])
        attached = invoke(["snf", "--matrix=-1,2;3,4", "--json"])
        assert spaced == attached
        assert spaced[0] == 0
        assert json.loads(spaced[1])["matrix"] == "-1,2;3,4"

    def test_large_gluing_order_answers(self, tmp_path):
        # torus point 1/1000003 generates a gluing subgroup of that order
        doc = {"semisimple": [], "torus_rank": 1, "gluing": [{"center": [], "torus": ["1/1000003"]}]}
        path = tmp_path / "big_gluing.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(["describe", "--json", "--spec", str(path)])
        assert code == 0, err
        report = json.loads(out)
        assert (report["gluing_order"], report["pi1"]) == (1000003, "Z^1")
        code, out, err = invoke(["invariants", "--json", "--spec", str(path)])
        assert code == 0, err
        assert json.loads(out)["invariants"]["pic_lattice_basis"] == [[1000003]]

    def test_wide_torus_with_large_denominators_answers(self, tmp_path):
        # A3 x D4 with r generators of denominator 10007: a gluing subgroup
        # of order above 10007^r, whose Z^r-extension Smith form takes
        # seconds from r = 14 on
        def spec(r):
            rng = random.Random(r)
            gluing = [
                {"center": [rng.randrange(4), rng.randrange(2), rng.randrange(2)],
                 "torus": [f"{rng.randrange(10007)}/10007" for _ in range(r)]}
                for _ in range(r)
            ]
            semisimple = [{"family": "A", "rank": 3}, {"family": "D", "rank": 4}]
            return {"semisimple": semisimple, "torus_rank": r, "gluing": gluing}

        model = parse_spec(json.dumps(spec(8)))
        assert pi1(model) == pi1_extension(model)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(spec(20)))
        budget = Budget("describe on A3 x D4, r = 20, denominators 10007", 1.0)
        code, out, err = invoke(["describe", "--json", "--spec", str(path)])
        assert code == 0, err
        budget.done()
        assert json.loads(out)["pi1"].startswith("Z^20")

    def test_snf_digit_limit_is_a_limit(self):
        # diag(2^1100, 3^700) has the 666-digit invariant factor 2^1100 * 3^700
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = invoke(["snf", "--json", "--matrix", f"{2**1100},0;0,{3**700}"])
        finally:
            sys.set_int_max_str_digits(saved)
        assert (code, out) == (1, "")
        assert err.startswith("error[E_LIMIT] at --matrix")
        assert "640 digits" in err

    def test_digit_limit_failures_are_limits(self, tmp_path):
        # valid input that meets Python's int/str digit limit exits E_LIMIT
        # with nothing on stdout, whether the limit is met reading an input
        # integer or printing a report integer
        digits = "7" * 4401
        big = tmp_path / "big.json"
        big.write_text(json.dumps(DIGIT_LIMIT_SPEC))
        frac = tmp_path / "frac.json"
        frac.write_text(json.dumps({"torus_rank": 1, "gluing": [{"center": [], "torus": [f"1/{digits}"]}]}))
        cases = [
            ([command, *fmt, "--spec", str(big)], "--spec")
            for command in ("invariants", "describe")
            for fmt in ([], ["--json"])
        ]
        cases += [
            (["describe", "--spec", str(frac)], "/gluing/0/torus/0"),
            (["ext", "--group", "2", "--char", f"1/{digits}"], "--char"),
            (["ext", "--group", f"2,{digits}"], "--group"),
            (["snf", "--matrix", f"1,{digits}"], "--matrix"),
        ]
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for argv, where in cases:
                code, out, err = invoke(argv)
                assert (code, out) == (1, ""), argv
                assert err.startswith(f"error[E_LIMIT] at {where}: "), (argv, err)
                assert "4300 digits" in err
        finally:
            sys.set_int_max_str_digits(saved)

    def test_describe_expand_spans_nothing(self, monkeypatch, tmp_path):
        # --expand prints the model's document before validate or pi1 would
        # build the gluing span, so it answers where the report cannot
        calls = []
        original = groups.span_group

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(groups, "span_group", counting)
        big = tmp_path / "big.json"
        big.write_text(json.dumps(DIGIT_LIMIT_SPEC))
        small = tmp_path / "torus_r3.json"
        small.write_text(json.dumps(TORUS_R3))
        for source in (["--preset", "GL(3)"], ["--preset", "SO(8)"], ["--spec", str(small)], ["--spec", str(big)]):
            code, out, err = invoke(["describe", "--expand", *source])
            assert code == 0, err
            parse_spec(out)
        assert calls == []

    def test_describe_takes_no_smith_form(self, monkeypatch, tmp_path):
        # the gluing group and the derived kernel are bare types, diagonalized
        # modulo e: once build_datum has taken the root data's Smith forms,
        # describe makes no call to the exact Smith loop at all.  Every
        # module that imported the loop by name gets the counting wrapper
        import homspace

        build_datum((SimpleType("A", 3), SimpleType("A", 1)))
        preset("GL(3)")
        preset("SO(8)")
        calls = []
        original = homspace.intlinalg._snf_transform

        def counting(*args):
            calls.append(args)
            return original(*args)

        for module in vars(homspace).values():
            if getattr(module, "_snf_transform", None) is original:
                monkeypatch.setattr(module, "_snf_transform", counting)
        path = tmp_path / "torus_r3.json"
        path.write_text(json.dumps(TORUS_R3))
        for source in (["--preset", "GL(3)"], ["--preset", "SO(8)"], ["--spec", str(path)]):
            code, out, err = invoke(["describe", "--json", *source])
            assert code == 0, err
            assert json.loads(out)["gluing_order"] >= 2, source
        assert calls == []

    def test_fresh_torus_queries_read_each_spelling_once_and_build_no_hom(self, monkeypatch, tmp_path):
        # with the root datum warm, a fresh torus spec reads each distinct
        # torus spelling once, and a query builds no hom and no
        # SemisimpleModel: pi1 reads the derived kernel as a bare type, and
        # the mod-N torus and character conditions go to the solver as
        # integer rows
        import homspace.abgroups as abmod

        semisimple = (SimpleType("A", 3), SimpleType("D", 4))
        rows = [["1/2", "1/3", "0", "1/2"], ["1/4", "2/3", "1/2", "1/3"], ["0", "1/2", "5/6", "1/4"]]
        doc = torus_doc(rows, semisimple)
        doc["gluing"][0]["center"] = [1, 1, 0]
        doc["gluing"][1]["center"] = [2, 0, 1]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        build_datum(semisimple)
        parsed, homs, models = [], [], []
        original_parse = specmod._parse_fraction
        original_init = SemisimpleModel.__init__

        def counting_parse(text, where):
            parsed.append(text)
            return original_parse(text, where)

        def counting_hom(name):
            original = getattr(abmod, name)

            def counting(*args):
                homs.append(name)
                return original(*args)

            return counting

        def counting_init(self, *args, **kwargs):
            models.append(args)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(specmod, "_parse_fraction", counting_parse)
        for name in ("subgroup_from_generators", "from_presentation"):
            monkeypatch.setattr(abmod, name, counting_hom(name))
        monkeypatch.setattr(groups, "subgroup_from_generators", abmod.subgroup_from_generators)
        monkeypatch.setattr(SemisimpleModel, "__init__", counting_init)
        for command in ("invariants", "describe"):
            clear_query_caches()
            parsed.clear()
            code, out, err = invoke([command, "--json", "--spec", str(path)])
            assert code == 0, err
            assert sorted(parsed) == sorted({t for row in rows for t in row}), command
            assert (homs, models) == ([], []), command
        # the counters see the hom and the model that a derived subgroup builds
        parse_spec(json.dumps(doc)).derived
        assert (homs, len(models)) == (["subgroup_from_generators"], 1)

    def test_usage_error_goes_to_given_stderr(self, capsys):
        code, out, err = invoke(["no-such-command"])
        assert code == 1
        assert not out
        assert "invalid choice" in err
        assert capsys.readouterr() == ("", "")

    def test_text_invariants_build_no_weight_table(self, monkeypatch):
        # text reports never print the table, so only --json builds it;
        # cli reads the table through the invariants module
        calls = []

        def counting(*args):
            calls.append(args)
            return weight_brauer_table(*args)

        monkeypatch.setattr(invariants, "weight_brauer_table", counting)
        for fmt, expected in (([], 0), (["--json"], 1)):
            calls.clear()
            code, _, err = invoke(["invariants", *fmt, "--preset", "SO(8)"])
            assert code == 0, err
            assert len(calls) == expected, fmt

    def test_pi1_computed_once_per_report(self, monkeypatch):
        # cli reads pi1 through the groups module, invariants by the name it
        # imported
        calls = []

        def counting(model):
            calls.append(model)
            return pi1(model)

        monkeypatch.setattr(groups, "pi1", counting)
        monkeypatch.setattr(invariants, "pi1", counting)
        for name in ("GL(3)", "SO(8)"):
            calls.clear()
            code, _, _ = invoke(["invariants", "--json", "--preset", name])
            assert code == 0
            assert len(calls) == 1
            # the repeat reads the cached report
            calls.clear()
            assert invoke(["invariants", "--json", "--preset", name])[0] == 0
            assert calls == []

    def test_queries_span_the_derived_kernel_once(self, monkeypatch, tmp_path):
        # every invariant query takes one span type, the derived kernel's,
        # from the model's own gluing generators, and none spans the
        # gluing group itself: the kernel is spanned in the center, the
        # gluing group in the center times (Z/N)^r, so the orders passed
        # tell the two apart.  The one hom a semisimple query builds is the
        # derived kernel's inclusion, which the weight table reads.
        # Presets go through their spec documents, so the count leaves out
        # the span that builds the SO(n) gluing.
        import homspace.abgroups as abmod

        spans, homs = [], []
        original_span, original_hom = groups.span_group, abmod.subgroup_from_generators

        def counting_span(orders, gens):
            spans.append(tuple(orders))
            return original_span(orders, gens)

        def counting_hom(*args):
            homs.append(args)
            return original_hom(*args)

        monkeypatch.setattr(abmod, "subgroup_from_generators", counting_hom)
        monkeypatch.setattr(groups, "subgroup_from_generators", counting_hom)
        monkeypatch.setattr(groups, "span_group", counting_span)
        docs = {name: model_to_document(preset(name)) for name in ("SO(8)", "PGL(4)", "GL(3)")}
        docs.update(QUOTIENT_SPECS, torus_r3=TORUS_R3)
        for name, doc in docs.items():
            path = tmp_path / "model.json"
            path.write_text(json.dumps(doc))
            kernel_orders = center(parse_spec(json.dumps(doc)).ss).orders
            semisimple = doc["torus_rank"] == 0
            expected = {"invariants": ([kernel_orders], int(semisimple)), "weights": ([], 1)}
            for command in ("invariants", "weights") if semisimple else ("invariants",):
                clear_query_caches()
                spans.clear()
                homs.clear()
                code, _, err = invoke([command, "--json", "--spec", str(path)])
                assert code == 0, err
                assert (spans, len(homs)) == expected[command], (command, name)
                # the repeat reads the cached model, report and table
                spans.clear()
                homs.clear()
                assert invoke([command, "--json", "--spec", str(path)])[0] == 0
                assert (spans, homs) == ([], []), (command, name)

    def test_weight_table_cost_does_not_grow_with_rank(self, monkeypatch):
        # the table is one restriction matrix, built once per query at
        # every rank, never one pairing per row
        import homspace

        calls = []
        original = homspace.rootdata.restriction_matrix

        def counting(*args):
            calls.append(args)
            return original(*args)

        for module in vars(homspace).values():
            if getattr(module, "restriction_matrix", None) is original:
                monkeypatch.setattr(module, "restriction_matrix", counting)
        for command in ("weights", "invariants"):
            for name in ("SL(8)", "SL(128)"):
                clear_query_caches()
                calls.clear()
                code, _, err = invoke([command, "--json", "--preset", name])
                assert code == 0, err
                assert len(calls) == 1, (command, name)
                # the repeat reads the cached table
                calls.clear()
                assert invoke([command, "--json", "--preset", name])[0] == 0
                assert calls == [], (command, name)

    def test_warm_semisimple_queries_take_no_normal_form(self, monkeypatch, tmp_path):
        # once a model has answered, its report is read off what it keeps,
        # plus text: no Smith form, no solution lattice, and no
        # SemisimpleModel built, since the model holds its derived subgroup
        # and that its restriction matrix.  Each model's report and printed
        # fields are dropped after the warm-up, so the counted pass builds
        # each report and table again instead of looking them up; then the
        # preset and spec caches are emptied too, and building each model
        # again takes no normal form either
        import homspace.abgroups as abmod
        import homspace.intlinalg as linmod

        spec = tmp_path / "a2x4.json"
        spec.write_text(json.dumps({
            "semisimple": [{"family": "A", "rank": 2}] * 4,
            "gluing": [{"center": [1, 2, 0, 1], "torus": []}, {"center": [0, 1, 1, 0], "torus": []}],
        }))
        queries = [["invariants", "--json", "--preset", f"{kind}(128)"] for kind in ("SO", "SL", "PGL", "Sp", "Spin")]
        queries.append(["weights", "--json", "--spec", str(spec)])
        for argv in queries:
            assert invoke(argv)[0] == 0
        sources = [SimpleNamespace(**{"preset": None, "spec": None, argv[2][2:]: argv[3]}) for argv in queries]
        models = [specmod._load_model(source) for source in sources]
        for model in models:
            for key in ("invariant_report", specmod._KEPT):
                vars(model).pop(key, None)

        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for module in (abmod, linmod):
            for name in ("_snf_transform", "solution_lattice"):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        monkeypatch.setattr(SemisimpleModel, "__init__", counting("SemisimpleModel.__init__", SemisimpleModel.__init__))
        for argv in queries:
            code, out, err = invoke(argv)
            assert code == 0, err
            assert json.loads(out)
        assert calls == []
        clear_query_caches()
        rebuilt = [specmod._load_model(source) for source in sources]
        assert rebuilt == models and not any(a is b for a, b in zip(rebuilt, models))
        assert calls == []

    def test_torus_queries_build_few_matrices(self, monkeypatch, tmp_path):
        # eliminations hand each other lists of rows: a query builds an
        # IntMatrix only for a Smith loop, which takes one and gives back D
        # and the transform asked for, and for a value that leaves the
        # library.  On a fresh TORUS_R3 model, whose root datum is cached,
        # invariants builds the Pic lattice, the derived kernel's relation
        # matrix, D, V and the kernel's inclusion; describe builds the same
        # but the Pic lattice, plus the gluing type's relation matrix and D
        path = tmp_path / "torus_r3.json"
        path.write_text(json.dumps(TORUS_R3))
        parse_spec(json.dumps(TORUS_R3))
        built = []
        original = IntMatrix.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(IntMatrix, "__init__", counting)
        for command, bound in (("invariants", 5), ("describe", 6)):
            clear_query_caches()
            built.clear()
            code, _, err = invoke([command, "--json", "--spec", str(path)])
            assert code == 0, err
            assert len(built) <= bound, (command, built)

    def test_no_query_takes_the_exact_lattice_route(self, monkeypatch, tmp_path):
        # every solution lattice a query builds has a modulus: no order is 0,
        # so no Hermite elimination runs without one
        import homspace.abgroups as abmod

        seen = []
        original = abmod.solution_lattice

        def checking(m, orders):
            seen.append(tuple(orders))
            return original(m, orders)

        monkeypatch.setattr(abmod, "solution_lattice", checking)
        path = tmp_path / "torus_r3.json"
        path.write_text(json.dumps(TORUS_R3))
        for source in (["--preset", "GL(3)"], ["--preset", "SO(8)"], ["--spec", str(path)]):
            for command in ("describe", "invariants", "weights"):
                code, _, err = invoke([command, "--json", *source])
                assert code == 0 or (command == "weights" and "E_MODEL" in err), err
        code, _, err = invoke(["ext", "--json", "--group", "2,4", "--char", "1/2,3/4"])
        assert code == 0, err
        assert seen
        assert all(all(orders) for orders in seen), [o for o in seen if not all(o)]

    def test_parser_reused_across_calls(self):
        # one parser serves every call: each call's output lands in its own
        # streams and no parsed flag carries over to the next call
        usage = invoke(["no-such-command"])
        version = invoke(["--version"])
        expanded = invoke(["describe", "--expand", "--json", "--preset", "GL(3)"])
        described = invoke(["describe", "--json", "--preset", "GL(3)"])
        assert usage[0] == 1 and not usage[1] and "invalid choice" in usage[2]
        assert version == (0, f"homspace {__version__}\n", "")
        assert expanded[0] == 0 and not expanded[2]
        assert json.loads(expanded[1]) == model_to_document(preset("GL(3)"))
        assert described[0] == 0 and not described[2]
        payload = json.loads(described[1])
        assert payload["model"] == "GL(3)" and payload["pi1"] == "Z^1"


# argv of the dispatch test: a head (a command, none, an unknown or
# abbreviated command, or a flag first) and runs of arguments after it,
# drawn from the head's own flags or from every kind of argument
_MODEL_WORDS = (
    ("--preset", "SO(8)"), ("--pre", "GL(3)"), ("--preset=PGL(2)",), ("--preset", "SO(0)"),
    ("--spec", "no-such-spec.json"), ("--json",), ("--js",),
)
COMMAND_WORDS = {
    "describe": _MODEL_WORDS + (("--expand",), ("--exp",)),
    "invariants": _MODEL_WORDS,
    "weights": _MODEL_WORDS,
    "ext": (("--group", "2,4"), ("--gr=2,4",), ("--char", "1/2,0"), ("--ch", "1/2,1/4"), ("--json",)),
    "snf": (("--matrix", "2,4;6,8"), ("--matrix", "-1,2"), ("--matrix=-1,2;3,4",), ("--mat", "-3"), ("--js",)),
}
DISPATCH_HEADS = tuple((name,) for name in COMMAND_WORDS) + (
    (), ("no-such-command",), ("desc",), ("--json",), ("--version",),
)
DISPATCH_WORDS = tuple(word for words in COMMAND_WORDS.values() for word in words) + (
    ("-h",), ("--help",), ("--version",), ("--ver",),
    ("--bogus",), ("--=x",), ("-x",), ("--",), ("stray",), ("describe",),
    ("--preset",), ("--group",), ("--matrix",), ("--char",),
)
# well-formed queries of every command, with abbreviated and attached flags
WELL_FORMED = (
    ["describe", "--json", "--preset", "GL(3)"],
    ["describe", "--exp", "--pre=SO(5)"],
    ["invariants", "--preset", "SO(8)"],
    ["invariants", "--js", "--preset=SL(4)"],
    ["weights", "--json", "--preset", "Spin(8)"],
    ["ext", "--group", "2,4", "--char", "1/2,3/4", "--json"],
    ["ext", "--gr=4,64"],
    ["snf", "--matrix", "-1,2;3,4", "--json"],
    ["snf", "--mat=2,4;6,8"],
)


def invoke_recording(argv, direct=True):
    """``invoke(argv)`` and the namespaces the commands were given; with
    ``direct`` false every argv goes through the top-level parser.  Nothing
    may reach the process's own streams."""
    import homspace.cli as climod

    seen = []

    def recording(command):
        def wrapper(args, out):
            seen.append(args)
            return command(args, out)

        return wrapper

    stray = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, redirect_stdout(stray), redirect_stderr(stray):
        patch.setattr(climod, "_COMMANDS", {name: recording(fn) for name, fn in climod._COMMANDS.items()})
        if not direct:
            patch.setattr(climod, "_parse_direct", lambda argv: None)
        result = invoke(argv)
    assert not stray.getvalue()
    return result, seen


class TestDispatch:
    @given(st.data())
    @settings(derandomize=True, deadline=None, max_examples=400)
    def test_same_result_as_the_top_level_parser(self, data):
        head = data.draw(st.sampled_from(DISPATCH_HEADS))
        word = st.sampled_from(DISPATCH_WORDS)
        if head and head[0] in COMMAND_WORDS:
            word = st.one_of(st.sampled_from(COMMAND_WORDS[head[0]]), word)
        argv = [*head, *(arg for words in data.draw(st.lists(word, max_size=4)) for arg in words)]
        direct, direct_args = invoke_recording(argv)
        reference, reference_args = invoke_recording(argv, direct=False)
        assert direct == reference
        assert direct_args == reference_args

    def test_well_formed_queries_skip_the_top_level_parser(self):
        # in one fresh interpreter, no well-formed query imports argparse;
        # the first argv that the direct reader leaves over does
        stray = ["describe", "--preset", "GL(3)", "stray"]
        *answers, refused = fresh_interpreter(RUN_AND_LIST_MODULES, json.dumps([*WELL_FORMED, stray]))
        for argv, (code, out, err, modules) in zip(WELL_FORMED, answers):
            assert code == 0 and out and not err, (argv, err)
            assert "argparse" not in modules, argv
        code, out, err, modules = refused
        assert (code, out) == (1, "") and "unrecognized arguments: stray" in err
        assert "argparse" in modules

    def test_near_misses_go_to_the_top_level_parser(self):
        # argv that argparse rejects, or that the reader leaves to argparse
        # although argparse reads it: a switch given a value, a value that
        # starts with "-" or is missing, a flag given twice, a required
        # flag left out, "--" and help.  The direct reader answers none of
        # them, and the run matches the top-level parser's
        import homspace.cli as climod

        near_misses = (
            ["describe", "--json=x", "--preset", "SO(8)"],
            ["describe", "--exp=", "--preset", "SO(8)"],
            ["describe", "--preset", "-x"],
            ["describe", "--preset", "--json"],
            ["invariants", "--preset"],
            ["invariants", "--preset", "SO(8)", "--preset", "GL(3)"],
            ["invariants", "--json", "--js", "--preset", "SO(8)"],
            ["weights", "--preset", "SO(8)", "--", "--json"],
            ["weights", "--preset", "SO(8)", "--he"],
            ["ext", "--group", "-2"],
            ["ext", "--char", "1/2"],
            ["ext", "--gr", "2", "--char", "-1/2"],
            ["snf", "--matrix"],
            ["snf", "--json", "--matrix", "1", "--mat", "2"],
            ["snf", "--matrix", "1", "-1"],
        )
        for argv in near_misses:
            assert climod._parse_direct(climod._attach_matrix_values(argv)) is None, argv
            assert invoke_recording(argv) == invoke_recording(argv, direct=False), argv
        # a prefix of --help too is ambiguous to argparse, so not a spelling
        spellings = climod._spellings((climod._Flag("--hint", True),))
        assert "--h" not in spellings and spellings["--hi"].name == "--hint"

    def test_abbreviated_matrix_takes_a_negative_first_entry(self, monkeypatch):
        import homspace.cli as climod

        for fmt in ([], ["--json"]):
            full = invoke(["snf", *fmt, "--matrix", "-1,2;3,4"])
            assert full[0] == 0 and full[1] and not full[2]
            for spelling in ("--m", "--ma", "--mat", "--matr", "--matri"):
                assert invoke(["snf", *fmt, spelling, "-1,2;3,4"]) == full, spelling
                assert invoke(["snf", spelling, "-1,2;3,4", *fmt]) == full, spelling
        # the other commands have no --matrix: their errors are argparse's
        # own for the argv as given, as before
        usage = "usage: homspace [-h] [--version] {describe,invariants,weights,ext,snf} ...\n"
        for argv, rest in (
            (["ext", "--group", "2", "--mat", "-1,2;3,4"], "--mat -1,2;3,4"),
            (["describe", "--preset", "SO(8)", "--m", "-1,2"], "--m -1,2"),
            (["describe", "--preset", "SO(8)", "--matrix", "-1,2"], "--matrix -1,2"),
            (["invariants", "--mat", "-1,2;3,4"], "--mat -1,2;3,4"),
        ):
            got = invoke(argv)
            assert got == (1, "", f"{usage}homspace: error: unrecognized arguments: {rest}\n"), argv
            with monkeypatch.context() as patch:
                patch.setattr(climod, "_attach_matrix_values", list)
                assert invoke(argv) == got


# the modules that each command leaves unimported in a fresh interpreter:
# snf reads no model layer, ext only abgroups and extensions, and no
# well-formed query builds the argparse parser
_MODEL_LAYERS = tuple(f"homspace.{m}" for m in ("groups", "rootdata", "abgroups", "invariants", "extensions"))
NOT_LOADED = {
    "snf": (*_MODEL_LAYERS, "homspace.spec", "homspace.ext", "fractions", "argparse", "dataclasses", "typing",
            "contextlib"),
    "ext": ("homspace.groups", "homspace.rootdata", "homspace.invariants", "homspace.spec", "argparse", "typing"),
    "describe": ("argparse", "homspace.extensions", "homspace.ext", "typing"),
    "invariants": ("argparse", "homspace.extensions", "homspace.ext", "typing"),
    "weights": ("argparse", "homspace.extensions", "homspace.ext", "typing"),
}


# the standard-library modules that no preset query and no snf query reads:
# the records are not dataclasses, only a spec document is JSON, only the
# spec reader's torus parts and ext make a Fraction (and fractions loads
# decimal and re), since a model keeps its torus parts as integers, the
# GL(n) preset's included, and otherwise only a fraction spelled with an
# exponent reads re
UNREAD = frozenset({"dataclasses", "inspect", "json", "fractions", "decimal", "re"})
MAKES_FRACTIONS = UNREAD - {"fractions", "decimal", "re"}
READS_A_SPEC = frozenset({"dataclasses", "inspect"})

# answers the query given after the script, as the console script does, and
# writes the modules loaded then as the last line of stderr; before the
# query it imports nothing but sys and homspace.cli, so every module listed
# was loaded by the query or by the import of homspace.cli
RUN_AND_LIST_LOADED = (
    "import sys\n"
    "from homspace import cli\n"
    "code = cli.run(sys.argv[1:])\n"
    "sys.stderr.write('\\n' + ' '.join(sorted(sys.modules)))\n"
    "sys.exit(code)\n"
)


def cold_query(argv):
    """(exit code, stdout, stderr, loaded modules) of one query answered by
    a fresh interpreter under ``-S``, as ``fresh_interpreter`` runs one."""
    path = os.pathsep.join(p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", RUN_AND_LIST_LOADED, *argv],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path),
    )
    err, _, modules = proc.stderr.rpartition("\n")
    return proc.returncode, proc.stdout, err, set(modules.split())


class TestColdImports:
    @pytest.mark.parametrize(
        "argv, unread",
        [
            pytest.param(argv, unread, id=" ".join(argv))
            for argv, unread in (
                (["snf", "--matrix", "2,4;6,8"], UNREAD),
                (["snf", "--json", "--matrix", "-1,2;3,4"], UNREAD),
                (["ext", "--json", "--group", "2,4", "--char", "1/2,3/4"], MAKES_FRACTIONS),
                (["ext", "--group", "4,64", "--char", "1/4,5/64"], MAKES_FRACTIONS),
                (["describe", "--json", "--spec", "TORUS_R3"], READS_A_SPEC),
                (["invariants", "--spec", "TORUS_R3"], READS_A_SPEC),
                (["invariants", "--json", "--spec", "TORUS_R3"], READS_A_SPEC),
                (["describe", "--expand", "--preset", "GL(3)"], UNREAD),
                (["invariants", "--json", "--preset", "GL(3)"], UNREAD),
                (["describe", "--expand", "--preset", "SO(8)"], UNREAD),
                *(
                    ([command, *fmt, "--preset", name], UNREAD)
                    for command in ("describe", "invariants", "weights")
                    for fmt in ([], ["--json"])
                    for name in ("PGL(8)", "SO(8)", "Spin(8)", "Sp(6)", "SL(1)")
                    if (command, name) != ("weights", "SL(1)")
                ),
            )
        ],
    )
    def test_a_command_imports_only_the_layers_it_reads(self, argv, unread, tmp_path):
        spec = tmp_path / "torus_r3.json"
        spec.write_text(json.dumps(TORUS_R3))
        argv = [str(spec) if arg == "TORUS_R3" else arg for arg in argv]
        code, out, err, modules = cold_query(argv)
        assert code == 0 and out and not err, err
        assert invoke(argv) == (code, out, err)
        assert "homspace.cli" in modules
        assert not set(NOT_LOADED[argv[0]]) & modules, argv
        assert not unread & modules, sorted(unread & modules)

    def test_public_functions_bind_their_layers_in_a_fresh_interpreter(self):
        # only homspace.spec imported: parse_spec and model_to_document
        # round-trip a torus spec; and with only homspace.cli imported, so
        # that no model layer is loaded, json_text still refuses a float
        round_trip = (
            "import json, sys\n"
            "from homspace import spec\n"
            "from homspace.cli import json_text\n"
            "document = spec.model_to_document(spec.parse_spec(sys.argv[1]))\n"
            "again = spec.model_to_document(spec.parse_spec(json_text(document)))\n"
            "print(json.dumps({'document': document, 'again': again}))\n"
        )
        refusal = (
            "import json, sys\n"
            "from homspace import cli\n"
            "try:\n"
            "    refused = cli.json_text([1.5])\n"
            "except TypeError as exc:\n"
            "    refused = [type(exc).__name__, str(exc)]\n"
            "print(json.dumps({'refused': refused, 'modules': sorted(sys.modules)}))\n"
        )
        result = fresh_interpreter(round_trip, json.dumps(TORUS_R3))
        expected = model_to_document(parse_spec(json.dumps(TORUS_R3)))
        assert result["document"] == result["again"] == expected
        assert expected["gluing"][1]["torus"] == ["1/4", "2/3", "3/4"]
        result = fresh_interpreter(refusal)
        assert result["refused"] == ["TypeError", "Object of type float is not JSON serializable"]
        assert not {*_MODEL_LAYERS, "homspace.spec", "homspace.ext"} & set(result["modules"])


def clear_every_cache():
    clear_query_caches()
    build_datum.cache_clear()


class TestQueryCaches:
    def test_repeats_print_the_cold_bytes(self, tmp_path):
        # every preset kind, each model command and format, specs with and
        # without a torus, and ext: the answer from the caches and from the
        # fields a model keeps is the cold answer, byte for byte
        a2_cubed = {
            "semisimple": [{"family": "A", "rank": 2}] * 3,
            "gluing": [{"center": [1, 1, 1], "torus": []}, {"center": [0, 1, 2], "torus": []}],
        }
        sources = []
        for kind in ("SL", "GL", "PGL", "SO", "Sp", "Spin"):
            sources += [["--preset", f"{kind}({n})"] for n in ((2, 3, 4, 5, 8, 16) if kind != "Sp" else (2, 4, 8, 16))]
        for name, doc in (("quotient", QUOTIENT_SPECS["A1^8/Z2^3"]), ("a2_cubed", a2_cubed), ("torus_r3", TORUS_R3)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            sources.append(["--spec", str(path)])
        queries = [
            [command, *fmt, *source]
            for source in sources
            for command in ("describe", "invariants", "weights")
            for fmt in ([], ["--json"])
        ]
        queries += [["ext", *fmt, "--group", "2,4", "--char", "1/2,1/4"] for fmt in ([], ["--json"])]
        for argv in queries:
            clear_every_cache()
            cold = invoke(argv)
            assert invoke(argv) == cold, argv
            # weights refuses the models with a torus; everything else answers
            assert (cold[0] == 0 and cold[1]) or (argv[0] == "weights" and "E_MODEL" in cold[2]), (argv, cold)

    def test_repeats_get_the_same_model(self):
        assert groups.preset("SO(8)") is groups.preset("SO(8)")
        text = json.dumps(QUOTIENT_SPECS["A2^5/Z3^2"])
        limit = sys.get_int_max_str_digits()
        model = specmod._spec_model(text, limit)
        assert specmod._spec_model(text, limit) is model
        assert invariants.invariant_report(model) is invariants.invariant_report(model)
        assert as_semisimple(model) is as_semisimple(model)
        table = weight_brauer_table(as_semisimple(model))
        assert weight_brauer_table(as_semisimple(model)) == table
        assert weight_brauer_table(as_semisimple(model)).restrictions is table.restrictions

    def test_repeats_build_no_semisimple_model(self, monkeypatch, tmp_path):
        # a model keeps its derived SemisimpleModel: a repeated model gets
        # the same object back, and a warm weights query constructs none
        assert as_semisimple(preset("PGL(4)")) is as_semisimple(preset("PGL(4)"))
        spec = tmp_path / "quotient.json"
        spec.write_text(json.dumps(QUOTIENT_SPECS["A1^8/Z2^3"]))
        argv = ["weights", "--json", "--spec", str(spec)]
        cold = invoke(argv)
        assert cold[0] == 0, cold
        built = []
        original = SemisimpleModel.__init__

        def counting(sm, datum, kernel):
            built.append(datum)
            original(sm, datum, kernel)

        monkeypatch.setattr(SemisimpleModel, "__init__", counting)
        assert invoke(argv) == cold
        assert built == []

    def test_repeated_table_lookups_hash_no_group(self, monkeypatch):
        # a repeated weight table of one model reads the restriction matrix
        # that its SemisimpleModel keeps, and hashes neither the datum nor
        # the kernel's type on the way
        model = parse_spec(json.dumps(QUOTIENT_SPECS["A1^8/Z2^3"]))
        table = weight_brauer_table(as_semisimple(model))
        calls = []
        original = FgAbGroup.__hash__

        def counting(group):
            calls.append(group)
            return original(group)

        monkeypatch.setattr(FgAbGroup, "__hash__", counting)
        for _ in range(3):
            assert weight_brauer_table(as_semisimple(model)).restrictions is table.restrictions
        assert calls == []

    def test_spec_cache_keys_on_the_document(self, tmp_path):
        # the same path rewritten with another document gives that
        # document's answer
        path = tmp_path / "model.json"
        first, second = QUOTIENT_SPECS["A1^8/Z2^3"], QUOTIENT_SPECS["A2^5/Z3^2"]
        for doc in (first, second, first):
            path.write_text(json.dumps(doc))
            warm = invoke(["weights", "--json", "--spec", str(path)])
            clear_every_cache()
            assert warm == invoke(["weights", "--json", "--spec", str(path)])
            assert warm[0] == 0
            assert len(json.loads(warm[1])["rows"]) == sum(f["rank"] for f in doc["semisimple"])
        path.write_text(json.dumps({"torus_rank": 1, "gluing": [{"center": [], "torus": ["1/2"]}]}))
        assert json.loads(invoke(["describe", "--json", "--spec", str(path)])[1])["torus_rank"] == 1
        path.write_text("{")
        code, out, err = invoke(["describe", "--json", "--spec", str(path)])
        assert (code, out) == (1, "") and err.startswith("error[E_JSON] at /: ")

    def test_large_documents_are_not_kept(self, tmp_path):
        # a cache entry keeps its document's text alive, so a document past
        # 64 KiB is parsed on every query: eight unique 1 MiB documents (one
        # model padded with whitespace) leave under 1 MiB behind, and a
        # repeated small document still gets the same model back
        text = json.dumps(QUOTIENT_SPECS["A1^8/Z2^3"])
        path = tmp_path / "model.json"
        argv = ["describe", "--json", "--spec", str(path)]
        path.write_text(text)
        warm = invoke(argv)
        assert warm[0] == 0, warm[2]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(8):
                path.write_text(text + " " * (2**20 + i))
                assert invoke(argv) == warm
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 2**20, retained
        args = SimpleNamespace(preset=None, spec=str(path))
        path.write_text(text)
        assert specmod._load_model(args) is specmod._load_model(args)

    def test_an_evicted_model_is_freed(self, tmp_path):
        # 301 unique torus documents outrun the spec cache (256 entries);
        # nothing else keeps a model, so the first one is freed once it has
        # dropped it
        path = tmp_path / "torus.json"
        limit = sys.get_int_max_str_digits()
        first = None
        for k in range(2, 303):
            text = json.dumps({"torus_rank": 1, "gluing": [{"center": [], "torus": [f"1/{k}"]}]})
            path.write_text(text)
            code, out, err = invoke(["invariants", "--json", "--spec", str(path)])
            assert code == 0 and json.loads(out)["invariants"]["pic_group"] == "Z^1", err
            if first is None:
                first = weakref.ref(specmod._spec_model(text, limit))
                assert (first().torus_denominator, first().gluing) == (2, ((1,),))
        gc.collect()
        assert first() is None

    def test_a_model_is_freed_after_its_report(self):
        # the report is kept on the model, not in a cache keyed by it: a
        # model built directly, neither a preset nor a spec, is freed once
        # its caller drops it
        datum = build_datum((SimpleType("A", 3),))
        model = ReductiveModel(datum, 1, 4, ((1, 1),))
        report = invariants.invariant_report(model)
        assert invariants.invariant_report(model) is report and str(report.pic_group) == "Z^1"
        kept = weakref.ref(model)
        del model
        gc.collect()
        assert kept() is None

    def test_no_query_hashes_a_model(self, monkeypatch, tmp_path):
        # no cache is keyed by a model or by what it is built from, so no
        # query, cold or repeated, hashes a model, a root datum or a
        # semisimple model
        def refuse(value):
            raise AssertionError(f"{type(value).__name__} hashed")

        for cls in (ReductiveModel, RootDatumSS, SemisimpleModel):
            monkeypatch.setattr(cls, "__hash__", refuse)
        quotient, torus = tmp_path / "quotient.json", tmp_path / "torus.json"
        quotient.write_text(json.dumps(QUOTIENT_SPECS["A2^5/Z3^2"]))
        torus.write_text(json.dumps(TORUS_R3))
        sources = (["--preset", "SO(8)"], ["--preset", "GL(4)"], ["--spec", str(quotient)], ["--spec", str(torus)])
        for source in sources:
            semisimple = source[1] in ("SO(8)", str(quotient))
            for command in (["invariants"], ["invariants", "--json"], ["weights", "--json"], ["describe", "--json"]):
                if command[0] == "weights" and not semisimple:
                    continue
                for _ in range(2):
                    code, out, err = invoke([*command, *source])
                    assert code == 0 and out and not err, (command, source, err)

    def test_a_repeat_rebuilds_nothing(self, monkeypatch, tmp_path):
        # a repeated query writes what the first one kept: no group is
        # printed again and no middle group computed again
        import homspace.extensions as extmod

        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(FgAbGroup, "__str__", counting("FgAbGroup.__str__", FgAbGroup.__str__))
        monkeypatch.setattr(extmod, "middle_group", counting("middle_group", extmod.middle_group))
        spec = tmp_path / "quotient.json"
        spec.write_text(json.dumps(QUOTIENT_SPECS["A2^5/Z3^2"]))
        for argv in (
            ["invariants", "--json", "--preset", "SL(4)"],
            ["weights", "--json", "--spec", str(spec)],
            ["ext", "--json", "--group", "2,4,16", "--char", "1/2,3/4,7/16"],
        ):
            calls.clear()
            first = invoke(argv)
            assert first[0] == 0 and calls, (argv, first[2])
            calls.clear()
            assert invoke(argv) == first
            assert calls == [], argv

    def test_node_labels_are_built_once_per_datum(self):
        # the labels are kept on the root datum, which build_datum keeps:
        # every model of that datum, preset or spec, reads the same tuple
        labels = preset("SL(8)").ss.node_labels
        assert labels == tuple(f"A7:{i}" for i in range(1, 8))
        a7_quotient = {"semisimple": [{"family": "A", "rank": 7}], "gluing": [{"center": [2], "torus": []}]}
        assert preset("PGL(8)").ss.node_labels is labels
        assert parse_spec(json.dumps(a7_quotient)).ss.node_labels is labels
        # the kept labels are no field: a datum built apart, labels not yet
        # read, equals the one that keeps them
        build_datum.cache_clear()
        datum = build_datum((SimpleType("A", 7),))
        assert "node_labels" not in vars(datum)
        assert datum == preset("SL(8)").ss and hash(datum) == hash(preset("SL(8)").ss)
        assert datum.node_labels == labels and datum.node_labels is not labels

    def test_a_repeated_table_builds_no_label(self, monkeypatch, tmp_path):
        # a second weights --json on a kept model writes its table from the
        # labels its datum keeps: no SimpleType is printed again, and the
        # label builder is that method's only caller on the query path
        calls = []
        original = SimpleType.__str__

        def counting(t):
            calls.append(t)
            return original(t)

        monkeypatch.setattr(SimpleType, "__str__", counting)
        spec = tmp_path / "quotient.json"
        spec.write_text(json.dumps(QUOTIENT_SPECS["A2^5/Z3^2"]))
        for source in (["--preset", "Spin(12)"], ["--spec", str(spec)]):
            argv = ["weights", "--json", *source]
            clear_every_cache()
            first = invoke(argv)
            assert first[0] == 0 and calls, (argv, first[2])
            calls.clear()
            assert invoke(argv) == first
            assert calls == [], argv

    def test_a_kept_answer_never_outlives_its_digit_limit(self):
        # an ext answer kept under one digit limit is not read under a lower
        # one: there the query fails as a fresh process does, reading the
        # group
        big = str(10**1000)
        saved = sys.get_int_max_str_digits()
        argv = ["ext", "--json", "--group", big, "--char", "0"]
        try:
            sys.set_int_max_str_digits(4300)
            code, out, err = invoke(argv)
            assert code == 0 and json.loads(out)["group"] == f"Z/{big}", err
            sys.set_int_max_str_digits(640)
            assert invoke(argv) == (
                1,
                "",
                "error[E_LIMIT] at --group: an integer exceeds the str-to-int limit of 640 digits "
                "(sys.get_int_max_str_digits())\n",
            )
        finally:
            sys.set_int_max_str_digits(saved)

    def test_kept_model_fields_never_outlive_their_digit_limit(self, monkeypatch):
        # the fields a model keeps are tagged with the digit limit they were
        # written under: the same model object, queried under another limit,
        # builds them again, and under a limit that its answer exceeds fails
        # as a fresh model does.  Its Pic lattice rows hold 10^700, which
        # prints in 701 digits
        doc = {"torus_rank": 1, "gluing": [{"center": [], "torus": [f"1/{10**700}"]}]}
        saved = sys.get_int_max_str_digits()
        calls = []
        original = FgAbGroup.__str__

        def counting(group):
            calls.append(group)
            return original(group)

        monkeypatch.setattr(FgAbGroup, "__str__", counting)
        argv = ["invariants", "--preset", "big"]
        try:
            sys.set_int_max_str_digits(4300)
            model = parse_spec(json.dumps(doc))
            monkeypatch.setattr(groups, "preset", lambda name: model)
            first = invoke(argv)
            assert first[0] == 0 and str(10**700) in first[1], first[2]
            calls.clear()
            assert invoke(argv) == first and calls == []
            sys.set_int_max_str_digits(4299)
            assert invoke(argv) == first and calls
            sys.set_int_max_str_digits(640)
            kept = invoke(argv)
            # a fresh model of the same document, which keeps nothing yet
            sys.set_int_max_str_digits(4300)
            fresh_model = parse_spec(json.dumps(doc))
            monkeypatch.setattr(groups, "preset", lambda name: fresh_model)
            sys.set_int_max_str_digits(640)
            fresh = invoke(argv)
        finally:
            sys.set_int_max_str_digits(saved)
        assert kept == fresh == (
            1,
            "",
            "error[E_LIMIT] at --preset: an integer of the report exceeds the int-to-str limit of 640 digits "
            "(sys.get_int_max_str_digits())\n",
        )

    def test_large_ext_texts_are_not_kept(self):
        # an ext entry keeps its texts alive, so texts past 64 KiB together
        # are answered on every query and never kept
        from homspace import ext

        padded = invoke(["ext", "--json", "--group", "2" + " " * 2**16, "--char", "1/2"])
        assert padded == invoke(["ext", "--json", "--group", "2", "--char", "1/2"])
        assert padded[0] == 0 and ext._payload.cache_info().currsize == 1


class TestWeightsPathScale:
    def test_a1_13_modulo_center(self, tmp_path):
        # 2^13 exceeds the cocycle table cap, which the weights path must not reach
        k = 13
        doc = {
            "semisimple": [{"family": "A", "rank": 1}] * k,
            "torus_rank": 0,
            "gluing": [{"center": [int(i == j) for j in range(k)], "torus": []} for i in range(k)],
        }
        path = tmp_path / "a1_13.json"
        path.write_text(json.dumps(doc))
        brauer = str(FgAbGroup(0, (2,) * k))
        start = time.perf_counter()
        code, out, err = invoke(["weights", "--json", "--spec", str(path)])
        assert code == 0, err
        assert json.loads(out)["brauer"] == brauer
        code, out, err = invoke(["invariants", "--json", "--spec", str(path)])
        assert code == 0, err
        assert json.loads(out)["invariants"]["brauer"] == brauer
        assert time.perf_counter() - start < 5.0


# SHA-256 of stdout: any change to these bytes is a change of the report format
PINNED_REPORTS = {
    ("invariants", "PGL(6)"): "ddf3ec1e7d910c2b11e89c6a60b17eb873199412ceb196a3319b88b3acd61853",
    ("invariants", "SO(8)"): "44bf78dfd16827bee6fd5bef6d97ee55b251b9affe4dd697080c05224f924798",
    ("invariants", "Spin(8)"): "e96bfa636587f3758b8cc5af9060865ba20b193123a13fdf1973fdfcdf4d2122",
    ("invariants", "Sp(6)"): "83509d0bbab91bf7c18f33cfbf3bf4626218365b970fff81e243543abe2618fc",
    ("weights", "SO(9)"): "27e2b2290a4378794913b7f01442bb10942f53cf80993b91da73f645ec219c4f",
    ("weights", "PGL(4)"): "f7f08be04f2e73f0938fb3d767cb1180cfdb9a153820ac4e34035cd0f2379aeb",
    ("invariants", "GL(4)"): "73a69c8bcac1778ee0b87878f2e446f94c119e5e8d921fd53f3f3713e855832e",
    ("describe", "GL(4)"): "6a03409977ddc413a08d00bb2d9864b57fa0d98ff9b280dcd9a4bf649e0a6d53",
    ("invariants", "torus-r3"): "dd685284e9074dc5ba368a520dadeea669d3995d8b77833243906ddb6d423421",
    ("describe", "torus-r3"): "73dbfd7513b8429064d8b888d1cd38adf8c387e0f3e6de93076fd201c3d605be",
    ("snf", "square"): "52fd0b97accf921eab6a0681d6a9abb87140f70cac8033ed641fbcee3053903d",
    ("snf", "wide"): "d364705b1627f4d105c1d236fc1d286443d6356423a3984c67d6558619468b18",
    ("snf", "rank-deficient"): "a27aa1b3f859e91c22562a26234a617ea145527b121f90c56ae8429f5e02f56c",
    ("snf", "fold"): "1065f78e41f936365f10da793552810d2bff3ba9f7d7cd9c55abf048f6963feb",
    ("snf", "square-8"): "a776679da054fad27c90022c26e175e4d19c917860e3784029c67464f867d725",
    ("snf", "wide-10x14"): "21c0ed1707e6a95be295a93497ce887a34dd60839d2af166af99ff6e85baee1d",
    ("snf", "deficient-12"): "a83b06d094259371696abd48cd95ddeed3f22da48217289585a03b826b10dd33",
    ("snf", "square-20"): "e0aac8a992fab30bc1f228de3fa8402f23bb9e4ced21ac73027d8d1d1ae61667",
    ("describe", "SO(8)"): "3a609ac36210a96a8cd9866a8f9866bbc0bfb7c62bb964fbe0bd886d4e632c4d",
    ("describe", "PGL(6)"): "ce78b08185157d3e5ce4dd9c1e28f5dd194cd8b0785a33eea0fcec4b7d210e45",
    ("weights", "PGL(12)"): "1f68deace68814a522e47d16311a08f281198abd23f766044d71b02f2be2550a",
    ("ext", "16,16"): "416944fe1472399b51256804c3ae4d6c21e2e77756cc909bc6c2032aa5a3ec05",
    ("ext", "2,4,16"): "8c52f1353eab2f7f4d0210528c34a842d8774f1b2eb7525fdf55880284eff757",
    ("ext", "2,2,2,2,2,2,2,2"): "57dcfa6672470af6fc09beaae2c40432f8761f03cb0a3bd7fa24a2c0503799a9",
    ("ext", "4,64"): "4f98408b23d2ca0bc6613b013775e8b395c64ffede046dcaa53dcd83b8851789",
    ("ext text", "16,16"): "173df2acdd2e3d3dabf13c25ff63f0f5516804021475cc6423e0d6992b54443a",
    ("ext text", "2,4,16"): "da568552165198b153870c2a4bd6b1d88bbd00e7de0831f71aad278d15a12a4f",
    ("ext text", "2,2,2,2,2,2,2,2"): "a6681573fc1b5c23c5006db0d3da0d40f779c9547042de9686c9c6104236412b",
    ("ext text", "4,64"): "5383604574dfad233d8afcdbbbe700ef72f81b6c771350944a70933d5efbfef2",
    ("describe", "cliff-A7xD5-r22"): "c83ce6dab63e020cdce640fa7cdc8381452066b960f3c3993fe86265b22363e1",
    ("invariants", "cliff-A7xD5-r30"): "8269aa951aa49d5c162e93bffe341cfa9e29407a0f42beff6d88c2c0920ae531",
    ("invariants", "cliff-A5xD6xE7-r30"): "b6bb01158b165cc829f156abe1aa5808a2a35f81ac4c9f160d4b8ece033794a8",
    ("describe", "cliff-A7xD5-r28-wide"): "6ce93e6521ee72de8247bd1c40a4ef28be24653d2590ccd65b7eb04174b82da6",
    ("invariants", "SO(128)"): "c66538a91775cd8cefc58e1415f3b6e7b622802e95e9bc02c49ccea62238c8b7",
    ("invariants", "SL(128)"): "2d173b0a8758d5eadbbb0af50887cc61bd22b7e4909f1c0eab64e6c97b8fe8d7",
    ("invariants", "Sp(96)"): "3256d59f5dfc3650fede29a5caca663b935cd37339f3edfdad1911f02269d796",
    ("invariants", "Spin(96)"): "0e808844443d9101f77446d1ce3a99f2213daae7de3f956d68c91adc8902cf70",
    ("invariants", "PGL(64)"): "c401f6c9f976efd8bf13ad8699f311337d9e712254e56d0bb0654f5356647771",
    ("weights", "A1^8/Z2^3"): "95648e0a4343fe7ff8ab15f8cba1e1662a6ddb62671eebbc574962ef2c2be9de",
    ("weights", "A2^5/Z3^2"): "74be99eeaef20054c2ee94d86e94a3de63dad0d20649a72959ee8bc36e1a0bec",
    ("describe --expand", "GL(3)"): "984acf202494d02b1cdb4f7f113fb39c88f298e50d51f43f771bd902de2759c3",
    ("describe --expand", "SO(8)"): "b51de2f8348e1b6ed64b19331f9d7846e77050d2b7dd1bffac3a01812ed28654",
    ("describe --expand", "PGL(4)"): "e36c7c6e0d1c686e72650575928bdd7ffa43e872d628382f00a5758c429686fc",
    ("describe --expand", "torus-r3"): "88891a282242da26dde8ed5fecd80a91c7899f191b337c7f2ddc60ff311a7b86",
    ("weights text", "SO(9)"): "3c8f2f31a68f879403b32831588e12a76b39b2c0899fdb4d4b30669dfaa26566",
    ("weights text", "PGL(12)"): "436c5679575fbb3723c727f834ef897ad389f069d3721abc130364c192969f7e",
    ("weights text", "A1^8/Z2^3"): "2858f869a6be2b6a1df402e0725d09fe5a24751f58234c118a7a39ac91d27edd",
    ("invariants text", "SO(8)"): "c9f6efb10b9b68320208e34b88e6be33ff52260f9f06791b2d3f9e6867b4a80a",
    ("describe", "named-D4/Z2"): "a3812c903abfc000d7dde4e90ffe571c7192dc685f81da97f768856f29171e89",
    ("describe text", "GL(4)"): "366009eabe8fe0ef6ffcf01fd7f652e517b99b8e1f1b64e088cb6e079c396093",
    ("describe text", "PGL(6)"): "dfa75a4615da80c9542ec64b8f14c2325bade2e18a278ef4555a2005bb59049f",
    ("describe text", "SO(8)"): "61d0b6404cd3401ce0b4a124b1a405213b1f4296a79ee3d0b7fe6156b5edf239",
    ("describe text", "cliff-A7xD5-r22"): "8d91bec4dec0eedc5aca3a592c6072c9f9c9a8c1ff0394edc3c11ddee10d0efa",
    ("describe text", "cliff-A7xD5-r28-wide"): "5e227cb31ec349ee626d6d7b7199ec3c15001a457bcfba08b65c82996e7816ab",
    ("describe text", "named-D4/Z2"): "1ee214d267178c9ad1b620736b982e4a603ea41a720c1c3d12fe5a76a0f3aefd",
    ("describe text", "torus-r3"): "2e2bcedd6bcd4799ac1442ef14bb5d698934c3b4c533d2d382e1c857032c8cdc",
    ("invariants", "named-D4/Z2"): "d7bd42e9c0f8b5d38b9a1fa04fd95dce7c0f8075fc8be8fad0da54979ac7dba6",
    ("invariants", "wide-A7xD5-r32"): "161ceaf45160cf7e5c34360e26f545498c12704adfeacb9c1ff47c565ec40836",
    ("invariants", "wide-A5xD6xE7-r48"): "75467f54f758e0eab8e7d54ffe94b836767964ebb0ab5903dc69e07ed84823cb",
    ("invariants", "wide-A3xA3xD4-r64"): "7e6928cb1c6436e5fd3df7acd1592a6b4ef74c317028203bf52b657d47b51a75",
}
# torus rank 3, two gluing generators, torus denominators 2, 3 and 4
TORUS_R3 = {
    "semisimple": [{"family": "A", "rank": 3}, {"family": "A", "rank": 1}],
    "torus_rank": 3,
    "gluing": [
        {"center": [1, 1], "torus": ["1/2", "1/3", "0"]},
        {"center": [0, 2], "torus": ["1/4", "2/3", "3/4"]},
    ],
}
# torus rank 1 and five gluing generators whose torus denominators 2^3400,
# 3^2100, 5^1450, 7^1200 and 11^980 each print in under 1100 digits, while
# N, their lcm, has about 5100: past the default int-to-str limit of 4300
DIGIT_LIMIT_SPEC = {
    "semisimple": [],
    "torus_rank": 1,
    "gluing": [
        {"center": [], "torus": [f"1/{p ** k}"]} for p, k in ((2, 3400), (3, 2100), (5, 1450), (7, 1200), (11, 980))
    ],
}
# ext --group G --char chi, as --json and as text
PINNED_CHARACTERS = {
    "16,16": "3/16,5/8",
    "2,4,16": "1/2,3/4,7/16",
    "2,2,2,2,2,2,2,2": "1/2,0,1/2,1/2,0,0,1/2,1/2",
    "4,64": "1/4,5/64",
}
# wide-torus models that took seconds to minutes at some point: the first
# three, with four gluing generators, took 4.5-6 s each when the span
# inverted the Smith transform by a second Hermite form and solution lattices
# went through a Smith kernel; the wide one, with 40 gluing generators that
# are combinations of 6, when pi1 was the exact span of those 40 lifts; the
# last three, r = 32 to 64 with four generators, pin the Pic lattices of wide
# tori, whose mod-e solution lattices are 4 x r:
# (command, factors, torus rank, seed, base generators, combinations)
CLIFF_MODELS = {
    "cliff-A7xD5-r22": ("describe", (("A", 7), ("D", 5)), 22, "torus-probe:10", 4, 0),
    "cliff-A7xD5-r30": ("invariants", (("A", 7), ("D", 5)), 30, "torus-cliff:A7xD5:30:5", 4, 0),
    "cliff-A5xD6xE7-r30": ("invariants", (("A", 5), ("D", 6), ("E", 7)), 30, "torus-cliff:A5xD6xE7:30:7", 4, 0),
    "cliff-A7xD5-r28-wide": ("describe", (("A", 7), ("D", 5)), 28, "torus-wide:A7xD5:28:5", 6, 40),
    "wide-A7xD5-r32": ("invariants", (("A", 7), ("D", 5)), 32, "torus-wide:A7xD5:32:4", 4, 0),
    "wide-A5xD6xE7-r48": ("invariants", (("A", 5), ("D", 6), ("E", 7)), 48, "torus-wide:A5xD6xE7:48:4", 4, 0),
    "wide-A3xA3xD4-r64": ("invariants", (("A", 3), ("A", 3), ("D", 4)), 64, "torus-wide:A3xA3xD4:64:4", 4, 0),
}


def cliff_spec(name):
    """The group-spec document of a cliff model: base gluing generators with
    random center coefficients and torus denominators in {2, 3, 4, 6} or,
    when combinations are asked for, that many random integer combinations
    of them."""
    _, factors, r, seed, nbase, ncombos = CLIFF_MODELS[name]
    rng = random.Random(seed)
    orders = build_datum(tuple(SimpleType(f, n) for f, n in factors)).pq_group.invariant_factors
    base = []
    for _ in range(nbase):
        center = [rng.randrange(d) for d in orders]
        torus = []
        shared = rng.choice((2, 3, 4, 6)) if ncombos else None
        for _ in range(r):
            den = shared or rng.choice((2, 3, 4, 6))
            torus.append(Fraction(rng.randrange(den), den))
        base.append((center, torus))
    if ncombos:
        combos = []
        for _ in range(ncombos):
            coeffs = [rng.randrange(12) for _ in base]
            center = [sum(c * g[0][i] for c, g in zip(coeffs, base)) % d for i, d in enumerate(orders)]
            torus = [sum(c * g[1][j] for c, g in zip(coeffs, base)) % 1 for j in range(r)]
            combos.append((center, torus))
        base = combos
    gluing = [{"center": center, "torus": [str(v) for v in torus]} for center, torus in base]
    doc = {"semisimple": [{"family": f, "rank": n} for f, n in factors], "torus_rank": r, "gluing": gluing}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def deck_matrix_literal(seed, kind, n):
    """``--matrix`` literal of a random matrix drawn as the snf deck in
    perfbench/workloads.py draws one, from ``random.Random(seed)``: entries
    in [-9, 9], n x n (square), n x (n + 4) (wide), or n x n with three
    rows repeating others up to sign (deficient).  It is a copy, so that
    the pinned matrices do not move when the deck does."""
    rng = random.Random(seed)
    if kind == "square":
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    elif kind == "wide":
        rows = [[rng.randint(-9, 9) for _ in range(n + 4)] for _ in range(n)]
    else:
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n - 3)]
        for _ in range(3):
            src = rng.choice(rows)
            sign = rng.choice((1, -1))
            rows.insert(rng.randrange(len(rows) + 1), [sign * x for x in src])
    return ";".join(",".join(map(str, row)) for row in rows)


PINNED_MATRICES = {
    "square": "3,-7,2,5;-4,9,0,-1;6,1,-8,2;0,-5,7,3",
    "wide": "2,-4,6,1,-3;5,0,-9,8,7;-1,3,2,-6,4",
    "rank-deficient": "1,2,-3,4;2,4,-6,8;0,5,1,-2;1,7,-2,2",
    # U0 diag(4, 6, 10) V0 for unimodular U0 = [1,0,0;2,1,0;-1,3,1] and
    # V0 = [1,1,2;0,1,-1;0,0,1]: the Smith loop twice folds a row holding
    # an entry its pivot does not divide into the pivot row, as it does on
    # diag(4, 6, 10) itself
    "fold": "4,4,8;8,14,10;-4,14,-16",
    # the snf deck's shapes, and 20 x 20
    "square-8": deck_matrix_literal(8, "square", 8),
    "wide-10x14": deck_matrix_literal(10, "wide", 10),
    "deficient-12": deck_matrix_literal(12, "deficient", 12),
    "square-20": deck_matrix_literal(20, "square", 20),
}


@pytest.mark.parametrize("command, name", sorted(PINNED_REPORTS))
def test_report_bytes_pinned(command, name, tmp_path):
    digest = PINNED_REPORTS[command, name]
    fmt = ["--json"]
    if command.endswith(" text"):
        command, fmt = command.removesuffix(" text"), []
    elif command == "describe --expand":
        command, fmt = "describe", ["--expand"]
    if command == "ext":
        source = ["--group", name, "--char", PINNED_CHARACTERS[name]]
    elif command == "snf":
        source = ["--matrix", PINNED_MATRICES[name]]
    elif name == "torus-r3":
        path = tmp_path / "torus_r3.json"
        path.write_text(json.dumps(TORUS_R3))
        source = ["--spec", str(path)]
    elif name in QUOTIENT_SPECS:
        path = tmp_path / "quotient.json"
        path.write_text(json.dumps(QUOTIENT_SPECS[name]))
        source = ["--spec", str(path)]
    elif name in CLIFF_MODELS:
        path = tmp_path / f"{name}.json"
        path.write_text(cliff_spec(name))
        source = ["--spec", str(path)]
    else:
        source = ["--preset", name]
    code, out, _ = invoke([command, *fmt, *source])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(CLIFF_MODELS))
def test_former_torus_cliffs_answer_within_a_second(name, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_text(cliff_spec(name))
    # the query caches start empty in every test (conftest), so the spec
    # reader builds a new model, which derives everything again
    start = time.perf_counter()
    code, out, err = invoke([CLIFF_MODELS[name][0], "--json", "--spec", str(path)])
    elapsed = time.perf_counter() - start
    assert code == 0, err
    assert elapsed < 1.0


# A7 x D5, r = 10, ten gluing generators whose torus coordinates have
# denominators drawn from range(2, 10**6, 99991), so N has well over 100
# bits: invariants --json digests per seed.  Spanning the gluing group with
# its inclusion took up to seconds on these, so a query must not.
LARGE_DENOMINATOR_DIGESTS = {
    0: "7a1a5583ada452c284fd810c54ffa8dac96adc1608127a00f1d80c1b9ca3fce8",
    1: "97fb88ac86ee43bec3699115e076a031acdd5aa6cf7d7a1f4ce5cd6f5aed05f2",
    2: "836111a01918310ecd787e0984343665791e722db7e1976cd8c388c962e61927",
    3: "5b3bcfad179ba0b0d5b00be9e855741b42d8a2a7ad6df6c50f2f03c4ac3801f8",
}


def large_denominator_spec(seed, generators=10):
    """A7 x D5 with a rank-10 torus and ``generators`` gluing generators,
    torus denominators up to 10^6; the k-generator specs take seed 1."""
    rng = random.Random(seed)
    factors = (("A", 7), ("D", 5))
    orders = build_datum(tuple(SimpleType(f, n) for f, n in factors)).pq_group.invariant_factors
    gluing = []
    for _ in range(generators):
        center = [rng.randrange(d) for d in orders]
        torus = []
        for _ in range(10):
            den = rng.choice(range(2, 10**6, 99991))
            torus.append(str(Fraction(rng.randrange(den), den)))
        gluing.append({"center": center, "torus": torus})
    doc = {"semisimple": [{"family": f, "rank": n} for f, n in factors], "torus_rank": 10, "gluing": gluing}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("seed", sorted(LARGE_DENOMINATOR_DIGESTS))
def test_large_denominator_invariants_answer_within_a_second(seed, tmp_path):
    path = tmp_path / "large_denominators.json"
    path.write_text(large_denominator_spec(seed))
    start = time.perf_counter()
    code, out, err = invoke(["invariants", "--json", "--spec", str(path)])
    elapsed = time.perf_counter() - start
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_DENOMINATOR_DIGESTS[seed]
    assert elapsed < 1.0


# describe --json digests of the large-denominator specs, keyed by (seed,
# k): recorded from the exact Smith form of the gluing group's relation
# lattice, which took 1.6 s on seed 3 and 15 s at k = 12 before the type
# was read off a diagonal modulo e
LARGE_DENOMINATOR_DESCRIBE_DIGESTS = {
    (0, 10): "e7dd74dce719eac05175556043a81d42d36aba9a07848f20260bc3b16a991d5c",
    (1, 10): "cfb70145e73c86724f282f483800ca0a38989d5aa2d16c3d165d3349f899d3ff",
    (2, 10): "18621b87e8ca3cf425def28be856f0c26c8d008f52c8bd9b837579e5a8b96c4e",
    (3, 10): "853a8ae0ff7242c51dbd4e91b661b714e9af40dbc1e6cd4089dc82bdbb77d5a2",
    (1, 11): "90c5e18414593034655ad6632e4cf29eda35e0a3365f9974c5139e230bcfa139",
    (1, 12): "6837d65bc77229cc51b38d03c6c14fae4332d1e6b1beb8966612086143ea5a3c",
}


@pytest.mark.parametrize("seed, k", sorted(LARGE_DENOMINATOR_DESCRIBE_DIGESTS))
def test_large_denominator_describe_bytes(seed, k, tmp_path):
    path = tmp_path / "large_denominators.json"
    path.write_text(large_denominator_spec(seed, k))
    code, out, err = invoke(["describe", "--json", "--spec", str(path)])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_DENOMINATOR_DESCRIBE_DIGESTS[seed, k]


@pytest.mark.parametrize("k", [12, 20, 40])
def test_describe_answers_within_a_second_at_k_generators(k, tmp_path):
    path = tmp_path / f"generators_{k}.json"
    path.write_text(large_denominator_spec(1, k))
    start = time.perf_counter()
    code, out, err = invoke(["describe", "--json", "--spec", str(path)])
    elapsed = time.perf_counter() - start
    assert code == 0, err
    assert json.loads(out)["pi1"].startswith("Z^10")
    assert elapsed < 1.0


def wide_spec(seed, torus_rank, generators):
    """A random model: up to two simple factors, the given torus rank and
    number of gluing generators, and torus denominators drawn, as in
    ``large_denominator_spec``, from range(2, 10**6, 99991)."""
    rng = random.Random(seed)
    factors = tuple(rng.choice((("A", 7), ("D", 5), ("A", 3), ("D", 4), ("E", 6), ("B", 3))) for _ in range(rng.randint(0, 2)))
    orders = build_datum(tuple(SimpleType(f, n) for f, n in factors)).pq_group.invariant_factors
    gluing = []
    for _ in range(generators):
        torus = []
        for _ in range(torus_rank):
            den = rng.choice(range(2, 10**6, 99991))
            torus.append(str(Fraction(rng.randrange(den), den)))
        gluing.append({"center": [rng.randrange(d) for d in orders], "torus": torus})
    doc = {"semisimple": [{"family": f, "rank": n} for f, n in factors], "torus_rank": torus_rank, "gluing": gluing}
    return json.dumps(doc)


# (seed, torus rank, gluing generators)
WIDE_SPECS = [(0, 64, 64), (1, 64, 1), (2, 1, 64), (3, 32, 48), (4, 48, 20), (5, 7, 64)]


def gluing_system(model):
    """The gluing subgroup's span problem: the orders of Z(S_sc) x (Z/N)^r
    and each gluing generator's center coordinates and torus numerators."""
    orders = center(model.ss).orders + (model.torus_denominator,) * model.torus_rank
    return orders, list(model.gluing)


def assert_gluing_type_facts(model):
    # two facts that need neither elimination loop: |Gamma| is the index of
    # the generators' relation lattice, the product of its Hermite pivots,
    # and the exponent of Gamma is the lcm of the generators' orders
    orders, gens = gluing_system(model)
    gamma = model.gluing_type
    assert gamma.order() == prod(row[j] for j, row in enumerate(solution_lattice(gens, orders)))
    assert (gamma.invariant_factors or (1,))[-1] == span_exponent(orders, gens)


@pytest.mark.parametrize("seed, r, k", WIDE_SPECS)
def test_describe_answers_within_a_second_on_wide_random_models(seed, r, k, tmp_path):
    text = wide_spec(seed, r, k)
    path = tmp_path / "wide.json"
    path.write_text(text)
    start = time.perf_counter()
    code, out, err = invoke(["describe", "--json", "--spec", str(path)])
    elapsed = time.perf_counter() - start
    assert code == 0, err
    assert elapsed < 1.0
    model = parse_spec(text)
    assert json.loads(out)["gluing_order"] == model.gluing_type.order()
    assert_gluing_type_facts(model)


class TestGeneratorSpecs:
    @pytest.mark.parametrize("k", [10, 11, 12, 16, 20, 40, 64])
    def test_gluing_type_order_and_exponent(self, k):
        assert_gluing_type_facts(parse_spec(large_denominator_spec(1, k)))

    @pytest.mark.parametrize("seed", sorted(LARGE_DENOMINATOR_DIGESTS))
    def test_gluing_type_order_and_exponent_per_seed(self, seed):
        assert_gluing_type_facts(parse_spec(large_denominator_spec(seed)))

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_gluing_type_is_the_exact_route_on_short_specs(self, k):
        # the exact Smith quotient of the relation lattice stays small for
        # a few generators
        model = parse_spec(large_denominator_spec(1, k))
        assert model.gluing_type == exact_span_group(*gluing_system(model))

    @pytest.mark.parametrize("seed, k", [(0, 10), (1, 10), (2, 10), (3, 10), (1, 11), (1, 20), (1, 40), (1, 64)])
    def test_pi1_torsion_is_the_derived_kernel(self, seed, k):
        # the bare kernel type against the kernel spanned with its inclusion
        model = parse_spec(large_denominator_spec(seed, k))
        assert pi1(model) == FgAbGroup(10, model.derived.kernel.computed.invariant_factors)

    @pytest.mark.parametrize("seed, r, k", WIDE_SPECS)
    def test_pi1_torsion_is_the_derived_kernel_on_wide_random_models(self, seed, r, k):
        model = parse_spec(wide_spec(seed, r, k))
        assert pi1(model) == FgAbGroup(r, model.derived.kernel.computed.invariant_factors)

    @pytest.mark.parametrize("k", [10, 20, 40, 64])
    def test_derived_kernel_matches_the_sympy_route(self, k, monkeypatch):
        # the derived kernel's subgroup system on the k-generator spec: the
        # library reads U^-1 as R V D^-1, the oracle inverts U with sympy
        model = parse_spec(large_denominator_spec(1, k))
        systems = []

        def recording(ambient, gens):
            systems.append((ambient, gens))
            return subgroup_from_generators(ambient, gens)

        monkeypatch.setattr(groups, "subgroup_from_generators", recording)
        kernel = model.derived.kernel
        [(ambient, gens)] = systems
        assert len(gens) == k
        expected = span_subgroup(ambient, [AbElement(ambient, g) for g in gens])
        assert kernel.computed == expected.computed
        assert kernel.inclusion == expected.inclusion

    def test_invariants_answer_within_a_second_at_64_generators(self, tmp_path):
        path = tmp_path / "generators_64.json"
        path.write_text(large_denominator_spec(1, 64))
        start = time.perf_counter()
        code, out, err = invoke(["invariants", "--json", "--spec", str(path)])
        elapsed = time.perf_counter() - start
        assert code == 0, err
        assert json.loads(out)["spec"]["torus_rank"] == 10
        assert elapsed < 1.0


class TestDeterminismAndSchema:
    def test_byte_identical_runs(self):
        for argv in (
            ["invariants", "--preset", "SO(7)", "--json"],
            ["invariants", "--preset", "GL(3)"],
            ["weights", "--preset", "PGL(3)", "--json"],
            ["describe", "--preset", "Sp(6)"],
        ):
            first = invoke(argv)
            second = invoke(argv)
            assert first == second

    def test_json_report_validates_against_schema(self, tmp_path):
        schema = json.loads((REPO / "schemas" / "invariants_report.schema.json").read_text())
        spec = tmp_path / "quotient.json"
        spec.write_text(json.dumps(QUOTIENT_SPECS["A1^8/Z2^3"]))
        sources = [["--preset", name] for name in ("SO(7)", "SO(2)", "GL(3)", "PGL(5)", "Spin(10)", "Sp(4)")]
        # large tables, and one with several restriction coordinates per row
        sources += [["--preset", "SL(128)"], ["--preset", "PGL(12)"], ["--spec", str(spec)]]
        for source in sources:
            code, out, _ = invoke(["invariants", *source, "--json"])
            assert code == 0
            jsonschema.validate(json.loads(out), schema)

    def test_describe_report_validates_against_schema(self, tmp_path):
        schema = json.loads((REPO / "schemas" / "describe_report.schema.json").read_text())
        sources = [["--preset", name] for name in ("SO(2)", "GL(1)", "GL(4)", "PGL(6)", "SO(8)", "Spin(10)", "Sp(4)")]
        docs = [TORUS_R3, QUOTIENT_SPECS["named-D4/Z2"], QUOTIENT_SPECS["A1^8/Z2^3"]]
        rng = random.Random(33)
        docs += [model_to_document(random_model(rng, unipotent_dim=rng.randint(0, 3))) for _ in range(20)]
        for i, doc in enumerate(docs):
            path = tmp_path / f"spec{i}.json"
            path.write_text(json.dumps(doc))
            sources.append(["--spec", str(path)])
        for source in sources:
            code, out, err = invoke(["describe", *source, "--json"])
            assert code == 0, err
            jsonschema.validate(json.loads(out), schema)

    def test_unipotent_model_schema(self):
        schema = json.loads((REPO / "schemas" / "invariants_report.schema.json").read_text())
        text = '{"torus_rank": 0, "unipotent_dim": 1, "name": "upper-triangular"}'
        assert parse_spec(text).unipotent_dim == 1

    def test_semisimple_report_includes_weight_table(self):
        code, out, _ = invoke(["invariants", "--preset", "SO(7)", "--json"])
        payload = json.loads(out)
        assert len(payload["weights"]) == 3
        code, out, _ = invoke(["invariants", "--preset", "GL(2)", "--json"])
        assert "weights" not in json.loads(out)


# JSON values of the kinds reports hold, with the text and integers that
# escaping and big-number printing get wrong first
_JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'), st.characters()), max_size=8)
_JSON_INTS = st.one_of(st.integers(-9, 9), st.integers(-(2**100), 2**100))
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), _JSON_INTS, _JSON_TEXT),
    lambda children: st.one_of(
        st.lists(st.one_of(_JSON_INTS, st.booleans()), max_size=6),
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_JSON_TEXT, children, max_size=4),
    ),
    max_leaves=24,
)


class _Flag(IntEnum):
    ON = 1


class TestJsonWriter:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(_JSON_VALUES)
    def test_bytes_equal_json_dumps_indent_2(self, value):
        assert json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [[True, 1], [1, True], (7,), [[], [0]], [-3, 0, 2**100], 5, "x", False, None])
    def test_int_list_path_edges(self, value):
        # all-int lists and tuples print through one repr; bools keep the
        # general path, and a one-tuple's repr has a trailing comma
        assert json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value",
        [1.5, Fraction(1, 2), {1, 2}, [0, 1.0], {"a": [{"b": Fraction(1, 3)}]}, {1: 2}, [_Flag.ON], [0, _Flag.ON]],
    )
    def test_other_types_raise(self, value):
        # an int subclass such as an IntEnum member is not an int here
        with pytest.raises(TypeError):
            json_text(value)

    def test_int_past_the_digit_limit_raises_value_error(self, tmp_path):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            value = [1, 10**5000]
            with pytest.raises(ValueError):
                json.dumps(value, indent=2)
            with pytest.raises(ValueError):
                json_text(value)
            spec = tmp_path / "big.json"
            spec.write_text(json.dumps(DIGIT_LIMIT_SPEC))
            code, out, err = invoke(["invariants", "--json", "--spec", str(spec)])
        finally:
            sys.set_int_max_str_digits(saved)
        assert (code, out) == (1, "")
        assert err.startswith("error[E_LIMIT] at --spec: "), err


def row_dicts(model):
    """The weight table of a semisimple model as the dicts of its rows,
    rebuilt weight by weight: row i's weight is ``fundamental_weight(i)``,
    its restriction that weight's ``restrict_weight`` to the kernel, and its
    Brauer class the restriction again (docs/conventions.md)."""
    sm = as_semisimple(model)
    restrictions = fundamental_restrictions(sm.datum, sm.kernel)
    return [
        {
            "node": node,
            "weight": list(fundamental_weight(sm.datum, i).coords),
            "restriction": list(restriction.coords),
            "brauer_class": list(restriction.coords),
            "trivial": is_zero_element(restriction),
        }
        for i, (node, restriction) in enumerate(zip(sm.datum.node_labels, restrictions))
    ]


def stdlib_report(out, key, model):
    """``out`` as ``json.dumps(..., indent=2)`` writes it when the weight
    table under ``key`` is ``row_dicts(model)``."""
    payload = json.loads(out)
    payload[key] = row_dicts(model)
    return json.dumps(payload, indent=2) + "\n"


def assert_tables_match_stdlib(source, model):
    """``invariants --json`` and, for a semisimple model, ``weights --json``
    on ``source`` print the bytes of ``stdlib_report``."""
    if model.torus_rank or model.unipotent_dim:
        code, out, err = invoke(["invariants", "--json", *source])
        assert code == 0 and "weights" not in json.loads(out), err
        return
    for command, key in (("invariants", "weights"), ("weights", "rows")):
        code, out, err = invoke([command, "--json", *source])
        assert code == 0, err
        assert out == stdlib_report(out, key, model), (command, source)


# every preset kind at every n the writer's indentation and widths could
# split on, past the benchmark's largest n of 128
TABLE_PRESET_NS = (*range(2, 41), 48, 64, 96, 128, 130)


class TestWeightTableWriter:
    @pytest.mark.parametrize("kind", ["SL", "GL", "PGL", "SO", "Sp", "Spin"])
    def test_presets_match_stdlib(self, kind):
        for n in TABLE_PRESET_NS:
            if kind == "Sp" and n % 2:
                continue
            name = f"{kind}({n})"
            assert_tables_match_stdlib(["--preset", name], preset(name))

    @pytest.mark.parametrize("factors", MIXED_CENTER_PRODUCTS, ids=lambda factors: "x".join(map(str, factors)))
    def test_every_subgroup_of_mixed_centers_matches_stdlib(self, factors, tmp_path):
        group = center(build_datum(factors))
        path = tmp_path / "quotient.json"
        for sub in all_subgroups(group):
            gluing = [{"center": list(sub.inclusion.column(j)), "torus": []} for j in range(sub.computed.ngens)]
            text = json.dumps({"semisimple": [{"family": t.family, "rank": t.rank} for t in factors], "gluing": gluing})
            path.write_text(text)
            assert_tables_match_stdlib(["--spec", str(path)], parse_spec(text))

    def test_empty_table_and_empty_columns(self):
        code, out, err = invoke(["invariants", "--json", "--preset", "SL(1)"])
        assert code == 0, err
        assert '"weights": []' in out
        code, out, err = invoke(["weights", "--json", "--preset", "SL(3)"])
        assert code == 0, err
        assert out.count('"restriction": [],') == out.count('"brauer_class": [],') == 2
        for name in ("SL(1)", "SL(3)"):
            assert_tables_match_stdlib(["--preset", name], preset(name))

    def test_table_as_a_top_level_value(self):
        # at depth 0 the rows sit under no key: presets, and the quotients
        # of A1^k and A2^k by kernels of rank 1, ceil(k/2) and k
        models = [preset(name) for name in ("SL(1)", "SO(9)", "PGL(12)")]
        for p, top in ((2, 8), (3, 5)):
            for k in range(1, top + 1):
                for j in sorted({1, (k + 1) // 2, k}):
                    # e_t + (p - 1) e_{k-1} for t < j, independent mod p,
                    # or every unit vector when j = k
                    gens = [[int(s == t) + (p - 1) * (j < k and s == k - 1) for s in range(k)] for t in range(j)]
                    doc = {
                        "semisimple": [{"family": "A", "rank": p - 1}] * k,
                        "gluing": [{"center": g, "torus": []} for g in gens],
                    }
                    model = parse_spec(json.dumps(doc))
                    assert as_semisimple(model).kernel.computed.ngens == j, (p, k, j)
                    models.append(model)
        for model in models:
            table = weight_brauer_table(as_semisimple(model))
            assert json_text(table) == json.dumps(row_dicts(model), indent=2), model.describe()

    @pytest.mark.parametrize("kind", ["SL", "GL", "PGL", "SO", "Sp", "Spin"])
    def test_text_weights_match_the_oracle(self, kind):
        # text weights prints one line per node: its label, its restriction
        # and its class, or "trivial", as the oracle's rows give them
        line = re.compile(r"  node +(\S+): restriction (\[[\d, ]*\]) -> (.*)")
        for n in TABLE_PRESET_NS:
            if kind == "Sp" and n % 2:
                continue
            name = f"{kind}({n})"
            code, out, err = invoke(["weights", "--preset", name])
            if preset(name).torus_rank:
                assert code == 1 and "E_MODEL" in err, name
                continue
            assert code == 0, err
            rows = row_dicts(preset(name))
            printed = out.splitlines()[2:]
            assert len(printed) == len(rows), name
            for text, row in zip(printed, rows):
                node, restriction, cls = line.fullmatch(text).groups()
                assert node == row["node"] and json.loads(restriction) == row["restriction"], (name, text)
                assert cls == ("trivial" if row["trivial"] else f"class {row['brauer_class']}"), (name, text)

    def test_a_copy_under_another_package_name_writes_tables(self, tmp_path):
        # the writer knows a table by the class in its own package's
        # invariants module, whatever name that package was imported under
        shutil.copytree(REPO / "src" / "homspace", tmp_path / "hs_copy", ignore=shutil.ignore_patterns("__pycache__"))
        script = "import sys; from hs_copy.cli import run; sys.exit(run(sys.argv[1:]))"
        argv = ["weights", "--json", "--preset", "SL(3)"]
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script, *argv],
            capture_output=True, text=True, timeout=60, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(tmp_path)),
        )
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        assert proc.stdout == invoke(argv)[1]


class TestInternalErrorPath:
    def test_exit_code_two(self, monkeypatch):
        def broken(model):
            raise RuntimeError("synthetic invariant violation")

        monkeypatch.setattr(invariants, "invariant_report", broken)
        code, _, err = invoke(["invariants", "--preset", "SO(5)"])
        assert code == 2
        assert "E_INTERNAL" in err
