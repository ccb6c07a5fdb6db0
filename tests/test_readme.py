"""The README's examples run as written: the Python example prints what its
``#`` comments say, every ``homspace`` line of the CLI block exits 0
through ``homspace.cli.run``, and the group-spec example reads as a
model."""

import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

from homspace.cli import run
from homspace.rootdata import SimpleType
from homspace.spec import parse_spec

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced(language):
    """The bodies of the README's code blocks fenced as ``language``."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def test_python_example_prints_its_comments():
    (code,) = fenced("python")
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    out = io.StringIO()
    with redirect_stdout(out):
        exec(code, {})
    assert expected and out.getvalue().splitlines() == expected


def test_cli_example_lines_exit_zero():
    lines = [line for block in fenced("sh") for line in block.splitlines() if line.startswith("homspace ")]
    assert lines
    for line in lines:
        err = io.StringIO()
        assert run(shlex.split(line, comments=True)[1:], stdout=io.StringIO(), stderr=err) == 0, (line, err.getvalue())


def test_spec_example_reads_as_a_model():
    (doc,) = fenced("json")
    model = parse_spec(doc)
    assert (model.ss.factors, model.torus_rank, len(model.gluing)) == ((SimpleType("D", 4),), 1, 1)
